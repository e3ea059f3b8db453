"""Command-line entry points.

Subcommands:
    run              run one scenario from a JSON config file
    ber              embedded bit-error-rate tester (fast-forward capable)
    sweep            credit sweep of the DAQ transport, CSV output
    bootstrap-check  repeated ID-assignment verification
    vectors          emit or verify golden line-coding vectors

All outputs are machine readable (CSV or JSON lines); the exit status is
nonzero when any invariant is violated. Inputs rejected before a run starts
are usage errors, with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .sim import SimConfig, ber_test, check_ber_test, run_scenario
from .timebase import TICKS_PER_SECOND, UP_TICKS_PER_CHANNEL_BIT
from .transport import throughput_model
from . import vectors as vec

SWEEP_CSV_HEADER = "credit,mtu,MB_per_s,events,incomplete,gaps"


class _UsageError(Exception):
    """An input rejected before a run starts."""


def _before_run(build, *args):
    """Build or check a run's inputs; what `build` rejects is a usage error.
    Errors raised once the run has started are not caught."""
    try:
        return build(*args)
    except (OSError, TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc


def _load_config(path: str) -> SimConfig:
    return SimConfig.from_json(Path(path).read_text())


def _cmd_run(args) -> int:
    config = _before_run(_load_config, args.config)
    result = run_scenario(config)
    out = result.metrics.to_json_lines()
    if args.out:
        Path(args.out).write_text(out)
    sys.stdout.write(out)
    if result.metrics.violations:
        print(f"INVARIANT VIOLATIONS: {result.metrics.violations}", file=sys.stderr)
        return 1
    return 0


def _cmd_ber(args) -> int:
    _before_run(check_ber_test, args.pattern, args.bits, args.ber, args.window, args.inject)
    result = ber_test(
        pattern=args.pattern,
        duration_bits=args.bits,
        ber=args.ber,
        window_bits=args.window,
        inject=args.inject,
        seed=args.seed,
    )
    print(result.to_json())
    if args.inject and not result.injected_detected:
        print("injected errors escaped detection", file=sys.stderr)
        return 1
    return 0


def _positions(text: str) -> tuple[int, ...]:
    """Comma-separated bit positions, like 1000,2000."""
    return tuple(int(p) for p in text.split(","))


def _parse_range(text: str) -> list[int]:
    """A range like 1..8 or a list like 1,2,4, of values >= 1."""
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(x) for x in text.split(",")]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is an empty range or holds a value below 1")
    return values


def _count(text: str) -> int:
    """A whole number >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


def _card_count(text: str) -> int:
    """A card count, 1..32: the 5-bit ID space."""
    n = _count(text)
    if n > 32:
        raise argparse.ArgumentTypeError(f"{n} cards exceed the 5-bit ID space (1..32)")
    return n


def _sweep_configs(args) -> list[SimConfig]:
    return [
        SimConfig(
            num_frontends=args.cards,
            seed=args.seed,
            abstraction="message_level",
            trigger_mode="gated",
            trigger_count=10**9,
            channels_per_event=args.channels,
            words_per_channel=args.words,
            credit=credit,
            mtu=mtu,
            run_ms=args.run_ms,
            warmup_ms=args.warmup_ms,
            buffering_depth=4,
            verify_provenance=False,
        )
        for mtu in args.mtu
        for credit in args.credit
    ]


def _cmd_sweep(args) -> int:
    lines = [SWEEP_CSV_HEADER]
    ok = True
    for config in _before_run(_sweep_configs, args):
        credit, mtu = config.credit, config.mtu
        result = run_scenario(config)
        m = result.metrics
        model = throughput_model(credit, mtu, request_rtt_s=config.request_rtt_us * 1e-6)
        # The model predicts the transport bottleneck; it only binds when
        # the front-end side (each link's upstream channel C) can outrun it.
        source_MB_s = args.cards * (TICKS_PER_SECOND // UP_TICKS_PER_CHANNEL_BIT["C"] / 8 / 1e6)
        if source_MB_s >= 1.3 * model and abs(m.throughput_MB_s - model) > 0.10 * model:
            ok = False
            print(
                f"model deviation at credit={credit} mtu={mtu}: "
                f"simulated {m.throughput_MB_s:.2f} vs model {model:.2f} MB/s",
                file=sys.stderr,
            )
        if m.violations:
            ok = False
            print(f"violations at credit={credit} mtu={mtu}: {m.violations}", file=sys.stderr)
        lines.append(
            f"{credit},{mtu},{m.throughput_MB_s:.3f},{m.client['events']},"
            f"{m.client['incomplete_events']},{m.client['gaps']}"
        )
    csv = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv)
    sys.stdout.write(csv)
    return 0 if ok else 1


def _cmd_bootstrap_check(args) -> int:
    from .backend import untimed_exchange
    from .system import System

    failures = 0
    for rep in range(args.repetitions):
        system = System(SimConfig(num_frontends=args.cards, seed=args.seed + rep))
        system.bootstrap(untimed_exchange(system.cards))
        result = system.bootstrap_result
        failures += not result.verified
        record = {"repetition": rep, "seed": args.seed + rep, "cards": args.cards, "pass": result.verified,
                  "verified_ids": len(result.id_map) if result.verified else 0}
        print(json.dumps(record, sort_keys=True))
    print(f"bootstrap-check: {args.repetitions - failures}/{args.repetitions} repetitions passed")
    return 0 if failures == 0 else 1


def _cmd_vectors(args) -> int:
    if args.action == "emit":
        text = vec.format_vectors(vec.default_vectors())
        if args.path:
            Path(args.path).write_text(text)
        sys.stdout.write(text)
        return 0
    if args.path:
        text = Path(args.path).read_text()
        if args.path.endswith(".json"):
            failures = vec.verify_frame_vectors(text)
            count = len(json.loads(text))
        else:
            failures = vec.verify_lines(text)
            count = len(vec.parse_lines(text))
    else:
        line_text = vec.load_shipped()
        frame_text = vec.load_shipped_frames()
        failures = vec.verify_lines(line_text) + vec.verify_frame_vectors(frame_text)
        count = len(vec.parse_lines(line_text)) + len(json.loads(frame_text))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"vectors verify: {count - len(failures)}/{count} passed")
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tdmlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario from a JSON config")
    p.add_argument("config", help="path to the scenario config (JSON)")
    p.add_argument("--out", help="write JSON-lines metrics to this file")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("ber", help="bit-error-rate test")
    p.add_argument("--pattern", default="prbs7",
                   choices=["prbs7", "prbs15", "prbs23", "prbs31"])
    p.add_argument("--bits", type=float, default=1e6, help="effective bits, e.g. 1.3e13")
    p.add_argument("--ber", type=float, default=0.0, help="channel bit-error probability")
    p.add_argument("--window", type=int, default=1_000_000,
                   help="materialized window size in bits")
    p.add_argument("--inject", type=_positions, default=(), help="comma-separated positions to flip")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_ber)

    p = sub.add_parser("sweep", help="credit sweep, Fig.-13-style CSV")
    p.add_argument("--credit", type=_parse_range, default="1..8", help="range like 1..8 or list 1,2,4")
    p.add_argument("--mtu", type=_parse_range, default="8192", help="range or list of MTUs in bytes")
    p.add_argument("--cards", type=_card_count, default=32)
    p.add_argument("--channels", type=int, default=256)
    p.add_argument("--words", type=int, default=128)
    p.add_argument("--run-ms", type=float, default=30.0)
    p.add_argument("--warmup-ms", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="write CSV here as well")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bootstrap-check", help="ID assignment verification")
    p.add_argument("-n", "--cards", type=_card_count, default=32)
    p.add_argument("--repetitions", type=_count, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=_cmd_bootstrap_check)

    p = sub.add_parser("vectors", help="golden vector maintenance")
    p.add_argument("action", choices=["emit", "verify"])
    p.add_argument("path", nargs="?", help="vector file (default: shipped vectors)")
    p.set_defaults(fn=_cmd_vectors)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
