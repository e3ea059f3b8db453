"""tdmlink benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload sweep_c8_jumbo --seed 7 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `tdmlink` from its
`src/`. One process runs scenarios one at a time, with no threads, each
starting when the previous one has finished, until --seconds have passed;
every scenario's output is checked. With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of `layers.py`, from traced scenarios that alternate with untraced
ones. Earlier stdout lines give the machine stamp and a readable summary; a
JSON record of the run (and, traced, its spans) goes to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 11
END_TO_END = ("wall_s", "sim_ticks_per_s", "setup_s", "peak_rss_mb")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_stamp() -> dict:
    load = os.getloadavg()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "tdmlink").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "loadavg_start": [round(x, 2) for x in load],
    }


def load_benchmark(workloads, layer_names) -> dict:
    """BENCHMARK.json, after checking that it names the same workloads and
    metrics as the code here."""
    try:
        bench = json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {BENCHMARK}: {exc}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads):
        _fail("BENCHMARK.json workloads differ from perfbench/workloads.py")
    if sorted(m["name"] for m in bench["end_to_end"]) != sorted(END_TO_END):
        _fail("BENCHMARK.json end_to_end metrics differ from perfbench/run.py")
    if sorted(m["name"] for m in bench["per_layer"]) != sorted(layer_names):
        _fail("BENCHMARK.json per_layer metrics differ from perfbench/layers.py")
    return bench


def setup_seconds(workload: str, seed: int, probe) -> list[tuple[float, float]]:
    """(host, nominal) seconds of a fresh interpreter that imports tdmlink
    and builds the workload's inputs, measured SETUP_REPEATS times."""
    code = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]; "
        "import tdmlink, workloads; workloads.WORKLOADS[{w!r}].prepare({seed})"
    ).format(src=str(SRC), here=str(HERE), w=workload, seed=seed)
    out = []
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, subprocess polls the child every 50 ms.
        _, host, nominal = probe.around(
            subprocess.run, [sys.executable, "-c", code], cwd=ROOT, check=True
        )
        out.append((host, nominal))
    return out


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest nearest-rank percentile below the
    maximum, p = 100 (n - 1) / n: the second-highest sample. None when n < 2."""
    n = len(samples)
    if n < 2:
        return None
    return 100.0 * (n - 1) / n, sorted(samples)[n - 2]


def main(argv=None) -> int:
    if not (SRC / "tdmlink" / "__init__.py").is_file():
        _fail(f"no tdmlink sources under {SRC}; run from the root of a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import tdmlink

    if Path(tdmlink.__file__).resolve().parent != (SRC / "tdmlink").resolve():
        _fail(f"imported tdmlink from {tdmlink.__file__}, not from {SRC}")
    import layers
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS, model_error_pct

    bench = load_benchmark(WORKLOADS, layers.NAMES)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    stamp = machine_stamp()
    print(json.dumps({"kind": "stamp", **stamp}, sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    inputs = workload.prepare(seed)
    probe = SpeedProbe()
    setups = setup_seconds(workload.name, seed, probe)

    tracer = Tracer() if args.trace else None
    walls: list[float] = []  # host seconds per checked, untraced scenario
    nominal: list[float] = []  # the same, in nominal seconds
    ticks_nominal: list[float] = []  # simulated ticks per nominal second
    traced_walls: list[float] = []
    model_error = None  # deterministic: the same for every scenario
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            if tracer is None:
                outcome, dt, dt_nominal = probe.timed(workload.run, inputs)
            elif traced:
                done = tracer.scenarios
                outcome = tracer.run_scenario(workload.run, inputs)
                dt = tracer.root_walls[done]
            else:  # traced runs compare host times, probes off on both sides
                t0 = time.perf_counter()
                outcome = workload.run(inputs)
                dt = dt_nominal = time.perf_counter() - t0
            found = workload.check(inputs, outcome, seed)
        except Exception:
            found = ["raised:\n" + traceback.format_exc()]
        if found:
            failed += 1
            problems.extend(found)
        elif traced:
            traced_walls.append(dt)
        else:
            walls.append(dt)
            nominal.append(dt_nominal)
            ticks_nominal.append(workload.sim_ticks(outcome) / dt_nominal)
            if workload.name == "sweep_c8_jumbo":
                model_error = model_error_pct(outcome)
        outcome = None  # drop the scenario before the next one starts
        gc.collect()
        enough = tracer is None or (walls and traced_walls) or attempted >= 4
        if time.perf_counter() >= deadline and enough:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = failed == 0 and bool(walls)
    e2e = {}
    if walls:
        hi = tail(walls)
        print(
            f"{workload.name} seed={seed}: host wall_s median={statistics.median(walls):.4f} "
            + (f"p{hi[0]:.0f}={hi[1]:.4f} " if hi else "tail=n/a(n<2) ")
            + f"n={len(walls)}; host setup_s median={statistics.median(h for h, _ in setups):.4f}; "
            f"peak_rss_mb={peak_rss_mb:.1f}; error_rate={failed}/{attempted}"
            + (f"; model_error_pct={model_error:.4f}" if model_error is not None else "")
        )
        if tracer is None:
            values = {
                "wall_s": statistics.median(nominal),
                "sim_ticks_per_s": statistics.median(ticks_nominal),
                "setup_s": statistics.median(n for _, n in setups),
                "peak_rss_mb": peak_rss_mb,
            }
            e2e = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    per_layer = {}
    if tracer is not None and traced_walls and walls:
        ctx = {
            "model_error_pct": model_error or 0.0,
            "overhead_pct": 100.0
            * (statistics.median(traced_walls) - statistics.median(walls))
            / statistics.median(walls),
        }
        rows = layers.derive(tracer, ctx)
        print(f"trace: {tracer.scenarios} traced / {len(walls)} untraced scenarios")
        per_layer = {m["name"]: {"value": rows[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    elif tracer is not None:
        correct = False

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.npz")
    metrics = per_layer if args.trace else e2e
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": stamp, "host_walls_s": walls, "nominal_walls_s": nominal,
        "host_wall_s_median": statistics.median(walls) if walls else None,
        "host_setup_s_median": statistics.median(h for h, _ in setups),
        "probe_inside_over_idle": probe.inside_over_idle,
        "traced_host_walls_s": traced_walls, "setup_s": setups,
        "end_to_end": e2e, "per_layer": per_layer, "problems": problems[:100], "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
