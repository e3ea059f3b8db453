"""The benchmark's workloads: inputs from a seed, one timed scenario, and the
check of its outputs.

Each workload builds its inputs from the seed alone, runs one scenario
through the public API (`sim.run_scenario` or `sim.ber_test`, looked up on
the module at call time so a traced run reaches the wrappers), and checks
the result. Checks that hold for any seed run on every scenario; the named
simulated statistics in `expected.json` are pinned for the default seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from tdmlink import sim
from tdmlink.transport import throughput_model

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

BER_DURATION_BITS = 1.32e13  # the acceptance suite's criterion-4 length
BER_WINDOW_BITS = 10_000_000
BER_INJECTIONS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    prepare: Callable[[int], dict]
    run: Callable[[dict], object]
    sim_ticks: Callable[[object], int]
    summary: Callable[[dict, object], dict]
    invariants: Callable[[dict, object], list]

    def check(self, inputs: dict, outcome, seed: int) -> list[str]:
        """Problems found in one scenario's outputs; empty when correct."""
        problems = list(self.invariants(inputs, outcome))
        if seed == self.default_seed:
            got = self.summary(inputs, outcome)
            for key, want in EXPECTED[self.name].items():
                if got[key] != want:
                    problems.append(f"{key}: got {got[key]!r}, expected {want!r}")
        return problems


# -- scenario workloads (run_scenario) ----------------------------------------------


def _sweep_config(seed):
    return sim.SimConfig(
        num_frontends=32, seed=seed, abstraction="message_level",
        trigger_mode="gated", trigger_count=10**9,
        channels_per_event=256, words_per_channel=128,
        credit=8, mtu=8192, run_ms=20.0, warmup_ms=4.0,
        buffering_depth=4, verify_provenance=False, keep_client_events=True,
    )


def _readout_config(seed):
    return sim.SimConfig(
        num_frontends=2, seed=seed, abstraction="message_level",
        trigger_mode="gated", trigger_count=10**9,
        channels_per_event=256, words_per_channel=512,
        credit=8, mtu=8192, run_ms=24.0, warmup_ms=4.0,
        buffering_depth=4, verify_provenance=True, keep_client_events=True,
    )


def _symbol_config(seed, abstraction="symbol_level"):
    return sim.SimConfig(
        num_frontends=32, seed=seed, abstraction=abstraction,
        trigger_mode="periodic", trigger_count=3,
        trigger_period_us=100.0, trigger_start_us=360.0,
        channels_per_event=3, words_per_channel=4,
    )


def _prepare_sweep(seed):
    return {"config": _sweep_config(seed)}


def _prepare_readout(seed):
    return {"config": _readout_config(seed)}


def _prepare_symbol(seed):
    # The oracle: the message-level engine must deliver the same messages.
    reference = sim.run_scenario(_symbol_config(seed, "message_level"))
    return {"config": _symbol_config(seed), "reference_digest": reference.client_digest()}


def _run_scenario(inputs):
    return sim.run_scenario(inputs["config"])


def _scenario_ticks(result):
    return result.metrics.elapsed_ticks


def _scenario_summary(inputs, result):
    m = result.metrics
    return {
        "events_built": m.events_built,
        "client_frames": m.client["frames"],
        "client_payload_bytes": m.client["payload_bytes"],
        "throughput_MB_s": round(m.throughput_MB_s, 6),
        "client_digest": result.client_digest(),
    }


def _scenario_invariants(inputs, result):
    m = result.metrics
    problems = [f"violation: {v}" for v in m.violations]
    for key in ("crc_failures", "provenance_errors", "magic_errors", "gaps", "structure_errors"):
        if m.client[key]:
            problems.append(f"client {key} = {m.client[key]}")
    if m.halt_reason is not None:
        problems.append(f"builder halted: {m.halt_reason}")
    if not m.bootstrap["verified"]:
        problems.append("bootstrap not verified")
    if not result.engine.pool.audit():
        problems.append("buffer pool audit failed")
    return problems


def _symbol_invariants(inputs, result):
    problems = _scenario_invariants(inputs, result)
    events = result.metrics.client["events"]
    if events != inputs["config"].trigger_count:
        problems.append(f"client events {events} != triggers {inputs['config'].trigger_count}")
    if result.client_digest() != inputs["reference_digest"]:
        problems.append("symbol-level digest differs from the message-level digest")
    return problems


def model_error_pct(result) -> float:
    """Simulated DAQ throughput against the analytic transport model, in %."""
    cfg = result.config
    model = throughput_model(cfg.credit, cfg.mtu, request_rtt_s=cfg.request_rtt_us * 1e-6)
    return 100.0 * abs(result.metrics.throughput_MB_s - model) / model


# -- BER tester workload (ber_test) ----------------------------------------------


def _prepare_ber(seed):
    rng = np.random.default_rng(seed)
    # Drawn without materializing the window, so that set-up does not set the
    # process's peak memory.
    positions = rng.choice(BER_WINDOW_BITS - 31, size=BER_INJECTIONS, replace=False) + 31
    return {"inject": tuple(sorted(int(p) for p in positions)), "seed": seed}


def _run_ber(inputs):
    return sim.ber_test(
        "prbs31", duration_bits=BER_DURATION_BITS, window_bits=BER_WINDOW_BITS,
        inject=inputs["inject"], seed=inputs["seed"],
    )


def _ber_summary(inputs, result):
    return {"bits": result.bits, "window_bits": result.window_bits, "errors": result.errors}


def _ber_invariants(inputs, result):
    problems = []
    if not result.injected_detected:
        problems.append("an injected error escaped detection")
    if result.errors != len(inputs["inject"]):
        problems.append(f"{result.errors} errors counted for {len(inputs['inject'])} injected")
    if result.error_positions != list(inputs["inject"]):
        problems.append("error positions differ from the injected positions")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_c8_jumbo", 7,
            _prepare_sweep, _run_scenario, _scenario_ticks, _scenario_summary, _scenario_invariants,
        ),
        Workload(
            "readout_verify", 6,
            _prepare_readout, _run_scenario, _scenario_ticks, _scenario_summary, _scenario_invariants,
        ),
        Workload(
            "symbol_32", 99,
            _prepare_symbol, _run_scenario, _scenario_ticks, _scenario_summary, _symbol_invariants,
        ),
        Workload(
            "ber_prbs31", 4,
            _prepare_ber, _run_ber, lambda result: result.window_bits, _ber_summary, _ber_invariants,
        ),
    )
}
