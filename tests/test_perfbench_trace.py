"""The benchmark's layer tracer still finds every boundary it reports on, and
every benchmark workload passes its own check."""

from pathlib import Path

from tdmlink.sim import SimConfig, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_symbol_scenario_reaches_every_layer_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    cfg = SimConfig(
        num_frontends=2,
        abstraction="symbol_level",
        trigger_mode="periodic",
        trigger_count=3,
        trigger_period_us=100.0,
        trigger_start_us=360.0,
        channels_per_event=3,
        words_per_channel=4,
    )
    tracer = spans.Tracer()
    result = tracer.run_scenario(run_scenario, cfg)
    assert result.metrics.client["events"] == 3
    # derive() raises KeyError for a boundary that no longer exists.
    rows = layers.derive(tracer, {"model_error_pct": 0.0, "overhead_pct": 0.0})
    assert set(rows) == set(layers.NAMES)
    # The fanout receivers decode through wire's private lane kernel, which
    # the tracer does not wrap; their own boundary is traced.
    assert tracer.stat("streams.DownstreamReceiver.feed").calls > 0


def test_every_workload_passes_its_own_check(monkeypatch):
    # The check holds the pins of expected.json for each default seed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    problems = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.prepare(workload.default_seed)
        problems[name] = workload.check(inputs, workload.run(inputs), workload.default_seed)
    assert problems == {name: [] for name in workloads.WORKLOADS}
