"""CLI subcommands: exit statuses and machine-readable outputs."""

import json

import pytest

from tdmlink import cli
from tdmlink.cli import main


def test_vectors_verify_shipped(capsys):
    assert main(["vectors", "verify"]) == 0
    assert "19/19 passed" in capsys.readouterr().out


def test_vectors_emit_then_verify(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    assert main(["vectors", "emit", str(path)]) == 0
    capsys.readouterr()
    assert main(["vectors", "verify", str(path)]) == 0
    assert "passed" in capsys.readouterr().out


def test_vectors_verify_fails_on_corruption(tmp_path, capsys):
    path = tmp_path / "vectors.txt"
    main(["vectors", "emit", str(path)])
    path.write_text(path.read_text().replace("a9", "aa"))
    capsys.readouterr()
    assert main(["vectors", "verify", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_ber_json_output(capsys):
    assert main(["ber", "--pattern", "prbs7", "--bits", "2e4", "--inject", "99"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["errors"] == 1 and out["injected_detected"]


def test_run_scenario_from_config(tmp_path, capsys):
    config = {
        "num_frontends": 2,
        "seed": 3,
        "abstraction": "message_level",
        "trigger_mode": "periodic",
        "trigger_count": 3,
        "trigger_period_us": 200.0,
        "trigger_start_us": 1000.0,
        "channels_per_event": 2,
        "words_per_channel": 4,
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "metrics.jsonl"
    assert main(["run", str(cfg_path), "--out", str(out_path)]) == 0
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    kinds = [l["kind"] for l in lines]
    assert kinds[0] == "run" and "client" in kinds and "link" in kinds
    run_line = lines[0]
    assert run_line["events_built"] == 3
    assert run_line["violations"] == []


def test_run_rejects_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"num_frontends": 99}))
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg_path)])
    assert exc.value.code == 2
    assert "num_frontends" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "No such file"),
        ("not json", "Expecting value"),
        ('{"num_frontends": 40}', "num_frontends must be 1..32"),
        ('{"num_frontends": "two"}', "num_frontends must be a whole number"),
        ('{"num_frontends": 2.5}', "num_frontends must be a whole number"),
        ('{"verify_provenance": "no"}', "verify_provenance must be true or false"),
        ('{"cards": 4}', "unknown config keys"),
        ('{"run_ms": Infinity}', "run_ms must be finite"),
        ('{"trigger_mode": "periodic", "trigger_period_us": NaN}', "trigger_period_us must be finite"),
        ('{"seed": -1}', "seed must be >= 0"),
    ],
)
def test_run_inputs_rejected_before_the_run_are_usage_errors(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "scenario.json"
    if text is not None:
        cfg_path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bootstrap_check(capsys):
    assert main(["bootstrap-check", "-n", "8", "--repetitions", "3"]) == 0
    out = capsys.readouterr().out
    assert "3/3 repetitions passed" in out


def test_sweep_small_grid(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--credit", "1,6", "--mtu", "8192", "--cards", "4",
        "--channels", "16", "--words", "128", "--run-ms", "8", "--warmup-ms", "2",
        "--out", str(out_path),
    ])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "credit,mtu,MB_per_s,events,incomplete,gaps"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "6"]
    assert float(rows[1][2]) >= float(rows[0][2])  # monotone in credit
    # Pinned: the message-level run behind each row must not change.
    assert out_path.read_text() == (
        "credit,mtu,MB_per_s,events,incomplete,gaps\n"
        "1,8192,22.541,8,0,0\n"
        "6,8192,87.513,34,0,0\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--credit", "8..1"], "empty range"),
        (["sweep", "--credit", "0"], "value below 1"),
        (["sweep", "--mtu", "0..8192"], "value below 1"),
        (["sweep", "--credit", "1..x"], "invalid"),
        (["sweep", "--cards", "40"], "1..32"),
        (["sweep", "--cards", "0"], "num_frontends must be 1..32"),
        (["bootstrap-check", "-n", "40"], "1..32"),
        (["bootstrap-check", "-n", "0"], "num_frontends must be 1..32"),
        (["bootstrap-check", "--repetitions", "0"], "below 1"),
        (["ber", "--bits", "5"], "duration too short"),
        (["ber", "--pattern", "prbs31", "--bits", "10"], "duration too short"),
        (["ber", "--inject", "3"], "inject position 3 outside"),
        (["ber", "--inject", "1000,abc"], "invalid _positions value"),
        (["ber", "--bits", "abc"], "invalid float value"),
        (["ber", "--ber", "2"], "ber must be within [0, 1]"),
        (["ber", "--ber", "-0.5"], "ber must be within [0, 1]"),
        (["sweep", "--run-ms", "1"], "end after warmup_ms"),
        (["sweep", "--run-ms", "inf"], "run_ms must be finite"),
        (["ber", "--bits", "inf"], "duration must be finite"),
        (["ber", "--bits", "nan"], "duration must be finite"),
        # A negative seed used to pass the checks and crash in numpy mid-run.
        (["sweep", "--seed", "-1", "--credit", "1"], "seed must be >= 0"),
        (["bootstrap-check", "--seed", "-1"], "seed must be >= 0"),
        (["bootstrap-check", "--seed", "-3", "--repetitions", "3"], "seed must be >= 0"),
        (["ber", "--seed", "-1"], "seed must be >= 0"),
    ],
)
def test_inputs_that_run_nothing_or_crash_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_card_count_edges_accepted(capsys):
    assert main(["bootstrap-check", "-n", "1"]) == 0
    assert main(["bootstrap-check", "-n", "32"]) == 0
    assert "1/1 repetitions passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "target, argv",
    [
        ("run_scenario", ["sweep", "--credit", "1", "--cards", "2", "--run-ms", "8", "--warmup-ms", "2"]),
        ("ber_test", ["ber", "--bits", "1e4"]),
    ],
)
def test_errors_once_a_run_started_are_not_usage_errors(monkeypatch, target, argv):
    def failing_run(*args, **kwargs):
        raise ValueError("raised inside the run")

    monkeypatch.setattr(cli, target, failing_run)
    with pytest.raises(ValueError, match="raised inside the run"):
        main(argv)
