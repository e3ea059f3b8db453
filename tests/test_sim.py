"""Scenario determinism, abstraction equivalence, fault injection, BER."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdmlink import message_engine, sim, timebase, wire
from tdmlink.bits import bits_from_int
from tdmlink.frontend import REG_LOST_TRIGGERS, REG_SERIAL_LO
from tdmlink.message_engine import MessageEngine
from tdmlink.messages import ChannelAMessageUp, ChannelBTransaction
from tdmlink.sim import SimConfig, ber_test, make_serials, run_scenario
from tdmlink.streams import FrameScanner
from tdmlink.symbol_engine import SLICE_TICKS, SymbolEngine


def small_scenario(abstraction, **overrides):
    kw = dict(
        num_frontends=2,
        seed=11,
        abstraction=abstraction,
        trigger_mode="periodic",
        trigger_count=10,
        trigger_period_us=200.0,
        trigger_start_us=1000.0,
        channels_per_event=3,
        words_per_channel=4,
    )
    kw.update(overrides)
    return SimConfig(**kw)


# Client digests of 8 cards under gated triggers, one per fill pattern, and
# the digest of their metrics JSON lines (the same for all three). Captured
# when packets were still built word by word, so they pin the payload bytes.
PACKET_DIGESTS = {
    "counter": "00359192c94178e68a116c371ead0427c042d7db1f7fdcb2508842c948841467",
    "constant": "45f56f9c8bd395d65ba0c4943ac7287a622faadbaf813739e8878405ee35f508",
    "prbs": "22e5ad3f7d7cb5d04ae9e0fc94d0d6551e3e0cee42948db77942d4cfa0c26de1",
}
METRICS_DIGEST = "047345f18a22fd5c16fe07cc0f7d5b3c1bd28e39ca6f2566539b725bcd4c3f48"


@pytest.mark.parametrize("fill", sorted(PACKET_DIGESTS))
def test_message_level_packet_bytes_pinned(fill):
    cfg = SimConfig(
        num_frontends=8, seed=5, trigger_mode="gated", trigger_count=4,
        channels_per_event=6, words_per_channel=24, fill_pattern=fill,
        constant_word=0x3C5A, verify_provenance=fill == "counter",
    )
    res = run_scenario(cfg)
    assert res.metrics.client["events"] == 4
    assert res.metrics.client["provenance_errors"] == 0
    assert res.client_digest() == PACKET_DIGESTS[fill]
    lines = res.metrics.to_json_lines()
    assert hashlib.sha256(lines.encode()).hexdigest() == METRICS_DIGEST


class TestConfig:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimConfig(num_frontends=33)
        with pytest.raises(ValueError):
            SimConfig(abstraction="half_level")
        with pytest.raises(ValueError):
            SimConfig(ber=1e-9)  # bit errors need the symbol engine
        with pytest.raises(ValueError):
            SimConfig(credit=0)
        with pytest.raises(ValueError, match="buffering_depth"):
            SimConfig(buffering_depth=0)
        with pytest.raises(ValueError, match="clear_busy_on"):
            SimConfig(clear_busy_on="sometimes")
        with pytest.raises(ValueError, match="constant_word"):
            SimConfig(fill_pattern="constant", constant_word=0x1FFFF)

    @pytest.mark.parametrize("words", [0, 4, 512])
    def test_mtu_must_hold_the_largest_packet_record(self, words):
        # 66 bytes of frame overhead, the 2-byte record tag and the SOE
        # packet: header word, 6 event header words, the words, CRC-32.
        edge = 66 + 2 + 2 + 2 * (6 + words) + 4
        with pytest.raises(ValueError, match="mtu"):
            small_scenario("message_level", words_per_channel=words, mtu=edge - 1)
        cfg = small_scenario("message_level", words_per_channel=words, mtu=edge, trigger_count=3)
        assert run_scenario(cfg).metrics.client["events"] == 3

    @pytest.mark.parametrize(
        "abstraction, overrides, match",
        [
            ("message_level", {"serials": [5, 5]}, "distinct"),
            ("message_level", {"serials": [5]}, "distinct"),  # fewer than the cards
            ("message_level", {"serials": [1, 1 << 53]}, "53-bit"),
            ("message_level", {"serials": [-1, 2]}, "53-bit"),
            ("symbol_level", {"ber": 2.0}, "ber"),
            ("symbol_level", {"ber": -0.1}, "ber"),
            ("message_level", {"faults": ["link_reset"]}, "not a dict"),
            ("message_level", {"trigger_period_us": 0.0}, "trigger_period_us"),
            ("symbol_level", {"trigger_period_us": -5.0}, "trigger_period_us"),
            ("message_level", {"buffer_pool": 0}, "buffer_pool"),
            ("message_level", {"run_ms": 0.0}, "run_ms"),
            ("symbol_level", {"run_ms": -1.0}, "run_ms"),
            ("message_level", {"trigger_count": -1}, "trigger_count"),
            ("message_level", {"trigger_count": -1, "run_ms": 1.0}, "trigger_count"),
            ("symbol_level", {"trigger_count": 0}, "trigger_count"),
            ("message_level", {"request_rtt_us": -50.0}, "request_rtt_us"),
            ("message_level", {"warmup_ms": -1.0}, "warmup_ms"),
            ("message_level", {"warmup_ms": 5.0, "run_ms": 1.0}, "warmup_ms"),
            ("message_level", {"warmup_ms": 1.0, "run_ms": 1.0}, "warmup_ms"),
            ("message_level", {"trigger_start_us": -10.0}, "trigger_start_us"),
        ],
    )
    def test_config_that_fails_only_once_run_rejected(self, abstraction, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_scenario(abstraction, **overrides)

    @pytest.mark.parametrize(
        "name, good",
        [("num_frontends", 3), ("seed", 5), ("trigger_count", 2), ("channels_per_event", 2),
         ("words_per_channel", 4), ("constant_word", 0x1234), ("buffering_depth", 2), ("credit", 2),
         ("mtu", 300), ("buffer_pool", 8)],
    )
    def test_whole_number_fields_take_only_whole_numbers(self, name, good):
        # A float or a bool would fail mid-run, or run with a fractional
        # credit and report a credit violation.
        for bad in (good + 0.5, float(good), True, str(good), None):
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                small_scenario("message_level", **{name: bad})
        cfg = small_scenario("message_level", **{name: np.int64(good)})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == good

    @pytest.mark.parametrize(
        "name, good",
        [("trigger_period_us", 150.0), ("trigger_start_us", 500.0), ("request_rtt_us", 100.0),
         ("ber", 1e-5), ("run_ms", 2.0), ("warmup_ms", 0.5)],
    )
    def test_real_number_fields_reject_a_bool(self, name, good):
        # A bool would run as 1 or 0: BER 1, a 1 ms run.
        overrides = {"run_ms": 5.0} if name == "warmup_ms" else {}
        abstraction = "symbol_level" if name == "ber" else "message_level"
        for bad in (True, False, np.bool_(True), str(good)):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                small_scenario(abstraction, **overrides, **{name: bad})
        for fine in (good, np.float64(good), int(good) or 1):
            assert getattr(small_scenario(abstraction, **overrides, **{name: fine}), name) == fine

    @pytest.mark.parametrize("name, none_ok", [("verify_provenance", False), ("keep_client_events", True)])
    def test_flag_fields_take_only_bools(self, name, none_ok):
        # A non-empty string such as "no" would read as true.
        for bad in ("no", "", 0, 1, np.bool_(False)) + (() if none_ok else (None,)):
            with pytest.raises(ValueError, match=f"{name} must be true"):
                small_scenario("message_level", **{name: bad})
        for fine in (True, False) + ((None,) if none_ok else ()):
            small_scenario("message_level", **{name: fine})

    @pytest.mark.parametrize("serials", [[1.5, 2.7], [1, 2.0], [True, 2], ["7", 8], [1, 2, 3.5], [1, None]])
    def test_serials_take_only_whole_numbers(self, serials):
        # A float would be truncated to a serial nobody gave; entries past
        # the cards are checked too.
        with pytest.raises(ValueError, match="serials must be whole numbers"):
            small_scenario("message_level", serials=serials)

    def test_serials_held_as_a_list_of_ints(self):
        # So a numpy array of serials runs and round-trips through JSON.
        cfg = small_scenario("message_level", serials=np.array([1, 2, 3]), trigger_count=2)
        assert cfg.serials == [1, 2, 3] and all(type(serial) is int for serial in cfg.serials)
        assert SimConfig.from_json(json.dumps(cfg.to_dict())) == cfg
        assert run_scenario(cfg).metrics.client["events"] == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["trigger_period_us", "trigger_start_us", "request_rtt_us", "ber", "run_ms", "warmup_ms"]
    )
    def test_non_finite_value_rejected(self, name, value):
        """Rejected before a run, not failed inside the engine."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            small_scenario("symbol_level" if name == "ber" else "message_level", **{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_ber_test_duration_rejected(self, value):
        with pytest.raises(ValueError, match="duration must be finite"):
            sim.check_ber_test("prbs7", value, 0.0, 1000, ())
        with pytest.raises(ValueError, match="duration must be finite"):
            sim.ber_test("prbs7", duration_bits=value, window_bits=1000)

    def test_rules_at_their_edges_accepted(self):
        small_scenario("message_level", serials=[0, (1 << 53) - 1, 7, 7])  # only two cards use a serial
        small_scenario("symbol_level", ber=1.0)
        small_scenario("message_level", trigger_mode="gated", trigger_period_us=0.0)
        small_scenario("message_level", trigger_count=0, run_ms=1.0)
        small_scenario("message_level", request_rtt_us=0.0)
        small_scenario("message_level", warmup_ms=0.0, run_ms=1.0)
        small_scenario("message_level", trigger_start_us=0.0)

    def test_json_round_trip(self):
        cfg = small_scenario("message_level")
        again = SimConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg
        # The link settings the simulator fixes are not config keys; a config
        # that still carries one is rejected, not silently run without it.
        for key in ("bogus_key", "link_latency_ticks", "slice_cycles", "training_bits", "lock_threshold"):
            with pytest.raises(ValueError, match="unknown config keys"):
                SimConfig.from_json(json.dumps({**cfg.to_dict(), key: 1}))

    @pytest.mark.parametrize(
        "abstraction, fault",
        [
            ("message_level", {"type": "corrupt_fragment", "link": 1}),  # no event, channel
            ("symbol_level", {"type": "line_flip", "link": 0, "tick": 600_000}),  # no direction
            ("message_level", {"type": "drop_packet", "index": 0}),  # no link
        ],
    )
    def test_fault_missing_a_key_rejected(self, abstraction, fault):
        with pytest.raises(ValueError, match="lacks"):
            small_scenario(abstraction, faults=[fault])

    @pytest.mark.parametrize(
        "abstraction, fault",
        [
            ("message_level", {"type": "soe_skew", "link": 2}),
            ("symbol_level", {"type": "link_reset", "link": 5, "tick": 600_000}),
            ("symbol_level", {"type": "line_flip", "link": -1, "direction": "up", "tick": 0}),
        ],
    )
    def test_fault_on_a_link_outside_the_cards_rejected(self, abstraction, fault):
        with pytest.raises(ValueError, match="outside the cards"):
            small_scenario(abstraction, faults=[fault])

    @pytest.mark.parametrize(
        "abstraction, fault, match",
        [
            ("symbol_level",
             {"type": "line_flip", "link": 0, "direction": "upstream", "tick": 300_000},
             "direction"),
            ("message_level", {"type": "soe_skew", "link": 0, "delat": 3}, "does not take"),
            ("symbol_level", {"type": "link_reset", "link": 0, "tick": 0, "direction": "up"},
             "does not take"),
            ("message_level", {"type": "drop_packet", "link": 0, "index": 0, "delta": 1},
             "does not take"),
        ],
    )
    def test_fault_that_would_be_ignored_rejected(self, abstraction, fault, match):
        with pytest.raises(ValueError, match=match):
            small_scenario(abstraction, faults=[fault])

    @pytest.mark.parametrize(
        "abstraction, fault, match",
        [
            # Ticks that are not whole numbers used to raise out of the run.
            ("symbol_level", {"type": "line_flip", "link": 0, "direction": "up", "tick": 170_000.5},
             "whole number"),
            ("symbol_level", {"type": "line_flip", "link": 0, "direction": "down", "tick": 160_001.0},
             "whole number"),
            ("symbol_level", {"type": "link_reset", "link": 0, "tick": 170_000.5}, "whole number"),
            ("symbol_level", {"type": "link_reset", "link": 0, "tick": 160_001.0}, "whole number"),
            ("symbol_level", {"type": "link_reset", "link": 0, "tick": "170000"}, "whole number"),
            ("message_level", {"type": "soe_skew", "link": 0, "delta": "1"}, "whole number"),
            ("message_level", {"type": "drop_packet", "link": True, "index": 0}, "whole number"),
            ("message_level", {"type": "corrupt_fragment", "link": 0, "event": 2, "channel": 1.0},
             "whole number"),
            # Values that used to run as if there were no fault.
            ("symbol_level", {"type": "line_flip", "link": 0, "direction": "up", "tick": -1024},
             "below 0"),
            ("symbol_level", {"type": "link_reset", "link": 1, "tick": -1}, "below 0"),
            ("message_level", {"type": "drop_packet", "link": 1, "index": -1}, "below 0"),
            ("message_level", {"type": "corrupt_fragment", "link": 1, "event": -2, "channel": 1},
             "below 0"),
            ("message_level", {"type": "soe_skew", "link": 0, "delta": 0}, "skews no event"),
            ("symbol_level", {"type": "soe_skew", "link": 0, "delta": 1 << 32}, "skews no event"),
            ("message_level", {"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 99},
             "outside the event's channels"),
            ("symbol_level", {"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 3},
             "outside the event's channels"),
        ],
    )
    def test_fault_value_that_would_raise_or_be_ignored_rejected(self, abstraction, fault, match):
        with pytest.raises(ValueError, match=match):
            small_scenario(abstraction, faults=[fault])

    @pytest.mark.parametrize(
        "abstraction, faults",
        [
            # A second skew of a link would override the first.
            ("message_level", [{"type": "soe_skew", "link": 1}, {"type": "soe_skew", "link": 1, "delta": 2}]),
            ("symbol_level", [{"type": "soe_skew", "link": 0, "delta": 1}, {"type": "soe_skew", "link": 0}]),
            # Two equal line flips would cancel.
            ("symbol_level", [
                {"type": "line_flip", "link": 0, "direction": "up", "tick": 600_000},
                {"type": "link_reset", "link": 1, "tick": 600_000},
                {"type": "line_flip", "tick": 600_000, "direction": "up", "link": 0},
            ]),
        ],
    )
    def test_faults_that_override_or_cancel_each_other_rejected(self, abstraction, faults):
        with pytest.raises(ValueError, match="override or cancel"):
            small_scenario(abstraction, faults=faults)

    def test_faults_that_neither_override_nor_cancel_accepted(self):
        small_scenario("symbol_level", faults=[
            {"type": "soe_skew", "link": 0}, {"type": "soe_skew", "link": 1, "delta": -3},
            {"type": "line_flip", "link": 0, "direction": "up", "tick": 600_000},
            {"type": "line_flip", "link": 0, "direction": "down", "tick": 600_000},
            {"type": "line_flip", "link": 1, "direction": "up", "tick": 600_000},
            {"type": "line_flip", "link": 0, "direction": "up", "tick": 600_002},
        ])

    @pytest.mark.parametrize("abstraction, faults", [
        ("message_level", [
            {"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 1},
            {"type": "soe_skew", "link": 0},
            {"type": "drop_packet", "link": 1, "index": 5},
        ]),
        ("symbol_level", [
            {"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 2},
            {"type": "soe_skew", "link": 1, "delta": -1},
            {"type": "line_flip", "link": 0, "direction": "down", "tick": 600_000},
            {"type": "link_reset", "link": 1, "tick": 700_000},
        ]),
    ])
    def test_json_round_trip_with_every_fault_type(self, abstraction, faults):
        cfg = small_scenario(abstraction, faults=faults)
        assert SimConfig.from_json(json.dumps(cfg.to_dict())) == cfg

    def test_fault_key_left_out_takes_its_default(self):
        cfg = small_scenario("message_level", faults=[{"type": "soe_skew", "link": 0}])
        assert cfg.faults == [{"type": "soe_skew", "link": 0, "delta": 1}]

    def test_warmup_rejected_at_symbol_level(self):
        with pytest.raises(ValueError, match="warm-up"):
            small_scenario("symbol_level", run_ms=1.2, warmup_ms=0.5)
        small_scenario("message_level", run_ms=1.2, warmup_ms=0.5)

    def test_serials_distinct_and_deterministic(self):
        a = make_serials(5, 32)
        b = make_serials(5, 32)
        assert a == b
        assert len(set(a)) == 32
        assert all(0 <= s < 1 << 53 for s in a)


class TestDeterminism:
    @pytest.mark.parametrize("abstraction", ["message_level", "symbol_level"])
    def test_same_seed_byte_identical(self, abstraction):
        res1 = run_scenario(small_scenario(abstraction))
        res2 = run_scenario(small_scenario(abstraction))
        assert res1.metrics.to_json_lines() == res2.metrics.to_json_lines()
        assert res1.client_digest() == res2.client_digest()

    def test_different_seed_different_payloads(self):
        res1 = run_scenario(small_scenario("message_level", seed=1))
        res2 = run_scenario(small_scenario("message_level", seed=2))
        # Serial numbers differ, so bootstrap maps differ even though the
        # counter payloads coincide.
        assert res1.engine.cards[0].serial_number != res2.engine.cards[0].serial_number


class TestMetrics:
    def test_run_line_fields(self):
        run = json.loads(run_scenario(small_scenario("message_level")).metrics.to_json_lines().splitlines()[0])
        assert set(run) == {
            "kind", "abstraction", "seed", "num_frontends", "elapsed_ticks", "triggers_issued",
            "events_built", "events_incomplete", "halt_reason", "event_rate_hz", "throughput_MB_s",
            "violations",
        }
        assert run["kind"] == "run"


class TestAbstractionEquivalence:
    def test_ten_event_scenario_identical_messages(self):
        res_m = run_scenario(small_scenario("message_level"))
        res_s = run_scenario(small_scenario("symbol_level"))
        assert res_m.metrics.client["events"] == 10
        assert res_s.metrics.client["events"] == 10
        keys_m = [ev.key() for ev in res_m.client.events]
        keys_s = [ev.key() for ev in res_s.client.events]
        assert keys_m == keys_s
        assert res_m.client_digest() == res_s.client_digest()

    def test_equivalence_across_card_counts(self):
        for n in (1, 3):
            cfg_kw = dict(num_frontends=n, trigger_count=4)
            res_m = run_scenario(small_scenario("message_level", **cfg_kw))
            res_s = run_scenario(small_scenario("symbol_level", **cfg_kw))
            assert res_m.client_digest() == res_s.client_digest()

    def test_equivalence_at_32_cards(self):
        # The paper's scale: 32 cards, a periodic plan shaped like the
        # benchmark's 32-card symbol-level workload, at another seed.
        kw = dict(
            num_frontends=32, seed=2018, trigger_count=3,
            trigger_period_us=100.0, trigger_start_us=360.0,
        )
        res_m = run_scenario(small_scenario("message_level", **kw))
        res_s = run_scenario(small_scenario("symbol_level", **kw))
        assert res_s.metrics.client["events"] == 3
        assert res_s.metrics.violations == []
        assert res_s.metrics.bootstrap["mapped_ports"] == 32
        assert res_m.client_digest() == res_s.client_digest()

    def test_equivalence_at_payload_load(self):
        # The sweep's packet size at 4 cards: 262-byte packets span several
        # symbol-level slices, so the return links carry held packets.
        kw = dict(
            num_frontends=4, seed=7, trigger_count=2, trigger_period_us=300.0,
            trigger_start_us=400.0, channels_per_event=32, words_per_channel=128,
            credit=8, mtu=8192,
        )
        res_m = run_scenario(small_scenario("message_level", **kw))
        res_s = run_scenario(small_scenario("symbol_level", **kw))
        for res in (res_m, res_s):
            assert res.metrics.client["events"] == 2
            assert res.metrics.client["crc_failures"] == 0
        assert res_s.engine.backend_rx.scanners["C"].faults.tolist() == [0] * 4
        assert res_m.client_digest() == res_s.client_digest()

    # Periodic plans only: gated triggers issue on slice boundaries at
    # symbol level, so their timestamps differ from the message level.
    @settings(max_examples=8, deadline=None)
    @given(
        cards=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        channels=st.integers(1, 4),
        words=st.sampled_from([2, 4, 6, 8]),
        triggers=st.integers(2, 4),
    )
    def test_equivalence_over_random_scenarios(self, cards, seed, channels, words, triggers):
        kw = dict(
            num_frontends=cards, seed=seed, channels_per_event=channels,
            words_per_channel=words, trigger_count=triggers,
            trigger_start_us=360.0, trigger_period_us=100.0,
        )
        res_m = run_scenario(small_scenario("message_level", **kw))
        res_s = run_scenario(small_scenario("symbol_level", **kw))
        assert res_m.metrics.violations == []
        assert res_s.metrics.violations == []
        assert [ev.key() for ev in res_m.client.events] == [ev.key() for ev in res_s.client.events]
        assert res_m.client_digest() == res_s.client_digest()


class TestReadoutMode:
    @pytest.mark.parametrize("abstraction", ["message_level", "symbol_level"])
    def test_held_token_answer_clears_busy(self, abstraction):
        # One channel per event: a request token the card holds before the
        # trigger is answered with the whole event, and the CLEAR_BUSY that
        # completing it causes must reach the gated trigger unit.
        cfg = SimConfig(
            num_frontends=2,
            abstraction=abstraction,
            trigger_mode="gated",
            trigger_count=4,
            channels_per_event=1,
            words_per_channel=4,
            clear_busy_on="readout",
        )
        res = run_scenario(cfg)
        assert res.metrics.events_built == 4
        assert res.metrics.client["events"] == 4
        assert res.metrics.violations == []


# Each fault type's keys besides "type" and the levels that apply it, as
# the README gives them.
FAULT_KEYS = {
    "corrupt_fragment": (("link", "event", "channel"), ("message_level", "symbol_level")),
    "soe_skew": (("link", "delta"), ("message_level", "symbol_level")),
    "drop_packet": (("link", "index"), ("message_level",)),
    "line_flip": (("link", "direction", "tick"), ("symbol_level",)),
    "link_reset": (("link", "tick"), ("symbol_level",)),
}

# Anything a JSON config can hold in a fault's value.
ANY_VALUE = st.one_of(
    st.integers(-(1 << 40), 1 << 40), st.floats(), st.sampled_from([170_000.5, 160_001.0]),
    st.text(max_size=6), st.sampled_from(["up", "down"]), st.booleans(), st.none(),
)


@st.composite
def drawn_faults(draw, cards, abstraction):
    """A fault dict, mostly of a type the level applies, with most values
    plausible for a 2-channel plan on `cards` cards whose data taking starts
    at tick 120,000 and some of any kind; a key is sometimes left out or one
    added."""
    applied = [kind for kind, (_, levels) in FAULT_KEYS.items() if abstraction in levels]
    kind = draw(st.sampled_from(applied) if draw(st.integers(0, 9)) else st.sampled_from(
        [*FAULT_KEYS, "meteor_strike"]))
    plausible = {
        "link": st.integers(0, cards - 1),
        "event": st.integers(0, 3),
        "channel": st.integers(0, 2),
        "index": st.integers(0, 8),
        "delta": st.integers(-2, 2),
        "direction": st.sampled_from(["up", "down"]),
        "tick": st.integers(0, 250_000),
    }
    fault = {"type": kind}
    for key in FAULT_KEYS.get(kind, ((),))[0]:
        if draw(st.integers(0, 19)):  # left out one time in twenty
            fault[key] = draw(ANY_VALUE if draw(st.integers(0, 7)) == 0 else plausible[key])
    if draw(st.integers(0, 19)) == 0:
        fault[draw(st.sampled_from([*plausible, "bogus"]))] = draw(ANY_VALUE)
    return fault


class TestFaultInjection:
    def test_corrupt_fragment_one_incomplete_event(self):
        cfg = small_scenario(
            "message_level",
            faults=[{"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 1}],
        )
        res = run_scenario(cfg)
        assert res.metrics.client["events"] == 10
        assert res.metrics.client["incomplete_events"] == 1
        assert res.metrics.events_incomplete == 1
        assert res.metrics.per_link[1]["crc_drops"] == 1
        flagged = [ev for ev in res.client.events if ev.incomplete]
        assert len(flagged) == 1 and flagged[0].event_number == 2

    def test_corrupt_fragment_symbol_level_matches_message_level(self):
        faults = [{"type": "corrupt_fragment", "link": 1, "event": 2, "channel": 1}]
        res_m = run_scenario(small_scenario("message_level", faults=faults))
        res_s = run_scenario(small_scenario("symbol_level", faults=faults))
        assert res_s.metrics.client["incomplete_events"] == 1
        assert res_s.metrics.events_incomplete == 1
        assert res_s.client_digest() == res_m.client_digest()

    def test_soe_skew_halts_builder(self):
        cfg = small_scenario(
            "message_level",
            run_ms=8.0,
            faults=[{"type": "soe_skew", "link": 0, "delta": 1}],
        )
        res = run_scenario(cfg)
        assert res.metrics.halt_reason is not None
        assert "mismatch" in res.metrics.halt_reason
        assert res.metrics.events_built == 0

    def test_soe_skew_symbol_level_matches_message_level(self):
        kw = dict(run_ms=1.2, faults=[{"type": "soe_skew", "link": 0, "delta": 1}])
        res_m = run_scenario(small_scenario("message_level", **kw))
        res_s = run_scenario(small_scenario("symbol_level", **kw))
        assert "mismatch" in res_s.metrics.halt_reason
        assert res_s.metrics.halt_reason == res_m.metrics.halt_reason

    def test_link_reset_mid_run_retrains_without_affecting_others(self):
        reset_tick = SimConfig(trigger_start_us=1000.0).trigger_start_tick + 40_000
        cfg = small_scenario(
            "symbol_level",
            faults=[{"type": "link_reset", "link": 1, "tick": reset_tick}],
        )
        res = run_scenario(cfg)
        assert res.metrics.client["events"] == 10
        assert res.metrics.client["incomplete_events"] == 0
        assert res.metrics.violations == []
        # The reset link retrained (training fully consumed again) and both
        # links delivered every packet.
        assert res.engine.backend_rx.trained[1]
        assert res.metrics.per_link[0]["packets"] == res.metrics.per_link[1]["packets"]

    def test_rerun_of_one_config_repeats_the_link_reset(self):
        reset_tick = SimConfig(trigger_start_us=1000.0).trigger_start_tick + 40_000
        cfg = small_scenario(
            "symbol_level",
            trigger_count=3,
            faults=[{"type": "link_reset", "link": 1, "tick": reset_tick}],
        )
        before = cfg.to_dict()
        first = run_scenario(cfg)
        assert cfg.to_dict() == before
        second = run_scenario(cfg)
        assert cfg.to_dict() == before
        assert first.metrics.to_json_lines() == second.metrics.to_json_lines()

    def test_line_flip_during_idle_is_harmless(self):
        cfg = small_scenario(
            "symbol_level",
            faults=[{"type": "line_flip", "direction": "up", "link": 0, "tick": 600_000}],
        )
        res = run_scenario(cfg)
        assert res.metrics.client["events"] == 10

    @pytest.mark.parametrize("index, halted", [(1, True), (3, False)])
    def test_plan_left_undelivered_without_a_halt_is_a_violation(self, index, halted):
        # Two packets per event and link: index 1 and 3 are the EOE packets
        # of events 0 and 1. Losing the first halts the builder at event 1's
        # start; losing the second lets it build event 1 from event 2's
        # packets and then wait for a start-of-event that never comes.
        cfg = small_scenario(
            "message_level",
            trigger_count=3,
            channels_per_event=2,
            faults=[{"type": "drop_packet", "link": 1, "index": index}],
        )
        res = run_scenario(cfg)
        assert res.metrics.client["events"] == 0
        assert (res.metrics.halt_reason is not None) == halted
        expected = [] if halted else ["run ended with 0 of 3 planned events delivered"]
        assert res.metrics.violations == expected

    @pytest.mark.parametrize(
        "abstraction, kind",
        [
            ("message_level", "meteor_strike"),
            ("symbol_level", "meteor_strike"),
            ("message_level", "line_flip"),
            ("symbol_level", "drop_packet"),
        ],
    )
    def test_unknown_fault_type_rejected(self, abstraction, kind):
        with pytest.raises(ValueError, match="not supported"):
            run_scenario(small_scenario(abstraction, faults=[{"type": kind}]))

    @pytest.mark.parametrize("abstraction, faults", [
        ("message_level", [
            {"type": "corrupt_fragment", "link": 1, "event": 1, "channel": 0},
            {"type": "soe_skew", "link": 1},
            {"type": "drop_packet", "link": 0, "index": 2},
        ]),
        ("symbol_level", [
            {"type": "corrupt_fragment", "link": 1, "event": 1, "channel": 0},
            {"type": "soe_skew", "link": 1},
            {"type": "line_flip", "link": 0, "direction": "up", "tick": 441_000},
            {"type": "link_reset", "link": 1, "tick": 440_000},
        ]),
    ])
    def test_run_leaves_a_config_with_every_fault_type_unchanged(self, abstraction, faults):
        cfg = small_scenario(abstraction, trigger_count=3, faults=faults)
        before = cfg.to_dict()
        first = run_scenario(cfg)
        assert cfg.to_dict() == before
        assert run_scenario(cfg).metrics.to_json_lines() == first.metrics.to_json_lines()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fault_applied_or_rejected_never_raised_mid_run(self, data):
        cards = data.draw(st.integers(1, 2), label="cards")
        abstraction = data.draw(st.sampled_from(["message_level", "symbol_level"]), label="abstraction")
        faults = data.draw(st.lists(drawn_faults(cards, abstraction), min_size=1, max_size=2), label="faults")
        run_ms = data.draw(st.sampled_from([None, 0.6]), label="run_ms")
        try:
            cfg = SimConfig(
                num_frontends=cards, seed=3, abstraction=abstraction, trigger_mode="periodic",
                trigger_count=2, trigger_period_us=100.0, trigger_start_us=300.0,
                channels_per_event=2, words_per_channel=4, run_ms=run_ms, faults=faults,
            )
        except ValueError:
            return
        before = cfg.to_dict()
        res = run_scenario(cfg)
        assert res.engine.pool.audit()
        assert cfg.to_dict() == before


class PerPacketEngine(MessageEngine):
    """The message-level engine without arrival batches: one event per
    packet, and every follow-up after every arrival, moved or not."""

    def _send_packet_up(self, port, data, batches):
        super()._send_packet_up(port, data, {})

    def _packets_arrived(self, batch):
        [(port, data)] = batch
        index = self._arrival_index[port]
        self._arrival_index[port] = index + 1
        if index in self._drop_plan.get(port, ()):
            self.pumps[port].request_outstanding = False
            self._schedule_token_check()
            return
        self.pumps[port].on_packet(data)
        self._progress()

    def _progress(self):
        self._build()
        self._schedule_token_check()
        self._schedule_trigger_check()
        self._server_kick()


def run_outcome(cfg, engine=MessageEngine):
    """What a message-level run of `cfg` on `engine` leaves behind."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sim._ENGINES, "message_level", engine)
        res = run_scenario(cfg)
    return dict(
        digest=res.client_digest(),
        lines=res.metrics.to_json_lines(),
        elapsed_ticks=res.engine.now,
        builder=[asdict(c) for c in res.engine.builder.counters.values()],
        pumps=[asdict(p.counters) for p in res.engine.pumps.values()],
        stalls=res.engine.mover.stalls,
    )


@st.composite
def message_level_plans(draw):
    """Message-level plans across the engine's knobs, some with packet loss,
    corrupt fragments or skewed event numbers."""
    cards = draw(st.integers(1, 32), label="cards")
    channels = draw(st.integers(1, 6), label="channels")
    link = st.integers(0, cards - 1)
    fault = st.one_of(
        st.fixed_dictionaries({"type": st.just("drop_packet"), "link": link, "index": st.integers(0, 12)}),
        st.fixed_dictionaries({
            "type": st.just("corrupt_fragment"), "link": link,
            "event": st.integers(0, 5), "channel": st.integers(0, channels - 1),
        }),
        st.fixed_dictionaries({"type": st.just("soe_skew"), "link": link, "delta": st.integers(1, 3)}),
    )
    faults = draw(st.lists(fault, max_size=3, unique_by=lambda f: (f["type"], f["link"])), label="faults")
    return SimConfig(
        num_frontends=cards,
        seed=draw(st.integers(0, 2**20), label="seed"),
        trigger_mode=draw(st.sampled_from(["gated", "periodic"]), label="trigger_mode"),
        trigger_count=draw(st.integers(1, 6), label="trigger_count"),
        trigger_period_us=draw(st.sampled_from([15.0, 60.0, 200.0]), label="period_us"),
        trigger_start_us=draw(st.sampled_from([50.0, 400.0]), label="start_us"),
        channels_per_event=channels,
        words_per_channel=2 * draw(st.integers(1, 48), label="half_words"),
        clear_busy_on=draw(st.sampled_from(["buffered", "readout"]), label="clear_busy_on"),
        credit=draw(st.integers(1, 8), label="credit"),
        mtu=draw(st.sampled_from([1500, 8192]), label="mtu"),
        buffer_pool=draw(st.integers(2, 64), label="pool"),
        run_ms=draw(st.sampled_from([None, None, 0.8, 2.5]), label="run_ms"),
        keep_client_events=True,
        faults=faults,
    )


# A gated 8-card plan with three dropped packets that halts the builder. A
# batched engine whose halting step did not count as a move left the freed
# pump unasked and ended 1,666 ticks early.
HALT_ON_DROP = dict(
    num_frontends=8, seed=177819, trigger_mode="gated", trigger_count=3,
    channels_per_event=5, words_per_channel=28, credit=5, mtu=8192, buffer_pool=40,
    clear_busy_on="readout", keep_client_events=True,
    faults=[
        {"type": "drop_packet", "link": 5, "index": 5},
        {"type": "drop_packet", "link": 5, "index": 1},
        {"type": "drop_packet", "link": 4, "index": 3},
    ],
)


class TestArrivalBatches:
    """Packets of one delivery that land on one tick arrive as one event,
    and the token and trigger checks follow only a builder move. Against
    the per-packet engine, nothing a run leaves behind may differ."""

    @settings(max_examples=30, deadline=None)
    @given(cfg=message_level_plans())
    def test_batches_match_per_packet_arrivals(self, cfg):
        assert run_outcome(cfg) == run_outcome(cfg, PerPacketEngine)

    def test_halt_on_a_dropped_packet_matches_per_packet_arrivals(self):
        # A dropped packet leaves the next one first of its event without
        # SOE, and the builder halts on it. That step unloaded the packet,
        # so it counts as a move and the freed pump asks for another.
        cfg = SimConfig(**HALT_ON_DROP)
        batched = run_outcome(cfg)
        assert "lacks SOE" in json.loads(batched["lines"].splitlines()[0])["halt_reason"]
        assert batched["elapsed_ticks"] == 413_596
        assert batched == run_outcome(cfg, PerPacketEngine)


class TestTriggerWakeups:
    def test_one_wakeup_per_periodic_issue_tick(self):
        # Every ack and builder move before an issue tick runs a trigger
        # check; only the first may schedule the wakeup for that tick. The
        # digest and end tick are pinned from an engine that pushed one
        # wakeup per check (156 on this plan).
        wakeups = []

        class Counting(MessageEngine):
            def _at(self, tick, fn, *args):
                if fn == self._schedule_trigger_check:
                    wakeups.append(tick)
                super()._at(tick, fn, *args)

        cfg = SimConfig(num_frontends=32, seed=7, trigger_mode="periodic", trigger_count=20,
                        trigger_period_us=200.0, channels_per_event=32, words_per_channel=128)
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sim._ENGINES, "message_level", Counting)
            res = run_scenario(cfg)
        assert len(wakeups) == len(set(wakeups)) == 20
        assert res.client_digest() == "0b1c03a71a9c73558304d004c559a421a1e292a81cb091f8b3fdc532f83a8e67"
        assert res.metrics.elapsed_ticks == 5_765_409


def run_counting(cfg, method):
    """Run `cfg` and record the arguments of every call of a SymbolEngine
    method."""
    calls = []
    original = getattr(SymbolEngine, method)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SymbolEngine, method, counted)
        return run_scenario(cfg), calls


def run_slice_by_slice(cfg):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SymbolEngine, "_quiet_slices", lambda self, most: 0)
        return run_scenario(cfg)


def line_state(res):
    """What a symbol-level run leaves behind, down to each line interface's
    registers and each scanner's bits-fed count."""
    engine = res.engine
    down, up = engine.down_rx, engine.backend_rx
    return dict(
        digest=res.client_digest(),
        lines=res.metrics.to_json_lines(),
        now=engine.now,
        cycles_produced=engine.down_tx.cycles_produced,
        sync=down.sync.tolist(),
        counters=[down.coding_violations.tolist(), up.training_errors.tolist()]
        + [errors.tolist() for errors in (*down.parity_errors.values(), *up.parity_errors.values())],
        registers=(engine.up_tx._register.tolist(), up._register.tolist()),
        scanners=[
            (scanner.faults.tolist(), scanner._fed.tolist())
            for scanner in (*down.scanners.values(), *up.scanners.values())
        ],
    )


@st.composite
def idle_heavy_plans(draw):
    """Small plans with long idle stretches, some with line flips and link
    resets inside them; the first trigger comes well after bootstrap."""
    cards = draw(st.integers(1, 8))
    start_us = draw(st.integers(200, 500))
    count = draw(st.integers(1, 4))
    period_us = draw(st.integers(40, 400))
    plan = dict(
        num_frontends=cards, seed=draw(st.integers(0, 2**16)),
        trigger_mode=draw(st.sampled_from(["periodic", "gated"])), trigger_count=count,
        trigger_start_us=float(start_us), trigger_period_us=float(period_us),
        channels_per_event=draw(st.integers(1, 3)), words_per_channel=4, keep_client_events=True,
    )
    end_us = start_us + count * period_us + 100
    if draw(st.booleans()):
        plan["run_ms"] = end_us / 1000
    tick = st.integers((start_us - 100) * 400, end_us * 400)
    link = st.integers(0, cards - 1)
    plan["faults"] = draw(st.lists(st.one_of(
        st.fixed_dictionaries({"type": st.just("line_flip"), "link": link,
                               "direction": st.sampled_from(["up", "down"]), "tick": tick}),
        st.fixed_dictionaries({"type": st.just("link_reset"), "link": link, "tick": tick}),
    ), max_size=3))
    return plan


class TestQuietSlices:
    """Slices in which only idle cycles cross the links are skipped in one
    step; every output stays as it is slice by slice."""

    @settings(max_examples=10, deadline=None)
    @given(plan=idle_heavy_plans())
    # A reset loses card 0's packet; the run then stalls with every FIFO
    # empty, and the skip must end it at the same slice.
    @example(plan=dict(
        num_frontends=1, seed=11, trigger_mode="periodic", trigger_count=2, trigger_start_us=400.0,
        trigger_period_us=200.0, channels_per_event=8, words_per_channel=64, keep_client_events=True,
        faults=[{"type": "link_reset", "link": 0, "tick": 162_000}],
    ))
    def test_skip_matches_slice_by_slice(self, plan):
        cfg = SimConfig(abstraction="symbol_level", **plan)
        res, skips = run_counting(cfg, "_skip_quiet_slices")
        assert skips
        assert line_state(res) == line_state(run_slice_by_slice(cfg))

    def test_quiet_only_after_a_whole_slice_of_idle_cycles(self):
        flip = 300_000
        engine = SymbolEngine(small_scenario(
            "symbol_level", num_frontends=1, trigger_start_us=1000.0,
            faults=[{"type": "line_flip", "link": 0, "direction": "up", "tick": flip}],
        ))
        engine._wait_links_ready()
        engine.bootstrap(engine._exchange)
        for _ in range(3):  # the pump's first request goes out
            engine._advance_one_slice()
        assert engine._quiet_slices(None) > 0
        # Not while a frame is queued, nor after the slice that sent it,
        # although that frame was received whole.
        engine.up_tx.enqueue(0, "A", ChannelAMessageUp().encode())
        assert engine._quiet_slices(None) == 0
        engine._advance_one_slice()
        assert engine._quiet_slices(None) == 0
        engine._advance_one_slice()
        # The skip stops at the slice that holds the flip, and the slice
        # after that line error is not quiet.
        engine._skip_quiet_slices(engine._quiet_slices(None))
        assert engine.now <= flip < engine.now + SLICE_TICKS
        engine._advance_one_slice()
        assert engine._quiet_slices(None) == 0

    def test_ten_ms_low_rate_plan_pinned(self):
        # 9 triggers at 1 kHz on 32 cards: 3,906 slices of simulated time,
        # nearly all of them idle.
        kw = dict(
            num_frontends=32, trigger_count=9, trigger_period_us=1000.0, trigger_start_us=400.0,
            channels_per_event=3, words_per_channel=4, run_ms=10,
        )
        res_s, slices = run_counting(small_scenario("symbol_level", **kw), "_advance_one_slice")
        res_m = run_scenario(small_scenario("message_level", **kw))
        assert res_s.metrics.elapsed_ticks == 4_000_000
        # The mover's last, partly filled buffer is not sent at the end.
        assert (res_s.metrics.events_built, res_s.metrics.client["events"]) == (9, 8)
        assert len(slices) < 300
        for name in ("elapsed_ticks", "throughput_MB_s", "event_rate_hz"):
            assert getattr(res_m.metrics, name) == getattr(res_s.metrics, name)


class TestRunLength:
    """A run of fixed length ends at `run_ticks`, at both levels, or at the
    symbol level with bootstrap if that ends later."""

    @settings(max_examples=12, deadline=None)
    @given(
        cards=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        start_us=st.integers(200, 500),
        count=st.integers(1, 3),
        period_us=st.integers(40, 300),
        run_us=st.floats(0.0, 1000.0),
    )
    def test_fixed_length_run_ends_at_run_ticks(self, cards, seed, start_us, count, period_us, run_us):
        kw = dict(
            num_frontends=cards, seed=seed, trigger_count=count, trigger_start_us=float(start_us),
            trigger_period_us=float(period_us), run_ms=(start_us + run_us) / 1000,
        )
        res_m = run_scenario(small_scenario("message_level", **kw))
        res_s = run_scenario(small_scenario("symbol_level", **kw))
        run_ticks = res_m.config.run_ticks
        assert run_ticks % 16 == 0  # whole TDM cycles
        assert -1 < run_ticks - (start_us + run_us) * 400 < 17  # rounded up to the next cycle
        assert res_m.metrics.elapsed_ticks == run_ticks
        assert res_s.metrics.elapsed_ticks == run_ticks

    def test_symbol_level_run_ending_before_bootstrap_ends_with_it(self):
        # Bootstrap is never cut short, and a run whose end falls inside it
        # runs no data slice after it.
        cfg = SimConfig(
            num_frontends=2, abstraction="symbol_level", trigger_mode="periodic",
            trigger_count=3, trigger_start_us=600.0, run_ms=0.01,
        )
        engine = SymbolEngine(cfg)
        engine._wait_links_ready()
        engine.bootstrap(engine._exchange)
        res = run_scenario(cfg)
        assert cfg.run_ticks == 4_000
        assert res.metrics.elapsed_ticks == engine.now == 12_192
        assert res.metrics.triggers_issued == 0


def line_error_scenario(**overrides):
    kw = dict(
        num_frontends=2,
        abstraction="symbol_level",
        trigger_mode="periodic",
        trigger_count=4,
        trigger_period_us=50,
        trigger_start_us=400,
        channels_per_event=2,
        words_per_channel=4,
    )
    kw.update(overrides)
    return SimConfig(**kw)


class TestLineErrors:
    """Nothing that arrives on a line raises out of an engine; corrupt input
    is counted."""

    @staticmethod
    def run_and_audit(cfg):
        res = run_scenario(cfg)
        assert res.engine.pool.audit()
        assert not res.engine.server.max_burst_violation
        return res

    @pytest.mark.parametrize("seed", [1, 4, 6])
    def test_channel_b_request_neither_read_nor_write(self, seed):
        res = self.run_and_audit(line_error_scenario(ber=1e-5, seed=seed))
        assert sum(card.request_errors for card in res.engine.cards.values()) > 0

    def test_packet_header_outside_the_length_rule(self):
        res = self.run_and_audit(line_error_scenario(ber=1e-5, seed=7))
        assert res.engine.backend_rx.scanners["C"].faults.sum() > 0

    def test_unrequested_packet_into_occupied_fifo(self):
        res = self.run_and_audit(line_error_scenario(ber=1e-3, seed=3))
        assert sum(link["pump_faults"] for link in res.metrics.per_link.values()) > 0

    def test_event_count_run_ends_when_the_builder_halts(self):
        # The builder halts by 0.6 ms on a start-of-event mismatch; packets
        # born of line errors on idle channel C would keep the stall detector
        # from ever firing.
        res = self.run_and_audit(line_error_scenario(num_frontends=4, ber=1e-5, seed=23))
        assert res.metrics.halt_reason is not None
        assert res.metrics.elapsed_ticks < 400_000

    def test_request_with_a_parity_error_is_resent(self):
        # Line errors corrupt one broadcast write of the serial-to-port map;
        # the card answers with PE set and latches nothing, so bootstrap
        # must send the write again for the card to get its ID.
        res = self.run_and_audit(line_error_scenario(num_frontends=1, ber=1e-5, seed=43607))
        assert res.engine.down_rx.parity_errors["B"][0] > 0
        assert res.metrics.bootstrap["verified"]
        assert res.engine.cards[0].assigned_id == 0
        assert res.metrics.client["events"] == 4

    def test_exchange_takes_only_a_frame_that_echoes_the_request(self):
        # A frame already queued on the return link (here a stale read of
        # another register) reaches the back-end before the card's answer.
        engine = SymbolEngine(line_error_scenario(num_frontends=1))
        engine._wait_links_ready()
        stray = ChannelBTransaction(read=True, address=REG_LOST_TRIGGERS, data=7)
        engine.up_tx.enqueue(0, "B", stray.encode())
        request = ChannelBTransaction(broadcast=True, read=True, address=REG_SERIAL_LO)
        answer = engine._exchange(request)[0]
        assert answer.address == REG_SERIAL_LO
        assert answer.data == engine.cards[0].serial_number & 0xFFFFFFFF

    def test_lost_channel_b_reply_does_not_delay_bootstrap(self):
        # A line error destroys link 1's reply to a bootstrap write; the
        # exchange gives up on it after a few frame times, not after 400
        # slices, so bootstrap still ends before data taking starts.
        res = self.run_and_audit(line_error_scenario(num_frontends=3, ber=1e-5, seed=116, run_ms=0.6))
        assert res.metrics.bootstrap["verified"]
        assert res.engine.backend_rx.parity_errors["B"][1] > 0

    def test_missing_bootstrap_answer_is_resent(self):
        # At BER 1e-3 line errors on idle return channels B frame stray
        # frames that swallow answers; bootstrap sends a request again until
        # every addressed port has answered, so no card is left out.
        res = self.run_and_audit(line_error_scenario(num_frontends=4, ber=1e-3, seed=11726, run_ms=0.6))
        assert res.metrics.bootstrap["absent_ports"] == []
        assert res.metrics.bootstrap["verified"]

    def test_line_errors_and_link_faults_pinned(self):
        # Random line errors on every link, plus a downstream flip inside a
        # bootstrap write to card 2 (a parity error, then a resend), and a
        # reset of link 3 whose retraining takes an upstream flip. The
        # digest and every link's counters are pinned, so each link must
        # draw its line errors from its own random stream in a fixed order.
        res = self.run_and_audit(line_error_scenario(
            num_frontends=4, ber=1e-5, seed=7,
            faults=[
                {"type": "line_flip", "link": 2, "direction": "down", "tick": 1124},
                {"type": "link_reset", "link": 3, "tick": 150_000},
                {"type": "line_flip", "link": 3, "direction": "up", "tick": 150_400},
            ],
        ))
        assert res.client_digest() == "c76094a615b49d531f1b8fc3fcc2f2dd181ae02c4dbde411c99200d7249af085"
        assert res.metrics.client["events"] == 4
        assert res.metrics.bootstrap["verified"]
        down, up = res.engine.down_rx, res.engine.backend_rx
        assert down.coding_violations.tolist() == [1, 1, 3, 1]
        assert down.parity_errors["A"].tolist() == [0, 0, 0, 0]
        assert down.parity_errors["B"].tolist() == [0, 0, 1, 1]
        assert down.parity_errors["C"].tolist() == [0, 0, 0, 0]
        assert up.parity_errors["A"].tolist() == [0, 0, 0, 0]
        assert up.parity_errors["B"].tolist() == [0, 0, 0, 0]
        assert up.training_errors.tolist() == [0, 0, 0, 1]
        assert up.scanners["C"].faults.tolist() == [26, 0, 0, 0]

    def test_no_quiet_slice_skipped_at_ber_above_zero(self):
        # The same plan as the pinned run above: line errors can land in any
        # slice, so every slice is run.
        res, skips = run_counting(line_error_scenario(
            num_frontends=4, ber=1e-5, seed=7,
            faults=[
                {"type": "line_flip", "link": 2, "direction": "down", "tick": 1124},
                {"type": "link_reset", "link": 3, "tick": 150_000},
                {"type": "line_flip", "link": 3, "direction": "up", "tick": 150_400},
            ],
        ), "_skip_quiet_slices")
        assert res.metrics.client["events"] == 4
        assert skips == []

    # 32 cards at BER 1e-5. A run of fixed length flushes no last buffer, so
    # a small MTU makes the frames leave.
    SPLIT_AT_SCALE = dict(num_frontends=32, ber=1e-5, seed=7, run_ms=0.9, trigger_start_us=600,
                          mtu=256, keep_client_events=True)

    def test_fanout_receivers_split_at_scale_pinned(self):
        # Each card takes its own line errors in its own fanout lane, so the
        # lanes' counters part, the five without a coding violation too.
        res = self.run_and_audit(line_error_scenario(**self.SPLIT_AT_SCALE))
        assert res.client_digest() == "9cb4901018c3460997d7495f8ac7ca061087110e4d66517769a2ce864a78a682"
        assert (res.metrics.client["events"], res.metrics.client["frames"]) == (3, 29)
        assert res.metrics.bootstrap["verified"]
        down, up = res.engine.down_rx, res.engine.backend_rx
        zeros = [0] * 32
        assert down.coding_violations.tolist() == [
            2, 1, 2, 1, 1, 1, 3, 4, 1, 3, 3, 2, 1, 0, 2, 3, 5, 0, 2, 2, 0, 1, 0, 3, 2, 2, 5, 0, 1, 1, 2, 3,
        ]
        assert down.parity_errors["A"].tolist() == zeros
        assert down.parity_errors["B"].tolist() == [int(row in (6, 14, 16, 26)) for row in range(32)]
        assert down.parity_errors["C"].tolist() == [int(row == 6) for row in range(32)]
        assert up.parity_errors["A"].tolist() == zeros
        assert up.parity_errors["B"].tolist() == [
            0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 2, 3, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0, 0, 3, 0, 1, 1, 1, 0,
        ]
        assert up.training_errors.tolist() == [int(row == 11) for row in range(32)]
        assert up.scanners["C"].faults.tolist() == [9 * (row == 5) for row in range(32)]

    def test_fanout_scans_pinned(self):
        # The run above: fanout lanes that carry the same symbols share one
        # scan, and a lane with no 1 on a channel and no partial frame is
        # not scanned, so the fanout scanners are fed few rows.
        fed, feed = [], FrameScanner.feed

        def counted(scanner, bits, rows=None):
            fed.append((scanner, len(bits)))
            return feed(scanner, bits, rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FrameScanner, "feed", counted)
            res = run_scenario(line_error_scenario(**self.SPLIT_AT_SCALE))
        fanout = [id(scanner) for scanner in res.engine.down_rx.scanners.values()]
        assert sum(rows for scanner, rows in fed if id(scanner) in fanout) == 393

    # A fixed 0.6 ms window covers bootstrap, the four triggers and their
    # readout (the plan completes at 0.56 ms at BER 0), and it bounds each
    # example's length whatever the line errors do to the plan.
    @settings(max_examples=10, deadline=None)
    @given(
        cards=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        ber=st.sampled_from([0.0, 1e-6, 1e-5]),
    )
    def test_no_engine_raises_at_low_ber(self, cards, seed, ber):
        self.run_and_audit(line_error_scenario(num_frontends=cards, seed=seed, ber=ber, run_ms=0.6))


def reference_ber_test(pattern, duration_bits, ber, window_bits, inject, seed):
    """`ber_test` one byte per bit: a bit-level PRBS window, the same chunked
    channel draws and flips, then the self-seeded window regenerated and
    XORed against the received one."""
    order, duration, window = sim.check_ber_test(pattern, duration_bits, ber, window_bits, inject)
    rng = np.random.default_rng(seed)
    bits = wire._prbs_forward(bits_from_int(1, order), order, window - order)
    if ber > 0.0:
        for start in range(0, window, sim.BER_DRAW_CHUNK):
            draw = rng.random(min(sim.BER_DRAW_CHUNK, window - start))
            bits[start + np.flatnonzero(draw < ber)] ^= 1
    for pos in inject:
        bits[pos] ^= 1
    if not bits[:order].any():
        raise ValueError("all-zero verifier seed")
    positions = np.flatnonzero(wire._prbs_forward(bits[:order], order, window - order) ^ bits).tolist()
    remainder = duration - window
    errors = len(positions) + (int(rng.binomial(remainder, ber)) if ber > 0.0 and remainder else 0)
    return sim.BerResult(
        pattern=pattern,
        bits=duration,
        window_bits=window,
        errors=errors,
        error_positions=positions[:100],
        measured_ber=errors / duration,
        ber_95cl_bound=(3.0 / duration) if errors == 0 else None,
        injected=list(inject),
        injected_detected=set(inject) <= set(positions),
    )


@st.composite
def ber_inputs(draw):
    """`ber_test` arguments; windows are mostly not whole words, and
    injected positions may repeat."""
    order = draw(st.sampled_from(sorted(wire.PRBS_TAPS)))
    window = draw(st.one_of(st.integers(order + 1, 5_000), st.integers(order + 1, 300_000)))
    positions = draw(st.lists(st.integers(order, window - 1), max_size=5))
    repeats = draw(st.lists(st.sampled_from(positions), max_size=3)) if positions else []
    return dict(
        pattern=f"prbs{order}",
        duration_bits=draw(st.sampled_from([window, 3 * window, 1.32e13])),
        ber=draw(st.sampled_from([0.0, 1e-4, 1e-3])),
        window_bits=window,
        inject=tuple(positions + repeats),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestBerTester:
    def test_zero_error_run_reports_rule_of_three_bound(self):
        res = ber_test("prbs31", duration_bits=1.32e13, window_bits=1_000_000)
        assert res.errors == 0
        assert res.ber_95cl_bound == pytest.approx(3.0 / 1.32e13)
        assert res.ber_95cl_bound <= 2.3e-13

    def test_injected_single_errors_detected_exactly(self):
        res = ber_test("prbs7", duration_bits=1e5, inject=(1234,))
        assert res.errors == 1
        assert res.error_positions == [1234]
        assert res.injected_detected

    def test_every_order_detects_injection(self):
        for order in (7, 15, 23, 31):
            res = ber_test(f"prbs{order}", duration_bits=50_000, inject=(order + 100,))
            assert res.injected_detected

    def test_configured_ber_within_poisson_band(self):
        # 1e7 bits at BER 1e-6: expected 10 errors; the count must fall in
        # the central 99% band of Poisson(10), computed here from the pmf.
        mean = 10.0
        cdf, k = 0.0, 0
        pmf = math.exp(-mean)
        band = []
        while cdf < 0.995:
            if cdf >= 0.005 or cdf + pmf >= 0.005:
                band.append(k)
            cdf += pmf
            k += 1
            pmf *= mean / k
        lo, hi = band[0], band[-1]
        res = ber_test("prbs23", duration_bits=1e7, ber=1e-6, window_bits=1_000_000, seed=42)
        assert lo <= res.errors <= hi, f"count {res.errors} outside Poisson band [{lo},{hi}]"

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            ber_test("prbs9", duration_bits=1e4)

    def test_channel_errors_pinned(self):
        # The window's error mask is drawn in chunks; these values come from
        # a single draw of the whole 3e6-bit window.
        res = ber_test("prbs23", duration_bits=1e7, ber=1e-6, window_bits=3_000_000, seed=42)
        assert res.errors == 7
        assert res.error_positions == [795119]

    def test_repeated_injection_cancels(self):
        res = ber_test("prbs7", duration_bits=1e5, inject=(500, 900, 500))
        assert res.error_positions == [900]
        assert not res.injected_detected

    def test_inject_position_checked_before_generating(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("window generated before the inject check")

        monkeypatch.setattr(sim, "PrbsGenerator", no_generator)
        for pos in (6, 1000):
            with pytest.raises(ValueError, match="inject position"):
                ber_test("prbs7", duration_bits=1000, inject=(100, pos))

    @pytest.mark.parametrize("ber", [2.0, -0.5, math.nan])
    def test_ber_outside_unit_interval_rejected_before_generating(self, monkeypatch, ber):
        def no_generator(*args, **kwargs):
            raise AssertionError("window generated before the ber check")

        monkeypatch.setattr(sim, "PrbsGenerator", no_generator)
        with pytest.raises(ValueError, match=r"ber must be within \[0, 1\]"):
            ber_test("prbs7", duration_bits=1e6, ber=ber)

    @pytest.mark.parametrize("ber", [0.0, 1.0])
    def test_ber_at_the_interval_edges_accepted(self, ber):
        res = ber_test("prbs7", duration_bits=1e4, ber=ber, window_bits=1000)
        assert res.bits == 10_000 and res.window_bits == 1000

    @pytest.mark.parametrize("window_bits", [10, 23, 0])
    def test_window_shorter_than_order_rejected_before_generating(self, monkeypatch, window_bits):
        def no_generator(*args, **kwargs):
            raise AssertionError("window generated before the window check")

        monkeypatch.setattr(sim, "PrbsGenerator", no_generator)
        with pytest.raises(ValueError, match="window too short"):
            ber_test("prbs23", duration_bits=50, window_bits=window_bits)

    def test_shortest_window_verifies(self):
        res = ber_test("prbs23", duration_bits=50, window_bits=24)
        assert res.window_bits == 24 and res.errors == 0

    @settings(max_examples=60, deadline=None)
    @given(inputs=ber_inputs())
    @example(
        inputs=dict(
            pattern="prbs31", duration_bits=1e9, ber=1e-3, window_bits=sim.BER_DRAW_CHUNK + 77,
            inject=(31, sim.BER_DRAW_CHUNK + 76, 500_000, 31), seed=7,
        )
    )
    def test_matches_byte_per_bit_reference(self, inputs):
        try:
            expected = reference_ber_test(**inputs).to_json()
        except ValueError as exc:  # a channel flip zeroed the verifier seed
            with pytest.raises(ValueError, match=str(exc)):
                ber_test(**inputs)
        else:
            assert ber_test(**inputs).to_json() == expected

    def test_window_held_packed(self):
        # One byte per bit, the 1e7-bit window and its regenerated copy
        # peaked at 20 MB; packed into words, the two take 2.5 MB (3.2 MB
        # when this call is the first to import numpy.random).
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            res = ber_test("prbs31", duration_bits=1.32e13, window_bits=10_000_000, inject=(31, 9_999_999))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert res.error_positions == [31, 9_999_999]
        assert peak < 4_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_channel_draws_hold_one_chunk(self):
        # At BER > 0 the channel's draws fill one reused 8 MB chunk. When
        # each chunk was a new array, the next was allocated while the last
        # was still bound, and the same window peaked at 18 MB.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            res = ber_test("prbs31", duration_bits=1.32e13, ber=1e-6, window_bits=10_000_000,
                           inject=(31, 9_999_999), seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert res.injected_detected and res.errors > 2
        assert peak < 13_000_000, f"peak {peak / 1e6:.1f} MB"


class TestTimingAudit:
    def test_downstream_slot_shares_by_exhaustive_count(self):
        # Mark channel A with ones, leave B and C idle: A occupies exactly
        # every other slot (50%), positions 0 and 2 of every cycle.
        cycles = 10_000
        line = wire.tdm_interleave(
            wire.DOWNSTREAM_SCHEDULE, [1] * 2 * cycles, [0] * cycles, [0] * cycles
        )
        positions = np.flatnonzero(line)
        assert len(positions) == 2 * cycles
        assert set((positions % 4).tolist()) == {0, 2}

    def test_upstream_slot_shares_by_exhaustive_count(self):
        cycles = 10_000
        line = wire.tdm_interleave(
            wire.UPSTREAM_SCHEDULE, [1] * cycles, [0] * cycles, [0] * 2 * cycles
        )
        positions = np.flatnonzero(line)
        assert len(positions) == cycles  # 25% share
        assert set((positions % 4).tolist()) == {0}

    def test_line_timing_follows_the_tick_rate_and_schedules(self):
        # docs/wire-format.md section 1: the fanout's channel shares of its
        # 100 Mbps and the return link's of its 400 Mbps, in Mbit/s (bits
        # per microsecond).
        def mbps(ticks_per_bit):
            return {ch: sim.TICKS_PER_US / ticks for ch, ticks in ticks_per_bit.items()}

        assert mbps(timebase.DOWN_TICKS_PER_CHANNEL_BIT) == {"A": 50, "B": 25, "C": 25}
        assert mbps(timebase.UP_TICKS_PER_CHANNEL_BIT) == {"A": 100, "B": 100, "C": 200}
        assert (timebase.TICK_SECONDS, sim.TICKS_PER_US, timebase.TICKS_PER_DOWN_CYCLE) == (2.5e-9, 400, 16)
        # A bits ride in slots 0 and 2 of each 16-tick cycle, 4 ticks each.
        assert [timebase.down_a_bit_end_tick(k) for k in range(4)] == [4, 12, 20, 28]
        # Message-level frame costs: a channel C request, an upstream A
        # frame, and a 262-byte packet (256 payload bytes) with its start bit.
        assert message_engine.DOWN_C_FRAME_TICKS == 672
        assert message_engine.UP_A_FRAME_TICKS == 40
        assert (8 * 262 + 1) * message_engine.UP_C_TICKS_PER_BIT == 4_194
