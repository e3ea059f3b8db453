"""Acceptance suite: one test per criterion, run with -v for one line each.

Every tolerance is pinned here, taken directly from the system requirements;
nothing is deferred to later calibration. Several criteria print their
measured numbers for transparency (visible with pytest -s or on failure).
"""

import numpy as np
import pytest

from tdmlink import backend as be
from tdmlink import frontend as fe
from tdmlink import messages as m
from tdmlink import timebase, wire
from tdmlink.bits import bits_to_str, random_bits
from tdmlink.sim import SimConfig, ber_test, make_serials, run_scenario
from tdmlink.streams import DownstreamReceiver, DownstreamTransmitter
from tdmlink.transport import throughput_model

from fill_pattern import generator_word


def test_criterion_1_idle_pattern_golden_and_lock():
    """Idle downstream TX emits exactly repeating 01100101; the receiver
    locks from all 8 symbol offsets and resolves both Manchester phases by
    the 0100-vs-1011 rule, and the fanout receiver the engines run decodes
    a channel A frame after that lock at the tick the line timing gives.
    Bit-exact."""
    cycles = 64
    symbols = wire.downstream_tx([0] * 2 * cycles, [0] * cycles, [0] * cycles)
    assert bits_to_str(symbols[:8]) == "01100101"
    assert np.array_equal(symbols, np.tile(wire.DOWNSTREAM_IDLE_SYMBOLS, cycles))

    trigger = m.ChannelAMessageDown(sampling_stop=True)
    for offset in range(8):
        stream = np.tile(wire.DOWNSTREAM_IDLE_SYMBOLS, 16)[offset:]
        state = wire.bit_slip_sync(stream, lock_threshold=4)
        assert state.locked, f"no lock from offset {offset}"
        assert state.bit_slip_offset == offset
        assert state.half_bit_phase == offset % 2
        # Phase selection rule: the correct phase reads the 0100 idle cycle,
        # the 180-degree phase reads the inverted pattern 1011.
        aligned = stream[state.aligned_index :][:32]
        assert bits_to_str(wire.manchester_decode(aligned, 0)[:4]) == "0100"
        assert bits_to_str(wire.manchester_decode(aligned, 1)[:4]) == "1011"

        # The engines' selector: a fanout receiver that starts listening
        # `offset` symbols into the line locks on idle traffic, then decodes
        # a trigger frame at its arrival tick (counted from the receiver's
        # first symbol, so `offset` symbols after the transmitter's).
        tx, rx = DownstreamTransmitter(), DownstreamReceiver(1)
        assert rx.feed(tx.produce_cycles(16)[offset:].astype(np.uint32)).a == []
        assert rx.locked[0], f"fanout receiver not locked from offset {offset}"
        assert rx.sync[0].bit_slip_offset == offset
        assert rx.sync[0].half_bit_phase == offset % 2
        first_bit = tx.enqueue("A", m.encode_channel_a(trigger))
        (row, msg, tick), = rx.feed(tx.produce_cycles(16).astype(np.uint32)).a
        assert (row, msg) == (0, trigger)
        assert tick + timebase.TICKS_PER_DOWN_SYMBOL * offset == timebase.down_a_frame_arrival_tick(first_bit)


def test_criterion_2_codec_round_trip_suite():
    """>= 10^4 randomized round trips per message type with zero mismatches;
    frame lengths exactly 10/64/42 bits; exhaustive single-bit parity and
    CRC detection."""
    rng = np.random.default_rng(2024)
    n = 10_000

    for _ in range(n):
        msg = m.ChannelAMessageDown(
            sampling_stop=bool(rng.integers(2)),
            event_type=int(rng.integers(4)),
            clear_event_counter=bool(rng.integers(2)),
            clear_timestamp=bool(rng.integers(2)),
            sync_sampling_clock=bool(rng.integers(2)),
        )
        frame = m.encode_channel_a(msg)
        assert len(frame) == 10
        assert m.decode_channel_a_down(frame) == msg

        busy = int(rng.integers(3))
        up = m.ChannelAMessageUp(
            set_busy=busy == 1, clear_busy=busy == 2,
            trigger_primitives=int(rng.integers(16)),
        )
        frame = m.encode_channel_a(up)
        assert len(frame) == 10
        assert m.decode_channel_a_up(frame) == up

        rd = bool(rng.integers(2))
        txn = m.ChannelBTransaction(
            broadcast=bool(rng.integers(2)), target_id=int(rng.integers(32)),
            read=rd, write=not rd, byte_enable=int(rng.integers(16)),
            address=int(rng.integers(1 << 16)), data=int(rng.integers(1 << 32)),
        )
        frame = m.encode_channel_b(txn)
        assert len(frame) == 64
        assert m.decode_channel_b(frame) == txn

        req = m.ChannelCRequest(
            opcode=int(rng.integers(256)), target_mask=int(rng.integers(1, 1 << 32))
        )
        frame = m.encode_channel_c_request(req)
        assert len(frame) == 42
        assert m.decode_channel_c_request(frame) == req

        words = tuple(int(w) for w in rng.integers(0, 1 << 16, size=2 * int(rng.integers(0, 8))))
        pkt = m.FragmentPacket.build(soe=False, eoe=bool(rng.integers(2)), payload_words=words)
        back = m.FragmentPacket.deserialize(pkt.serialize())
        assert back.crc_ok and back.payload_words == words and back.eoe == pkt.eoe

    # Exhaustive single-bit parity detection, A and B frames.
    a_frame = m.encode_channel_a(m.ChannelAMessageDown(sampling_stop=True, event_type=3))
    for i in range(1, 9):
        bad = a_frame.copy()
        bad[i] ^= 1
        with pytest.raises(m.ParityError):
            m.decode_channel_a_down(bad)
    b_frame = m.encode_channel_b(
        m.ChannelBTransaction(write=True, target_id=21, address=0xBEEF, data=0x13579BDF)
    )
    for i in range(1, 63):
        bad = b_frame.copy()
        bad[i] ^= 1
        with pytest.raises(m.ParityError):
            m.decode_channel_b(bad)

    # Exhaustive single-bit CRC detection over a 64-byte-class packet.
    pkt = m.FragmentPacket.build(soe=False, eoe=False, payload_words=tuple(range(30)))
    data = pkt.serialize()
    for pos in range(len(data) * 8):
        corrupt = bytearray(data)
        corrupt[pos // 8] ^= 1 << (pos % 8)
        try:
            back = m.FragmentPacket.deserialize(bytes(corrupt))
        except m.MessageFormatError:
            continue  # size field flips change the framing itself
        assert not back.crc_ok, f"flip at bit {pos} escaped the CRC"


def test_criterion_3_scrambler_properties():
    """Self-synchronization within exactly 43 bits; one line flip corrupts
    exactly 2 descrambled bits 43 apart; zero input at zero state is a
    fixed point. Exact."""
    rng = np.random.default_rng(3)
    x = random_bits(rng, 4000)
    line = wire.Scrambler(0).scramble(x)

    for wrong_seed in (1, 0x7FFFFFFFFFF, int(rng.integers(1, 1 << 43))):
        out = wire.Descrambler(wrong_seed).descramble(line)
        diverging = np.flatnonzero(out != x)
        assert len(diverging) > 0
        assert diverging.max() < 43, "divergence window exceeded 43 bits"

    for flip in (0, 999, 3999 - 43):
        corrupted = line.copy()
        corrupted[flip] ^= 1
        out = wire.Descrambler(0).descramble(corrupted)
        assert list(np.flatnonzero(out != x)) == [flip, flip + 43]

    assert not wire.Scrambler(0).scramble(np.zeros(500, dtype=np.uint8)).any()
    assert not wire.Descrambler(0).descramble(np.zeros(500, dtype=np.uint8)).any()


def test_criterion_4_ber_reproduction():
    """Fast-forward over >= 1.3e13 effective bits with zero errors yields a
    95% CL bound <= 2.3e-13; every injected single-bit error is detected."""
    result = ber_test("prbs31", duration_bits=1.32e13, window_bits=1_000_000)
    assert result.bits >= 1.3e13
    assert result.errors == 0
    assert result.ber_95cl_bound is not None
    assert result.ber_95cl_bound <= 2.3e-13
    print(f"\n  BER bound: {result.ber_95cl_bound:.3e} over {result.bits:.2e} bits")

    rng = np.random.default_rng(4)
    for order in (7, 15, 23, 31):
        positions = tuple(sorted(int(p) for p in rng.integers(order, 500_000, size=5)))
        res = ber_test(f"prbs{order}", duration_bits=500_000, inject=positions)
        assert res.injected_detected, f"prbs{order}: injected errors escaped"
        assert res.error_positions == list(positions)


def test_criterion_5_bootstrap_100_seeded_repetitions():
    """32 cards with random 53-bit serials all receive IDs equal to their
    physical ports, verified by targeted reads; 100 seeded repetitions."""
    for rep in range(100):
        serials = make_serials(1000 + rep, 32)
        cards = {port: fe.FrontEndCard(serials[port]) for port in range(32)}
        result = be.bootstrap_sequence(be.untimed_exchange(cards), sorted(cards))
        assert result.verified, f"repetition {rep}: verification failed"
        assert len(result.id_map) == 32
        assert all(cards[port].assigned_id == port for port in cards)


def test_criterion_6_per_link_utilization():
    """Saturated generators on 2 links: delivered event payload per link is
    >= 85% of the 200 Mbps channel C data share."""
    cfg = SimConfig(
        num_frontends=2, seed=6, abstraction="message_level",
        trigger_mode="gated", trigger_count=10**9,
        channels_per_event=256, words_per_channel=512,
        credit=8, mtu=8192, run_ms=40.0, warmup_ms=8.0,
        buffering_depth=4, verify_provenance=False,
    )
    res = run_scenario(cfg)
    assert res.metrics.violations == []
    for port, link in res.metrics.per_link.items():
        print(f"\n  link {port}: channel C utilization {link['utilization_c']:.3f}")
        assert link["utilization_c"] >= 0.85, (
            f"link {port} utilization {link['utilization_c']:.3f} below 0.85"
        )


def test_criterion_7_credit_sweep_reproduction():
    """32 emulated cards, credit sweep 1..8 at 8 KB and 1.5 KB MTU:
    monotone non-decreasing; within 2% of the 1 Gbps payload cap for
    credit >= 6 at 8 KB; 1.5 KB at credit >= 6 stays <= 45% of the Jumbo
    value; simulation within 10% of the analytic model at every point."""
    results = {}
    for mtu in (8192, 1500):
        for credit in range(1, 9):
            cfg = SimConfig(
                num_frontends=32, seed=7, abstraction="message_level",
                trigger_mode="gated", trigger_count=10**9,
                channels_per_event=256, words_per_channel=128,
                credit=credit, mtu=mtu, run_ms=30.0, warmup_ms=6.0,
                buffering_depth=4, verify_provenance=False,
            )
            res = run_scenario(cfg)
            assert res.metrics.violations == []
            results[(mtu, credit)] = res.metrics.throughput_MB_s

    for mtu in (8192, 1500):
        curve = [results[(mtu, c)] for c in range(1, 9)]
        print(f"\n  mtu {mtu}: " + " ".join(f"{v:.1f}" for v in curve))
        assert all(b >= a * 0.999 for a, b in zip(curve, curve[1:])), (
            f"throughput not monotone for mtu {mtu}: {curve}"
        )
        for credit in range(1, 9):
            model = throughput_model(credit, mtu)
            sim = results[(mtu, credit)]
            assert abs(sim - model) <= 0.10 * model, (
                f"credit {credit} mtu {mtu}: sim {sim:.2f} vs model {model:.2f}"
            )

    payload_cap = 1e9 / 8 * (8192 - 66) / 8192 / 1e6  # MB/s
    for credit in (6, 7, 8):
        assert results[(8192, credit)] >= 0.98 * payload_cap, (
            f"credit {credit} not saturated: {results[(8192, credit)]:.2f} "
            f"vs cap {payload_cap:.2f}"
        )
        ratio = results[(1500, credit)] / results[(8192, credit)]
        assert ratio <= 0.45, f"1.5 KB MTU at credit {credit} is {ratio:.2f} of Jumbo"


def _expected_event_words(num_links, channels, words):
    """Generator ground truth: per (link, channel) payload words."""
    return {
        (link, ch): [generator_word(link, ch, k) for k in range(words)]
        for link in range(num_links)
        for ch in range(channels)
    }


def _verify_events_bit_exact(events, num_links, channels, words, skip=()):
    truth = _expected_event_words(num_links, channels, words)
    for ev in events:
        per_link_channel = {}
        for link, data in ev.fragments:
            pkt = m.FragmentPacket.deserialize(data)
            assert pkt.crc_ok
            ch = per_link_channel.get(link, 0)
            per_link_channel[link] = ch + 1
            if pkt.soe:
                assert pkt.event_number == ev.event_number
                assert pkt.timestamp == ev.timestamp
        # Account for skipped (dropped) fragments when checking coverage.
        for link in range(num_links):
            expected = channels - sum(
                1 for (e, l, c) in skip if e == ev.event_number and l == link
            )
            assert per_link_channel.get(link, 0) == expected
        # Re-walk for bit-exact payload comparison, channel indices shifted
        # past dropped fragments.
        seen = {link: 0 for link in range(num_links)}
        for link, data in ev.fragments:
            pkt = m.FragmentPacket.deserialize(data)
            ch = seen[link]
            if (ev.event_number, link, ch) in skip:
                ch += 1  # the dropped channel never arrives
            seen[link] = ch + 1
            assert list(pkt.data_words) == truth[(link, ch)], (
                f"event {ev.event_number} link {link} channel {ch} payload differs"
            )


def test_criterion_8_event_builder_fault_matrix():
    """(a) CRC-corrupt fragment dropped, event incomplete, run continues;
    (b) SOE mismatch halts deterministically; (c) non-SOE first packet
    raises; (d) descriptor-pool starvation stalls with zero loss and full
    recovery. Bit-exact payload comparison over >= 100 events."""
    links, channels, words = 3, 4, 6
    base = dict(
        num_frontends=links, seed=8, abstraction="message_level",
        trigger_mode="gated", trigger_count=101,
        channels_per_event=channels, words_per_channel=words,
        buffering_depth=4,
    )

    # (a) CRC-corrupted fragment.
    res = run_scenario(SimConfig(
        **base, faults=[{"type": "corrupt_fragment", "link": 1, "event": 17, "channel": 2}]
    ))
    assert res.metrics.events_built == 101
    assert res.metrics.client["events"] == 101
    assert res.metrics.client["incomplete_events"] == 1
    assert res.metrics.per_link[1]["crc_drops"] == 1
    flagged = [ev for ev in res.client.events if ev.incomplete]
    assert [ev.event_number for ev in flagged] == [17]
    _verify_events_bit_exact(res.client.events, links, channels, words, skip={(17, 1, 2)})

    # (b) SOE event-number mismatch: deterministic halt.
    halts = []
    for _ in range(2):
        res_b = run_scenario(SimConfig(
            **{**base, "trigger_count": 5, "run_ms": 6.0},
            faults=[{"type": "soe_skew", "link": 2, "delta": 1}],
        ))
        halts.append((res_b.metrics.halt_reason, res_b.metrics.events_built))
    assert halts[0] == halts[1]
    assert halts[0][1] == 0
    assert "mismatch" in halts[0][0] and "link 2" in halts[0][0]

    # (c) non-SOE first packet: error raised (halt with diagnostic).
    res_c = run_scenario(SimConfig(
        **{**base, "trigger_count": 5, "run_ms": 6.0},
        faults=[{"type": "drop_packet", "link": 0, "index": 0}],
    ))
    assert res_c.metrics.halt_reason is not None
    assert "lacks SOE" in res_c.metrics.halt_reason

    # (d) descriptor-pool starvation: stall, zero loss, full recovery.
    res_d = run_scenario(SimConfig(**{**base, "buffer_pool": 2, "mtu": 1500, "credit": 1}))
    assert res_d.engine.mover.stalls > 0, "pool never starved"
    assert res_d.metrics.events_built == 101
    assert res_d.metrics.client["events"] == 101
    assert res_d.metrics.client["incomplete_events"] == 0
    assert res_d.metrics.violations == []
    _verify_events_bit_exact(res_d.client.events, links, channels, words)
    print(f"\n  starvation stalls: {res_d.engine.mover.stalls}, events intact: 101")


def test_criterion_9_determinism_and_abstraction_equivalence():
    """Identical seeds give byte-identical outputs; symbol-level and
    message-level runs deliver identical messages at BER 0 (10 events)."""
    kw = dict(
        num_frontends=2, seed=99, trigger_mode="periodic", trigger_count=10,
        trigger_period_us=200.0, trigger_start_us=1000.0,
        channels_per_event=3, words_per_channel=4,
    )
    runs = [run_scenario(SimConfig(abstraction="message_level", **kw)) for _ in range(2)]
    assert runs[0].metrics.to_json_lines() == runs[1].metrics.to_json_lines()
    assert runs[0].client_digest() == runs[1].client_digest()

    sym = [run_scenario(SimConfig(abstraction="symbol_level", **kw)) for _ in range(2)]
    assert sym[0].metrics.to_json_lines() == sym[1].metrics.to_json_lines()
    assert sym[0].client_digest() == sym[1].client_digest()

    assert runs[0].metrics.client["events"] == 10
    assert sym[0].metrics.client["events"] == 10
    keys_m = [ev.key() for ev in runs[0].client.events]
    keys_s = [ev.key() for ev in sym[0].client.events]
    assert keys_m == keys_s, "delivered messages differ between abstraction levels"
    print(f"\n  digest (both engines): {runs[0].client_digest()[:16]}...")
