"""TDM interleaving, Manchester coding, phase resolution and bit-slip lock."""

import numpy as np
import pytest

from tdmlink.bits import bits_from_str, bits_to_str, random_bits
from tdmlink import wire
from tdmlink.wire import (
    DOWNSTREAM_SCHEDULE,
    UPSTREAM_SCHEDULE,
    CodingViolationError,
    WireFormatError,
)


class TestTdm:
    def test_downstream_cycle_order(self):
        out = wire.tdm_interleave(DOWNSTREAM_SCHEDULE, [1, 0], [1], [1])
        assert bits_to_str(out) == "1101"  # a0 b0 a1 c0

    def test_upstream_cycle_order(self):
        out = wire.tdm_interleave(UPSTREAM_SCHEDULE, [1], [0], [1, 0])
        assert bits_to_str(out) == "1010"  # a0 b0 c0 c1

    def test_idle_cycle_is_zero(self):
        out = wire.tdm_interleave(DOWNSTREAM_SCHEDULE, [0, 0], [0], [0])
        assert bits_to_str(out) == "0000"

    def test_deinterleave_inverse_example(self):
        a, b, c = wire.tdm_deinterleave(DOWNSTREAM_SCHEDULE, [1, 0, 1, 1])
        assert bits_to_str(a) == "11" and bits_to_str(b) == "0" and bits_to_str(c) == "1"

    @pytest.mark.parametrize("schedule", [DOWNSTREAM_SCHEDULE, UPSTREAM_SCHEDULE])
    def test_round_trip_large_random(self, schedule):
        rng = np.random.default_rng(1234)
        cycles = 100_000 // 4
        na = 2 if schedule is DOWNSTREAM_SCHEDULE else 1
        nc = 1 if schedule is DOWNSTREAM_SCHEDULE else 2
        a = random_bits(rng, na * cycles)
        b = random_bits(rng, cycles)
        c = random_bits(rng, nc * cycles)
        line = wire.tdm_interleave(schedule, a, b, c)
        a2, b2, c2 = wire.tdm_deinterleave(schedule, line)
        assert np.array_equal(a, a2)
        assert np.array_equal(b, b2)
        assert np.array_equal(c, c2)

    def test_bandwidth_shares(self):
        cycles = 250
        line = wire.tdm_interleave(
            DOWNSTREAM_SCHEDULE, [1] * 2 * cycles, [0] * cycles, [0] * cycles
        )
        assert int(line.sum()) == 2 * cycles  # A gets exactly half the slots

    def test_exhausted_channel_rejected(self):
        with pytest.raises(WireFormatError):
            wire.tdm_interleave(DOWNSTREAM_SCHEDULE, [1, 0, 1], [0], [0])
        with pytest.raises(WireFormatError):
            wire.tdm_interleave(DOWNSTREAM_SCHEDULE, [1, 0], [0, 0], [0])

    def test_partial_cycle_reported(self):
        with pytest.raises(WireFormatError, match="partial cycle of 2"):
            wire.tdm_deinterleave(DOWNSTREAM_SCHEDULE, [0, 1, 0, 0, 0, 1])


class TestInvertB:
    def test_complements(self):
        assert bits_to_str(wire.invert_channel_b([0, 0, 0])) == "111"

    def test_idle_cycle_marker(self):
        # Idle cycle with B inverted at slot 1 becomes the 0100 marker.
        line = wire.tdm_interleave(
            DOWNSTREAM_SCHEDULE, [0, 0], wire.invert_channel_b([0]), [0]
        )
        assert bits_to_str(line) == "0100"

    def test_involution(self):
        rng = np.random.default_rng(99)
        x = random_bits(rng, 1000)
        assert np.array_equal(wire.invert_channel_b(wire.invert_channel_b(x)), x)


class TestManchester:
    def test_idle_pattern(self):
        assert bits_to_str(wire.manchester_encode([0, 1, 0, 0])) == "01100101"

    def test_single_bit(self):
        assert bits_to_str(wire.manchester_encode([1])) == "10"

    def test_dc_balance(self):
        rng = np.random.default_rng(42)
        x = random_bits(rng, 1000)
        symbols = wire.manchester_encode(x)
        assert int(symbols.sum()) == 1000
        assert len(symbols) - int(symbols.sum()) == 1000

    def test_decode_phase0(self):
        assert bits_to_str(wire.manchester_decode(bits_from_str("01100101"), 0)) == "0100"

    def test_decode_phase1_gives_inverted_idle(self):
        assert bits_to_str(wire.manchester_decode(bits_from_str("01100101"), 1)) == "1011"

    def test_round_trip_random(self):
        rng = np.random.default_rng(77)
        x = random_bits(rng, 4096)
        assert np.array_equal(wire.manchester_decode(wire.manchester_encode(x), 0), x)

    def test_coding_violation_position(self):
        symbols = wire.manchester_encode([0, 1, 1, 0])
        symbols[5] ^= 1  # make pair (1,1)
        with pytest.raises(CodingViolationError) as err:
            wire.manchester_decode(symbols, 0)
        assert err.value.position == 4


    def test_downstream_rx_counts_violations_instead_of_raising(self):
        symbols = wire.downstream_tx([1, 0, 1, 1], [0, 1], [1, 0])
        symbols[3] ^= 1  # pair 1 (channel B) becomes (1,1)
        symbols[12] ^= 1  # pair 6 (channel A) becomes (0,0)
        assert wire.manchester_violations(symbols).tolist() == [2, 12]
        a, b, c = wire.downstream_rx(symbols)
        # Phase 0 samples the first symbol of each pair: pair 1 reads the
        # bit that was sent, pair 6 reads 0 where 1 was sent.
        assert (a.tolist(), b.tolist(), c.tolist()) == ([1, 0, 1, 0], [0, 1], [1, 0])


def idle_rotations(cycle: str, n: int) -> set[str]:
    """Every cyclic rotation of `cycle` repeated to n bits."""
    return {((cycle * n)[r:] + cycle * n)[:n] for r in range(len(cycle))}


class TestPhaseSelection:
    """`bit_slip_sync` is the phase selector: its half-bit phase decodes
    idle traffic to the cycle 0100; the other phase reads 1011."""

    def test_aligned_stream_is_phase0(self):
        assert wire.bit_slip_sync(wire.downstream_idle_symbols(4), lock_threshold=4).half_bit_phase == 0

    def test_shifted_stream_is_phase1(self):
        stream = wire.downstream_idle_symbols(5)
        assert wire.bit_slip_sync(stream[1:], lock_threshold=4).half_bit_phase == 1

    @pytest.mark.parametrize("k", range(8))
    def test_every_offset_resolves_to_its_parity(self, k):
        stream = wire.downstream_idle_symbols(6)[k : k + 32]
        phase = wire.bit_slip_sync(stream, lock_threshold=4).half_bit_phase
        assert phase == k % 2
        decoded = bits_to_str(wire.manchester_decode(stream, phase, check=False))
        inverted = bits_to_str(wire.manchester_decode(stream, 1 - phase, check=False))
        assert decoded in idle_rotations("0100", 16)
        assert inverted in idle_rotations("1011", 16)

    def test_noise_does_not_lock(self):
        rng = np.random.default_rng(3)
        # A random window is overwhelmingly unlikely to repeat the idle cycle.
        assert not wire.bit_slip_sync(random_bits(rng, 64), lock_threshold=4).locked


class TestBitSlipSync:
    @pytest.mark.parametrize("k", range(8))
    def test_recovers_every_offset(self, k):
        stream = wire.downstream_idle_symbols(10)[k:]
        state = wire.bit_slip_sync(stream, lock_threshold=4)
        assert state.locked
        assert state.bit_slip_offset == k
        assert state.half_bit_phase == k % 2
        # Decoding from the aligned index yields pure idle traffic.
        tail = stream[state.aligned_index :]
        tail = tail[: len(tail) - len(tail) % 8]
        a, b, c = wire.downstream_rx(tail)
        assert not a.any() and not b.any() and not c.any()

    def test_lock_within_budget(self):
        threshold = 4
        for k in range(8):
            stream = wire.downstream_idle_symbols(16)[k:]
            budget = 8 * threshold + 16
            state = wire.bit_slip_sync(stream[:budget], lock_threshold=threshold)
            assert state.locked, f"offset {k} not locked within {budget} symbols"

    def test_corrupted_symbol_delays_but_does_not_prevent_lock(self):
        stream = wire.downstream_idle_symbols(20).copy()
        stream[9] ^= 1
        state = wire.bit_slip_sync(stream, lock_threshold=4)
        assert state.locked
        assert state.bit_slip_offset == 0
        clean = wire.bit_slip_sync(wire.downstream_idle_symbols(20), lock_threshold=4)
        assert state.aligned_index > clean.aligned_index

    def test_insufficient_idle_reports_unlocked(self):
        state = wire.bit_slip_sync(wire.downstream_idle_symbols(2), lock_threshold=4)
        assert not state.locked


class TestFullChain:
    def test_idle_tx_emits_golden_pattern(self):
        cycles = 50
        symbols = wire.downstream_tx([0] * 2 * cycles, [0] * cycles, [0] * cycles)
        assert np.array_equal(symbols, wire.downstream_idle_symbols(cycles))

    def test_downstream_round_trip_random_traffic(self):
        rng = np.random.default_rng(11)
        cycles = 2500
        a = random_bits(rng, 2 * cycles)
        b = random_bits(rng, cycles)
        c = random_bits(rng, cycles)
        a2, b2, c2 = wire.downstream_rx(wire.downstream_tx(a, b, c))
        assert np.array_equal(a, a2)
        assert np.array_equal(b, b2)
        assert np.array_equal(c, c2)

    def test_upstream_round_trip_random_traffic(self):
        rng = np.random.default_rng(12)
        cycles = 2500
        a = random_bits(rng, cycles)
        b = random_bits(rng, cycles)
        c = random_bits(rng, 2 * cycles)
        line = wire.upstream_tx(a, b, c, wire.Scrambler())
        assert len(line) == 4 * cycles  # zero coding overhead
        a2, b2, c2 = wire.upstream_rx(line, wire.Descrambler())
        assert np.array_equal(a, a2)
        assert np.array_equal(b, b2)
        assert np.array_equal(c, c2)

    def test_training_pattern(self):
        assert bits_to_str(wire.training_pattern(8)) == "10101010"


class TestRows:
    """A (links, bits) array codes each row as a 1-D stream of its own."""

    def test_chains_code_each_row_like_one_stream(self):
        rng = np.random.default_rng(13)
        links, cycles = 3, 40
        a = rng.integers(0, 2, (links, cycles), dtype=np.uint8)
        b = rng.integers(0, 2, (links, cycles), dtype=np.uint8)
        c = rng.integers(0, 2, (links, 2 * cycles), dtype=np.uint8)
        symbols = wire.downstream_tx(c, b, a)
        assert np.array_equal(wire.count_manchester_violations(symbols), [0, 0, 0])
        states = rng.integers(0, 2, (links, wire.SCRAMBLER_ORDER), dtype=np.uint8)
        tx, rx = wire.Scrambler(states), wire.Descrambler(states)
        line = wire.upstream_tx(a, b, c, tx)
        channels = wire.upstream_rx(line, rx)
        for row in range(links):
            assert np.array_equal(symbols[row], wire.downstream_tx(c[row], b[row], a[row]))
            for x, y in zip(wire.downstream_rx(symbols), wire.downstream_rx(symbols[row])):
                assert np.array_equal(x[row], y)
            one = wire.Scrambler(states[row])
            assert np.array_equal(line[row], wire.upstream_tx(a[row], b[row], c[row], one))
            assert np.array_equal(tx.register[row], one.register)
            for x, y in zip(channels, (a, b, c)):
                assert np.array_equal(x[row], y[row])
        broken = symbols.copy()
        broken[1, [4, 10, 11, 15]] ^= 1  # pair 5 flips whole and stays valid
        assert wire.count_manchester_violations(broken).tolist() == [0, 2, 0]
