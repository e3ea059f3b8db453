"""x^43+1 scrambler/descrambler properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmlink.bits import random_bits
from tdmlink.wire import (
    IDLE_CYCLE_BITS,
    SCRAMBLER_ORDER,
    Descrambler,
    Scrambler,
    idle_scrambler_register,
)


def reference_scramble(state_bits, bits):
    """Bit-at-a-time recurrence out[i] = in[i] xor out[i-43], independent of
    the vectorized implementation."""
    hist = list(state_bits)
    out = []
    for b in bits:
        v = int(b) ^ hist[-SCRAMBLER_ORDER]
        out.append(v)
        hist.append(v)
    return np.array(out, dtype=np.uint8)


def reference_descramble(state_bits, line):
    """Bit-at-a-time out[i] = in[i] xor in[i-43]."""
    hist = list(state_bits) + [int(b) for b in line]
    return np.array([hist[i + SCRAMBLER_ORDER] ^ hist[i] for i in range(len(line))], dtype=np.uint8)


def test_zero_state_zero_input_fixed_point():
    out = Scrambler().scramble(np.zeros(200, dtype=np.uint8))
    assert not out.any()


def test_impulse_response_repeats_every_43():
    x = np.zeros(3 * SCRAMBLER_ORDER, dtype=np.uint8)
    x[0] = 1
    out = Scrambler().scramble(x)
    expected = np.zeros_like(x)
    expected[[0, 43, 86]] = 1
    assert np.array_equal(out, expected)


def test_matches_bit_serial_reference():
    rng = np.random.default_rng(21)
    state = random_bits(rng, SCRAMBLER_ORDER)
    x = random_bits(rng, 1000)
    assert np.array_equal(Scrambler(state).scramble(x), reference_scramble(state, x))


def test_round_trip_matching_states():
    rng = np.random.default_rng(22)
    x = random_bits(rng, 10_000)
    line = Scrambler(0).scramble(x)
    assert np.array_equal(Descrambler(0).descramble(line), x)


def test_round_trip_chunked_streaming():
    rng = np.random.default_rng(23)
    x = random_bits(rng, 5000)
    tx, rx = Scrambler(), Descrambler()
    out = []
    pos = 0
    while pos < len(x):
        n = int(rng.integers(1, 97))
        out.append(rx.descramble(tx.scramble(x[pos : pos + n])))
        pos += n
    assert np.array_equal(np.concatenate(out), x)


def test_self_synchronization_within_43_bits():
    rng = np.random.default_rng(24)
    line = Scrambler(0).scramble(random_bits(rng, 2000))
    good = Descrambler(0).descramble(line)
    seeded_wrong = Descrambler(int(rng.integers(1, 1 << 43))).descramble(line)
    diverging = np.flatnonzero(good != seeded_wrong)
    assert len(diverging) > 0
    assert diverging.max() < SCRAMBLER_ORDER


def test_single_line_flip_corrupts_two_bits_43_apart():
    rng = np.random.default_rng(25)
    x = random_bits(rng, 1000)
    line = Scrambler(0).scramble(x)
    flipped = line.copy()
    p = 301
    flipped[p] ^= 1
    out = Descrambler(0).descramble(flipped)
    bad = np.flatnonzero(out != x)
    assert list(bad) == [p, p + SCRAMBLER_ORDER]


def test_all_zero_input_zero_state():
    assert not Descrambler(0).descramble(np.zeros(100, dtype=np.uint8)).any()


def test_scrambled_density_near_half():
    rng = np.random.default_rng(26)
    out = Scrambler(0).scramble(random_bits(rng, 1_000_000))
    density = out.mean()
    assert abs(density - 0.5) < 0.01


def test_register_width_checked():
    with pytest.raises(Exception):
        Scrambler(np.zeros(10, dtype=np.uint8))


def test_rows_match_bit_serial_reference_in_chunks():
    # One register per row; rows scrambled together in uneven chunks, some
    # shorter than the register.
    rng = np.random.default_rng(27)
    states = random_bits(rng, 4 * SCRAMBLER_ORDER).reshape(4, SCRAMBLER_ORDER)
    x = random_bits(rng, 4 * 700).reshape(4, 700)
    tx, rx = Scrambler(states), Descrambler(states)
    out, back = [], []
    pos = 0
    for n in (5, 43, 1, 200, 97, 354):
        out.append(tx.scramble(x[:, pos : pos + n]))
        back.append(rx.descramble(out[-1]))
        pos += n
    out, back = np.concatenate(out, axis=1), np.concatenate(back, axis=1)
    for row in range(4):
        assert np.array_equal(out[row], reference_scramble(states[row], x[row]))
    assert np.array_equal(back, x)


@settings(max_examples=80, deadline=None)
@given(
    lead=st.lists(st.integers(1, 5), max_size=2).map(tuple),
    length=st.one_of(st.sampled_from([42, 43, 44, 86]), st.integers(0, 300)),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(0, 300), max_size=4),
)
def test_rows_and_chunks_match_bit_serial_reference(lead, length, seed, cuts):
    """0-2 leading dimensions, any length, random chunks (empty ones too)
    and random registers, on both sides."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, lead + (length,), dtype=np.uint8)
    tx_register = rng.integers(0, 2, lead + (SCRAMBLER_ORDER,), dtype=np.uint8)
    rx_register = rng.integers(0, 2, lead + (SCRAMBLER_ORDER,), dtype=np.uint8)
    tx, rx = Scrambler(tx_register), Descrambler(rx_register)
    edges = [0] + sorted(min(c, length) for c in cuts) + [length]
    line, back = [], []
    for lo, hi in zip(edges, edges[1:]):
        line.append(tx.scramble(bits[..., lo:hi]))
        back.append(rx.descramble(line[-1]))
    line, back = np.concatenate(line, axis=-1), np.concatenate(back, axis=-1)
    assert line.shape == back.shape == bits.shape
    for index in np.ndindex(lead):
        want = reference_scramble(tx_register[index], bits[index])
        assert np.array_equal(line[index], want)
        assert np.array_equal(back[index], reference_descramble(rx_register[index], want))
        for register, state in ((tx_register, tx), (rx_register, rx)):
            history = np.concatenate([register[index], want])  # the last 43 line bits
            assert np.array_equal(state.register[index], history[-SCRAMBLER_ORDER:])


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    cycles=st.one_of(st.sampled_from([0, 1, 43, 86, 256, 2560]), st.integers(0, 1200)),
    seed=st.integers(0, 2**32 - 1),
)
def test_idle_register_step_matches_scrambling_idle_cycles(lead, cycles, seed):
    """The closed-form step over idle cycles equals scrambling them bit by
    bit, from any register: the output repeats every 344 bits."""
    register = np.random.default_rng(seed).integers(0, 2, lead + (SCRAMBLER_ORDER,), dtype=np.uint8)
    idle = np.tile(IDLE_CYCLE_BITS, cycles)
    for index in np.ndindex(lead):
        history = np.concatenate([register[index], reference_scramble(register[index], idle)])
        assert np.array_equal(idle_scrambler_register(register, 4 * cycles)[index], history[-SCRAMBLER_ORDER:])
