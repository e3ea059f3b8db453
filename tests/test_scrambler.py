"""x^43+1 scrambler/descrambler properties."""

import numpy as np
import pytest

from tdmlink.bits import random_bits
from tdmlink.wire import SCRAMBLER_ORDER, Descrambler, Scrambler


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
