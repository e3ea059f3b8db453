"""PRBS generation, self-seeding verification and error injection."""

import numpy as np
import pytest

from tdmlink.wire import (
    PRBS_TAPS,
    PrbsGenerator,
    inject_bit_error,
    prbs_verify,
    prbs_verify_words,
)


def lfsr_reference(order, seed, n):
    """Integer-register LFSR, one bit at a time."""
    tap = PRBS_TAPS[order]
    # Register holds the next `order` outputs, MSB emitted first.
    reg = seed
    out = []
    for _ in range(n):
        msb = (reg >> (order - 1)) & 1
        out.append(msb)
        nxt = msb ^ ((reg >> (tap - 1)) & 1)
        reg = ((reg << 1) | nxt) & ((1 << order) - 1)
    return np.array(out, dtype=np.uint8)


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_matches_bit_serial_reference(order):
    seed = 0x35 & ((1 << order) - 1) or 1
    gen = PrbsGenerator(order, seed=seed)
    assert np.array_equal(gen.stream(512), lfsr_reference(order, seed, 512))


def doubling_lengths(order, doublings=12):
    """Lengths that end one bit before, on and one bit after each point
    where the kernel doubles its lags (order * 2**k bits), the last bit of
    the first word and the end of the bit-by-bit head (64 words)."""
    points = [order * 2**k for k in range(doublings + 1)] + [64, 4096]
    return sorted({p + d for p in points for d in (-1, 0, 1)})


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_matches_reference_across_lag_doublings(order):
    seed = (0x5A5A5A5A & ((1 << order) - 1)) | 1
    lengths = doubling_lengths(order) + [20_000]
    reference = lfsr_reference(order, seed, max(lengths))
    for n in lengths:
        assert np.array_equal(PrbsGenerator(order, seed=seed).stream(n), reference[:n]), n


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_streaming_is_continuous_across_lag_doublings(order):
    ends = doubling_lengths(order)
    whole = PrbsGenerator(order, seed=7).stream(ends[-1])
    gen = PrbsGenerator(order, seed=7)
    parts = [gen.stream(b - a) for a, b in zip([0] + ends, ends)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
@pytest.mark.parametrize("n", [1, 63, 64, 65, 4095, 4096, 4097, 10_001])
def test_stream_words_are_the_packed_stream(order, n):
    words = PrbsGenerator(order, seed=3).stream_words(n)
    assert words.dtype == np.uint64 and len(words) == -(-n // 64)
    packed = words.view(np.uint8)
    assert np.array_equal(packed[: -(-n // 8)], np.packbits(PrbsGenerator(order, seed=3).stream(n)))
    assert not np.unpackbits(packed)[n:].any()  # bits past the end are zero


def test_word_and_bit_streams_continue_each_other():
    whole = PrbsGenerator(31, seed=5).stream(9_000)
    gen = PrbsGenerator(31, seed=5)
    head = np.unpackbits(gen.stream_words(4_100).view(np.uint8), count=4_100)
    assert np.array_equal(np.concatenate([head, gen.stream(4_900)]), whole)


def test_prbs7_period_127():
    gen = PrbsGenerator(7, seed=1)
    seq = gen.stream(127 * 3)
    # Cycle detection: the smallest shift that maps the sequence onto itself.
    period = next(
        p for p in range(1, 128 + 1) if np.array_equal(seq[p : p + 127], seq[:127])
    )
    assert period == 127


def test_prbs15_period():
    gen = PrbsGenerator(15, seed=0x2A)
    n = (1 << 15) - 1
    seq = gen.stream(2 * n)
    assert np.array_equal(seq[:n], seq[n:])
    assert not np.array_equal(seq[: n - 1], seq[1:n])


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
@pytest.mark.parametrize(
    "sizes",
    [
        (1, 7, 100, 9892),
        # Parts that end one bit before, on and one bit after word
        # boundaries, so each call starts at a different offset in a word.
        (63, 1, 65, 64, 127, 4033, 4096, 4097, 1, 129),
    ],
)
def test_streaming_is_continuous(order, sizes):
    whole = PrbsGenerator(order, seed=99).stream(sum(sizes))
    gen = PrbsGenerator(order, seed=99)
    parts = [gen.stream(n) for n in sizes]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_error_free_loopback(order):
    bits = PrbsGenerator(order, seed=3).stream(100_000)
    assert len(prbs_verify(order, bits)) == 0


def test_error_free_million_bits_prbs15():
    bits = PrbsGenerator(15, seed=1).stream(1_000_000)
    assert len(prbs_verify(15, bits)) == 0


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_single_flip_reported_exactly(order):
    rng = np.random.default_rng(order)
    bits = PrbsGenerator(order, seed=5).stream(20_000)
    for _ in range(20):
        p = int(rng.integers(order, len(bits)))
        errs = prbs_verify(order, inject_bit_error(bits, p))
        assert list(errs) == [p]


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_million_bit_run_detects_every_injected_error(order):
    rng = np.random.default_rng(order + 100)
    bits = PrbsGenerator(order, seed=9).stream(1_000_000)
    positions = sorted(
        int(p) for p in rng.choice(np.arange(order, len(bits)), size=10, replace=False)
    )
    corrupted = bits.copy()
    for p in positions:
        corrupted[p] ^= 1
    errs = prbs_verify(order, corrupted)
    assert [int(e) for e in errs] == positions


def flipped(bits, positions):
    out = bits.copy()
    for p in positions:
        out[p] ^= 1
    return out


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
@pytest.mark.parametrize("n", [64, 65, 127, 4097, 10_050])
def test_flips_in_first_last_and_tail_words_reported_exactly(order, n):
    bits = PrbsGenerator(order, seed=13).stream(n)
    last_word = max(64 * ((n - 1) // 64), order)  # past the seed when n is 64
    cases = [
        [order],  # first bit after the seed
        [order, 63],  # both ends of the first word
        [last_word],  # first bit of the last word, full or partial
        [n - 1],  # last bit of the window
        [order, last_word, n - 1],
    ]
    for positions in cases:
        positions = sorted(set(positions))
        assert list(prbs_verify(order, flipped(bits, positions))) == positions, positions


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_word_verifier_ignores_bits_past_the_window(order):
    n = 4_100  # the last word holds 4 window bits and 60 bits past it
    words = PrbsGenerator(order, seed=13).stream_words(n)
    packed = words.view(np.uint8)
    packed[n // 8 + 1 :] = 0xA5
    packed[n // 8] ^= 0x0F  # the 4 bits after the window's last one
    assert len(prbs_verify_words(order, words, n)) == 0
    packed[(n - 1) // 8] ^= 0x80 >> ((n - 1) % 8)
    assert list(prbs_verify_words(order, words, n)) == [n - 1]


def test_word_verifier_checks_its_inputs():
    words = PrbsGenerator(7, seed=1).stream_words(200)
    with pytest.raises(ValueError, match="PRBS order"):
        prbs_verify_words(9, words, 200)
    with pytest.raises(ValueError, match="need more than 7 bits"):
        prbs_verify_words(7, words[:1], 7)
    with pytest.raises(ValueError, match="uint64 words"):
        prbs_verify_words(7, words, 300)
    with pytest.raises(ValueError, match="uint64 words"):
        prbs_verify_words(7, words.view(np.uint8), 200)
    with pytest.raises(ValueError, match="all-zero verifier seed"):
        prbs_verify_words(7, np.zeros(4, dtype=np.uint64), 200)


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_flip_inside_seed_still_detected(order):
    bits = PrbsGenerator(order, seed=5).stream(5_000)
    errs = prbs_verify(order, inject_bit_error(bits, order // 2))
    assert len(errs) > 0


def test_all_zero_seed_rejected():
    with pytest.raises(ValueError):
        PrbsGenerator(7, seed=0)
    with pytest.raises(ValueError):
        prbs_verify(7, np.zeros(100, dtype=np.uint8))


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        PrbsGenerator(9)
