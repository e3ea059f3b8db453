"""PRBS generation, self-seeding verification and error injection."""

import numpy as np
import pytest

from tdmlink.wire import PRBS_TAPS, PrbsGenerator, inject_bit_error, prbs_verify


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


def doubling_lengths(order, doublings=6):
    """Lengths that end one bit before, on and one bit after each point
    where the kernel doubles its lags (order * 2**k bits)."""
    return sorted({order * 2**k + d for k in range(doublings + 1) for d in (-1, 0, 1)})


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_matches_reference_across_lag_doublings(order):
    seed = (0x5A5A5A5A & ((1 << order) - 1)) | 1
    reference = lfsr_reference(order, seed, 20_000)
    for n in doubling_lengths(order) + [20_000]:
        assert np.array_equal(PrbsGenerator(order, seed=seed).stream(n), reference[:n]), n


@pytest.mark.parametrize("order", sorted(PRBS_TAPS))
def test_streaming_is_continuous_across_lag_doublings(order):
    ends = doubling_lengths(order)
    whole = PrbsGenerator(order, seed=7).stream(ends[-1])
    gen = PrbsGenerator(order, seed=7)
    parts = [gen.stream(b - a) for a, b in zip([0] + ends, ends)]
    assert np.array_equal(np.concatenate(parts), whole)


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


def test_streaming_is_continuous():
    whole = PrbsGenerator(23, seed=99).stream(10_000)
    gen = PrbsGenerator(23, seed=99)
    parts = [gen.stream(n) for n in (1, 7, 100, 9892)]
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
