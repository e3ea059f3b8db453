import numpy as np
import pytest

from tdmlink import bits


def test_str_round_trip():
    s = "01100101"
    assert bits.bits_to_str(bits.bits_from_str(s)) == s


def test_hex_msb_first():
    assert bits.bits_to_hex(bits.bits_from_str("01100101")) == "65"
    assert np.array_equal(bits.bits_from_hex("65"), bits.bits_from_str("01100101"))


def test_int_field_packing():
    assert bits.bits_to_int(bits.bits_from_int(0xDEADBEEF, 32)) == 0xDEADBEEF
    assert bits.bits_to_str(bits.bits_from_int(5, 4)) == "0101"
    with pytest.raises(ValueError):
        bits.bits_from_int(16, 4)


def reference_bits_to_int(seq) -> int:
    value = 0
    for b in seq:
        value = (value << 1) | int(b)
    return value


def test_bits_to_int_matches_per_bit_definition():
    rng = np.random.default_rng(64)
    for width in range(65):
        for seq in (rng.integers(0, 2, size=width, dtype=np.uint8), np.ones(width, np.uint8)):
            assert bits.bits_to_int(seq) == reference_bits_to_int(seq), width
            assert bits.bits_to_int(seq.tolist()) == reference_bits_to_int(seq), width
            assert bits.bits_to_int(seq[1:]) == reference_bits_to_int(seq[1:]), width  # offset view


def test_bytes_round_trip():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
    assert bits.bits_to_bytes(bits.bits_from_bytes(data)) == data


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        bits.as_bits([0, 1, 2])
