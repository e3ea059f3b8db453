"""Bit-vector helpers.

All serial traffic in this package is carried as numpy uint8 arrays of 0/1
in transmission order (index 0 is transmitted first). Hex packing is
MSB-first: bit 0 of the stream is the most significant bit of the first
hex digit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BitArray",
    "as_bits",
    "bits_from_str",
    "bits_to_str",
    "bits_from_hex",
    "bits_to_hex",
    "bits_from_int",
    "bits_to_int",
    "bits_from_bytes",
    "bits_to_bytes",
    "random_bits",
]

BitArray = np.ndarray


def as_bits(seq) -> BitArray:
    """Coerce a sequence of 0/1 values to a uint8 bit array of the same shape.

    This is the check on bits that enter the package from outside; arrays
    the package builds itself are passed on without it.
    """
    a = np.asarray(seq, dtype=np.uint8)
    if a.size and (a.max(initial=0) > 1):
        raise ValueError("bit array elements must be 0 or 1")
    return a


def bits_from_str(s: str) -> BitArray:
    """Parse a string like '01100101' (whitespace ignored)."""
    s = "".join(s.split())
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def bits_to_str(bits: BitArray) -> str:
    return "".join("1" if b else "0" for b in bits)


def bits_from_int(value: int, width: int) -> BitArray:
    """MSB-first bits of `value` in a field of `width` bits."""
    if value < 0 or value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    return as_bits([(value >> (width - 1 - i)) & 1 for i in range(width)])


def bits_to_int(bits: BitArray) -> int:
    """The unsigned integer whose MSB-first bits are `bits`."""
    bits = np.asarray(bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def bits_from_bytes(data: bytes) -> BitArray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: BitArray) -> bytes:
    if len(bits) % 8:
        raise ValueError("bit count must be a multiple of 8")
    return np.packbits(as_bits(bits)).tobytes()


def bits_from_hex(s: str) -> BitArray:
    """Hex digits to bits, MSB-first, 4 bits per digit."""
    s = "".join(s.split())
    nibbles = [int(c, 16) for c in s]
    out = np.empty(4 * len(nibbles), dtype=np.uint8)
    for i, n in enumerate(nibbles):
        out[4 * i : 4 * i + 4] = [(n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1]
    return out


def bits_to_hex(bits: BitArray) -> str:
    if len(bits) % 4:
        raise ValueError("bit count must be a multiple of 4")
    digits = []
    for i in range(0, len(bits), 4):
        n = (int(bits[i]) << 3) | (int(bits[i + 1]) << 2) | (int(bits[i + 2]) << 1) | int(bits[i + 3])
        digits.append(f"{n:x}")
    return "".join(digits)


def random_bits(rng: np.random.Generator, n: int) -> BitArray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)
