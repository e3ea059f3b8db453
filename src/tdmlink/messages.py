"""Virtual-channel message formats and the event-fragment packet.

Framing on channels A, B and C-down is a start bit (1), a fixed payload,
and one even-parity bit; an idle channel carries zeros, so no start bit
means no message. Frame lengths are exactly 10 (A), 64 (B) and 42
(C request) bits. Each message class lists its fields once, in its
`LAYOUT`, and is its own codec: a message's `encode()` gives its frame
and the class's `decode(bits)` reads one back, with one range check for
every layout. docs/wire-format.md section 2 documents the same bit tables.

Event fragments ride upstream on channel C as 16-bit words (MSB first):
a header word with SOE/EOE flags and the byte size, an even number of
payload words, and CRC-32 over header plus payload. On the link a packet
is framed by one start bit; its header word alone fixes its length
(`fragment_length`). Every hop handles a packet as its wire bytes:
`fragment_bytes` makes them and `check_fragment` applies the length rule
and the CRC check (`fragment_crc_ok`, which a hop that has already
applied the length rule calls alone). `event_header_bytes` writes the
SOE event header, and `soe_fields` and `data_start` read it. The
`FragmentPacket` codec delegates to them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bits import BitArray, as_bits, bits_from_bytes, bits_to_int

__all__ = [
    "CHANNEL_A_FRAME_BITS",
    "CHANNEL_B_FRAME_BITS",
    "CHANNEL_C_REQUEST_BITS",
    "OPCODE_SEND_NEXT_PACKET",
    "MAX_PACKET_BYTES",
    "EVENT_HEADER_WORDS",
    "ParityError",
    "MessageFormatError",
    "ChannelAMessageDown",
    "ChannelAMessageUp",
    "ChannelBTransaction",
    "ChannelCRequest",
    "FragmentPacket",
    "fragment_length",
    "check_fragment",
    "fragment_crc_ok",
    "fragment_bytes",
    "event_header_bytes",
    "soe_fields",
    "data_start",
    "frame_fragment",
    "FRAGMENT_HEAD_BITS",
    "fragment_frame_bits",
    "crc32",
]

OPCODE_SEND_NEXT_PACKET = 0x01

# Largest fragment packet on the wire: header word + payload + CRC-32.
# The word count must stay even, hence 1020 words (2046 wire bytes).
MAX_PACKET_BYTES = 2048
MAX_PAYLOAD_WORDS = ((MAX_PACKET_BYTES - 2 - 4) // 2) & ~1

# SOE packets carry event number (2 words), timestamp (3 words) and one
# reserved pad word at the start of the payload, keeping the count even.
EVENT_HEADER_WORDS = 6


class MessageFormatError(ValueError):
    """Frame violates its fixed layout."""


class ParityError(MessageFormatError):
    """Frame parity check failed; the receiver must not act on the frame."""


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 (reflected, init and final XOR all-ones)."""
    return zlib.crc32(data) & 0xFFFFFFFF


class _Frame:
    """A fixed-length frame: start bit, the `LAYOUT` fields, even parity.

    `LAYOUT` lists (field name, width) pairs in wire order, each field
    MSB-first; a None name is a spare field, sent as zeros and ignored on
    receipt. Width-1 fields are flags and decode as bool. Every field must
    fit its width; a subclass adds only the rules that tie fields together.
    """

    LAYOUT: ClassVar[tuple] = ()
    PAYLOAD_BITS: ClassVar[int] = 0
    FRAME_BITS: ClassVar[int] = 2

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.PAYLOAD_BITS = sum(width for _, width in cls.LAYOUT)
        cls.FRAME_BITS = cls.PAYLOAD_BITS + 2

    def __post_init__(self):
        for name, width in self.LAYOUT:
            if name is not None and not 0 <= getattr(self, name) < 1 << width:
                raise MessageFormatError(f"{name} outside {width} bits")

    def encode(self) -> BitArray:
        """The frame's bits in transmission order."""
        payload = 0
        for name, width in self.LAYOUT:
            payload = payload << width | (int(getattr(self, name)) if name else 0)
        nbits = self.FRAME_BITS
        frame = (1 << self.PAYLOAD_BITS | payload) << 1 | payload.bit_count() & 1
        nbytes = -(-nbits // 8)
        data = (frame << (8 * nbytes - nbits)).to_bytes(nbytes, "big")
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)

    @classmethod
    def decode(cls, bits):
        """Message of one frame; raises ParityError when the parity bit
        disagrees and MessageFormatError for a malformed frame."""
        bits = as_bits(bits)
        nbits = cls.FRAME_BITS
        if len(bits) != nbits:
            raise MessageFormatError(f"frame is {len(bits)} bits, expected {nbits}")
        if bits[0] != 1:
            raise MessageFormatError("missing start bit")
        frame = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-nbits % 8)
        payload = frame >> 1 & ((1 << cls.PAYLOAD_BITS) - 1)
        if payload.bit_count() & 1 != frame & 1:
            raise ParityError("frame parity mismatch")
        fields = {}
        for name, width in reversed(cls.LAYOUT):
            if name is not None:
                value = payload & ((1 << width) - 1)
                fields[name] = bool(value) if width == 1 else value
            payload >>= width
        return cls(**fields)


# ---------------------------------------------------------------------------
# Channel A: synchronous trigger traffic


@dataclass(frozen=True)
class ChannelAMessageDown(_Frame):
    sampling_stop: bool = False  # the trigger
    event_type: int = 0
    sampling_start: bool = False
    clear_event_counter: bool = False
    clear_timestamp: bool = False
    sync_sampling_clock: bool = False

    LAYOUT = (
        ("sampling_stop", 1), ("event_type", 2), ("sampling_start", 1),
        ("clear_event_counter", 1), ("clear_timestamp", 1),
        ("sync_sampling_clock", 1), (None, 1),
    )

    def __post_init__(self):
        super().__post_init__()
        if self.sampling_stop and self.sampling_start:
            raise MessageFormatError("sampling_stop and sampling_start both set")


@dataclass(frozen=True)
class ChannelAMessageUp(_Frame):
    set_busy: bool = False
    clear_busy: bool = False
    trigger_primitives: int = 0

    LAYOUT = (("set_busy", 1), ("clear_busy", 1), ("trigger_primitives", 4), (None, 2))

    def __post_init__(self):
        super().__post_init__()
        if self.set_busy and self.clear_busy:
            raise MessageFormatError("set_busy and clear_busy both set")


# ---------------------------------------------------------------------------
# Channel B: register transactions


@dataclass(frozen=True)
class ChannelBTransaction(_Frame):
    broadcast: bool = False
    target_id: int = 0  # port number, ignored when broadcast
    read: bool = False
    write: bool = False
    byte_enable: int = 0xF  # byte 0 is the least significant
    address: int = 0
    data: int = 0
    parity_error: bool = False  # response only
    bus_error: bool = False  # response only

    LAYOUT = (
        ("broadcast", 1), ("target_id", 5), ("read", 1), ("write", 1),
        ("byte_enable", 4), ("parity_error", 1), ("bus_error", 1),
        ("address", 16), ("data", 32),
    )


# ---------------------------------------------------------------------------
# Channel C: data requests (downstream)


@dataclass(frozen=True)
class ChannelCRequest(_Frame):
    opcode: int = OPCODE_SEND_NEXT_PACKET
    target_mask: int = 0  # bit i set: front-end with ID i executes

    LAYOUT = (("opcode", 8), ("target_mask", 32))

    def encode(self) -> BitArray:
        if self.target_mask == 0:
            raise MessageFormatError("request addresses no front-end")
        return super().encode()


# Frame lengths on the line, start and parity bits included; a channel A
# frame is as long in either direction.
CHANNEL_A_FRAME_BITS = ChannelAMessageDown.FRAME_BITS
CHANNEL_B_FRAME_BITS = ChannelBTransaction.FRAME_BITS
CHANNEL_C_REQUEST_BITS = ChannelCRequest.FRAME_BITS


# ---------------------------------------------------------------------------
# Event fragment packets (upstream channel C)


def fragment_length(header_word: int) -> int | None:
    """Total wire bytes (header, payload, CRC) of the packet that opens with
    `header_word`, or None when no packet of this format has that header:
    a size that is not a whole number of word pairs, an SOE packet too
    short for its event header, or a packet over MAX_PACKET_BYTES."""
    size = header_word & 0x3FFF  # bit 15 SOE, bit 14 EOE, bits 13..0 size
    if size % 4 or size > 2 * MAX_PAYLOAD_WORDS:
        return None
    if header_word & 0x8000 and size < 2 * EVENT_HEADER_WORDS:
        return None
    return 2 + size + 4


def check_fragment(data: bytes) -> bool:
    """Whether the CRC of the fragment packet `data` holds. Raises
    MessageFormatError when `data` breaks the length rule: shorter than
    header plus CRC, a header that opens no packet (`fragment_length`), or
    a length other than the one its header announces."""
    n = len(data)
    if n < 6:
        raise MessageFormatError("packet shorter than header plus CRC")
    header = data[0] << 8 | data[1]
    total = fragment_length(header)
    if total is None:
        raise MessageFormatError(f"header word {header:#06x} opens no fragment packet")
    if n != total:
        raise MessageFormatError(f"packet length {n} does not match its header's {total}")
    return fragment_crc_ok(data)


def fragment_crc_ok(data: bytes) -> bool:
    """Whether the CRC-32 that ends fragment packet `data` matches its header
    and payload. `data` must already follow the length rule (`check_fragment`)."""
    return int.from_bytes(data[-4:], "big") == zlib.crc32(data[:-4])


def fragment_bytes(soe: bool, eoe: bool, payload: bytes) -> bytes:
    """Wire bytes of the packet with the given flags and big-endian payload
    bytes: header word, payload, CRC-32 over both."""
    size = len(payload)
    header = (int(soe) << 15) | (int(eoe) << 14) | size
    if size > 2 * MAX_PAYLOAD_WORDS or fragment_length(header) is None:
        raise MessageFormatError(
            f"{'SOE ' if soe else ''}packet of {size} payload bytes breaks the length rule"
        )
    body = header.to_bytes(2, "big") + payload
    return body + zlib.crc32(body).to_bytes(4, "big")


def event_header_bytes(event_number: int, timestamp: int) -> bytes:
    """Leading payload bytes of a SOE packet: 32-bit event number,
    48-bit timestamp, one reserved word."""
    if not 0 <= event_number <= 0xFFFFFFFF:
        raise MessageFormatError("event number outside 32 bits")
    if not 0 <= timestamp <= 0xFFFFFFFFFFFF:
        raise MessageFormatError("timestamp outside 48 bits")
    return struct.pack(">IHIH", event_number, timestamp >> 32, timestamp & 0xFFFFFFFF, 0)


def soe_fields(data: bytes) -> tuple[int, int] | None:
    """(event number, timestamp) of SOE packet `data`; None if not SOE."""
    if not data[0] & 0x80:
        return None
    return int.from_bytes(data[2:6], "big"), int.from_bytes(data[6:12], "big")


def data_start(data: bytes) -> int:
    """Offset of the channel data in packet `data`, past any event header."""
    return 2 + 2 * EVENT_HEADER_WORDS if data[0] & 0x80 else 2


def frame_fragment(data: bytes) -> BitArray:
    """Channel C link framing: one start bit, then the packet bytes."""
    return np.concatenate([as_bits([1]), bits_from_bytes(data)])


# A framed packet opens with its start bit and header word.
FRAGMENT_HEAD_BITS = 1 + 16


def fragment_frame_bits(head: BitArray) -> int | None:
    """Length in bits of the framed packet whose first FRAGMENT_HEAD_BITS
    bits are `head`, or None as for `fragment_length`."""
    total = fragment_length(bits_to_int(head[1:]))
    return None if total is None else 1 + 8 * total


class FragmentPacket:
    """One fragment packet held as its wire bytes: header word, payload
    words and CRC-32, all big-endian. Fields are read from fixed offsets
    and payload words are decoded only when asked for. `crc_ok` records
    whether the CRC matched the bytes when they were parsed; packets made
    by `build` always match."""

    __slots__ = ("data", "crc_ok")

    def __init__(self, data: bytes, crc_ok: bool):
        self.data = data
        self.crc_ok = crc_ok

    @property
    def soe(self) -> bool:
        return bool(self.data[0] & 0x80)

    @property
    def eoe(self) -> bool:
        return bool(self.data[0] & 0x40)

    @property
    def size_bytes(self) -> int:
        return len(self.data) - 6

    @property
    def crc(self) -> int:
        return int.from_bytes(self.data[-4:], "big")

    @property
    def payload_words(self) -> tuple[int, ...]:
        return struct.unpack(f">{self.size_bytes // 2}H", self.data[2:-4])

    @property
    def data_bytes(self) -> bytes:
        """Payload bytes without the SOE event-header prefix."""
        return self.data[data_start(self.data) : -4]

    @property
    def data_words(self) -> tuple[int, ...]:
        """Payload without the SOE event-header prefix."""
        data = self.data_bytes
        return struct.unpack(f">{len(data) // 2}H", data)

    def serialize(self) -> bytes:
        return self.data

    @classmethod
    def build(cls, soe: bool, eoe: bool, payload_words) -> "FragmentPacket":
        """Packet with the given flags and payload. `payload_words` is a
        sequence of 16-bit words, or the same words as big-endian bytes."""
        if isinstance(payload_words, bytes):
            payload = payload_words
        else:
            try:
                words = np.asarray(payload_words, dtype=np.int64)
            except OverflowError:
                raise MessageFormatError("payload word outside 16 bits") from None
            if len(words) and (words.min() < 0 or words.max() > 0xFFFF):
                raise MessageFormatError("payload word outside 16 bits")
            payload = words.astype(">u2").tobytes()
        return cls(fragment_bytes(soe, eoe, payload), True)

    @property
    def event_number(self) -> int:
        if not self.soe:
            raise MessageFormatError("event number only present in SOE packets")
        return soe_fields(self.data)[0]

    @property
    def timestamp(self) -> int:
        if not self.soe:
            raise MessageFormatError("timestamp only present in SOE packets")
        return soe_fields(self.data)[1]

    @classmethod
    def deserialize(cls, data: bytes) -> "FragmentPacket":
        """Parse wire bytes; a CRC mismatch yields crc_ok=False, the receiver
        is expected to delete such packets (no retransmission). Raises
        MessageFormatError as `check_fragment` does."""
        data = bytes(data)
        return cls(data, check_fragment(data))
