"""Virtual-channel message formats and the event-fragment packet.

Framing on channels A, B and C-down is a start bit (1), a fixed payload,
and one even-parity bit; an idle channel carries zeros, so no start bit
means no message. Frame lengths are exactly 10 (A), 64 (B) and 42
(C request) bits. The normative field order is documented in
docs/wire-format.md and mirrored by the golden vectors.

Event fragments ride upstream on channel C as 16-bit words (MSB first):
a header word with SOE/EOE flags and the byte size, an even number of
payload words, and CRC-32 over header plus payload. On the link a packet
is framed by one start bit; its header word alone fixes its length
(`fragment_length`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .bits import BitArray, as_bits, bits_from_bytes, bits_from_int, bits_to_int

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
    "frame_fragment",
    "FRAGMENT_HEAD_BITS",
    "fragment_frame_bits",
    "crc32",
    "encode_channel_a",
    "decode_channel_a_down",
    "decode_channel_a_up",
    "encode_channel_b",
    "decode_channel_b",
    "encode_channel_c_request",
    "decode_channel_c_request",
]

CHANNEL_A_FRAME_BITS = 10
CHANNEL_B_FRAME_BITS = 64
CHANNEL_C_REQUEST_BITS = 42

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

    def __init__(self, payload_bits=None):
        super().__init__("frame parity mismatch")
        self.payload_bits = payload_bits


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 (reflected, init and final XOR all-ones)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def _even_parity(payload: BitArray) -> int:
    return int(np.bitwise_xor.reduce(payload))


def _frame(payload: BitArray) -> BitArray:
    return np.concatenate([as_bits([1]), payload, as_bits([_even_parity(payload)])])


def _unframe(bits, expected_len: int) -> BitArray:
    """Payload of a start-bit/payload/parity frame; raises ParityError when
    the parity bit disagrees."""
    bits = as_bits(bits)
    if len(bits) != expected_len:
        raise MessageFormatError(f"frame is {len(bits)} bits, expected {expected_len}")
    if bits[0] != 1:
        raise MessageFormatError("missing start bit")
    payload = bits[1:-1]
    if int(bits[-1]) != _even_parity(payload):
        raise ParityError(payload)
    return payload


# ---------------------------------------------------------------------------
# Channel A: synchronous trigger traffic


@dataclass(frozen=True)
class ChannelAMessageDown:
    sampling_stop: bool = False  # the trigger
    event_type: int = 0  # 0..3
    sampling_start: bool = False
    clear_event_counter: bool = False
    clear_timestamp: bool = False
    sync_sampling_clock: bool = False

    def __post_init__(self):
        if not 0 <= self.event_type <= 3:
            raise MessageFormatError("event_type outside 0..3")
        if self.sampling_stop and self.sampling_start:
            raise MessageFormatError("sampling_stop and sampling_start both set")


@dataclass(frozen=True)
class ChannelAMessageUp:
    set_busy: bool = False
    clear_busy: bool = False
    trigger_primitives: int = 0  # 4 bits

    def __post_init__(self):
        if not 0 <= self.trigger_primitives <= 0xF:
            raise MessageFormatError("trigger_primitives outside 4 bits")
        if self.set_busy and self.clear_busy:
            raise MessageFormatError("set_busy and clear_busy both set")


def encode_channel_a(msg) -> BitArray:
    """10-bit frame for either direction of channel A."""
    if isinstance(msg, ChannelAMessageDown):
        payload = np.concatenate(
            [
                as_bits([int(msg.sampling_stop)]),
                bits_from_int(msg.event_type, 2),
                as_bits(
                    [
                        int(msg.sampling_start),
                        int(msg.clear_event_counter),
                        int(msg.clear_timestamp),
                        int(msg.sync_sampling_clock),
                        0,  # spare
                    ]
                ),
            ]
        )
    elif isinstance(msg, ChannelAMessageUp):
        payload = np.concatenate(
            [
                as_bits([int(msg.set_busy), int(msg.clear_busy)]),
                bits_from_int(msg.trigger_primitives, 4),
                as_bits([0, 0]),  # spare
            ]
        )
    else:
        raise TypeError(f"not a channel A message: {type(msg).__name__}")
    return _frame(payload)


def decode_channel_a_down(bits) -> ChannelAMessageDown:
    payload = _unframe(bits, CHANNEL_A_FRAME_BITS)
    return ChannelAMessageDown(
        sampling_stop=bool(payload[0]),
        event_type=bits_to_int(payload[1:3]),
        sampling_start=bool(payload[3]),
        clear_event_counter=bool(payload[4]),
        clear_timestamp=bool(payload[5]),
        sync_sampling_clock=bool(payload[6]),
    )


def decode_channel_a_up(bits) -> ChannelAMessageUp:
    payload = _unframe(bits, CHANNEL_A_FRAME_BITS)
    return ChannelAMessageUp(
        set_busy=bool(payload[0]),
        clear_busy=bool(payload[1]),
        trigger_primitives=bits_to_int(payload[2:6]),
    )


# ---------------------------------------------------------------------------
# Channel B: register transactions


@dataclass(frozen=True)
class ChannelBTransaction:
    broadcast: bool = False
    target_id: int = 0  # 5-bit port number, ignored when broadcast
    read: bool = False
    write: bool = False
    byte_enable: int = 0xF  # byte 0 is the least significant
    address: int = 0
    data: int = 0
    parity_error: bool = False  # response only
    bus_error: bool = False  # response only

    def __post_init__(self):
        if not 0 <= self.target_id <= 31:
            raise MessageFormatError("target_id outside 0..31")
        if not 0 <= self.byte_enable <= 0xF:
            raise MessageFormatError("byte_enable outside 4 bits")
        if not 0 <= self.address <= 0xFFFF:
            raise MessageFormatError("address outside 16 bits")
        if not 0 <= self.data <= 0xFFFFFFFF:
            raise MessageFormatError("data outside 32 bits")


def encode_channel_b(txn: ChannelBTransaction) -> BitArray:
    """64-bit frame: ST + BC TID RD WR BE PE FE ADDR DATA + PA."""
    payload = np.concatenate(
        [
            as_bits([int(txn.broadcast)]),
            bits_from_int(txn.target_id, 5),
            as_bits([int(txn.read), int(txn.write)]),
            bits_from_int(txn.byte_enable, 4),
            as_bits([int(txn.parity_error), int(txn.bus_error)]),
            bits_from_int(txn.address, 16),
            bits_from_int(txn.data, 32),
        ]
    )
    return _frame(payload)


def decode_channel_b(bits) -> ChannelBTransaction:
    payload = _unframe(bits, CHANNEL_B_FRAME_BITS)
    return ChannelBTransaction(
        broadcast=bool(payload[0]),
        target_id=bits_to_int(payload[1:6]),
        read=bool(payload[6]),
        write=bool(payload[7]),
        byte_enable=bits_to_int(payload[8:12]),
        parity_error=bool(payload[12]),
        bus_error=bool(payload[13]),
        address=bits_to_int(payload[14:30]),
        data=bits_to_int(payload[30:62]),
    )


# ---------------------------------------------------------------------------
# Channel C: data requests (downstream)


@dataclass(frozen=True)
class ChannelCRequest:
    opcode: int = OPCODE_SEND_NEXT_PACKET
    target_mask: int = 0  # bit i set: front-end with ID i executes

    def __post_init__(self):
        if not 0 <= self.opcode <= 0xFF:
            raise MessageFormatError("opcode outside 8 bits")
        if not 0 <= self.target_mask <= 0xFFFFFFFF:
            raise MessageFormatError("target_mask outside 32 bits")


def encode_channel_c_request(req: ChannelCRequest) -> BitArray:
    if req.target_mask == 0:
        raise MessageFormatError("request addresses no front-end")
    payload = np.concatenate(
        [bits_from_int(req.opcode, 8), bits_from_int(req.target_mask, 32)]
    )
    return _frame(payload)


def decode_channel_c_request(bits) -> ChannelCRequest:
    payload = _unframe(bits, CHANNEL_C_REQUEST_BITS)
    return ChannelCRequest(
        opcode=bits_to_int(payload[0:8]),
        target_mask=bits_to_int(payload[8:40]),
    )


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
        return self.data[2 + 2 * EVENT_HEADER_WORDS if self.soe else 2 : -4]

    @property
    def data_words(self) -> tuple[int, ...]:
        """Payload without the SOE event-header prefix."""
        data = self.data_bytes
        return struct.unpack(f">{len(data) // 2}H", data)

    def serialize(self) -> bytes:
        return self.data

    @classmethod
    def build(cls, soe: bool, eoe: bool, payload_words) -> "FragmentPacket":
        try:
            words = np.asarray(payload_words, dtype=np.int64)
        except OverflowError:
            raise MessageFormatError("payload word outside 16 bits") from None
        n = len(words)
        header = (int(soe) << 15) | (int(eoe) << 14) | (2 * n)
        if n > MAX_PAYLOAD_WORDS or fragment_length(header) is None:
            raise MessageFormatError(
                f"{'SOE ' if soe else ''}packet of {n} payload words breaks the length rule"
            )
        if n and (words.min() < 0 or words.max() > 0xFFFF):
            raise MessageFormatError("payload word outside 16 bits")
        body = header.to_bytes(2, "big") + words.astype(">u2").tobytes()
        return cls(body + crc32(body).to_bytes(4, "big"), True)

    @classmethod
    def event_header_payload(cls, event_number: int, timestamp: int) -> tuple[int, ...]:
        """Leading payload words of a SOE packet: 32-bit event number,
        48-bit timestamp, one reserved word."""
        if not 0 <= event_number <= 0xFFFFFFFF:
            raise MessageFormatError("event number outside 32 bits")
        if not 0 <= timestamp <= 0xFFFFFFFFFFFF:
            raise MessageFormatError("timestamp outside 48 bits")
        return (
            (event_number >> 16) & 0xFFFF,
            event_number & 0xFFFF,
            (timestamp >> 32) & 0xFFFF,
            (timestamp >> 16) & 0xFFFF,
            timestamp & 0xFFFF,
            0,
        )

    @property
    def event_number(self) -> int:
        if not self.soe:
            raise MessageFormatError("event number only present in SOE packets")
        return int.from_bytes(self.data[2:6], "big")

    @property
    def timestamp(self) -> int:
        if not self.soe:
            raise MessageFormatError("timestamp only present in SOE packets")
        return int.from_bytes(self.data[6:12], "big")

    @classmethod
    def deserialize(cls, data: bytes) -> "FragmentPacket":
        """Parse wire bytes; a CRC mismatch yields crc_ok=False, the receiver
        is expected to delete such packets (no retransmission)."""
        if len(data) < 6:
            raise MessageFormatError("packet shorter than header plus CRC")
        header = int.from_bytes(data[0:2], "big")
        total = fragment_length(header)
        if total is None:
            raise MessageFormatError(f"header word {header:#06x} opens no fragment packet")
        if len(data) != total:
            raise MessageFormatError(
                f"packet length {len(data)} does not match its header's {total}"
            )
        data = bytes(data)
        return cls(data, int.from_bytes(data[-4:], "big") == crc32(data[:-4]))
