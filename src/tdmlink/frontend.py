"""Emulated front-end card.

A card owns 64 KB of register space on a 16-bit-address / 32-bit-data
virtual bus, a hardwired 53-bit serial number, an event queue, and the
partner side of the back-end's request-token protocol: one fragment packet
is returned for every SEND_NEXT_PACKET request that targets the card.
Counter payloads are made a block of consecutive channels at a time, and
each packet's payload is sliced from its block.

Register map (word addresses):
    0x0000  serial number bits 52..32 (read only)
    0x0001  serial number bits 31..0  (read only)
    0x0010  assigned port ID, 0xFFFFFFFF until bootstrap (read only)
    0x0020  lost-trigger counter (read only)
    0x0030  bootstrap mapping window: serial high latch (write)
    0x0031  bootstrap mapping window: serial low latch (write)
    0x0032  bootstrap mapping window: port ID (write; captures the ID when
            the latched serial matches the card's own, and clears both
            latches)
    0x0100-0x01FF  scratch / configuration RAM (read/write)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import timebase
from .messages import (
    EVENT_HEADER_WORDS,
    MAX_PAYLOAD_WORDS,
    OPCODE_SEND_NEXT_PACKET,
    ChannelAMessageDown,
    ChannelAMessageUp,
    ChannelBTransaction,
    ChannelCRequest,
    data_start,
    event_header_bytes,
    fragment_bytes,
)
from .wire import PrbsGenerator

__all__ = [
    "REG_SERIAL_HI",
    "REG_SERIAL_LO",
    "REG_ASSIGNED_ID",
    "REG_LOST_TRIGGERS",
    "REG_MAP_SERIAL_HI",
    "REG_MAP_SERIAL_LO",
    "REG_MAP_PORT",
    "SCRATCH_BASE",
    "SCRATCH_WORDS",
    "ID_UNASSIGNED",
    "EventGeneratorConfig",
    "check_card_settings",
    "generator_bytes",
    "CardOutput",
    "FrontEndCard",
]

REG_SERIAL_HI = 0x0000
REG_SERIAL_LO = 0x0001
REG_ASSIGNED_ID = 0x0010
REG_LOST_TRIGGERS = 0x0020
REG_MAP_SERIAL_HI = 0x0030
REG_MAP_SERIAL_LO = 0x0031
REG_MAP_PORT = 0x0032
SCRATCH_BASE = 0x0100
SCRATCH_WORDS = 256

ID_UNASSIGNED = 0xFFFFFFFF

SERIAL_BITS = 53


# Every 16-bit value stored big-endian and viewed as native uint16: a slice
# holds word indices and one element a stamp, both stored the same way, so
# one XOR of the two gives wire bytes.
_WORD_BE = np.arange(1 << 16, dtype=">u2").view(np.uint16)
_WORD_BE.flags.writeable = False

# A card makes counter payloads a block of consecutive channels at a time:
# at most this many channels, halved while the block would exceed this
# many bytes, so one block holds at most 8 KiB.
_FILL_BLOCK_CHANNELS = 16
_FILL_BLOCK_BYTES = 8192


def _counter_block(port_id: int, first: int, count: int, nwords: int) -> bytes:
    """Counter payloads of channels first..first+count-1, one after another:
    see `generator_bytes`. The channels must lie in one aligned run of 512,
    where the stamps step by 4, so they are one strided slice."""
    stamp = ((port_id << 11) ^ (first << 2)) & 0xFFFF
    return (_WORD_BE[stamp : stamp + 4 * count : 4, None] ^ _WORD_BE[:nwords]).tobytes()


def generator_bytes(port_id: int, channel: int, nwords: int) -> bytes:
    """Big-endian counter fill words 0..nwords-1 (nwords <= MAX_PAYLOAD_WORDS):
    word k is ((port_id << 11) ^ (channel << 2) ^ k) & 0xFFFF, stamped with
    card and channel so the DAQ client can verify provenance bit-exactly."""
    return _counter_block(port_id, channel, 1, nwords)


@dataclass
class EventGeneratorConfig:
    channels_per_event: int = 256  # one fragment packet per channel
    words_per_channel: int = 512
    fill_pattern: str = "counter"  # counter | prbs | constant
    constant_word: int = 0xA5A5

    def __post_init__(self):
        if self.channels_per_event < 1:
            raise ValueError("channels_per_event must be >= 1")
        if self.words_per_channel < 0 or self.words_per_channel % 2:
            raise ValueError("words_per_channel must be even and >= 0")
        if EVENT_HEADER_WORDS + self.words_per_channel > MAX_PAYLOAD_WORDS:
            raise ValueError("channel payload does not fit one packet")
        if self.fill_pattern not in ("counter", "prbs", "constant"):
            raise ValueError(f"unknown fill pattern {self.fill_pattern!r}")
        if not 0 <= self.constant_word <= 0xFFFF:
            raise ValueError("constant_word must fit 16 bits")


def check_card_settings(buffering_depth: int, clear_busy_on: str):
    """Reject a buffering depth or busy-clearing mode no card can run with."""
    if buffering_depth < 1:
        raise ValueError("buffering_depth must be >= 1")
    if clear_busy_on not in ("buffered", "readout"):
        raise ValueError("clear_busy_on must be 'buffered' or 'readout'")


@dataclass
class _QueuedEvent:
    event_number: int
    timestamp: int
    next_channel: int = 0


@dataclass
class CardOutput:
    """What a card wants to transmit as a result of one input."""

    a_replies: list[ChannelAMessageUp] = field(default_factory=list)
    packets: list[bytes] = field(default_factory=list)


class FrontEndCard:
    """State machine of one front-end card, advanced by the simulator."""

    def __init__(
        self,
        serial_number: int,
        generator: EventGeneratorConfig | None = None,
        buffering_depth: int = 4,
        clear_busy_on: str = "buffered",  # buffered | readout
    ):
        if not 0 <= serial_number < (1 << SERIAL_BITS):
            raise ValueError("serial number must fit 53 bits")
        check_card_settings(buffering_depth, clear_busy_on)
        self.serial_number = serial_number
        self.generator = generator or EventGeneratorConfig()
        self.buffering_depth = buffering_depth
        self.clear_busy_on = clear_busy_on

        self.assigned_id: int | None = None
        self.busy = False
        self.event_counter = 0
        self.timestamp_clear_tick = 0
        self.lost_triggers = 0
        self.request_errors = 0
        self.pending_requests = 0  # request tokens held while no data exists
        self.event_queue: deque[_QueuedEvent] = deque()
        self._scratch = {}
        self._map_serial_hi = 0
        self._map_serial_lo = 0
        # Fault hooks: (event_number, channel) entries whose packet payload
        # is corrupted after CRC computation; event_number offset for SOE
        # consistency fault injection.
        self.corrupt_fragments: set[tuple[int, int]] = set()
        self.event_number_offset = 0
        # The last counter block made: its channels first..stop-1, the
        # (port, words) it was made for, and its bytes.
        self._fill = (0, 0, None, b"")

    # -- channel A ----------------------------------------------------------

    def on_channel_a(self, msg: ChannelAMessageDown, arrival_tick: int) -> CardOutput:
        out = CardOutput()
        if msg.clear_event_counter:
            self.event_counter = 0
        if msg.clear_timestamp:
            self.timestamp_clear_tick = arrival_tick
        if msg.sampling_stop:
            if len(self.event_queue) >= self.buffering_depth:
                self.lost_triggers += 1
            else:
                timestamp = timebase.timestamp_at(arrival_tick - self.timestamp_clear_tick)
                number = (self.event_counter + self.event_number_offset) & 0xFFFFFFFF
                self.event_queue.append(_QueuedEvent(number, timestamp))
                self.event_counter += 1
                self.busy = True
                out.a_replies.append(ChannelAMessageUp(set_busy=True))
                if self.clear_busy_on == "buffered":
                    self.busy = False
                    out.a_replies.append(ChannelAMessageUp(clear_busy=True))
                self._drain_pending_requests(out)
        return out

    # -- channel B ----------------------------------------------------------

    def _addressed(self, txn: ChannelBTransaction) -> bool:
        if txn.broadcast:
            return True
        return self.assigned_id is not None and txn.target_id == self.assigned_id

    def _read_register(self, addr: int) -> tuple[int, bool]:
        if addr == REG_SERIAL_HI:
            return (self.serial_number >> 32) & 0x1FFFFF, True
        if addr == REG_SERIAL_LO:
            return self.serial_number & 0xFFFFFFFF, True
        if addr == REG_ASSIGNED_ID:
            return ID_UNASSIGNED if self.assigned_id is None else self.assigned_id, True
        if addr == REG_LOST_TRIGGERS:
            return self.lost_triggers & 0xFFFFFFFF, True
        if addr == REG_MAP_SERIAL_HI:
            return self._map_serial_hi, True
        if addr == REG_MAP_SERIAL_LO:
            return self._map_serial_lo, True
        if addr == REG_MAP_PORT:
            return 0, True
        if SCRATCH_BASE <= addr < SCRATCH_BASE + SCRATCH_WORDS:
            return self._scratch.get(addr, 0), True
        return 0, False

    def _write_register(self, addr: int, data: int, byte_enable: int) -> bool:
        def merge(old: int) -> int:
            value = old
            for byte in range(4):
                if byte_enable & (1 << byte):
                    mask = 0xFF << (8 * byte)
                    value = (value & ~mask) | (data & mask)
            return value & 0xFFFFFFFF

        if addr == REG_MAP_SERIAL_HI:
            self._map_serial_hi = merge(self._map_serial_hi)
            return True
        if addr == REG_MAP_SERIAL_LO:
            self._map_serial_lo = merge(self._map_serial_lo)
            return True
        if addr == REG_MAP_PORT:
            latched = ((self._map_serial_hi & 0x1FFFFF) << 32) | self._map_serial_lo
            if latched == self.serial_number:
                self.assigned_id = merge(0) & 0x1F
                self._map_serial_hi = self._map_serial_lo = 0
            return True
        if SCRATCH_BASE <= addr < SCRATCH_BASE + SCRATCH_WORDS:
            self._scratch[addr] = merge(self._scratch.get(addr, 0))
            return True
        return False  # read-only or unmapped

    def on_channel_b(self, txn: ChannelBTransaction) -> ChannelBTransaction | None:
        """Execute a register transaction; every request addressed to this
        card is echoed by exactly one response on the card's own link. A
        request that is not exactly one of read and write is counted in
        `request_errors` and answered with a bus error. The answer is the
        request with its data and response flags replaced; a write that
        succeeds is answered with the request itself when no response flag
        is set on it, as it equals that answer field by field."""
        if not self._addressed(txn):
            return None
        if txn.read == txn.write:
            self.request_errors += 1
            data, ok = 0, False
        elif txn.read:
            data, ok = self._read_register(txn.address)
        else:
            data, ok = txn.data, self._write_register(txn.address, txn.data, txn.byte_enable)
            if ok and not (txn.bus_error or txn.parity_error):
                return txn
        return replace(txn, data=data, parity_error=False, bus_error=not ok)

    def on_channel_b_parity_error(self) -> ChannelBTransaction:
        """A corrupted request must not act; indicate PE in the response."""
        return ChannelBTransaction(read=True, parity_error=True)

    # -- channel C ----------------------------------------------------------

    def on_channel_c(self, req: ChannelCRequest) -> CardOutput:
        out = CardOutput()
        if self.assigned_id is None or not (req.target_mask >> self.assigned_id) & 1:
            return out
        if req.opcode != OPCODE_SEND_NEXT_PACKET:
            self.request_errors += 1
            return out
        packet = self._take_packet(out)
        if packet is None:
            self.pending_requests += 1
        else:
            out.packets.append(packet)
        return out

    def _drain_pending_requests(self, out: CardOutput):
        """Answer request tokens held while no data existed; replies the
        packets cause (CLEAR_BUSY in readout mode) go to `out` too."""
        while self.pending_requests:
            packet = self._take_packet(out)
            if packet is None:
                break
            self.pending_requests -= 1
            out.packets.append(packet)

    def _take_packet(self, out: CardOutput) -> bytes | None:
        if not self.event_queue:
            return None
        ev = self.event_queue[0]
        data = self._fragment_bytes(ev, ev.next_channel)
        ev.next_channel += 1
        if ev.next_channel == self.generator.channels_per_event:
            self.event_queue.popleft()
            if self.clear_busy_on == "readout":
                self.busy = bool(self.event_queue)
                out.a_replies.append(ChannelAMessageUp(clear_busy=True))
        return data

    # -- event payload generation -------------------------------------------

    def _channel_bytes(self, event_number: int, channel: int) -> bytes:
        """Big-endian payload bytes of one channel, event header excluded."""
        cfg = self.generator
        n = cfg.words_per_channel
        if cfg.fill_pattern == "counter":
            # Sliced from the block of channels that holds `channel`, made
            # when the card keeps no such block for this port and length. A
            # block starts at a multiple of its channel count, a power of two.
            port = self.assigned_id if self.assigned_id is not None else 0
            first, stop, made_for, block = self._fill
            if not (first <= channel < stop and made_for == (port, n)):
                count = _FILL_BLOCK_CHANNELS
                while count > 1 and 2 * n * count > _FILL_BLOCK_BYTES:
                    count //= 2
                first = channel - channel % count
                block = _counter_block(port, first, count, n)
                self._fill = first, first + count, (port, n), block
            start = 2 * n * (channel - first)
            return block[start : start + 2 * n]
        if cfg.fill_pattern == "constant":
            return cfg.constant_word.to_bytes(2, "big") * n
        if n == 0:
            return b""
        seed = ((self.serial_number ^ (event_number * 2654435761) ^ channel) % 32766) + 1
        return PrbsGenerator(15, seed=seed).stream_words(16 * n).view(np.uint8)[: 2 * n].tobytes()

    def _fragment_bytes(self, ev: _QueuedEvent, channel: int) -> bytes:
        eoe = channel == self.generator.channels_per_event - 1
        payload = self._channel_bytes(ev.event_number, channel)
        if channel:
            data = fragment_bytes(False, eoe, payload)
        else:
            header = event_header_bytes(ev.event_number, ev.timestamp)
            data = fragment_bytes(True, eoe, header + payload)
        if self.corrupt_fragments and (ev.event_number, channel) in self.corrupt_fragments:
            corrupted = bytearray(data)
            corrupted[data_start(data)] ^= 0x01
            data = bytes(corrupted)
        return data
