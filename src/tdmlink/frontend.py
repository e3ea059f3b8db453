"""Emulated front-end card.

A card owns 64 KB of register space on a 16-bit-address / 32-bit-data
virtual bus, a hardwired 53-bit serial number, an event queue, and the
partner side of the back-end's request-token protocol: one fragment packet
is returned for every SEND_NEXT_PACKET request that targets the card.

A request is answered with the card's next ready packet. The packets of
the head event are made ahead into a ready queue: with counter fill, a
block of consecutive channels at a time (`fragment_run_bytes` over the
block's payloads, one `generator_bytes` call), so most requests only pop a
packet; the SOE packet of channel 0 and every packet of the prbs and
constant fills are made one at a time (`fragment_bytes`). A block holds at
most 16 channels and 8 KiB of payload, so the ready queue never holds
more, and it never crosses a run of 512 channels.

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
from dataclasses import dataclass, replace

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
    fragment_run_bytes,
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

# A channel B write's 4-bit byte enable as the mask of the data bits it
# writes; byte 0 is the least significant.
_BYTE_MASKS = tuple(
    sum(0xFF << 8 * byte for byte in range(4) if enable >> byte & 1) for enable in range(16)
)

SERIAL_BITS = 53


# Every 16-bit value stored big-endian and viewed as native uint16: a slice
# holds word indices and one element a stamp, both stored the same way, so
# one XOR of the two gives wire bytes.
_WORD_BE = np.arange(1 << 16, dtype=">u2").view(np.uint16)
_WORD_BE.flags.writeable = False

# A card makes counter packets a block of consecutive channels at a time: at
# most this many channels, halved while their payloads would exceed this
# many bytes, so one block holds at most 8 KiB of payload. A block starts at
# a multiple of its channel count, a power of two, so it never crosses a
# run of 512 channels.
_FILL_BLOCK_CHANNELS = 16
_FILL_BLOCK_BYTES = 8192


def generator_bytes(port_id: int, channel: int, nwords: int, count: int = 1) -> bytes:
    """Big-endian counter fill words 0..nwords-1 (nwords <= MAX_PAYLOAD_WORDS)
    of channels channel..channel+count-1, one channel after another: word k
    is ((port_id << 11) ^ (channel << 2) ^ k) & 0xFFFF, stamped with card and
    channel so the DAQ client can verify provenance bit-exactly. The
    channels must lie in one aligned run of 512, where the stamps step by 4,
    so they are one strided slice."""
    stamp = ((port_id << 11) ^ (channel << 2)) & 0xFFFF
    if count == 1:
        return (_WORD_BE[:nwords] ^ _WORD_BE[stamp]).tobytes()
    return (_WORD_BE[stamp : stamp + 4 * count : 4, None] ^ _WORD_BE[:nwords]).tobytes()


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
    next_channel: int = 0  # the next channel to make a packet of


class CardOutput:
    """What a card wants to transmit as a result of one input."""

    __slots__ = ("a_replies", "packets")

    def __init__(self):
        self.a_replies: list[ChannelAMessageUp] = []
        self.packets: list[bytes] = []


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
        # Packets of the head event made and not yet sent, in channel order.
        self._ready: deque[bytes] = deque()

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
        # The enabled bytes come from `data`, the others stay as they were.
        mask = _BYTE_MASKS[byte_enable]
        data &= mask
        keep = ~mask
        if addr == REG_MAP_SERIAL_HI:
            self._map_serial_hi = self._map_serial_hi & keep | data
            return True
        if addr == REG_MAP_SERIAL_LO:
            self._map_serial_lo = self._map_serial_lo & keep | data
            return True
        if addr == REG_MAP_PORT:
            latched = ((self._map_serial_hi & 0x1FFFFF) << 32) | self._map_serial_lo
            if latched == self.serial_number:
                self.assigned_id = data & 0x1F
                self._map_serial_hi = self._map_serial_lo = 0
            return True
        if SCRATCH_BASE <= addr < SCRATCH_BASE + SCRATCH_WORDS:
            self._scratch[addr] = self._scratch.get(addr, 0) & keep | data
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
        ready = self._ready
        if len(ready) > 1:  # a packet stays ready, so the event goes on
            out.packets.append(ready.popleft())
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
        ready = self._ready
        if not ready:
            if not self.event_queue:
                return None
            self._make_packets(self.event_queue[0])
        data = ready.popleft()
        if not ready and self.event_queue[0].next_channel == self.generator.channels_per_event:
            self.event_queue.popleft()
            if self.clear_busy_on == "readout":
                self.busy = bool(self.event_queue)
                out.a_replies.append(ChannelAMessageUp(clear_busy=True))
        return data

    # -- event payload generation -------------------------------------------

    def _make_packets(self, ev: _QueuedEvent):
        """Make the next packets of head event `ev` into the ready queue: with
        counter fill, the channels from `ev.next_channel` to the end of their
        block; else, and for the SOE packet of channel 0, one packet."""
        cfg = self.generator
        first = ev.next_channel
        end = cfg.channels_per_event
        n = cfg.words_per_channel
        counter = cfg.fill_pattern == "counter"
        port = self.assigned_id if self.assigned_id is not None else 0
        if counter and first:
            count = _FILL_BLOCK_CHANNELS
            while count > 1 and 2 * n * count > _FILL_BLOCK_BYTES:
                count //= 2
            stop = min(first - first % count + count, end)
            payload = generator_bytes(port, first, n, stop - first)
            packets = fragment_run_bytes(False, stop == end, payload, stop - first)
        else:
            stop = first + 1
            payload = generator_bytes(port, first, n) if counter else self._channel_bytes(ev.event_number, first)
            if not first:
                payload = event_header_bytes(ev.event_number, ev.timestamp) + payload
            packets = [fragment_bytes(not first, stop == end, payload)]
        if self.corrupt_fragments:
            for channel in range(first, stop):
                if (ev.event_number, channel) in self.corrupt_fragments:
                    data = packets[channel - first]
                    corrupted = bytearray(data)
                    corrupted[data_start(data)] ^= 0x01
                    packets[channel - first] = bytes(corrupted)
        self._ready.extend(packets)
        ev.next_channel = stop

    def _channel_bytes(self, event_number: int, channel: int) -> bytes:
        """Big-endian payload bytes of one channel of the prbs or constant
        fill, event header excluded."""
        cfg = self.generator
        n = cfg.words_per_channel
        if cfg.fill_pattern == "constant":
            return cfg.constant_word.to_bytes(2, "big") * n
        if n == 0:
            return b""
        seed = ((self.serial_number ^ (event_number * 2654435761) ^ channel) % 32766) + 1
        return PrbsGenerator(15, seed=seed).stream_words(16 * n).view(np.uint8)[: 2 * n].tobytes()
