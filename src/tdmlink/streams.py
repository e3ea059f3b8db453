"""Streaming serializers and deserializers for the symbol-level simulator.

Transmitters hold per-channel frame queues and emit line symbols on demand,
filling idle slots with zeros. Receivers consume arbitrary chunks of line
symbols, keep their synchronization state across calls, and emit decoded
frames together with diagnostic counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import timebase
from .bits import BitArray, as_bits
from .messages import (
    CHANNEL_A_FRAME_BITS,
    CHANNEL_B_FRAME_BITS,
    CHANNEL_C_REQUEST_BITS,
    FRAGMENT_HEAD_BITS,
    MessageFormatError,
    decode_channel_a_down,
    decode_channel_a_up,
    decode_channel_b,
    decode_channel_c_request,
    fragment_frame_bits,
)
from .wire import (
    DOWNSTREAM_SCHEDULE,
    Descrambler,
    Scrambler,
    bit_slip_sync,
    downstream_rx,
    downstream_tx,
    manchester_violations,
    training_pattern,
    upstream_rx,
    upstream_tx,
)

__all__ = [
    "BitQueue",
    "FrameScanner",
    "DownstreamTransmitter",
    "DownstreamReceiver",
    "UpstreamTransmitter",
    "UpstreamReceiver",
]


class BitQueue:
    """FIFO of bit arrays drained bit by bit; zero-filled when empty.

    Whole frames are enqueued atomically, so a frame's bits are contiguous
    on its channel; idle fill only ever appears between frames.
    """

    def __init__(self):
        self._chunks: deque[BitArray] = deque()
        self._offset = 0
        self.pending_bits = 0

    def push(self, bits: BitArray):
        bits = as_bits(bits)
        if len(bits):
            self._chunks.append(bits)
            self.pending_bits += len(bits)

    def pull(self, n: int) -> BitArray:
        out = np.zeros(n, dtype=np.uint8)
        pos = 0
        while pos < n and self._chunks:
            head = self._chunks[0]
            take = min(n - pos, len(head) - self._offset)
            out[pos : pos + take] = head[self._offset : self._offset + take]
            pos += take
            self._offset += take
            self.pending_bits -= take
            if self._offset == len(head):
                self._chunks.popleft()
                self._offset = 0
        return out


class FrameScanner:
    """Extract frames that open with a start bit (1) from one channel's bit
    stream; the zeros of an idle channel are skipped.

    A fixed-length frame is `head_bits` long. With `length` given, the
    first `head_bits` bits are a header and `length(head)` is the whole
    frame's length, or None for a header that opens no frame of the format;
    such a start bit is counted in `faults` and scanning resumes after it.
    """

    def __init__(self, head_bits: int, length=None):
        self.head_bits = head_bits
        self.length = length
        self.faults = 0
        self._buf = np.empty(0, dtype=np.uint8)
        self._base = 0  # global channel-bit index of _buf[0]

    def feed(self, bits: BitArray) -> list[tuple[BitArray, int]]:
        """Returns (frame, global index of the frame's last bit) pairs."""
        self._buf = np.concatenate([self._buf, as_bits(bits)])
        out = []
        pos = 0
        while True:
            ones = np.flatnonzero(self._buf[pos:])
            if len(ones) == 0:
                pos = len(self._buf)
                break
            start = pos + int(ones[0])
            n = self.head_bits
            if start + n > len(self._buf):
                pos = start
                break
            if self.length is not None:
                n = self.length(self._buf[start : start + n])
                if n is None:
                    self.faults += 1
                    pos = start + 1
                    continue
                if start + n > len(self._buf):
                    pos = start
                    break
            out.append((self._buf[start : start + n], self._base + start + n - 1))
            pos = start + n
        self._buf = self._buf[pos:]
        self._base += pos
        return out


def _decode_frames(scanner: FrameScanner, bits: BitArray, decode, errors: dict, channel: str) -> list:
    """Scan whole frames out of one channel's bits and decode each. Returns
    (message, index of the frame's last bit) pairs; a frame that fails its
    parity check, or whose fields its message type forbids, gives None and
    is counted in `errors[channel]`."""
    out = []
    for frame, end_index in scanner.feed(bits):
        try:
            out.append((decode(frame), end_index))
        except MessageFormatError:
            errors[channel] += 1
            out.append((None, end_index))
    return out


# ---------------------------------------------------------------------------
# Downstream: back-end transmitter, front-end receiver


class DownstreamTransmitter:
    """Continuous fanout transmitter; produces 8 line symbols per TDM cycle."""

    def __init__(self):
        self.queues = {"A": BitQueue(), "B": BitQueue(), "C": BitQueue()}
        self.cycles_produced = 0

    def enqueue(self, channel: str, frame_bits: BitArray) -> int:
        """Queue a frame; returns the channel-bit index of its first bit.

        Production consumes exactly slots-per-cycle bits per cycle (idle
        fill included), so the frame starts right after the backlog.
        """
        q = self.queues[channel]
        per_cycle = len(DOWNSTREAM_SCHEDULE.slots_of(channel))
        start = per_cycle * self.cycles_produced + q.pending_bits
        q.push(frame_bits)
        return start

    def produce_cycles(self, cycles: int) -> BitArray:
        a = self.queues["A"].pull(2 * cycles)
        b = self.queues["B"].pull(cycles)
        c = self.queues["C"].pull(cycles)
        self.cycles_produced += cycles
        return downstream_tx(a, b, c)


@dataclass
class DownRxEvents:
    a: list = field(default_factory=list)  # (ChannelAMessageDown | None, arrival_tick)
    b: list = field(default_factory=list)  # ChannelBTransaction | None
    c: list = field(default_factory=list)  # ChannelCRequest | None


class DownstreamReceiver:
    """Front-end side: bit-slip lock on the idle pattern, then Manchester
    decode, channel delineation and frame extraction."""

    def __init__(self, lock_threshold: int = 4):
        self.lock_threshold = lock_threshold
        self.locked = False
        self.sync = None
        self._pending = np.empty(0, dtype=np.uint8)
        self._consumed = 0  # symbols consumed before _pending[0]
        self._aligned_base_tick = None
        self.scanners = {
            "A": FrameScanner(CHANNEL_A_FRAME_BITS),
            "B": FrameScanner(CHANNEL_B_FRAME_BITS),
            "C": FrameScanner(CHANNEL_C_REQUEST_BITS),
        }
        self.coding_violations = 0
        self.parity_errors = {"A": 0, "B": 0, "C": 0}

    def a_bit_arrival_tick(self, index: int) -> int:
        return self._aligned_base_tick + timebase.down_a_bit_end_tick(index)

    def feed(self, symbols: BitArray) -> DownRxEvents:
        events = DownRxEvents()
        self._pending = np.concatenate([self._pending, as_bits(symbols)])
        if not self.locked:
            state = bit_slip_sync(self._pending, self.lock_threshold)
            if not state.locked:
                # Bound the search buffer; keep enough context to lock later.
                keep = 16 * self.lock_threshold
                if len(self._pending) > keep:
                    drop = len(self._pending) - keep
                    self._pending = self._pending[drop:]
                    self._consumed += drop
                return events
            self.locked = True
            self.sync = state
            self._aligned_base_tick = timebase.TICKS_PER_DOWN_SYMBOL * (
                self._consumed + state.aligned_index
            )
            self._consumed += state.aligned_index
            self._pending = self._pending[state.aligned_index :]
        usable = len(self._pending) - len(self._pending) % 8
        if usable == 0:
            return events
        chunk = self._pending[:usable]
        self._pending = self._pending[usable:]
        self._consumed += usable
        self.coding_violations += len(manchester_violations(chunk))
        a_bits, b_bits, c_bits = downstream_rx(chunk)
        scan, errors = self.scanners, self.parity_errors
        a = _decode_frames(scan["A"], a_bits, decode_channel_a_down, errors, "A")
        b = _decode_frames(scan["B"], b_bits, decode_channel_b, errors, "B")
        c = _decode_frames(scan["C"], c_bits, decode_channel_c_request, errors, "C")
        events.a = [(msg, self.a_bit_arrival_tick(end)) for msg, end in a]
        events.b = [msg for msg, _ in b]
        events.c = [msg for msg, _ in c]
        return events


# ---------------------------------------------------------------------------
# Upstream: front-end transmitter, back-end receiver


class UpstreamTransmitter:
    """Per-card return-link transmitter: training pattern after reset, then
    scrambled interleaved virtual channels."""

    def __init__(self, training_bits: int = 1000):
        self.training_bits = training_bits
        self.reset()

    def reset(self):
        self._training_left = self.training_bits
        self._train_phase = 0
        self.scrambler = Scrambler(0)
        self.queues = {"A": BitQueue(), "B": BitQueue(), "C": BitQueue()}
        self._out = np.empty(0, dtype=np.uint8)

    def enqueue(self, channel: str, frame_bits: BitArray):
        self.queues[channel].push(frame_bits)

    @property
    def idle(self) -> bool:
        return (
            self._training_left == 0
            and len(self._out) == 0
            and all(q.pending_bits == 0 for q in self.queues.values())
        )

    def produce(self, nbits: int) -> BitArray:
        while len(self._out) < nbits:
            if self._training_left > 0:
                take = min(self._training_left, nbits - len(self._out))
                pat = training_pattern(take + self._train_phase)[self._train_phase :]
                self._train_phase = (self._train_phase + take) % 2
                self._training_left -= take
                self._out = np.concatenate([self._out, pat])
                continue
            cycles = max(1, -(-(nbits - len(self._out)) // 4))
            a = self.queues["A"].pull(cycles)
            b = self.queues["B"].pull(cycles)
            c = self.queues["C"].pull(2 * cycles)
            line = upstream_tx(a, b, c, self.scrambler)
            self._out = np.concatenate([self._out, line])
        out = self._out[:nbits]
        self._out = self._out[nbits:]
        return out


@dataclass
class UpRxEvents:
    a: list = field(default_factory=list)  # ChannelAMessageUp | None
    b: list = field(default_factory=list)  # ChannelBTransaction | None
    packets: list = field(default_factory=list)  # raw fragment packet bytes


class UpstreamReceiver:
    """Back-end side of one return link: consume the training sequence, then
    descramble and delineate channels by slot counting."""

    def __init__(self, training_bits: int = 1000):
        self.training_bits = training_bits
        self.reset()

    def reset(self):
        self._training_left = self.training_bits
        self.descrambler = Descrambler(0)
        self._pending = np.empty(0, dtype=np.uint8)
        self.a_scanner = FrameScanner(CHANNEL_A_FRAME_BITS)
        self.b_scanner = FrameScanner(CHANNEL_B_FRAME_BITS)
        self.c_scanner = FrameScanner(FRAGMENT_HEAD_BITS, fragment_frame_bits)
        self.parity_errors = {"A": 0, "B": 0}
        self.training_errors = 0
        self._train_phase = 0

    @property
    def trained(self) -> bool:
        """True once the whole training sequence since the last reset has
        been consumed."""
        return self._training_left == 0

    def feed(self, bits: BitArray) -> UpRxEvents:
        events = UpRxEvents()
        bits = as_bits(bits)
        if self._training_left > 0:
            take = min(self._training_left, len(bits))
            expect = training_pattern(take + self._train_phase)[self._train_phase :]
            self.training_errors += int(np.count_nonzero(bits[:take] != expect))
            self._train_phase = (self._train_phase + take) % 2
            self._training_left -= take
            bits = bits[take:]
            if len(bits) == 0:
                return events
        self._pending = np.concatenate([self._pending, bits])
        usable = len(self._pending) - len(self._pending) % 4
        if usable == 0:
            return events
        chunk = self._pending[:usable]
        self._pending = self._pending[usable:]
        a_bits, b_bits, c_bits = upstream_rx(chunk, self.descrambler)
        a = _decode_frames(self.a_scanner, a_bits, decode_channel_a_up, self.parity_errors, "A")
        b = _decode_frames(self.b_scanner, b_bits, decode_channel_b, self.parity_errors, "B")
        events.a = [msg for msg, _ in a]
        events.b = [msg for msg, _ in b]
        events.packets = [np.packbits(frame[1:]).tobytes() for frame, _ in self.c_scanner.feed(c_bits)]
        return events
