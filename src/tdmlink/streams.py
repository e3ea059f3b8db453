"""Streaming serializers and deserializers for the symbol-level simulator.

Links are bit lanes in both directions: one uint32 word per line symbol or
bit, bit r of word t being link r's symbol or bit t, so one pass of the
`wire` kernels over the words codes every link at once. The fanout
transmitter sends one stream, which the symbol engine puts in every lane.
Queues and receiver state stay per link (row): a channel is packed into
lanes only when some link has bits queued on it, and unpacked only for the
links whose lane holds a 1 or that hold a partial frame; lanes that carry
the same bits share one scan. Training, resets and idle steps act on lanes
through masks. A stage handles its rows as one batch: a queue cut joins
every busy row's head into one array, and when every row is in the same
state the rows are indexed by one slice, so the chain sees views of whole
arrays, not gathered copies. Transmitters hold per-row channel frame queues
and emit line bits on demand, filling idle slots with zeros. Receivers
consume chunks of lane words and emit decoded frames tagged with their row,
with per-row diagnostic counters. Each value a receiver keeps per row is an
array indexed by row, held bits as bytes in an object array, and a class
that resets rows does so through one tuple of those arrays.
Frames are scanned per frame, not per bit: a byte search finds each start
bit, and a frame that ends in a later chunk is held with the length it still
owes. Return links move whole 4-bit cycles: their training is a whole number
of cycles, and every chunk produced or fed must be one too. The fanout takes
chunks of any length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import timebase
from .bits import BitArray
from .messages import (
    CHANNEL_A_FRAME_BITS,
    CHANNEL_B_FRAME_BITS,
    CHANNEL_C_REQUEST_BITS,
    FRAGMENT_HEAD_BITS,
    ChannelAMessageDown,
    ChannelAMessageUp,
    ChannelBTransaction,
    ChannelCRequest,
    MessageFormatError,
    fragment_frame_bits,
)
from .wire import (
    DEFAULT_LOCK_THRESHOLD,
    DOWNSTREAM_IDLE_SYMBOLS,
    DOWNSTREAM_SCHEDULE,
    SCRAMBLER_ORDER,
    UPSTREAM_SCHEDULE,
    WireFormatError,
    _downstream_channels,
    _upstream_channels,
    _upstream_line,
    bit_slip_sync,
    downstream_tx,
    idle_scrambler_register,
    training_pattern,
)

__all__ = [
    "BitQueue",
    "FrameScanner",
    "DownstreamTransmitter",
    "DownstreamReceiver",
    "UpstreamTransmitter",
    "UpstreamReceiver",
    "TRAINING_BITS",
]

# Training pattern bits a return link sends after a reset: 250 whole cycles.
TRAINING_BITS = 1000

# Each channel's bits per TDM cycle, and a return-link cycle's bits.
_DOWN_SLOTS = {ch: len(DOWNSTREAM_SCHEDULE.slots_of(ch)) for ch in "ABC"}
_UP_SLOTS = {ch: len(UPSTREAM_SCHEDULE.slots_of(ch)) for ch in "ABC"}
_UP_CYCLE_BITS = len(UPSTREAM_SCHEDULE.slot_sequence)

# Bit r of a lane word is link r's line symbol or bit: 5-bit card IDs and
# the 32-bit channel C mask allow at most 32 links.
_LANE_BITS = np.uint32(1) << np.arange(32, dtype=np.uint32)


def _pack(bits: BitArray, lanes: np.ndarray) -> np.ndarray:
    """Lane words holding row i of `bits` in lane lanes[i]. Each word is a
    sum of distinct powers of two, so bit r is lane r whatever the
    machine's byte order."""
    return _LANE_BITS[lanes] @ bits


def _unpack(words: np.ndarray, lanes: np.ndarray) -> BitArray:
    """The bits of each of `lanes` in `words`, one row each."""
    return (words & _LANE_BITS[lanes, None]).astype(bool).view(np.uint8)


def _row_order(*event_lists):
    """Sort lists of (row, ...) tuples by row, keeping each row's own order."""
    for events in event_lists:
        events.sort(key=lambda e: e[0])


def _whole_upstream_cycles(nbits: int):
    if nbits % _UP_CYCLE_BITS:
        raise WireFormatError(f"{nbits} return-link bits end in a partial cycle of {nbits % _UP_CYCLE_BITS}")


def _row_groups(values: np.ndarray):
    """The rows of each distinct value, as (value, rows) by value; the rows
    are a slice of all of them when every row holds the same value."""
    first = values[0]
    if (values == first).all():
        return [(int(first), slice(None))]
    return [(value, np.flatnonzero(values == value)) for value in sorted(set(values.tolist()))]


class BitQueue:
    """Per-row FIFOs of bits; a row reads zeros past the bits queued on it.

    Each row's queued bits are one byte string, one byte per bit: a push
    appends to it and a pull cuts from its front. Whole frames are enqueued
    atomically, so a frame's bits are contiguous on its channel; idle fill
    only ever appears between frames. The fanout pulls its one row; the
    return links cut whole 4-bit cycles' worth of each channel from every
    busy row at once (`_cut`).
    """

    def __init__(self, rows: int):
        self._bits = np.empty(rows, dtype=object)
        self._bits[:] = [bytearray() for _ in range(rows)]
        self.pending_bits = np.zeros(rows, dtype=np.int64)

    def push(self, row: int, bits):
        """Queue `bits` on `row`: a bit array, or its bytes, one byte per bit."""
        queued = self._bits[row]
        queued += bits if isinstance(bits, bytes) else np.asarray(bits, dtype=np.uint8).tobytes()
        self.pending_bits[row] = len(queued)

    def clear(self, row: int):
        self._bits[row].clear()
        self.pending_bits[row] = 0

    def pull(self, row: int, n: int) -> BitArray:
        """The next n bits of `row`."""
        queued = self._bits[row]
        head = queued[:n].ljust(n, b"\0")
        del queued[:n]
        self.pending_bits[row] = len(queued)
        return np.frombuffer(head, np.uint8)

    def _cut(self, n: int, rows) -> tuple[np.ndarray, BitArray]:
        """Cut the next n bits of each busy row of `rows`: returns the busy
        rows' places in `rows` and their heads as one (busy, n) array."""
        pending = self.pending_bits[rows]
        busy = np.flatnonzero(pending)
        heads = []
        for queued in self._bits[rows][busy]:
            heads.append(queued[:n].ljust(n, b"\0"))
            del queued[:n]
        self.pending_bits[rows] = np.maximum(pending - n, 0)
        return busy, np.frombuffer(b"".join(heads), np.uint8).reshape(len(busy), n)


class FrameScanner:
    """Extract frames that open with a start bit (1) from each row's channel
    bit stream; the zeros of an idle channel are skipped.

    A fixed-length frame is `head_bits` long. With `length` given, the
    first `head_bits` bits are a header and `length(head)` is the whole
    frame's length, or None for a header that opens no frame of the format;
    such a start bit is counted in the row's `faults` and scanning resumes
    at the next bit.

    The scan works per frame, not per bit. A row's bits are held as bytes,
    one byte per bit, and `bytes.find` jumps from the end of one frame to
    the next start bit, so only the 1 bits that open frames are visited. A
    row whose bits end inside a frame holds that partial frame with the
    length it still owes, once its header has been read: the header is read
    once however many chunks the frame spans.
    """

    def __init__(self, rows: int, head_bits: int, length=None):
        self.head_bits = head_bits
        self.length = length
        self.faults = np.zeros(rows, dtype=np.int64)
        self._fed = np.zeros(rows, dtype=np.int64)  # channel bits fed
        self._owed = np.zeros(rows, dtype=np.int64)  # the held frame's whole length once known, else 0
        self._held = np.zeros(rows, dtype=bool)  # whether the row holds a partial frame
        self._frames = np.zeros(rows, dtype=object)  # that frame from its start bit, one byte per bit
        self._row_state = (self.faults, self._fed, self._owed, self._held, self._frames)  # each starts at 0

    def reset(self, row: int):
        for state in self._row_state:
            state[row] = 0

    def holds_frame(self) -> bool:
        """Whether any row holds a partial frame."""
        return bool(self._held.any())

    def skip(self, n: int, rows=None):
        """Advance each of `rows` (default: every row), none holding a
        partial frame, over n zeros: they open no frame."""
        self._fed[slice(None) if rows is None else rows] += n

    def feed(self, bits: BitArray, rows=None) -> list[tuple[int, BitArray, int]]:
        """Scan the next channel bits of each of `rows` (an index array or a
        slice; default: every row), one row of `bits` each. Returns (row,
        frame, channel-bit index of the frame's last bit) in row order; each
        frame is a read-only view of its own bytes. Only a row whose new
        bits hold a 1 or that holds a partial frame is scanned."""
        rows = slice(None) if rows is None else rows
        n = bits.shape[1]
        self._fed[rows] += n
        raw, holding = bits.tobytes(), self._held[rows]
        if raw.find(1) < 0 and not holding.any():
            return []
        busy = np.flatnonzero(bits.any(axis=1) | holding).tolist()
        holding = holding.tolist()  # before any row's flag changes
        ids = range(len(self.faults))[rows] if isinstance(rows, slice) else rows.tolist()
        fed = self._fed[rows].tolist()
        head, length = self.head_bits, self.length
        fixed = head if length is None else 0  # a frame's length before its header is read
        out = []
        for i in busy:
            row = ids[i]
            data = raw[i * n : (i + 1) * n]
            if holding[i]:
                data = self._frames[row] + data
                start, size = 0, int(self._owed[row])
            else:
                start, size = data.find(1), fixed
            origin, stop = fed[i] - len(data), len(data)  # channel-bit index of data[0]
            while start >= 0:
                if not size:
                    if start + head > stop:
                        break
                    size = length(np.frombuffer(data, np.uint8, head, start))
                    if size is None:
                        self.faults[row] += 1
                        start, size = data.find(1, start + 1), fixed
                        continue
                if start + size > stop:
                    break
                frame = np.frombuffer(data[start : start + size], np.uint8)
                out.append((row, frame, origin + start + size - 1))
                start, size = data.find(1, start + size), fixed
            if start >= 0:
                self._held[row], self._frames[row], self._owed[row] = True, data[start:], size
            elif holding[i]:
                self._held[row], self._frames[row] = False, 0
        return out

    def _feed_alike(self, bits: BitArray, rows: np.ndarray) -> list[tuple[int, BitArray, int]]:
        """`feed` of the same channel bits to each of `rows` (an index
        array), none holding a partial frame. Only the first row is
        scanned; every other row takes its frames, new faults and partial
        frame, with the frames' indices counted from its own bits fed."""
        first, rest = rows[0], rows[1:]
        faults, fed = self.faults[first], self._fed[rows]
        frames = self.feed(bits[None], rows[:1])
        self._fed[rest] += len(bits)
        self.faults[rest] += self.faults[first] - faults
        for state in (self._owed, self._held, self._frames):
            state[rest] = state[first]
        return [(row, frame, end + shift) for row, shift in zip(rows.tolist(), (fed - fed[0]).tolist())
                for _, frame, end in frames]


def _scan_lanes(scanner: FrameScanner, words: np.ndarray, rows) -> list:
    """`scanner.feed` on the channel lane words of `rows` (an index array or
    a slice of every row; row r is lane r). Only the rows whose lane holds
    a 1 or that hold a partial frame are unpacked and scanned; the others
    advance over their zeros."""
    held = scanner._held[rows]
    if not np.count_nonzero(words) and not np.count_nonzero(held):
        scanner.skip(len(words), rows)
        return []
    ones = int(np.bitwise_or.reduce(words))
    lanes = np.arange(len(scanner._held))[rows]
    scan = (ones >> lanes & 1).astype(bool) | held
    if np.count_nonzero(scan) < len(scan):
        scanner.skip(len(words), lanes[~scan])
        lanes = lanes[scan]
    if len(lanes) > 1 and not np.count_nonzero(held) and not np.count_nonzero((words != 0) & (words != ones)):
        # Every lane scanned carries the same bits, as when every card
        # answers a broadcast at once.
        return scanner._feed_alike(_unpack(words, lanes[:1])[0], lanes)
    return scanner.feed(_unpack(words, lanes), lanes)


def _decode_frames(frames: list, decode, errors: np.ndarray) -> list:
    """Decode each frame that a scanner's `feed` found, (row, frame, index
    of the frame's last bit). Returns (row, message, that index); a frame that
    fails its parity check, or whose fields its message type forbids, gives
    None and is counted in `errors[row]`. Rows that received the same frame
    (a fanout frame, or the same answer from several cards) share one
    decode; messages are immutable."""
    out = []
    decoded = {}
    for row, frame, end_index in frames:
        key = frame.base  # the frame's own bytes
        if key not in decoded:
            try:
                decoded[key] = decode(frame)
            except MessageFormatError:
                decoded[key] = None
        if decoded[key] is None:
            errors[row] += 1
        out.append((row, decoded[key], end_index))
    return out


class _Lanes:
    """Links carried as bit lanes: row r is lane r of the line words."""

    def __init__(self, rows: int):
        if not 1 <= rows <= len(_LANE_BITS):
            raise ValueError(f"{rows} links; a lane word holds 1 to {len(_LANE_BITS)}")
        self._lanes = np.arange(rows)
        self._ones = np.bitwise_or.reduce(_LANE_BITS[:rows])  # every row's lane

    def _lane_words(self, words) -> np.ndarray:
        """`words` checked as lane words of these links."""
        words = np.asarray(words)
        if words.dtype != np.uint32 or words.ndim != 1:
            raise WireFormatError(f"lane words must be a 1-D uint32 array, not {words.dtype} {words.shape}")
        if np.bitwise_or.reduce(words) & ~self._ones:
            raise WireFormatError(f"a lane word holds a bit past lane {len(self._lanes) - 1}")
        return words


# ---------------------------------------------------------------------------
# Downstream: back-end transmitter, front-end receivers


class DownstreamTransmitter:
    """Continuous fanout transmitter; produces 8 line symbols per TDM cycle,
    one stream that every card receives."""

    def __init__(self):
        self.queues = {"A": BitQueue(1), "B": BitQueue(1), "C": BitQueue(1)}
        self.cycles_produced = 0

    def enqueue(self, channel: str, frame_bits: BitArray) -> int:
        """Queue a frame; returns the channel-bit index of its first bit.

        Production consumes exactly slots-per-cycle bits per cycle (idle
        fill included), so the frame starts right after the backlog.
        """
        q = self.queues[channel]
        start = _DOWN_SLOTS[channel] * self.cycles_produced + int(q.pending_bits[0])
        q.push(0, frame_bits)
        return start

    def produce_cycles(self, cycles: int) -> BitArray:
        a, b, c = (self.queues[ch].pull(0, n * cycles) for ch, n in _DOWN_SLOTS.items())
        self.cycles_produced += cycles
        return downstream_tx(a, b, c)

    def skip_idle(self, cycles: int):
        """Advance over `cycles` cycles sent with every queue empty."""
        self.cycles_produced += cycles


@dataclass
class DownRxEvents:
    a: list = field(default_factory=list)  # (row, ChannelAMessageDown | None, arrival_tick)
    b: list = field(default_factory=list)  # (row, ChannelBTransaction | None)
    c: list = field(default_factory=list)  # (row, ChannelCRequest | None)


class DownstreamReceiver(_Lanes):
    """Front-end side, one row per card, fed as bit lanes: bit-slip lock on
    the idle pattern, then Manchester decode, channel delineation and frame
    extraction.

    Each row searches its own symbols for lock. A locked row decodes whole
    8-symbol cycles from its lock point on and leaves the fewer than 8
    symbols after them unread until the next chunk: the receiver keeps the
    last 8 words fed, and per row how many of them it has not read yet
    (negative while its lock point lies past the symbols fed). Rows whose
    unread symbols start at the same column decode as one group, in one
    pass over the lane words.
    """

    def __init__(self, rows: int):
        super().__init__(rows)
        self.locked = np.zeros(rows, dtype=bool)
        self.sync = np.full(rows, None, dtype=object)
        self._search = np.full(rows, b"", dtype=object)  # symbols kept while not locked, one byte each
        self._dropped = np.zeros(rows, dtype=np.int64)  # symbols dropped before _search[row][0]
        self._aligned_base_tick = np.zeros(rows, dtype=np.int64)
        self._carry = np.zeros(len(DOWNSTREAM_IDLE_SYMBOLS), dtype=np.uint32)  # the last words fed
        self._unread = np.zeros(rows, dtype=np.int64)
        self.scanners = {
            "A": FrameScanner(rows, CHANNEL_A_FRAME_BITS),
            "B": FrameScanner(rows, CHANNEL_B_FRAME_BITS),
            "C": FrameScanner(rows, CHANNEL_C_REQUEST_BITS),
        }
        self.coding_violations = np.zeros(rows, dtype=np.int64)
        self.parity_errors = {ch: np.zeros(rows, dtype=np.int64) for ch in "ABC"}

    def a_bit_arrival_tick(self, row: int, index: int) -> int:
        return int(self._aligned_base_tick[row]) + timebase.down_a_bit_end_tick(index)

    def feed(self, words) -> DownRxEvents:
        """Consume the next symbols of every row, as lane words: a 1-D
        uint32 array of any length, with no bit past the last row's lane.
        Bad input raises before anything is consumed or counted."""
        words = self._lane_words(words)
        cycle = len(self._carry)
        ext = np.concatenate([self._carry, words])
        owed = self._unread + len(words)  # per row, the symbols at the end of ext it has not decoded
        for row in np.flatnonzero(~self.locked).tolist():
            owed[row], rest = self._acquire(row, _unpack(words, self._lanes[row : row + 1])[0])
            if len(rest) > cycle + len(words):  # it locked on symbols older than the carry
                ext = np.concatenate([np.zeros(max(len(rest) - len(ext), 0), np.uint32), ext])
                ext[-len(rest) :] |= rest.astype(np.uint32) << np.uint32(row)
        self._carry = ext[-cycle:]
        events, groups = DownRxEvents(), _row_groups(len(ext) - owed)
        for start, rows in groups:
            if start + cycle <= len(ext):
                self._decode(rows, ext[start : len(ext) - (len(ext) - start) % cycle], events)
        self._unread = owed - np.maximum(owed, 0) // cycle * cycle
        if len(groups) > 1:
            _row_order(events.a, events.b, events.c)
        return events

    def skip_idle(self, cycles: int):
        """Advance every row over `cycles` whole idle cycles. Every row must be
        locked, hold no partial frame, and have last been fed idle cycles:
        idle cycles then decode to zeros on every channel, and whole cycles
        leave the carry and each row's unread count as they are."""
        for channel, scanner in self.scanners.items():
            scanner.skip(cycles * _DOWN_SLOTS[channel])

    def _acquire(self, row: int, symbols: BitArray) -> tuple[int, BitArray]:
        """Search one unlocked row for the idle pattern. Returns how many of
        its symbols kept lie past the lock point (0 while it finds no lock,
        negative while the lock point lies ahead), and those symbols."""
        pending = self._search[row] + symbols.tobytes()
        line = np.frombuffer(pending, np.uint8)
        state = bit_slip_sync(line)
        if not state.locked:
            # Bound the search buffer; keep enough context to lock later.
            keep = 2 * len(DOWNSTREAM_IDLE_SYMBOLS) * DEFAULT_LOCK_THRESHOLD
            self._dropped[row] += max(len(pending) - keep, 0)
            self._search[row] = pending[-keep:]
            return 0, line[:0]
        self.locked[row] = True
        self.sync[row] = state
        self._aligned_base_tick[row] = timebase.TICKS_PER_DOWN_SYMBOL * (
            self._dropped[row] + state.aligned_index
        )
        self._search[row] = b""
        return len(line) - state.aligned_index, line[state.aligned_index :]

    def _decode(self, rows, symbols: np.ndarray, events: DownRxEvents):
        """Decode the lane words `symbols`, whole cycles, for each of `rows`
        (an index array, or a slice of every row)."""
        lanes = self._lanes[rows]
        mask = self._ones if isinstance(rows, slice) else np.bitwise_or.reduce(_LANE_BITS[lanes])
        a, b, c, broken = _downstream_channels(symbols, mask)
        if np.count_nonzero(broken):
            self.coding_violations[lanes] += np.count_nonzero(_unpack(broken, lanes), axis=1)
        scan, errors = self.scanners, self.parity_errors
        for row, msg, end in _decode_frames(_scan_lanes(scan["A"], a, rows), ChannelAMessageDown.decode, errors["A"]):
            events.a.append((row, msg, self.a_bit_arrival_tick(row, end)))
        for row, msg, _ in _decode_frames(_scan_lanes(scan["B"], b, rows), ChannelBTransaction.decode, errors["B"]):
            events.b.append((row, msg))
        for row, msg, _ in _decode_frames(_scan_lanes(scan["C"], c, rows), ChannelCRequest.decode, errors["C"]):
            events.c.append((row, msg))


# ---------------------------------------------------------------------------
# Upstream: front-end transmitters, back-end receivers


class _LaneLinks(_Lanes):
    """What both ends of the return links keep per link: its scrambler
    register is lane r of 43 words, and it owes TRAINING_BITS of the
    training pattern after a reset."""

    def __init__(self, rows: int):
        super().__init__(rows)
        self._register = np.zeros(SCRAMBLER_ORDER, dtype=np.uint32)
        self._training_left = np.full(rows, TRAINING_BITS, dtype=np.int64)

    def reset(self, row: int):
        self._training_left[row] = TRAINING_BITS
        self._register &= ~_LANE_BITS[row]

    def skip_idle(self, nbits: int):
        """Advance every row, trained and with nothing queued, over nbits of
        idle cycles: only the scrambler registers change."""
        _whole_upstream_cycles(nbits)
        self._register = idle_scrambler_register(self._register, nbits, self._ones)

    def _train(self, nbits: int):
        """Count nbits off each row's training; returns the groups of rows
        that train for the same number of those bits, as (bits, rows, lane
        mask), rows a slice of all of them when every row does."""
        _whole_upstream_cycles(nbits)
        if not np.count_nonzero(self._training_left):
            return [(0, slice(None), self._ones)]
        training = np.minimum(self._training_left, nbits)
        self._training_left -= training
        return [(bits, rows, np.bitwise_or.reduce(_LANE_BITS[self._lanes[rows]]))
                for bits, rows in _row_groups(training)]

    def _keep_register(self, register: np.ndarray, mask: np.uint32):
        """Take the lanes of `mask` from `register`."""
        if mask == self._ones:
            self._register = register
        else:
            self._register ^= (self._register ^ register) & mask


class UpstreamTransmitter(_LaneLinks):
    """Return-link transmitters, one row per card, sent as bit lanes:
    TRAINING_BITS of the training pattern after reset, then scrambled
    interleaved channels."""

    def __init__(self, rows: int):
        super().__init__(rows)
        self.queues = {"A": BitQueue(rows), "B": BitQueue(rows), "C": BitQueue(rows)}

    def reset(self, row: int):
        super().reset(row)
        for q in self.queues.values():
            q.clear(row)

    def enqueue(self, row: int, channel: str, frame_bits):
        """Queue a frame on a row: a bit array, or its bytes, one byte per bit."""
        self.queues[channel].push(row, frame_bits)

    def produce(self, nbits: int) -> np.ndarray:
        """The next nbits line bits of every row, as nbits lane words; nbits
        must be whole cycles. Lanes past the last row stay 0."""
        out = None
        for sent, rows, mask in self._train(nbits):
            cycles = (nbits - sent) // _UP_CYCLE_BITS
            a, b, c = (self._pull_lanes(ch, n * cycles, rows) for ch, n in _UP_SLOTS.items())
            line, register = _upstream_line(a, b, c, self._register, mask)
            self._keep_register(register, mask)
            if not sent and isinstance(rows, slice):
                return line  # every row sends traffic only
            if out is None:
                out = np.zeros(nbits, dtype=np.uint32)
            out[:sent] |= training_pattern(sent) * mask
            out[sent:] |= line & mask
        return out

    def _pull_lanes(self, channel: str, n: int, rows) -> np.ndarray:
        """The next n bits of `channel` for each of `rows`, as lane words."""
        queue = self.queues[channel]
        if not np.count_nonzero(queue.pending_bits[rows]):
            return np.zeros(n, dtype=np.uint32)
        busy, heads = queue._cut(n, rows)
        return _pack(heads, self._lanes[rows][busy])


@dataclass
class UpRxEvents:
    a: list = field(default_factory=list)  # (row, ChannelAMessageUp | None)
    b: list = field(default_factory=list)  # (row, ChannelBTransaction | None)
    packets: list = field(default_factory=list)  # (row, raw fragment packet bytes)


class UpstreamReceiver(_LaneLinks):
    """Back-end side of the return links, one row per card, fed as bit
    lanes: consume the training sequence, then descramble and delineate
    channels by slot counting."""

    def __init__(self, rows: int):
        super().__init__(rows)
        self.scanners = {
            "A": FrameScanner(rows, CHANNEL_A_FRAME_BITS),
            "B": FrameScanner(rows, CHANNEL_B_FRAME_BITS),
            "C": FrameScanner(rows, FRAGMENT_HEAD_BITS, fragment_frame_bits),
        }
        self.parity_errors = {"A": np.zeros(rows, dtype=np.int64), "B": np.zeros(rows, dtype=np.int64)}
        self.training_errors = np.zeros(rows, dtype=np.int64)
        # Every per-row counter that a reset sets to 0.
        self._row_state = (self.training_errors, *self.parity_errors.values())

    def reset(self, row: int):
        """Start the row over, counters included, as a reset link does."""
        super().reset(row)
        for state in self._row_state:
            state[row] = 0
        for scanner in self.scanners.values():
            scanner.reset(row)

    def skip_idle(self, nbits: int):
        """Advance every row over nbits of idle cycles from its transmitter.
        Every row must be trained, hold no partial frame, and hold the same
        register as its transmitter, as it does once its last 43 line bits
        arrived without error: the line then descrambles to idle cycles, and
        the register, the last 43 line bits, steps as the transmitter's does."""
        super().skip_idle(nbits)
        for channel, scanner in self.scanners.items():
            scanner.skip(nbits // _UP_CYCLE_BITS * _UP_SLOTS[channel])

    @property
    def trained(self) -> np.ndarray:
        """Per row, True once the whole training sequence since the last
        reset has been consumed."""
        return self._training_left == 0

    def feed(self, words) -> UpRxEvents:
        """Consume the next line bits of every row, as lane words: a 1-D
        uint32 array, whole cycles long, with no bit past the last row's
        lane. Bad input raises before anything is consumed or counted."""
        words = self._lane_words(words)
        _whole_upstream_cycles(len(words))
        events, groups = UpRxEvents(), self._train(len(words))
        for start, rows, mask in groups:
            if start:
                wrong = (words[:start] ^ training_pattern(start) * mask) & mask
                if wrong.any():
                    self.training_errors += np.count_nonzero(_unpack(wrong, self._lanes), axis=1)
            if start == len(words):
                continue
            a, b, c, register = _upstream_channels(words[start:], self._register, mask)
            self._keep_register(register, mask)
            scan, errors = self.scanners, self.parity_errors
            for row, msg, _ in _decode_frames(_scan_lanes(scan["A"], a, rows), ChannelAMessageUp.decode, errors["A"]):
                events.a.append((row, msg))
            for row, msg, _ in _decode_frames(_scan_lanes(scan["B"], b, rows), ChannelBTransaction.decode, errors["B"]):
                events.b.append((row, msg))
            for row, frame, _ in _scan_lanes(scan["C"], c, rows):
                events.packets.append((row, np.packbits(frame[1:]).tobytes()))
        if len(groups) > 1:
            _row_order(events.a, events.b, events.packets)
        return events
