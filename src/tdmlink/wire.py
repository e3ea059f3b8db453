"""Line encodings and synchronization for both link directions.

Downstream (fanout, 100 Mbps logical / 200 Mbaud on the line):
interleave the three virtual channels A, B, A, C; invert channel B;
Manchester-encode. An idle link therefore carries the constant 8-symbol
pattern "01100101". Receivers lock onto it with `bit_slip_sync`, whose
slip offset also selects the Manchester sampling phase, and delineate
channels from it.

Upstream (point-to-point, 400 Mbps, zero coding overhead): interleave
A, B, C, C; invert channel B; pass through the x^43+1 self-synchronizing
scrambler.

The TDM codecs take each cycle's length and slots from the schedules below,
and `timebase` derives every cycle length and channel rate from them.

The line codecs take the bit axis last: a 1-D array is one stream, and a
(links, bits) array codes every link's row at once. Each public function
checks its bit input once with `as_bits`; the private kernels it is built
from do not check again.

The return-link kernels (interleave, scramble, descramble, deinterleave)
are bitwise and elementwise, and take their dtype from their input. So
they run unchanged on bit lanes: `streams` carries every return link as
one uint32 word per line bit, bit r of word t being link r's bit t, and
one call codes all links. Channel B is inverted by XOR with a "ones" word:
1 for bit arrays, the mask of the links in use for lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import BitArray, as_bits, bits_from_int, bits_from_str

__all__ = [
    "TdmSchedule",
    "DOWNSTREAM_SCHEDULE",
    "UPSTREAM_SCHEDULE",
    "DOWNSTREAM_IDLE_SYMBOLS",
    "IDLE_CYCLE_BITS",
    "SCRAMBLER_ORDER",
    "DEFAULT_LOCK_THRESHOLD",
    "WireFormatError",
    "CodingViolationError",
    "tdm_interleave",
    "tdm_deinterleave",
    "invert_channel_b",
    "manchester_encode",
    "manchester_decode",
    "manchester_violations",
    "count_manchester_violations",
    "bit_slip_sync",
    "LineSyncState",
    "Scrambler",
    "Descrambler",
    "IDLE_SCRAMBLER_PERIOD",
    "idle_scrambler_register",
    "PRBS_TAPS",
    "PrbsGenerator",
    "prbs_verify",
    "prbs_verify_words",
    "inject_bit_error",
    "downstream_tx",
    "downstream_rx",
    "downstream_idle_symbols",
    "upstream_tx",
    "upstream_rx",
    "training_pattern",
]


class WireFormatError(ValueError):
    """Malformed input to a line codec."""


class CodingViolationError(WireFormatError):
    """Manchester pair (0,0) or (1,1) seen on the line."""

    def __init__(self, position: int):
        super().__init__(f"Manchester coding violation at symbol {position}")
        self.position = position


@dataclass(frozen=True)
class TdmSchedule:
    """Fixed cyclic slot assignment of one link direction."""

    slot_sequence: tuple[str, ...]
    _slots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = {tag: tuple(i for i, t in enumerate(self.slot_sequence) if t == tag)
                 for tag in self.slot_sequence}
        object.__setattr__(self, "_slots", slots)

    def slots_of(self, tag: str) -> tuple[int, ...]:
        return self._slots.get(tag, ())


DOWNSTREAM_SCHEDULE = TdmSchedule(("A", "B", "A", "C"))
UPSTREAM_SCHEDULE = TdmSchedule(("A", "B", "C", "C"))

# Channel B occupies slot 1 in both directions; its inversion makes the
# idle cycle 0100 instead of 0000, which is what delineation keys on.
IDLE_CYCLE_BITS = as_bits([0, 1, 0, 0])
DOWNSTREAM_IDLE_SYMBOLS = bits_from_str("01100101")

DEFAULT_LOCK_THRESHOLD = 4


# ---------------------------------------------------------------------------
# Time-division multiplexing


def _channel_cycles(schedule: TdmSchedule, a: BitArray, b: BitArray, c: BitArray) -> int:
    cycles = None
    for tag, stream in (("A", a), ("B", b), ("C", c)):
        per_cycle = len(schedule.slots_of(tag))
        if stream.shape[-1] % per_cycle:
            raise WireFormatError(
                f"channel {tag} supplies {stream.shape[-1]} bits, not a multiple of "
                f"{per_cycle} per cycle"
            )
        n = stream.shape[-1] // per_cycle
        if cycles is None:
            cycles = n
        elif n != cycles:
            raise WireFormatError(
                f"channel {tag} supplies {n} cycles worth of bits, expected {cycles}"
            )
    return cycles or 0


def tdm_interleave(schedule: TdmSchedule, a, b, c) -> BitArray:
    """Merge per-channel bit streams into the line order of the schedule.

    Each channel must supply exactly as many bits as it has slots per cycle
    times the common cycle count; idle channels supply zeros. The bit axis
    is the last one; leading axes (one row per link) must agree.
    """
    return _interleave(schedule, as_bits(a), as_bits(b), as_bits(c))


def _interleave(schedule: TdmSchedule, a: BitArray, b: BitArray, c: BitArray) -> BitArray:
    cycles, period = _channel_cycles(schedule, a, b, c), len(schedule.slot_sequence)
    out = np.empty(a.shape[:-1] + (period * cycles,), dtype=a.dtype)
    for tag, stream in (("A", a), ("B", b), ("C", c)):
        positions = schedule.slots_of(tag)
        for i, slot in enumerate(positions):
            out[..., slot::period] = stream[..., i :: len(positions)]
    return out


def tdm_deinterleave(schedule: TdmSchedule, line):
    """Split a line stream that starts on a cycle boundary back into (a, b, c)."""
    return _deinterleave(schedule, as_bits(line))


def _cycle_count(schedule: TdmSchedule, line: BitArray) -> int:
    period = len(schedule.slot_sequence)
    if line.shape[-1] % period:
        raise WireFormatError(f"trailing partial cycle of {line.shape[-1] % period} symbols")
    return line.shape[-1] // period


def _deinterleave(schedule: TdmSchedule, line: BitArray):
    period = len(schedule.slot_sequence)
    cycles = _cycle_count(schedule, line)
    out = []
    for tag in ("A", "B", "C"):
        slots = schedule.slots_of(tag)
        bits = np.empty(line.shape[:-1] + (len(slots) * cycles,), dtype=line.dtype)
        for i, slot in enumerate(slots):
            bits[..., i :: len(slots)] = line[..., slot::period]
        out.append(bits)
    return tuple(out)


def invert_channel_b(bits) -> BitArray:
    """Complement every bit; applied to the channel B stream before interleaving."""
    return as_bits(bits) ^ 1


# ---------------------------------------------------------------------------
# Manchester coding and receiver synchronization


def manchester_encode(bits) -> BitArray:
    """Each bit b becomes the symbol pair (b, not b); doubles the baud rate."""
    return _manchester_encode(as_bits(bits))


def _manchester_encode(bits: BitArray) -> BitArray:
    out = np.empty(bits.shape[:-1] + (2 * bits.shape[-1],), dtype=np.uint8)
    out[..., 0::2] = bits
    out[..., 1::2] = bits ^ 1
    return out


def manchester_violations(symbols) -> np.ndarray:
    """Symbol positions of the pairs (0,0) and (1,1), which the encoder never
    sends; pairs start at even positions."""
    return 2 * np.flatnonzero(_broken_pairs(as_bits(symbols)))


def count_manchester_violations(symbols) -> np.ndarray:
    """Number of pairs that break Manchester coding along the last axis: one
    count per row of a (links, symbols) array."""
    return np.count_nonzero(_broken_pairs(as_bits(symbols)), axis=-1)


def _broken_pairs(symbols: BitArray) -> np.ndarray:
    return symbols[..., 0::2] == symbols[..., 1::2]


def manchester_decode(symbols, half_bit_phase: int, check: bool = True) -> BitArray:
    """Recover bits by sampling one symbol of every pair.

    half_bit_phase selects which half-symbol carries the bit value: 0 samples
    the first of each pair (the encoder convention), 1 samples the second
    (what a receiver clocked 180 degrees off would capture, turning the idle
    bits 0100 into 1011). With check=True, symbol pairs at even boundaries
    must be complementary; (0,0) or (1,1) raises with the offending position.
    """
    symbols = as_bits(symbols)
    if half_bit_phase not in (0, 1):
        raise WireFormatError(f"half-bit phase {half_bit_phase} outside 0..1")
    if symbols.shape[-1] % 2:
        raise WireFormatError("symbol count must be even")
    if check:
        bad = manchester_violations(symbols)
        if len(bad):
            raise CodingViolationError(int(bad[0]))
    return symbols[..., half_bit_phase::2].copy()


@dataclass
class LineSyncState:
    """Receiver alignment onto the repeating 8-symbol idle pattern."""

    locked: bool
    bit_slip_offset: int = 0
    half_bit_phase: int = 0
    # Index into the scanned stream of the first symbol that starts a full
    # cycle (idle-pattern position 0); decoding proceeds from here.
    aligned_index: int = 0


def bit_slip_sync(line, lock_threshold: int = DEFAULT_LOCK_THRESHOLD) -> LineSyncState:
    """Slip one symbol at a time until the idle pattern repeats.

    Returns a locked state once `lock_threshold` consecutive 8-symbol windows
    match a single rotation of the idle pattern. The transmitter keeps
    running throughout; reception may start at any symbol offset. The
    offset's parity is the sampling phase that reads idle bits as 0100.
    """
    raw, n = as_bits(line).tobytes(), len(DOWNSTREAM_IDLE_SYMBOLS)
    # The pattern position each rotation of the idle pattern starts at.
    rotations = {np.roll(DOWNSTREAM_IDLE_SYMBOLS, -k).tobytes(): k for k in range(n)}
    p = 0
    hypothesis = None
    consecutive = 0
    while p + n <= len(raw):
        k = rotations.get(raw[p : p + n])
        if k is None:
            p += 1  # bit slip
            hypothesis = None
            consecutive = 0
            continue
        match = (k - p) % n  # pattern position of line[0]
        if match == hypothesis:
            consecutive += 1
        else:
            hypothesis = match
            consecutive = 1
        p += n
        if consecutive >= lock_threshold:
            offset = hypothesis
            base = (n - offset) % n
            aligned = base + n * ((p - base + n - 1) // n)
            return LineSyncState(
                locked=True,
                bit_slip_offset=offset,
                half_bit_phase=offset % 2,
                aligned_index=aligned,
            )
    return LineSyncState(locked=False)


# ---------------------------------------------------------------------------
# Self-synchronizing scrambler, x^43 + 1

SCRAMBLER_ORDER = 43


def _seed_register(state) -> BitArray:
    if isinstance(state, (int, np.integer)):
        return bits_from_int(int(state), SCRAMBLER_ORDER)
    reg = as_bits(state)
    if reg.shape[-1:] != (SCRAMBLER_ORDER,):
        raise WireFormatError(f"scrambler register needs {SCRAMBLER_ORDER} bits")
    return reg.copy()


class Scrambler:
    """Encoder: out[i] = in[i] xor out[i-43], fed back from its own output."""

    def __init__(self, state=0):
        self.register = _seed_register(state)  # register[..., 0] is the oldest bit

    def scramble(self, bits) -> BitArray:
        out, self.register = _scramble(as_bits(bits), self.register)
        return out


def _scramble(bits: np.ndarray, register: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scramble along the last axis from `register` (one row per leading
    index); returns the line bits and the register after them. Bits and
    register share an unsigned dtype: uint8 bits, or uint32 lane words."""
    k = SCRAMBLER_ORDER
    n = bits.shape[-1]
    lead = bits.shape[:-1]
    # The register followed by the bits, zero-padded to whole blocks of 43
    # and laid out as (..., blocks, 43): column r holds residue class
    # r mod 43, where the recurrence is a running XOR down the blocks, and
    # block 0 is the register. Each block is padded to 48 columns, whole
    # 64-bit words of 8 (uint8) or 2 (uint32) residue classes each, so one
    # XOR down the blocks advances several classes per word; the 5 pad
    # columns stay zero.
    blocks = 1 + -(-n // k)
    line = np.zeros(lead + (blocks * k,), dtype=bits.dtype)
    line[..., :k] = register
    line[..., k : k + n] = bits
    grid = np.zeros(lead + (blocks, 48), dtype=bits.dtype)
    grid[..., :k] = line.reshape(lead + (blocks, k))
    words = grid.view(np.uint64)
    np.bitwise_xor.accumulate(words, axis=-2, out=words)
    line = grid[..., :k].reshape(lead + (blocks * k,))
    return line[..., k : k + n], line[..., n : n + k].copy()


# Fed idle cycles x = 0100..., whose x[n] = x[n-4], the scrambler's output
# y[n] = x[n] ^ y[n-43] gives z[n] = y[n] ^ y[n-4] = z[n-43]. Since 4 and 43
# are coprime, y[n+172] = y[n] ^ (the XOR of z over one period of 43), so
# y[n+344] = y[n]: 344 idle bits leave the register as it was, whatever it
# held.
IDLE_SCRAMBLER_PERIOD = 344


def idle_scrambler_register(register: np.ndarray, nbits: int, ones=1) -> np.ndarray:
    """The register (one row per leading index) after the scrambler is fed
    `nbits` of idle cycles, a whole number of them, in closed form. The
    idle cycle's inverted B bit is `ones`, in the register's dtype: 1 for a
    bit register, the lane mask for a register of lane words."""
    n = nbits % IDLE_SCRAMBLER_PERIOD
    idle = np.resize(IDLE_CYCLE_BITS * register.dtype.type(ones), n)
    return _scramble(np.broadcast_to(idle, register.shape[:-1] + (n,)), register)[1]


class Descrambler:
    """Decoder: out[i] = in[i] xor in[i-43]; correct after 43 received bits
    regardless of the initial register (self-synchronization)."""

    def __init__(self, state=0):
        self.register = _seed_register(state)  # register[..., 0] is the oldest bit

    def descramble(self, bits) -> BitArray:
        out, self.register = _descramble(as_bits(bits), self.register)
        return out


def _descramble(bits: BitArray, register: BitArray) -> tuple[BitArray, BitArray]:
    n = bits.shape[-1]
    hist = np.concatenate([register, bits], axis=-1)
    return bits ^ hist[..., :n], hist[..., n:].copy()


# ---------------------------------------------------------------------------
# PRBS generation and verification

# Fibonacci LFSR recurrence s[i] = s[i - order] xor s[i - tap] (ITU-T taps).
PRBS_TAPS = {7: 6, 15: 14, 23: 18, 31: 28}


def _check_order(order: int) -> None:
    if order not in PRBS_TAPS:
        raise ValueError(f"PRBS order must be one of {sorted(PRBS_TAPS)}")


# Over GF(2), p(x)^2 = p(x^2), so for the feedback polynomial
# p(x) = 1 + x^tap + x^order, p(x)^(2^k) = p(x^(2^k)): a PRBS sequence also
# obeys s[i] = s[i - order*2^k] xor s[i - tap*2^k] for every i >= order*2^k.
# The kernel doubles both lags once the sequence is twice the longer one, so
# each XOR block (as long as the shorter lag) grows with the sequence and the
# call count grows with log2(n), not n / tap.
def _lag_doubling_fill(seq: np.ndarray, pos: int, lag: int, tap: int) -> None:
    """Fill seq[pos:] by seq[i] = seq[i - lag] xor seq[i - tap] from the
    filled seq[:pos], doubling both lags as the sequence grows; the
    recurrence must hold for every i >= lag, and pos >= lag > tap unless
    there is nothing to fill."""
    end = len(seq)
    while pos < end:
        if 2 * lag <= pos:
            lag, tap = 2 * lag, 2 * tap
        step = min(tap, end - pos)
        np.bitwise_xor(
            seq[pos - lag : pos - lag + step],
            seq[pos - tap : pos - tap + step],
            out=seq[pos : pos + step],
        )
        pos += step


def _prbs_forward(history: BitArray, order: int, count: int) -> BitArray:
    """Extend a PRBS sequence by `count` bits past the given `order`-bit history."""
    seq = np.empty(order + count, dtype=np.uint8)
    seq[:order] = history
    _lag_doubling_fill(seq, order, order, PRBS_TAPS[order])
    return seq


# With k >= 6 both lags, order*2^k and tap*2^k bits, are whole 64-bit words.
# At k = 6 they are `order` and `tap` words, and the recurrence holds from
# word `order` <= 31 on, inside a 64-word (4096-bit) head. So only the head is
# made bit by bit; past it the same fill runs on words, one aligned XOR per
# step and no shifts.
_HEAD_WORDS = 64


def _prbs_words(history: BitArray, order: int, nwords: int) -> np.ndarray:
    """The first `nwords` words of the PRBS sequence that starts with the
    `order`-bit history."""
    words = np.empty(nwords, dtype=np.uint64)
    head = min(nwords, _HEAD_WORDS)
    words.view(np.uint8)[: 8 * head] = np.packbits(_prbs_forward(history, order, 64 * head - order))
    _lag_doubling_fill(words, head, order, PRBS_TAPS[order])
    return words


def _word_count(nbits: int) -> int:
    return -(-nbits // 64)


def _clear_tail(words: np.ndarray, nbits: int) -> None:
    """Zero the bits of `words` past the first `nbits`."""
    packed = words.view(np.uint8)
    packed[-(-nbits // 8) :] = 0
    if nbits % 8:
        packed[nbits // 8] &= 0xFF << (8 - nbits % 8) & 0xFF


class PrbsGenerator:
    """Maximal-length pseudo-random bit source of order 7, 15, 23 or 31."""

    def __init__(self, order: int, seed: int = 1):
        _check_order(order)
        if not 0 < seed < (1 << order):
            raise ValueError("PRBS seed must be nonzero and fit the register")
        self.order = order
        # The next `order` bits to be emitted; never all-zero.
        self._window = bits_from_int(seed, order)

    def stream_words(self, n: int) -> np.ndarray:
        """The next `n` bits packed into ceil(n / 64) 64-bit words: viewed as
        bytes, the words are `np.packbits` of the bits (MSB first), and the
        bits past the `n`-th are zero."""
        if n < 1:
            raise ValueError("bit count must be >= 1")
        words = _prbs_words(self._window, self.order, _word_count(n + self.order))
        ahead = np.unpackbits(words.view(np.uint8)[n // 8 : -(-(n + self.order) // 8)])
        self._window = ahead[n % 8 : n % 8 + self.order]
        words = words[: _word_count(n)]
        _clear_tail(words, n)
        return words

    def stream(self, n: int) -> BitArray:
        return np.unpackbits(self.stream_words(n).view(np.uint8), count=n)


def prbs_verify_words(order: int, words: np.ndarray, nbits: int) -> np.ndarray:
    """`prbs_verify` on a window of `nbits` bits held as packed 64-bit words
    (the layout of `PrbsGenerator.stream_words`); bits past `nbits` are
    ignored."""
    _check_order(order)
    if nbits <= order:
        raise ValueError(f"need more than {order} bits to verify")
    words = np.asarray(words)
    if words.dtype != np.uint64 or words.shape != (_word_count(nbits),):
        raise ValueError(f"{nbits} bits need {_word_count(nbits)} uint64 words")
    seed = np.unpackbits(words[:1].view(np.uint8), count=order)
    if not seed.any():
        raise ValueError("all-zero verifier seed")
    diff = _prbs_words(seed, order, len(words))
    np.bitwise_xor(diff, words, out=diff)  # the seed bits XOR to 0
    _clear_tail(diff, nbits)
    # Only the words that disagree are unpacked to find their bits.
    bad = np.flatnonzero(diff)
    rows, cols = np.nonzero(np.unpackbits(diff[bad].view(np.uint8)).reshape(-1, 64))
    return bad[rows] * 64 + cols


def prbs_verify(order: int, bits) -> np.ndarray:
    """Self-seed from the first `order` received bits, then free-run and
    return the exact positions that disagree with the expected sequence."""
    _check_order(order)
    bits = as_bits(bits)
    words = np.zeros(_word_count(len(bits)), dtype=np.uint64)
    words.view(np.uint8)[: -(-len(bits) // 8)] = np.packbits(bits)
    return prbs_verify_words(order, words, len(bits))


def inject_bit_error(bits, position: int) -> BitArray:
    """Copy of the stream with one chosen bit flipped."""
    out = as_bits(bits).copy()
    out[position] ^= 1
    return out


# ---------------------------------------------------------------------------
# Whole-direction coding chains


def downstream_tx(a, b, c) -> BitArray:
    """Interleave A,B,A,C; invert B; Manchester-encode."""
    a, b, c = as_bits(a), as_bits(b), as_bits(c)
    return _manchester_encode(_interleave(DOWNSTREAM_SCHEDULE, a, b ^ 1, c))


# Every downstream channel's slots are evenly spaced in the cycle (A: 0 and
# 2, B: 1, C: 3), so the receiver takes each channel as one strided view of
# the decoded line. The return link's C (slots 2 and 3) is not, and keeps
# the per-slot copies of `_deinterleave`.
_DOWNSTREAM_SLICES = tuple(
    slice(slots[0], None, len(DOWNSTREAM_SCHEDULE.slot_sequence) // len(slots))
    for slots in map(DOWNSTREAM_SCHEDULE.slots_of, ("A", "B", "C"))
)


def downstream_rx(symbols):
    """Inverse of downstream_tx for a symbol stream that starts on a cycle
    boundary. A pair that breaks Manchester coding does not raise: its
    sampled half is taken as the bit (`manchester_violations` counts such
    pairs). A and C are views of one decoded line."""
    line = manchester_decode(symbols, 0, check=False)
    _cycle_count(DOWNSTREAM_SCHEDULE, line)
    a, b_inv, c = (line[..., s] for s in _DOWNSTREAM_SLICES)
    return a, b_inv ^ 1, c


def downstream_idle_symbols(cycles: int) -> BitArray:
    return np.tile(DOWNSTREAM_IDLE_SYMBOLS, cycles)


def upstream_tx(a, b, c, scrambler: Scrambler) -> BitArray:
    """Interleave A,B,C,C; invert B; scramble. Zero coding overhead."""
    line, scrambler.register = _upstream_line(as_bits(a), as_bits(b), as_bits(c), scrambler.register, 1)
    return line


def upstream_rx(line, descrambler: Descrambler):
    """Inverse of upstream_tx."""
    a, b, c, descrambler.register = _upstream_channels(as_bits(line), descrambler.register, 1)
    return a, b, c


def _upstream_line(a, b, c, register, ones):
    """The return-link chain on bits (ones = 1) or lane words (ones = the
    lane mask): returns the line and the scrambler register after it."""
    return _scramble(_interleave(UPSTREAM_SCHEDULE, a, b ^ ones, c), register)


def _upstream_channels(line, register, ones):
    """Inverse of `_upstream_line`: returns a, b, c and the descrambler
    register after the line."""
    bits, register = _descramble(line, register)
    a, b_inv, c = _deinterleave(UPSTREAM_SCHEDULE, bits)
    return a, b_inv ^ ones, c, register


def training_pattern(n: int) -> BitArray:
    """Alternating 1,0 sent by a freshly reset upstream transmitter."""
    out = np.zeros(n, dtype=np.uint8)
    out[0::2] = 1
    return out
