"""Line timing for both abstraction levels, from one source: the tick rate
(one tick is 2.5 ns), the ticks per downstream line symbol and per upstream
line bit, and the TDM schedules in `wire`. The rest is derived: a TDM cycle
is 16 ticks downstream (two Manchester symbols per bit) and 4 upstream, a
channel's ticks per bit follow from its slots per cycle, and front-end
timestamp counters count the recovered downstream bit clock (100 MHz).

The symbol-level and message-level engines must agree bit-exactly on when
a downstream channel A frame finishes arriving, because front-ends latch
their timestamp counters at that instant and the value ends up inside
event data.
"""

from __future__ import annotations

from .messages import CHANNEL_A_FRAME_BITS
from .wire import DOWNSTREAM_SCHEDULE, UPSTREAM_SCHEDULE

TICKS_PER_SECOND = 400_000_000
TICK_SECONDS = 1 / TICKS_PER_SECOND

TICKS_PER_DOWN_SYMBOL = 2
TICKS_PER_UP_BIT = 1
_TICKS_PER_DOWN_BIT = 2 * TICKS_PER_DOWN_SYMBOL
TICKS_PER_TIMESTAMP_COUNT = _TICKS_PER_DOWN_BIT
TICKS_PER_DOWN_CYCLE = len(DOWNSTREAM_SCHEDULE.slot_sequence) * _TICKS_PER_DOWN_BIT
_TICKS_PER_UP_CYCLE = len(UPSTREAM_SCHEDULE.slot_sequence) * TICKS_PER_UP_BIT

# Logical data rates of the three downstream / upstream channels, in ticks
# per channel bit (averaged over one TDM cycle).
DOWN_TICKS_PER_CHANNEL_BIT = {ch: TICKS_PER_DOWN_CYCLE // len(DOWNSTREAM_SCHEDULE.slots_of(ch)) for ch in "ABC"}
UP_TICKS_PER_CHANNEL_BIT = {ch: _TICKS_PER_UP_CYCLE // len(UPSTREAM_SCHEDULE.slots_of(ch)) for ch in "ABC"}

# Where each downstream channel A slot ends, in ticks from its cycle's start.
_A_SLOT_ENDS = tuple((slot + 1) * _TICKS_PER_DOWN_BIT for slot in DOWNSTREAM_SCHEDULE.slots_of("A"))


def down_a_bit_end_tick(k: int) -> int:
    """Tick at which downstream channel-A bit number k finishes on the line:
    the end of A's slot k % (A slots per cycle) in cycle k // (that count)."""
    cycle, slot = divmod(k, len(_A_SLOT_ENDS))
    return TICKS_PER_DOWN_CYCLE * cycle + _A_SLOT_ENDS[slot]


def down_a_frame_arrival_tick(first_bit_index: int) -> int:
    """Arrival (last line bit) of an A frame starting at A-bit index k."""
    return down_a_bit_end_tick(first_bit_index + CHANNEL_A_FRAME_BITS - 1)


def timestamp_at(tick: int) -> int:
    return tick // TICKS_PER_TIMESTAMP_COUNT
