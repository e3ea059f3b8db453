"""Common time base for both abstraction levels.

One tick is 2.5 ns, the upstream line-bit period at 400 Mbps. The
downstream line runs at 200 Mbaud (one symbol every 2 ticks, one logical
bit every 4), so a TDM cycle is 16 ticks downstream and 4 ticks upstream.
Front-end timestamp counters run at the recovered 100 MHz clock, one count
every 4 ticks.

The symbol-level and message-level engines must agree bit-exactly on when
a downstream channel A frame finishes arriving, because front-ends latch
their timestamp counters at that instant and the value ends up inside
event data.
"""

from __future__ import annotations

from .messages import CHANNEL_A_FRAME_BITS

TICK_SECONDS = 2.5e-9

TICKS_PER_DOWN_SYMBOL = 2
TICKS_PER_DOWN_CYCLE = 16
TICKS_PER_TIMESTAMP_COUNT = 4  # 100 MHz

# Logical data rates of the three downstream / upstream channels, in ticks
# per channel bit (averaged over one TDM cycle).
DOWN_TICKS_PER_CHANNEL_BIT = {"A": 8, "B": 16, "C": 16}
UP_TICKS_PER_CHANNEL_BIT = {"A": 4, "B": 4, "C": 2}


def down_a_bit_end_tick(k: int) -> int:
    """Tick at which downstream channel-A bit number k finishes on the line.

    A bits ride in slots 0 and 2 of the 16-tick cycle; bit k sits in cycle
    k // 2, slot 2 * (k % 2), and its slot ends 4 ticks after it starts.
    """
    return TICKS_PER_DOWN_CYCLE * (k // 2) + 8 * (k % 2) + 4


def down_a_frame_arrival_tick(first_bit_index: int) -> int:
    """Arrival (last line bit) of an A frame starting at A-bit index k."""
    return down_a_bit_end_tick(first_bit_index + CHANNEL_A_FRAME_BITS - 1)


def timestamp_at(tick: int) -> int:
    return tick // TICKS_PER_TIMESTAMP_COUNT
