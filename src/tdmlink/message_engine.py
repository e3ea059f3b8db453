"""Message-level deterministic engine.

Frames and packets move as whole units; per-channel serialization times and
the request round trip are modeled with integer-tick pacing, so bandwidth
shares and flow control behave like the symbol-level engine without paying
for per-symbol work. Channel A latency accounting is bit-exact (the same
arithmetic the symbol-level chain performs), which keeps front-end
timestamps identical across the two abstraction levels.

Packets that finish on the same tick arrive as one batch event: each goes
to its pump in the order sent, then the builder runs once. The token and
trigger checks follow only when the builder moved or a packet was dropped,
since nothing else frees a FIFO or builds an event; the server is kicked
after every batch and every send completion.
"""

from __future__ import annotations

import heapq

from . import timebase
from .backend import untimed_exchange
from .messages import CHANNEL_A_FRAME_BITS, CHANNEL_C_REQUEST_BITS
from .system import System
from .transport import ETHERNET_BPS, FLAG_FIRST_OF_BURST, FRAME_OVERHEAD_BYTES, CreditGrant

__all__ = ["MessageEngine"]

# Serialization ticks per frame, derived from the per-channel bit periods.
# Register traffic (channel B) is exchanged untimed during bootstrap, before
# data taking, so only A, C-down and the return links need pacing here.
DOWN_C_FRAME_TICKS = CHANNEL_C_REQUEST_BITS * timebase.DOWN_TICKS_PER_CHANNEL_BIT["C"]
UP_A_FRAME_TICKS = CHANNEL_A_FRAME_BITS * timebase.UP_TICKS_PER_CHANNEL_BIT["A"]
# Channel C of the return link, which frames a packet as one start bit and
# then its bytes.
UP_C_TICKS_PER_BIT = timebase.UP_TICKS_PER_CHANNEL_BIT["C"]


def _eth_wire_ticks(payload_bytes: int) -> int:
    # Whole ticks, rounded up, to send the frame; overhead modeled per frame.
    bits = 8 * (payload_bytes + FRAME_OVERHEAD_BYTES)
    return -(-bits * timebase.TICKS_PER_SECOND // ETHERNET_BPS)


class MessageEngine(System):
    def __init__(self, config):
        super().__init__(config)
        self._heap = []
        self._seq = 0
        self._stopped = False
        self.rtt_ticks = config.request_rtt_ticks

        # Channel pacing state.
        self._next_a_bit = 0
        self._down_c_busy = 0
        self._up_a_busy = {port: 0 for port in self.cards}
        self._up_c_busy = {port: 0 for port in self.cards}
        self._eth_busy = 0

        self._token_check_scheduled = False
        self._trigger_check_scheduled = False
        self._trigger_wakeup_tick = None
        # The packets in flight up the return links, by the tick they land.
        self._arrivals: dict[int, list] = {}

    # -- scheduling -----------------------------------------------------------

    def _at(self, tick: int, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (max(tick, self.now), self._seq, fn, args))

    def run(self):
        # ID assignment runs before data taking; its register traffic is
        # exchanged directly (not timed) and is not part of any measurement.
        self.bootstrap(untimed_exchange(self.cards))
        self._schedule_token_check()
        self._at(self.now + self.rtt_ticks // 2, self._grant_arrives)
        self._schedule_trigger_check()
        if self.config.measure_warmup_ticks:
            self._at(self.config.measure_warmup_ticks, self._snapshot_measurement)
        end_tick = self.run_ticks
        while self._heap and not self._stopped:
            tick, _, fn, args = heapq.heappop(self._heap)
            if end_tick is not None and tick > end_tick:
                break
            self.now = tick
            fn(*args)
        if end_tick is not None:
            self.now = end_tick  # a run of fixed length covers its whole window
        self._audit()

    def _stop_if_done(self):
        if self.run_ticks is None and self._plan_delivered():
            self._stopped = True

    # -- triggers ---------------------------------------------------------------

    def _schedule_trigger_check(self):
        if not self._trigger_check_scheduled:
            self._trigger_check_scheduled = True
            self._at(self.now, self._trigger_check)

    def _trigger_check(self):
        self._trigger_check_scheduled = False
        tick = self._next_issue_tick()
        if tick is None:
            self._stop_if_done()
            return
        if tick > self.now:
            if tick != self._trigger_wakeup_tick:  # a second wakeup would find the check scheduled
                self._trigger_wakeup_tick = tick
                self._at(tick, self._schedule_trigger_check)
            return
        self._issue_trigger()
        self._schedule_trigger_check()

    def _on_ack(self, reply):
        self.trigger_unit.on_ack(reply)
        self._schedule_trigger_check()

    # -- links ------------------------------------------------------------------------

    def _send_down(self, channel, msg):
        if channel == "A":
            # Align to the TDM cycle: the frame starts after the A queue, at
            # or after the cycle's first A bit, and reaches every card.
            issue = -(-self.now // timebase.TICKS_PER_DOWN_CYCLE) * timebase.TICKS_PER_DOWN_CYCLE
            k_start = max(self._next_a_bit, issue // timebase.DOWN_TICKS_PER_CHANNEL_BIT["A"])
            self._next_a_bit = k_start + CHANNEL_A_FRAME_BITS
            self._at(timebase.down_a_frame_arrival_tick(k_start), self._deliver_trigger, msg)
        else:
            self._down_c_busy = max(self.now, self._down_c_busy) + DOWN_C_FRAME_TICKS
            self._at(self._down_c_busy, self._deliver_request, msg)

    def _deliver_trigger(self, msg):
        for port in self.ports:
            self._card_receives(port, msg, self.now)

    def _deliver_request(self, req):
        # Only the cards the request names act on it.
        mask = req.target_mask
        while mask:
            low = mask & -mask
            mask ^= low
            self._card_receives(low.bit_length() - 1, req, self.now)

    def _send_up(self, port, channel, item):
        now = self.now
        if channel == "A":
            busy = self._up_a_busy
            busy[port] = finish = max(now, busy[port]) + UP_A_FRAME_TICKS
            self._at(finish, self._on_ack, item)
            return
        busy = self._up_c_busy
        busy[port] = finish = max(now, busy[port]) + (8 * len(item) + 1) * UP_C_TICKS_PER_BIT
        batch = self._arrivals.get(finish)
        if batch is None:
            # Scheduled when its first packet is sent, so the batch keeps that
            # packet's place among the events of its tick.
            batch = self._arrivals[finish] = []
            self._at(finish, self._packets_land, finish)
        batch.append((port, item))

    def _packets_land(self, tick):
        if self._packets_arrive(self._arrivals.pop(tick)):
            self._schedule_token_check()
        self._progress()

    # -- request tokens -----------------------------------------------------------

    def _schedule_token_check(self):
        if not self._token_check_scheduled:
            self._token_check_scheduled = True
            self._at(self.now, self._token_check)

    def _token_check(self):
        self._token_check_scheduled = False
        self._post_requests()

    # -- builder / transport ---------------------------------------------------------

    def _progress(self):
        # Only a builder move frees a FIFO or builds an event; a send
        # completion frees the Ethernet side whether or not it moved.
        if self._build():
            self._schedule_token_check()
            self._schedule_trigger_check()
        self._server_kick()

    def _server_kick(self):
        if self.now < self._eth_busy:
            return
        out = self.server.next_frame()
        if out is None:
            return
        frame, desc = out
        wire = _eth_wire_ticks(len(frame.payload))
        self._eth_busy = self.now + wire
        self._at(self._eth_busy, self._send_complete, desc)
        self._at(self._eth_busy + self.rtt_ticks // 2, self._client_receive, frame)

    def _send_complete(self, desc):
        self.pool.release(desc)
        self._progress()

    def _client_receive(self, frame):
        self.client.receive(frame.serialize())
        if frame.flags & FLAG_FIRST_OF_BURST:
            # Grant renewal pipelines against the burst in flight.
            self._at(self.now + self.rtt_ticks // 2, self._grant_arrives)
        self._stop_if_done()

    def _grant_arrives(self):
        self.server.on_grant(CreditGrant(self.config.credit))
        self._server_kick()
