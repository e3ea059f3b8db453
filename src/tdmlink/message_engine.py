"""Message-level deterministic engine.

Frames and packets move as whole units; per-channel serialization times and
the request round trip are modeled with integer-tick pacing, so bandwidth
shares and flow control behave like the symbol-level engine without paying
for per-symbol work. Channel A latency accounting is bit-exact (the same
arithmetic the symbol-level chain performs), which keeps front-end
timestamps identical across the two abstraction levels.

Packets that one delivery sends up and that finish on the same tick arrive
as one batch event: each goes to its pump in port order, then the builder
runs once. The token and trigger checks follow only when the builder moved,
since nothing else frees a FIFO or builds an event; the server is kicked
after every batch and every send completion.
"""

from __future__ import annotations

import heapq

from . import timebase
from .backend import untimed_exchange
from .messages import CHANNEL_A_FRAME_BITS, CHANNEL_C_REQUEST_BITS, ChannelAMessageDown, ChannelCRequest
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
        # Scripted packet loss: {link: set of arrival indices to drop}. Only
        # the arrivals of links in the plan are counted.
        self._drop_plan: dict[int, set[int]] = {}
        for fault in self.link_faults:
            self._drop_plan.setdefault(fault["link"], set()).add(fault["index"])
        self._arrival_index: dict[int, int] = {port: 0 for port in self.cards}

    # -- scheduling -----------------------------------------------------------

    def _at(self, tick: int, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (max(tick, self.now), self._seq, fn, args))

    def run(self):
        # ID assignment runs before data taking; its register traffic is
        # exchanged directly (not timed) and is not part of any measurement.
        self.bootstrap(untimed_exchange(self.cards))
        self._schedule_token_check()
        self.client_grant()
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

    def _issue_trigger(self):
        # Align to the TDM cycle: the frame starts after the A queue, at or after the cycle's first A bit.
        issue = -(-self.now // timebase.TICKS_PER_DOWN_CYCLE) * timebase.TICKS_PER_DOWN_CYCLE
        k_start = max(self._next_a_bit, issue // timebase.DOWN_TICKS_PER_CHANNEL_BIT["A"])
        self._next_a_bit = k_start + CHANNEL_A_FRAME_BITS
        arrival = timebase.down_a_frame_arrival_tick(k_start)
        self.trigger_unit.on_issued()
        msg = ChannelAMessageDown(sampling_stop=True)
        self._at(arrival, self._deliver_trigger, msg)
        self._schedule_trigger_check()

    def _deliver_trigger(self, msg):
        batches = {}
        for port in self.ports:
            out = self.cards[port].on_channel_a(msg, self.now)
            self._emit_card_output(port, out, batches)
        self._schedule_token_check()

    def _emit_card_output(self, port, out, batches):
        """Send a card's answers up its return link. `batches` maps a finish
        tick to the arrival batch of this delivery that lands on it."""
        for reply in out.a_replies:
            start = max(self.now, self._up_a_busy[port])
            finish = start + UP_A_FRAME_TICKS
            self._up_a_busy[port] = finish
            self._at(finish, self._on_ack, reply)
        for data in out.packets:
            self._send_packet_up(port, data, batches)

    def _on_ack(self, reply):
        self.trigger_unit.on_ack(reply)
        self._schedule_trigger_check()

    def _send_packet_up(self, port, data: bytes, batches):
        start = max(self.now, self._up_c_busy[port])
        finish = start + (8 * len(data) + 1) * UP_C_TICKS_PER_BIT
        self._up_c_busy[port] = finish
        batch = batches.get(finish)
        if batch is None:
            # Scheduled when its first packet is sent, so the batch keeps that
            # packet's place among the events of its tick.
            batch = batches[finish] = []
            self._at(finish, self._packets_arrived, batch)
        batch.append((port, data))

    def _packets_arrived(self, batch):
        drop_plan = self._drop_plan
        for port, data in batch:
            if port in drop_plan:
                index = self._arrival_index[port]
                self._arrival_index[port] = index + 1
                if index in drop_plan[port]:
                    # Scripted transit loss. Clearing the token lets the pump
                    # request again, so the builder faces the stream minus
                    # this packet.
                    self.pumps[port].request_outstanding = False
                    self._schedule_token_check()
                    continue
            self.pumps[port].on_packet(data)
        self._progress()

    # -- request tokens -----------------------------------------------------------

    def _schedule_token_check(self):
        if not self._token_check_scheduled:
            self._token_check_scheduled = True
            self._at(self.now, self._token_check)

    def _token_check(self):
        self._token_check_scheduled = False
        mask = self._request_mask()
        if mask == 0:
            return
        start = max(self.now, self._down_c_busy)
        finish = start + DOWN_C_FRAME_TICKS
        self._down_c_busy = finish
        req = ChannelCRequest(target_mask=mask)
        self._at(finish, self._deliver_request, req)

    def _deliver_request(self, req):
        batches = {}
        mask = req.target_mask
        while mask:
            low = mask & -mask
            mask ^= low
            port = low.bit_length() - 1
            out = self.cards[port].on_channel_c(req)
            self._emit_card_output(port, out, batches)

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

    def client_grant(self):
        self._at(self.now + self.rtt_ticks // 2, self._grant_arrives)

    def _grant_arrives(self):
        self.server.on_grant(CreditGrant(self.config.credit))
        self._server_kick()
