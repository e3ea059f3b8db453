"""Symbol-level deterministic engine.

Every line symbol is materialized: the downstream fanout runs the full
interleave / B-inversion / Manchester chain and each front-end receiver
acquires lock by bit slip; return links carry the training sequence and the
scrambled interleaved channels. A slice runs each stage of a chain once for
all cards: both directions carry the links as bit lanes, one uint32 word
per line symbol or bit with link r in bit r. The fanout's one stream goes
into every card's lane, and each link takes its own line errors from its
own random streams, in its own lane; lanes that still carry the same
symbols share one scan in the receivers. Links have zero latency, as at
message level. Time advances in slices of SLICE_CYCLES whole TDM cycles,
clipped at trigger issue ticks (that keeps channel A latency accounting
identical to the message-level engine) and at the end of a fixed-length run.

Idle time is skipped in closed form. At BER 0, when the last slice carried
only idle cycles and nothing waits to be sent or built, the next slices
would carry idle cycles too and change nothing but each line interface's
place in its idle stream. The data loop then advances all of them up to the
next trigger issue, line flip, link reset or run end in one step: the
fanout transmitter's cycle count and the scanners' bits-fed counts by one
add each, and the return links' scrambler and descrambler registers by the
closed-form step over idle cycles, which repeat every 344 bits (see
`wire.idle_scrambler_register`). The slice grid does not move, so every
output is the one slice-by-slice processing gives.
"""

from __future__ import annotations

import numpy as np

from . import timebase
from .messages import (
    CHANNEL_B_FRAME_BITS,
    ChannelAMessageDown,
    ChannelCRequest,
    encode_channel_a,
    encode_channel_b,
    encode_channel_c_request,
    frame_fragment,
)
from .streams import DownstreamReceiver, DownstreamTransmitter, UpstreamReceiver, UpstreamTransmitter
from .system import System
from .transport import CreditGrant

__all__ = ["SymbolEngine"]

# A card answers a channel B request once, one frame time each way after
# the request goes out. A reply lost to a line error never comes, so an
# exchange waits four downstream frame times and no longer; waiting longer
# would only push bootstrap past the data-taking start.
EXCHANGE_TIMEOUT_TICKS = 4 * CHANNEL_B_FRAME_BITS * timebase.DOWN_TICKS_PER_CHANNEL_BIT["B"]

# Downstream TDM cycles per slice. BER > 0 runs depend on it: each link
# draws its line errors one slice at a time.
SLICE_CYCLES = 64
SLICE_TICKS = SLICE_CYCLES * timebase.TICKS_PER_DOWN_CYCLE

# Each direction's random stream of a link (`SymbolEngine._line_errors`) and
# its ticks per line symbol or bit.
_DIRECTIONS = {"down": (0, timebase.TICKS_PER_DOWN_SYMBOL), "up": (1, timebase.TICKS_PER_UP_BIT)}


class SymbolEngine(System):
    def __init__(self, config):
        super().__init__(config)
        # Line interfaces, one lane per port: the cards' fanout receivers and
        # return transmitters, and the back-end's return receivers.
        links = len(self.cards)
        self.down_rx = DownstreamReceiver(links)
        self.up_tx = UpstreamTransmitter(links)
        self.backend_rx = UpstreamReceiver(links)
        # Each link draws its line errors from its own two streams.
        rng = np.random.default_rng(config.seed)
        self._link_rngs = [
            (
                np.random.default_rng(rng.integers(1 << 63)),  # downstream at this card
                np.random.default_rng(rng.integers(1 << 63)),  # upstream from this card
            )
            for _ in range(links)
        ]

        self.down_tx = DownstreamTransmitter()
        # The channel B request in flight and the first answer to it on each
        # port: a response that echoes its address, read and write, or one
        # that flags a parity error. Any other frame answers nothing.
        self._b_request = None
        self._b_answers: dict = {}
        # The timed link faults, line flips and resets, latest first: each
        # slice pops those that fall in it, and the last is the next one due.
        self._timed_faults = sorted(self.link_faults, key=lambda fault: fault["tick"])[::-1]
        self._queues = (*self.down_tx.queues.values(), *self.up_tx.queues.values())
        self._scanners = (*self.down_rx.scanners.values(), *self.backend_rx.scanners.values())
        # Whether the last slice was whole and carried only idle cycles: every
        # queue empty as it started and no line error in it.
        self._idle_slice = False

    # -- slice processing -------------------------------------------------------

    def _due_ticks(self):
        """The next trigger issue, the next timed link fault and the end of
        a run of fixed length: the ticks at which something is due, each
        None when nothing is."""
        fault = self._timed_faults[-1]["tick"] if self._timed_faults else None
        return self._next_issue_tick(), fault, self.run_ticks

    def _advance_one_slice(self):
        t0 = self.now
        issue, _, run_end = self._due_ticks()
        # Clip so issue happens exactly on a boundary and a run of fixed length ends on time.
        t1 = min(end for end in (t0 + SLICE_TICKS, issue, run_end) if end is not None and end > t0)
        if issue is not None and issue <= t0:
            self._issue_trigger()
        # The slice's faults: a reset applies at its start, and a flip hits
        # the symbol or bit on the line at its tick. Slices are contiguous
        # and a skip stops at or before each fault, so none is passed over.
        flips = {"down": [], "up": []}
        while self._timed_faults and self._timed_faults[-1]["tick"] < t1:
            fault = self._timed_faults.pop()
            if fault["type"] == "link_reset":
                self.up_tx.reset(fault["link"])
                self.backend_rx.reset(fault["link"])
            else:
                flips[fault["direction"]].append((fault["link"], fault["tick"] - t0))
        self._idle_slice = t1 - t0 == SLICE_TICKS and not self._queued() and not any(flips.values())

        # Downstream: one fanout stream in every card's lane.
        symbols = self.down_tx.produce_cycles((t1 - t0) // timebase.TICKS_PER_DOWN_CYCLE)
        words = np.multiply(symbols, self.down_rx._ones, dtype=np.uint32)
        self._handle_down_events(self.down_rx.feed(self._corrupt_lanes(words, "down", flips["down"])))

        # Upstream: one independent stream per link, one lane each.
        words = self.up_tx.produce((t1 - t0) // timebase.TICKS_PER_UP_BIT)
        self._handle_up_events(self.backend_rx.feed(self._corrupt_lanes(words, "up", flips["up"])))

        self.now = t1
        self._backend_logic()

    def _queued(self) -> bool:
        return any(q.pending_bits.any() for q in self._queues)

    def _quiet_slices(self, most: int | None) -> int:
        """How many whole slices from now, at most `most`, would carry only
        idle cycles and change nothing else: 0 unless the system is
        quiescent, else up to the last slice boundary at or before the next
        trigger issue, line flip and link reset, and before the slice that
        ends a run of fixed length."""
        if not (
            self._idle_slice
            and self.config.ber == 0.0
            and not self._queued()
            and not any(scanner.holds_frame() for scanner in self._scanners)
            and self.down_rx.locked.all()
            and self.backend_rx.trained.all()
            and not self.pool.i_fifo
            and not any(pump.fifo or pump.wants_request() for pump in self.pumps.values())
        ):
            return 0
        issue, fault, run_end = self._due_ticks()
        # The slice that reaches a fixed-length run's end is its last, and is run.
        last = None if run_end is None else run_end - 1
        due = [tick for tick in (issue, fault, last) if tick is not None]
        slices = [(tick - self.now) // SLICE_TICKS for tick in due]
        if most is not None:
            slices.append(most)
        return max(min(slices), 0)

    def _skip_quiet_slices(self, k: int):
        """Advance k whole slices that carry only idle cycles, changing just
        what they would: time and each line interface's place in its idle
        stream."""
        self.down_tx.skip_idle(k * SLICE_CYCLES)
        self.down_rx.skip_idle(k * SLICE_CYCLES)
        up_bits = k * SLICE_TICKS // timebase.TICKS_PER_UP_BIT
        self.up_tx.skip_idle(up_bits)
        self.backend_rx.skip_idle(up_bits)
        self.now += k * SLICE_TICKS

    def _line_errors(self, stream, n):
        """Each link's line errors in the next n symbols or bits of a
        direction, as (link, positions) in link order; `stream` picks the
        link's random stream of the direction. Every link draws n values
        at BER > 0, and none at BER 0."""
        if self.config.ber > 0.0 and n:
            for link, rngs in enumerate(self._link_rngs):
                yield link, np.flatnonzero(rngs[stream].random(n) < self.config.ber)

    def _corrupt_lanes(self, words, direction, flips):
        """Apply each link's line errors in `direction` to its lane of the
        lane words: an error flips bit `link`. `flips` lists the slice's
        flips in that direction as (link, ticks from the slice start)."""
        n = len(words)
        if not flips and not (self.config.ber > 0.0 and n):
            return words
        stream, ticks_per_symbol = _DIRECTIONS[direction]
        out = words.copy()
        for link, positions in self._line_errors(stream, n):
            out[positions] ^= np.uint32(1 << link)
        for link, ticks in flips:
            out[ticks // ticks_per_symbol] ^= np.uint32(1 << link)
        return out

    # -- card side ---------------------------------------------------------------

    def _handle_down_events(self, events):
        # Each card and its return row are its own, so the events go
        # channel by channel; within a card, A before B before C as received.
        for port, msg, arrival_tick in events.a:
            if msg is not None:
                self._emit_card_output(port, self.cards[port].on_channel_a(msg, arrival_tick))
        # Cards in step receive one request object, and a broadcast write
        # is answered with the request itself: an answer is encoded, as the
        # bytes a return queue holds, once for the run of cards that give
        # that same object (messages are immutable).
        last = bits = None
        for port, txn in events.b:
            card = self.cards[port]
            resp = card.on_channel_b_parity_error() if txn is None else card.on_channel_b(txn)
            if resp is not None:
                if resp is not last:
                    last, bits = resp, encode_channel_b(resp).tobytes()
                self.up_tx.enqueue(port, "B", bits)
        for port, req in events.c:
            if req is not None:
                self._emit_card_output(port, self.cards[port].on_channel_c(req))

    def _emit_card_output(self, port, out):
        for reply in out.a_replies:
            self.up_tx.enqueue(port, "A", encode_channel_a(reply))
        for data in out.packets:
            self.up_tx.enqueue(port, "C", frame_fragment(data))

    # -- backend side ---------------------------------------------------------------

    def _handle_up_events(self, events):
        for _, msg in events.a:
            if msg is not None:
                self.trigger_unit.on_ack(msg)
        req = self._b_request
        for port, txn in events.b:
            if txn is None or req is None or port in self._b_answers:
                continue
            if txn.parity_error or (txn.address, txn.read, txn.write) == (
                req.address, req.read, req.write
            ):
                self._b_answers[port] = txn
        for port, data in events.packets:
            self.pumps[port].on_packet(data)

    def _backend_logic(self):
        mask = self._request_mask()
        if mask:
            self.down_tx.enqueue("C", encode_channel_c_request(ChannelCRequest(target_mask=mask)))
        self._build()
        # Transport: the Ethernet side is not symbol-timed; frames leave as
        # soon as credit allows and grants renew immediately.
        while True:
            if self.server.credit == 0:
                self.server.on_grant(CreditGrant(self.config.credit))
            out = self.server.next_frame()
            if out is None:
                break
            frame, desc = out
            self.client.receive(frame.serialize())
            self.pool.release(desc)
            self._build()

    def _issue_trigger(self):
        self.down_tx.enqueue("A", encode_channel_a(ChannelAMessageDown(sampling_stop=True)))
        self.trigger_unit.on_issued()

    # -- bootstrap --------------------------------------------------------------------

    def _wait_links_ready(self):
        """Idle until every front-end receiver locked onto the idle pattern
        and every return link finished its training sequence (bootstrap
        precondition: links trained and locked)."""
        for _ in range(200):
            if self.down_rx.locked.all() and self.backend_rx.trained.all():
                return
            self._advance_one_slice()
        raise RuntimeError("links failed to train and lock")

    def _exchange(self, txn):
        """Send one channel B request down the fanout and advance until every
        addressed port answered (or a timeout); returns {port: response}."""
        expected = list(self.cards) if txn.broadcast else [txn.target_id]
        self._b_request = txn
        self._b_answers = {}
        self.down_tx.enqueue("B", encode_channel_b(txn))
        deadline = self.now + EXCHANGE_TIMEOUT_TICKS
        while self.now < deadline and not all(p in self._b_answers for p in expected):
            self._advance_one_slice()
        return self._b_answers

    # -- run ---------------------------------------------------------------------------

    def run(self):
        self._wait_links_ready()
        self.bootstrap(self._exchange)
        if self.now >= self.config.trigger_start_tick:
            raise RuntimeError(
                f"bootstrap finished at tick {self.now}, after the configured "
                f"data-taking start {self.config.trigger_start_tick}"
            )
        max_ticks = self.run_ticks
        idle_slices = 0
        while max_ticks is None or self.now < max_ticks:
            before = self._progress_state()
            slices = self._quiet_slices(None if max_ticks is not None else 2001 - idle_slices)
            if slices:
                self._skip_quiet_slices(slices)
            else:
                self._advance_one_slice()
                slices = 1
            if max_ticks is not None:
                continue
            if self._plan_delivered() or self.builder.halt_reason is not None:
                break
            idle_slices = idle_slices + slices if self._progress_state() == before else 0
            if idle_slices > 2000:
                break  # stalled; the audit reports the undelivered plan
        self._audit()

    def _progress_state(self):
        return (
            self.client.stats.events,
            self.trigger_unit.issued,
            self.builder.events_built,
            sum(len(p.fifo) for p in self.pumps.values()),
        )
