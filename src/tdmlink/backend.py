"""Back-end data path: per-link DataPumps with request tokens, the
EventBuilder (one round-robin rotation, consistency checks), the PacketMover
writing into pooled 8 KB buffers, the bootstrap sequencer and trigger control.

Buffer contents are framed as records so the DAQ client can recover event
boundaries and per-link provenance: each record is a 16-bit tag word
(big-endian) followed by one fragment packet in wire format. Tags:

    0xE501          event header emitted by the builder (SOE packet with
                    the agreed event number and timestamp)
    0xE503          global end-of-event (zero-payload EOE packet)
    0xE507          global end-of-event of an event flagged incomplete
    0xE520 | link   fragment forwarded unmodified from that link (0..31)

Records are never split across buffers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .messages import check_fragment, event_header_bytes, fragment_bytes, soe_fields

__all__ = [
    "FE_FIFO_BYTES",
    "MAX_LINKS",
    "RECORD_EVENT_HEADER",
    "RECORD_GLOBAL_EOE",
    "RECORD_GLOBAL_EOE_INCOMPLETE",
    "RECORD_FRAGMENT_BASE",
    "EOE_TRAILER",
    "record_tag_link",
    "DataPump",
    "BufferDescriptor",
    "BufferPool",
    "PacketMover",
    "EventBuilder",
    "TriggerUnit",
    "LinkCounters",
    "bootstrap_sequence",
    "untimed_exchange",
]

FE_FIFO_BYTES = 2048

MAX_LINKS = 32  # the 5-bit card ID space, and so the fragment record tags

RECORD_EVENT_HEADER = 0xE501
RECORD_GLOBAL_EOE = 0xE503
RECORD_GLOBAL_EOE_INCOMPLETE = 0xE507
RECORD_FRAGMENT_BASE = 0xE520

# Packet of every global end-of-event record: zero payload, EOE flag.
EOE_TRAILER = fragment_bytes(False, True, b"")


def record_tag_link(tag: int) -> int | None:
    """Link ID of a fragment record tag, else None."""
    if RECORD_FRAGMENT_BASE <= tag < RECORD_FRAGMENT_BASE + MAX_LINKS:
        return tag - RECORD_FRAGMENT_BASE
    return None


@dataclass
class LinkCounters:
    packets: int = 0
    payload_bytes: int = 0
    crc_drops: int = 0
    lost_tokens: int = 0
    faults: int = 0


class DataPump:
    """Per-link request-token state machine feeding a 2 KB FE-FIFO.

    A data request is posted only while the FIFO has room for a complete
    maximum-size packet; with a 2 KB FIFO that means the FIFO is empty, so
    at most one packet is in flight per link and a requested packet always
    fits. A packet that arrives while the FIFO is occupied was never
    requested; it is dropped and counted in `counters.faults`.
    """

    def __init__(self):
        self.enabled = False
        self.request_outstanding = False
        self.fault: str | None = None
        self.fifo: deque[bytes] = deque()
        self.fifo_used = 0
        self.counters = LinkCounters()

    def wants_request(self) -> bool:
        return (
            self.enabled
            and self.fault is None
            and not self.request_outstanding
            and not self.fifo_used
        )

    def request_posted(self):
        self.request_outstanding = True

    def on_packet(self, data: bytes):
        if not self.enabled:
            self.counters.lost_tokens += 1
            return
        size = len(data)
        if size > FE_FIFO_BYTES:
            self.fault = f"packet of {size} bytes exceeds the FE-FIFO"
            self.enabled = False
            self.counters.faults += 1
            return
        if size > FE_FIFO_BYTES - self.fifo_used:
            self.counters.faults += 1
            return
        self.fifo.append(data)
        self.fifo_used += size
        self.request_outstanding = False
        self.counters.packets += 1

    def unload(self) -> bytes:
        data = self.fifo.popleft()
        self.fifo_used -= len(data)
        return data


# ---------------------------------------------------------------------------
# Output buffers


@dataclass
class BufferDescriptor:
    buffer_id: int
    capacity: int = 8192
    header_reserve: int = 66
    payload: bytearray = field(default_factory=bytearray)
    incomplete_event: bool = False
    has_event_end: bool = False

    def reset(self):
        self.payload = bytearray()
        self.incomplete_event = False
        self.has_event_end = False


class BufferPool:
    """Free descriptors (O_FIFO) and filled descriptors (I_FIFO).

    Every descriptor is in exactly one place: the free pool, the filled
    queue, held by the mover, or in flight at the transport sender.
    """

    def __init__(self, size: int = 64, capacity: int = 8192, header_reserve: int = 66):
        self.size = size
        self.o_fifo: deque[BufferDescriptor] = deque(
            BufferDescriptor(i, capacity, header_reserve) for i in range(size)
        )
        self.i_fifo: deque[BufferDescriptor] = deque()
        self.held = 0  # by the mover
        self.in_flight = 0  # at the transport sender

    def fetch_free(self) -> BufferDescriptor | None:
        if not self.o_fifo:
            return None
        self.held += 1
        return self.o_fifo.popleft()

    def push_filled(self, desc: BufferDescriptor):
        self.held -= 1
        self.i_fifo.append(desc)

    def pop_filled(self) -> BufferDescriptor | None:
        if not self.i_fifo:
            return None
        self.in_flight += 1
        return self.i_fifo.popleft()

    def release(self, desc: BufferDescriptor):
        desc.reset()
        self.in_flight -= 1
        self.o_fifo.append(desc)

    def audit(self) -> bool:
        return len(self.o_fifo) + len(self.i_fifo) + self.held + self.in_flight == self.size


class PacketMover:
    """Places records into pooled buffers, never splitting a record.

    The record size is known before any byte is unloaded, so the fit check
    happens first; when the current buffer is too full it rotates to the
    filled queue and a fresh descriptor is fetched. With the free pool
    exhausted the mover stalls, pushing backpressure up through the FE-FIFOs.
    `stalls` counts stall episodes: one begins when a write finds no free
    buffer and ends at the next successful write, however often the held
    record is retried in between.
    """

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.current: BufferDescriptor | None = None
        self.stalls = 0
        self._stalled = False

    def write_record(self, tag: int, packet_bytes: bytes, incomplete: bool = False) -> bool:
        """True when the record was written; False when stalled (retry later,
        nothing is consumed or lost)."""
        size = 2 + len(packet_bytes)
        desc = self.current
        if desc is None:
            desc = self.current = self.pool.fetch_free()
            if desc is None:
                return self._stall()
        usable = desc.capacity - desc.header_reserve
        if size > usable:
            raise AssertionError("record larger than a whole buffer")
        payload = desc.payload
        if size > usable - len(payload):
            self.pool.push_filled(desc)
            desc = self.current = self.pool.fetch_free()
            if desc is None:
                return self._stall()
            payload = desc.payload
        self._stalled = False
        payload += tag.to_bytes(2, "big")
        payload += packet_bytes
        if incomplete:
            desc.incomplete_event = True
        if tag == RECORD_GLOBAL_EOE or tag == RECORD_GLOBAL_EOE_INCOMPLETE:
            desc.has_event_end = True
        return True

    def _stall(self) -> bool:
        if not self._stalled:
            self.stalls += 1
            self._stalled = True
        return False

    def flush(self):
        """Push a partially filled buffer out (end of run)."""
        if self.current is not None and self.current.payload:
            self.pool.push_filled(self.current)
            self.current = None


# ---------------------------------------------------------------------------
# Event builder


class EventBuilder:
    """Assembles one event at a time from all active links, served in one
    blocking round-robin rotation (the builder waits for the link whose turn
    it is), which makes the output byte stream a pure function of the
    packet contents.

    In AWAIT_SOE the rotation holds every active link and a link leaves
    after its first packet, which must carry SOE with the event number and
    timestamp of the other links, or the builder halts (terminal until
    operator reset). In BODY it holds the links whose first packet was not
    EOE and a link leaves after its EOE packet. An emptied rotation emits
    the event header and the held-back SOE packets in link order, or the
    global EOE. Fragments stay the bytes their link delivered: each is
    checked once on unload (`check_fragment`), valid ones are forwarded
    unmodified, corrupt ones are deleted and the event is flagged
    incomplete.
    """

    AWAIT_SOE = "await_soe"
    BODY = "body"
    HALTED = "halted"

    def __init__(self, active_links: list[int], mover: PacketMover):
        self.active_links = sorted(active_links)
        self.mover = mover
        self.phase = self.AWAIT_SOE
        self.halt_reason: str | None = None
        self.current_event_number: int | None = None
        self.current_timestamp: int | None = None
        self.events_built = 0
        self.events_incomplete = 0
        self.counters: dict[int, LinkCounters] = {l: LinkCounters() for l in self.active_links}
        # Links the phase still awaits a packet from, in round-robin order.
        self._rotation = list(self.active_links)
        self._turn = 0
        # Links whose first packet was not EOE: the body phase's rotation.
        self._body: list[int] = []
        self._soe_records: list[tuple[int, bytes]] = []
        self._event_incomplete = False
        # Records queued behind a stalled mover, in order, not yet written.
        self._pending: deque[tuple[int, bytes, bool]] = deque()

    def _emit(self, tag: int, data: bytes):
        """Write one record to the mover; while records are held, queue it
        behind them and retry the oldest."""
        incomplete = self._event_incomplete
        if self._pending:
            self._pending.append((tag, data, incomplete))
            self._drain()
        elif not self.mover.write_record(tag, data, incomplete):
            self._pending.append((tag, data, incomplete))

    def _drain(self) -> bool:
        while self._pending:
            tag, data, incomplete = self._pending[0]
            if not self.mover.write_record(tag, data, incomplete):
                return False
            self._pending.popleft()
        return True

    def step(self, pumps: dict[int, DataPump]) -> bool:
        """Advance by at most one packet; returns True on progress. A packet
        unloaded counts as progress even when it halts the builder (a first
        packet that cannot open the event), since its pump's FIFO emptied;
        every step after a halt returns False."""
        if self.phase == self.HALTED or not self.active_links:
            return False
        if self._pending and not self._drain():
            return False  # no free buffers: backpressure, consume nothing
        rotation, turn = self._rotation, self._turn
        if not rotation:
            self._next_phase()
            return True
        link = rotation[turn]
        pump = pumps[link]
        if not pump.fifo:
            return False
        data = pump.unload()
        crc_ok = check_fragment(data)
        eoe = data[0] & 0x40
        first = self.phase == self.AWAIT_SOE
        if first and crc_ok:
            reason = self._soe_fault(link, data)
            if reason is not None:
                self.phase = self.HALTED
                self.halt_reason = reason
                return True
        if first or eoe:
            # The link leaves the rotation; the next link slides into this
            # turn index, so only wrap-around needs handling.
            del rotation[turn]
            if turn >= len(rotation):
                self._turn = 0
        else:
            self._turn = (turn + 1) % len(rotation)
        if first and not eoe:
            self._body.append(link)
        if not crc_ok:
            # Deleted, not retransmitted; the event ships incomplete. A first
            # packet counts as the link's SOE with unknown values.
            self.counters[link].crc_drops += 1
            self._event_incomplete = True
        else:
            counters = self.counters[link]
            counters.packets += 1
            counters.payload_bytes += len(data) - 6
            if first:
                self._soe_records.append((link, data))
            else:
                # No record is held (drained above), so the record goes
                # straight to the mover, or is the first held.
                tag = RECORD_FRAGMENT_BASE + link
                if not self.mover.write_record(tag, data, self._event_incomplete):
                    self._pending.append((tag, data, self._event_incomplete))
        return True

    def run(self, pumps: dict[int, DataPump]) -> bool:
        """Step until no step progresses; returns True when any step did,
        i.e. the builder unloaded a packet or changed phase. Writing held
        records alone frees no FIFO and builds no event, so it is not a
        move."""
        moved = False
        while self.step(pumps):
            moved = True
        return moved

    def _soe_fault(self, link: int, data: bytes) -> str | None:
        """Why intact first packet `data` cannot open the event, else None.
        The first SOE packet sets the event's number and timestamp."""
        fields = soe_fields(data)
        if fields is None:
            return f"link {link}: first packet of event lacks SOE"
        if self.current_event_number is None:
            self.current_event_number, self.current_timestamp = fields
        if fields != (self.current_event_number, self.current_timestamp):
            return (
                "start-of-event mismatch: "
                f"link {link} reports event {fields[0]}/ts {fields[1]}, "
                f"expected {self.current_event_number}/ts {self.current_timestamp}"
            )
        return None

    def _next_phase(self):
        """The rotation emptied. After AWAIT_SOE, emit the event header and
        the SOE packets in link order and serve the body; after BODY, emit
        the global EOE and await the next event."""
        if self.phase == self.AWAIT_SOE:
            number = self.current_event_number if self.current_event_number is not None else 0xFFFFFFFF
            ts = self.current_timestamp if self.current_timestamp is not None else 0
            header = fragment_bytes(True, False, event_header_bytes(number, ts))
            self._emit(RECORD_EVENT_HEADER, header)
            for link, rec in self._soe_records:
                self._emit(RECORD_FRAGMENT_BASE + link, rec)
            self._soe_records = []
            self.phase = self.BODY
            self._rotation, self._body = self._body, []
        else:
            tag = RECORD_GLOBAL_EOE_INCOMPLETE if self._event_incomplete else RECORD_GLOBAL_EOE
            self._emit(tag, EOE_TRAILER)
            self.events_built += 1
            if self._event_incomplete:
                self.events_incomplete += 1
            self.phase = self.AWAIT_SOE
            self.current_event_number = None
            self.current_timestamp = None
            self._event_incomplete = False
            self._rotation = list(self.active_links)
        self._turn = 0


# ---------------------------------------------------------------------------
# Trigger control


class TriggerUnit:
    """Issues channel A trigger frames under a busy-throttle policy.

    Periodic mode fires at fixed absolute ticks, which keeps front-end
    timestamps identical across abstraction levels. Gated mode saturates
    the system without ever losing a trigger: a new one goes out only when
    every card acknowledged the previous one (SET_BUSY and CLEAR_BUSY both
    seen) and the events still in the pipeline stay below the front-end
    buffering depth.
    """

    def __init__(self, mode: str = "gated", count: int = 0, period_ticks: int = 0,
                 start_tick: int = 0, max_in_flight: int = 4):
        if mode not in ("gated", "periodic"):
            raise ValueError("trigger mode must be 'gated' or 'periodic'")
        self.mode = mode
        self.count = count
        self.period_ticks = period_ticks
        self.start_tick = start_tick
        self.max_in_flight = max_in_flight
        self.issued = 0
        self.set_busy_seen = 0
        self.clear_busy_seen = 0

    def next_issue_tick(self, now: int, events_built: int, num_cards: int) -> int | None:
        """Tick at which the next trigger may go out, or None when finished
        or (gated mode) while the pipeline must first drain."""
        if self.issued >= self.count:
            return None
        if self.mode == "periodic":
            return self.start_tick + self.issued * self.period_ticks
        in_flight = self.issued - events_built
        ready = (
            in_flight < self.max_in_flight
            and self.set_busy_seen >= self.issued * num_cards
            and self.clear_busy_seen >= self.issued * num_cards
        )
        return max(now, self.start_tick) if ready else None

    def on_issued(self):
        self.issued += 1

    def on_ack(self, msg):
        if msg.set_busy:
            self.set_busy_seen += 1
        if msg.clear_busy:
            self.clear_busy_seen += 1


# ---------------------------------------------------------------------------
# Bootstrap


@dataclass
class BootstrapResult:
    id_map: dict[int, int]  # port -> serial
    absent_ports: list[int]
    verified: bool


def untimed_exchange(cards: dict) -> Callable:
    """Channel B exchange without line timing, for `bootstrap_sequence`:
    every card answers at once on its own port, so it ignores `ports`."""

    def exchange(txn, ports):
        return {
            port: resp for port, card in cards.items() if (resp := card.on_channel_b(txn)) is not None
        }

    return exchange


# Times bootstrap sends one transaction while a port it waits for has not
# answered it, or answered with the parity-error flag, i.e. the request or
# the answer was lost or reached its end corrupted. A card answers every
# request it receives corrupted, since it cannot tell whom it addressed, so
# only the awaited ports' answers count.
BOOTSTRAP_ATTEMPTS = 3


def bootstrap_sequence(send, ports: list[int]) -> BootstrapResult:
    """ID assignment at system start, over broadcast requests only.

    `send(txn, awaited)` sends one channel B transaction down the fanout and
    returns {port: response} from the per-port return links once every
    awaited port answered or it gave up. A transaction is resent until
    every awaited port has given an answer that flags no parity error, up
    to BOOTSTRAP_ATTEMPTS sends; answers that flag one are dropped. Step 1
    reads the serials, awaiting every port; step 2 writes the mapping for
    each port p, awaiting p alone, since only its card acts on it; step 3
    reads every ID register at once, and the answer on each mapped port
    must carry that port. The result is verified only when every port got
    its ID and step 3 confirmed each one.
    """
    from .frontend import REG_ASSIGNED_ID, REG_MAP_PORT, REG_MAP_SERIAL_HI, REG_MAP_SERIAL_LO
    from .frontend import REG_SERIAL_HI, REG_SERIAL_LO
    from .messages import ChannelBTransaction

    def exchange(awaited, **fields):
        txn = ChannelBTransaction(broadcast=True, **fields)
        answers = {}
        for _ in range(BOOTSTRAP_ATTEMPTS):
            replies = send(txn, awaited)
            answers.update({port: r for port, r in replies.items() if not r.parity_error})
            if all(p in answers for p in awaited):
                break
        return answers

    hi = exchange(ports, read=True, address=REG_SERIAL_HI)
    lo = exchange(ports, read=True, address=REG_SERIAL_LO)
    serials: dict[int, int] = {}
    absent = []
    for port in ports:
        if port in hi and port in lo:
            serials[port] = ((hi[port].data & 0x1FFFFF) << 32) | lo[port].data
        else:
            absent.append(port)
    values = list(serials.values())
    if len(set(values)) != len(values):
        raise RuntimeError("duplicate front-end serial numbers detected")
    for port, serial in serials.items():
        exchange([port], write=True, address=REG_MAP_SERIAL_HI, data=(serial >> 32) & 0x1FFFFF)
        exchange([port], write=True, address=REG_MAP_SERIAL_LO, data=serial & 0xFFFFFFFF)
        exchange([port], write=True, address=REG_MAP_PORT, data=port)
    ids = exchange(list(serials), read=True, address=REG_ASSIGNED_ID)
    verified = not absent and all(port in ids and ids[port].data == port for port in serials)
    return BootstrapResult(id_map=serials, absent_ports=absent, verified=verified)
