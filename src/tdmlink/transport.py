"""Datagram transfer of filled buffers to the DAQ client.

Wire format (big-endian): magic 0xAA55 (16 bits), frame sequence number
(32 bits), flags (16 bits: bit 0 = incomplete_event, bit 1 =
last_of_event), then the buffer payload. A buffer keeps the frame
overhead (FRAME_OVERHEAD_BYTES, this header included) back from its
capacity. The server copies the buffer's payload into the frame, and
`TransportFrame.serialize` joins header and payload into new bytes.

Flow control is frames-per-request: the client grants the server an
absolute allowance of N frames; the server sends while allowance remains
and goes idle otherwise. The client renews the grant as soon as the first
frame of a burst arrives, so with a large enough allowance the link never
drains (saturation), while small allowances leave the server idle for one
request round trip per burst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .backend import (
    MAX_LINKS,
    RECORD_EVENT_HEADER,
    RECORD_FRAGMENT_BASE,
    RECORD_GLOBAL_EOE,
    RECORD_GLOBAL_EOE_INCOMPLETE,
    BufferDescriptor,
    BufferPool,
)
from .messages import data_start, fragment_crc_ok, fragment_length, soe_fields

__all__ = [
    "TRANSPORT_MAGIC",
    "TRANSPORT_HEADER_BYTES",
    "FRAME_OVERHEAD_BYTES",
    "ETHERNET_BPS",
    "FLAG_INCOMPLETE_EVENT",
    "FLAG_LAST_OF_EVENT",
    "FLAG_FIRST_OF_BURST",
    "TransportError",
    "TransportFrame",
    "CreditGrant",
    "TransportServer",
    "ClientEvent",
    "ClientStats",
    "TransportClient",
    "parse_records",
    "throughput_model",
    "saturation_credit",
]

TRANSPORT_MAGIC = 0xAA55
TRANSPORT_HEADER_BYTES = 8
# Per-frame wire overhead used for timing and the analytic model: the
# Ethernet+IP+UDP equivalent of the paper's transport, 66 bytes, of which
# this header occupies 8.
FRAME_OVERHEAD_BYTES = 66
ETHERNET_BPS = 1_000_000_000  # the DAQ side's line rate

FLAG_INCOMPLETE_EVENT = 1 << 0
FLAG_LAST_OF_EVENT = 1 << 1
# First frame sent under the current credit grant; the client renews its
# grant upon receiving it, which pipelines requests against the burst.
FLAG_FIRST_OF_BURST = 1 << 2


class TransportError(ValueError):
    pass


@dataclass(frozen=True)
class TransportFrame:
    sequence: int
    flags: int
    payload: bytes

    def serialize(self) -> bytes:
        return (
            TRANSPORT_MAGIC.to_bytes(2, "big")
            + (self.sequence & 0xFFFFFFFF).to_bytes(4, "big")
            + (self.flags & 0xFFFF).to_bytes(2, "big")
            + self.payload
        )

    @classmethod
    def parse(cls, data: bytes) -> "TransportFrame":
        if len(data) < TRANSPORT_HEADER_BYTES:
            raise TransportError("frame shorter than its header")
        if int.from_bytes(data[0:2], "big") != TRANSPORT_MAGIC:
            raise TransportError("bad frame magic")
        return cls(
            sequence=int.from_bytes(data[2:6], "big"),
            flags=int.from_bytes(data[6:8], "big"),
            payload=data[8:],
        )


@dataclass(frozen=True)
class CreditGrant:
    frames_allowed: int

    def __post_init__(self):
        if self.frames_allowed < 1:
            raise TransportError("credit grant must allow at least one frame")


class TransportServer:
    """Drains the filled-buffer queue while client credit remains."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.credit = 0
        self.sequence = 0
        self.frames_since_grant = 0
        self.last_grant = 0
        self.max_burst_violation = False

    def on_grant(self, grant: CreditGrant):
        # Grants are absolute new allowances, not cumulative.
        self.credit = grant.frames_allowed
        self.last_grant = grant.frames_allowed
        self.frames_since_grant = 0

    def next_frame(self) -> tuple[TransportFrame, BufferDescriptor] | None:
        """Pop one filled buffer and frame it while credit remains; the caller
        releases the descriptor back to the pool once the send has completed."""
        if self.credit <= 0 or not self.pool.i_fifo:
            return None
        desc = self.pool.pop_filled()
        flags = 0
        if desc.incomplete_event:
            flags |= FLAG_INCOMPLETE_EVENT
        if desc.has_event_end:
            flags |= FLAG_LAST_OF_EVENT
        if self.frames_since_grant == 0:
            flags |= FLAG_FIRST_OF_BURST
        frame = TransportFrame(self.sequence, flags, bytes(desc.payload))
        self.sequence += 1
        self.credit -= 1
        self.frames_since_grant += 1
        if self.frames_since_grant > self.last_grant:
            self.max_burst_violation = True
        return frame, desc


def parse_records(payload: bytes) -> list[tuple[int, bytes]]:
    """Walk (tag, packet) records of one buffer; records never span buffers.
    This walk applies the length rule to every packet (`fragment_length`),
    so each packet returned is as long as its header announces."""
    out = []
    n = len(payload)
    pos = 0
    while pos < n:
        if pos + 2 > n:
            raise TransportError("dangling record tag")
        if pos + 4 > n:
            raise TransportError("record truncated before packet header")
        total = fragment_length(payload[pos + 2] << 8 | payload[pos + 3])
        if total is None:
            raise TransportError("record holds no fragment packet")
        end = pos + 2 + total
        if end > n:
            raise TransportError("record truncated")
        out.append((payload[pos] << 8 | payload[pos + 1], payload[pos + 2 : end]))
        pos = end
    return out


@dataclass
class ClientEvent:
    event_number: int
    timestamp: int
    fragments: list = field(default_factory=list)  # (link, packet bytes) in arrival order
    incomplete: bool = False
    gap_affected: bool = False

    def key(self):
        """Content identity used for cross-engine comparison."""
        return (self.event_number, self.timestamp, tuple(self.fragments), self.incomplete)


@dataclass
class ClientStats:
    frames: int = 0
    payload_bytes: int = 0
    magic_errors: int = 0
    gaps: int = 0
    events: int = 0
    incomplete_events: int = 0
    gap_events: int = 0
    crc_failures: int = 0
    provenance_errors: int = 0
    structure_errors: int = 0


class TransportClient:
    """Reassembles events from the record stream and keeps statistics.

    Malformed input never raises: a frame whose payload does not parse into
    records, and an event-header record whose packet is not SOE (so carries
    no event header), count one structure error each and are taken as lost,
    as a sequence gap is.

    `expected_bytes_fn(link, channel_index, nwords)` enables bit-exact
    provenance verification of generator payloads. It is called once per
    fragment record, with the record's link, the fragment's position among
    that link's fragments of the event, and its payload length in 16-bit
    words after any SOE event header. It must return the expected payload
    as big-endian bytes, which are compared with the record's bytes as
    they are; any difference counts one provenance error.
    """

    def __init__(self, expected_bytes_fn=None, keep_events: bool = True):
        self.stats = ClientStats()
        self.events: list[ClientEvent] = []
        self.expected_bytes_fn = expected_bytes_fn
        self.keep_events = keep_events
        self._next_sequence = None
        self._open: ClientEvent | None = None
        self._gap_pending = False
        self._frag_index: dict[int, int] = {}

    def receive(self, data: bytes):
        """Take one frame: a frame whose records all parse is handled in one
        walk over them, fragment records first; one that does not is lost
        whole."""
        try:
            frame = TransportFrame.parse(data)
        except TransportError:
            self.stats.magic_errors += 1
            return
        stats = self.stats
        if self._next_sequence is not None and frame.sequence != self._next_sequence:
            stats.gaps += 1
            self._gap_pending = True
        self._next_sequence = (frame.sequence + 1) & 0xFFFFFFFF  # the wire's 32-bit counter wraps
        stats.frames += 1
        stats.payload_bytes += len(frame.payload)
        try:
            records = parse_records(frame.payload)
        except TransportError:
            self._lost()
            return
        expected_bytes_fn = self.expected_bytes_fn
        for tag, packet in records:
            event = self._open
            link = tag - RECORD_FRAGMENT_BASE
            if 0 <= link < MAX_LINKS and event is not None:
                # `parse_records` applied the length rule; only the CRC is left.
                if not fragment_crc_ok(packet):
                    stats.crc_failures += 1
                if expected_bytes_fn is not None:
                    channel = self._frag_index.get(link, 0)
                    self._frag_index[link] = channel + 1
                    payload = packet[data_start(packet) : -4]
                    if payload != expected_bytes_fn(link, channel, len(payload) // 2):
                        stats.provenance_errors += 1
                event.fragments.append((link, packet))
            elif tag == RECORD_EVENT_HEADER:
                if event is not None:  # the open event never ended
                    stats.structure_errors += 1
                    self._close(event)
                fields = soe_fields(packet)
                if fields is None:  # no event number or timestamp to open it with
                    self._open = None
                    self._lost()
                    continue
                event = self._open = ClientEvent(*fields)
                self._frag_index = {}
            elif event is not None and tag in (RECORD_GLOBAL_EOE, RECORD_GLOBAL_EOE_INCOMPLETE):
                event.incomplete = tag == RECORD_GLOBAL_EOE_INCOMPLETE
                self._open = None
            else:
                stats.structure_errors += 1
                continue
            if self._gap_pending:
                event.gap_affected = True
                self._gap_pending = False
            if self._open is None:  # an end-of-event record ended it
                self._close(event)

    def _lost(self):
        """Count input that does not parse and take it as lost, as a
        sequence gap is: the next open event is gap-affected."""
        self.stats.structure_errors += 1
        self._gap_pending = True

    def _close(self, event: ClientEvent):
        self.stats.events += 1
        if event.incomplete:
            self.stats.incomplete_events += 1
        if event.gap_affected:
            self.stats.gap_events += 1
        if self.keep_events:
            self.events.append(event)


def throughput_model(
    credit: int,
    mtu_bytes: int,
    link_rate_bps: float = ETHERNET_BPS,
    request_rtt_s: float = 300e-6,
    overhead_bytes: int = FRAME_OVERHEAD_BYTES,
) -> float:
    """Analytic sustained throughput in MB/s.

    Per credit cycle the server ships `credit` frames of payload
    (mtu - overhead). With grant renewal triggered by the first frame of a
    burst, the cycle lasts one burst serialization when the allowance is
    large, and one request round trip plus one frame when it is small:
    cycle = max(credit * T_frame, request_rtt + T_frame).
    """
    if credit < 1 or mtu_bytes <= overhead_bytes or link_rate_bps <= 0:
        raise ValueError("model parameters must be positive and mtu > overhead")
    t_frame = mtu_bytes * 8 / link_rate_bps
    cycle = max(credit * t_frame, request_rtt_s + t_frame)
    return credit * (mtu_bytes - overhead_bytes) / cycle / 1e6


def saturation_credit(mtu_bytes: int, link_rate_bps: float = ETHERNET_BPS,
                      request_rtt_s: float = 300e-6) -> int:
    """Smallest credit at which the model reaches the payload cap."""
    t_frame = mtu_bytes * 8 / link_rate_bps
    return math.ceil(1 + request_rtt_s / t_frame)
