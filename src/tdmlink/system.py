"""One back-end with its front-end cards and DAQ transport.

The back-end, the cards and the transport are the same system whatever the
links are made of. `System` builds them once and owns the rules that do not
depend on the link model: the fault table (`check_fault` checks each fault
once, when `SimConfig` is built) and fault application, request tokens, the
event-count flush, the stop test, the end-of-run audit and the measurement
window. The engines subclass it and supply only how a frame crosses a link
and how time advances.
"""

from __future__ import annotations

import numpy as np

from .backend import BufferPool, DataPump, EventBuilder, PacketMover, TriggerUnit, bootstrap_sequence
from .frontend import FrontEndCard
from .transport import FRAME_OVERHEAD_BYTES, TransportClient, TransportServer

__all__ = ["FAULTS", "System", "check_fault"]

# Each fault type's level ("both" or one abstraction) and its keys besides
# "type", each with its default (None: required).
FAULTS = {
    "corrupt_fragment": ("both", {"link": None, "event": None, "channel": None}),
    "soe_skew": ("both", {"link": None, "delta": 1}),
    "drop_packet": ("message_level", {"link": None, "index": None}),
    "line_flip": ("symbol_level", {"link": None, "direction": None, "tick": None}),
    "link_reset": ("symbol_level", {"link": None, "tick": None}),
}


def _is_whole(value) -> bool:
    """The rule of every whole-number config value: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fault(fault, config) -> dict:
    """Check one fault of `config`; returns it with its defaults filled in."""
    if not isinstance(fault, dict):
        raise ValueError(f"fault {fault!r} is not a dict")
    kind = fault.get("type")
    level, keys = FAULTS[kind] if isinstance(kind, str) and kind in FAULTS else (None, {})
    if level not in ("both", config.abstraction):
        raise ValueError(f"fault type {kind!r} not supported at {config.abstraction}")
    missing = [key for key, default in keys.items() if default is None and key not in fault]
    if missing:
        raise ValueError(f"{kind} fault lacks {missing}")
    extra = sorted(set(fault) - {"type", *keys})
    if extra:
        raise ValueError(f"{kind} fault does not take {extra}")
    checked = {"type": kind, **{key: fault.get(key, default) for key, default in keys.items()}}
    if checked.get("direction", "up") not in ("up", "down"):
        raise ValueError(f"line_flip direction {checked['direction']!r} is not 'up' or 'down'")
    odd = [key for key in keys if key != "direction" and not _is_whole(checked[key])]
    if odd:
        raise ValueError(f"{kind} fault values {odd} are not whole numbers: {checked}")
    checked.update((key, int(checked[key])) for key in keys if key != "direction")
    if not 0 <= checked["link"] < config.num_frontends:
        raise ValueError(f"{kind} fault names link {checked['link']}, outside the cards")
    if not 0 <= checked.get("channel", 0) < config.channels_per_event:
        raise ValueError(f"{kind} fault names channel {checked['channel']}, outside the event's channels")
    if kind == "soe_skew" and checked["delta"] & 0xFFFFFFFF == 0:  # event numbers are 32-bit
        raise ValueError(f"soe_skew delta {checked['delta']} skews no event number")
    if min(checked.get(key, 0) for key in ("event", "index", "tick")) < 0:
        raise ValueError(f"{kind} fault has a value below 0: {checked}")
    return checked


class System:
    def __init__(self, config):
        self.config = config
        self.run_ticks = config.run_ticks
        self.now = 0
        self.violations: list[str] = []
        self.bootstrap_result = None

        from .sim import make_serials  # sim imports the engines, which import this module

        gen = config.generator_config()
        serials = config.serials or make_serials(config.seed, config.num_frontends)
        self.cards = {
            port: FrontEndCard(
                serial_number=serials[port],
                generator=gen,
                buffering_depth=config.buffering_depth,
                clear_busy_on=config.clear_busy_on,
            )
            for port in range(config.num_frontends)
        }
        self.ports = tuple(sorted(self.cards))
        self.pumps = {port: DataPump() for port in self.ports}
        self.pool = BufferPool(
            size=config.buffer_pool, capacity=config.mtu, header_reserve=FRAME_OVERHEAD_BYTES
        )
        self.mover = PacketMover(self.pool)
        self.builder = EventBuilder(list(self.ports), self.mover)
        self.server = TransportServer(self.pool)
        self.client = TransportClient(
            expected_bytes_fn=config.expected_bytes_fn(),
            keep_events=config.keep_client_events,
        )
        self.trigger_unit = TriggerUnit(
            mode=config.trigger_mode,
            count=config.trigger_count,
            period_ticks=config.trigger_period_ticks,
            start_tick=config.trigger_start_tick,
            max_in_flight=config.buffering_depth,
        )

        self.link_faults = []
        for fault in config.faults:
            if fault["type"] == "corrupt_fragment":
                self.cards[fault["link"]].corrupt_fragments.add((fault["event"], fault["channel"]))
            elif fault["type"] == "soe_skew":
                self.cards[fault["link"]].event_number_offset = fault["delta"]
            else:
                self.link_faults.append(fault)

        self.measure_start_tick = 0
        self._payload_snapshot = {}
        self._client_payload_snapshot = 0

    def bootstrap(self, exchange):
        """ID assignment over `exchange(txn) -> {port: response}`; enables the
        pump of every card that received its ID."""
        self.bootstrap_result = bootstrap_sequence(exchange, list(self.ports))
        for port in self.bootstrap_result.id_map:
            self.pumps[port].enabled = True

    def _next_issue_tick(self) -> int | None:
        """The tick at which the next trigger may go out, or None (see
        `TriggerUnit.next_issue_tick`)."""
        return self.trigger_unit.next_issue_tick(self.now, self.builder.events_built, len(self.cards))

    def _request_mask(self) -> int:
        """Post a data request for every pump with room for a packet; returns
        the channel C target mask, 0 when no pump wants one."""
        mask = 0
        for port in self.ports:
            pump = self.pumps[port]
            if pump.wants_request():
                mask |= 1 << port
                pump.request_posted()
        return mask

    def _build(self) -> bool:
        """Run the event builder; returns whether it moved (`EventBuilder.run`).
        Event-count runs then push the last partially filled buffer out once
        the whole trigger plan is built."""
        moved = self.builder.run(self.pumps)
        if (
            self.run_ticks is None
            and self.trigger_unit.issued >= self.trigger_unit.count
            and self.builder.events_built >= self.trigger_unit.count
        ):
            self.mover.flush()
        return moved

    def _plan_delivered(self) -> bool:
        return (
            self.trigger_unit.issued >= self.trigger_unit.count
            and self.client.stats.events >= self.trigger_unit.count
        )

    def _audit(self):
        if not self.pool.audit():
            self.violations.append("buffer descriptor conservation broken")
        if self.server.max_burst_violation:
            self.violations.append("transport server exceeded granted credit")
        # An event-count run owes the whole plan unless the builder halted,
        # which the metrics report on their own.
        if (
            self.run_ticks is None
            and not self._plan_delivered()
            and self.builder.halt_reason is None
        ):
            self.violations.append(
                f"run ended with {self.client.stats.events} of "
                f"{self.trigger_unit.count} planned events delivered"
            )

    # -- measurement -----------------------------------------------------------------

    def _snapshot_measurement(self):
        self.measure_start_tick = self.now
        self._payload_snapshot = {
            port: c.payload_bytes for port, c in self.builder.counters.items()
        }
        self._client_payload_snapshot = self.client.stats.payload_bytes

    def measured_link_payload(self) -> dict[int, int]:
        return {
            port: c.payload_bytes - self._payload_snapshot.get(port, 0)
            for port, c in self.builder.counters.items()
        }

    def measured_client_payload(self) -> int:
        return self.client.stats.payload_bytes - self._client_payload_snapshot

    def measured_ticks(self) -> int:
        return max(self.now - self.measure_start_tick, 1)
