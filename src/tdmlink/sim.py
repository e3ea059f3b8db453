"""Scenario configuration, the two engines, metrics and the BER tester.

Scenarios are deterministic: identical (config, seed) pairs give byte
identical outputs. The message-level engine moves whole frames with
integer-tick pacing; the symbol-level engine materializes every line
symbol. At zero bit-error rate both deliver identical message sequences.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import timebase
from .backend import MAX_LINKS
from .frontend import SERIAL_BITS, EventGeneratorConfig, check_card_settings, generator_bytes
from .messages import EVENT_HEADER_WORDS
from .message_engine import MessageEngine
from .symbol_engine import SymbolEngine
from .system import _is_whole, check_fault
from .transport import FRAME_OVERHEAD_BYTES
from .wire import PRBS_TAPS, PrbsGenerator, prbs_verify_words

__all__ = [
    "TICKS_PER_US",
    "SimConfig",
    "Metrics",
    "ScenarioResult",
    "run_scenario",
    "BerResult",
    "ber_test",
    "check_ber_test",
]

TICKS_PER_US = timebase.TICKS_PER_SECOND // 1_000_000

_ENGINES = {"message_level": MessageEngine, "symbol_level": SymbolEngine}


def _us_to_cycle_ticks(us: float) -> int:
    ticks = int(round(us * TICKS_PER_US))
    cycle = timebase.TICKS_PER_DOWN_CYCLE
    return -(-ticks // cycle) * cycle


# Each SimConfig field's kind is its annotation: int a whole number, float a
# finite real, bool a flag, and "X | None" also None. These are the bounds
# (low, high) or the choices of the fields SimConfig owns; the generator and
# card fields are checked by frontend (EventGeneratorConfig, check_card_settings).
BOUNDS = {
    "num_frontends": (1, MAX_LINKS),
    "seed": (0, math.inf), "trigger_count": (0, math.inf), "trigger_start_us": (0, math.inf),
    "request_rtt_us": (0, math.inf), "warmup_ms": (0, math.inf), "ber": (0, 1),
    "credit": (1, math.inf), "buffer_pool": (1, math.inf),
    "abstraction": tuple(_ENGINES), "trigger_mode": ("gated", "periodic"),
}


@dataclass
class SimConfig:
    num_frontends: int = 2
    seed: int = 1
    abstraction: str = "message_level"
    # Trigger plan. Periodic mode fires at start + i * period (absolute
    # ticks, identical at both abstraction levels); gated mode free-runs
    # against acknowledgments and pipeline depth.
    trigger_mode: str = "gated"
    trigger_count: int = 10
    trigger_period_us: float = 200.0
    trigger_start_us: float = 1000.0
    # Event generator of every card.
    channels_per_event: int = 4
    words_per_channel: int = 8
    fill_pattern: str = "counter"
    constant_word: int = 0xA5A5
    buffering_depth: int = 4
    clear_busy_on: str = "buffered"
    # DAQ transport.
    credit: int = 8
    mtu: int = 8192
    buffer_pool: int = 64
    request_rtt_us: float = 300.0
    # Links.
    ber: float = 0.0
    # Run control: duration-based (run_ms set) or event-count based.
    run_ms: float | None = None
    warmup_ms: float = 0.0
    keep_client_events: bool | None = None
    verify_provenance: bool = True
    faults: list = field(default_factory=list)
    serials: list | None = None

    def __post_init__(self):
        for spec in fields(self):
            name, value, rule = spec.name, getattr(self, spec.name), BOUNDS.get(spec.name)
            kind, nullable = spec.type.removesuffix(" | None"), spec.type.endswith(" | None")
            if value is None and nullable:
                continue
            if kind == "int" and not _is_whole(value):
                raise ValueError(f"{name} must be a whole number, not {value!r}")
            if kind == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ValueError(f"{name} must be a real number, not {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if kind == "bool" and not isinstance(value, bool):
                flag = "true, false or null" if nullable else "true or false"
                raise ValueError(f"{name} must be {flag}, not {value!r}")
            if kind == "int":
                setattr(self, name, int(value))
            if kind == "str" and rule and value not in rule:
                raise ValueError(f"{name} must be one of {rule}")
            if kind != "str" and rule and not rule[0] <= value <= rule[1]:
                low, high = rule
                raise ValueError(f"{name} must be " + (f">= {low}" if high == math.inf else f"{low}..{high}"))
        if self.trigger_mode == "periodic" and self.trigger_period_us <= 0:
            raise ValueError("a periodic trigger needs trigger_period_us > 0")
        if self.ber and self.abstraction != "symbol_level":
            raise ValueError("bit errors are a symbol-level feature")
        if self.trigger_count == 0 and self.run_ms is None:
            raise ValueError("trigger_count must be >= 1 in an event-count run (run_ms unset)")
        if self.run_ms is not None and self.run_ms <= self.warmup_ms:
            raise ValueError("run_ms must be > 0 and end after warmup_ms")
        if self.warmup_ms > 0 and self.abstraction == "symbol_level":
            raise ValueError("a measurement warm-up is a message-level feature")
        if self.keep_client_events is None:
            self.keep_client_events = self.run_ms is None
        self.generator_config()
        # A buffer holds the frame overhead and one record: a 2-byte tag and the largest
        # packet, an SOE packet (header word, event header, one channel's words, CRC-32).
        record = 2 + 2 + 2 * (EVENT_HEADER_WORDS + self.words_per_channel) + 4
        if self.mtu < FRAME_OVERHEAD_BYTES + record:
            raise ValueError(f"mtu must be >= {FRAME_OVERHEAD_BYTES + record} to hold a {record}-byte packet record")
        check_card_settings(self.buffering_depth, self.clear_busy_on)
        if self.serials is not None:
            bad = [serial for serial in self.serials if not _is_whole(serial)]
            if bad:
                raise ValueError(f"serials must be whole numbers, not {bad[0]!r}")
            self.serials = [int(serial) for serial in self.serials]
            serials = set(self.serials[: self.num_frontends])
            if len(serials) < self.num_frontends:
                raise ValueError("serials must give each of num_frontends cards a distinct one")
            if not all(0 <= serial < 1 << SERIAL_BITS for serial in serials):
                raise ValueError(f"serials must be {SERIAL_BITS}-bit numbers")
        self.faults = [check_fault(fault, self) for fault in self.faults]
        clash = [(f["type"], f["link"]) if f["type"] == "soe_skew" else tuple(f.values())
                 for f in self.faults if f["type"] in ("soe_skew", "line_flip")]
        if len(set(clash)) < len(clash):
            raise ValueError("two soe_skew faults on one link or two equal line_flip faults override or cancel")

    # -- derived values --------------------------------------------------------

    @property
    def trigger_period_ticks(self) -> int:
        return _us_to_cycle_ticks(self.trigger_period_us)

    @property
    def trigger_start_tick(self) -> int:
        return _us_to_cycle_ticks(self.trigger_start_us)

    @property
    def request_rtt_ticks(self) -> int:
        return int(round(self.request_rtt_us * TICKS_PER_US))

    @property
    def run_ticks(self) -> int | None:
        if self.run_ms is None:
            return None
        return _us_to_cycle_ticks(self.run_ms * 1000)

    @property
    def measure_warmup_ticks(self) -> int:
        return int(round(self.warmup_ms * 1000 * TICKS_PER_US))

    def generator_config(self) -> EventGeneratorConfig:
        return EventGeneratorConfig(
            channels_per_event=self.channels_per_event,
            words_per_channel=self.words_per_channel,
            fill_pattern=self.fill_pattern,
            constant_word=self.constant_word,
        )

    def expected_bytes_fn(self):
        if self.verify_provenance and self.fill_pattern == "counter":
            return generator_bytes
        return None

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        return cls.from_dict(json.loads(text))


def make_serials(seed: int, n: int) -> list[int]:
    """Deterministic distinct 53-bit serial numbers."""
    rng = np.random.default_rng(seed ^ 0x53E81A1)
    out: list[int] = []
    seen = set()
    while len(out) < n:
        v = int(rng.integers(0, 1 << 53))
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class Metrics:
    abstraction: str
    seed: int
    num_frontends: int
    elapsed_ticks: int
    triggers_issued: int
    events_built: int
    events_incomplete: int
    halt_reason: str | None
    event_rate_hz: float
    throughput_MB_s: float
    client: dict
    per_link: dict
    bootstrap: dict
    violations: list

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json_lines(self) -> str:
        """Machine-readable diagnostics, one JSON object per line."""
        # client, per_link and bootstrap get lines of their own.
        run = {k: v for k, v in asdict(self).items() if k not in ("client", "per_link", "bootstrap")}
        run.update(kind="run", event_rate_hz=round(self.event_rate_hz, 6),
                   throughput_MB_s=round(self.throughput_MB_s, 6))
        lines = [
            json.dumps(run, sort_keys=True),
            json.dumps({"kind": "client", **self.client}, sort_keys=True),
            json.dumps({"kind": "bootstrap", **self.bootstrap}, sort_keys=True),
        ]
        for port in sorted(self.per_link):
            lines.append(json.dumps({"kind": "link", "port": port, **self.per_link[port]}, sort_keys=True))
        return "\n".join(lines) + "\n"


@dataclass
class ScenarioResult:
    config: SimConfig
    metrics: Metrics
    engine: object

    @property
    def client(self):
        return self.engine.client

    def client_digest(self) -> str:
        """Digest of the delivered message sequence (for determinism and
        cross-abstraction comparisons)."""
        h = hashlib.sha256()
        for ev in self.engine.client.events:
            h.update(repr(ev.key()).encode())
        return h.hexdigest()


def run_scenario(config: SimConfig) -> ScenarioResult:
    engine = _ENGINES[config.abstraction](config)
    engine.run()

    builder = engine.builder
    client_stats = asdict(engine.client.stats)
    payload = engine.measured_client_payload()
    link_payload = engine.measured_link_payload()
    seconds = engine.measured_ticks() * timebase.TICK_SECONDS
    up_c_bps = timebase.TICKS_PER_SECOND // timebase.UP_TICKS_PER_CHANNEL_BIT["C"]
    per_link = {}
    for port, counters in builder.counters.items():
        pump = engine.pumps[port]
        per_link[port] = {
            "packets": counters.packets,
            "payload_bytes": counters.payload_bytes,
            "crc_drops": counters.crc_drops,
            "pump_faults": pump.counters.faults,
            "lost_triggers": engine.cards[port].lost_triggers,
            # Fraction of the upstream channel C data share actually filled
            # with delivered event payload during the measurement window.
            "utilization_c": (8 * link_payload.get(port, 0)) / (seconds * up_c_bps),
        }
    boot = engine.bootstrap_result
    metrics = Metrics(
        abstraction=config.abstraction,
        seed=config.seed,
        num_frontends=config.num_frontends,
        elapsed_ticks=engine.now,
        triggers_issued=engine.trigger_unit.issued,
        events_built=builder.events_built,
        events_incomplete=builder.events_incomplete,
        halt_reason=builder.halt_reason,
        event_rate_hz=builder.events_built / (engine.now * timebase.TICK_SECONDS)
        if engine.now > 0
        else 0.0,
        throughput_MB_s=payload / seconds / 1e6 if seconds > 0 else 0.0,
        client=client_stats,
        per_link=per_link,
        bootstrap={
            "verified": boot.verified if boot else False,
            "mapped_ports": len(boot.id_map) if boot else 0,
            "absent_ports": boot.absent_ports if boot else [],
        },
        violations=list(engine.violations),
    )
    return ScenarioResult(config=config, metrics=metrics, engine=engine)


# ---------------------------------------------------------------------------
# Embedded bit-error-rate tester

BER_DRAW_CHUNK = 1 << 20  # channel-error draws per rng call: 8 MB of float64


@dataclass
class BerResult:
    pattern: str
    bits: int
    window_bits: int
    errors: int
    error_positions: list
    measured_ber: float
    ber_95cl_bound: float | None
    injected: list
    injected_detected: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def check_ber_test(pattern: str, duration_bits: float, ber: float, window_bits: int, inject: tuple, seed: int = 0):
    """Check the inputs of `ber_test`; returns the PRBS order, the duration
    and the materialized window in bits, or raises ValueError."""
    suffix = pattern.removeprefix("prbs")
    if not suffix.isdigit() or int(suffix) not in PRBS_TAPS:
        raise ValueError(f"pattern must be one of {['prbs%d' % k for k in sorted(PRBS_TAPS)]}")
    order = int(suffix)
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be within [0, 1]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not math.isfinite(duration_bits):
        raise ValueError("duration must be finite")
    duration = int(duration_bits)
    if duration < order + 1:
        raise ValueError("duration too short for the pattern order")
    window = min(duration, int(window_bits))
    if window < order + 1:
        raise ValueError("window too short for the pattern order")
    for pos in inject:
        if not order <= pos < window:
            raise ValueError(f"inject position {pos} outside {order}..{window - 1}")
    return order, duration, window


def ber_test(
    pattern: str = "prbs7",
    duration_bits: float = 1e6,
    ber: float = 0.0,
    window_bits: int = 1_000_000,
    inject: tuple = (),
    seed: int = 0,
) -> BerResult:
    """Run the embedded BER tester over `duration_bits` effective bits.

    A window of up to `window_bits` is generated as one array of 64-bit
    words, an eighth of a byte per bit, corrupted in place by the channel
    and the injected flips, and checked by the self-seeding verifier on the
    words; the remainder is fast-forwarded: the coding
    chain is the identity (scramble then descramble cancels exactly, as the
    codec property tests establish), so an error-free channel contributes
    zero errors at any length, and a channel with bit-error probability p
    contributes a binomially sampled count. A zero-error run of N bits
    reports the rule-of-three 95% confidence bound 3/N on the BER. The
    inputs are checked by `check_ber_test` before anything is generated.
    """
    order, duration, window = check_ber_test(pattern, duration_bits, ber, window_bits, inject, seed)
    rng = np.random.default_rng(seed)

    words = PrbsGenerator(order, seed=1).stream_words(window)
    packed = words.view(np.uint8)  # bit i is bit 7 - i % 8 of byte i // 8
    if ber > 0.0:
        # Chunked draws into one buffer give the same values as one draw of
        # `window`, and hold one chunk at a time.
        draw = np.empty(min(BER_DRAW_CHUNK, window))
        for start in range(0, window, BER_DRAW_CHUNK):
            chunk = rng.random(out=draw[: min(BER_DRAW_CHUNK, window - start)])
            hits = start + np.flatnonzero(chunk < ber)
            np.bitwise_xor.at(packed, hits >> 3, (0x80 >> (hits & 7)).astype(np.uint8))
    for pos in inject:
        packed[pos >> 3] ^= 0x80 >> (pos & 7)  # a position injected twice cancels itself
    positions = prbs_verify_words(order, words, window)
    window_errors = int(len(positions))

    remainder = duration - window
    remainder_errors = int(rng.binomial(remainder, ber)) if ber > 0.0 and remainder else 0
    errors = window_errors + remainder_errors

    detected_set = set(positions.tolist())
    detected = all(int(p) in detected_set for p in inject)
    return BerResult(
        pattern=pattern,
        bits=duration,
        window_bits=window,
        errors=errors,
        error_positions=[int(p) for p in positions[:100]],
        measured_ber=errors / duration,
        ber_95cl_bound=(3.0 / duration) if errors == 0 else None,
        injected=[int(p) for p in inject],
        injected_detected=detected,
    )
