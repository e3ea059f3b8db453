"""Per-layer metrics of a traced run, and what each one should move.

Each row names a metric, the end-to-end metric and workloads it is
expected to move, and how it is derived from the tracer's boundary totals.
Units and directions are those of the same names in BENCHMARK.json. Rates
use the boundary's inclusive time (the call as its caller sees it);
`self_s` rows use self time. Times and counts are per traced scenario. A
boundary with no calls on a workload reports 0.
"""

from __future__ import annotations


def _per_scenario(tr, value):
    return value / tr.scenarios if tr.scenarios else 0.0


def _self(layer):
    return lambda tr, ctx: _per_scenario(tr, tr.layer_self_s()[layer])


def _us_per_call(boundary):
    def f(tr, ctx):
        st = tr.stat(boundary)
        return 1e6 * st.incl_s / st.calls if st.calls else 0.0
    return f


def _calls(boundary):
    return lambda tr, ctx: _per_scenario(tr, tr.stat(boundary).calls)


def _work(*boundaries):
    return lambda tr, ctx: _per_scenario(tr, sum(tr.stat(b).work for b in boundaries))


def _rate(boundary, scale=1.0, count="calls", time_of=None):
    """count / inclusive seconds of `time_of` (default: the same boundary)."""
    def f(tr, ctx):
        n = getattr(tr.stat(boundary), count)
        t = tr.stat(time_of or boundary).incl_s
        return n / t / scale if t > 0 else 0.0
    return f


def _mbit(boundary):
    return _rate(boundary, scale=1e6, count="work")


def _hit_ratio(boundary, invert=False):
    def f(tr, ctx):
        st = tr.stat(boundary)
        if not st.calls:
            return 0.0
        ratio = st.hits / st.calls
        return 1.0 - ratio if invert else ratio
    return f


def _peak(boundary):
    return lambda tr, ctx: float(tr.stat(boundary).peak)


def _ctx(key):
    return lambda tr, ctx: ctx[key]


FB = "messages.FragmentPacket"
CLIENT = "transport.TransportClient.receive"
WRITE = "backend.PacketMover.write_record"

# What each row should move: (end-to-end metrics, workloads).
ON_MESSAGES = (("wall_s",), ("sweep_c8_jumbo", "readout_verify"))
ON_TRANSPORT = (("wall_s",), ("readout_verify", "sweep_c8_jumbo"))
ON_SWEEP = (("wall_s",), ("sweep_c8_jumbo",))
ON_SYMBOL = (("sim_ticks_per_s",), ("symbol_32",))
ON_PRBS = (("wall_s", "peak_rss_mb"), ("ber_prbs31",))
ON_BER = (("wall_s",), ("ber_prbs31",))
ON_ALL = (("wall_s",), ("sweep_c8_jumbo", "readout_verify", "symbol_32", "ber_prbs31"))

# (name, what it should move, derivation)
ROWS = [
    ("messages.self_s", ON_MESSAGES, _self("messages")),
    ("messages.fragment_build.us_per_call", ON_MESSAGES, _us_per_call(f"{FB}.build")),
    ("messages.fragment_serialize.us_per_call", ON_MESSAGES, _us_per_call(f"{FB}.serialize")),
    ("messages.fragment_deserialize.us_per_call", ON_MESSAGES, _us_per_call(f"{FB}.deserialize")),
    ("messages.fragment_deserialize.calls", ON_MESSAGES, _calls(f"{FB}.deserialize")),
    ("frontend.self_s", ON_MESSAGES, _self("frontend")),
    ("frontend.on_channel_c.us_per_call", ON_MESSAGES, _us_per_call("frontend.FrontEndCard.on_channel_c")),
    ("frontend.packets_out", ON_MESSAGES,
     _work("frontend.FrontEndCard.on_channel_a", "frontend.FrontEndCard.on_channel_c")),
    ("transport.self_s", ON_TRANSPORT, _self("transport")),
    ("transport.client.us_per_frame", ON_TRANSPORT, _us_per_call(CLIENT)),
    ("transport.client.frames_per_s", ON_TRANSPORT, _rate(CLIENT)),
    ("transport.server.send_ratio", ON_TRANSPORT, _hit_ratio("transport.TransportServer.next_frame")),
    ("transport.model_error_pct", ON_SWEEP, _ctx("model_error_pct")),
    ("backend.self_s", ON_SWEEP, _self("backend")),
    ("backend.builder.step_yield", ON_SWEEP, _hit_ratio("backend.EventBuilder.step")),
    ("backend.builder.packets_per_s", ON_SWEEP,
     _rate("backend.DataPump.unload", time_of="backend.EventBuilder.run")),
    ("backend.mover.stall_ratio", ON_SWEEP, _hit_ratio(WRITE, invert=True)),
    ("backend.mover.records_per_s", ON_SWEEP, _rate(WRITE, count="hits")),
    ("backend.pump.request_ratio", ON_SWEEP, _hit_ratio("backend.DataPump.wants_request")),
    ("backend.pool.filled_max", ON_SWEEP, _peak("backend.BufferPool.push_filled")),
    ("message_engine.self_s", ON_SWEEP, _self("message_engine")),
    ("wire.self_s", ON_SYMBOL, _self("wire")),
    ("wire.scramble.Mbit_per_s", ON_SYMBOL, _mbit("wire.Scrambler.scramble")),
    ("wire.descramble.Mbit_per_s", ON_SYMBOL, _mbit("wire.Descrambler.descramble")),
    ("wire.manchester_encode.Mbit_per_s", ON_SYMBOL, _mbit("wire.manchester_encode")),
    ("wire.manchester_decode.Mbit_per_s", ON_SYMBOL, _mbit("wire.manchester_decode")),
    ("wire.tdm_interleave.Mbit_per_s", ON_SYMBOL, _mbit("wire.tdm_interleave")),
    ("wire.tdm_deinterleave.Mbit_per_s", ON_SYMBOL, _mbit("wire.tdm_deinterleave")),
    ("streams.self_s", ON_SYMBOL, _self("streams")),
    ("streams.down_tx.Mbit_per_s", ON_SYMBOL, _mbit("streams.DownstreamTransmitter.produce_cycles")),
    ("streams.down_rx.Mbit_per_s", ON_SYMBOL, _mbit("streams.DownstreamReceiver.feed")),
    ("streams.up_tx.Mbit_per_s", ON_SYMBOL, _mbit("streams.UpstreamTransmitter.produce")),
    ("streams.up_rx.Mbit_per_s", ON_SYMBOL, _mbit("streams.UpstreamReceiver.feed")),
    ("bits.self_s", ON_SYMBOL, _self("bits")),
    ("symbol_engine.self_s", ON_SYMBOL, _self("symbol_engine")),
    ("timebase.self_s", ON_SYMBOL, _self("timebase")),
    ("wire.prbs_stream.Mbit_per_s", ON_PRBS, _mbit("wire.PrbsGenerator.stream")),
    ("wire.prbs_verify.Mbit_per_s", ON_PRBS, _mbit("wire.prbs_verify")),
    ("sim.self_s", ON_BER, _self("sim")),
]

# Whole-trace rows. The layer self times plus the remainder (time in the
# benchmark's own scenario span) add up to the traced wall time by
# construction: a span's self time is its duration less its children's.
TRACE_ROWS = [
    ("trace.wall_s", ON_ALL),
    ("trace.remainder_s", ON_ALL),
    ("trace.overhead_pct", ON_ALL),
]

NAMES = [r[0] for r in ROWS + TRACE_ROWS]


def derive(tracer, ctx) -> dict[str, float]:
    """Every per-layer metric from a tracer that ran at least one scenario."""
    out = {name: float(f(tracer, ctx)) for name, _, f in ROWS}
    out["trace.wall_s"] = _per_scenario(tracer, tracer.root_s)
    out["trace.remainder_s"] = _per_scenario(tracer, tracer.root_self_s)
    out["trace.overhead_pct"] = ctx["overhead_pct"]
    return out

