"""tdmlink: bit-exact library and deterministic simulator for an asymmetric
detector-readout network.

One back-end fans out a 100 Mbps stream (Manchester-coded, 200 Mbaud) to up
to 32 front-end cards; each card returns data on its own 400 Mbps scrambled
point-to-point link. Three time-division-multiplexed virtual channels carry
trigger traffic (A), register transactions (B) and event data (C). The
back-end builds events from all links and ships them to a DAQ client with
frames-per-request credit flow control.

Layer map:

    bits          bit-array helpers (hex packing is MSB-first)
    wire          TDM, Manchester, x^43+1 scrambler, PRBS, receiver sync
    messages      channel A/B/C frames, fragment packets, CRC-32
    streams       line transmitters and receivers, one row per link
    frontend      emulated front-end card
    backend       DataPump, EventBuilder, PacketMover, bootstrap, triggers
    transport     credit-controlled DAQ transfer and the throughput model
    system        back-end, cards and transport, built once for both engines
    message_engine, symbol_engine
                  how frames cross the links and how time advances
    sim           scenario configs, metrics, BER tester
    vectors       golden line-coding and frame vectors
"""

__version__ = "0.1.0"

from . import backend, bits, frontend, messages, streams, timebase, transport, vectors, wire
from .sim import BerResult, Metrics, ScenarioResult, SimConfig, ber_test, run_scenario
from .transport import throughput_model

__all__ = [
    "backend",
    "bits",
    "frontend",
    "messages",
    "streams",
    "timebase",
    "transport",
    "vectors",
    "wire",
    "SimConfig",
    "ScenarioResult",
    "Metrics",
    "BerResult",
    "run_scenario",
    "ber_test",
    "throughput_model",
]
