"""Golden vectors: line coding and message frames.

Line-coding vector file: text, one test per line,

    <direction> <hex-input> <hex-output>

with bits packed MSB-first (bit 0 of the stream is the MSB of the first
hex digit). Directions:

    down      input: logical TDM cycles (pre B-inversion), 4 bits/cycle;
              output: line symbols after B-inversion and Manchester coding
    up        input: logical TDM cycles (pre B-inversion); output: line
              bits after B-inversion and scrambling from the all-zero state
    scramble  input: raw bit stream; output: x^43+1 scrambler output from
              the all-zero state

The shipped file covers the idle patterns of both directions, the
downstream coding example, and the scrambler impulse recurrence.

Frame vector file: JSON list of entries, one per message frame,

    {"type": ..., "bits": N, "frame_hex": ..., "fields": {...}}

with the frame bits MSB-first and zero-padded to a whole number of hex
digits. Verification runs both ways: the fields must encode to the frame
and the frame must decode to the fields.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import messages as msg
from .bits import bits_from_hex, bits_to_hex
from .wire import (
    DOWNSTREAM_SCHEDULE,
    UPSTREAM_SCHEDULE,
    Scrambler,
    downstream_tx,
    tdm_deinterleave,
    upstream_tx,
)

__all__ = [
    "apply_direction",
    "default_vectors",
    "format_vectors",
    "verify_lines",
    "load_shipped",
    "default_frame_vectors",
    "verify_frame_vectors",
    "load_shipped_frames",
]

DATA_PACKAGE = "tdmlink.data"
VECTOR_FILENAME = "golden_vectors.txt"
FRAME_VECTOR_FILENAME = "frame_vectors.json"


def apply_direction(direction: str, bits):
    if direction == "down":
        return downstream_tx(*tdm_deinterleave(DOWNSTREAM_SCHEDULE, bits))
    if direction == "up":
        return upstream_tx(*tdm_deinterleave(UPSTREAM_SCHEDULE, bits), Scrambler(0))
    if direction == "scramble":
        return Scrambler(0).scramble(bits)
    raise ValueError(f"unknown vector direction {direction!r}")


def default_vectors() -> list[tuple[str, str, str]]:
    """The vectors shipped with the repository."""
    cases = []

    def add(direction, hex_in):
        out = apply_direction(direction, bits_from_hex(hex_in))
        cases.append((direction, hex_in, bits_to_hex(out)))

    add("down", "0")  # one idle cycle -> 65, the constant idle line pattern
    add("down", "0000")  # idle keeps repeating 65656565
    add("down", "a")  # one busy cycle: 1010 -> B slot inverted -> a9
    add("down", "4268")  # mixed traffic over four cycles
    add("up", "00000000")  # 8 idle cycles: B-inversion marker, scrambler
    add("up", "0000000000000000")  # idle past the 43-bit scrambler horizon
    add("scramble", "800000000000000000000000")  # impulse: taps at 0, 43, 86
    add("scramble", "000000000000")  # zero input is a fixed point
    return cases


def format_vectors(cases) -> str:
    return "".join(f"{d} {i} {o}\n" for d, i, o in cases)


def parse_lines(text: str) -> list[tuple[str, str, str]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'direction hex-in hex-out'")
        out.append((parts[0], parts[1], parts[2]))
    return out


def verify_lines(text: str) -> list[str]:
    """Recompute every vector; returns a list of failure descriptions."""
    failures = []
    for direction, hex_in, hex_out in parse_lines(text):
        got = bits_to_hex(apply_direction(direction, bits_from_hex(hex_in)))
        if got != hex_out.lower():
            failures.append(f"{direction} {hex_in}: expected {hex_out}, computed {got}")
    return failures


def load_shipped() -> str:
    return resources.files(DATA_PACKAGE).joinpath(VECTOR_FILENAME).read_text()


# ---------------------------------------------------------------------------
# Message frame vectors


def _frame_to_hex(bits) -> str:
    pad = (-len(bits)) % 4
    return bits_to_hex(np.concatenate([bits, np.zeros(pad, dtype=np.uint8)]))


_FRAME_TYPES = {
    "a_down": msg.ChannelAMessageDown,
    "a_up": msg.ChannelAMessageUp,
    "b": msg.ChannelBTransaction,
    "c_request": msg.ChannelCRequest,
}


def default_frame_vectors() -> list[dict]:
    """Shipped frame vectors: every message type, fields spelled out."""
    cases = [
        ("a_down", {"sampling_stop": True, "event_type": 2, "sampling_start": False,
                    "clear_event_counter": False, "clear_timestamp": False,
                    "sync_sampling_clock": False}),
        ("a_down", {"sampling_stop": False, "event_type": 0, "sampling_start": True,
                    "clear_event_counter": True, "clear_timestamp": True,
                    "sync_sampling_clock": True}),
        ("a_up", {"set_busy": True, "clear_busy": False, "trigger_primitives": 0}),
        ("a_up", {"set_busy": False, "clear_busy": True, "trigger_primitives": 0xA}),
        ("b", {"broadcast": False, "target_id": 5, "read": False, "write": True,
               "byte_enable": 15, "address": 0x0010, "data": 0xDEADBEEF,
               "parity_error": False, "bus_error": False}),
        ("b", {"broadcast": True, "target_id": 0, "read": True, "write": False,
               "byte_enable": 15, "address": 0x0000, "data": 0,
               "parity_error": False, "bus_error": False}),
        ("c_request", {"opcode": 1, "target_mask": 0xFFFFFFFF}),
        ("c_request", {"opcode": 1, "target_mask": 0x00000080}),
    ]
    out = []
    for kind, fields in cases:
        bits = _FRAME_TYPES[kind](**fields).encode()
        out.append(
            {"type": kind, "bits": len(bits), "frame_hex": _frame_to_hex(bits), "fields": fields}
        )
    # Fragment packets: byte oriented, checked through serialize/deserialize.
    for soe, eoe, payload in (
        (False, True, ()),
        (True, False, msg.event_header_bytes(0x01020304, 0xAABBCCDDEEFF)),
        (False, False, (0x1111, 0x2222, 0x3333, 0x4444)),
    ):
        pkt = msg.FragmentPacket.build(soe=soe, eoe=eoe, payload_words=payload)
        data = pkt.serialize()
        out.append(
            {
                "type": "fragment",
                "bits": 8 * len(data),
                "frame_hex": data.hex(),
                "fields": {
                    "soe": soe,
                    "eoe": eoe,
                    "size_bytes": pkt.size_bytes,
                    "payload_words": list(pkt.payload_words),
                    "crc": pkt.crc,
                },
            }
        )
    return out


def verify_frame_vectors(text: str) -> list[str]:
    """Re-encode from fields and re-decode from the frame; list failures."""
    failures = []
    for entry in json.loads(text):
        kind = entry["type"]
        fields = entry["fields"]
        try:
            if kind == "fragment":
                data = bytes.fromhex(entry["frame_hex"])
                pkt = msg.FragmentPacket.deserialize(data)
                rebuilt = msg.FragmentPacket.build(
                    soe=fields["soe"], eoe=fields["eoe"],
                    payload_words=tuple(fields["payload_words"]),
                )
                ok = (
                    pkt.crc_ok
                    and pkt.soe == fields["soe"]
                    and pkt.eoe == fields["eoe"]
                    and pkt.size_bytes == fields["size_bytes"]
                    and list(pkt.payload_words) == fields["payload_words"]
                    and pkt.crc == fields["crc"]
                    and rebuilt.serialize() == data
                )
            else:
                frame_type = _FRAME_TYPES[kind]
                bits = frame_type(**fields).encode()
                frame = bits_from_hex(entry["frame_hex"])[: entry["bits"]]
                ok = (
                    len(bits) == entry["bits"]
                    and _frame_to_hex(bits) == entry["frame_hex"].lower()
                    and frame_type.decode(frame).__dict__ == fields
                )
        except Exception as exc:  # malformed entry is a failure, not a crash
            failures.append(f"{kind} {entry.get('frame_hex')}: {exc}")
            continue
        if not ok:
            failures.append(f"{kind} {entry['frame_hex']}: frame/fields disagree")
    return failures


def load_shipped_frames() -> str:
    return resources.files(DATA_PACKAGE).joinpath(FRAME_VECTOR_FILENAME).read_text()
