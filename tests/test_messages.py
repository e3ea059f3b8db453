"""Message codecs: layouts, parity, round trips, fragment CRC."""

import dataclasses
import importlib
import itertools
import pkgutil
import re
import struct
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdmlink
from tdmlink import messages as m
from tdmlink import sim
from tdmlink.bits import bits_to_str


def reference_crc32(data: bytes) -> int:
    """Bit-serial reflected CRC-32 (polynomial 0x04C11DB7), independent of
    the library implementation."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


# Independent layout table: payload bit index (0 = first after start bit).
A_DOWN_LAYOUT = {
    "sampling_stop": 0,
    "event_type_hi": 1,
    "event_type_lo": 2,
    "sampling_start": 3,
    "clear_event_counter": 4,
    "clear_timestamp": 5,
    "sync_sampling_clock": 6,
}
B_LAYOUT = {
    "broadcast": 0,
    "target_id": (1, 5),
    "read": 6,
    "write": 7,
    "byte_enable": (8, 4),
    "parity_error": 12,
    "bus_error": 13,
    "address": (14, 16),
    "data": (30, 32),
}


class TestChannelA:
    def test_trigger_frame_layout(self):
        msg = m.ChannelAMessageDown(sampling_stop=True, event_type=2)
        frame = msg.encode()
        assert len(frame) == m.CHANNEL_A_FRAME_BITS == 10
        assert frame[0] == 1  # start bit
        payload = frame[1:9]
        assert payload[A_DOWN_LAYOUT["sampling_stop"]] == 1
        assert payload[A_DOWN_LAYOUT["event_type_hi"]] == 1
        assert payload[A_DOWN_LAYOUT["event_type_lo"]] == 0
        assert int(payload.sum()) % 2 == int(frame[9])  # even parity
        assert m.ChannelAMessageDown.decode(frame) == msg

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            msg = m.ChannelAMessageDown(
                sampling_stop=bool(rng.integers(2)),
                event_type=int(rng.integers(4)),
                sampling_start=False,
                clear_event_counter=bool(rng.integers(2)),
                clear_timestamp=bool(rng.integers(2)),
                sync_sampling_clock=bool(rng.integers(2)),
            )
            assert m.ChannelAMessageDown.decode(msg.encode()) == msg

    def test_upstream_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            busy = int(rng.integers(3))
            msg = m.ChannelAMessageUp(
                set_busy=busy == 1,
                clear_busy=busy == 2,
                trigger_primitives=int(rng.integers(16)),
            )
            assert m.ChannelAMessageUp.decode(msg.encode()) == msg

    def test_parity_catches_every_payload_flip(self):
        frame = m.ChannelAMessageDown(sampling_stop=True).encode()
        for i in range(1, 9):
            bad = frame.copy()
            bad[i] ^= 1
            with pytest.raises(m.ParityError):
                m.ChannelAMessageDown.decode(bad)

    def test_stop_and_start_exclusive(self):
        with pytest.raises(m.MessageFormatError):
            m.ChannelAMessageDown(sampling_stop=True, sampling_start=True)


class TestChannelB:
    def test_frame_is_64_bits_field_widths_sum(self):
        txn = m.ChannelBTransaction(write=True, target_id=5, address=0x10, data=0xDEADBEEF)
        frame = txn.encode()
        assert len(frame) == m.CHANNEL_B_FRAME_BITS == 64
        # 62 payload bits: BC1 TID5 RD1 WR1 BE4 PE1 FE1 ADDR16 DATA32
        assert 1 + 5 + 1 + 1 + 4 + 1 + 1 + 16 + 32 == 62

    def test_write_example_layout(self):
        txn = m.ChannelBTransaction(
            write=True, target_id=5, byte_enable=0xF, address=0x0010, data=0xDEADBEEF
        )
        frame = txn.encode()
        payload = frame[1:63]
        assert payload[B_LAYOUT["broadcast"]] == 0
        start, width = B_LAYOUT["target_id"]
        assert bits_to_str(payload[start : start + width]) == "00101"
        assert payload[B_LAYOUT["write"]] == 1 and payload[B_LAYOUT["read"]] == 0
        start, width = B_LAYOUT["address"]
        assert bits_to_str(payload[start : start + width]) == f"{0x0010:016b}"
        start, width = B_LAYOUT["data"]
        assert bits_to_str(payload[start : start + width]) == f"{0xDEADBEEF:032b}"
        assert m.ChannelBTransaction.decode(frame) == txn

    def test_broadcast_read(self):
        txn = m.ChannelBTransaction(broadcast=True, read=True, address=0x0000)
        decoded = m.ChannelBTransaction.decode(txn.encode())
        assert decoded.broadcast and decoded.read and not decoded.write

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            rd = bool(rng.integers(2))
            txn = m.ChannelBTransaction(
                broadcast=bool(rng.integers(2)),
                target_id=int(rng.integers(32)),
                read=rd,
                write=not rd,
                byte_enable=int(rng.integers(16)),
                address=int(rng.integers(1 << 16)),
                data=int(rng.integers(1 << 32)),
            )
            assert m.ChannelBTransaction.decode(txn.encode()) == txn

    def test_parity_catches_every_payload_flip(self):
        rng = np.random.default_rng(4)
        txn = m.ChannelBTransaction(
            read=True, target_id=int(rng.integers(32)), address=0x1234, data=0xCAFEF00D
        )
        frame = txn.encode()
        for i in range(1, 63):
            bad = frame.copy()
            bad[i] ^= 1
            with pytest.raises(m.ParityError):
                m.ChannelBTransaction.decode(bad)


class TestChannelC:
    def test_all_cards_one_frame(self):
        req = m.ChannelCRequest(target_mask=0xFFFFFFFF)
        frame = req.encode()
        assert len(frame) == m.CHANNEL_C_REQUEST_BITS == 42
        assert m.ChannelCRequest.decode(frame) == req

    def test_single_target(self):
        req = m.ChannelCRequest(target_mask=1 << 7)
        assert m.ChannelCRequest.decode(req.encode()).target_mask == 1 << 7

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            req = m.ChannelCRequest(
                opcode=int(rng.integers(256)),
                target_mask=int(rng.integers(1, 1 << 32)),
            )
            assert m.ChannelCRequest.decode(req.encode()) == req

    def test_empty_mask_rejected(self):
        with pytest.raises(m.MessageFormatError):
            m.ChannelCRequest(target_mask=0).encode()


FRAME_TYPES = [
    (m.ChannelAMessageDown, m.CHANNEL_A_FRAME_BITS),
    (m.ChannelAMessageUp, m.CHANNEL_A_FRAME_BITS),
    (m.ChannelBTransaction, m.CHANNEL_B_FRAME_BITS),
    (m.ChannelCRequest, m.CHANNEL_C_REQUEST_BITS),
]
LAYOUT_FIELDS = [(cls, name, width) for cls, _ in FRAME_TYPES for name, width in cls.LAYOUT if name]


def random_message(cls, rng):
    """A message of `cls` with every field drawn at random, then the flags
    that may not be set together, and an empty C-request mask, mended."""
    fields = {
        name: (bool if width == 1 else int)(rng.integers(1 << width))
        for name, width in cls.LAYOUT
        if name
    }
    if cls is m.ChannelAMessageDown and fields["sampling_stop"]:
        fields["sampling_start"] = False
    if cls is m.ChannelAMessageUp and fields["set_busy"]:
        fields["clear_busy"] = False
    if cls is m.ChannelCRequest:
        fields["target_mask"] |= 1 << int(rng.integers(32))
    return cls(**fields)


def reference_frame(msg) -> list[int]:
    """Bit-by-bit framing: start bit, each layout field MSB-first, even
    parity over the payload."""
    bits = [1]
    for name, width in type(msg).LAYOUT:
        value = int(getattr(msg, name)) if name else 0
        bits += [(value >> (width - 1 - i)) & 1 for i in range(width)]
    return bits + [sum(bits[1:]) % 2]


class TestLayouts:
    @pytest.mark.parametrize("cls, frame_bits", FRAME_TYPES)
    def test_frame_length_is_start_fields_and_parity(self, cls, frame_bits):
        assert 2 + sum(width for _, width in cls.LAYOUT) == frame_bits
        assert len(random_message(cls, np.random.default_rng(0)).encode()) == frame_bits

    @pytest.mark.parametrize("cls, frame_bits", FRAME_TYPES)
    def test_layout_names_every_field_once(self, cls, frame_bits):
        named = [name for name, _ in cls.LAYOUT if name]
        assert sorted(named) == sorted(f.name for f in dataclasses.fields(cls))

    @pytest.mark.parametrize(
        "cls, name, width", LAYOUT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _ in LAYOUT_FIELDS]
    )
    def test_field_rejects_values_outside_its_width(self, cls, name, width):
        for bad in (-1, 1 << width):
            with pytest.raises(m.MessageFormatError, match=f"{name} outside {width} bits"):
                cls(**{name: bad})
        cls(**{name: (1 << width) - 1})

    @pytest.mark.parametrize("cls, frame_bits", FRAME_TYPES)
    def test_random_fields_round_trip(self, cls, frame_bits):
        rng = np.random.default_rng(frame_bits)
        for _ in range(500):
            msg = random_message(cls, rng)
            frame = msg.encode()
            assert frame.tolist() == reference_frame(msg)
            assert cls.decode(frame) == msg

    @pytest.mark.parametrize("cls, frame_bits", FRAME_TYPES[:2])
    def test_spare_bits_sent_as_zero_and_ignored(self, cls, frame_bits):
        msg = random_message(cls, np.random.default_rng(7))
        frame = msg.encode()
        spare, pos = [], 1
        for name, width in cls.LAYOUT:
            if name is None:
                spare.extend(range(pos, pos + width))
            pos += width
        assert spare and not frame[spare].any()
        frame[spare] = 1
        frame[-1] ^= len(spare) & 1  # keep the parity even
        assert cls.decode(frame) == msg


def wire_format_tables() -> dict[str, list[tuple[int, int, str]]]:
    """Bit tables of wire-format.md section 2: {subsection: [(first bit,
    last bit, field text), ...]} in table order."""
    text = (Path(__file__).parents[1] / "docs" / "wire-format.md").read_text()
    tables, section = {}, None
    for line in text.splitlines():
        if heading := re.match(r"### (2\.\d) ", line):
            section = heading.group(1)
            tables[section] = []
        elif line.startswith("## "):
            section = None
        elif section and (row := re.match(r"\| (\d+)(?:\.\.(\d+))? \| (.+) \|$", line)):
            first, last, field = row.groups()
            tables[section].append((int(first), int(last or first), field))
    return tables


@pytest.mark.parametrize(
    "section, cls",
    [
        ("2.1", m.ChannelAMessageDown),
        ("2.2", m.ChannelAMessageUp),
        ("2.3", m.ChannelBTransaction),
        ("2.4", m.ChannelCRequest),
    ],
)
def test_wire_format_doc_matches_layout(section, cls):
    rows = wire_format_tables()[section]
    assert rows[0][:2] == (0, 0) and rows[0][2].startswith("start")
    assert "parity" in rows[-1][2]
    expected, pos = [], 1
    for name, width in cls.LAYOUT:
        expected.append((pos, pos + width - 1, name is None))
        pos += width
    assert rows[-1][:2] == (pos, pos)
    got = [(first, last, field.startswith("spare")) for first, last, field in rows[1:-1]]
    assert got == expected


class TestCrc32:
    def test_check_string(self):
        assert m.crc32(b"123456789") == 0xCBF43926
        assert reference_crc32(b"123456789") == 0xCBF43926

    def test_empty_input(self):
        assert m.crc32(b"") == 0x00000000 == reference_crc32(b"")

    def test_matches_reference_on_random_data(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            data = rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8).tobytes()
            assert m.crc32(data) == reference_crc32(data)

    def test_single_flip_always_changes_crc(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        base = m.crc32(data)
        for _ in range(200):
            mutable = bytearray(data)
            pos = int(rng.integers(len(data) * 8))
            mutable[pos // 8] ^= 1 << (pos % 8)
            assert m.crc32(bytes(mutable)) != base


def reference_fragment_bytes(soe: bool, eoe: bool, words) -> bytes:
    """Per-word packet encoder: header word, each payload word big-endian,
    then the bit-serial CRC-32 of both."""
    body = bytearray(((int(soe) << 15) | (int(eoe) << 14) | 2 * len(words)).to_bytes(2, "big"))
    for w in words:
        body += int(w).to_bytes(2, "big")
    return bytes(body) + reference_crc32(bytes(body)).to_bytes(4, "big")


class TestFragmentPacket:
    def test_build_matches_per_word_encoder(self):
        rng = np.random.default_rng(10)
        cases = [(False, False, ()), (False, True, ())]
        for _ in range(200):
            soe, eoe = bool(rng.integers(2)), bool(rng.integers(2))
            words = tuple(int(w) for w in rng.integers(0, 1 << 16, size=2 * int(rng.integers(0, 40))))
            if soe:
                number, ts = int(rng.integers(1 << 32)), int(rng.integers(1 << 48))
                words = struct.unpack(">6H", m.event_header_bytes(number, ts)) + words
            cases.append((soe, eoe, words))
        for soe, eoe, words in cases:
            data = m.FragmentPacket.build(soe=soe, eoe=eoe, payload_words=words).serialize()
            assert data == reference_fragment_bytes(soe, eoe, words)
            back = m.FragmentPacket.deserialize(data)
            assert back.crc_ok and back.serialize() == data
            assert (back.soe, back.eoe) == (soe, eoe)
            assert back.size_bytes == 2 * len(words)
            assert back.crc == int.from_bytes(data[-4:], "big")
            assert back.payload_words == words
            data_words = words[m.EVENT_HEADER_WORDS:] if soe else words
            assert back.data_words == data_words
            assert back.data_bytes == b"".join(w.to_bytes(2, "big") for w in data_words)
            assert m.data_start(data) == len(data) - 4 - 2 * len(data_words)
            if soe:
                assert back.event_number == (words[0] << 16) | words[1]
                assert back.timestamp == (words[2] << 32) | (words[3] << 16) | words[4]
                assert m.soe_fields(data) == (back.event_number, back.timestamp)
            else:
                assert m.soe_fields(data) is None
                with pytest.raises(m.MessageFormatError):
                    back.event_number
                with pytest.raises(m.MessageFormatError):
                    back.timestamp

    @pytest.mark.parametrize("bad", [-1, 0x10000, 2**70])
    def test_build_rejects_words_outside_16_bits(self, bad):
        with pytest.raises(m.MessageFormatError, match="outside 16 bits"):
            m.FragmentPacket.build(soe=False, eoe=False, payload_words=(1, 2, bad, 4))

    def test_empty_eoe_round_trip(self):
        pkt = m.FragmentPacket.build(soe=False, eoe=True, payload_words=())
        assert pkt.size_bytes == 0
        wire_bytes = pkt.serialize()
        assert len(wire_bytes) == 6
        back = m.FragmentPacket.deserialize(wire_bytes)
        assert back.crc_ok and back.eoe and not back.soe
        assert back.payload_words == ()

    def test_soe_header_fields(self):
        payload = m.event_header_bytes(0x01020304, 0xAABBCCDDEEFF)
        pkt = m.FragmentPacket.build(soe=True, eoe=False, payload_words=payload)
        assert pkt.event_number == 0x01020304
        assert pkt.timestamp == 0xAABBCCDDEEFF
        assert pkt.data_words == ()

    @pytest.mark.parametrize("number, ts", [(-1, 0), (1 << 32, 0), (0, -1), (0, 1 << 48)])
    def test_event_header_fields_range_checked(self, number, ts):
        with pytest.raises(m.MessageFormatError, match="outside"):
            m.event_header_bytes(number, ts)

    def test_max_packet_fits_2048(self):
        words = tuple(range(m.MAX_PAYLOAD_WORDS))
        pkt = m.FragmentPacket.build(soe=False, eoe=False, payload_words=words)
        assert len(pkt.serialize()) <= 2048
        with pytest.raises(m.MessageFormatError):
            m.FragmentPacket.build(False, False, tuple(range(m.MAX_PAYLOAD_WORDS + 2)))

    def test_odd_word_count_rejected(self):
        with pytest.raises(m.MessageFormatError):
            m.FragmentPacket.build(soe=False, eoe=False, payload_words=(1, 2, 3))

    def test_bytes_and_words_build_one_packet(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            soe, eoe = bool(rng.integers(2)), bool(rng.integers(2))
            words = tuple(int(w) for w in rng.integers(0, 1 << 16, size=2 * int(rng.integers(3, 40))))
            data = b"".join(w.to_bytes(2, "big") for w in words)
            assert (
                m.FragmentPacket.build(soe, eoe, data).serialize()
                == m.FragmentPacket.build(soe, eoe, words).serialize()
            )

    def test_run_writer_matches_one_packet_writer(self):
        # Runs of 1, 2 and 16 packets of 0, 4 and 2028 payload bytes, with
        # each flag on or off: packet k is the one-packet writer's packet of
        # the k-th part, SOE on the first only and EOE on the last only.
        rng = np.random.default_rng(35)
        for count in (1, 2, 16):
            for size in (0, 4, 2 * m.MAX_PAYLOAD_WORDS):
                payload = rng.integers(0, 256, size=count * size, dtype=np.uint8).tobytes()
                for soe, eoe in itertools.product((False, True), repeat=2):
                    if soe and size < 2 * m.EVENT_HEADER_WORDS:
                        with pytest.raises(m.MessageFormatError, match="breaks the length rule"):
                            m.fragment_run_bytes(soe, eoe, payload, count)
                        continue
                    run = m.fragment_run_bytes(soe, eoe, payload, count)
                    assert run == [
                        m.fragment_bytes(soe and k == 0, eoe and k == count - 1, payload[k * size : (k + 1) * size])
                        for k in range(count)
                    ]
                    assert all(m.check_fragment(data) for data in run)
        with pytest.raises(m.MessageFormatError, match="do not cut into 3 packets"):
            m.fragment_run_bytes(False, False, bytes(8), 3)

    @pytest.mark.parametrize(
        "soe, nbytes",
        [(False, 1), (False, 5), (False, 6), (True, 8),
         (False, 2 * m.MAX_PAYLOAD_WORDS + 1), (False, 2 * m.MAX_PAYLOAD_WORDS + 4),
         (False, 0x4000 + 8)],  # a size that overflows the header's 14-bit field
    )
    def test_bytes_break_the_length_rule_as_words_do(self, soe, nbytes):
        with pytest.raises(m.MessageFormatError, match="breaks the length rule") as from_bytes:
            m.FragmentPacket.build(soe, False, bytes(nbytes))
        if nbytes % 2 == 0:
            with pytest.raises(m.MessageFormatError) as from_words:
                m.FragmentPacket.build(soe, False, (0,) * (nbytes // 2))
            assert str(from_words.value) == str(from_bytes.value)

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = 2 * int(rng.integers(0, 64))
            words = tuple(int(w) for w in rng.integers(0, 1 << 16, size=n))
            pkt = m.FragmentPacket.build(
                soe=False, eoe=bool(rng.integers(2)), payload_words=words
            )
            back = m.FragmentPacket.deserialize(pkt.serialize())
            assert back.crc_ok
            assert back.payload_words == words
            assert back.eoe == pkt.eoe

    def test_any_single_bit_flip_detected(self):
        rng = np.random.default_rng(9)
        words = tuple(int(w) for w in rng.integers(0, 1 << 16, size=128))
        pkt = m.FragmentPacket.build(soe=False, eoe=False, payload_words=words)
        data = pkt.serialize()
        for _ in range(1000):
            mutable = bytearray(data)
            pos = int(rng.integers(len(data) * 8))
            mutable[pos // 8] ^= 1 << (pos % 8)
            corrupted = bytes(mutable)
            try:
                back = m.FragmentPacket.deserialize(corrupted)
            except m.MessageFormatError:
                continue  # flip hit the size field
            assert not back.crc_ok

    def test_exhaustive_flips_64_byte_class_packet(self):
        # 30 payload words + header + CRC: 66 bytes on the wire (word counts
        # must be even, so exactly 64 is not reachable).
        words = tuple(range(30))
        pkt = m.FragmentPacket.build(soe=False, eoe=False, payload_words=words)
        data = pkt.serialize()
        assert len(data) == 66
        for pos in range(len(data) * 8):
            mutable = bytearray(data)
            mutable[pos // 8] ^= 1 << (pos % 8)
            try:
                back = m.FragmentPacket.deserialize(bytes(mutable))
            except m.MessageFormatError:
                continue
            assert not back.crc_ok

    @pytest.mark.parametrize(
        "header, total",
        [
            (0x0000, 6),  # empty, neither flag
            (0x4000, 6),  # empty EOE
            (0x8000 | 12, 18),  # SOE with just its event header
            (0xC000 | 2040, 2046),  # largest packet
            (0x0002, None),  # odd word count
            (0x0006, None),
            (0x8000 | 8, None),  # SOE too short for its event header
            (0x0000 | 2044, None),  # over 2048 bytes on the wire
            (0x3FFC, None),
        ],
    )
    def test_fragment_length_rule(self, header, total):
        assert m.fragment_length(header) == total
        data = header.to_bytes(2, "big") + bytes(max(total or 0, 6) - 2)
        if total is None:
            with pytest.raises(m.MessageFormatError):
                m.FragmentPacket.deserialize(data)
        else:
            assert not m.FragmentPacket.deserialize(data).crc_ok

    def test_wire_bits_have_start_bit(self):
        pkt = m.FragmentPacket.build(soe=False, eoe=True, payload_words=(7, 9))
        bits = m.frame_fragment(pkt.serialize())
        assert bits[0] == 1
        assert len(bits) == 1 + 8 * len(pkt.serialize())


def reference_check(data: bytes) -> bool | None:
    """CRC verdict of fragment packet bytes, or None when they break the
    length rule: fewer than 6 bytes, a payload size that is not a whole
    number of word pairs or exceeds 2040 bytes, an SOE payload under its
    12-byte event header, or a length other than size + 6."""
    if len(data) < 6:
        return None
    (header,) = struct.unpack_from(">H", data)
    size = header & 0x3FFF
    if size % 4 or size > 2040 or (header >> 15 and size < 12) or len(data) != size + 6:
        return None
    (crc,) = struct.unpack_from(">I", data, len(data) - 4)
    return crc == zlib.crc32(data[:-4])


def packet_with_size(soe: bool, eoe: bool, size: int, length: int) -> bytes:
    """`length` bytes that open with the header word of a `size`-byte
    payload and close with the CRC of what precedes it."""
    body = struct.pack(">H", soe << 15 | eoe << 14 | size) + bytes(max(length - 6, 0))
    return (body + struct.pack(">I", zlib.crc32(body)))[:length]


@st.composite
def fragment_candidates(draw):
    """Byte strings for the packet rule: random bytes, intact packets with
    at most one bit flipped, and every edge of the length rule."""
    kind = draw(st.sampled_from(
        ["random", "flipped", "odd_size", "short_soe", "oversize", "length_mismatch"]
    ))
    soe, eoe = draw(st.booleans()), draw(st.booleans())
    if kind == "random":
        return draw(st.binary(max_size=96))
    if kind == "flipped":
        size = 4 * draw(st.integers(3 if soe else 0, 510))
        payload = draw(st.binary(min_size=size, max_size=size))
        body = struct.pack(">H", soe << 15 | eoe << 14 | size) + payload
        data = body + struct.pack(">I", zlib.crc32(body))
        assert m.fragment_bytes(soe, eoe, payload) == data
        bit = draw(st.none() | st.integers(0, 8 * len(data) - 1))
        if bit is not None:
            data = bytearray(data)
            data[bit // 8] ^= 0x80 >> bit % 8
        return bytes(data)
    if kind == "odd_size":
        size = draw(st.integers(0, 2040).filter(lambda n: n % 4))
        return packet_with_size(soe, eoe, size, size + 6)
    if kind == "short_soe":
        size = draw(st.sampled_from([0, 4, 8]))
        return packet_with_size(True, eoe, size, size + 6)
    if kind == "oversize":
        size = 4 * draw(st.integers(511, 0xFFF))
        return packet_with_size(soe, eoe, size, size + 6)
    size = 4 * draw(st.integers(3 if soe else 0, 510))
    length = draw(st.integers(0, size + 16).filter(lambda n: n != size + 6))
    return packet_with_size(soe, eoe, size, length)


class TestOnePacketRule:
    @settings(max_examples=400, deadline=None)
    @given(data=fragment_candidates())
    def test_check_fragment_matches_reference(self, data):
        want = reference_check(data)
        if want is None:
            with pytest.raises(m.MessageFormatError) as checked:
                m.check_fragment(data)
            with pytest.raises(m.MessageFormatError) as parsed:
                m.FragmentPacket.deserialize(data)
            assert str(parsed.value) == str(checked.value)
        else:
            assert m.check_fragment(data) is want
            assert m.FragmentPacket.deserialize(data).crc_ok is want
            assert m.fragment_crc_ok(data) is want

    def test_checked_once_per_hop(self, monkeypatch):
        """On a message-level run, each fragment packet meets the length rule
        twice (unloaded by the builder, walked by the client) and the CRC
        three times (made, checked by the builder, checked by the client).
        A card makes its packets in runs (`fragment_run_bytes`) and applies
        the length rule once per run, and takes each distinct header word's
        CRC once per run. With 16 channels of 64 words, each event has two
        runs per card: channel 0 alone (SOE, one header word) and channels
        1..15, one 16-channel block (a plain and an EOE header word). Each
        event adds its header record (made: its header's CRC and its own;
        walked; the client reads its event number and timestamp from the
        bytes) and its end-of-event record (walked)."""
        calls = {"fragment_length": 0, "crc32": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        original = m.fragment_length
        fragment_length = counted("fragment_length", original)
        counting_zlib = types.SimpleNamespace(crc32=counted("crc32", zlib.crc32))
        crc32 = counting_zlib.crc32
        for info in pkgutil.iter_modules(tdmlink.__path__):
            module = importlib.import_module(f"tdmlink.{info.name}")
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, fragment_length)
                elif value is zlib:
                    monkeypatch.setattr(module, name, counting_zlib)
                elif value is zlib.crc32:
                    monkeypatch.setattr(module, name, crc32)
        cfg = sim.SimConfig(
            num_frontends=4, seed=3, trigger_mode="gated", trigger_count=3,
            channels_per_event=16, words_per_channel=64,
        )
        res = sim.run_scenario(cfg)
        assert res.metrics.violations == []
        assert res.metrics.client["crc_failures"] == 0
        fragments = sum(c.packets for c in res.engine.builder.counters.values())
        events = res.metrics.client["events"]
        assert (fragments, events) == (192, 3)
        card_events = cfg.num_frontends * events
        assert calls == {
            "fragment_length": 2 * fragments + 2 * card_events + 3 * events,
            "crc32": 3 * fragments + 3 * card_events + 2 * events,
        }

    @pytest.mark.parametrize("abstraction", ["message_level", "symbol_level"])
    def test_engines_make_no_fragment_packet(self, monkeypatch, abstraction):
        """Card, builder and client handle packets as bytes and read SOE
        fields through `soe_fields` and `data_start`; no engine path makes a
        FragmentPacket. The corrupted SOE packet, which the builder drops,
        and the client's provenance checks run every byte-level reader."""
        made = []
        init = m.FragmentPacket.__init__

        def counting_init(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(m.FragmentPacket, "__init__", counting_init)
        m.FragmentPacket.build(False, True, ())
        assert len(made) == 1  # the count sees every packet made
        cfg = sim.SimConfig(
            num_frontends=2, seed=5, abstraction=abstraction, trigger_mode="periodic",
            trigger_count=3, channels_per_event=3, words_per_channel=4,
            faults=[{"type": "corrupt_fragment", "link": 1, "event": 1, "channel": 0}],
        )
        res = sim.run_scenario(cfg)
        assert res.metrics.violations == []
        assert res.engine.builder.counters[1].crc_drops == 1
        assert (res.metrics.client["events"], res.metrics.client["incomplete_events"]) == (3, 1)
        assert len(made) == 1
