"""Credit-controlled transfer, client reassembly, analytic throughput model."""

import functools
import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmlink import backend as be
from tdmlink import frontend as fe
from tdmlink import messages as m
from tdmlink import sim
from tdmlink import transport as tp
from tdmlink.message_engine import MessageEngine

from fill_pattern import generator_word


def fill_buffers(n_events=3, links=(0, 1), channels=2, words=4, pool_size=16, capacity=256):
    """Run cards -> pumps -> builder to produce filled buffers."""
    cards = {}
    pumps = {}
    for link in links:
        card = fe.FrontEndCard(
            serial_number=0x900 + link,
            generator=fe.EventGeneratorConfig(channels_per_event=channels, words_per_channel=words),
            buffering_depth=n_events + 1,
        )
        card.assigned_id = link
        cards[link] = card
        pump = be.DataPump()
        pump.enabled = True
        pumps[link] = pump
    pool = be.BufferPool(size=pool_size, capacity=capacity, header_reserve=8)
    mover = be.PacketMover(pool)
    builder = be.EventBuilder(list(links), mover)
    for i in range(n_events):
        for card in cards.values():
            card.on_channel_a(m.ChannelAMessageDown(sampling_stop=True), 160 * i)
    for _ in range(500):
        mask = 0
        for link, pump in pumps.items():
            if pump.wants_request():
                mask |= 1 << link
                pump.request_posted()
        if mask:
            req = m.ChannelCRequest(target_mask=mask)
            for link, card in cards.items():
                if (mask >> link) & 1:
                    for data in card.on_channel_c(req).packets:
                        pumps[link].on_packet(data)
        builder.run(pumps)
        if builder.events_built == n_events:
            break
    mover.flush()
    assert builder.events_built == n_events
    return pool, builder


def record(tag, soe, eoe, words):
    return tag.to_bytes(2, "big") + m.FragmentPacket.build(soe, eoe, words).serialize()


@functools.lru_cache(maxsize=None)
def split_event_frames():
    """The serialized frames of three events of two links, each event
    spread over several frames."""
    pool, _ = fill_buffers(n_events=3, pool_size=32, capacity=96, words=8)
    server = tp.TransportServer(pool)
    server.on_grant(tp.CreditGrant(1000))
    frames = []
    while (out := server.next_frame()) is not None:
        frames.append(out[0].serialize())
        pool.release(out[1])
    return tuple(frames)


# (kind, frame index, value, noise) per frame: which of the frames of
# `split_event_frames` to send and how to damage it.
FRAME_DAMAGE = st.lists(
    st.tuples(
        st.sampled_from(["frame", "cut", "flip", "reorder", "random"]),
        st.integers(0, 6),
        st.integers(0, 2**20),
        st.binary(max_size=64),
    ),
    min_size=1, max_size=12,
)


def damaged_frames(inputs):
    """The frames `inputs` (drawn from FRAME_DAMAGE) describe: real frames
    as sent, cut short, with one bit flipped or with their records
    reordered, and random payload bytes behind a valid header."""
    frames = split_event_frames()
    for kind, index, value, noise in inputs:
        data = frames[index % len(frames)]
        if kind == "cut":
            data = data[: value % len(data)]
        elif kind == "flip":
            bit = value % (8 * len(data))
            data = data[: bit // 8] + bytes([data[bit // 8] ^ 0x80 >> bit % 8]) + data[bit // 8 + 1 :]
        elif kind == "reorder":
            records = tp.parse_records(data[tp.TRANSPORT_HEADER_BYTES :])
            random.Random(value).shuffle(records)
            data = data[: tp.TRANSPORT_HEADER_BYTES] + b"".join(tag.to_bytes(2, "big") + pkt for tag, pkt in records)
        elif kind == "random":
            data = tp.TransportFrame(value, 0, noise).serialize()
        yield data


class TestFrameFormat:
    def test_round_trip(self):
        frame = tp.TransportFrame(sequence=7, flags=tp.FLAG_LAST_OF_EVENT, payload=b"xyz")
        data = frame.serialize()
        assert data[:2] == b"\xaa\x55"
        assert tp.TransportFrame.parse(data) == frame

    def test_magic_mismatch_rejected(self):
        with pytest.raises(tp.TransportError):
            tp.TransportFrame.parse(b"\x00\x00\x00\x00\x00\x01\x00\x00")

    def test_grant_validation(self):
        with pytest.raises(tp.TransportError):
            tp.CreditGrant(0)


class TestServerCredit:
    def test_sends_exactly_credit_then_waits(self):
        pool, _ = fill_buffers(n_events=10, pool_size=32, capacity=128)
        filled = len(pool.i_fifo)
        assert filled > 6
        server = tp.TransportServer(pool)
        server.on_grant(tp.CreditGrant(6))
        sent = []
        while (out := server.next_frame()) is not None:
            frame, desc = out
            sent.append(frame)
            pool.release(desc)
        assert len(sent) == 6
        assert server.credit == 0
        assert pool.audit()
        # A new grant resumes immediately.
        server.on_grant(tp.CreditGrant(100))
        while (out := server.next_frame()) is not None:
            sent.append(out[0])
            pool.release(out[1])
        assert len(sent) == filled
        assert not server.max_burst_violation
        assert [f.sequence for f in sent] == list(range(filled))

    def test_descriptors_return_after_send(self):
        pool, _ = fill_buffers(n_events=2, pool_size=8)
        server = tp.TransportServer(pool)
        server.on_grant(tp.CreditGrant(100))
        while (out := server.next_frame()) is not None:
            pool.release(out[1])
        assert len(pool.o_fifo) == 8
        assert pool.audit()

    def test_random_grant_patterns_never_exceed_credit(self):
        rng = np.random.default_rng(42)
        pool, _ = fill_buffers(n_events=10, pool_size=64)
        server = tp.TransportServer(pool)
        while pool.i_fifo:
            n = int(rng.integers(1, 5))
            server.on_grant(tp.CreditGrant(n))
            burst = 0
            while (out := server.next_frame()) is not None:
                burst += 1
                pool.release(out[1])
            assert burst <= n
        assert not server.max_burst_violation


class TestClientReassembly:
    def test_lossless_run_matches_builder_output(self):
        pool, builder = fill_buffers(n_events=5, links=(0, 1, 2), pool_size=32)
        server = tp.TransportServer(pool)
        server.on_grant(tp.CreditGrant(1000))
        client = tp.TransportClient(
            expected_bytes_fn=lambda link, channel, n: b"".join(
                generator_word(link, channel, k).to_bytes(2, "big") for k in range(n)
            )
        )
        sent_payload = 0
        while (out := server.next_frame()) is not None:
            frame, desc = out
            sent_payload += len(frame.payload)
            client.receive(frame.serialize())
            pool.release(desc)
        assert client.stats.events == 5
        assert client.stats.incomplete_events == 0
        assert client.stats.gaps == 0
        assert client.stats.crc_failures == 0
        assert client.stats.provenance_errors == 0
        assert client.stats.payload_bytes == sent_payload
        for ev in client.events:
            assert {link for link, _ in ev.fragments} == {0, 1, 2}

    @pytest.mark.parametrize(
        "flip, errors", [(None, 0), ((0, 0), 1), ((1, 7), 1), ((2, 3), 1)]
    )
    def test_one_flipped_data_word_is_one_provenance_error(self, flip, errors):
        """Three counter-fill fragments of link 1; `flip` = (channel, word)
        gets one bit flipped under a valid CRC."""
        head = struct.unpack(">6H", m.event_header_bytes(5, 1000))
        payload = record(be.RECORD_EVENT_HEADER, True, False, head)
        for channel in range(3):
            words = [generator_word(1, channel, k) for k in range(8)]
            if flip is not None and flip[0] == channel:
                words[flip[1]] ^= 0x0100
            soe = channel == 0
            payload += record(
                be.RECORD_FRAGMENT_BASE + 1, soe, channel == 2, (head if soe else ()) + tuple(words)
            )
        payload += record(be.RECORD_GLOBAL_EOE, False, True, ())
        client = tp.TransportClient(expected_bytes_fn=fe.generator_bytes)
        client.receive(tp.TransportFrame(0, 0, payload).serialize())
        assert client.stats.events == 1
        assert client.stats.crc_failures == 0 and client.stats.structure_errors == 0
        assert client.stats.provenance_errors == errors

    def test_dropped_frame_counted_and_event_flagged(self):
        pool, _ = fill_buffers(n_events=6, pool_size=32)
        server = tp.TransportServer(pool)
        server.on_grant(tp.CreditGrant(1000))
        frames = []
        while (out := server.next_frame()) is not None:
            frames.append(out[0])
            pool.release(out[1])
        assert len(frames) >= 3
        client = tp.TransportClient()
        dropped = frames[1]
        for frame in frames:
            if frame is dropped:
                continue
            client.receive(frame.serialize())
        assert client.stats.gaps == 1
        assert client.stats.gap_events >= 1
        # Each frame holds two whole events. The lost frame held events 2
        # and 3, so the gap lands between events and marks the next one.
        assert [ev.event_number for ev in client.events] == [0, 1, 4, 5]
        assert [ev.gap_affected for ev in client.events] == [False, False, True, False]

    @pytest.mark.parametrize(
        "sequences, gaps",
        [
            ([0xFFFFFFFE, 0xFFFFFFFF, 0, 1], 0),  # the 32-bit counter wraps
            ([0xFFFFFFFE, 0xFFFFFFFF, 1], 1),  # frame 0 after the wrap lost
            ([0xFFFFFFFE, 0, 1], 1),  # the last frame before the wrap lost
        ],
    )
    def test_sequence_wrap_is_no_gap(self, sequences, gaps):
        client = tp.TransportClient()
        for sequence in sequences:
            client.receive(tp.TransportFrame(sequence, 0, b"").serialize())
        assert client.stats.gaps == gaps
        assert client.stats.frames == len(sequences)

    def test_frame_lost_mid_event_marks_that_event(self):
        # Events span frames; frame 3 holds only fragments of event 1,
        # which is marked when its end-of-event record arrives.
        client = tp.TransportClient()
        for i, data in enumerate(split_event_frames()):
            if i != 3:
                client.receive(data)
        assert client.stats.gaps == 1
        assert [ev.event_number for ev in client.events] == [0, 1, 2]
        assert [ev.gap_affected for ev in client.events] == [False, True, False]
        assert client.stats.gap_events == 1 and client.stats.structure_errors == 0

    def test_unparsable_payload_is_counted_and_taken_as_lost(self):
        frames = split_event_frames()
        client = tp.TransportClient()
        for i, data in enumerate(frames):
            client.receive(data[:-3] if i == 3 else data)  # frame 3's last record cut short
        assert client.stats.frames == len(frames)
        assert client.stats.gaps == 0
        assert client.stats.structure_errors == 1
        assert [ev.gap_affected for ev in client.events] == [False, True, False]

    def test_event_header_without_soe_is_counted_and_taken_as_lost(self):
        head = struct.unpack(">6H", m.event_header_bytes(6, 2000))
        fragment = record(be.RECORD_FRAGMENT_BASE + 1, True, True, head + (1, 2))
        bad = record(be.RECORD_EVENT_HEADER, False, False, (1, 2)) + fragment + record(be.RECORD_GLOBAL_EOE, False, True, ())
        good = record(be.RECORD_EVENT_HEADER, True, False, head) + fragment + record(be.RECORD_GLOBAL_EOE, False, True, ())
        open_head = struct.unpack(">6H", m.event_header_bytes(5, 1000))
        unended = record(be.RECORD_EVENT_HEADER, True, False, open_head) + fragment
        client = tp.TransportClient()
        client.receive(tp.TransportFrame(0, 0, unended).serialize())
        client.receive(tp.TransportFrame(1, 0, bad).serialize())
        client.receive(tp.TransportFrame(2, 0, good).serialize())
        # The bad header closes the open event, which never ended; then the
        # bad header itself, its orphaned fragment and end-of-event record.
        assert client.stats.structure_errors == 4
        assert [(ev.event_number, len(ev.fragments), ev.gap_affected) for ev in client.events] == [
            (5, 1, False), (6, 1, True)
        ]
        assert client.stats.gaps == 0 and client.stats.gap_events == 1

    @settings(max_examples=150, deadline=None)
    @given(inputs=FRAME_DAMAGE)
    def test_client_never_raises_on_malformed_frames(self, inputs):
        """Random payload bytes behind a valid header, and real frames cut
        short, with one bit flipped or with their records reordered: the
        client counts what it cannot use and its counters stay consistent."""
        client = tp.TransportClient(expected_bytes_fn=fe.generator_bytes)
        payload_bytes = 0
        for data in damaged_frames(inputs):
            client.receive(data)
            if len(data) >= tp.TRANSPORT_HEADER_BYTES and data[:2] == b"\xaa\x55":
                payload_bytes += len(data) - tp.TRANSPORT_HEADER_BYTES
        stats = client.stats
        assert stats.frames + stats.magic_errors == len(inputs)
        assert stats.payload_bytes == payload_bytes
        assert stats.events == len(client.events)
        assert stats.gap_events == sum(ev.gap_affected for ev in client.events)
        assert stats.incomplete_events == sum(ev.incomplete for ev in client.events)
        assert stats.gap_events <= stats.events

    def test_magic_mismatch_discarded_and_counted(self):
        client = tp.TransportClient()
        client.receive(b"\xde\xad\x00\x00\x00\x00\x00\x00")
        assert client.stats.magic_errors == 1
        assert client.stats.frames == 0


class DeserializingClient(tp.TransportClient):
    """The client with every record parsed into a FragmentPacket, header and
    end-of-event records included, and provenance read from the packet: the
    reference for the client that checks fragment bytes in place."""

    def _on_record(self, tag, data):
        packet = m.FragmentPacket.deserialize(data)
        link = be.record_tag_link(tag)
        ends = tag in (be.RECORD_GLOBAL_EOE, be.RECORD_GLOBAL_EOE_INCOMPLETE)
        if tag == be.RECORD_EVENT_HEADER:
            if self._open is not None:
                self.stats.structure_errors += 1
                self._close(self._open)
                self._open = None
            if not packet.soe:
                self._lost()
                return
            self._open = tp.ClientEvent(packet.event_number, packet.timestamp)
            self._frag_index = {}
        elif self._open is None or (link is None and not ends):
            self.stats.structure_errors += 1
            return
        if self._gap_pending:
            self._open.gap_affected = True
            self._gap_pending = False
        if ends:
            self._open.incomplete = tag == be.RECORD_GLOBAL_EOE_INCOMPLETE
            self._close(self._open)
            self._open = None
        elif link is not None:
            if not packet.crc_ok:
                self.stats.crc_failures += 1
            if self.expected_bytes_fn is not None:
                channel = self._frag_index.get(link, 0)
                self._frag_index[link] = channel + 1
                if packet.data_bytes != self.expected_bytes_fn(link, channel, len(packet.data_bytes) // 2):
                    self.stats.provenance_errors += 1
            self._open.fragments.append((link, data))


def client_outcome(client_class, frames):
    """Statistics, events and event digest of a provenance-checking client
    of `client_class` that received `frames`."""
    client = client_class(expected_bytes_fn=fe.generator_bytes)
    for data in frames:
        client.receive(data)
    digest = hashlib.sha256(b"".join(repr(ev.key()).encode() for ev in client.events)).hexdigest()
    return client.stats, client.events, digest


class FrameRecorder(MessageEngine):
    """Message-level engine that keeps every frame it delivers to the client."""

    def __init__(self, config):
        super().__init__(config)
        self.frames = []

    def _client_receive(self, frame):
        self.frames.append(frame.serialize())
        super()._client_receive(frame)


@st.composite
def faulty_runs(draw):
    """Short message-level plans with lost, corrupt or skewed fragments."""
    cards = draw(st.integers(1, 4), label="cards")
    channels = draw(st.integers(1, 6), label="channels")
    link = st.integers(0, cards - 1)
    fault = st.one_of(
        st.fixed_dictionaries({"type": st.just("drop_packet"), "link": link, "index": st.integers(0, 24)}),
        st.fixed_dictionaries({
            "type": st.just("corrupt_fragment"), "link": link,
            "event": st.integers(0, 5), "channel": st.integers(0, channels - 1),
        }),
        st.fixed_dictionaries({"type": st.just("soe_skew"), "link": link, "delta": st.integers(1, 3)}),
    )
    return sim.SimConfig(
        num_frontends=cards,
        seed=draw(st.integers(0, 2**20), label="seed"),
        trigger_count=draw(st.integers(2, 6), label="trigger_count"),
        trigger_start_us=50.0,
        channels_per_event=channels,
        words_per_channel=2 * draw(st.integers(1, 48), label="half_words"),
        mtu=draw(st.sampled_from([1500, 8192]), label="mtu"),
        keep_client_events=True,
        faults=draw(st.lists(fault, min_size=1, max_size=3, unique_by=lambda f: (f["type"], f["link"])),
                    label="faults"),
    )


class TestClientOracle:
    """The client that checks fragment records as bytes against one that
    parses every record into a FragmentPacket."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=FRAME_DAMAGE)
    def test_damaged_frames(self, inputs):
        frames = list(damaged_frames(inputs))
        assert client_outcome(tp.TransportClient, frames) == client_outcome(DeserializingClient, frames)

    @settings(max_examples=40, deadline=None)
    @given(cfg=faulty_runs())
    def test_frames_of_faulty_runs(self, cfg):
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sim._ENGINES, "message_level", FrameRecorder)
            res = sim.run_scenario(cfg)
        frames = res.engine.frames
        want = client_outcome(DeserializingClient, frames)
        assert client_outcome(tp.TransportClient, frames) == want
        assert want[2] == res.client_digest()


class TestThroughputModel:
    def test_saturates_at_six_or_more_jumbo_frames(self):
        cap = 1e9 / 8 * (8192 - 66) / 8192 / 1e6
        for credit in (6, 7, 8):
            assert tp.throughput_model(credit, 8192) >= 0.98 * cap
        assert tp.throughput_model(7, 8192) == pytest.approx(cap)
        assert tp.saturation_credit(8192) == 6

    def test_credit_one_rtt_limited(self):
        thr = tp.throughput_model(1, 8192)
        cap = 1e9 / 8 * (8192 - 66) / 8192 / 1e6
        assert thr < 0.25 * cap

    def test_small_mtu_markedly_lower(self):
        jumbo = tp.throughput_model(6, 8192)
        small = tp.throughput_model(6, 1500)
        assert small <= 0.45 * jumbo

    def test_monotone_in_credit(self):
        for mtu in (1500, 8192):
            values = [tp.throughput_model(c, mtu) for c in range(1, 9)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tp.throughput_model(0, 8192)
        with pytest.raises(ValueError):
            tp.throughput_model(1, 50)


class TestRecordWalker:
    def test_truncated_record_raises(self):
        with pytest.raises(tp.TransportError):
            tp.parse_records(b"\xe5\x01\x00")
