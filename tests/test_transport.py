"""Credit-controlled transfer, client reassembly, analytic throughput model."""

import struct

import numpy as np
import pytest

from tdmlink import backend as be
from tdmlink import frontend as fe
from tdmlink import messages as m
from tdmlink import transport as tp


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
                fe.generator_word(link, channel, k).to_bytes(2, "big") for k in range(n)
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
        def record(tag, soe, eoe, words):
            return tag.to_bytes(2, "big") + m.FragmentPacket.build(soe, eoe, words).serialize()

        head = struct.unpack(">6H", m.FragmentPacket.event_header_bytes(5, 1000))
        payload = record(be.RECORD_EVENT_HEADER, True, False, head)
        for channel in range(3):
            words = [fe.generator_word(1, channel, k) for k in range(8)]
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

    def test_magic_mismatch_discarded_and_counted(self):
        client = tp.TransportClient()
        client.receive(b"\xde\xad\x00\x00\x00\x00\x00\x00")
        assert client.stats.magic_errors == 1
        assert client.stats.frames == 0


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
