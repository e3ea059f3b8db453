"""Front-end card behavior: triggers, register bus, request tokens, bootstrap."""

import dataclasses
import struct

import numpy as np
import pytest

from tdmlink import frontend as fe
from tdmlink import messages as m
from tdmlink.wire import PrbsGenerator

from fill_pattern import generator_word

TRIGGER = m.ChannelAMessageDown(sampling_stop=True)


def make_card(**kw):
    kw.setdefault("serial_number", 0x123456789ABCD)
    kw.setdefault(
        "generator", fe.EventGeneratorConfig(channels_per_event=3, words_per_channel=4)
    )
    card = fe.FrontEndCard(**kw)
    card.assigned_id = kw.pop("assigned_id", 0)
    return card


def assign(card, port):
    card.assigned_id = port
    return card


def reference_words(card, event_number, channel):
    """Channel payload built word by word, independent of the card's bytes."""
    cfg = card.generator
    n = cfg.words_per_channel
    if cfg.fill_pattern == "counter":
        port = card.assigned_id if card.assigned_id is not None else 0
        return [generator_word(port, channel, k) for k in range(n)]
    if cfg.fill_pattern == "constant":
        return [cfg.constant_word] * n
    if n == 0:
        return []
    seed = ((card.serial_number ^ (event_number * 2654435761) ^ channel) % 32766) + 1
    packed = np.packbits(PrbsGenerator(15, seed=seed).stream(16 * n))
    return [(int(packed[2 * i]) << 8) | int(packed[2 * i + 1]) for i in range(n)]


class TestTriggerHandling:
    def test_trigger_queues_event_and_acknowledges(self):
        card = make_card()
        out = card.on_channel_a(TRIGGER, arrival_tick=400)
        assert [r.set_busy for r in out.a_replies] == [True, False]
        assert [r.clear_busy for r in out.a_replies] == [False, True]
        assert len(card.event_queue) == 1
        assert card.event_queue[0].event_number == 0
        assert card.event_queue[0].timestamp == 100  # 400 ticks / 4

    def test_clear_event_counter(self):
        card = make_card()
        card.on_channel_a(TRIGGER, 0)
        card.on_channel_a(m.ChannelAMessageDown(clear_event_counter=True), 16)
        out = card.on_channel_a(TRIGGER, 32)
        assert out.a_replies[0].set_busy
        assert card.event_queue[-1].event_number == 0

    def test_clear_timestamp_rebases(self):
        card = make_card()
        card.on_channel_a(m.ChannelAMessageDown(clear_timestamp=True), 4000)
        card.on_channel_a(TRIGGER, 4400)
        assert card.event_queue[0].timestamp == 100

    def test_multi_event_buffering_no_dead_time(self):
        card = make_card(buffering_depth=2)
        out1 = card.on_channel_a(TRIGGER, 0)
        out2 = card.on_channel_a(TRIGGER, 160)
        assert out1.a_replies and out2.a_replies
        assert len(card.event_queue) == 2
        assert card.lost_triggers == 0
        # Event numbers strictly increase, timestamps never decrease.
        numbers = [ev.event_number for ev in card.event_queue]
        stamps = [ev.timestamp for ev in card.event_queue]
        assert numbers == [0, 1]
        assert stamps == sorted(stamps)

    def test_trigger_lost_when_buffers_full(self):
        card = make_card(buffering_depth=1)
        card.on_channel_a(TRIGGER, 0)
        out = card.on_channel_a(TRIGGER, 160)
        assert out.a_replies == []
        assert card.lost_triggers == 1
        # Lost triggers are visible on the register bus.
        resp = card.on_channel_b(
            m.ChannelBTransaction(read=True, target_id=0, address=fe.REG_LOST_TRIGGERS)
        )
        assert resp.data == 1

    def test_readout_mode_held_token_answered_with_clear_busy(self):
        # A token held while no data existed is answered by the trigger; the
        # packet finishes the one-channel event, so CLEAR_BUSY goes out too.
        card = make_card(
            clear_busy_on="readout",
            generator=fe.EventGeneratorConfig(channels_per_event=1, words_per_channel=4),
        )
        assert card.on_channel_c(m.ChannelCRequest(target_mask=1)).packets == []
        out = card.on_channel_a(TRIGGER, 0)
        assert len(out.packets) == 1
        assert [(r.set_busy, r.clear_busy) for r in out.a_replies] == [(True, False), (False, True)]
        assert not card.busy and card.pending_requests == 0

    def test_clear_busy_on_readout_mode(self):
        card = make_card(clear_busy_on="readout")
        out = card.on_channel_a(TRIGGER, 0)
        assert [r.set_busy for r in out.a_replies] == [True]
        assert card.busy
        req = m.ChannelCRequest(target_mask=1)
        replies = []
        packets = []
        for _ in range(3):
            o = card.on_channel_c(req)
            packets.extend(o.packets)
            replies.extend(o.a_replies)
        assert len(packets) == 3
        assert [r.clear_busy for r in replies] == [True]
        assert not card.busy


class TestRegisterBus:
    def test_write_then_read_scratch(self):
        card = make_card()
        w = m.ChannelBTransaction(write=True, target_id=0, address=0x0100, data=0xCAFE1234)
        resp = card.on_channel_b(w)
        assert resp.data == 0xCAFE1234 and not resp.bus_error
        r = card.on_channel_b(m.ChannelBTransaction(read=True, target_id=0, address=0x0100))
        assert r.data == 0xCAFE1234

    def test_byte_enable_touches_only_selected_byte(self):
        card = make_card()
        card.on_channel_b(
            m.ChannelBTransaction(write=True, target_id=0, address=0x0100, data=0x11223344)
        )
        card.on_channel_b(
            m.ChannelBTransaction(
                write=True, target_id=0, address=0x0100, data=0xFFFFFFAB, byte_enable=0b0001
            )
        )
        r = card.on_channel_b(m.ChannelBTransaction(read=True, target_id=0, address=0x0100))
        assert r.data == 0x112233AB

    def test_unmapped_address_bus_error(self):
        card = make_card()
        r = card.on_channel_b(m.ChannelBTransaction(read=True, target_id=0, address=0x5000))
        assert r.bus_error and r.data == 0
        w = card.on_channel_b(
            m.ChannelBTransaction(write=True, target_id=0, address=fe.REG_SERIAL_HI, data=1)
        )
        assert w.bus_error  # serial number is read-only

    def test_only_addressed_card_responds(self):
        card = make_card()
        assert card.on_channel_b(m.ChannelBTransaction(read=True, target_id=7, address=0)) is None
        unassigned = fe.FrontEndCard(serial_number=1)
        assert (
            unassigned.on_channel_b(m.ChannelBTransaction(read=True, target_id=0, address=0))
            is None
        )

    def test_broadcast_serial_read(self):
        card = make_card(serial_number=0x1FFFFF_FFFFFFFF & ((1 << 53) - 1))
        hi = card.on_channel_b(
            m.ChannelBTransaction(broadcast=True, read=True, address=fe.REG_SERIAL_HI)
        )
        lo = card.on_channel_b(
            m.ChannelBTransaction(broadcast=True, read=True, address=fe.REG_SERIAL_LO)
        )
        assert ((hi.data << 32) | lo.data) == card.serial_number

    def test_request_neither_read_nor_write_gets_bus_error(self):
        # One flipped start bit on an idle channel B gives an all-zero frame
        # with valid parity: a request to port 0 that neither reads nor writes.
        card = make_card()
        for rd_wr in (False, True):
            resp = card.on_channel_b(
                m.ChannelBTransaction(target_id=0, read=rd_wr, write=rd_wr, address=0x0100, data=7)
            )
            assert resp.bus_error and resp.data == 0
            assert (resp.target_id, resp.address) == (0, 0x0100)
        assert card.request_errors == 2
        assert card._scratch == {}

    def test_parity_error_response(self):
        card = make_card()
        resp = card.on_channel_b_parity_error()
        assert resp.parity_error
        assert resp == m.ChannelBTransaction(read=True, parity_error=True)

    def test_successful_write_is_answered_with_the_request(self):
        card = make_card()
        w = m.ChannelBTransaction(
            broadcast=True, write=True, address=0x0101, data=0xCAFE1234, byte_enable=0b0101
        )
        resp = card.on_channel_b(w)
        assert resp is w
        assert resp == m.ChannelBTransaction(
            broadcast=w.broadcast, target_id=w.target_id, read=w.read, write=w.write,
            byte_enable=w.byte_enable, address=w.address, data=w.data, bus_error=False,
        )
        r = card.on_channel_b(m.ChannelBTransaction(read=True, target_id=0, address=0x0101))
        assert r.data == 0x00FE0034 and not r.bus_error

    def test_write_answer_differs_from_the_request_when_it_must(self):
        card = make_card()
        ro = m.ChannelBTransaction(write=True, target_id=0, address=fe.REG_SERIAL_LO, data=1)
        resp = card.on_channel_b(ro)
        assert resp is not ro and resp == dataclasses.replace(ro, bus_error=True)
        # Response flags on a request (line errors can set them) are not echoed.
        for flag in ("bus_error", "parity_error"):
            flagged = m.ChannelBTransaction(write=True, target_id=0, address=0x0100, data=5, **{flag: True})
            resp = card.on_channel_b(flagged)
            assert resp == dataclasses.replace(flagged, **{flag: False})
            # A read is answered with the data read (scratch word 0x0100 holds
            # 5, 0x0300 is unmapped); bus_error is set only when it fails.
            for address, data, ok in ((0x0100, 5, True), (0x0300, 0, False)):
                read = m.ChannelBTransaction(read=True, target_id=0, address=address, data=0x77, **{flag: True})
                resp = card.on_channel_b(read)
                assert resp == dataclasses.replace(read, data=data, parity_error=False, bus_error=not ok)


class TestBootstrapCapture:
    def test_card_captures_its_own_id(self):
        card = fe.FrontEndCard(serial_number=0xABCDE0000F)
        for addr, value in (
            (fe.REG_MAP_SERIAL_HI, card.serial_number >> 32),
            (fe.REG_MAP_SERIAL_LO, card.serial_number & 0xFFFFFFFF),
            (fe.REG_MAP_PORT, 12),
        ):
            card.on_channel_b(
                m.ChannelBTransaction(broadcast=True, write=True, address=addr, data=value)
            )
        assert card.assigned_id == 12
        r = card.on_channel_b(
            m.ChannelBTransaction(read=True, target_id=12, address=fe.REG_ASSIGNED_ID)
        )
        assert r.data == 12

    def test_foreign_serial_leaves_card_unassigned(self):
        card = fe.FrontEndCard(serial_number=5)
        for addr, value in (
            (fe.REG_MAP_SERIAL_HI, 0),
            (fe.REG_MAP_SERIAL_LO, 6),
            (fe.REG_MAP_PORT, 3),
        ):
            card.on_channel_b(
                m.ChannelBTransaction(broadcast=True, write=True, address=addr, data=value)
            )
        assert card.assigned_id is None


class TestDataRequests:
    def test_event_fragment_sequence_flags(self):
        card = make_card()
        card.on_channel_a(TRIGGER, 100)
        req = m.ChannelCRequest(target_mask=1)
        packets = [m.FragmentPacket.deserialize(card.on_channel_c(req).packets[0]) for _ in range(3)]
        assert [p.soe for p in packets] == [True, False, False]
        assert [p.eoe for p in packets] == [False, False, True]
        assert packets[0].event_number == 0
        assert packets[0].timestamp == 25
        assert all(p.crc_ok for p in packets)
        # Payload carries the provenance stamp.
        assert packets[1].payload_words[0] == generator_word(0, 1, 0)

    def test_single_channel_event_has_both_flags(self):
        card = make_card(generator=fe.EventGeneratorConfig(channels_per_event=1, words_per_channel=2))
        card.on_channel_a(TRIGGER, 0)
        pkt = m.FragmentPacket.deserialize(card.on_channel_c(m.ChannelCRequest(target_mask=1)).packets[0])
        assert pkt.soe and pkt.eoe

    def test_mask_bit_not_set_no_emission(self):
        card = make_card()
        assign(card, 3)
        card.on_channel_a(TRIGGER, 0)
        out = card.on_channel_c(m.ChannelCRequest(target_mask=0xFFFFFFF7))
        assert out.packets == []
        assert card.pending_requests == 0

    def test_request_token_held_until_data_exists(self):
        card = make_card()
        req = m.ChannelCRequest(target_mask=1)
        assert card.on_channel_c(req).packets == []
        assert card.pending_requests == 1
        out = card.on_channel_a(TRIGGER, 0)
        assert len(out.packets) == 1  # held token answered by the new event
        assert card.pending_requests == 0

    def test_unknown_opcode_ignored_with_counter(self):
        card = make_card()
        card.on_channel_a(TRIGGER, 0)
        out = card.on_channel_c(m.ChannelCRequest(opcode=0x7F, target_mask=1))
        assert out.packets == [] and card.request_errors == 1

    def test_corrupt_fragment_hook_breaks_crc_only(self):
        card = make_card()
        card.corrupt_fragments.add((0, 1))
        card.on_channel_a(TRIGGER, 0)
        req = m.ChannelCRequest(target_mask=1)
        pkts = [card.on_channel_c(req).packets[0] for _ in range(3)]
        parsed = [m.FragmentPacket.deserialize(p) for p in pkts]
        assert [p.crc_ok for p in parsed] == [True, False, True]
        assert parsed[1].eoe is False  # header flags untouched

    def test_fill_patterns_match_per_word_reference(self):
        card = assign(make_card(serial_number=0x1F2E3D4C5B6A7), 5)
        for pattern in ("counter", "prbs", "constant"):
            card.generator = fe.EventGeneratorConfig(
                channels_per_event=2, words_per_channel=16, fill_pattern=pattern, constant_word=0x1234
            )
            for event_number, channel in ((0, 0), (3, 1), (70000, 1)):
                expected = reference_words(card, event_number, channel)
                data = card._channel_bytes(event_number, channel)
                assert data == b"".join(w.to_bytes(2, "big") for w in expected)

    def test_prbs_fill_words_pinned(self):
        card = fe.FrontEndCard(
            0x1234ABCD,
            fe.EventGeneratorConfig(channels_per_event=4, words_per_channel=16, fill_pattern="prbs"),
        )
        data = card._channel_bytes(event_number=1, channel=2)
        assert struct.unpack(">16H", data) == (
            0x052E, 0x1EE4, 0x4659, 0x95D5, 0x7CFF, 0x0A02, 0x3C0C, 0x882B,
            0x30FA, 0xA21F, 0xCC40, 0xA983, 0xF508, 0x3E30, 0x84A3, 0x1BCA,
        )

    def test_prbs_and_constant_fill_patterns(self):
        for pattern in ("prbs", "constant"):
            card = make_card(
                generator=fe.EventGeneratorConfig(
                    channels_per_event=2, words_per_channel=4, fill_pattern=pattern
                )
            )
            card.on_channel_a(TRIGGER, 0)
            out = card.on_channel_c(m.ChannelCRequest(target_mask=1))
            pkt = m.FragmentPacket.deserialize(out.packets[0])
            assert pkt.crc_ok and len(pkt.data_words) == 4


class TestPayloadBytes:
    """Each packet a card makes from bytes equals the packet built from the
    same payload as a list of words."""

    LAST = 2**14 + 1  # the EOE channel; channels from 2**14 need the stamp masked

    @pytest.mark.parametrize("pattern", ["counter", "constant", "prbs"])
    @pytest.mark.parametrize("words", [0, 2, m.MAX_PAYLOAD_WORDS - m.EVENT_HEADER_WORDS])
    def test_packet_bytes_match_word_built_packet(self, pattern, words):
        gen = fe.EventGeneratorConfig(
            channels_per_event=self.LAST + 1, words_per_channel=words,
            fill_pattern=pattern, constant_word=0xC35A,
        )
        for port in (None, 0, 5, 31):
            card = assign(make_card(serial_number=0x1F2E3D4C5B6A7 ^ (port or 0), generator=gen), port)
            for number, ts in ((0, 0), (70000, 0x123456789ABC), (0xFFFFFFFF, 0xFFFFFFFFFFFF)):
                ev = fe._QueuedEvent(number, ts)
                for channel in (0, 1, 2**14, self.LAST):
                    soe, eoe = channel == 0, channel == self.LAST
                    head = [number >> 16, number & 0xFFFF, ts >> 32, (ts >> 16) & 0xFFFF, ts & 0xFFFF, 0]
                    expected = m.FragmentPacket.build(
                        soe=soe, eoe=eoe,
                        payload_words=(head if soe else []) + reference_words(card, number, channel),
                    ).serialize()
                    assert card._fragment_bytes(ev, channel) == expected

    @pytest.mark.parametrize("word", [-1, 0x10000])
    def test_constant_word_outside_16_bits_rejected(self, word):
        with pytest.raises(ValueError, match="constant_word"):
            fe.EventGeneratorConfig(fill_pattern="constant", constant_word=word)
