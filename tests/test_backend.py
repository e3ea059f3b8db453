"""Back-end data path: pumps, mover, event builder, bootstrap, triggers."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdmlink import backend as be
from tdmlink import frontend as fe
from tdmlink import messages as m
from tdmlink.transport import parse_records

TRIGGER = m.ChannelAMessageDown(sampling_stop=True)


def make_system(n_links=4, channels=3, words=4, depth=8):
    cards = {}
    pumps = {}
    for link in range(n_links):
        card = fe.FrontEndCard(
            serial_number=0x100 + link,
            generator=fe.EventGeneratorConfig(channels_per_event=channels, words_per_channel=words),
            buffering_depth=depth,
        )
        card.assigned_id = link
        cards[link] = card
        pump = be.DataPump()
        pump.enabled = True
        pumps[link] = pump
    return cards, pumps


def pump_cycle(cards, pumps):
    """One request/response round: aggregate tokens, deliver packets."""
    mask = 0
    for link, pump in pumps.items():
        if pump.wants_request():
            mask |= 1 << link
            pump.request_posted()
    if mask == 0:
        return False
    req = m.ChannelCRequest(target_mask=mask)
    moved = False
    for link, card in cards.items():
        if not (mask >> link) & 1:
            continue
        out = card.on_channel_c(req)
        for data in out.packets:
            pumps[link].on_packet(data)
            moved = True
    return moved


def drive(cards, pumps, builder, rounds=200):
    for _ in range(rounds):
        progressed = pump_cycle(cards, pumps)
        builder.run(pumps)
        if not progressed and not any(p.fifo for p in pumps.values()):
            break


class TestDataPump:
    def test_requests_only_with_full_free_space(self):
        pump = be.DataPump()
        pump.enabled = True
        assert pump.wants_request()
        pump.request_posted()
        assert not pump.wants_request()
        pump.on_packet(b"\x00" * 1030)
        assert pump.fifo_used == 1030
        assert not pump.wants_request()  # 1 KB free is not enough room
        pump.unload()
        assert pump.wants_request()

    def test_oversize_packet_faults_link(self):
        pump = be.DataPump()
        pump.enabled = True
        pump.request_posted()
        pump.on_packet(b"\x00" * 2049)
        assert pump.fault is not None and not pump.enabled
        assert pump.counters.faults == 1

    def test_disabled_pump_discards_with_counter(self):
        pump = be.DataPump()
        pump.on_packet(b"\x00" * 10)
        assert pump.counters.lost_tokens == 1
        assert not pump.fifo

    def test_slow_consumer_never_overflows_over_1e6_packets(self):
        # Request-token discipline: however slow the consumer, a request is
        # posted only when the FIFO can hold a whole maximum-size packet, so
        # overflow is impossible (on_packet counts one as a fault). The producer stalls
        # instead of pushing: the request rate throttles to the consumption
        # rate by construction.
        rng = np.random.default_rng(17)
        pump = be.DataPump()
        pump.enabled = True
        packet = b"\x00" * 2046
        delivered = 0
        while delivered < 1_000_000:
            if pump.wants_request():
                pump.request_posted()
                pump.on_packet(packet)
                delivered += 1
                if delivered % 100_000 == 0:
                    packet = b"\x00" * (2 * int(rng.integers(3, 1024)))
            else:
                assert pump.fifo, "pump neither requesting nor holding data"
                pump.unload()
        assert pump.counters.packets == 1_000_000
        assert pump.counters.faults == 0
        assert pump.fault is None

    def test_unrequested_packet_into_occupied_fifo_is_dropped_and_counted(self):
        # A line error can forge a data request or a start bit; the packet
        # that follows finds the FIFO occupied.
        pump = be.DataPump()
        pump.enabled = True
        pump.request_posted()
        pump.on_packet(b"\x01" * 1030)
        pump.on_packet(b"\x02" * 1030)
        assert pump.counters.faults == 1
        assert pump.counters.packets == 1
        assert list(pump.fifo) == [b"\x01" * 1030]
        assert pump.fault is None and pump.enabled


class TestBufferPool:
    def test_conservation_through_lifecycle(self):
        pool = be.BufferPool(size=4)
        assert pool.audit()
        d1 = pool.fetch_free()
        assert pool.audit()
        pool.push_filled(d1)
        assert pool.audit()
        d = pool.pop_filled()
        assert pool.audit()
        pool.release(d)
        assert pool.audit()
        assert len(pool.o_fifo) == 4


class TestPacketMover:
    def test_2042_byte_packets_pack_three_per_buffer(self):
        # usable = 8192 - 66 = 8126; record = 2 + 2042 = 2044: three fit,
        # the fourth forces a rotation.
        pool = be.BufferPool(size=4)
        mover = be.PacketMover(pool)
        packet = bytes(2042)
        for _ in range(3):
            assert mover.write_record(0xE520, packet)
        assert len(pool.i_fifo) == 0
        assert mover.write_record(0xE520, packet)
        assert len(pool.i_fifo) == 1
        assert len(pool.i_fifo[0].payload) == 3 * 2044

    def test_records_never_split(self):
        pool = be.BufferPool(size=2, capacity=128, header_reserve=0)
        mover = be.PacketMover(pool)
        pkt = m.FragmentPacket.build(False, False, tuple(range(20))).serialize()
        while mover.write_record(0xE520, pkt):
            pass
        for desc in pool.i_fifo:
            records = parse_records(bytes(desc.payload))
            assert all(data == pkt for _, data in records)

    def test_pool_starvation_stalls_without_loss(self):
        pool = be.BufferPool(size=1, capacity=64, header_reserve=0)
        mover = be.PacketMover(pool)
        pkt = m.FragmentPacket.build(False, False, (1, 2)).serialize()
        writes = 0
        while mover.write_record(0xE501, pkt):
            writes += 1
        assert mover.stalls == 1
        assert pool.audit()
        # Returning a descriptor resumes exactly where it stopped.
        desc = pool.pop_filled()
        pool.release(desc)
        assert mover.write_record(0xE501, pkt)

    def test_stalls_count_episodes_not_failed_writes(self):
        pool = be.BufferPool(size=1, capacity=64, header_reserve=0)
        mover = be.PacketMover(pool)
        pkt = m.FragmentPacket.build(False, False, (1, 2)).serialize()
        while mover.write_record(0xE501, pkt):
            pass
        for _ in range(4):  # retries of the held record within one starvation
            assert not mover.write_record(0xE501, pkt)
        assert mover.stalls == 1
        pool.release(pool.pop_filled())
        while mover.write_record(0xE501, pkt):
            pass
        assert not mover.write_record(0xE501, pkt)
        assert mover.stalls == 2

    def test_records_written_back_to_back(self):
        pool = be.BufferPool(size=2, capacity=256, header_reserve=0)
        mover = be.PacketMover(pool)
        packets = [m.FragmentPacket.build(False, False, tuple(range(4 * i))).serialize() for i in range(4)]
        for i, pkt in enumerate(packets):
            assert mover.write_record(0xE520 + i, pkt)
        assert bytes(mover.current.payload) == b"".join(
            (0xE520 + i).to_bytes(2, "big") + pkt for i, pkt in enumerate(packets)
        )

    def test_empty_packet_record(self):
        pool = be.BufferPool(size=1)
        mover = be.PacketMover(pool)
        empty = m.FragmentPacket.build(False, True, ()).serialize()
        assert mover.write_record(be.RECORD_GLOBAL_EOE, empty)
        assert len(mover.current.payload) == 2 + 6


class TestEventBuilder:
    def test_assembles_one_event_from_four_links(self):
        cards, pumps = make_system(n_links=4)
        pool = be.BufferPool(size=8)
        mover = be.PacketMover(pool)
        builder = be.EventBuilder(list(pumps), mover)
        for card in cards.values():
            card.on_channel_a(TRIGGER, arrival_tick=4000)
        drive(cards, pumps, builder)
        mover.flush()
        assert builder.events_built == 1
        assert builder.phase == be.EventBuilder.AWAIT_SOE
        records = []
        for desc in pool.i_fifo:
            records.extend(parse_records(bytes(desc.payload)))
        tags = [tag for tag, _ in records]
        assert tags[0] == be.RECORD_EVENT_HEADER
        assert tags[-1] == be.RECORD_GLOBAL_EOE
        header = m.FragmentPacket.deserialize(records[0][1])
        assert header.event_number == 0
        assert header.timestamp == 1000
        # One SOE + body fragments per link, all CRC-intact.
        frag_counts = {}
        for tag, data in records[1:-1]:
            link = be.record_tag_link(tag)
            frag_counts[link] = frag_counts.get(link, 0) + 1
            assert m.FragmentPacket.deserialize(data).crc_ok
        assert frag_counts == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_round_robin_fairness_per_scan(self):
        cards, pumps = make_system(n_links=4, channels=5)
        pool = be.BufferPool(size=16)
        mover = be.PacketMover(pool)
        builder = be.EventBuilder(list(pumps), mover)
        for card in cards.values():
            card.on_channel_a(TRIGGER, 0)
        drive(cards, pumps, builder)
        mover.flush()
        records = []
        for desc in pool.i_fifo:
            records.extend(parse_records(bytes(desc.payload)))
        body = [be.record_tag_link(tag) for tag, _ in records if be.record_tag_link(tag) is not None]
        # In every window of 4 forwarded fragments, per-link counts differ by <= 1.
        for i in range(0, len(body) - 3, 4):
            window = body[i : i + 4]
            assert max(window.count(l) for l in range(4)) <= 1 + min(
                window.count(l) for l in range(4)
            )

    def test_soe_event_number_mismatch_halts(self):
        cards, pumps = make_system(n_links=3)
        cards[2].event_number_offset = 1  # link 2 reports event 1, others 0
        pool = be.BufferPool(size=8)
        builder = be.EventBuilder(list(pumps), be.PacketMover(pool))
        for card in cards.values():
            card.on_channel_a(TRIGGER, 0)
        drive(cards, pumps, builder)
        assert builder.phase == be.EventBuilder.HALTED
        assert "mismatch" in builder.halt_reason
        assert "link 2" in builder.halt_reason
        assert builder.events_built == 0

    def test_non_soe_first_packet_halts(self):
        cards, pumps = make_system(n_links=2)
        for card in cards.values():
            card.on_channel_a(TRIGGER, 0)
        # Let link 0 deliver its SOE to the card queue head, then steal it so
        # the builder sees a body packet first.
        out = cards[0].on_channel_c(m.ChannelCRequest(target_mask=0b01))
        assert m.FragmentPacket.deserialize(out.packets[0]).soe
        pool = be.BufferPool(size=8)
        builder = be.EventBuilder(list(pumps), be.PacketMover(pool))
        drive(cards, pumps, builder)
        assert builder.phase == be.EventBuilder.HALTED
        assert "lacks SOE" in builder.halt_reason

    @staticmethod
    def halting_setup():
        """Two links whose pumps hold their first packets, link 0's a body
        packet (its SOE was taken away), and a builder awaiting SOE."""
        cards, pumps = make_system(n_links=2)
        for card in cards.values():
            card.on_channel_a(TRIGGER, 0)
        cards[0].on_channel_c(m.ChannelCRequest(target_mask=0b01))
        assert pump_cycle(cards, pumps)
        return pumps, be.EventBuilder(list(pumps), be.PacketMover(be.BufferPool(size=8)))

    def test_halting_step_unloads_its_packet_and_counts_as_progress(self):
        pumps, builder = self.halting_setup()
        assert builder.step(pumps)
        assert "lacks SOE" in builder.halt_reason
        assert not pumps[0].fifo
        assert not builder.step(pumps)

    def test_run_that_halts_moved_and_frees_the_links_pump(self):
        pumps, builder = self.halting_setup()
        assert not pumps[0].wants_request()
        assert builder.run(pumps)
        assert builder.phase == be.EventBuilder.HALTED
        assert pumps[0].wants_request()
        assert not builder.run(pumps)

    def test_crc_corrupt_fragment_dropped_event_continues(self):
        cards, pumps = make_system(n_links=3)
        cards[1].corrupt_fragments.add((0, 1))
        pool = be.BufferPool(size=16)
        mover = be.PacketMover(pool)
        builder = be.EventBuilder(list(pumps), mover)
        for card in cards.values():
            card.on_channel_a(TRIGGER, 0)
            card.on_channel_a(TRIGGER, 160)
        drive(cards, pumps, builder)
        mover.flush()
        assert builder.phase == be.EventBuilder.AWAIT_SOE
        assert builder.events_built == 2
        assert builder.events_incomplete == 1
        assert builder.counters[1].crc_drops == 1
        records = []
        for desc in pool.i_fifo:
            records.extend(parse_records(bytes(desc.payload)))
        tags = [tag for tag, _ in records]
        assert be.RECORD_GLOBAL_EOE_INCOMPLETE in tags
        assert be.RECORD_GLOBAL_EOE in tags
        # The corrupted fragment is absent: link 1 forwarded one packet less.
        link_counts = {}
        for tag, _ in records:
            link = be.record_tag_link(tag)
            if link is not None:
                link_counts[link] = link_counts.get(link, 0) + 1
        assert link_counts == {0: 6, 1: 5, 2: 6}

    def test_mover_stall_blocks_builder_without_loss(self):
        cards, pumps = make_system(n_links=2, channels=4)
        pool = be.BufferPool(size=1, capacity=128, header_reserve=0)
        mover = be.PacketMover(pool)
        builder = be.EventBuilder(list(pumps), mover)
        for card in cards.values():
            card.on_channel_a(TRIGGER, 0)
        drive(cards, pumps, builder, rounds=50)
        assert mover.stalls > 0
        assert builder.events_built == 0
        # Drain filled buffers as a transport would; everything recovers.
        collected = []
        for _ in range(200):
            while pool.i_fifo:
                desc = pool.pop_filled()
                collected.extend(parse_records(bytes(desc.payload)))
                pool.release(desc)
            drive(cards, pumps, builder, rounds=5)
            if builder.events_built == 1:
                break
        mover.flush()
        while pool.i_fifo:
            desc = pool.pop_filled()
            collected.extend(parse_records(bytes(desc.payload)))
            pool.release(desc)
        assert builder.events_built == 1
        body = [t for t, _ in collected if be.record_tag_link(t) is not None]
        assert len(body) == 8  # 4 channels x 2 links, nothing lost
        assert pool.audit()


@st.composite
def link_streams(draw):
    """Packets of 1-6 links over 1-4 events, 1-4 per link and event, SOE on
    a link's first packet of an event and EOE on its last. Some CRCs are
    broken, and a first packet sometimes lacks SOE or reports a skewed event
    number or timestamp."""
    streams = {}
    events = draw(st.integers(1, 4))
    for link in range(draw(st.integers(1, 6))):
        packets = []
        for event in range(events):
            count = draw(st.integers(1, 4))
            for i in range(count):
                payload = draw(st.binary(min_size=4, max_size=4)) * draw(st.integers(0, 3))
                soe = i == 0
                if soe:
                    fault = draw(st.integers(0, 19))
                    soe = fault != 0
                    number = event + (fault == 1)
                    timestamp = 250 * event + (fault == 2)
                    payload = m.event_header_bytes(number, timestamp) + payload
                data = m.FragmentPacket.build(soe, i == count - 1, payload).serialize()
                if draw(st.integers(0, 5)) == 0:
                    data = data[:-1] + bytes([data[-1] ^ 1])  # the CRC no longer holds
                packets.append(data)
        streams[link] = packets
    return streams


def reference_build(streams):
    """Record stream, counters, events built and incomplete, and halt reason
    of one builder that serves the links in blocking round-robin: first
    packets in link order, then the rest of the event until each link's
    EOE, one packet per link per round."""
    queues = {link: deque(packets) for link, packets in sorted(streams.items())}
    counters = {link: be.LinkCounters() for link in queues}
    records = []
    built = incomplete = 0

    def take(link):
        data = queues[link].popleft()
        return data, m.FragmentPacket.deserialize(data)

    def count(link, packet):
        if packet.crc_ok:
            counters[link].packets += 1
            counters[link].payload_bytes += packet.size_bytes
        else:
            counters[link].crc_drops += 1
        return packet.crc_ok

    # The streams hold whole events, so the builder can block only where
    # every queue is empty: between events.
    while all(queues.values()):
        number = timestamp = None
        soe_records, body, flagged = [], [], False
        for link in queues:
            data, packet = take(link)
            if packet.crc_ok:
                if not packet.soe:
                    return records, counters, built, incomplete, f"link {link}: first packet of event lacks SOE"
                if number is None:
                    number, timestamp = packet.event_number, packet.timestamp
                if (packet.event_number, packet.timestamp) != (number, timestamp):
                    return records, counters, built, incomplete, (
                        "start-of-event mismatch: "
                        f"link {link} reports event {packet.event_number}/ts {packet.timestamp}, "
                        f"expected {number}/ts {timestamp}"
                    )
            if count(link, packet):
                soe_records.append((be.RECORD_FRAGMENT_BASE + link, data))
            else:
                flagged = True
            if not packet.eoe:
                body.append(link)
        header = m.event_header_bytes(
            0xFFFFFFFF if number is None else number, timestamp or 0)
        records.append((be.RECORD_EVENT_HEADER, m.FragmentPacket.build(True, False, header).serialize()))
        records.extend(soe_records)
        while body:
            for link in list(body):
                data, packet = take(link)
                if count(link, packet):
                    records.append((be.RECORD_FRAGMENT_BASE + link, data))
                else:
                    flagged = True
                if packet.eoe:
                    body.remove(link)
        records.append((be.RECORD_GLOBAL_EOE_INCOMPLETE if flagged else be.RECORD_GLOBAL_EOE, be.EOE_TRAILER))
        built += 1
        incomplete += flagged
    return records, counters, built, incomplete, None


class TestEventBuilderModel:
    @settings(max_examples=40, deadline=None)
    @given(
        streams=link_streams(),
        buffers=st.integers(1, 3),
        capacity=st.integers(40, 160),
        actions=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)), max_size=120),
    )
    def test_builder_matches_blocking_round_robin_model(self, streams, buffers, capacity, actions):
        # Packets arrive one request at a time per link, the builder steps,
        # and a fake sender drains filled buffers, in a drawn order; a small
        # pool makes the mover stall. Then everything is drained.
        pool = be.BufferPool(size=buffers, capacity=capacity, header_reserve=0)
        mover = be.PacketMover(pool)
        builder = be.EventBuilder(list(streams), mover)
        queues = {link: deque(packets) for link, packets in streams.items()}
        pumps = {link: be.DataPump() for link in streams}
        for pump in pumps.values():
            pump.enabled = True
        sent = []

        def deliver(link):
            if queues[link] and pumps[link].wants_request():
                pumps[link].request_posted()
                pumps[link].on_packet(queues[link].popleft())
                return True
            return False

        def send():
            desc = pool.pop_filled()
            if desc is None:
                return False
            sent.append(bytes(desc.payload))
            pool.release(desc)
            return True

        for kind, link in actions:
            if kind == 0:
                deliver(link % len(streams))
            elif kind == 1:
                builder.step(pumps)
            else:
                send()
        while True:
            moved = [deliver(link) for link in streams]
            builder.run(pumps)
            mover.flush()
            drained = [send() for _ in range(buffers)]
            if not any(moved) and not any(drained):
                break

        records, counters, built, incomplete, halt = reference_build(streams)
        assert b"".join(sent) == b"".join(tag.to_bytes(2, "big") + data for tag, data in records)
        assert builder.counters == counters
        assert (builder.events_built, builder.events_incomplete) == (built, incomplete)
        assert builder.halt_reason == halt
        assert pool.audit()


class TestBootstrap:
    def test_32_cards_all_verified(self):
        rng = np.random.default_rng(123)
        serials = rng.integers(0, 1 << 53, size=32)
        cards = {port: fe.FrontEndCard(int(serials[port])) for port in range(32)}
        result = be.bootstrap_sequence(be.untimed_exchange(cards), ports=list(range(32)))
        assert result.verified
        assert result.absent_ports == []
        for port, card in cards.items():
            assert card.assigned_id == port

    def test_unconnected_port_reported_absent(self):
        cards = {port: fe.FrontEndCard(port + 1) for port in range(5) if port != 3}
        result = be.bootstrap_sequence(be.untimed_exchange(cards), ports=list(range(5)))
        assert not result.verified
        assert result.absent_ports == [3]
        assert len(result.id_map) == 4

    def test_port_that_never_answers_leaves_bootstrap_unverified(self):
        # The card on port 1 is there, but every answer it sends is lost
        # on its return link; the other ports' IDs all check out.
        cards = {port: fe.FrontEndCard(port + 1) for port in range(3)}
        exchange = be.untimed_exchange(cards)

        def lossy(txn, ports):
            return {port: r for port, r in exchange(txn, ports).items() if port != 1}

        result = be.bootstrap_sequence(lossy, ports=[0, 1, 2])
        assert result.absent_ports == [1]
        assert sorted(result.id_map) == [0, 2]
        assert not result.verified

    def test_missing_answer_is_resent(self):
        # Port 1's answer to the first send of every transaction is lost on
        # its return link (a resend passes the same transaction object); the
        # resend brings it, so every ID is assigned and verified.
        cards = {port: fe.FrontEndCard(port + 1) for port in range(3)}
        exchange = be.untimed_exchange(cards)
        sent = [None]

        def lossy_once(txn, ports):
            out = exchange(txn, ports)
            if txn is not sent[-1]:
                out.pop(1, None)
            sent.append(txn)
            return out

        result = be.bootstrap_sequence(lossy_once, ports=[0, 1, 2])
        assert result.verified
        assert result.absent_ports == []
        assert sorted(result.id_map) == [0, 1, 2]

    def test_id_answer_on_another_port_leaves_bootstrap_unverified(self):
        cards = {port: fe.FrontEndCard(port + 1) for port in range(3)}
        exchange = be.untimed_exchange(cards)

        def crossed(txn, ports):
            # The answers to the ID register read come back on the
            # neighbouring port.
            out = exchange(txn, ports)
            if txn.address != fe.REG_ASSIGNED_ID:
                return out
            return {(p + 1) % 3: r for p, r in out.items()}

        assert not be.bootstrap_sequence(crossed, ports=[0, 1, 2]).verified
        assert be.bootstrap_sequence(be.untimed_exchange(cards), ports=[0, 1, 2]).verified

    def test_duplicate_serials_fatal(self):
        cards = {0: fe.FrontEndCard(7), 1: fe.FrontEndCard(7)}
        with pytest.raises(RuntimeError, match="duplicate"):
            be.bootstrap_sequence(be.untimed_exchange(cards), ports=[0, 1])


class TestTriggerUnit:
    def test_periodic_schedule(self):
        unit = be.TriggerUnit(mode="periodic", count=3, period_ticks=1000, start_tick=500)
        assert unit.next_issue_tick(0, 0, 2) == 500
        unit.on_issued()
        assert unit.next_issue_tick(0, 0, 2) == 1500
        unit.on_issued()
        unit.on_issued()
        assert unit.next_issue_tick(0, 0, 2) is None

    def test_gated_waits_for_acks_and_pipeline(self):
        unit = be.TriggerUnit(mode="gated", count=10, max_in_flight=2)
        assert unit.next_issue_tick(100, 0, 2) == 100
        unit.on_issued()
        assert unit.next_issue_tick(100, 0, 2) is None  # awaiting acks
        for _ in range(2):
            unit.on_ack(m.ChannelAMessageUp(set_busy=True))
            unit.on_ack(m.ChannelAMessageUp(clear_busy=True))
        assert unit.next_issue_tick(200, 0, 2) == 200
        unit.on_issued()
        for _ in range(2):
            unit.on_ack(m.ChannelAMessageUp(set_busy=True))
            unit.on_ack(m.ChannelAMessageUp(clear_busy=True))
        # Two events in flight, none built: gate closed.
        assert unit.next_issue_tick(300, 0, 2) is None
        assert unit.next_issue_tick(300, 1, 2) == 300
