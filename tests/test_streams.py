"""Streaming TX/RX chains: chunked feeding, lock-on-the-fly, frame recovery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdmlink import messages as m
from tdmlink import timebase, wire
from tdmlink.streams import (
    TRAINING_BITS,
    BitQueue,
    DownstreamReceiver,
    DownstreamTransmitter,
    FrameScanner,
    UpstreamReceiver,
    UpstreamTransmitter,
)
from tdmlink.wire import WireFormatError


def to_lanes(bits):
    """Return-link lane words of a (links, bits) array: link r in bit r."""
    bits = np.asarray(bits, dtype=np.uint32)
    return np.bitwise_or.reduce(bits << np.arange(len(bits), dtype=np.uint32)[:, None], axis=0)


def one_lane(symbols):
    """Fanout lane words of one card: its symbols in lane 0."""
    return np.asarray(symbols, dtype=np.uint32)


def lane_bits(words, lane):
    """Link `lane`'s line bits, in lane 0 of words of their own."""
    return words >> np.uint32(lane) & np.uint32(1)


def feed_in_chunks(rx, stream, rng, lo=1, hi=97, step=1):
    """Feed `stream` in random chunks of `step` times lo..hi-1 bits."""
    events = []
    pos = 0
    while pos < stream.shape[-1]:
        n = step * int(rng.integers(lo, hi))
        events.append(rx.feed(stream[..., pos : pos + n]))
        pos += n
    return events


class ReferenceScanner:
    """Per-bit scanner written from docs/wire-format.md sections 2 and 3.

    A 1 on an idle channel opens a frame. A fixed frame is `frame_bits`
    long. Without `frame_bits`, the frame is a framed fragment packet: its
    header word follows the start bit and fixes its length, 1 + 8 (2 +
    size + 4) bits. A header that breaks the length rule counts one fault;
    its start bit is dropped and the scan resumes at the next bit.
    """

    HEAD_BITS = 17

    def __init__(self, rows, frame_bits=None):
        self.frame_bits = frame_bits
        self.rows = [self.fresh() for _ in range(rows)]

    @staticmethod
    def fresh():
        return {"pending": [], "size": 0, "index": 0, "faults": 0}

    @staticmethod
    def packet_bits(head):
        word = int("".join(map(str, head[1:17])), 2)
        size = word & 0x3FFF  # bit 15 SOE, bit 14 EOE, bits 13..0 size
        if size % 4 or size > 2040 or (word & 0x8000 and size < 12):
            return None
        return 1 + 8 * (2 + size + 4)

    def reset(self, row):
        self.rows[row] = self.fresh()

    def feed(self, stream_of_row):
        """Feed each row its bits; returns (row, frame bits, index of the
        frame's last bit) in row order."""
        out = []
        for row, bits in stream_of_row:
            state = self.rows[row]
            for bit in bits:
                self._bit(row, state, bit, out)
        return out

    def _bit(self, row, state, bit, out):
        index = state["index"]
        state["index"] += 1
        pending = state["pending"]
        if not pending and not bit:
            return
        pending.append(bit)
        if self.frame_bits is not None:
            state["size"] = self.frame_bits
        elif len(pending) == self.HEAD_BITS:
            state["size"] = self.packet_bits(pending)
            if state["size"] is None:
                state["faults"] += 1
                rest = pending[1:]
                state["pending"] = rest[rest.index(1):] if 1 in rest else []
                return  # what is left is shorter than a header
        if len(pending) == state["size"]:
            out.append((row, tuple(pending), index))
            state["pending"] = []


def random_frames(rng, frame_bits, nbits):
    """Real frames of one kind with idle gaps and a few random frames, at
    least `nbits` bits."""
    parts, total = [], 0
    while total < nbits:
        gap = np.zeros(int(rng.integers(0, 40)), dtype=np.uint8)
        kind = rng.random()
        if kind < 0.15:  # a start bit and random bits
            frame = np.concatenate([[1], rng.integers(0, 2, int(rng.integers(1, 80)))]).astype(np.uint8)
        elif frame_bits == 10:
            frame = m.ChannelAMessageUp(
                set_busy=bool(rng.integers(2)), trigger_primitives=int(rng.integers(16))).encode()
        elif frame_bits == 42:
            frame = m.ChannelCRequest(target_mask=int(rng.integers(1, 1 << 32))).encode()
        elif frame_bits == 64:
            frame = m.ChannelBTransaction(
                read=True, target_id=int(rng.integers(32)), address=int(rng.integers(1 << 16)),
                data=int(rng.integers(1 << 32))).encode()
        else:
            soe = bool(rng.integers(2))
            words = rng.integers(0, 1 << 16, 2 * int(rng.integers(3 if soe else 0, 12))).tolist()
            frame = m.frame_fragment(m.FragmentPacket.build(soe=soe, eoe=bool(rng.integers(2)), payload_words=words).serialize())
        parts += [gap, frame]
        total += len(gap) + len(frame)
    stream = np.concatenate(parts)
    return stream ^ (rng.random(len(stream)) < 0.01).astype(np.uint8)


class TestBitQueue:
    def test_zero_fill_and_frame_continuity(self):
        q = BitQueue(1)
        q.push(0, [1, 0, 1])
        out = q.pull(0, 2)
        assert list(out) == [1, 0]
        q.push(0, [1, 1])
        assert list(q.pull(0, 5)) == [1, 1, 1, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 40),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["push"] * 3 + ["push every row", "pull", "cut", "cut", "cut every row", "clear"]),
                st.integers(0, (1 << 40) - 1),  # a row, or a mask of rows to cut
                st.lists(st.integers(0, 1), max_size=40),  # pushed bits; its length is a pull's or cut's n
            ),
            max_size=30,
        ),
    )
    def test_matches_list_of_bits_reference(self, rows, ops):
        """One-row pulls, and cuts of some, all or none of the rows busy, as
        an index array or a slice, with heads shorter than, equal to or
        longer than n."""
        q = BitQueue(rows)
        ref = [[] for _ in range(rows)]
        for op, arg, bits in ops:
            row = arg % rows
            n = len(bits)
            if op == "push":
                q.push(row, np.array(bits, dtype=np.uint8))
                ref[row] += bits
            elif op == "push every row":
                for r in range(rows):
                    q.push(r, np.array(bits, dtype=np.uint8))
                    ref[r] += bits
            elif op == "clear":
                q.clear(row)
                ref[row] = []
            elif op == "pull":
                head, ref[row] = ref[row][:n], ref[row][n:]
                assert q.pull(row, n).tolist() == head + [0] * (n - len(head))
            else:
                if op == "cut every row":
                    chosen, index = list(range(rows)), slice(None)
                else:
                    chosen = [r for r in range(rows) if arg >> r & 1] or [row]
                    index = np.array(chosen)
                want_busy, want = [], []
                for place, r in enumerate(chosen):
                    if ref[r]:
                        head, ref[r] = ref[r][:n], ref[r][n:]
                        want_busy.append(place)
                        want.append(head + [0] * (n - len(head)))
                busy, heads = q._cut(n, index)
                assert busy.tolist() == want_busy
                assert heads.shape == (len(want), n) and heads.tolist() == want
            assert q.pending_bits.tolist() == [len(bits) for bits in ref]
        assert [q.pull(r, 40).tolist() for r in range(rows)] == [(bits + [0] * 40)[:40] for bits in ref]


class TestScanners:
    def test_frames_across_chunk_boundaries(self):
        frame = m.ChannelAMessageDown(sampling_stop=True).encode()
        stream = np.concatenate([np.zeros(7, dtype=np.uint8), frame, np.zeros(3, dtype=np.uint8), frame])
        sc = FrameScanner(1, 10)
        got = []
        for i in range(0, len(stream), 4):
            got.extend(sc.feed(stream[None, i : i + 4]))
        assert len(got) == 2
        assert got[0][2] == 7 + 9  # global index of last bit
        assert np.array_equal(got[0][1], frame)

    def test_packet_scanner_round_trip(self):
        pkt = m.FragmentPacket.build(soe=False, eoe=True, payload_words=(1, 2, 3, 4))
        framed = m.frame_fragment(pkt.serialize())
        stream = np.concatenate(
            [np.zeros(5, dtype=np.uint8), framed, np.zeros(9, dtype=np.uint8), framed]
        )
        sc = FrameScanner(1, m.FRAGMENT_HEAD_BITS, m.fragment_frame_bits)
        got = []
        rng = np.random.default_rng(0)
        pos = 0
        while pos < len(stream):
            n = int(rng.integers(1, 33))
            got.extend(np.packbits(frame[1:]).tobytes() for _, frame, _ in sc.feed(stream[None, pos : pos + n]))
            pos += n
        assert got == [pkt.serialize(), pkt.serialize()]
        assert sc.faults[0] == 0


    def test_packet_scanner_emits_only_headers_the_rule_accepts(self):
        # Sparse line errors on an idle channel C: every frame the scanner
        # lets through must parse, and the headers it rejects are counted.
        noise = (np.random.default_rng(3).random(20_000) < 0.01).astype(np.uint8)
        sc = FrameScanner(1, m.FRAGMENT_HEAD_BITS, m.fragment_frame_bits)
        packets = [np.packbits(frame[1:]).tobytes() for _, frame, _ in sc.feed(noise[None])]
        assert packets and sc.faults[0] > 0
        for data in packets:
            m.FragmentPacket.deserialize(data)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 5),
        frame_bits=st.sampled_from([10, 42, 64, None]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(
                st.integers(1, 300), st.integers(1, 31), st.sampled_from(["feed"] * 4 + ["reset"]),
                st.sampled_from(["index", "slice"]),
            ),
            min_size=4, max_size=24,
        ),
    )
    def test_scanner_matches_per_bit_reference(self, rows, frame_bits, seed, steps):
        # Rows fed unevenly from their own streams; `reset` between chunks.
        # The rows fed are given as None or an index array, or as a slice
        # of the first rows, as the receivers pass them.
        # Frames, end indices and faults must match.
        rng = np.random.default_rng(seed)
        streams = [random_frames(rng, frame_bits, sum(n for n, *_ in steps)) for _ in range(rows)]
        pos = [0] * rows
        if frame_bits is None:
            sc = FrameScanner(rows, m.FRAGMENT_HEAD_BITS, m.fragment_frame_bits)
        else:
            sc = FrameScanner(rows, frame_bits)
        ref = ReferenceScanner(rows, frame_bits)
        for n, mask, op, form in steps:
            chosen = [row for row in range(rows) if mask >> row & 1] or [mask % rows]
            if form == "slice":
                chosen = list(range(len(chosen)))
                picked = slice(None) if len(chosen) == rows else slice(0, len(chosen))
            else:
                picked = None if len(chosen) == rows else np.array(chosen)
            if op == "reset":
                sc.reset(chosen[0])
                ref.reset(chosen[0])
            chunk = np.array([streams[row][pos[row] : pos[row] + n] for row in chosen])
            got = sc.feed(chunk, picked)
            want = ref.feed(zip(chosen, chunk.tolist()))
            assert [(row, tuple(frame.tolist()), end) for row, frame, end in got] == want
            assert all(type(end) is int for *_, end in got)  # end indices feed card timestamps
            assert sc.faults.tolist() == [state["faults"] for state in ref.rows]
            for row in chosen:
                pos[row] += n

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(2, 5),
        frame_bits=st.sampled_from([10, 64, None]),
        seed=st.integers(0, 2**32 - 1),
        history=st.lists(st.integers(0, 300), min_size=5, max_size=5),
        n=st.integers(1, 400),
        mask=st.integers(3, 31),
    )
    def test_rows_fed_alike_match_feeding_each(self, rows, frame_bits, seed, history, n, mask):
        # Rows with histories of their own (bits fed and faults counted),
        # none holding a partial frame, take the same bits: one scan for
        # all of them must give the frames, end indices and state that
        # scanning each row gives.
        rng = np.random.default_rng(seed)
        alike, each = (FrameScanner(rows, frame_bits) if frame_bits else
                       FrameScanner(rows, m.FRAGMENT_HEAD_BITS, m.fragment_frame_bits) for _ in range(2))
        for row in range(rows):
            # The longest packet a header can announce is 16,369 bits.
            bits = np.concatenate([random_frames(rng, frame_bits, history[row] + 1)[: history[row]],
                                   np.zeros(16_400, dtype=np.uint8)])
            for sc in (alike, each):
                sc.feed(bits[None], np.array([row]))
        assert not each.holds_frame()
        chosen = np.array([row for row in range(rows) if mask >> row & 1])
        if len(chosen) < 2:
            chosen = np.arange(2)
        bits = random_frames(rng, frame_bits, n)[:n]
        got = alike._feed_alike(bits, chosen)
        want = each.feed(np.tile(bits, (len(chosen), 1)), chosen)
        assert [(row, frame.tolist(), end) for row, frame, end in got] == [
            (row, frame.tolist(), end) for row, frame, end in want]
        for mine, theirs in zip(alike._row_state, each._row_state):
            assert mine.tolist() == theirs.tolist()


class TestDownstreamChain:
    def test_idle_then_frames_all_channels(self):
        tx = DownstreamTransmitter()
        rx = DownstreamReceiver(1)
        rng = np.random.default_rng(1)

        rx.feed(one_lane(tx.produce_cycles(8)))  # idle preamble: lock
        assert rx.locked[0] and rx.sync[0].bit_slip_offset == 0

        a_msg = m.ChannelAMessageDown(sampling_stop=True, event_type=1)
        b_txn = m.ChannelBTransaction(write=True, target_id=9, address=0x20, data=0x1234ABCD)
        c_req = m.ChannelCRequest(target_mask=0x3)
        tx.enqueue("A", a_msg.encode())
        tx.enqueue("B", b_txn.encode())
        tx.enqueue("C", c_req.encode())

        got_a, got_b, got_c = [], [], []
        stream = tx.produce_cycles(64)
        for ev in feed_in_chunks(rx, one_lane(stream), rng):
            got_a.extend(ev.a)
            got_b.extend(ev.b)
            got_c.extend(ev.c)
        assert [msg for _, msg, _ in got_a] == [a_msg]
        assert got_b == [(0, b_txn)]
        assert got_c == [(0, c_req)]
        assert rx.coding_violations[0] == 0

    @pytest.mark.parametrize("offset", range(8))
    def test_lock_from_any_starting_offset(self, offset):
        tx = DownstreamTransmitter()
        stream = tx.produce_cycles(40)
        msg = m.ChannelAMessageDown(sampling_stop=True)
        tx.enqueue("A", msg.encode())
        stream = np.concatenate([stream, tx.produce_cycles(10)])

        rx = DownstreamReceiver(1)
        ev_all = []
        rng = np.random.default_rng(offset)
        for ev in feed_in_chunks(rx, one_lane(stream[offset:]), rng):
            ev_all.extend(ev.a)
        assert rx.locked[0]
        assert rx.sync[0].bit_slip_offset == offset
        assert [msg for _, msg, _ in ev_all] == [msg]

    def test_b_saturation_does_not_delay_channel_a(self):
        # Slots are fixed: A bits flow every cycle no matter how much B
        # traffic is queued, so trigger latency is unchanged.
        b_txn = m.ChannelBTransaction(read=True, target_id=1, address=0).encode()
        arrivals = {}
        for saturate_b in (False, True):
            tx = DownstreamTransmitter()
            rx = DownstreamReceiver(1)
            rx.feed(one_lane(tx.produce_cycles(8)))
            if saturate_b:
                for _ in range(50):
                    tx.enqueue("B", b_txn)
            tx.enqueue("A", m.ChannelAMessageDown(sampling_stop=True).encode())
            ev = rx.feed(one_lane(tx.produce_cycles(64)))
            arrivals[saturate_b] = ev.a[0][2]
        assert arrivals[True] == arrivals[False]

    def test_a_frame_arrival_tick_formula(self):
        tx = DownstreamTransmitter()
        rx = DownstreamReceiver(1)
        rx.feed(one_lane(tx.produce_cycles(8)))
        msg = m.ChannelAMessageDown(sampling_stop=True)
        first_bit = tx.enqueue("A", msg.encode())
        ev = rx.feed(one_lane(tx.produce_cycles(8)))
        (_, decoded, tick), = ev.a
        assert decoded == msg
        assert tick == timebase.down_a_frame_arrival_tick(first_bit)

    def test_bad_lane_words_rejected_before_anything_is_consumed(self):
        # Two cards: a word with lane 2 set, and words of another dtype or
        # shape, are not two cards' line symbols.
        rx = DownstreamReceiver(2)
        with pytest.raises(ValueError, match="past lane 1"):
            rx.feed(np.full(40, 0b101, dtype=np.uint32))
        for bad in (np.ones(40, dtype=np.uint8), np.ones(40, dtype=np.int64), np.ones((2, 40), dtype=np.uint32)):
            with pytest.raises(ValueError, match="1-D uint32"):
                rx.feed(bad)
        rx.feed(DownstreamTransmitter().produce_cycles(8).astype(np.uint32) * np.uint32(0b11))
        fresh = DownstreamReceiver(2)
        fresh.feed(DownstreamTransmitter().produce_cycles(8).astype(np.uint32) * np.uint32(0b11))
        assert rx.locked.all() and rx.sync.tolist() == fresh.sync.tolist()  # lock points included

    def test_trigger_latency_has_zero_jitter_over_1e5_triggers(self):
        # Back-to-back triggers: inter-arrival spacing on the line is exactly
        # the frame length in A slots, with no drift over a long run.
        n = 100_000
        tx = DownstreamTransmitter()
        rx = DownstreamReceiver(1)
        rx.feed(one_lane(tx.produce_cycles(8)))
        frame = m.ChannelAMessageDown(sampling_stop=True).encode()
        starts = [tx.enqueue("A", frame) for _ in range(n)]
        arrivals = []
        remaining = 5 * n + 16
        while remaining > 0:
            take = min(4096, remaining)
            arrivals.extend(t for _, _, t in rx.feed(one_lane(tx.produce_cycles(take))).a)
            remaining -= take
        assert len(arrivals) == n
        latencies = {t - timebase.down_a_bit_end_tick(s) for s, t in zip(starts, arrivals)}
        assert len(latencies) == 1  # deterministic latency, zero jitter
        gaps = np.unique(np.diff(arrivals))
        assert gaps.tolist() == [10 * 8]  # one frame every 10 A-bit periods


class TestUpstreamChain:
    def test_training_then_traffic(self):
        tx = UpstreamTransmitter(1)
        rx = UpstreamReceiver(1)
        rng = np.random.default_rng(5)

        reply = m.ChannelAMessageUp(set_busy=True)
        resp = m.ChannelBTransaction(read=True, target_id=3, address=0x0, data=0xFEED)
        pkt = m.FragmentPacket.build(soe=False, eoe=True, payload_words=(10, 20))
        tx.enqueue(0, "A", reply.encode())
        tx.enqueue(0, "B", resp.encode())
        tx.enqueue(0, "C", m.frame_fragment(pkt.serialize()))

        got_a, got_b, got_p = [], [], []
        line = tx.produce(TRAINING_BITS + 400)
        for ev in feed_in_chunks(rx, line, rng, step=4):  # whole cycles
            got_a.extend(ev.a)
            got_b.extend(ev.b)
            got_p.extend(ev.packets)
        assert rx.training_errors[0] == 0
        assert got_a == [(0, reply)]
        assert got_b == [(0, resp)]
        assert got_p == [(0, pkt.serialize())]

    def test_forbidden_field_combination_counted_like_parity_error(self):
        # SET_BUSY and CLEAR_BUSY both set, with valid parity.
        frame = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        with pytest.raises(m.MessageFormatError):
            m.ChannelAMessageUp.decode(frame)
        tx = UpstreamTransmitter(1)
        rx = UpstreamReceiver(1)
        rx.feed(tx.produce(TRAINING_BITS))
        tx.enqueue(0, "A", frame)
        tx.enqueue(0, "A", m.ChannelAMessageUp(clear_busy=True).encode())
        ev = rx.feed(tx.produce(200))
        assert ev.a == [(0, None), (0, m.ChannelAMessageUp(clear_busy=True))]
        assert {ch: errors.tolist() for ch, errors in rx.parity_errors.items()} == {"A": [1], "B": [0]}

    def test_idle_upstream_line_is_scrambled_not_zero(self):
        tx = UpstreamTransmitter(1)
        training = tx.produce(TRAINING_BITS)
        line = tx.produce(400)
        # Scrambler spreads the B-inversion marker; line is not the raw 0100.
        assert line.any()
        rx = UpstreamReceiver(1)
        rx.feed(training)
        ev = rx.feed(line)
        assert ev.a == [] and ev.b == [] and ev.packets == []

    def test_reset_retrains_and_recovers(self):
        tx = UpstreamTransmitter(1)
        rx = UpstreamReceiver(1)
        rx.feed(tx.produce(TRAINING_BITS + 200))
        tx.reset(0)
        rx.reset(0)
        pkt = m.FragmentPacket.build(soe=True, eoe=True,
                                     payload_words=m.event_header_bytes(7, 1000))
        tx.enqueue(0, "C", m.frame_fragment(pkt.serialize()))
        got = []
        for _ in range(14):  # the training again, then the packet
            got.extend(data for _, data in rx.feed(tx.produce(100)).packets)
        assert got == [pkt.serialize()]


    @pytest.mark.parametrize("trained", [False, True])
    def test_non_binary_input_rejected_while_training_and_after(self, trained):
        # Two links: a word with lane 2 set, and words of another dtype or
        # shape, are not two links' line bits.
        tx, rx = UpstreamTransmitter(2), UpstreamReceiver(2)
        if trained:
            rx.feed(tx.produce(TRAINING_BITS))
        with pytest.raises(ValueError, match="past lane 1"):
            rx.feed(np.full(8, 0b101, dtype=np.uint32))
        for bad in (np.ones(8, dtype=np.uint8), np.ones(8, dtype=np.int64), np.ones((2, 8), dtype=np.uint32)):
            with pytest.raises(ValueError, match="1-D uint32"):
                rx.feed(bad)
        # Nothing was consumed or counted.
        assert rx.trained.tolist() == [trained] * 2
        assert rx.training_errors.tolist() == [0, 0]
        if not trained:
            rx.feed(tx.produce(TRAINING_BITS))
            assert rx.trained.all() and rx.training_errors.tolist() == [0, 0]


class TestWholeCycles:
    """Return links move whole 4-bit cycles: how a run is cut into whole
    cycles changes nothing on the line or in what is received."""

    @pytest.mark.parametrize("remainder", [1, 2, 3])
    def test_partial_cycle_raises(self, remainder):
        tx, rx = UpstreamTransmitter(2), UpstreamReceiver(2)
        with pytest.raises(WireFormatError):
            tx.produce(8 + remainder)
        with pytest.raises(WireFormatError, match="partial cycle"):
            rx.feed(np.zeros(8 + remainder, dtype=np.uint32))
        # Nothing was consumed: the link still trains from its first bit.
        rx.feed(tx.produce(TRAINING_BITS))
        assert rx.trained.all() and rx.training_errors.tolist() == [0, 0]

    @staticmethod
    def queue_frames(rng, txs, row):
        for _ in range(int(rng.integers(0, 3))):
            frames = [
                ("A", m.ChannelAMessageUp(set_busy=bool(rng.integers(2)), clear_busy=False,
                                          trigger_primitives=int(rng.integers(16))).encode()),
                ("B", m.ChannelBTransaction(read=True, target_id=int(rng.integers(32)),
                                            address=int(rng.integers(1 << 16))).encode()),
                ("C", m.frame_fragment(m.FragmentPacket.build(
                    soe=False, eoe=bool(rng.integers(2)),
                    payload_words=rng.integers(0, 1 << 16, 2 * int(rng.integers(0, 8))).tolist()).serialize())),
            ]
            channel, bits = frames[int(rng.integers(3))]
            for tx in txs:
                tx.enqueue(row, channel, bits)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        segments=st.lists(
            st.tuples(st.lists(st.integers(1, 200), min_size=1, max_size=6), st.integers(0, 7)),
            min_size=1, max_size=4,
        ),
    )
    def test_chunking_matches_one_chunk_runs(self, rows, seed, segments):
        # Each segment is run once in random whole-cycle chunks and once as
        # one chunk, with the same frames queued and the same line errors;
        # between segments the rows in the segment's mask are reset on both.
        rng = np.random.default_rng(seed)
        chunked = (UpstreamTransmitter(rows), UpstreamReceiver(rows))
        whole = (UpstreamTransmitter(rows), UpstreamReceiver(rows))
        for chunks, mask in segments:
            for row in range(rows):
                self.queue_frames(rng, (chunked[0], whole[0]), row)
            nbits = 4 * sum(chunks)
            noise = to_lanes(rng.random((rows, nbits)) < 0.002)
            line = whole[0].produce(nbits)
            want = whole[1].feed(line ^ noise)
            pieces, got = [], ([], [], [])
            pos = 0
            for cycles in chunks:
                piece = chunked[0].produce(4 * cycles)
                ev = chunked[1].feed(piece ^ noise[pos : pos + 4 * cycles])
                for dest, part in zip(got, (ev.a, ev.b, ev.packets)):
                    dest.extend(part)
                pieces.append(piece)
                pos += 4 * cycles
            assert np.array_equal(np.concatenate(pieces), line)
            for dest in got:
                dest.sort(key=lambda e: e[0])  # each row's own order kept
            assert got == (want.a, want.b, want.packets)
            for row in range(rows):
                if mask >> row & 1:
                    for end in chunked + whole:
                        end.reset(row)
        rx, ref = chunked[1], whole[1]
        assert rx.trained.tolist() == ref.trained.tolist()
        assert rx.training_errors.tolist() == ref.training_errors.tolist()
        assert {ch: e.tolist() for ch, e in rx.parity_errors.items()} == {
            ch: e.tolist() for ch, e in ref.parity_errors.items()}
        assert rx.scanners["C"].faults.tolist() == ref.scanners["C"].faults.tolist()


class TestRows:
    """A row of a many-link object behaves as a one-link object does."""

    def test_return_links_match_one_link_each(self):
        # Three links with different traffic in uneven chunks of whole
        # cycles, link 1 reset and retrained half way.
        frames = {
            0: [("A", m.ChannelAMessageUp(set_busy=True).encode()),
                ("C", m.frame_fragment(m.FragmentPacket.build(
                    soe=False, eoe=True, payload_words=(1, 2, 3, 4)).serialize()))],
            1: [("B", m.ChannelBTransaction(read=True, address=0x10, data=5).encode())],
            2: [],
        }
        many_tx, many_rx = UpstreamTransmitter(3), UpstreamReceiver(3)
        one = [(UpstreamTransmitter(1), UpstreamReceiver(1)) for _ in range(3)]
        got_many, got_one = [], []
        rng = np.random.default_rng(8)
        for step in range(12):
            if step == 6:
                many_tx.reset(1)
                many_rx.reset(1)
                one[1][0].reset(0)
                one[1][1].reset(0)
            if step in (2, 7):
                for row, queued in frames.items():
                    for channel, bits in queued:
                        many_tx.enqueue(row, channel, bits)
                        one[row][0].enqueue(0, channel, bits)
            n = 4 * int(rng.integers(1, 120))
            line = many_tx.produce(n)
            ev = many_rx.feed(line)
            got_many.append((ev.a, ev.b, ev.packets))
            rows = []
            for row, (tx, rx) in enumerate(one):
                single = tx.produce(n)
                assert np.array_equal(single, lane_bits(line, row))
                ev = rx.feed(single)
                rows.append([[(row, x) for _, x in part] for part in (ev.a, ev.b, ev.packets)])
            got_one.append(tuple(sum((r[i] for r in rows), []) for i in range(3)))
        assert got_many == got_one
        assert sum(len(packets) for _, _, packets in got_many) == 2
        for name in ("training_errors", "trained"):
            assert getattr(many_rx, name).tolist() == [getattr(rx, name)[0] for _, rx in one]
        assert many_rx.scanners["C"].faults.tolist() == [rx.scanners["C"].faults[0] for _, rx in one]


class ReferenceLink:
    """One return link built from the public bit-array codec: its own
    channel queues, training count and `wire.Scrambler` on the transmit
    side, and its own `wire.Descrambler`, training count and per-bit
    scanners on the receive side."""

    DECODE = {"A": m.ChannelAMessageUp.decode, "B": m.ChannelBTransaction.decode}

    def __init__(self):
        self.reset()

    def reset(self):
        self.queues = {"A": [], "B": [], "C": []}
        self.tx_left = self.rx_left = TRAINING_BITS
        self.scrambler, self.descrambler = wire.Scrambler(0), wire.Descrambler(0)
        self.scanners = {"A": ReferenceScanner(1, m.CHANNEL_A_FRAME_BITS),
                         "B": ReferenceScanner(1, m.CHANNEL_B_FRAME_BITS), "C": ReferenceScanner(1)}
        self.training_errors = 0
        self.parity_errors = {"A": 0, "B": 0}

    def produce(self, nbits):
        sent = min(self.tx_left, nbits)
        self.tx_left -= sent
        cycles = (nbits - sent) // 4
        channels = []
        for channel, per_cycle in (("A", 1), ("B", 1), ("C", 2)):
            queued, take = self.queues[channel], per_cycle * cycles
            channels.append(np.array((queued[:take] + [0] * take)[:take], dtype=np.uint8))
            del queued[:take]
        return np.concatenate([wire.training_pattern(sent), wire.upstream_tx(*channels, self.scrambler)])

    def feed(self, line):
        """Returns the channel A and B messages (None for a frame that does
        not decode) and the packets received, in order."""
        start = min(self.rx_left, len(line))
        self.rx_left -= start
        self.training_errors += int(np.count_nonzero(line[:start] != wire.training_pattern(start)))
        events = {"A": [], "B": [], "C": []}
        for channel, bits in zip("ABC", wire.upstream_rx(line[start:], self.descrambler)):
            for _, frame, _ in self.scanners[channel].feed([(0, bits.tolist())]):
                frame = np.array(frame, dtype=np.uint8)
                if channel == "C":
                    events["C"].append(np.packbits(frame[1:]).tobytes())
                    continue
                try:
                    events[channel].append(self.DECODE[channel](frame))
                except m.MessageFormatError:
                    events[channel].append(None)
                    self.parity_errors[channel] += 1
        return events


class ReferenceFanout:
    """One fanout receiver built from the public bit-array codec: it keeps
    the last 64 symbols while it searches for lock with `wire.bit_slip_sync`,
    then decodes whole cycles from the lock point with `wire.downstream_rx`
    and scans each channel with a per-bit `ReferenceScanner`."""

    DECODE = {"A": m.ChannelAMessageDown.decode, "B": m.ChannelBTransaction.decode, "C": m.ChannelCRequest.decode}
    KEEP = 2 * len(wire.DOWNSTREAM_IDLE_SYMBOLS) * wire.DEFAULT_LOCK_THRESHOLD

    def __init__(self):
        self.search, self.dropped = [], 0
        self.sync, self.base_tick = None, 0
        self.held, self.skip = [], 0  # symbols from the lock point on not yet decoded; symbols owed before it
        self.scanners = {"A": ReferenceScanner(1, m.CHANNEL_A_FRAME_BITS),
                         "B": ReferenceScanner(1, m.CHANNEL_B_FRAME_BITS),
                         "C": ReferenceScanner(1, m.CHANNEL_C_REQUEST_BITS)}
        self.coding_violations = 0
        self.parity_errors = {"A": 0, "B": 0, "C": 0}

    def feed(self, symbols):
        """Returns the channel A messages with their arrival ticks, and the
        B and C messages, None for a frame that does not decode."""
        symbols = list(symbols)
        if self.sync is None:
            pending = self.search + symbols
            state = wire.bit_slip_sync(np.array(pending, dtype=np.uint8))
            if not state.locked:
                self.dropped += max(len(pending) - self.KEEP, 0)
                self.search = pending[-self.KEEP :]
                return {"A": [], "B": [], "C": []}
            self.sync, self.search = state, []
            self.base_tick = timebase.TICKS_PER_DOWN_SYMBOL * (self.dropped + state.aligned_index)
            self.skip = max(state.aligned_index - len(pending), 0)
            symbols = pending[state.aligned_index :]
        skipped = min(self.skip, len(symbols))
        self.skip -= skipped
        self.held += symbols[skipped:]
        whole = len(self.held) - len(self.held) % 8
        chunk, self.held = np.array(self.held[:whole], dtype=np.uint8), self.held[whole:]
        self.coding_violations += len(wire.manchester_violations(chunk))
        events = {"A": [], "B": [], "C": []}
        for channel, bits in zip("ABC", wire.downstream_rx(chunk)):
            for _, frame, end in self.scanners[channel].feed([(0, bits.tolist())]):
                try:
                    msg = self.DECODE[channel](np.array(frame, dtype=np.uint8))
                except m.MessageFormatError:
                    msg = None
                    self.parity_errors[channel] += 1
                tick = self.base_tick + timebase.down_a_bit_end_tick(end)
                events[channel].append((msg, tick) if channel == "A" else msg)
        return events


def random_up_frame(rng, bad=0.1):
    """A channel and the bits of a random frame on it, a share `bad` of
    them damaged."""
    channel = "ABC"[int(rng.integers(3))]
    if channel == "A":
        bits = m.ChannelAMessageUp(set_busy=bool(rng.integers(2)),
                                   trigger_primitives=int(rng.integers(16))).encode()
    elif channel == "B":
        bits = m.ChannelBTransaction(read=True, target_id=int(rng.integers(32)),
                                     address=int(rng.integers(1 << 16)),
                                     data=int(rng.integers(1 << 32))).encode()
    else:
        words = rng.integers(0, 1 << 16, 2 * int(rng.integers(0, 6))).tolist()
        bits = m.frame_fragment(m.FragmentPacket.build(soe=False, eoe=bool(rng.integers(2)),
                                                       payload_words=words).serialize())
    if rng.random() < bad:
        bits = bits ^ (rng.random(len(bits)) < 0.05)  # a bad frame, as a line error leaves it
        bits[0] = 1
    return channel, bits.astype(np.uint8)


def random_fanout(rng, cycles):
    """A fanout stream of `cycles` cycles: an idle preamble, then random
    frames on every channel with idle gaps."""
    tx = DownstreamTransmitter()
    stream = [tx.produce_cycles(int(rng.integers(0, 12)))]
    while sum(map(len, stream)) < 8 * cycles:
        channel = "ABC"[int(rng.integers(3))]
        if channel == "A":
            frame = m.ChannelAMessageDown(sampling_stop=True, event_type=int(rng.integers(4))).encode()
        elif channel == "B":
            frame = m.ChannelBTransaction(
                write=True, target_id=int(rng.integers(32)), address=int(rng.integers(1 << 16)),
                data=int(rng.integers(1 << 32))).encode()
        else:
            frame = m.ChannelCRequest(target_mask=int(rng.integers(1, 1 << 32))).encode()
        tx.enqueue(channel, frame)
        stream.append(tx.produce_cycles(int(rng.integers(1, 40))))
    return np.concatenate(stream)[: 8 * cycles]


class TestLanes:
    """Both directions as bit lanes against one reference link per lane
    built from the public bit-array codec."""

    @settings(max_examples=40, deadline=None)
    @given(
        links=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(st.integers(1, 300), min_size=1, max_size=6),
        late=st.lists(st.sampled_from([0, 0, 0, 1, 5, 37]) | st.integers(0, 700), min_size=1, max_size=32),
        flips=st.integers(0, 12),
    )
    # Lanes that lock inside traffic: one on symbols fed before the last 8
    # words, one at a lock point past the end of its chunk.
    @example(links=4, seed=2312389529, chunks=[12, 3, 14], late=[166, 383, 503, 549], flips=2)
    @example(links=3, seed=1992110457, chunks=[14, 21, 38, 39, 7], late=[113, 484, 588], flips=7)
    def test_fanout_lanes_match_one_reference_receiver_each(self, links, seed, chunks, late, flips):
        # One fanout stream in every lane. A lane listens late by its
        # entry of `late` (cycling), so it locks at another offset or only
        # inside traffic, and a few symbols flip in random lanes. The lane
        # words are fed in chunks of any length, cycling through `chunks`.
        rng = np.random.default_rng(seed)
        stream = random_fanout(rng, 300)
        lines = np.zeros((links, len(stream)), dtype=np.uint8)
        for link in range(links):
            by = late[link % len(late)]
            lines[link, : len(stream) - by] = stream[by:]
        for _ in range(flips):
            lines[int(rng.integers(links)), int(rng.integers(len(stream)))] ^= 1
        words = to_lanes(lines)
        rx, refs = DownstreamReceiver(links), [ReferenceFanout() for _ in range(links)]
        pos, step = 0, 0
        while pos < len(stream):
            n = chunks[step % len(chunks)]
            ev = rx.feed(words[pos : pos + n])
            for link, ref in enumerate(refs):
                want = ref.feed(lines[link, pos : pos + n])
                assert [(msg, tick) for row, msg, tick in ev.a if row == link] == want["A"]
                assert [msg for row, msg in ev.b if row == link] == want["B"]
                assert [msg for row, msg in ev.c if row == link] == want["C"]
            for part in (ev.a, ev.b, ev.c):
                assert [row for row, *_ in part] == sorted(row for row, *_ in part)
            assert rx.locked.tolist() == [ref.sync is not None for ref in refs]
            pos, step = pos + n, step + 1
        assert rx.sync.tolist() == [ref.sync for ref in refs]
        assert rx.coding_violations.tolist() == [ref.coding_violations for ref in refs]
        for channel in "ABC":
            assert rx.parity_errors[channel].tolist() == [ref.parity_errors[channel] for ref in refs]
            assert rx.scanners[channel].faults.tolist() == [
                ref.scanners[channel].rows[0]["faults"] for ref in refs]

    @settings(max_examples=60, deadline=None)
    @given(
        links=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
        chunks=st.lists(
            st.tuples(st.integers(1, 250), st.sampled_from(["own", "same", "none"]),
                      st.just(0) | st.integers(0, 2**32 - 1), st.integers(0, 4)),
            min_size=1, max_size=8,
        ),
    )
    def test_lanes_match_one_reference_link_each(self, links, seed, chunks):
        # Each chunk is whole cycles. Before it, the links in its reset mask
        # are reset on both ends (so links train at different times), each
        # link queues its own random frames, or every link the same ones
        # (as cards answer a broadcast), or none; in it, a few line bits
        # flip in random lanes.
        rng = np.random.default_rng(seed)
        tx, rx = UpstreamTransmitter(links), UpstreamReceiver(links)
        refs = [ReferenceLink() for _ in range(links)]
        for cycles, traffic, resets, flips in chunks:
            for link in range(links):
                if resets >> link & 1:
                    tx.reset(link)
                    rx.reset(link)
                    refs[link].reset()
            shared = [random_up_frame(rng) for _ in range(int(rng.integers(1, 4)))]
            for link in range(links):
                frames = shared if traffic == "same" else [] if traffic == "none" else [
                    random_up_frame(rng) for _ in range(int(rng.integers(0, 3)))]
                for channel, bits in frames:
                    tx.enqueue(link, channel, bits)
                    refs[link].queues[channel].extend(bits.tolist())
            nbits = 4 * cycles
            words = tx.produce(nbits)
            assert words.dtype == np.uint32 and words.shape == (nbits,)
            if links < 32:
                assert not (words >> np.uint32(links)).any()  # lanes past the links stay 0
            lines = [ref.produce(nbits) for ref in refs]
            for link, line in enumerate(lines):
                assert np.array_equal(lane_bits(words, link), line)
            for _ in range(flips):
                link, pos = int(rng.integers(links)), int(rng.integers(nbits))
                words = words ^ np.where(np.arange(nbits) == pos, np.uint32(1 << link), np.uint32(0))
                lines[link][pos] ^= 1
            ev = rx.feed(words)
            for link, (ref, line) in enumerate(zip(refs, lines)):
                want = ref.feed(line)
                assert [msg for row, msg in ev.a if row == link] == want["A"]
                assert [msg for row, msg in ev.b if row == link] == want["B"]
                assert [data for row, data in ev.packets if row == link] == want["C"]
            assert [row for row, _ in ev.a] == sorted(row for row, _ in ev.a)
        assert rx.trained.tolist() == [ref.rx_left == 0 for ref in refs]
        assert rx.training_errors.tolist() == [ref.training_errors for ref in refs]
        for channel in "AB":
            assert rx.parity_errors[channel].tolist() == [ref.parity_errors[channel] for ref in refs]
        assert rx.scanners["C"].faults.tolist() == [ref.scanners["C"].rows[0]["faults"] for ref in refs]

    @settings(max_examples=30, deadline=None)
    @given(
        links=st.integers(1, 32),
        seed=st.integers(0, 2**32 - 1),
        cycles=st.one_of(st.sampled_from([0, 1, 86, 2560]), st.integers(0, 1200)),
        resets=st.integers(0, 2**32 - 1),
    )
    def test_idle_skip_matches_idle_cycles_lane_by_lane(self, links, seed, cycles, resets):
        # Links that trained at different times and carried different
        # frames, then went idle: skipping idle cycles must leave both ends
        # as producing and feeding the cycles does, lane by lane.
        rng = np.random.default_rng(seed)
        skipped, fed = [(UpstreamTransmitter(links), UpstreamReceiver(links)) for _ in range(2)]
        for step in range(3):
            frames = [[random_up_frame(rng, bad=0) for _ in range(int(rng.integers(0, 3)))] for _ in range(links)]
            for tx, rx in (skipped, fed):
                if step == 1:
                    for link in range(links):
                        if resets >> link & 1:
                            tx.reset(link)
                            rx.reset(link)
                for link, queued in enumerate(frames):
                    for channel, bits in queued:
                        tx.enqueue(link, channel, bits)
                rx.feed(tx.produce(4 * 400))
        for tx, rx in (skipped, fed):
            assert rx.trained.all() and not any(q.pending_bits.any() for q in tx.queues.values())
            assert not any(scanner.holds_frame() for scanner in rx.scanners.values())
        skipped[0].skip_idle(4 * cycles)
        skipped[1].skip_idle(4 * cycles)
        ev = fed[1].feed(fed[0].produce(4 * cycles))
        assert ev.a == ev.b == ev.packets == []
        assert skipped[0]._register.tolist() == fed[0]._register.tolist() == fed[1]._register.tolist()
        assert skipped[1]._register.tolist() == fed[1]._register.tolist()
        # Traffic after the idle stretch codes and decodes the same way.
        for channel, bits in [random_up_frame(rng, bad=0) for _ in range(3)]:
            link = int(rng.integers(links))
            skipped[0].enqueue(link, channel, bits)
            fed[0].enqueue(link, channel, bits)
        # 400 cycles carry 800 channel C bits: three of the longest packets
        # (209 bits framed) fit even when all three go to one link.
        words = skipped[0].produce(4 * 400)
        assert np.array_equal(words, fed[0].produce(4 * 400))
        got, want = skipped[1].feed(words), fed[1].feed(words)
        assert (got.a, got.b, got.packets) == (want.a, want.b, want.packets)
        assert len(got.a) + len(got.b) + len(got.packets) == 3
