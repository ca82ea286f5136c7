import pytest
from hypothesis import given, settings, strategies as st

from crdsasim.rle import TxQueue, pack_next_burst


def fill(n, seg_bytes=188.0):
    """A queue of ``seg_bytes`` segments holding seqs 1..n as new data."""
    q = TxQueue(seg_bytes)
    q.admit(range(1, n + 1), 1)
    return q


def pack(q, payload, max_distinct=None):
    """``pack_next_burst`` and the bytes the burst carried, read off the
    queue's cursor before and after the call."""
    before, sent_before = q.cursor_seg, q.cursor_sent
    segs = pack_next_burst(q, payload, max_distinct)
    carried = 0.0
    for s in segs or ():
        out = q.cursor_sent if s is q.cursor_seg else q.seg_bytes
        carried += out - (sent_before if s is before else 0.0)
    return segs, carried


class TestPacking:
    def test_exact_fit_one_segment_per_burst(self):
        q = fill(3)
        for want in (1, 2, 3):
            segs, carried = pack(q, 188.0)
            assert [s.seg_seq for s in segs] == [want]
            assert q.cursor_seg is None         # finished in this burst
            assert carried == pytest.approx(188.0)
        assert pack_next_burst(q, 188.0) is None

    def test_fragmentation_below_one(self):
        # 188-byte units into 32.9-byte payloads: ~5.7 bursts per segment,
        # every sixth burst straddling two segments
        q = fill(3)
        segs = pack_next_burst(q, 32.9)
        assert q.cursor_seg is segs[0]
        assert q.cursor_sent == pytest.approx(32.9)
        bursts = [segs]
        while q.has_data():
            bursts.append(pack_next_burst(q, 32.9))
        straddling = [b for b in bursts if len({s.seg_seq for s in b}) == 2]
        assert len(bursts) == 18  # 3 segments x ceil-ish 188/32.9
        assert 2 <= len(straddling) <= 3
        # the sixth burst finishes seq 1 (5 x 32.9 = 164.5 sent) and
        # starts seq 2 with the rest of its payload
        assert [s.seg_seq for s in bursts[5]] == [1, 2]
        assert q.cursor_seg is None and q.cursor_sent == 0.0

    def test_packing_above_one_full_queue(self):
        # 38-byte units into a 216.6-byte payload: up to six distinct
        # segments per burst (five whole plus a fraction)
        q = fill(100, 38.0)
        segs = pack_next_burst(q, 216.6, max_distinct=6)
        assert len({s.seg_seq for s in segs}) == 6
        assert q.cursor_seg is segs[-1]          # five finished, one started
        assert q.cursor_sent == pytest.approx(216.6 - 5 * 38.0)

    def test_packing_above_one_short_queue_subutilizes(self):
        q = fill(2, 38.0)
        segs, carried = pack(q, 216.6, max_distinct=6)
        assert len(segs) == 2
        assert q.cursor_seg is None             # both finished
        assert carried == pytest.approx(2 * 38.0)
        assert pack_next_burst(q, 216.6, max_distinct=6) is None

    def test_distinct_cap_respected_when_resuming(self):
        q = fill(50, 38.0)
        seen = []
        while q.has_data():
            segs = pack_next_burst(q, 216.6, max_distinct=6)
            seen.append(len({s.seg_seq for s in segs}))
        assert max(seen) <= 6
        assert len(seen) >= 9

    def test_empty_queue_returns_none(self):
        assert pack_next_burst(TxQueue(188.0), 188.0) is None

    def test_fifo_order_preserved(self):
        q = fill(20, 38.0)
        order = []
        while q.has_data():
            for s in pack_next_burst(q, 216.6, max_distinct=6):
                if s is not q.cursor_seg:
                    order.append(s.seg_seq)
        assert order == sorted(order)

    @given(
        payload=st.floats(min_value=10.0, max_value=400.0),
        unit=st.floats(min_value=5.0, max_value=300.0),
        n=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_byte_conservation(self, payload, unit, n):
        q = fill(n, unit)
        emitted = 0.0
        for _ in range(10000):
            segs, carried = pack(q, payload)
            if segs is None:
                break
            emitted += carried
        assert emitted == pytest.approx(n * unit, rel=1e-9)

    @given(
        payload=st.floats(min_value=10.0, max_value=400.0),
        unit=st.floats(min_value=5.0, max_value=300.0),
        n=st.integers(1, 40),
        max_distinct=st.sampled_from([None, 1, 2, 6]),
    )
    @settings(max_examples=100, deadline=None)
    def test_burst_shape(self, payload, unit, n, max_distinct):
        """Only the last segment a burst touches may be unfinished, and
        then it is the queue's cursor, which the next burst resumes; at most
        ``max_distinct`` segments per burst; segments finish in FIFO order;
        the cursor conserves bytes."""
        q = fill(n, unit)
        admitted = list(q.pending)
        finished = []
        emitted = 0.0
        while True:
            before = q.cursor_seg
            segs, carried = pack(q, payload, max_distinct)
            if segs is None:
                break
            assert before is None or segs[0] is before
            assert len(set(map(id, segs))) == len(segs)
            if max_distinct is not None:
                assert len(segs) <= max_distinct
            assert q.cursor_seg is None or q.cursor_seg is segs[-1]
            if q.cursor_seg is not None:
                assert 0.0 < q.cursor_sent < q.seg_bytes
            finished += [s for s in segs if s is not q.cursor_seg]
            assert carried <= payload + 1e-9
            # a burst is full unless the queue ran dry or the cap bound
            if q.has_data() and (max_distinct is None or len(segs) < max_distinct):
                assert carried == pytest.approx(payload, rel=1e-9)
            emitted += carried
        assert [id(s) for s in finished] == [id(s) for s in admitted]
        assert emitted == pytest.approx(n * unit, rel=1e-9)


class TestOverflow:
    def test_tail_drop_counts(self):
        q = TxQueue(188.0, capacity_segments=3)
        assert q.admit(range(5), 0)
        assert len(q.pending) == 3
        assert q.overflow_drops == 2
        assert [s.seg_seq for s in q.pending] == [0, 1, 2]
        assert not q.admit([5], 5)
        assert q.overflow_drops == 3


class SetRule:
    """The admission rule with a set: the seqs that have a copy admitted
    and never packed.  A resend of a seq in the set is a no-op; past the
    capacity, segments are tail-dropped and counted, and do not enter the
    set."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.queue = []            # (seq, retransmit) admitted, never packed
        self.untx = set()
        self.drops = 0

    def admit(self, seqs, first_new):
        pushed = False
        for seq in seqs:
            retransmit = seq < first_new
            if retransmit and seq in self.untx:
                continue
            if len(self.queue) >= self.capacity:
                self.drops += 1
                continue
            self.queue.append((seq, retransmit))
            self.untx.add(seq)
            pushed = True
        return pushed

    def packed(self, n):
        """The first n queued copies leave the queue for the link."""
        for seq, _ in self.queue[:n]:
            self.untx.discard(seq)
        del self.queue[:n]


class TestAdmission:
    @given(
        capacity=st.integers(1, 4),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("pack"), st.sampled_from([50.0, 100.0, 188.0, 300.0])),
                st.tuples(st.just("admit"),
                          st.lists(st.integers(1, 4), max_size=4),
                          st.integers(0, 3)),
            ),
            max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_set_rule(self, capacity, steps):
        """Random sender batches (resends of the last few seqs, then a new
        range) interleaved with packs of whole, partial and several
        segments."""
        q = TxQueue(188.0, capacity_segments=capacity)
        rule = SetRule(capacity)
        first_new = 1
        for step in steps:
            if step[0] == "pack":
                cursor = q.cursor_seg
                segs = pack_next_burst(q, step[1], max_distinct=2)
                left = [s for s in segs or () if s is not cursor]
                assert [(s.seg_seq, s.retransmit) for s in left] == rule.queue[:len(left)]
                rule.packed(len(left))
            else:
                _, back, n_new = step
                resends = [first_new - k for k in back if first_new - k >= 1]
                seqs = resends + list(range(first_new, first_new + n_new))
                got = q.admit(seqs, first_new)
                assert got == rule.admit(seqs, first_new)
                first_new += n_new
            assert [(s.seg_seq, s.retransmit) for s in q.pending] == rule.queue
            assert q.overflow_drops == rule.drops

    def test_resend_of_a_seq_queued_behind_its_cursor_is_noop(self):
        # seq 1 is partly sent when a timeout resends it; its first copy
        # finishes while the resend still waits behind seq 2, so a second
        # resend finds the queued copy and is a no-op
        q = fill(2)
        pack_next_burst(q, 100.0)
        assert q.cursor_seg.seg_seq == 1
        assert q.admit([1], 3)
        assert [s.seg_seq for s in pack_next_burst(q, 100.0)] == [1, 2]
        assert not q.admit([1], 3)
        assert [(s.seg_seq, s.retransmit) for s in q.pending] == [(1, True)]


def carried(segs):
    """Segments a burst carries, all of which are lost if it collides."""
    return {s.seg_seq for s in segs}


class TestBurstLoss:
    def test_single_segment_loss_for_exact_fit(self):
        q = fill(3)
        assert carried(pack_next_burst(q, 188.0)) == {1}

    def test_full_burst_over_one_loses_f_segments(self):
        q = fill(10, 38.0)
        segs = pack_next_burst(q, 216.6, max_distinct=6)
        assert carried(segs) == {1, 2, 3, 4, 5, 6}

    def test_straddling_burst_loses_two(self):
        q = fill(2)
        bursts = []
        while q.has_data():
            bursts.append(pack_next_burst(q, 32.9))
        straddler = next(b for b in bursts if len({s.seg_seq for s in b}) == 2)
        assert carried(straddler) == {1, 2}

    def test_straddle_frequency_about_one_in_six(self):
        q = fill(60)
        bursts = []
        while q.has_data():
            bursts.append(pack_next_burst(q, 32.9))
        frac = sum(
            1 for b in bursts if len({s.seg_seq for s in b}) == 2
        ) / len(bursts)
        assert frac == pytest.approx(1 / 6, abs=0.05)
