import pytest
from hypothesis import given, settings, strategies as st

from crdsasim.rle import SegmentRef, TxQueue, pack_next_burst


def seg(n, total=188.0, epoch=0):
    return SegmentRef(seg_seq=n, bytes_total=total, tx_epoch=epoch)


def fill(q, n, total=188.0):
    for i in range(1, n + 1):
        q.push(seg(i, total))


class TestPacking:
    def test_exact_fit_one_segment_per_burst(self):
        q = TxQueue()
        fill(q, 3, total=188.0)
        for want in (1, 2, 3):
            slices = pack_next_burst(q, 188.0)
            assert len(slices) == 1
            assert slices[0].seg.seg_seq == want
            assert slices[0].is_final_fragment
            assert slices[0].bytes_in_burst == pytest.approx(188.0)
        assert pack_next_burst(q, 188.0) is None

    def test_fragmentation_below_one(self):
        # 188-byte units into 32.9-byte payloads: ~5.7 bursts per segment,
        # every sixth burst straddling two segments
        q = TxQueue()
        fill(q, 3, total=188.0)
        bursts = []
        while q.has_data():
            bursts.append(pack_next_burst(q, 32.9))
        straddling = [b for b in bursts if len({s.seg.seg_seq for s in b}) == 2]
        assert len(bursts) == 18  # 3 segments x ceil-ish 188/32.9
        assert 2 <= len(straddling) <= 3
        total = sum(s.bytes_in_burst for b in bursts for s in b)
        assert total == pytest.approx(3 * 188.0)

    def test_packing_above_one_full_queue(self):
        # 38-byte units into a 216.6-byte payload: up to six distinct
        # segments per burst (five whole plus a fraction)
        q = TxQueue()
        fill(q, 100, total=38.0)
        slices = pack_next_burst(q, 216.6, max_distinct=6)
        assert len({s.seg.seg_seq for s in slices}) == 6
        whole = [s for s in slices if s.is_final_fragment]
        assert len(whole) == 5
        assert sum(s.bytes_in_burst for s in slices) == pytest.approx(216.6)

    def test_packing_above_one_short_queue_subutilizes(self):
        q = TxQueue()
        fill(q, 2, total=38.0)
        slices = pack_next_burst(q, 216.6, max_distinct=6)
        assert len(slices) == 2
        assert all(s.is_final_fragment for s in slices)
        assert pack_next_burst(q, 216.6, max_distinct=6) is None

    def test_distinct_cap_respected_when_resuming(self):
        q = TxQueue()
        fill(q, 50, total=38.0)
        seen = []
        while q.has_data():
            slices = pack_next_burst(q, 216.6, max_distinct=6)
            seen.append(len({s.seg.seg_seq for s in slices}))
        assert max(seen) <= 6
        assert len(seen) >= 9

    def test_empty_queue_returns_none(self):
        assert pack_next_burst(TxQueue(), 188.0) is None

    def test_fifo_order_preserved(self):
        q = TxQueue()
        fill(q, 20, total=38.0)
        order = []
        while q.has_data():
            for s in pack_next_burst(q, 216.6, max_distinct=6):
                if s.is_final_fragment:
                    order.append(s.seg.seg_seq)
        assert order == sorted(order)

    @given(
        payload=st.floats(min_value=10.0, max_value=400.0),
        unit=st.floats(min_value=5.0, max_value=300.0),
        n=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_byte_conservation(self, payload, unit, n):
        q = TxQueue()
        fill(q, n, total=unit)
        emitted = 0.0
        for _ in range(10000):
            slices = pack_next_burst(q, payload)
            if slices is None:
                break
            emitted += sum(s.bytes_in_burst for s in slices)
        assert emitted == pytest.approx(n * unit, rel=1e-9)


class TestOverflow:
    def test_tail_drop_counts(self):
        q = TxQueue(capacity_segments=3)
        for i in range(5):
            q.push(seg(i))
        assert len(q.pending) == 3
        assert q.overflow_drops == 2
        assert [s.seg_seq for s in q.pending] == [0, 1, 2]


def carried(slices):
    """Segments a burst carries, all of which are lost if it collides."""
    return {sl.seg.seg_seq for sl in slices}


class TestBurstLoss:
    def test_single_segment_loss_for_exact_fit(self):
        q = TxQueue()
        fill(q, 3, total=188.0)
        assert carried(pack_next_burst(q, 188.0)) == {1}

    def test_full_burst_over_one_loses_f_segments(self):
        q = TxQueue()
        fill(q, 10, total=38.0)
        slices = pack_next_burst(q, 216.6, max_distinct=6)
        assert carried(slices) == {1, 2, 3, 4, 5, 6}

    def test_straddling_burst_loses_two(self):
        q = TxQueue()
        fill(q, 2, total=188.0)
        bursts = []
        while q.has_data():
            bursts.append(pack_next_burst(q, 32.9))
        straddler = next(b for b in bursts if len({s.seg.seg_seq for s in b}) == 2)
        assert carried(straddler) == {1, 2}

    def test_straddle_frequency_about_one_in_six(self):
        q = TxQueue()
        fill(q, 60, total=188.0)
        bursts = []
        while q.has_data():
            bursts.append(pack_next_burst(q, 32.9))
        frac = sum(
            1 for b in bursts if len({s.seg.seg_seq for s in b}) == 2
        ) / len(bursts)
        assert frac == pytest.approx(1 / 6, abs=0.05)
