import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crdsasim.config import ScenarioConfig, WAVEFORM_CATALOG, parse_scenario_text
from crdsasim.engine import (
    _due_block, _Flow, _lose_burst, _Tally, metrics_to_json, run, sweep,
)
from crdsasim.rle import TxQueue, pack_next_burst
from crdsasim.tcp import TcpReceiver, TcpSender


def make_cfg(wf=14, mss=173, n=5, dur=40.0, seed=11, **kw):
    return ScenarioConfig(
        waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss, n_rcst=n,
        sim_duration_s=dur, seed=seed, **kw
    )


class TestSingleFlow:
    def test_no_contention_no_losses(self):
        m = run(make_cfg(n=1, dur=60.0))
        assert m.blr == 0.0
        assert m.q == 0.0
        assert m.p == 0.0
        assert m.timeouts == 0
        assert m.segments_delivered > 0
        assert not m.nonconvergent

    def test_single_flow_hits_mac_cap(self):
        cfg = make_cfg(n=1, dur=60.0)
        m = run(cfg)
        cap_kbps = cfg.mss_bytes * 8.0 / 1000.0 / cfg.block_duration_s
        assert m.thr_kbps == pytest.approx(cap_kbps, rel=0.02)

    def test_rtt_floor(self):
        # min RTT: 20 blocks up + 1 block decode + 20 blocks down + processing
        cfg = make_cfg(n=1, dur=40.0)
        m = run(cfg)
        floor = (41 + cfg.processing_delay_blocks) * cfg.block_duration_s
        assert m.e_rtt_s >= floor - 1e-9


class TestDeterminism:
    def test_equal_seeds_equal_metrics(self):
        a = run(make_cfg(n=8, dur=30.0, seed=5))
        b = run(make_cfg(n=8, dur=30.0, seed=5))
        assert metrics_to_json(a, make_cfg(n=8, dur=30.0, seed=5)) == \
            metrics_to_json(b, make_cfg(n=8, dur=30.0, seed=5))
        assert (a.g_series == b.g_series).all()

    def test_python_config_replays_byte_for_byte(self):
        # ints in float fields are recorded as the floats the replay parses
        cfg = ScenarioConfig(waveform=WAVEFORM_CATALOG[14], mss_bytes=173,
                             n_rcst=2, sim_duration_s=5)
        replay = parse_scenario_text(cfg.to_text())
        assert metrics_to_json(run(cfg), cfg) == \
            metrics_to_json(run(replay), replay)

    def test_different_seeds_differ(self):
        a = run(make_cfg(n=8, dur=30.0, seed=5))
        b = run(make_cfg(n=8, dur=30.0, seed=6))
        assert a.segments_delivered != b.segments_delivered


class TestConservation:
    def test_retransmissions_track_losses_exact_fit(self):
        # r=1: every burst loss is one segment loss; retransmissions cover
        # losses plus go-back-N spurious copies
        m = run(make_cfg(n=25, dur=120.0, seed=3))
        assert m.segment_losses == m.bursts_lost
        assert m.retransmissions >= m.segment_losses * 0.9
        assert abs(m.retransmissions - m.segment_losses) <= m.spurious_rtx + m.timeouts

    def test_loss_rates_consistent(self):
        m = run(make_cfg(n=25, dur=120.0, seed=3))
        assert 0.0 < m.p <= m.q < 1.0
        assert m.e_delta == pytest.approx(m.q / m.p, rel=1e-9)
        assert 1.0 <= m.e_delta <= 1.2

    def test_aggregate_throughput_bound(self):
        cfg = make_cfg(n=25, dur=60.0, seed=3)
        m = run(cfg)
        bound = (cfg.slots_per_block / cfg.replicas) * cfg.mss_bytes * 8.0 \
            / 1000.0 / cfg.block_duration_s
        assert sum(m.throughput_kbps_per_flow) <= bound

    def test_delivered_counts_unique_segments(self):
        cfg = make_cfg(n=4, dur=60.0, seed=3)
        m = run(cfg)
        per_flow = np.array(m.throughput_kbps_per_flow)
        expect = per_flow * 1000.0 / 8.0 / cfg.mss_bytes * m.measured_s
        assert m.segments_delivered == pytest.approx(int(expect.sum()), abs=4)


# the block durations of the catalog waveforms' default scenarios, and
# some that are not exact in binary
BLOCK_DURATIONS = sorted(
    {ScenarioConfig(waveform=w, mss_bytes=173, n_rcst=1).block_duration_s
     for w in WAVEFORM_CATALOG.values()} | {0.01, 0.0137, 0.02, 1 / 30})


class TestDueBlock:
    """``_due_block`` files a timer at the first block whose start passes
    the timer test of ``TcpSender.timer_expired`` and
    ``TcpReceiver.poll_timer``."""

    @staticmethod
    def brute_force(deadline, dt):
        """The first block whose start fires a real sender's retransmission
        timer at ``deadline``; a real receiver's delayed-ACK timer at the
        same deadline must fire at that block and not the one before."""
        sender = TcpSender(0)
        sender.timer_deadline = deadline
        b = 0
        while not sender.timer_expired(b * dt):
            b += 1
        receiver = TcpReceiver()
        receiver.pending_unacked = 1
        receiver.ack_timer_deadline = deadline
        assert b == 0 or receiver.poll_timer((b - 1) * dt) is None
        assert receiver.poll_timer(b * dt) is not None
        return b

    @given(dt=st.sampled_from(BLOCK_DURATIONS),
           k=st.integers(min_value=0, max_value=3000),
           offset=st.sampled_from([0.0, 1e-12, -1e-12, 2e-12, -2e-12, 1e-15,
                                   -1e-15, 0.2, 1.0, 0.5]),
           scale=st.sampled_from([0.0, 1.0, 0.5, 0.999999]))
    def test_matches_first_block_passing_the_timer_test(self, dt, k, offset,
                                                        scale):
        # deadlines the engine sees: now + delay for now = k * dt, and
        # exact multiples of dt nudged by the test's slack
        deadline = max(0.0, k * dt * scale + offset)
        assert _due_block(deadline, dt) == self.brute_force(deadline, dt)

    @given(dt=st.sampled_from(BLOCK_DURATIONS),
           deadline=st.floats(min_value=0.0, max_value=40.0))
    def test_matches_on_arbitrary_deadlines(self, dt, deadline):
        assert _due_block(deadline, dt) == self.brute_force(deadline, dt)


class TestQueueActions:
    """A flow's queue admits a sender's batch; a seq below the sender's
    next_seq before the call (``first_new``) is a resend."""

    def test_dropped_retransmission_does_not_block_later_resends(self):
        txq = TxQueue(188.0, capacity_segments=1)
        assert txq.admit([1], 1)
        assert not txq.admit([7], 8)
        assert txq.overflow_drops == 1
        pack_next_burst(txq, 188.0)        # seq 1 leaves: room for one
        assert txq.admit([7], 8)
        [seg] = txq.pending
        assert seg.seg_seq == 7 and seg.retransmit

    def test_resend_of_queued_sequence_is_noop(self):
        txq = TxQueue(188.0, capacity_segments=10)
        assert txq.admit([3], 3)
        assert not txq.admit([3], 4)
        assert [(s.seg_seq, s.retransmit) for s in txq.pending] == [(3, False)]
        assert txq.overflow_drops == 0


class TestIncarnationFate:
    def test_loss_counted_once_per_incarnation(self):
        # a 188-byte segment in 100-byte bursts spans two bursts; losing
        # both marks the one incarnation lost once
        flow = _Flow(TcpSender(0), None, TxQueue(188.0))
        tally = _Tally(np.zeros(1), [0.0])
        flow.txq.admit([1], 1)
        bursts = [pack_next_burst(flow.txq, 100.0) for _ in range(2)]
        first = bursts[0][0]
        assert bursts[1][0] is first
        assert flow.txq.cursor_seg is None
        for segs in bursts:
            _lose_burst(flow, segs, flow.sender.cwnd, tally, measuring=True)
        assert first.lost
        assert (tally.segment_losses, tally.loss_events) == (1, 1)

        # the resend is a new incarnation of the same seq, queued alive;
        # losing it is one more segment loss within the same loss event
        flow.txq.admit([1], 2)
        [resend] = flow.txq.pending
        assert resend is not first
        assert resend.retransmit and not resend.lost
        _lose_burst(flow, pack_next_burst(flow.txq, 188.0), flow.sender.cwnd,
                    tally, measuring=True)
        assert resend.lost
        assert (tally.segment_losses, tally.loss_events) == (2, 1)


class TestMetrics:
    def test_xi_formula(self):
        m = run(make_cfg(n=10, dur=60.0, seed=2))
        cfg = make_cfg(n=10, dur=60.0, seed=2)
        expected = (m.timeouts / cfg.n_rcst) / (m.measured_s / m.e_rtt_s)
        assert m.xi == pytest.approx(expected)

    def test_g_mean_and_lambda(self):
        m = run(make_cfg(n=10, dur=60.0, seed=2))
        assert 0.0 < m.g_mean <= 10 / 64
        assert m.load_per_rcst == pytest.approx(m.g_mean / 10)
        assert len(m.g_quarters) == 4

    def test_json_round_trip(self):
        cfg = make_cfg(n=3, dur=30.0, seed=2)
        m = run(cfg)
        doc = json.loads(metrics_to_json(m, cfg))
        assert doc["config"]["waveform_id"] == 14
        assert doc["metrics"]["thr_kbps"] == pytest.approx(m.thr_kbps)
        row = m.table6_row()
        assert set(row) == {"wf", "mss", "n_rcst", "blr", "r", "f", "q", "p",
                            "e_delta", "e_rtt", "thr_kbps", "xi"}

    def test_every_flow_sampled_on_every_measured_block(self):
        # 50 blocks, 10 of them warm-up, flow starts staggered over 80
        # blocks: several flows start after the warm-up, and at seed 1
        # flow 12 never starts
        cfg12 = make_cfg(n=12, dur=0.65, seed=1, warmup_s=0.13)
        cfg13 = cfg12.with_overrides(n_rcst=13)
        m12, m13 = run(cfg12), run(cfg13)
        # flow 12 offered no burst, so flows 0-11 ran exactly as without it
        assert np.array_equal(m13.g_series, m12.g_series)
        n_blocks, warmup = cfg13.block_counts
        measured = n_blocks - warmup
        hist_blocks = sum(1 for b in range(warmup, n_blocks) if b % 8 == 0)
        assert sum(m13.cwnd_hist.values()) == 13 * hist_blocks
        assert m13.queue_depth_mean[12] == 0
        # its window adds its initial 2.0 on every measured block
        cw_sum12 = m12.e_w_time_avg * 12 * measured
        cw_sum13 = m13.e_w_time_avg * 13 * measured
        assert cw_sum13 - cw_sum12 == pytest.approx(2.0 * measured, abs=1e-9)

    def test_window_mean_decreases_with_population(self):
        # more terminals -> higher load -> smaller windows at loss
        m_low = run(make_cfg(n=30, dur=150.0, seed=4))
        m_high = run(make_cfg(n=70, dur=150.0, seed=4))
        assert m_high.e_w < m_low.e_w
        assert m_high.blr > m_low.blr

    def test_fragmentation_maps_to_multiple_losses(self):
        # WF14 with tiny MSS: one collision kills up to f=6 segments
        m = run(make_cfg(mss=23, n=40, dur=150.0, seed=4))
        assert m.f == 6
        if m.loss_events:
            assert m.e_delta > 1.2   # bursty loss pattern, beyond f=1 range

    def test_sub_unit_fragmentation_reassembles(self):
        # WF3 with MSS 173: r = 0.175, a segment spans ~6 bursts; every
        # burst loss kills a whole segment, so the segment loss rate sits
        # near blr / r
        m = run(make_cfg(wf=3, mss=173, n=60, dur=200.0, seed=4))
        assert m.r == pytest.approx(0.175, abs=1e-9)
        assert m.f == 1
        assert m.segments_delivered > 0
        assert all(t > 0 for t in m.throughput_kbps_per_flow)
        if m.bursts_lost > 20:
            ratio = m.q / m.blr
            assert 3.0 < ratio < 9.0
        # six-fold serialization per segment inflates the round trip
        assert m.e_rtt_s > 0.6


class TestSweep:
    def test_sweep_runs_and_derives_seeds(self):
        cfg = make_cfg(n=5, dur=25.0, seed=9)
        out = sweep(cfg, [3, 6])
        assert [m.n_rcst for m in out] == [3, 6]
        assert out[0].seed != out[1].seed

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep(make_cfg(), [])

    def test_sweep_parallel_matches_serial(self):
        cfg = make_cfg(n=4, dur=20.0, seed=9)
        serial = sweep(cfg, [2, 4], parallel=1)
        par = sweep(cfg, [2, 4], parallel=2)
        for a, b in zip(serial, par):
            assert a.thr_kbps == b.thr_kbps
            assert a.segments_delivered == b.segments_delivered
