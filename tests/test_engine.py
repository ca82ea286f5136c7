import json

import numpy as np
import pytest

from crdsasim.config import ScenarioConfig, WAVEFORM_CATALOG, parse_scenario_text
from crdsasim.engine import RunMetrics, _Flow, _queue_actions, metrics_to_json, run, sweep
from crdsasim.rle import SegmentRef, TxQueue
from crdsasim.tcp import SendAction


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


class TestQueueActions:
    def make_flow(self, capacity):
        return _Flow(0, None, None, TxQueue(capacity_segments=capacity), 0)

    def test_dropped_retransmission_does_not_block_later_resends(self):
        flow = self.make_flow(1)
        flow.txq.push(SegmentRef(1, 188.0))
        _queue_actions(flow, [SendAction(7, retransmit=True)], 188.0)
        assert flow.txq.overflow_drops == 1
        assert 7 not in flow.queued_untx
        flow.txq = TxQueue(capacity_segments=1)
        _queue_actions(flow, [SendAction(7, retransmit=True)], 188.0)
        [seg] = flow.txq.pending
        assert seg.seg_seq == 7 and seg.tx_epoch > 0
        assert 7 in flow.queued_untx

    def test_resend_of_queued_sequence_is_noop(self):
        flow = self.make_flow(10)
        _queue_actions(flow, [SendAction(3, retransmit=False),
                              SendAction(3, retransmit=True)], 188.0)
        assert [(s.seg_seq, s.tx_epoch) for s in flow.txq.pending] == [(3, 0)]
        assert flow.queued_untx == {3}


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

    def test_cycle_logs_populated(self):
        m = run(make_cfg(n=25, dur=120.0, seed=3))
        cycles = [c for cycles in m.flow_cycles for c in cycles]
        assert cycles
        assert all(c.losses_delta >= 1 for c in cycles)
        cafr = [c for c in cycles if c.kind == "CAFR"]
        assert cafr
        assert all(c.drop_window_w >= 1.0 for c in cafr)


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
