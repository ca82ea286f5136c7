"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live) and asserts its stated tolerance.  The closed-loop runs of
criteria 6 to 9 come from one session fixture.  All seeds are fixed, so
every number here is reproducible bit for bit.
"""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from crdsasim.config import ScenarioConfig, WAVEFORM_CATALOG
from crdsasim.engine import run, sweep_point_config
from crdsasim.mac import run_open_loop, slotted_aloha_blr
from crdsasim.models import (
    LossProcessParams,
    TcpModelParams,
    blr_model,
    cafr_segments_and_durations,
    expected_window,
    full_cycle_rate,
    loss_event_quantities,
    slow_start_and_timeout_terms,
    throughput_no_to,
    window_root_residual,
)

# Published reference rows (64 time-slots, exact-fit MSS 173):
# n_rcst -> (p, q, e_rtt_s, thr_kbps, e_w_model, s_ca, d_ca_s, s_fr, d_fr_s, blr)
REFERENCE = {
    30: (7.45e-4, 8.52e-4, 0.64, 65.75, 41.8, 1394.0, 28.4, 20.5, 0.66, 6.41e-4),
    40: (1.00e-3, 1.34e-3, 0.60, 58.50, 34.8, 978.0, 22.4, 17.1, 0.63, 9.26e-4),
    50: (1.37e-3, 1.75e-3, 0.58, 51.51, 29.6, 716.6, 18.6, 14.4, 0.61, 1.31e-3),
    60: (1.79e-3, 2.30e-3, 0.58, 45.20, 26.0, 559.2, 16.5, 12.6, 0.61, 1.76e-3),
    70: (2.28e-3, 3.50e-3, 0.58, 38.11, 21.9, 406.1, 14.2, 10.6, 0.62, 2.30e-3),
}

SCENARIO_TARGETS = {30: 65.75, 50: 51.51, 70: 38.11}


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)


def scenario_cfg(n, mss=173, wf=14, **kw):
    kw.setdefault("sim_duration_s", 1500.0)
    kw.setdefault("warmup_s", 300.0)
    kw.setdefault("seed", 1)
    return ScenarioConfig(waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss,
                          n_rcst=n, **kw)


# Criterion 8: each waveform's sweep template and populations
SWEEPS = {
    14: (scenario_cfg(10, sim_duration_s=600.0, warmup_s=120.0),
         (120, 200, 300)),
    3: (scenario_cfg(10, wf=3, mss=23, sim_duration_s=600.0, warmup_s=120.0),
        (110, 130, 150, 170)),
}

# Criterion 9: populations, each run at both MSS values
FRAG_NS = (30, 50, 70)


def frag_cfg(n, mss):
    return scenario_cfg(n, mss=mss, sim_duration_s=400.0, warmup_s=80.0)


CLOSED_LOOP_CFGS = (
    [scenario_cfg(n) for n in SCENARIO_TARGETS]
    + [sweep_point_config(tmpl, n) for tmpl, ns in SWEEPS.values() for n in ns]
    + [frag_cfg(n, mss) for n in FRAG_NS for mss in (173, 23)]
)


@pytest.fixture(scope="session")
def closed_loop_runs():
    """Every closed-loop run of criteria 6 to 9, by config, in one 2-worker
    pool.  Runs start costliest first, by simulated slot-seconds, so the
    last ones to finish are short.  Each run is a pure function of its
    config, so the results equal serial runs."""
    cfgs = sorted(CLOSED_LOOP_CFGS, reverse=True,
                  key=lambda c: (c.sim_duration_s * c.slots_per_block, c.n_rcst))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as ex:
        return dict(zip(cfgs, ex.map(run, cfgs)))


@pytest.fixture(scope="session")
def scenario_runs(closed_loop_runs):
    """WF14 / MSS 173 runs for N in {30, 50, 70} (criteria 6 and 7)."""
    return {n: closed_loop_runs[scenario_cfg(n)] for n in SCENARIO_TARGETS}


class TestCriterion1ModelArithmetic:
    def test_window_points(self):
        t0 = time.time()
        devs = {}
        for n, row in REFERENCE.items():
            p, q, _, _, e_w_ref = row[:5]
            e_w = expected_window(p, q, b=2)
            devs[n] = abs(1.0 - e_w / e_w_ref)
        elapsed = time.time() - t0
        ok = all(d < 0.05 for d in devs.values()) and elapsed < 1.0
        report(1, "window arithmetic vs published points",
               ok, f"max dev {max(devs.values()):.3%}, {elapsed*1e3:.0f} ms")
        assert elapsed < 1.0
        for n, d in devs.items():
            assert d < 0.05, f"E[W] deviation {d:.3%} at N={n}"


class TestCriterion2Intermediates:
    def test_phase_sums_and_durations(self):
        # evaluated at the published model window for each row, with the
        # published loss rates and mean RTT
        worst = 0.0
        for n, (p, q, rtt, _, e_w, s_ca, d_ca, s_fr, d_fr, _) in REFERENCE.items():
            t = cafr_segments_and_durations(q, 2, e_w)
            checks = {
                "s_ca": (t.s_ca, s_ca),
                "d_ca": (t.d_ca_rounds * rtt, d_ca),
                "s_fr": (t.s_fr, s_fr),
                "d_fr": (t.d_fr_rounds * rtt, d_fr),
            }
            for key, (got, want) in checks.items():
                dev = abs(1.0 - got / want)
                worst = max(worst, dev)
                assert dev < 0.05, f"{key} at N={n}: got {got:.4g}, want {want}"
        report(2, "cycle intermediates vs published table", True,
               f"worst dev {worst:.3%}")


class TestCriterion3ClosedFormLimits:
    def test_limit_suite(self):
        t0 = time.time()
        # (a) loss-count pmf normalization: exact in rational arithmetic
        for w in (5, 8, 21, 40):
            q = Fraction(2, 7)
            total = sum(
                Fraction(math.comb(w - 4, j - 1)) * (1 - q) ** (w - 3 - j)
                * q ** (j - 1)
                for j in range(1, w - 2)
            )
            assert total == 1
        # (b) limits to 1e-12
        e_w = 30.0
        tiny = loss_event_quantities(1e-14, 1e-14, e_w)
        assert abs(tiny.e_gamma) < 1e-12
        assert abs(tiny.e_delta - 1.0) < 1e-12
        near1 = loss_event_quantities(1.0 - 1e-14, 1.0 - 1e-14, e_w)
        assert abs(near1.e_gamma - (e_w - 4.0)) < 1e-12
        _, _, d_to, _ = slow_start_and_timeout_terms(1e-13, 2, 40.0, 2.0, 0.6)
        assert abs(d_to - 2.0) < 1e-12
        # (c) full model degenerates exactly to the no-timeout cycle
        params = LossProcessParams(1.37e-3, 1.75e-3)
        tcp = TcpModelParams(2, 0.58, 2.0)
        base = throughput_no_to(params, tcp)
        degen = full_cycle_rate(params, tcp, p_toca=0.0, p_tofr=0.0)
        assert abs(1.0 - degen / base.t_segments_per_s) < 1e-12
        # (d) closed-form root residual
        worst_resid = 0.0
        for p, q, *_ in REFERENCE.values():
            e_w = expected_window(p, q, 2)
            worst_resid = max(worst_resid, window_root_residual(p, q, 2, e_w))
        assert worst_resid < 1e-9
        elapsed = time.time() - t0
        report(3, "closed-form limit suite", elapsed < 1.0,
               f"root residual {worst_resid:.1e}, {elapsed*1e3:.0f} ms")
        assert elapsed < 1.0


class TestCriterion4MacOracle:
    def test_single_replica_oracle_ci(self):
        # blocks are independent, so the 99% CI comes from the empirical
        # per-block loss-count variance
        t0 = time.time()
        blocks = 120_000
        details = []
        for tx in (1.0, 0.5):
            cfg = ScenarioConfig(
                waveform=WAVEFORM_CATALOG[14], mss_bytes=173, n_rcst=50,
                replicas=1, slots_per_block=100, sim_duration_s=1.0, seed=2024,
            )
            stats = run_open_loop(cfg, tx, blocks)
            oracle = slotted_aloha_blr(100, 50, tx)
            losses = stats.offered_series - stats.decoded_series
            mean_offered = stats.offered_series.mean()
            se = losses.std(ddof=1) / math.sqrt(blocks) / mean_offered
            ci99 = 2.576 * se
            dev = abs(stats.blr - oracle)
            details.append(
                f"tx={tx}: blr={stats.blr:.5f} oracle={oracle:.5f} ci={ci99:.5f}"
            )
            assert dev <= ci99, details[-1]
        elapsed = time.time() - t0
        report(4, "single-replica loss oracle (99% CI)", elapsed < 30,
               "; ".join(details) + f", {elapsed:.1f} s")
        assert elapsed < 30.0


class TestCriterion5PeakLoad:
    @pytest.mark.parametrize("n_slots,wf,mss,lo,hi", [
        (64, 14, 173, 0.65, 0.75),
        (194, 3, 23, 0.73, 0.83),
    ])
    def test_peak_location(self, n_slots, wf, mss, lo, hi):
        t0 = time.time()
        cfg = ScenarioConfig(
            waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss, n_rcst=2 * n_slots,
            sim_duration_s=1.0, seed=5,
        )
        best_g, best_t = 0.0, -1.0
        for g_target in np.linspace(0.4, 1.0, 10):
            tx = g_target * n_slots / cfg.n_rcst
            stats = run_open_loop(cfg, tx, 100_000)
            if stats.throughput_per_slot > best_t:
                best_g, best_t = stats.g_mean, stats.throughput_per_slot
        elapsed = time.time() - t0
        ok = lo <= best_g <= hi
        report(5, f"peak MAC load, {n_slots} slots", ok,
               f"G*={best_g:.3f} (band [{lo}, {hi}]), T*={best_t:.3f}, "
               f"{elapsed:.0f} s")
        assert ok, f"G*={best_g:.3f} outside [{lo}, {hi}]"
        assert elapsed < 600.0


class TestCriterion6ScenarioMatch:
    def test_throughput_bands(self, scenario_runs):
        lines = []
        failures = []
        for n, target in SCENARIO_TARGETS.items():
            m = scenario_runs[n]
            dev = abs(1.0 - m.thr_kbps / target)
            lines.append(f"N={n}: {m.thr_kbps:.2f} kbps vs {target} "
                         f"({dev:+.1%}), delivered={m.segments_delivered}")
            assert m.segments_delivered >= 200_000
            if dev > 0.15:
                failures.append((n, dev))
        ok = not failures
        report(6, "scenario throughput within 15%", ok, "; ".join(lines))
        assert ok, f"outside band: {failures}"

    def test_losses_per_event_band(self, scenario_runs):
        vals = {n: m.e_delta for n, m in scenario_runs.items()}
        ok = all(1.0 <= v <= 1.2 for v in vals.values())
        report(6, "losses per event in [1, 1.2]", ok, str(vals))
        assert ok

    def test_model_error_vs_own_simulation(self, scenario_runs):
        etas = {}
        for n, m in scenario_runs.items():
            est = throughput_no_to(
                LossProcessParams(m.p, m.q),
                TcpModelParams(2, m.e_rtt_s, 2.0), mss_bytes=173,
            )
            etas[n] = abs(1.0 - est.t_kbps / m.thr_kbps)
        ok = all(v <= 0.10 for v in etas.values())
        report(6, "model eta vs own simulation <= 0.10", ok,
               {k: f"{v:.3f}" for k, v in etas.items()})
        assert ok, etas

    def test_xi_reported_not_gated(self, scenario_runs):
        xis = {n: m.xi for n, m in scenario_runs.items()}
        ok = all(v >= 0.0 for v in xis.values())
        report(6, "timeout rate xi (reported)", ok,
               {k: f"{v:.2e}" for k, v in xis.items()})
        assert ok


class TestCriterion7BlrClosure:
    def test_blr_only_estimate(self, scenario_runs):
        etas = {}
        for n, m in scenario_runs.items():
            est = blr_model(m.blr, TcpModelParams(2, m.e_rtt_s, 2.0),
                            "noto", mss_bytes=173)
            etas[n] = abs(1.0 - est.t_kbps / m.thr_kbps)
        ok = all(v <= 0.12 for v in etas.values())
        report(7, "cross-layer closure eta <= 0.12", ok,
               {k: f"{v:.3f}" for k, v in etas.items()})
        assert ok, etas


class TestCriterion8SelfRegulation:
    @pytest.fixture(scope="class")
    def sweeps(self, closed_loop_runs):
        """Each waveform's sweep, as ``sweep`` would return it."""
        return {wf: [closed_loop_runs[sweep_point_config(tmpl, n)] for n in ns]
                for wf, (tmpl, ns) in SWEEPS.items()}

    def test_wf14_band(self, sweeps):
        gs = {m.n_rcst: m.g_mean for m in sweeps[14]}
        ok = all(0.40 <= g <= 0.60 for g in gs.values())
        report(8, "WF14 operating band [0.45,0.55] +/- 0.05", ok,
               {k: f"{v:.3f}" for k, v in gs.items()})
        assert ok, gs

    def test_wf3_peak_band(self, sweeps):
        peak = max(m.g_mean for m in sweeps[3])
        ok = 0.53 <= peak <= 0.68
        report(8, "WF3 peak band [0.58,0.63] +/- 0.05", ok, f"peak G={peak:.3f}")
        assert ok, peak

    def test_quarter_drift(self, sweeps):
        drifts = {}
        for wf, runs in sweeps.items():
            for m in runs:
                drift = max(abs(g - m.g_mean) / m.g_mean for g in m.g_quarters)
                drifts[(wf, m.n_rcst)] = drift
        ok = all(v < 0.10 for v in drifts.values())
        report(8, "quarter-to-quarter load drift < 10%", ok,
               {f"wf{k[0]}/n{k[1]}": f"{v:.2%}" for k, v in drifts.items()})
        assert ok, drifts


class TestCriterion9FragmentationPenalty:
    def test_small_mss_strictly_worse(self, closed_loop_runs):
        lines = []
        for n in FRAG_NS:
            big = closed_loop_runs[frag_cfg(n, 173)]
            small = closed_loop_runs[frag_cfg(n, 23)]
            lines.append(f"N={n}: mss23 {small.thr_kbps:.2f} < mss173 "
                         f"{big.thr_kbps:.2f}")
            assert small.thr_kbps < big.thr_kbps
            assert small.f == 6 and big.f == 1
        report(9, "fragmentation penalty strict", True, "; ".join(lines))
