import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crdsasim.models import (
    LossProcessParams,
    ModelDomainError,
    TcpModelParams,
    binomial_loss_pmf,
    blr_model,
    cafr_segments_and_durations,
    equated_sums_residual,
    expected_window,
    loss_event_quantities,
    pftk_baseline,
    slow_start_and_timeout_terms,
    throughput_full,
    throughput_no_to,
    timeout_probabilities,
    window_root_residual,
)

# Published operating points: n_rcst -> (p, q, e_rtt_s, thr_kbps, e_w_model)
TABLE_ROWS = {
    30: (7.45e-4, 8.52e-4, 0.64, 65.75, 41.8),
    40: (1.00e-3, 1.34e-3, 0.60, 58.50, 34.8),
    50: (1.37e-3, 1.75e-3, 0.58, 51.51, 29.6),
    60: (1.79e-3, 2.30e-3, 0.58, 45.20, 26.0),
    70: (2.28e-3, 3.50e-3, 0.58, 38.11, 21.9),
}


class TestExpectedWindow:
    @pytest.mark.parametrize("n", list(TABLE_ROWS))
    def test_published_window_points(self, n):
        p, q, _, _, e_w_ref = TABLE_ROWS[n]
        e_w = expected_window(p, q, b=2)
        assert abs(1.0 - e_w / e_w_ref) < 0.05

    @pytest.mark.parametrize("n", list(TABLE_ROWS))
    def test_root_residual(self, n):
        p, q, _, _, _ = TABLE_ROWS[n]
        e_w = expected_window(p, q, b=2)
        assert window_root_residual(p, q, 2, e_w) < 1e-9

    def test_equated_sums_residual_small_but_nonzero(self):
        # the printed closed form folds O(q) simplifications; the literal
        # phase-sum identity holds only approximately at its root
        p, q, _, _, _ = TABLE_ROWS[30]
        e_w = expected_window(p, q, 2)
        res = equated_sums_residual(p, q, 2, e_w)
        assert 0.0 < res < 5e-3

    def test_window_grows_as_losses_vanish(self):
        prev = 0.0
        for scale in (1e-2, 1e-3, 1e-4, 1e-5):
            w = expected_window(scale, scale, 2)
            assert w > prev
            prev = w
        assert prev > 300.0

    def test_domain_errors(self):
        with pytest.raises(ModelDomainError):
            expected_window(0.0, 0.01, 2)
        with pytest.raises(ModelDomainError):
            expected_window(0.02, 0.01, 2)       # p > q
        with pytest.raises(ModelDomainError):
            expected_window(0.5, 1.5, 2)

    def test_parameters_checked_when_built(self):
        with pytest.raises(ModelDomainError, match="cannot exceed"):
            LossProcessParams(0.02, 0.01)
        with pytest.raises(ModelDomainError, match="delayed-ACK factor"):
            TcpModelParams(b=0)


class TestLossEventQuantities:
    def test_reciprocal_alpha(self):
        lev = loss_event_quantities(1e-3, 1e-3, 20.0)
        assert lev.e_alpha == pytest.approx(1000.0)

    def test_limits(self):
        e_w = 30.0
        tiny = loss_event_quantities(1e-9, 1e-9, e_w)
        assert tiny.e_gamma == pytest.approx(0.0, abs=1e-6)
        assert tiny.e_delta == pytest.approx(1.0, abs=1e-6)
        near_one = loss_event_quantities(0.999, 0.999, e_w)
        assert near_one.e_gamma == pytest.approx(e_w - 4.0, rel=1e-2)

    def test_degenerate_flagged_not_clamped(self):
        lev = loss_event_quantities(0.1, 0.2, 3.0)
        assert lev.degenerate
        assert lev.e_gamma < 0.0     # raw value reported


class TestCafrTerms:
    def test_published_intermediate_points(self):
        # evaluated at the published model window for the 30-terminal row
        p, q, rtt, _, e_w = TABLE_ROWS[30]
        t = cafr_segments_and_durations(q, 2, e_w)
        assert abs(1 - t.s_ca / 1394.0) < 0.05
        assert abs(1 - (t.d_ca_rounds * rtt) / 28.4) < 0.05
        assert abs(1 - t.s_fr / 20.5) < 0.05
        assert abs(1 - (t.d_fr_rounds * rtt) / 0.66) < 0.05

    def test_single_loss_fr_segments(self):
        # delta -> 1: S_FR -> E[W]/2 - 1
        e_w = 40.0
        t = cafr_segments_and_durations(1e-9, 2, e_w)
        assert t.s_fr == pytest.approx(e_w / 2 - 1, rel=1e-6)

    def test_fr_zero_when_delta_reaches_window(self):
        # q large enough that E[delta] = E[W]: nothing sent in recovery
        e_w = 5.0
        q = (e_w - 1.0) / (e_w - 4.0)  # makes delta = e_w
        t = cafr_segments_and_durations(min(q, 0.999999), 2, e_w)
        if t.e_delta >= e_w:
            assert t.s_fr == 0.0

    def test_d_fr_equals_delta(self):
        t = cafr_segments_and_durations(2e-3, 2, 25.0)
        assert t.d_fr_rounds == t.e_delta


class TestBinomialLossPmf:
    def test_normalization_exact_fractions(self):
        # sum_{j=1..w-3} C(w-4, j-1) (1-q)^(w-3-j) q^(j-1) telescopes to 1
        for w in (5, 6, 9, 17, 40):
            q = Fraction(3, 17)
            total = sum(
                Fraction(math.comb(w - 4, j - 1))
                * (1 - q) ** (w - 3 - j) * q ** (j - 1)
                for j in range(1, w - 2)
            )
            assert total == 1

    @given(st.integers(5, 80), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_normalization_floats(self, w, q):
        total = sum(binomial_loss_pmf(w, j, q) for j in range(1, w - 2))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_support_zero(self):
        assert binomial_loss_pmf(20, 0, 0.1) == 0.0
        assert binomial_loss_pmf(20, 18, 0.1) == 0.0


class TestTimeoutProbabilities:
    def test_vanishing_losses(self):
        # p_tofr ~ p*W/2 as p -> 0, so the bound scales with p
        p_toca, p_tofr, degen = timeout_probabilities(1e-9, 1e-9, 30.0)
        assert p_toca == pytest.approx(0.0, abs=1e-12)
        assert p_tofr == pytest.approx(0.0, abs=1e-7)
        assert not degen

    def test_certain_loss(self):
        p_toca, _, _ = timeout_probabilities(0.999999, 0.999999, 20.0)
        assert p_toca == pytest.approx(1.0, abs=1e-4)

    def test_monte_carlo_oracle(self):
        # brute-force Bernoulli window sampler vs the direct summations
        p = q = 0.01
        w = 20
        p_toca, p_tofr, _ = timeout_probabilities(p, q, float(w))
        rng = np.random.default_rng(12345)
        trials = 10 ** 6

        # TOCA: j = 1 + Binomial(w-1, q) losses in the window; timeout when
        # j >= w - 2
        extra = rng.binomial(w - 1, q, size=trials)
        est_toca = np.mean(extra + 1 >= w - 2)
        sigma = math.sqrt(max(p_toca * (1 - p_toca), 1e-12) / trials)
        assert abs(est_toca - p_toca) <= 3 * sigma + 1e-9

        # TOFR: j = 1 + Binomial(w-4, q) losses, then any of j*w/2
        # recovery-round segments lost with probability p each
        j = 1 + rng.binomial(w - 4, q, size=trials)
        to = rng.random(trials) < 1.0 - (1.0 - p) ** (j * w / 2.0)
        est_tofr = to.mean()
        sigma = math.sqrt(est_tofr * (1 - est_tofr) / trials)
        assert abs(est_tofr - p_tofr) <= 3 * sigma

    def test_degenerate_window_flagged(self):
        _, _, degen = timeout_probabilities(0.1, 0.2, 3.4)
        assert degen


class TestSlowStartAndTimeoutTerms:
    def test_no_backoff_limit(self):
        _, _, d_to, _ = slow_start_and_timeout_terms(1e-12, 2, 40.0, 2.0, 0.6)
        assert d_to == pytest.approx(2.0, abs=1e-9)

    def test_hand_computed_examples(self):
        s_ss, d_ss, _, degen = slow_start_and_timeout_terms(1e-3, 2, 40.0, 2.0, 0.64)
        assert s_ss == pytest.approx(2 * (1.5 * 10 - 1))         # 28 segments
        assert d_ss == pytest.approx(0.64 * (math.log(10, 1.5) + 1), rel=1e-9)
        assert not degen

    def test_geometric_backoff_series(self):
        p = 0.1
        _, _, d_to, _ = slow_start_and_timeout_terms(p, 2, 40.0, 2.0, 0.6)
        expect = 2.0 * (1 + sum((2 ** j) * p ** (j + 1) for j in range(6))) / (1 - p)
        assert d_to == pytest.approx(expect, rel=1e-12)


class TestThroughput:
    @pytest.mark.parametrize("n", list(TABLE_ROWS))
    def test_no_to_matches_published_throughput(self, n):
        p, q, rtt, thr, _ = TABLE_ROWS[n]
        est = throughput_no_to(
            LossProcessParams(p, q), TcpModelParams(2, rtt, 2.0), mss_bytes=173
        )
        assert abs(1.0 - est.t_kbps / thr) < 0.10

    def test_full_reduces_to_no_to_without_timeouts(self):
        p, q, rtt, _, _ = TABLE_ROWS[50]
        tcp = TcpModelParams(2, rtt, 2.0)
        base = throughput_no_to(LossProcessParams(p, q), tcp, 173)
        full = throughput_full(LossProcessParams(p, q), tcp, 173)
        # force the branch weights to zero and re-evaluate the cycle ratio
        w_no_num = base.t_segments_per_s
        rebuilt = ((base.e_w - 4.0) * q + 1.0 / p) / (
            tcp.e_rtt_s * (base.d_ca_rounds + base.d_fr_rounds)
        )
        assert rebuilt == pytest.approx(w_no_num, rel=1e-12)
        # with the actual tiny timeout weights the full model sits close
        assert full.t_kbps == pytest.approx(base.t_kbps, rel=0.05)

    def test_monotone_decreasing_over_grid(self):
        rows = [TABLE_ROWS[30], TABLE_ROWS[70]]
        tcp = TcpModelParams(2, TABLE_ROWS[30][2], 2.0)
        t_lo = throughput_no_to(LossProcessParams(*rows[0][:2]), tcp, 173).t_kbps
        t_hi = throughput_no_to(LossProcessParams(*rows[1][:2]), tcp, 173).t_kbps
        assert t_hi < t_lo

    def test_renewal_scaling_single_loss_limit(self):
        # q = p (one loss per event), tiny: T ~ (1/p)/(RTT * (b E[W]/2 + ...))
        p = q = 1e-5
        tcp = TcpModelParams(2, 0.6, 2.0)
        est = throughput_no_to(LossProcessParams(p, q), tcp)
        approx = (1.0 / p) / (tcp.e_rtt_s * (2 * (est.e_w / 2 + 1) + 1.5))
        assert est.t_segments_per_s == pytest.approx(approx, rel=1e-3)

    def test_estimate_fields_finite_nonneg(self):
        p, q, rtt, _, _ = TABLE_ROWS[40]
        est = throughput_full(LossProcessParams(p, q), TcpModelParams(2, rtt, 2.0), 173)
        for k, v in vars(est).items():
            if isinstance(v, float):
                assert math.isfinite(v), k
                assert v >= 0.0 or k in ("e_gamma",), k
        assert 0.0 <= est.p_toca <= 1.0
        assert 0.0 <= est.p_tofr <= 1.0


class TestBlrModel:
    def test_zero_blr_inapplicable(self):
        with pytest.raises(ModelDomainError, match="inapplicable"):
            blr_model(0.0, TcpModelParams(2, 0.6, 2.0))

    @pytest.mark.parametrize("n,blr_pub", [(30, 6.41e-4), (60, 1.76e-3)])
    def test_published_closure_points(self, n, blr_pub):
        _, _, rtt, thr, _ = TABLE_ROWS[n]
        est = blr_model(blr_pub, TcpModelParams(2, rtt, 2.0), "noto", 173)
        assert abs(1.0 - est.t_kbps / thr) < 0.12

    def test_fixed_point_unique_from_spread_starts(self):
        tcp = TcpModelParams(2, 0.6, 2.0)
        for blr in (6.41e-4, 1.76e-3, 5e-3):
            sols = []
            for start_scale in (0.5, 1.0, 2.0):
                est = blr_model(blr, tcp, "noto", p0=blr * start_scale)
                sols.append(est.t_segments_per_s)
            assert max(sols) - min(sols) < 1e-8 * max(sols)

    def test_p_below_q(self):
        est = blr_model(2e-3, TcpModelParams(2, 0.6, 2.0), "full", 173)
        assert est.e_delta > 1.0


class TestPftk:
    def test_hand_computed_value(self):
        # T = 1/(RTT sqrt(2bp/3) + RTO min(1, 3 sqrt(3bp/8)) p (1+32p^2))
        est = pftk_baseline(LossProcessParams(0.01, 0.01),
                            TcpModelParams(2, 0.6, 2.0))
        assert est.t_segments_per_s == pytest.approx(13.4238, abs=1e-3)

    def test_window_cap(self):
        tcp = TcpModelParams(2, 0.6, 2.0)
        uncapped = pftk_baseline(LossProcessParams(1e-8, 1e-8), tcp)
        capped = pftk_baseline(LossProcessParams(1e-8, 1e-8), tcp,
                               wmax_segments=100.0)
        assert uncapped.t_segments_per_s > capped.t_segments_per_s
        assert capped.t_segments_per_s == pytest.approx(100.0 / 0.6)

    def test_less_accurate_than_refined_model_at_high_load(self):
        p, q, rtt, thr, _ = TABLE_ROWS[70]
        tcp = TcpModelParams(2, rtt, 2.0)
        ours = throughput_no_to(LossProcessParams(p, q), tcp, 173)
        base = pftk_baseline(LossProcessParams(p, q), tcp, 173)
        assert abs(1 - ours.t_kbps / thr) < abs(1 - base.t_kbps / thr)
