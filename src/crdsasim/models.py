"""Closed-form steady-state throughput estimators for TCP NewReno on a
random-access link, plus the classic PFTK baseline and the cross-layer
model that derives the transport loss rates from the MAC burst loss rate.

Conventions: segment counts (S terms) are in segments; CA and FR durations
are in rounds and are converted to seconds by E[RTT] only in the final
ratios; slow-start and timeout durations are already in seconds.  The
renewal-cycle window expectation comes from a quadratic whose closed-form
root is implemented verbatim; see ``window_root_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ModelDomainError",
    "LossProcessParams",
    "TcpModelParams",
    "ThroughputEstimate",
    "LossEventQuantities",
    "CafrTerms",
    "expected_window",
    "window_root_residual",
    "equated_sums_residual",
    "binomial_loss_pmf",
    "loss_event_quantities",
    "cafr_segments_and_durations",
    "timeout_probabilities",
    "slow_start_and_timeout_terms",
    "throughput_no_to",
    "throughput_full",
    "full_cycle_rate",
    "blr_model",
    "pftk_baseline",
    "MODEL_NAMES",
]

MODEL_NAMES = ("newrenosat_noto", "newrenosat_full", "blr_noto", "blr_full", "pftk")


class ModelDomainError(ValueError):
    """Inputs outside a model's validity region."""


@dataclass(frozen=True)
class LossProcessParams:
    """Transport-layer loss description: loss-event rate p and segment
    loss rate q."""

    p: float
    q: float

    def validate(self):
        if not (0.0 < self.p < 1.0 and 0.0 < self.q < 1.0):
            raise ModelDomainError(f"p and q must lie in (0,1): p={self.p}, q={self.q}")
        if self.p > self.q + 1e-15:
            raise ModelDomainError(
                f"loss-event rate cannot exceed segment loss rate: p={self.p} > q={self.q}"
            )


@dataclass(frozen=True)
class TcpModelParams:
    b: int = 2
    e_rtt_s: float = 0.52
    rto_s: float = 2.0

    def validate(self):
        if self.b < 1:
            raise ModelDomainError(f"delayed-ACK factor must be >= 1: b={self.b}")
        if self.e_rtt_s <= 0 or self.rto_s <= 0:
            raise ModelDomainError("e_rtt_s and rto_s must be positive")


@dataclass
class ThroughputEstimate:
    """Estimator output with every intermediate exposed for auditing."""

    model: str
    t_segments_per_s: float
    t_kbps: float
    e_w: float
    e_x: float = 0.0
    e_delta: float = 0.0
    e_gamma: float = 0.0
    s_ca: float = 0.0
    s_fr: float = 0.0
    s_ss: float = 0.0
    d_ca_rounds: float = 0.0
    d_fr_rounds: float = 0.0
    d_ss_s: float = 0.0
    d_to_s: float = 0.0
    p_toca: float = 0.0
    p_tofr: float = 0.0
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items()}
        d["flags"] = list(self.flags)
        return d


@dataclass(frozen=True)
class LossEventQuantities:
    e_alpha: float
    e_gamma: float
    e_delta: float
    degenerate: bool = False


@dataclass(frozen=True)
class CafrTerms:
    e_x: float
    e_delta: float
    s_ca: float
    s_fr: float
    d_ca_rounds: float
    d_fr_rounds: float


def _phi(q: float, b: int) -> float:
    return (22.0 * q - 3.0 * b - 4.0) / (8.0 * q + 3.0 * b)


def _window_unchecked(p: float, q: float, b: int) -> float:
    phi = _phi(q, b)
    disc = phi * phi - (60.0 * p * q - 8.0 * p - 8.0) / (p * (8.0 * q + 3.0 * b))
    if disc < 0:
        raise ModelDomainError(
            f"negative discriminant for p={p}, q={q}, b={b}: {disc}"
        )
    w = phi + math.sqrt(disc)
    if w < 1.0:
        raise ModelDomainError(f"window root below one segment for p={p}, q={q}, b={b}")
    return w


def expected_window(p: float, q: float, b: int) -> float:
    """Steady-state drop-window expectation E[W].

    Closed form: E[W] = Phi + sqrt(Phi^2 - (60pq - 8p - 8) / (p(8q + 3b)))
    with Phi = (22q - 3b - 4) / (8q + 3b).
    """
    LossProcessParams(p, q).validate()
    if b < 1:
        raise ModelDomainError(f"b must be >= 1: b={b}")
    return _window_unchecked(p, q, b)


def window_root_residual(p: float, q: float, b: int, e_w: float) -> float:
    """Relative residual of e_w in the quadratic solved by
    :func:`expected_window`: W^2 - 2*Phi*W + (60pq - 8p - 8)/(p(8q+3b))."""
    phi = _phi(q, b)
    c = (60.0 * p * q - 8.0 * p - 8.0) / (p * (8.0 * q + 3.0 * b))
    resid = e_w * e_w - 2.0 * phi * e_w + c
    scale = max(e_w * e_w, abs(2.0 * phi * e_w), abs(c))
    return abs(resid) / scale


def equated_sums_residual(p: float, q: float, b: int, e_w: float) -> float:
    """Diagnostic: relative gap between the renewal identity
    (1/p + E[gamma]) and the literal phase sums (S_CA + S_FR) at e_w.

    The closed form in :func:`expected_window` carries O(q) algebraic
    simplifications, so this residual is small but not zero at its root.
    """
    lev = loss_event_quantities(p, q, e_w)
    lhs = lev.e_alpha + lev.e_gamma
    terms = cafr_segments_and_durations(q, b, e_w)
    rhs = terms.s_ca + terms.s_fr
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def binomial_loss_pmf(w: int, j: int, q: float) -> float:
    """Probability of j losses over the (w-3) vulnerable segments of a
    drop window of size w, conditioned on at least one loss:
    B[w-3, j] = C(w-4, j-1) (1-q)^(w-3-j) q^(j-1), j in [1, w-3]."""
    if not 1 <= j <= w - 3:
        return 0.0
    return math.comb(w - 4, j - 1) * (1.0 - q) ** (w - 3 - j) * q ** (j - 1)


def _expected_delta(q: float, e_w: float) -> float:
    """E[delta] = 1 + (E[W]-4)q: segments lost in one loss event."""
    return 1.0 + (e_w - 4.0) * q


def loss_event_quantities(p: float, q: float, e_w: float) -> LossEventQuantities:
    """E[alpha] = 1/p, E[gamma] = q(E[W]-4), E[delta] = 1 + (E[W]-4)q.

    For e_w < 4 the gamma/delta expressions leave their validity region;
    the raw values are still returned, flagged degenerate.
    """
    LossProcessParams(p, q).validate()
    e_alpha = 1.0 / p
    e_gamma = q * (e_w - 4.0)
    return LossEventQuantities(e_alpha, e_gamma, _expected_delta(q, e_w),
                               degenerate=e_w < 4.0)


def cafr_segments_and_durations(q: float, b: int, e_w: float) -> CafrTerms:
    """Per-cycle segment counts and durations for the CA and FR phases.

    E[X] = b(E[W]/2 + 1) rounds; S_CA = (E[X]/4)*3*E[W] + E[beta] with
    E[beta] = E[W]/2; S_FR = (E[delta]E[W] - E[delta] - E[delta]^2)/2 while
    E[delta] < E[W]; D_CA = E[X] + 1/2 rounds; D_FR = E[delta] rounds.
    """
    e_x = b * (e_w / 2.0 + 1.0)
    e_delta = _expected_delta(q, e_w)
    s_ca = (e_x / 4.0) * 3.0 * e_w + e_w / 2.0   # + E[beta]
    if e_delta < e_w:
        s_fr = 0.5 * (e_delta * e_w - e_delta - e_delta * e_delta)
    else:
        s_fr = 0.0
    d_ca = e_x + 0.5
    d_fr = e_delta
    return CafrTerms(e_x, e_delta, s_ca, s_fr, d_ca, d_fr)


def timeout_probabilities(p: float, q: float, e_w: float) -> tuple[float, float, bool]:
    """Probabilities of a loss event ending in a timeout from CA or FR.

    Expectations over the drop window are evaluated at the plug-in point
    W = round(E[W]) (>= 5 for the full binomial support).  Returns
    (p_toca, p_tofr, degenerate).

    p_TOCA: more than W-3 of the W window segments lost,
        sum_{j=W-2..W} C(W-1, j-1) (1-q)^(W-j) q^(j-1).
    p_TOFR: a retransmission is lost during recovery,
        sum_{j=1..W-3} B[W-3, j] (1 - (1-p)^(j W / 2)).
    """
    LossProcessParams(p, q).validate()
    w = int(round(e_w))
    degenerate = w < 5
    w_eff = max(w, 3)

    p_toca = 0.0
    for j in range(max(1, w_eff - 2), w_eff + 1):
        p_toca += (math.comb(w_eff - 1, j - 1)
                   * (1.0 - q) ** (w_eff - j) * q ** (j - 1))

    p_tofr = 0.0
    if w >= 5:
        for j in range(1, w - 3 + 1):
            p_tofr += binomial_loss_pmf(w, j, q) * (1.0 - (1.0 - p) ** (j * w / 2.0))

    return min(max(p_toca, 0.0), 1.0), min(max(p_tofr, 0.0), 1.0), degenerate


def slow_start_and_timeout_terms(p: float, b: int, e_w: float, rto_s: float,
                                 e_rtt_s: float) -> tuple[float, float, float, bool]:
    """Slow-start segments/duration and timeout-period duration.

    x = 1 + 1/b; S_SS = b(x E[W]/4 - 1); D_SS = E[RTT](log_x(E[W]/4) + 1);
    D_TO = RTO (1 + sum_{j=0..5} 2^j p^(j+1)) / (1 - p).
    Returns (s_ss, d_ss_s, d_to_s, degenerate); degenerate marks e_w < 4,
    where the log argument drops below one.
    """
    x = 1.0 + 1.0 / b
    s_ss = b * (x * e_w / 4.0 - 1.0)
    degenerate = e_w < 4.0
    d_ss = e_rtt_s * (math.log(e_w / 4.0, x) + 1.0) if e_w > 0 else 0.0
    geo = sum((2 ** j) * p ** (j + 1) for j in range(6))
    d_to = rto_s * (1.0 + geo) / (1.0 - p)
    return s_ss, d_ss, d_to, degenerate


def _base_estimate(model: str, params: LossProcessParams,
                   tcp: TcpModelParams) -> ThroughputEstimate:
    """The cycle terms of ``model``; newrenosat_full adds the timeout terms."""
    params.validate()
    tcp.validate()
    e_w = expected_window(params.p, params.q, tcp.b)
    lev = loss_event_quantities(params.p, params.q, e_w)
    terms = cafr_segments_and_durations(params.q, tcp.b, e_w)
    est = ThroughputEstimate(
        model=model,
        t_segments_per_s=0.0,
        t_kbps=0.0,
        e_w=e_w,
        e_x=terms.e_x,
        e_delta=terms.e_delta,
        e_gamma=lev.e_gamma,
        s_ca=terms.s_ca,
        s_fr=terms.s_fr,
        d_ca_rounds=terms.d_ca_rounds,
        d_fr_rounds=terms.d_fr_rounds,
    )
    if lev.degenerate:
        est.flags.append("window_below_four_segments")
    if model == "newrenosat_full":
        est.p_toca, est.p_tofr, degen = timeout_probabilities(params.p, params.q, e_w)
        est.s_ss, est.d_ss_s, est.d_to_s, degen_ss = slow_start_and_timeout_terms(
            params.p, tcp.b, e_w, tcp.rto_s, tcp.e_rtt_s
        )
        if degen:
            est.flags.append("timeout_probabilities_truncated_support")
        if degen_ss:
            est.flags.append("slow_start_terms_degenerate")
    return est


def _finish(est: ThroughputEstimate, t_segments_per_s: float,
            mss_bytes: int | None) -> ThroughputEstimate:
    est.t_segments_per_s = t_segments_per_s
    est.t_kbps = t_segments_per_s * mss_bytes * 8.0 / 1000.0 if mss_bytes else 0.0
    return est


def throughput_no_to(params: LossProcessParams, tcp: TcpModelParams,
                     mss_bytes: int | None = None) -> ThroughputEstimate:
    """Renewal-cycle throughput with triple-duplicate loss indications only:

    T = ((E[W]-4)q + 1/p) /
        (E[RTT] { b(E[W]/2 + 1) + 1/2 + [1 + (E[W]-4)q] })   [segments/s]
    """
    est = _base_estimate("newrenosat_noto", params, tcp)
    return _finish(est, _cycle_rate(est, params, tcp, 0.0, 0.0), mss_bytes)


def full_cycle_rate(params: LossProcessParams, tcp: TcpModelParams,
                    p_toca: float, p_tofr: float) -> float:
    """Weighted-cycle throughput [segments/s] at explicit branch weights
    (no-TO, TO-from-CA, TO-from-FR).

    The no-TO branch uses the renewal identity total 1/p + E[gamma], so
    the rate reduces exactly to :func:`throughput_no_to` when both
    timeout probabilities are zero.
    """
    est = _base_estimate("newrenosat_full", params, tcp)
    return _cycle_rate(est, params, tcp, p_toca, p_tofr)


def _cycle_rate(est: ThroughputEstimate, params: LossProcessParams,
                tcp: TcpModelParams, p_toca: float, p_tofr: float) -> float:
    """:func:`full_cycle_rate` from the cycle terms an estimate holds."""
    w_no = 1.0 - p_tofr - p_toca
    if not -1e-12 <= w_no <= 1.0 + 1e-12:
        raise ModelDomainError(
            f"inconsistent timeout probabilities: p_toca={p_toca}, p_tofr={p_tofr}"
        )
    s_cafr = 1.0 / params.p + est.e_gamma        # renewal identity total
    s_ca = s_cafr - est.s_fr
    rtt = tcp.e_rtt_s
    d_cafr = est.d_ca_rounds + est.d_fr_rounds
    num = (w_no * s_cafr
           + p_toca * (est.s_ss + s_ca)
           + p_tofr * (est.s_ss + s_cafr))
    den = (w_no * rtt * d_cafr
           + p_toca * (est.d_ss_s + rtt * est.d_ca_rounds + est.d_to_s)
           + p_tofr * (est.d_ss_s + rtt * d_cafr + est.d_to_s))
    return num / den


def throughput_full(params: LossProcessParams, tcp: TcpModelParams,
                    mss_bytes: int | None = None) -> ThroughputEstimate:
    """Full-cycle throughput including timeout branches, with the branch
    weights taken from :func:`timeout_probabilities`."""
    est = _base_estimate("newrenosat_full", params, tcp)
    return _finish(est, _cycle_rate(est, params, tcp, est.p_toca, est.p_tofr), mss_bytes)


# blr_model's fixed-point iteration: step tolerance, iteration cap and the
# damping of each step
_BLR_TOL = 1e-10
_BLR_MAX_ITERS = 100
_BLR_DAMPING = 0.5


def blr_model(blr: float, tcp: TcpModelParams, mode: str = "noto",
              mss_bytes: int | None = None,
              p0: float | None = None) -> ThroughputEstimate:
    """Cross-layer estimate from the MAC burst loss rate alone (one
    segment per burst): q = BLR and p = BLR / (1 + (E[W]-4) BLR).

    E[W] depends on p, so p is obtained as the fixed point of
    p -> window(p, BLR) -> BLR/(1 + (E[W]-4) BLR), solved by damped
    iteration from p0 = BLR.
    """
    if mode not in ("noto", "full"):
        raise ModelDomainError(f"mode must be 'noto' or 'full': {mode}")
    if not 0.0 <= blr < 1.0:
        raise ModelDomainError(f"blr must lie in [0, 1): {blr}")
    if blr == 0.0:
        raise ModelDomainError("blr = 0: no losses, cross-layer model inapplicable")
    q = blr
    p = p0 if p0 is not None else blr
    trail = []
    for _ in range(_BLR_MAX_ITERS):
        e_w = _window_unchecked(p, q, tcp.b)   # iterate may transiently sit above q
        p_next = blr / _expected_delta(blr, e_w)
        trail.append(p)
        if abs(p_next - p) < _BLR_TOL:
            p = p_next
            break
        p = p + _BLR_DAMPING * (p_next - p)
    else:
        raise ModelDomainError(
            f"blr_model fixed point did not converge for blr={blr}; trail={trail[-5:]}"
        )
    params = LossProcessParams(p=p, q=q)
    if mode == "noto":
        est = throughput_no_to(params, tcp, mss_bytes)
        est.model = "blr_noto"
    else:
        est = throughput_full(params, tcp, mss_bytes)
        est.model = "blr_full"
    return est


def pftk_baseline(params: LossProcessParams, tcp: TcpModelParams,
                  mss_bytes: int | None = None,
                  wmax_segments: float | None = None) -> ThroughputEstimate:
    """Classic approximated steady-state throughput baseline:

    T = 1 / (RTT sqrt(2bp/3) + RTO min(1, 3 sqrt(3bp/8)) p (1 + 32 p^2))

    optionally capped at wmax/RTT.  Uses the loss-event rate p.
    """
    params.validate()
    tcp.validate()
    p, b = params.p, tcp.b
    t = 1.0 / (tcp.e_rtt_s * math.sqrt(2.0 * b * p / 3.0)
               + tcp.rto_s * min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0))
               * p * (1.0 + 32.0 * p * p))
    if wmax_segments is not None:
        t = min(t, wmax_segments / tcp.e_rtt_s)
    e_w_pftk = math.sqrt(8.0 / (3.0 * b * p))    # window scale implied by p
    est = ThroughputEstimate(model="pftk", t_segments_per_s=0.0, t_kbps=0.0,
                             e_w=e_w_pftk)
    return _finish(est, t, mss_bytes)
