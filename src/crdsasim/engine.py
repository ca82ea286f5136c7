"""Discrete-event simulation at RA-block granularity.

Each block: ACKs due this block drive the senders, expired retransmission
timers fire, every terminal with queued data seals exactly one burst
(replicas placed by the shared MAC stream), the block is SIC-decoded,
decoded payloads travel to the gateway over half the nominal RTT, and
ACKs ride a lossless forward link back over the other half.  One-way
delays are rounded up to the next block boundary.

Losses are never signalled to senders; they surface as duplicate ACKs or
timer expirations, exactly as on the wire.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from crdsasim.config import (
    MAC_STREAM,
    ScenarioConfig,
    derive_run_seed,
    fragmentation_profile,
    make_rng,
    rcst_stream,
)
from crdsasim.mac import sample_replica_slots, sic_decode
from crdsasim.rle import SegmentRef, TxQueue, pack_next_burst
from crdsasim.tcp import TcpReceiver, TcpSender

__all__ = ["RunMetrics", "run", "sweep", "sweep_point_config", "TABLE6_COLUMNS"]

TABLE6_COLUMNS = (
    "wf", "mss", "n_rcst", "blr", "r", "f", "q", "p",
    "e_delta", "e_rtt", "thr_kbps", "xi",
)

# Flow starts are staggered uniformly over two nominal RTTs to break the
# otherwise perfect block-level synchronization of the slow-start ramps.
START_STAGGER_RTTS = 2.0


@dataclass
class RunMetrics:
    """Everything the acceptance runs and the CLI report need."""

    wf: int
    mss: int
    n_rcst: int
    r: float
    f: int
    seed: int
    sim_duration_s: float
    warmup_s: float
    measured_s: float

    blr: float
    q: float
    p: float
    e_delta: float
    e_w: float
    e_rtt_s: float
    thr_kbps: float                       # mean per-flow throughput
    xi: float
    g_mean: float
    load_per_rcst: float
    g_quarters: list

    throughput_kbps_per_flow: list
    segments_delivered: int
    segments_sent: int
    bursts_offered: int
    bursts_lost: int
    loss_events: int
    segment_losses: int
    retransmissions: int
    spurious_rtx: int
    timeouts: int
    overflow_drops: int
    nonconvergent: bool
    e_w_time_avg: float
    cwnd_hist: dict
    queue_depth_mean: list = field(default_factory=list)
    flow_cycles: list = field(default_factory=list, repr=False)
    g_series: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        d = {}
        for k, v in self.__dict__.items():
            if k in ("flow_cycles", "g_series"):
                continue
            if isinstance(v, np.ndarray):
                v = v.tolist()
            d[k] = v
        d["cwnd_hist"] = {str(k): v for k, v in sorted(self.cwnd_hist.items())}
        return d

    def table6_row(self) -> dict:
        return {
            "wf": self.wf, "mss": self.mss, "n_rcst": self.n_rcst,
            "blr": self.blr, "r": self.r, "f": self.f, "q": self.q,
            "p": self.p, "e_delta": self.e_delta, "e_rtt": self.e_rtt_s,
            "thr_kbps": self.thr_kbps, "xi": self.xi,
        }


class _FlowRuntime:
    __slots__ = (
        "idx", "sender", "receiver", "txq", "start_block", "epoch_of",
        "reasm", "dead", "queued_untx", "event_end_seq", "burst_counter",
    )

    def __init__(self, idx, sender, receiver, txq, start_block):
        self.idx = idx
        self.sender = sender
        self.receiver = receiver
        self.txq = txq
        self.start_block = start_block
        self.epoch_of = {}
        self.reasm = {}            # (seq, epoch) -> bytes received so far
        self.dead = set()          # (seq, epoch) incarnations killed by SIC
        self.queued_untx = set()   # seqs sitting in pending, never transmitted
        self.event_end_seq = 0
        self.burst_counter = 0


def _delay_blocks(cfg: ScenarioConfig) -> int:
    return math.ceil(cfg.nominal_rtt_s / 2.0 / cfg.block_duration_s - 1e-9)


def run(cfg: ScenarioConfig, trace: list | None = None) -> RunMetrics:
    """Simulate one scenario and collect post-warmup statistics."""
    dt = cfg.block_duration_s
    n_slots = cfg.slots_per_block
    n_blocks = int(round(cfg.sim_duration_s / dt))
    warmup_block = int(round(cfg.warmup_s / dt))
    half = _delay_blocks(cfg)
    proc = cfg.processing_delay_blocks
    # return path: burst propagates half an RTT, plus the block must be
    # fully received before SIC, plus return-side processing
    delay_data = half + 1 + (proc - proc // 2)
    delay_ack = half + proc // 2
    r, f = fragmentation_profile(cfg)
    max_distinct = f if r > 1.0 else None
    seg_bytes = float(cfg.segment_bytes_on_air)
    payload = cfg.rle_payload_bytes
    stagger_blocks = max(1, int(round(START_STAGGER_RTTS * cfg.nominal_rtt_s / dt)))

    mac_rng = make_rng(cfg.seed, MAC_STREAM)
    flows = []
    for i in range(cfg.n_rcst):
        frng = make_rng(cfg.seed, rcst_stream(i))
        start_block = int(frng.random() * stagger_blocks)
        sender = TcpSender(
            i, b=cfg.delayed_ack_b, initial_rto_s=cfg.initial_rto_s,
            rwnd_segments=cfg.buffer_segments, trace=trace,
        )
        receiver = TcpReceiver(i, b=cfg.delayed_ack_b)
        txq = TxQueue(i, capacity_segments=cfg.buffer_segments)
        flows.append(_FlowRuntime(i, sender, receiver, txq, start_block))

    acks_due = defaultdict(list)       # block -> [(flow_idx, ack_no)]
    arrivals_due = defaultdict(list)   # block -> [(flow_idx, slices)]

    # post-warmup accumulators
    sent_attempts = 0
    retx_tx = 0
    seg_losses = 0
    loss_events = 0
    w_at_loss_sum = 0.0
    w_at_loss_n = 0
    bursts_offered = 0
    bursts_lost = 0
    g_series = np.zeros(n_blocks - warmup_block, dtype=np.float64)
    cw_sum = 0.0
    cw_n = 0
    qd_sum = [0.0] * cfg.n_rcst
    cwnd_hist: dict[int, int] = {}
    base = None

    def apply_actions(flow, acts):
        # Retransmissions enter the same FIFO device queue as new data;
        # a request for a segment that still has an untransmitted copy
        # queued is a no-op (that copy will go out in admission order).
        for a in acts:
            if a.retransmit:
                if a.seq in flow.queued_untx:
                    continue
                epoch = flow.epoch_of.get(a.seq, 0) + 1
                flow.epoch_of[a.seq] = epoch
                flow.txq.push(SegmentRef(flow.idx, a.seq, seg_bytes, epoch))
                flow.queued_untx.add(a.seq)
            else:
                ok = flow.txq.push(SegmentRef(flow.idx, a.seq, seg_bytes, 0))
                if ok:
                    flow.queued_untx.add(a.seq)

    def handle_lost_burst(flow, slices, measuring):
        nonlocal seg_losses, loss_events, w_at_loss_sum, w_at_loss_n
        seen = set()
        for sl in slices:
            key = (sl.seg.seg_seq, sl.seg.tx_epoch)
            if key in seen or key in flow.dead:
                continue
            seen.add(key)
            flow.dead.add(key)
            flow.reasm.pop(key, None)
            if measuring:
                seg_losses += 1
            if sl.seg.seg_seq >= flow.event_end_seq:
                w = flow.sender.cwnd
                flow.event_end_seq = sl.seg.seg_seq + max(1, int(w))
                if measuring:
                    loss_events += 1
                    w_at_loss_sum += w
                    w_at_loss_n += 1

    def deliver_burst(flow, slices, now):
        acks = []
        for sl in slices:
            key = (sl.seg.seg_seq, sl.seg.tx_epoch)
            if key in flow.dead:
                continue
            if sl.is_final_fragment:
                flow.reasm.pop(key, None)
                acks.extend(flow.receiver.on_segment(sl.seg.seg_seq, now))
            else:
                flow.reasm[key] = flow.reasm.get(key, 0.0) + sl.bytes_in_burst
        return acks

    for b in range(n_blocks):
        now = b * dt
        measuring = b >= warmup_block
        if b == warmup_block:
            base = _snapshot(flows)

        # 1. decoded bursts reach the gateway; receivers may ACK
        for fi, slices in arrivals_due.pop(b, ()):
            flow = flows[fi]
            for ack in deliver_burst(flow, slices, now):
                acks_due[b + delay_ack].append((fi, ack))

        # 2. per-flow housekeeping: delayed-ACK timers, flow starts, RTO
        for flow in flows:
            for ack in flow.receiver.poll_timer(now):
                acks_due[b + delay_ack].append((flow.idx, ack))

        for fi, ack_no in acks_due.pop(b, ()):
            flow = flows[fi]
            apply_actions(flow, flow.sender.on_ack(ack_no, now))

        for flow in flows:
            if not flow.sender.started:
                if b >= flow.start_block:
                    apply_actions(flow, flow.sender.start(now))
                continue
            if flow.sender.timer_expired(now):
                apply_actions(flow, flow.sender.on_timeout(now))

        # 3. MAC: one burst per backlogged terminal, then SIC.  The block
        # must be fully received before it can be decoded, so decoded
        # payloads surface one block after the propagation delay.
        active = [flow for flow in flows if flow.txq.has_data()]
        if active:
            slot_rows = sample_replica_slots(
                mac_rng, len(active), n_slots, cfg.replicas
            )
            burst_payloads = []
            for k, flow in enumerate(active):
                slices = pack_next_burst(flow.txq, payload, max_distinct)
                burst_payloads.append(slices)
                flow.burst_counter += 1
                for sl in slices:
                    flow.queued_untx.discard(sl.seg.seg_seq)
                    if measuring and sl.is_final_fragment:
                        sent_attempts += 1
                        if sl.seg.tx_epoch > 0:
                            retx_tx += 1
            decoded, lost = sic_decode(slot_rows.tolist())
            if measuring:
                bursts_offered += len(active)
                bursts_lost += len(lost)
                g_series[b - warmup_block] = len(active) / n_slots
            for k in sorted(decoded):
                arrivals_due[b + delay_data].append((active[k].idx, burst_payloads[k]))
            for k in sorted(lost):
                handle_lost_burst(active[k], burst_payloads[k], measuring)

        if measuring:
            for flow in flows:
                cw_sum += flow.sender.cwnd
                cw_n += 1
                qd_sum[flow.idx] += len(flow.txq)
            if (b & 7) == 0:
                for flow in flows:
                    key = int(flow.sender.cwnd)
                    cwnd_hist[key] = cwnd_hist.get(key, 0) + 1

    return _collect(cfg, flows, base, r, f, n_blocks, warmup_block,
                    sent_attempts, retx_tx, seg_losses, loss_events,
                    w_at_loss_sum, w_at_loss_n, bursts_offered, bursts_lost,
                    g_series, cw_sum, cw_n, cwnd_hist, qd_sum)


def _snapshot(flows):
    return {
        "delivered": [f.receiver.delivered for f in flows],
        "spurious": [f.receiver.spurious for f in flows],
        "timeouts": [f.sender.timeouts for f in flows],
        "rtt_sum": [f.sender.rtt_sum for f in flows],
        "rtt_n": [f.sender.rtt_n for f in flows],
        "overflow": [f.txq.overflow_drops for f in flows],
    }


def _collect(cfg, flows, base, r, f, n_blocks, warmup_block,
             sent_attempts, retx_tx, seg_losses, loss_events,
             w_at_loss_sum, w_at_loss_n, bursts_offered, bursts_lost,
             g_series, cw_sum, cw_n, cwnd_hist, qd_sum) -> RunMetrics:
    dt = cfg.block_duration_s
    measured_s = (n_blocks - warmup_block) * dt
    if base is None:
        base = _snapshot(flows)   # degenerate: warmup covered the whole run

    delivered_pf = [fl.receiver.delivered - b0
                    for fl, b0 in zip(flows, base["delivered"])]
    thr_pf = [d * cfg.mss_bytes * 8.0 / 1000.0 / measured_s for d in delivered_pf]
    rtt_sum = sum(fl.sender.rtt_sum - b0 for fl, b0 in zip(flows, base["rtt_sum"]))
    rtt_n = sum(fl.sender.rtt_n - b0 for fl, b0 in zip(flows, base["rtt_n"]))
    e_rtt = rtt_sum / rtt_n if rtt_n else cfg.nominal_rtt_s
    timeouts = sum(fl.sender.timeouts - b0 for fl, b0 in zip(flows, base["timeouts"]))
    spurious = sum(fl.receiver.spurious - b0 for fl, b0 in zip(flows, base["spurious"]))
    overflow = sum(fl.txq.overflow_drops - b0 for fl, b0 in zip(flows, base["overflow"]))

    p = loss_events / sent_attempts if sent_attempts else 0.0
    q = seg_losses / sent_attempts if sent_attempts else 0.0
    blr = bursts_lost / bursts_offered if bursts_offered else 0.0
    e_delta = (seg_losses / loss_events) if loss_events else 1.0
    e_w = (w_at_loss_sum / w_at_loss_n) if w_at_loss_n else (
        cw_sum / cw_n if cw_n else 0.0
    )
    delivered_total = sum(delivered_pf)
    # timeout probability per round: mean timeouts per flow over the
    # number of rounds in the measurement window
    mean_tos = timeouts / cfg.n_rcst
    xi = mean_tos / (measured_s / e_rtt) if e_rtt > 0 and measured_s > 0 else 0.0

    quarters = []
    if g_series.size >= 4:
        for chunk in np.array_split(g_series, 4):
            quarters.append(float(chunk.mean()))

    return RunMetrics(
        wf=cfg.waveform.wf_id,
        mss=cfg.mss_bytes,
        n_rcst=cfg.n_rcst,
        r=r,
        f=f,
        seed=cfg.seed,
        sim_duration_s=cfg.sim_duration_s,
        warmup_s=cfg.warmup_s,
        measured_s=measured_s,
        blr=blr,
        q=q,
        p=p,
        e_delta=e_delta,
        e_w=e_w,
        e_rtt_s=e_rtt,
        thr_kbps=float(np.mean(thr_pf)) if thr_pf else 0.0,
        xi=xi,
        g_mean=float(g_series.mean()) if g_series.size else 0.0,
        load_per_rcst=(float(g_series.mean()) / cfg.n_rcst) if g_series.size else 0.0,
        g_quarters=quarters,
        throughput_kbps_per_flow=thr_pf,
        segments_delivered=delivered_total,
        segments_sent=sent_attempts,
        bursts_offered=bursts_offered,
        bursts_lost=bursts_lost,
        loss_events=loss_events,
        segment_losses=seg_losses,
        retransmissions=retx_tx,
        spurious_rtx=spurious,
        timeouts=timeouts,
        overflow_drops=overflow,
        nonconvergent=delivered_total == 0,
        e_w_time_avg=(cw_sum / cw_n) if cw_n else 0.0,
        cwnd_hist=cwnd_hist,
        queue_depth_mean=[s / max(1, n_blocks - warmup_block) for s in qd_sum],
        flow_cycles=[fl.sender.cycles for fl in flows],
        g_series=g_series,
    )


def sweep_point_config(cfg_template: ScenarioConfig, n: int) -> ScenarioConfig:
    """The scenario one sweep point runs: the template at population n,
    with a seed derived from the template seed and n."""
    return cfg_template.with_overrides(
        n_rcst=n, seed=derive_run_seed(cfg_template.seed, n)
    )


def _sweep_one(args):
    return run(sweep_point_config(*args))


def sweep(cfg_template: ScenarioConfig, n_rcst_list: list[int],
          parallel: int = 1) -> list[RunMetrics]:
    """One independent run per population size, each with a derived seed."""
    if not n_rcst_list:
        raise ValueError("n_rcst_list must be nonempty")
    jobs = [(cfg_template, int(n)) for n in n_rcst_list]
    if parallel > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=parallel) as ex:
            return list(ex.map(_sweep_one, jobs))
    return [_sweep_one(j) for j in jobs]


def metrics_to_json(m: RunMetrics, cfg: ScenarioConfig) -> str:
    doc = {"config": cfg.to_dict(), "metrics": m.to_json_dict()}
    return json.dumps(doc, indent=2, sort_keys=True)
