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


@dataclass(slots=True)
class _Flow:
    """One terminal: its TCP endpoints, its device queue, and the engine's
    view of the segment incarnations it has put on the air."""

    idx: int
    sender: TcpSender
    receiver: TcpReceiver
    txq: TxQueue
    start_block: int
    epoch_of: dict = field(default_factory=dict)     # seq -> latest rtx epoch
    dead: set = field(default_factory=set)           # (seq, epoch) killed by SIC
    queued_untx: set = field(default_factory=set)    # seqs queued, never sent
    event_end_seq: int = 0     # first seq past the current loss event


@dataclass(slots=True)
class _Tally:
    """Every post-warm-up accumulator of one run."""

    g_series: np.ndarray          # offered load per measured block
    qd_sum: list                  # per-flow sum of queue depths
    segments_sent: int = 0
    retransmissions: int = 0
    segment_losses: int = 0
    loss_events: int = 0
    w_at_loss_sum: float = 0.0
    bursts_offered: int = 0
    bursts_lost: int = 0
    # cwnd over flows x blocks, summed one term at a time: builtin sum()
    # compensates float sums on Python >= 3.12 and would change e_w
    cw_sum: float = 0.0
    cwnd_hist: dict = field(default_factory=dict)

    def sample_flows(self, flows, b):
        """End-of-block state of every flow; the cwnd histogram is sampled
        every 8th block."""
        cw_sum = self.cw_sum
        qd_sum = self.qd_sum
        for flow in flows:
            cw_sum += flow.sender.cwnd
            qd_sum[flow.idx] += len(flow.txq)
        self.cw_sum = cw_sum
        if (b & 7) == 0:
            hist = self.cwnd_hist
            for flow in flows:
                key = int(flow.sender.cwnd)
                hist[key] = hist.get(key, 0) + 1


def _queue_actions(flow: _Flow, acts, seg_bytes: float):
    """Put a sender's actions on the flow's FIFO device queue.

    Retransmissions share the queue with new data.  A resend of a sequence
    that still has an untransmitted copy queued is a no-op: that copy goes
    out in admission order.  A tail-dropped segment is not marked queued,
    so it cannot suppress a later resend of its sequence.
    """
    for a in acts:
        epoch = 0
        if a.retransmit:
            if a.seq in flow.queued_untx:
                continue
            epoch = flow.epoch_of.get(a.seq, 0) + 1
            flow.epoch_of[a.seq] = epoch
        if flow.txq.push(SegmentRef(a.seq, seg_bytes, epoch)):
            flow.queued_untx.add(a.seq)


def _lose_burst(flow: _Flow, slices, tally: _Tally, measuring: bool):
    """Kill every segment incarnation a lost burst carried.  A loss at or
    past the end of the flow's current loss event opens a new event that
    spans one window from it."""
    for sl in slices:
        key = (sl.seg.seg_seq, sl.seg.tx_epoch)
        if key in flow.dead:
            continue
        flow.dead.add(key)
        if measuring:
            tally.segment_losses += 1
        if sl.seg.seg_seq >= flow.event_end_seq:
            w = flow.sender.cwnd
            flow.event_end_seq = sl.seg.seg_seq + max(1, int(w))
            if measuring:
                tally.loss_events += 1
                tally.w_at_loss_sum += w


def run(cfg: ScenarioConfig, trace: list | None = None) -> RunMetrics:
    """Simulate one scenario and collect post-warmup statistics."""
    dt = cfg.block_duration_s
    n_slots = cfg.slots_per_block
    n_blocks, warmup_block = cfg.block_counts
    half = math.ceil(cfg.nominal_rtt_s / 2.0 / dt - 1e-9)    # one-way, in blocks
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
        receiver = TcpReceiver(b=cfg.delayed_ack_b)
        txq = TxQueue(capacity_segments=cfg.buffer_segments)
        flows.append(_Flow(i, sender, receiver, txq, start_block))

    acks_due = defaultdict(list)       # block -> [(flow_idx, ack_no)]
    arrivals_due = defaultdict(list)   # block -> [(flow_idx, slices)]
    tally = _Tally(np.zeros(n_blocks - warmup_block, dtype=np.float64),
                   [0.0] * cfg.n_rcst)
    base = None

    for b in range(n_blocks):
        now = b * dt
        measuring = b >= warmup_block
        if b == warmup_block:
            base = _counters(flows)

        # 1. decoded bursts reach the gateway; completed segments of live
        # incarnations go to the receivers, which may ACK
        for fi, slices in arrivals_due.pop(b, ()):
            flow = flows[fi]
            for sl in slices:
                seg = sl.seg
                if sl.is_final_fragment and (seg.seg_seq, seg.tx_epoch) not in flow.dead:
                    for ack in flow.receiver.on_segment(seg.seg_seq, now):
                        acks_due[b + delay_ack].append((fi, ack))

        # 2. per-flow housekeeping: delayed-ACK timers, flow starts, RTO
        for flow in flows:
            for ack in flow.receiver.poll_timer(now):
                acks_due[b + delay_ack].append((flow.idx, ack))

        for fi, ack_no in acks_due.pop(b, ()):
            flow = flows[fi]
            _queue_actions(flow, flow.sender.on_ack(ack_no, now), seg_bytes)

        for flow in flows:
            if not flow.sender.started:
                if b >= flow.start_block:
                    _queue_actions(flow, flow.sender.start(now), seg_bytes)
                continue
            if flow.sender.timer_expired(now):
                _queue_actions(flow, flow.sender.on_timeout(now), seg_bytes)

        # 3. MAC: one burst per backlogged terminal, then SIC.  The block
        # must be fully received before it can be decoded, so decoded
        # payloads surface one block after the propagation delay.
        active = [flow for flow in flows if flow.txq.has_data()]
        if active:
            slot_rows = sample_replica_slots(
                mac_rng, len(active), n_slots, cfg.replicas
            )
            burst_payloads = []
            for flow in active:
                slices = pack_next_burst(flow.txq, payload, max_distinct)
                burst_payloads.append(slices)
                for sl in slices:
                    flow.queued_untx.discard(sl.seg.seg_seq)
                    if measuring and sl.is_final_fragment:
                        tally.segments_sent += 1
                        if sl.seg.tx_epoch > 0:
                            tally.retransmissions += 1
            decoded, lost = sic_decode(slot_rows)
            if measuring:
                tally.bursts_offered += len(active)
                tally.bursts_lost += len(lost)
                tally.g_series[b - warmup_block] = len(active) / n_slots
            for k in sorted(decoded):
                arrivals_due[b + delay_data].append((active[k].idx, burst_payloads[k]))
            for k in sorted(lost):
                _lose_burst(active[k], burst_payloads[k], tally, measuring)

        if measuring:
            tally.sample_flows(flows, b)

    return _metrics(cfg, flows, base, tally)


def _counters(flows):
    """The flows' monotone counters, one row per flow, in the column order
    ``_metrics`` unpacks."""
    return [(f.receiver.delivered, f.receiver.spurious, f.sender.timeouts,
             f.sender.rtt_sum, f.sender.rtt_n, f.txq.overflow_drops)
            for f in flows]


def _metrics(cfg, flows, base, tally: _Tally) -> RunMetrics:
    """Post-warm-up metrics from the flows, their counters at the warm-up
    boundary (``base``) and the run's tally.  The config guarantees at
    least one measured block."""
    r, f = fragmentation_profile(cfg)
    g_series = tally.g_series
    measured_s = g_series.size * cfg.block_duration_s
    now = _counters(flows)
    delivered_pf, spurious_pf, timeouts_pf, rtt_sum_pf, rtt_n_pf, overflow_pf = zip(
        *([x - x0 for x, x0 in zip(row, row0)] for row, row0 in zip(now, base)))
    rtt_n = sum(rtt_n_pf)
    e_rtt = sum(rtt_sum_pf) / rtt_n if rtt_n else cfg.nominal_rtt_s
    timeouts = sum(timeouts_pf)
    thr_pf = [d * cfg.mss_bytes * 8.0 / 1000.0 / measured_s for d in delivered_pf]
    delivered_total = sum(delivered_pf)

    sent, losses, events = tally.segments_sent, tally.segment_losses, tally.loss_events
    e_w_time_avg = tally.cw_sum / (cfg.n_rcst * g_series.size)
    # timeout probability per round: mean timeouts per flow over the
    # number of rounds in the measurement window
    mean_tos = timeouts / cfg.n_rcst
    xi = mean_tos / (measured_s / e_rtt) if e_rtt > 0 else 0.0
    g_mean = float(g_series.mean())
    quarters = ([float(c.mean()) for c in np.array_split(g_series, 4)]
                if g_series.size >= 4 else [])

    return RunMetrics(
        wf=cfg.waveform.wf_id, mss=cfg.mss_bytes, n_rcst=cfg.n_rcst, r=r, f=f,
        seed=cfg.seed, sim_duration_s=cfg.sim_duration_s,
        warmup_s=cfg.warmup_s, measured_s=measured_s,
        blr=tally.bursts_lost / tally.bursts_offered if tally.bursts_offered else 0.0,
        q=losses / sent if sent else 0.0,
        p=events / sent if sent else 0.0,
        e_delta=losses / events if events else 1.0,
        e_w=tally.w_at_loss_sum / events if events else e_w_time_avg,
        e_rtt_s=e_rtt,
        thr_kbps=float(np.mean(thr_pf)) if thr_pf else 0.0,
        xi=xi,
        g_mean=g_mean,
        load_per_rcst=g_mean / cfg.n_rcst,
        g_quarters=quarters,
        throughput_kbps_per_flow=thr_pf,
        segments_delivered=delivered_total,
        segments_sent=sent,
        bursts_offered=tally.bursts_offered,
        bursts_lost=tally.bursts_lost,
        loss_events=events,
        segment_losses=losses,
        retransmissions=tally.retransmissions,
        spurious_rtx=sum(spurious_pf),
        timeouts=timeouts,
        overflow_drops=sum(overflow_pf),
        nonconvergent=delivered_total == 0,
        e_w_time_avg=e_w_time_avg,
        cwnd_hist=tally.cwnd_hist,
        queue_depth_mean=[s / g_series.size for s in tally.qd_sum],
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
