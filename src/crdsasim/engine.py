"""Discrete-event simulation at RA-block granularity.

Each block, in order: the decoded bursts due reach the gateway and the
ACKs due drive the senders; one pass over the flows, in index order, polls
each delayed-ACK timer, starts the flow or fires its expired retransmission
timer, samples its window and notes whether it is backlogged; the shared
MAC stream places one burst per backlogged terminal and SIC decodes the
block; one pass over the bursts, in flow order, packs each payload, samples
the queue depth and loses the burst or sends it on.  Decoded payloads travel to the gateway over half
the nominal RTT, and ACKs ride a lossless forward link back over the other
half.  One-way delays are rounded up to the next block boundary.

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
    g_series: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        d = {}
        for k, v in self.__dict__.items():
            if k == "g_series":
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
    """One terminal: its TCP endpoints, its device queue, the sequences
    queued but not yet sent, and the end of its current loss event."""

    idx: int
    sender: TcpSender
    receiver: TcpReceiver
    txq: TxQueue
    start_block: int
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
    cwnd_hist: dict = field(default_factory=dict)   # sampled every 8th block


def _queue_actions(flow: _Flow, acts, seg_bytes: float):
    """Put a sender's actions on the flow's FIFO device queue, one new
    segment incarnation per action.

    Retransmissions share the queue with new data.  A resend of a sequence
    that still has an untransmitted copy queued is a no-op: that copy goes
    out in admission order.  A tail-dropped segment is not marked queued,
    so it cannot suppress a later resend of its sequence.
    """
    for a in acts:
        if a.retransmit and a.seq in flow.queued_untx:
            continue
        if flow.txq.push(SegmentRef(a.seq, seg_bytes, a.retransmit)):
            flow.queued_untx.add(a.seq)


def _lose_burst(flow: _Flow, slices, tally: _Tally, measuring: bool):
    """Mark lost every segment incarnation a lost burst carried; one that
    is already lost is not counted again.  A loss at or past the end of
    the flow's current loss event opens a new event that spans one window
    from it."""
    for sl in slices:
        seg = sl.seg
        if seg.lost:
            continue
        seg.lost = True
        if measuring:
            tally.segment_losses += 1
        if seg.seg_seq >= flow.event_end_seq:
            w = flow.sender.cwnd
            flow.event_end_seq = seg.seg_seq + max(1, int(w))
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
        # incarnations go to the receivers, which may ACK; then the ACKs
        # due this block drive the senders
        for fi, slices in arrivals_due.pop(b, ()):
            flow = flows[fi]
            for sl in slices:
                seg = sl.seg
                if sl.is_final_fragment and not seg.lost:
                    for ack in flow.receiver.on_segment(seg.seg_seq, now):
                        acks_due[b + delay_ack].append((fi, ack))

        for fi, ack_no in acks_due.pop(b, ()):
            flow = flows[fi]
            _queue_actions(flow, flow.sender.on_ack(ack_no, now), seg_bytes)

        # 2. one pass over the flows.  Delayed-ACK timers may fire after this
        # block's ACKs: nominal_rtt_s >= block_duration_s makes delay_ack
        # >= 1.  Nothing after this pass changes a window, so the sample is
        # the flow's end-of-block state.
        hist_block = measuring and (b & 7) == 0
        cw_sum = tally.cw_sum
        active = []
        for flow in flows:
            sender = flow.sender
            for ack in flow.receiver.poll_timer(now):
                acks_due[b + delay_ack].append((flow.idx, ack))
            if sender.started:
                if sender.timer_expired(now):
                    _queue_actions(flow, sender.on_timeout(now), seg_bytes)
            elif b >= flow.start_block:
                _queue_actions(flow, sender.start(now), seg_bytes)
            if measuring:
                cw_sum += sender.cwnd
                if hist_block:
                    key = int(sender.cwnd)
                    tally.cwnd_hist[key] = tally.cwnd_hist.get(key, 0) + 1
            if flow.txq.has_data():
                active.append(flow)
        tally.cw_sum = cw_sum

        # 3. MAC: placement and SIC depend only on the number of bursts, so
        # both come before packing.  Decoded payloads surface one block after
        # the propagation delay, as the block must be fully received first.
        if not active:
            continue
        _, lost = sic_decode(
            sample_replica_slots(mac_rng, len(active), n_slots, cfg.replicas))
        if measuring:
            tally.bursts_offered += len(active)
            tally.bursts_lost += len(lost)
            tally.g_series[b - warmup_block] = len(active) / n_slots
        for k, flow in enumerate(active):
            slices = pack_next_burst(flow.txq, payload, max_distinct)
            for sl in slices:
                flow.queued_untx.discard(sl.seg.seg_seq)
                if measuring and sl.is_final_fragment:
                    tally.segments_sent += 1
                    if sl.seg.retransmit:
                        tally.retransmissions += 1
            if measuring:
                tally.qd_sum[flow.idx] += len(flow.txq)
            if k in lost:
                _lose_burst(flow, slices, tally, measuring)
            else:
                arrivals_due[b + delay_data].append((flow.idx, slices))

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
