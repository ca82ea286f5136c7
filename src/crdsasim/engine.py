"""Discrete-event simulation at RA-block granularity.

Each block, in order:

1. flush: once the oldest held block's payloads are due, every held
   block is SIC-decoded in one batch, and its bursts are lost or sent on
   to the gateway, in block order and burst order;
2. arrivals: the decoded bursts due reach the gateway, and the segments
   they complete go to the receivers, which ACK or start a delayed-ACK
   timer;
3. ACKs: the ACKs due drive the senders, whose seqs the flows' queues
   admit;
4. due timers: each flow with a timer due this block is visited once,
   in index order: its delayed-ACK poll, then its start or retransmission
   timeout;
5. sample: every flow's window is sampled;
6. MAC: the shared MAC stream places one burst per backlogged terminal,
   one pass over the bursts, in flow order, packs each payload and
   samples the queue depth, and the block is held for SIC.

A queued segment incarnation is one ``rle.SegmentRef`` from the device
queue to the receiver: a burst is the list of incarnations it touched, and
its loss marks each of them lost.

Apart from the window sample, work per block scales with these events,
not with the number of terminals.  Decoded payloads travel to the gateway
over half the nominal RTT, and ACKs ride a lossless forward link back
over the other half.  One-way delays are rounded up to the next block
boundary.

Losses are never signalled to senders; they surface as duplicate ACKs or
timer expirations, exactly as on the wire.
"""

from __future__ import annotations

import json
import math
import sys
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
from crdsasim import mac
# sic_decode, the one-block decoder, stays reachable as engine.sic_decode
from crdsasim.mac import sample_replica_slots, sic_decode  # noqa: F401
from crdsasim.rle import TxQueue, pack_next_burst
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
        d = {k: v for k, v in self.__dict__.items() if k != "g_series"}
        d["cwnd_hist"] = {str(k): v for k, v in sorted(self.cwnd_hist.items())}
        return d

    def table6_row(self) -> dict:
        return {
            "wf": self.wf, "mss": self.mss, "n_rcst": self.n_rcst,
            "blr": self.blr, "r": self.r, "f": self.f, "q": self.q,
            "p": self.p, "e_delta": self.e_delta, "e_rtt": self.e_rtt_s,
            "thr_kbps": self.thr_kbps, "xi": self.xi,
        }


# A flow's ``ack_due`` or ``rto_due`` when no entry is filed for that timer.
NO_ENTRY = sys.maxsize


def _due_block(deadline: float, dt: float) -> int:
    """The first block b whose start passes the timer test of
    ``TcpSender.timer_expired`` and ``TcpReceiver.poll_timer``,
    ``b * dt >= deadline - 1e-12``: a ceil estimate, corrected with that
    same float comparison."""
    t = deadline - 1e-12
    b = max(0, math.ceil(t / dt))
    while b > 0 and (b - 1) * dt >= t:
        b -= 1
    while b * dt < t:
        b += 1
    return b


@dataclass(slots=True)
class _Flow:
    """One terminal: its TCP endpoints, its device queue and the end of its
    current loss event."""

    sender: TcpSender
    receiver: TcpReceiver
    txq: TxQueue
    event_end_seq: int = 0     # first seq past the current loss event
    # blocks of the live delayed-ACK and retransmission-timer entries
    ack_due: int = NO_ENTRY
    rto_due: int = NO_ENTRY


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


def _file(due_sets, fi: int, deadline, dt: float, first_block: int) -> int:
    """File flow ``fi``'s timer in ``due_sets`` at the due block of its
    deadline, no earlier than ``first_block``.  Returns the entry's block,
    or ``NO_ENTRY`` when the timer is not armed."""
    if deadline is None:
        return NO_ENTRY
    due = max(_due_block(deadline, dt), first_block)
    due_sets[due].add(fi)
    return due


def _lose_burst(flow: _Flow, segs, w: float, tally: _Tally, measuring: bool):
    """Mark lost every segment incarnation a lost burst carried; one that
    is already lost is not counted again.  A loss at or past the end of
    the flow's current loss event opens a new event that spans one window
    ``w``, the flow's cwnd when the burst was packed."""
    for seg in segs:
        if seg.lost:
            continue
        seg.lost = True
        if measuring:
            tally.segment_losses += 1
        if seg.seg_seq >= flow.event_end_seq:
            flow.event_end_seq = seg.seg_seq + max(1, int(w))
            if measuring:
                tally.loss_events += 1
                tally.w_at_loss_sum += w


def _decode_held(held, flows, arrivals_due, delay_data: int, n_slots: int,
                 tally: _Tally):
    """SIC-decode the held blocks in one batch, then, in block order and
    burst order, send each decoded burst on to the gateway and lose the
    rest.  ``held`` lists per block its index, whether it is measured, its
    replica slots and its bursts as (flow index, segments touched, how many
    of them it finished, cwnd at packing); it is emptied."""
    counts = [len(bursts) for _, _, _, bursts in held]
    decoded = mac._decode_batch(
        np.repeat(np.arange(len(held)), counts),
        np.concatenate([slots for _, _, slots, _ in held]),
        len(held), n_slots).tolist()
    k = 0
    for b, measuring, _, bursts in held:
        arrivals = arrivals_due[b + delay_data]
        for fi, segs, done, w in bursts:
            if decoded[k]:
                arrivals.append((fi, segs, done))
            else:
                _lose_burst(flows[fi], segs, w, tally, measuring)
                if measuring:
                    tally.bursts_lost += 1
            k += 1
    held.clear()


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
    payload = cfg.rle_payload_bytes
    stagger_blocks = max(1, int(round(START_STAGGER_RTTS * cfg.nominal_rtt_s / dt)))

    mac_rng = make_rng(cfg.seed, MAC_STREAM)
    # block -> flows to visit: delayed-ACK timers to poll, and starts and
    # retransmission timers.  An entry is filed no later than the first
    # block its deadline passes the timer test, which still decides.  Each
    # flow keeps one live entry per timer (``ack_due``, ``rto_due``): an arm
    # files a new entry only if its deadline is due before the live one,
    # so a re-arm that moves a deadline later keeps the entry, which
    # re-files itself when it pops before the deadline.
    due = defaultdict(set)
    flows = []
    for i in range(cfg.n_rcst):
        frng = make_rng(cfg.seed, rcst_stream(i))
        due[int(frng.random() * stagger_blocks)].add(i)
        sender = TcpSender(
            i, b=cfg.delayed_ack_b, initial_rto_s=cfg.initial_rto_s,
            rwnd_segments=cfg.buffer_segments, trace=trace,
        )
        txq = TxQueue(float(cfg.segment_bytes_on_air), cfg.buffer_segments)
        flows.append(_Flow(sender, TcpReceiver(b=cfg.delayed_ack_b), txq))

    senders = [flow.sender for flow in flows]
    acks_due = defaultdict(list)       # block -> [(flow_idx, ack_no)]
    arrivals_due = defaultdict(list)   # block -> [(flow_idx, segs, done)]
    backlog = set()                    # flows with queued data
    held = []                          # packed blocks awaiting SIC
    tally = _Tally(np.zeros(n_blocks - warmup_block, dtype=np.float64),
                   [0.0] * cfg.n_rcst)
    base = None

    for b in range(n_blocks):
        now = b * dt
        measuring = b >= warmup_block
        if b == warmup_block:
            base = _counters(flows)
        # 1. decode the held blocks before the oldest one's bursts are due
        if held and held[0][0] + delay_data <= b:
            _decode_held(held, flows, arrivals_due, delay_data, n_slots, tally)

        # 2. decoded bursts reach the gateway; the live incarnations a burst
        # finished go to the receivers, which ACK or start their delayed-ACK
        # timer.  3. The ACKs due this block drive the senders; a seq below
        # the sender's next_seq before the call is a resend.
        acks_out = acks_due[b + delay_ack]
        for fi, segs, done in arrivals_due.pop(b, ()):
            flow = flows[fi]
            receiver = flow.receiver
            for seg in segs[:done]:
                if seg.lost:
                    continue
                ack = receiver.on_segment(seg.seg_seq, now)
                if ack is not None:
                    acks_out.append((fi, ack))
                elif (flow.ack_due - 1) * dt >= receiver.ack_timer_deadline - 1e-12:
                    flow.ack_due = _file(due, fi, receiver.ack_timer_deadline,
                                         dt, b)

        for fi, ack_no in acks_due.pop(b, ()):
            flow = flows[fi]
            sender = flow.sender
            first_new = sender.next_seq
            seqs = sender.on_ack(ack_no, now)
            if seqs and flow.txq.admit(seqs, first_new):
                backlog.add(fi)
            deadline = sender.timer_deadline
            if deadline is not None and (flow.rto_due - 1) * dt >= deadline - 1e-12:
                flow.rto_due = _file(due, fi, deadline, dt, b)

        # 4. the flows due this block, by flow index, each visited once: its
        # delayed-ACK poll (after this block's ACKs, as nominal_rtt_s >=
        # block_duration_s makes delay_ack >= 1), then its start or
        # retransmission timeout.  A poll touches only its receiver and a
        # timeout only its sender and queue, so this equals polling every
        # flow first.  A timer whose entry an earlier one replaced is
        # skipped.
        for fi in sorted(due.pop(b, ())):
            flow = flows[fi]
            if flow.ack_due == b:
                receiver = flow.receiver
                ack = receiver.poll_timer(now)
                if ack is not None:
                    acks_out.append((fi, ack))
                flow.ack_due = _file(due, fi, receiver.ack_timer_deadline,
                                     dt, b + 1)
            sender = flow.sender
            first_new = sender.next_seq
            if not sender.started:
                seqs = sender.start(now)
            elif flow.rto_due != b:
                continue
            else:
                seqs = sender.on_timeout(now) if sender.timer_expired(now) else ()
            if seqs and flow.txq.admit(seqs, first_new):
                backlog.add(fi)
            flow.rto_due = _file(due, fi, sender.timer_deadline, dt, b + 1)

        # 5. the window sample, over every flow in index order: nothing
        # later in a block changes a window
        if measuring:
            cw_sum = tally.cw_sum
            for sender in senders:
                cw_sum += sender.cwnd
            tally.cw_sum = cw_sum
            if (b & 7) == 0:
                hist = tally.cwnd_hist
                for sender in senders:
                    key = int(sender.cwnd)
                    hist[key] = hist.get(key, 0) + 1

        # 6. MAC: one placement per block, before packing, as it depends
        # only on the number of bursts.  The block is held for SIC, which
        # runs on a window of blocks once the oldest one's decoded payloads
        # are due: one block after the propagation delay, as a block must
        # be fully received first.
        if not backlog:
            continue
        active = sorted(backlog)
        slots = sample_replica_slots(mac_rng, len(active), n_slots, cfg.replicas)
        if measuring:
            tally.bursts_offered += len(active)
            tally.g_series[b - warmup_block] = len(active) / n_slots
        bursts = []
        for fi in active:
            flow = flows[fi]
            txq = flow.txq
            segs = pack_next_burst(txq, payload, max_distinct)
            # every touched segment is finished but an unfinished cursor
            done = len(segs) - (txq.cursor_seg is segs[-1])
            depth = len(txq)
            if not depth:
                backlog.discard(fi)
            if measuring:
                tally.qd_sum[fi] += depth
                tally.segments_sent += done
                for seg in segs[:done]:
                    if seg.retransmit:
                        tally.retransmissions += 1
            bursts.append((fi, segs, done, flow.sender.cwnd))
        held.append((b, measuring, slots, bursts))

    if held:
        _decode_held(held, flows, arrivals_due, delay_data, n_slots, tally)
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
