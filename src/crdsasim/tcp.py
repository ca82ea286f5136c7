"""Per-flow TCP NewReno (Slow-but-Steady) sender and receiver.

The sender is a pure state machine: event handlers take the current time
and return the sequence numbers to send, retransmissions first, then the
new range.  A returned seq is a retransmission iff it is below the
sender's ``next_seq`` as read just before the call.  The caller owns
queues, links and timers.  Window arithmetic uses a real-valued cwnd
accumulator with floor gating.

Delayed ACKs: the receiver acknowledges every b-th in-order segment (or on
a 200 ms timer), and acknowledges immediately whenever data arrives out of
order or fills a gap.  Growth bookkeeping is per segment acked, so slow
start multiplies the window by (1 + 1/b) per round and congestion
avoidance adds 1/b segment per round regardless of ACK batching.
"""

from __future__ import annotations

__all__ = [
    "SLOW_START",
    "CONGESTION_AVOIDANCE",
    "FAST_RECOVERY",
    "TIMEOUT_BACKOFF",
    "TIMER_SLACK_S",
    "TcpSender",
    "TcpReceiver",
]

# a phase's value is its name in the event trace
SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"
FAST_RECOVERY = "fast_recovery"
TIMEOUT_BACKOFF = "timeout_backoff"

INITIAL_CWND = 2.0
INITIAL_SSTHRESH = 64.0
MAX_BACKOFF_EXP = 6
RTO_GRANULARITY_S = 0.01
MIN_RTO_S = 1.0
DELAYED_ACK_S = 0.2
# A timer fires at ``now >= deadline - TIMER_SLACK_S``.  engine._due_block
# files timer entries by this same test, so the engine is exact only while
# every timer check uses this one constant.
TIMER_SLACK_S = 1e-12


class TcpSender:
    """NewReno SBS congestion control with delayed-ACK-aware growth."""

    __slots__ = (
        "flow_id", "b", "cwnd", "ssthresh", "phase", "snd_una", "next_seq",
        "dup_acks", "recover", "rwnd", "rto", "srtt", "rttvar", "backoff_exp",
        "timer_deadline", "send_time", "started", "resend_next", "resend_high",
        "timeouts", "rtt_sum", "rtt_n", "trace",
    )

    def __init__(self, flow_id: int, b: int = 2, initial_rto_s: float = 2.0,
                 rwnd_segments: int = 10000, trace: list | None = None):
        self.flow_id = flow_id
        self.b = b
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.phase = SLOW_START
        self.snd_una = 1            # lowest unacknowledged sequence
        self.next_seq = 1           # next new sequence to emit
        self.dup_acks = 0
        self.recover = 0
        self.rwnd = rwnd_segments

        self.rto = initial_rto_s    # estimator output (>= MIN_RTO after a sample)
        self.srtt = None
        self.rttvar = None
        self.backoff_exp = 0
        self.timer_deadline = None

        self.send_time = {}         # seq -> first-transmission queue time (Karn)
        self.started = False
        # go-back-N resend window after a timeout: sequences in
        # [resend_next, resend_high] are re-sent ahead of new data, with
        # cumulative ACKs cancelling whatever they cover
        self.resend_next = 1
        self.resend_high = 0

        # counters (monotone; callers snapshot at warmup)
        self.timeouts = 0
        self.rtt_sum = 0.0
        self.rtt_n = 0

        self.trace = trace

    # -- helpers -----------------------------------------------------------

    @property
    def flight(self) -> int:
        """Outstanding segment count for window gating.

        During a post-timeout resend, only data (re)transmitted since the
        timeout counts, so the window restart is paced from one segment;
        once the resend window is exhausted this reduces to the plain
        sequence-range measure.
        """
        if self.resend_next <= self.resend_high:
            return (self.resend_next - self.snd_una) + max(
                0, self.next_seq - 1 - self.resend_high
            )
        return self.next_seq - self.snd_una

    def _log(self, now, event):
        if self.trace is not None:
            self.trace.append(
                (now, self.flow_id, event, self.cwnd, self.ssthresh, self.phase)
            )

    def _emit_new(self, now) -> list[int]:
        """Fill the window: pending post-timeout resends first, then fresh
        application segments as one range (the source is endless, data is
        always ready)."""
        limit = min(int(self.cwnd + 1e-9), self.rwnd)
        send_time = self.send_time
        seqs = []
        lo = self.resend_next
        if lo <= self.resend_high:
            # every resend adds one to flight, except the one that exhausts
            # the resend window: flight then switches to the plain range
            hi = min(lo + limit - self.flight, self.resend_high + 1)
            if hi <= lo:
                return seqs
            for seq in range(lo, hi):
                send_time.pop(seq, None)   # Karn: no sample from retransmits
            self.resend_next = hi
            seqs += range(lo, hi)
            if hi <= self.resend_high:
                return seqs
        first = self.next_seq
        stop = self.snd_una + limit
        if stop > first:
            for seq in range(first, stop):
                send_time[seq] = now
            self.next_seq = stop
            seqs += range(first, stop)
        return seqs

    def _retransmit(self, seq) -> int:
        self.send_time.pop(seq, None)      # Karn: no sample from retransmits
        return seq

    def _take_rtt_sample(self, sample: float):
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(MIN_RTO_S,
                       self.srtt + max(RTO_GRANULARITY_S, 4.0 * self.rttvar))
        self.rtt_sum += sample
        self.rtt_n += 1

    def armed_rto(self) -> float:
        return self.rto * (2 ** self.backoff_exp)

    def _restart_timer(self, now):
        self.timer_deadline = (now + self.armed_rto()) if self.flight > 0 else None

    def timer_expired(self, now) -> bool:
        deadline = self.timer_deadline
        return deadline is not None and now >= deadline - TIMER_SLACK_S

    # -- events ------------------------------------------------------------

    def start(self, now) -> list[int]:
        """Connection established (handshake collapsed into the start
        offset); emits the initial window."""
        self.started = True
        self._log(now, "start")
        seqs = self._emit_new(now)
        self._restart_timer(now)
        return seqs

    def on_ack(self, ack_no: int, now: float) -> list[int]:
        if ack_no < self.snd_una:
            return []                       # stale
        if ack_no == self.snd_una:
            return self._on_dup_ack(now)
        return self._on_new_ack(ack_no, now)

    def _on_dup_ack(self, now) -> list[int]:
        if self.flight == 0:
            return []
        self.dup_acks += 1
        if self.phase == FAST_RECOVERY:
            self.cwnd += 1.0                # inflate for the departed segment
            return self._emit_new(now)
        if self.dup_acks == 3 and self.snd_una - 1 > self.recover:
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.recover = self.next_seq - 1
            self.cwnd = self.ssthresh + 3.0
            self.phase = FAST_RECOVERY
            self._log(now, "fr_enter")
            return [self._retransmit(self.snd_una), *self._emit_new(now)]
        return []

    def _on_new_ack(self, ack_no, now) -> list[int]:
        newly = ack_no - self.snd_una
        send_time = self.send_time
        for seq in range(self.snd_una, ack_no - 1):
            send_time.pop(seq, None)
        t0 = send_time.pop(ack_no - 1, None)   # sample the newest only
        if t0 is not None:
            self._take_rtt_sample(now - t0)
        self.backoff_exp = 0
        self.snd_una = ack_no
        if self.resend_next < ack_no:
            self.resend_next = ack_no     # the ACK covers pending resends

        rtx = None
        if self.phase == FAST_RECOVERY:
            if ack_no > self.recover:
                self.cwnd = self.ssthresh   # full ACK: deflate and leave FR
                self.phase = CONGESTION_AVOIDANCE
                self.dup_acks = 0
                self._log(now, "fr_exit")
            else:
                # partial ACK: deflate by the amount acked, inflate by one,
                # retransmit the next hole (one lost segment per round)
                self.cwnd = max(1.0, self.cwnd - newly + 1.0)
                rtx = self._retransmit(self.snd_una)
        else:
            self.dup_acks = 0
            if self.phase == SLOW_START:
                self.cwnd += newly / self.b
                if self.cwnd >= self.ssthresh:
                    self.phase = CONGESTION_AVOIDANCE
                    self._log(now, "ss_to_ca")
            else:
                # divide by the gating (integer) window so a full round of
                # ACKs advances the window by exactly 1/b segments
                self.cwnd += newly / (self.b * int(self.cwnd))

        self._restart_timer(now)
        seqs = self._emit_new(now)
        if rtx is not None:
            seqs.insert(0, rtx)
        return seqs

    def on_timeout(self, now) -> list[int]:
        """Retransmission timer expiry: multiplicative backoff and restart
        from slow start.

        Without selective acknowledgements the sender must assume the whole
        outstanding window was lost, so everything from the head is queued
        for sequential resend (go-back-N); cumulative ACKs for surviving
        originals cancel the not-yet-resent tail as they arrive.
        """
        self.timeouts += 1
        self.phase = TIMEOUT_BACKOFF
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.recover = self.next_seq - 1
        self.backoff_exp = min(self.backoff_exp + 1, MAX_BACKOFF_EXP)
        self._log(now, "timeout")
        seq = self._retransmit(self.snd_una)
        self.resend_next = seq + 1
        self.resend_high = self.next_seq - 1
        self.phase = SLOW_START
        self._restart_timer(now)
        return [seq]


class TcpReceiver:
    """Cumulative-ACK receiver with delayed ACKs and duplicate detection."""

    __slots__ = ("b", "rcv_next", "ooo", "pending_unacked",
                 "ack_timer_deadline", "delivered", "spurious")

    def __init__(self, b: int = 2):
        self.b = b
        self.rcv_next = 1
        self.ooo = set()
        self.pending_unacked = 0
        self.ack_timer_deadline = None
        self.delivered = 0          # in-order segments released upward
        self.spurious = 0           # duplicate segment arrivals

    def _cumulative_ack(self) -> int:
        self.pending_unacked = 0
        self.ack_timer_deadline = None
        return self.rcv_next

    def on_segment(self, seq: int, now: float) -> int | None:
        """Process one complete segment; returns the ACK number to emit
        now, or None."""
        if seq == self.rcv_next:
            advanced = 1
            self.rcv_next += 1
            while self.rcv_next in self.ooo:
                self.ooo.remove(self.rcv_next)
                self.rcv_next += 1
                advanced += 1
            self.delivered += advanced
            self.pending_unacked += advanced
            if advanced > 1 or self.ooo:
                return self._cumulative_ack()       # gap filled / still gappy
            if self.pending_unacked >= self.b:
                return self._cumulative_ack()
            if self.ack_timer_deadline is None:
                self.ack_timer_deadline = now + DELAYED_ACK_S
            return None
        if seq > self.rcv_next:
            if seq in self.ooo:
                self.spurious += 1
            else:
                self.ooo.add(seq)
            return self._cumulative_ack()           # immediate duplicate ACK
        self.spurious += 1
        return self._cumulative_ack()               # old duplicate

    def poll_timer(self, now: float) -> int | None:
        """The ACK number the delayed-ACK timer releases now, or None."""
        if (self.ack_timer_deadline is not None
                and now >= self.ack_timer_deadline - TIMER_SLACK_S
                and self.pending_unacked > 0):
            return self._cumulative_ack()
        return None
