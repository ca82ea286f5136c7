"""Controlled-pipe tests for the NewReno state machine.

The harness runs a sender/receiver pair over an infinite-capacity pipe
with a fixed one-way delay and one-shot scripted drops, so window
dynamics can be checked against closed-form expectations without MAC
noise.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from crdsasim.tcp import (
    CONGESTION_AVOIDANCE,
    FAST_RECOVERY,
    SLOW_START,
    TcpReceiver,
    TcpSender,
)


class PipeHarness:
    def __init__(self, sender, receiver, delay=0.25, lose_once=()):
        self.sender = sender
        self.receiver = receiver
        self.delay = delay
        self.lose_once = set(lose_once)
        self.dropped = set()
        self.queue = []
        self.counter = itertools.count()
        self.sends = []          # (time, seq, retransmit, sender phase)
        self.cwnd_log = []       # (time, cwnd) on each ack

    def _post(self, t, kind, data=None):
        heapq.heappush(self.queue, (t, next(self.counter), kind, data))

    def _do(self, now, handler, *args):
        """Call a sender handler and send its seqs: a seq below the
        sender's next_seq before the call is a retransmission."""
        first_new = self.sender.next_seq
        for seq in handler(*args):
            retransmit = seq < first_new
            self.sends.append((now, seq, retransmit, self.sender.phase))
            if not retransmit and seq in self.lose_once \
                    and seq not in self.dropped:
                self.dropped.add(seq)
                continue
            self._post(now + self.delay, "seg", seq)
        if self.sender.timer_deadline is not None:
            self._post(self.sender.timer_deadline, "stimer")

    def _ack(self, now, ack):
        if ack is not None:
            self._post(now + self.delay, "ack", ack)

    def run(self, duration, start=True):
        if start:
            self._do(0.0, self.sender.start, 0.0)
        while self.queue:
            t, _, kind, data = heapq.heappop(self.queue)
            if t > duration:
                break
            if kind == "seg":
                self._ack(t, self.receiver.on_segment(data, t))
                if self.receiver.ack_timer_deadline is not None:
                    self._post(self.receiver.ack_timer_deadline, "rtimer")
            elif kind == "rtimer":
                self._ack(t, self.receiver.poll_timer(t))
            elif kind == "ack":
                self._do(t, self.sender.on_ack, data, t)
                self.cwnd_log.append((t, self.sender.cwnd))
            elif kind == "stimer":
                if self.sender.timer_expired(t):
                    self._do(t, self.sender.on_timeout, t)
        return self


def fr_episodes(sends):
    """Fast-recovery episodes read off the harness's send log, one list of
    rounds per episode.  Each retransmission in FR opens a round, which
    counts the fresh segments sent in FR after it."""
    episodes = []
    in_fr = False
    for _, _, retransmit, phase in sends:
        if phase != FAST_RECOVERY:
            in_fr = False
            continue
        if not in_fr:
            episodes.append([])
            in_fr = True
        if retransmit:
            episodes[-1].append(0)
        else:
            episodes[-1][-1] += 1
    return episodes


def steady_ca_sender(cwnd=20.0, b=2):
    s = TcpSender(0, b=b)
    s.cwnd = cwnd
    s.ssthresh = cwnd / 2
    s.phase = CONGESTION_AVOIDANCE
    return s


class TestGrowth:
    def test_ca_slope_is_one_over_b_per_rtt(self):
        # a tiny delayed-ACK timer keeps rounds RTT-spaced, so the
        # wall-clock trace can be compared to the analytical line
        s = steady_ca_sender(cwnd=10.0)
        s.ssthresh = 5.0
        h = PipeHarness(s, TcpReceiver(b=2, ack_delay_s=0.001), delay=0.25)
        rtt = 0.5
        n_rtts = 50
        h.run(n_rtts * rtt + 0.01)
        expected = 10.0 + n_rtts / 2
        assert s.cwnd == pytest.approx(expected, abs=1.0)
        assert s.timeouts == 0

    def test_ca_growth_exact_in_ack_space(self):
        # per segment acked, d(cwnd)/dk ~= 1/(b*cwnd): integrates to
        # cwnd^2 ~= cwnd0^2 + 2*acked/b regardless of ACK batching
        s = steady_ca_sender(cwnd=10.0)
        s.ssthresh = 5.0
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25)
        h.run(30.0)
        acked = s.snd_una - 1
        assert s.cwnd ** 2 == pytest.approx(100.0 + 2 * acked / 2, rel=0.04)

    def test_ss_growth_factor(self):
        s = TcpSender(0, b=2, initial_cwnd=4.0, initial_ssthresh=1000.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25)
        h.run(5 * 0.5 + 0.01)
        # x = 1 + 1/b per round from 4 segments
        assert s.cwnd == pytest.approx(4.0 * 1.5 ** 5, rel=0.15)
        assert s.phase == SLOW_START

    def test_ss_to_ca_transition_at_threshold(self):
        s = TcpSender(0, b=2, initial_cwnd=4.0, initial_ssthresh=6.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25)
        h.run(3.0)
        assert s.phase == CONGESTION_AVOIDANCE
        assert s.cwnd >= 6.0


class TestAppSource:
    def test_no_send_when_window_full(self):
        s = steady_ca_sender(cwnd=4.0)
        s.started = True
        s.next_seq = 5          # 4 outstanding of window 4
        assert s._emit_new(0.0) == []

    def test_one_send_when_one_slot_free(self):
        s = steady_ca_sender(cwnd=4.0)
        s.started = True
        s.next_seq = 4          # 3 outstanding of window 4
        assert s._emit_new(0.0) == [4]      # new data: not below next_seq 4
        assert s.next_seq == 5

    def test_fresh_flow_emits_initial_window(self):
        s = TcpSender(0, b=2, initial_cwnd=2.0)
        assert s.start(0.0) == [1, 2]
        assert s.next_seq == 3
        assert s.timer_deadline is not None


class TestSenderContract:
    """Every handler returns its retransmissions, all below the sender's
    next_seq before the call, followed by exactly the new range."""

    # timeouts are rarer than ACKs, so that fast recovery and its partial
    # ACKs are reached
    @given(ops=st.lists(st.tuples(st.sampled_from(["new", "dup", "dup", "dup",
                                                   "new", "timeout"]),
                                  st.floats(min_value=0.0, max_value=1.0)),
                        min_size=20, max_size=150),
           b=st.sampled_from([1, 2, 3]),
           rwnd=st.sampled_from([2, 5, 10000]))
    @settings(max_examples=200, deadline=None)
    def test_resends_then_the_new_range(self, ops, b, rwnd):
        s = TcpSender(0, b=b, rwnd_segments=rwnd)

        def check(handler, *args):
            first_new = s.next_seq
            seqs = handler(*args)
            new = list(range(first_new, s.next_seq))
            k = len(seqs) - len(new)
            assert k >= 0 and seqs[k:] == new
            assert all(seq < first_new for seq in seqs[:k])

        check(s.start, 0.0)
        for i, (kind, x) in enumerate(ops, 1):
            now = 0.1 * i
            outstanding = s.next_seq - s.snd_una
            if kind == "timeout":
                check(s.on_timeout, now)
            elif kind == "dup" or not outstanding:
                check(s.on_ack, s.snd_una, now)
            else:
                check(s.on_ack, s.snd_una + 1 + int(x * (outstanding - 1)), now)


class TestDelayedAcks:
    def test_ack_every_b_segments(self):
        r = TcpReceiver(b=2)
        acks = [r.on_segment(seq, float(seq)) for seq in range(1, 8)]
        # every 2nd of 7 in-order segments, cumulative
        assert acks == [None, 3, None, 5, None, 7, None]
        assert r.poll_timer(7.0 + 0.2) == 8    # timer releases the odd tail
        assert r.poll_timer(7.0 + 0.4) is None

    def test_out_of_order_acks_immediately(self):
        r = TcpReceiver(b=2)
        assert r.on_segment(1, 0.0) is None
        assert r.on_segment(3, 0.1) == 2       # immediate dup
        assert r.on_segment(4, 0.2) == 2
        assert r.on_segment(2, 0.3) == 5       # gap fill -> immediate
        assert r.delivered == 4

    def test_duplicate_segments_counted_spurious(self):
        r = TcpReceiver(b=2)
        r.on_segment(1, 0.0)
        r.on_segment(2, 0.1)
        assert r.spurious == 0
        r.on_segment(1, 0.2)
        assert r.spurious == 1
        r.on_segment(5, 0.3)
        r.on_segment(5, 0.4)
        assert r.spurious == 2


class TestFastRecovery:
    def test_single_loss_rounds_and_exit(self):
        s = steady_ca_sender(cwnd=20.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5})
        h.run(4.0)
        assert s.timeouts == 0
        # one episode; single-loss recovery sends W/2 - 1 fresh segments
        # in one round, opened by its one retransmission
        assert fr_episodes(h.sends) == [[9]]
        # post-exit window is half the drop window
        assert s.ssthresh == pytest.approx(10.0, abs=0.3)
        assert s.phase == CONGESTION_AVOIDANCE

    def test_double_loss_round_law(self):
        s = steady_ca_sender(cwnd=20.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5, 12})
        h.run(5.0)
        # one episode, delta = 2 rounds; S_k = W/2 - delta + k - 1
        assert fr_episodes(h.sends) == [[8, 9]]
        assert s.ssthresh == pytest.approx(10.0, abs=0.3)
        assert s.timeouts == 0

    def test_triple_loss_round_law(self):
        s = steady_ca_sender(cwnd=20.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5, 9, 13})
        h.run(6.0)
        assert fr_episodes(h.sends) == [[7, 8, 9]]
        assert s.ssthresh == pytest.approx(10.0, abs=0.3)

    def test_entry_needs_exactly_three_dups(self, monkeypatch):
        s = steady_ca_sender(cwnd=20.0)
        captured = []
        orig = TcpSender._on_dup_ack

        def spy(self, now):
            seqs = orig(self, now)
            if self is s and s.phase == FAST_RECOVERY and len(captured) == 0:
                captured.append(s.dup_acks)
            return seqs

        monkeypatch.setattr(TcpSender, "_on_dup_ack", spy)
        PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5}).run(3.0)
        assert captured == [3]

    def test_every_loss_retransmitted_exactly_once(self):
        s = steady_ca_sender(cwnd=20.0)
        r = TcpReceiver(b=2)
        h = PipeHarness(s, r, delay=0.25, lose_once={5, 12})
        h.run(8.0)
        retx = [seq for _, seq, is_r, _ in h.sends if is_r]
        assert sorted(retx) == [5, 12]
        assert r.spurious == 0
        # in-order release: everything below rcv_next was delivered once
        assert r.delivered == r.rcv_next - 1
        assert not r.ooo


class TestTimeouts:
    def test_backoff_doubles_and_clamps(self):
        s = TcpSender(0, b=2, initial_rto_s=2.0)
        s.started = True
        s.next_seq = 4          # pretend 3 segments outstanding
        assert s.armed_rto() == pytest.approx(2.0)
        expect = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 128.0]
        for i, want in enumerate(expect):
            s.on_timeout(float(i))
            assert s.armed_rto() == pytest.approx(want)

    def test_timeout_resets_window(self):
        s = TcpSender(0, b=2)
        s.started = True
        s.cwnd = 17.0
        s.next_seq = 10
        s.on_timeout(1.0)
        assert s.cwnd == 1.0
        assert s.ssthresh == pytest.approx(8.5)
        assert s.phase == SLOW_START

    def test_timeout_with_unit_window(self):
        s = TcpSender(0, b=2)
        s.started = True
        s.cwnd = 1.0
        s.next_seq = 2
        s.on_timeout(1.0)
        assert s.cwnd == 1.0
        assert s.ssthresh == 2.0

    def test_backoff_resets_on_new_ack(self):
        s = TcpSender(0, b=2)
        s.started = True
        s.next_seq = 5
        s.on_timeout(1.0)
        s.on_timeout(5.0)
        assert s.backoff_exp == 2
        s.on_ack(3, 6.0)
        assert s.backoff_exp == 0

    def test_total_loss_recovers_via_timeout(self):
        s = TcpSender(0, b=2, initial_cwnd=2.0)
        r = TcpReceiver(b=2)
        h = PipeHarness(s, r, delay=0.25, lose_once={1, 2})
        h.run(30.0)
        assert s.timeouts >= 1
        assert r.delivered > 10   # flow recovered and kept going

    def test_no_timeout_when_acks_flow(self):
        s = steady_ca_sender(cwnd=30.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25)
        h.run(60.0)
        assert s.timeouts == 0
        assert s.rto >= s.srtt + 4 * s.rttvar - 1e-9 or s.rto == 1.0


class TestRttEstimator:
    def test_first_sample_initialization(self):
        s = TcpSender(0, b=2)
        s.started = True
        s.next_seq = 3
        s.send_time[1] = 0.0
        s.send_time[2] = 0.0
        s.on_ack(3, 0.6)
        assert s.srtt == pytest.approx(0.6)
        assert s.rttvar == pytest.approx(0.3)
        assert s.rto == pytest.approx(max(1.0, 0.6 + 4 * 0.3))

    def test_karn_no_sample_from_retransmit(self):
        s = TcpSender(0, b=2)
        s.started = True
        s.next_seq = 2
        s.send_time[1] = 0.0
        s.on_timeout(2.5)       # retransmits seq 1, discards its timestamp
        s.on_ack(2, 3.0)
        assert s.srtt is None
        assert s.rtt_n == 0

    def test_min_rto_one_second(self):
        s = TcpSender(0, b=2)
        s.started = True
        for seq in range(1, 50):
            s.next_seq = seq + 1
            s.send_time[seq] = 0.01 * seq
            s.on_ack(seq + 1, 0.01 * seq + 0.05)  # 50 ms RTTs
        assert s.rto == 1.0
