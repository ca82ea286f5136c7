"""Controlled-pipe tests for the NewReno state machine.

The harness runs a sender/receiver pair over an infinite-capacity pipe
with a fixed one-way delay and one-shot scripted drops, so window
dynamics can be checked against closed-form expectations without MAC
noise.
"""

import heapq
import itertools

import pytest

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
        self.sends = []          # (time, seq, retransmit)
        self.cwnd_log = []       # (time, cwnd) on each ack

    def _post(self, t, kind, data=None):
        heapq.heappush(self.queue, (t, next(self.counter), kind, data))

    def _do(self, acts, now):
        for a in acts:
            self.sends.append((now, a.seq, a.retransmit))
            if not a.retransmit and a.seq in self.lose_once \
                    and a.seq not in self.dropped:
                self.dropped.add(a.seq)
                continue
            self._post(now + self.delay, "seg", a.seq)
        if self.sender.timer_deadline is not None:
            self._post(self.sender.timer_deadline, "stimer")

    def run(self, duration, start=True):
        if start:
            self._do(self.sender.start(0.0), 0.0)
        while self.queue:
            t, _, kind, data = heapq.heappop(self.queue)
            if t > duration:
                break
            if kind == "seg":
                for ack in self.receiver.on_segment(data, t):
                    self._post(t + self.delay, "ack", ack)
                if self.receiver.ack_timer_deadline is not None:
                    self._post(self.receiver.ack_timer_deadline, "rtimer")
            elif kind == "rtimer":
                for ack in self.receiver.poll_timer(t):
                    self._post(t + self.delay, "ack", ack)
            elif kind == "ack":
                self._do(self.sender.on_ack(data, t), t)
                self.cwnd_log.append((t, self.sender.cwnd))
            elif kind == "stimer":
                if self.sender.timer_expired(t):
                    self._do(self.sender.on_timeout(t), t)
        return self


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
        acts = s._emit_new(0.0)
        assert [(a.seq, a.retransmit) for a in acts] == [(4, False)]

    def test_fresh_flow_emits_initial_window(self):
        s = TcpSender(0, b=2, initial_cwnd=2.0)
        acts = s.start(0.0)
        assert [a.seq for a in acts] == [1, 2]
        assert s.timer_deadline is not None


class TestDelayedAcks:
    def test_ack_every_b_segments(self):
        r = TcpReceiver(b=2)
        acks = []
        for seq in range(1, 8):           # 7 in-order segments
            acks += r.on_segment(seq, float(seq))
        assert acks == [3, 5, 7]          # every 2nd, cumulative
        acks += r.poll_timer(7.0 + 0.2)   # timer releases the odd tail
        assert acks == [3, 5, 7, 8]

    def test_out_of_order_acks_immediately(self):
        r = TcpReceiver(b=2)
        assert r.on_segment(1, 0.0) == []
        assert r.on_segment(3, 0.1) == [2]     # immediate dup
        assert r.on_segment(4, 0.2) == [2]
        assert r.on_segment(2, 0.3) == [5]     # gap fill -> immediate
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
        assert s.fr_entries == 1
        assert s.timeouts == 0
        cycle = s.cycles[0]
        assert cycle.kind == "CAFR"
        assert cycle.drop_window_w == pytest.approx(20.0, abs=0.3)
        # single-loss recovery sends W/2 - 1 fresh segments in one round
        assert cycle.fr_round_sends == [9]
        assert cycle.losses_delta == 1
        # post-exit window is half the drop window
        assert s.ssthresh == pytest.approx(10.0, abs=0.3)
        assert s.phase == CONGESTION_AVOIDANCE

    def test_double_loss_round_law(self):
        s = steady_ca_sender(cwnd=20.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5, 12})
        h.run(5.0)
        assert s.fr_entries == 1
        cycle = s.cycles[0]
        # S_k = W/2 - delta + k - 1 for k = 1, 2
        assert cycle.fr_round_sends == [8, 9]
        assert cycle.losses_delta == 2
        assert s.timeouts == 0

    def test_triple_loss_round_law(self):
        s = steady_ca_sender(cwnd=20.0)
        h = PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5, 9, 13})
        h.run(6.0)
        cycle = s.cycles[0]
        assert cycle.fr_round_sends == [7, 8, 9]
        assert cycle.losses_delta == 3

    def test_entry_needs_exactly_three_dups(self):
        s = steady_ca_sender(cwnd=20.0)
        captured = []
        orig = s._on_dup_ack

        def spy(now):
            acts = orig(now)
            if s.phase == FAST_RECOVERY and len(captured) == 0:
                captured.append(s.dup_acks)
            return acts

        s._on_dup_ack = spy
        PipeHarness(s, TcpReceiver(b=2), delay=0.25, lose_once={5}).run(3.0)
        assert captured == [3]

    def test_every_loss_retransmitted_exactly_once(self):
        s = steady_ca_sender(cwnd=20.0)
        r = TcpReceiver(b=2)
        h = PipeHarness(s, r, delay=0.25, lose_once={5, 12})
        h.run(8.0)
        retx = [seq for _, seq, is_r in h.sends if is_r]
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
        for want in expect:
            s.on_timeout(float(len(s.cycles)))
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
