import itertools
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crdsasim.config import ScenarioConfig, WAVEFORM_CATALOG, make_rng
from crdsasim.mac import (
    MacUsageError,
    _decode_batch,
    run_open_loop,
    sample_replica_slots,
    sic_decode,
    slotted_aloha_blr,
)


Z_99 = NormalDist().inv_cdf(0.995)


def make_cfg(**kw):
    kw.setdefault("n_rcst", 50)
    kw.setdefault("mss_bytes", 173)
    return ScenarioConfig(waveform=WAVEFORM_CATALOG[14], **kw)


def stopping_set_losses(rows):
    """Bursts of one block that no SIC can decode: the union of every burst
    set in which each slot touched by the set holds at least two of its
    members (a stopping set).  Peeling never starts on such a set and,
    uncapped, decodes every burst outside their union."""
    lost = set()
    for size in range(2, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            touched = [s for i in subset for s in rows[i]]
            if all(touched.count(s) >= 2 for s in touched):
                lost.update(subset)
    return lost


def exact_loss_probability(m, n_slots, replicas):
    """Per-burst loss probability of m bursts in one block, enumerated over
    every placement; each burst's replica slot set is uniform over the
    combinations of ``replicas`` distinct slots."""
    choices = list(itertools.combinations(range(n_slots), replicas))
    lost = sum(len(stopping_set_losses(rows))
               for rows in itertools.product(choices, repeat=m))
    return Fraction(lost, m * len(choices) ** m)


class TestPlacement:
    def test_three_distinct_slots_in_range(self):
        slots = sample_replica_slots(make_rng(1, 0), 1, 64, 3)[0].tolist()
        assert len(set(slots)) == 3
        assert all(0 <= s < 64 for s in slots)

    def test_single_replica_degenerate(self):
        rows = sample_replica_slots(make_rng(1, 0), 1, 64, 1)
        assert rows.shape == (1, 1)

    def test_same_rng_state_same_placement(self):
        for _ in range(5):
            a = sample_replica_slots(make_rng(9, 3), 1, 64, 3)
            b = sample_replica_slots(make_rng(9, 3), 1, 64, 3)
            assert (a == b).all()

    def test_more_replicas_than_slots_rejected(self):
        with pytest.raises(MacUsageError):
            sample_replica_slots(make_rng(1, 0), 1, 2, 3)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_batch_rows_always_distinct(self, seed, replicas):
        rng = make_rng(seed, 0)
        rows = sample_replica_slots(rng, 200, 16, replicas)
        assert rows.shape == (200, replicas)
        for row in rows:
            assert len(set(row.tolist())) == replicas


class TestSicDecode:
    def test_single_burst_decodes(self):
        decoded, lost = sic_decode([(2, 5, 7)])
        assert decoded == {0} and lost == set()

    def test_slotted_aloha_collision_both_lost(self):
        decoded, lost = sic_decode([(3,), (3,)])
        assert decoded == set() and lost == {0, 1}

    def test_sic_resolves_shared_slot(self):
        # Hand-executed: burst A in {0,1}, burst B in {1,2}.  Slot 0 and
        # slot 2 are singletons, so both decode on the first pass; the
        # shared slot 1 never blocks either.
        decoded, lost = sic_decode([(0, 1), (1, 2)])
        assert decoded == {0, 1} and lost == set()

    def test_chain_peeling_needs_iterations(self):
        # A:{0,1} B:{1,2} C:{2,3}: only slot 0 and slot 3 start clean;
        # decoding A frees slot 1 which is B's, etc.
        decoded, lost = sic_decode([(0, 1), (1, 2), (2, 3)])
        assert decoded == {0, 1, 2} and lost == set()

    def test_stuck_clique_lost(self):
        decoded, lost = sic_decode([(0, 1), (0, 1)])
        assert decoded == set() and lost == {0, 1}

    def test_max_iters_monotone(self):
        chain = [(i, i + 1) for i in range(30)]
        prev = set()
        for iters in range(1, 32):
            decoded, _ = sic_decode(chain, max_iters=iters)
            assert decoded >= prev
            prev = decoded
        assert prev == set(range(30))

    def test_decode_deterministic_pure(self):
        rng = make_rng(3, 0)
        rows = [tuple(r) for r in sample_replica_slots(rng, 40, 64, 3).tolist()]
        a = sic_decode(rows)
        b = sic_decode(list(reversed(rows)))
        # relabel the reversed instance back
        m = len(rows)
        b_decoded = {m - 1 - i for i in b[0]}
        assert a[0] == b_decoded

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, data):
        # k blocks decoded in one batch call agree, block by block, with k
        # one-block calls at the same cap
        n_slots = data.draw(st.integers(2, 20))
        reps = data.draw(st.integers(1, min(3, n_slots)))
        k = data.draw(st.integers(1, 4))
        cap = data.draw(st.sampled_from([1, 2, 20]))
        rng = make_rng(data.draw(st.integers(0, 2**31 - 1)), 0)
        blocks = [sample_replica_slots(rng, data.draw(st.integers(0, 30)), n_slots, reps)
                  for _ in range(k)]
        block_of_burst = np.repeat(np.arange(k), [len(rows) for rows in blocks])
        mask = _decode_batch(block_of_burst, np.concatenate(blocks), k, n_slots, cap)
        for j, rows in enumerate(blocks):
            decoded, lost = sic_decode(rows.tolist(), cap)
            assert decoded | lost == set(range(len(rows)))
            assert decoded & lost == set()
            assert decoded == set(np.flatnonzero(mask[block_of_burst == j]).tolist())


class TestExactOracle:
    def test_two_bursts_lost_only_on_the_same_slots(self):
        for replicas in (2, 3):
            assert exact_loss_probability(1, 5, replicas) == 0
            assert exact_loss_probability(2, 5, replicas) == Fraction(1, 10)

    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_open_loop_matches_enumeration(self, m, replicas):
        # every terminal transmits, so each block holds m bursts and the
        # per-block lost counts are i.i.d. samples
        cfg = make_cfg(seed=1, n_rcst=m, replicas=replicas, slots_per_block=5)
        stats = run_open_loop(cfg, 1.0, 20000)
        lost = (stats.offered_series - stats.decoded_series) / m
        half_width = Z_99 * lost.std(ddof=1) / math.sqrt(lost.size)
        exact = float(exact_loss_probability(m, 5, replicas))
        assert abs(lost.mean() - exact) <= half_width


class TestOpenLoop:
    def test_zero_tx_prob_zero_sample(self):
        stats = run_open_loop(make_cfg(seed=5), 0.0, 50)
        assert stats.bursts_offered == 0
        assert stats.blr == 0.0
        assert stats.g_mean == 0.0

    def test_blr_bounds_and_lambda(self):
        stats = run_open_loop(make_cfg(seed=5, n_rcst=40), 0.5, 300)
        assert 0.0 <= stats.blr <= 1.0
        assert stats.load_per_rcst == pytest.approx(stats.g_mean / 40)

    def test_deterministic(self):
        a = run_open_loop(make_cfg(seed=11), 0.4, 200)
        b = run_open_loop(make_cfg(seed=11), 0.4, 200)
        assert a.bursts_offered == b.bursts_offered
        assert a.bursts_decoded == b.bursts_decoded
        assert (a.g_series == b.g_series).all()

    def test_batch_matches_per_block_decode(self):
        # same placements pushed through the scalar SIC must agree with the
        # batched open-loop decode; reconstruct by replaying the streams
        cfg = make_cfg(seed=21, n_rcst=30, replicas=3)
        blocks = 40
        stats = run_open_loop(cfg, 0.8, blocks)
        from crdsasim.config import MAC_STREAM, rcst_stream

        mac_rng = make_rng(cfg.seed, MAC_STREAM)
        rngs = [make_rng(cfg.seed, rcst_stream(i)) for i in range(30)]
        tx = np.array([r.random(blocks) < 0.8 for r in rngs])
        rcst_idx, block_idx = np.nonzero(tx)
        order = np.argsort(block_idx, kind="stable")
        block_idx = block_idx[order]
        rows = sample_replica_slots(mac_rng, len(block_idx), 64, 3)
        decoded_total = 0
        for b in range(blocks):
            mask = block_idx == b
            decoded, _ = sic_decode([tuple(r) for r in rows[mask].tolist()])
            decoded_total += len(decoded)
        assert decoded_total == stats.bursts_decoded

    def test_aloha_oracle_deterministic_all_tx(self):
        # replicas=1, everyone transmits: blr = 1 - (1 - 1/n)^(N-1)
        cfg = make_cfg(seed=3, n_rcst=50, replicas=1, slots_per_block=100)
        stats = run_open_loop(cfg, 1.0, 4000)
        oracle = slotted_aloha_blr(100, 50, 1.0)
        assert oracle == pytest.approx(0.38851, abs=5e-4)
        sigma = math.sqrt(oracle * (1 - oracle) / stats.bursts_offered)
        # correlated within blocks; allow a generous multiple
        assert abs(stats.blr - oracle) < 6 * sigma

    def test_blr_nondecreasing_in_population(self):
        # statistical: more terminals at fixed tx_prob cannot reduce loss
        blrs = []
        for n_rcst in (10, 30, 60):
            cfg = make_cfg(seed=17, n_rcst=n_rcst, replicas=1, slots_per_block=50)
            blrs.append(run_open_loop(cfg, 0.5, 3000).blr)
        assert blrs[0] < blrs[1] < blrs[2]
