import hashlib
import itertools
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crdsasim.config import MAC_STREAM, ScenarioConfig, WAVEFORM_CATALOG, make_rng
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


def peel_passes(rows, cap):
    """Decoded bursts of one block: each of at most ``cap`` passes decodes,
    all at once, every alive burst with a replica in a slot that no other
    alive burst uses."""
    alive, decoded = set(range(len(rows))), set()
    for _ in range(cap):
        holders = {}
        for i in alive:
            for s in rows[i]:
                holders.setdefault(s, []).append(i)
        newly = {hs[0] for hs in holders.values() if len(hs) == 1}
        if not newly:
            break
        decoded |= newly
        alive -= newly
    return decoded


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

    @pytest.mark.parametrize("m, n_slots, replicas, digest, next_draw", [
        (100_000, 194, 2,
         "6f294bf663645d955b93aaa2b27459ad91c9a67428bee3763d714d0efe055f4b", 1729785602),
        (100_000, 194, 3,
         "d51b51e33ad45c58aca376d80d07832cf0773e5bde6e4c05de39f97a3a5e0675", 365582386),
        (100_000, 194, 4,
         "9853902f857c8fed42c0acb7db9e235a9c7186c7343bb801bbcccf5813f8e288", 2065785131),
        (36, 64, 3,
         "5ef36a78dd3f3cb911ff4ee26248f065d21bcb5403b14bed8411b50297591795", 768793750),
    ])
    def test_draws_pinned(self, m, n_slots, replicas, digest, next_draw):
        # the placements and the MAC stream's state after the call: a
        # rejection loop that redraws good rows, or redraws in another
        # order, changes one or the other
        rng = make_rng(1, MAC_STREAM)
        out = sample_replica_slots(rng, m, n_slots, replicas)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
        assert int(rng.integers(0, 2**31)) == next_draw

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


class TestBatchOracle:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_python_peel(self, data):
        # up to 64 blocks of up to 12 bursts, empty blocks included, checked
        # block by block against a decoder that shares no code with mac
        n_slots = data.draw(st.integers(1, 10))
        reps = data.draw(st.integers(1, min(3, n_slots)))
        cap = data.draw(st.sampled_from([1, 2, 3, 20, 10**6]))
        row = st.lists(st.integers(0, n_slots - 1), min_size=reps,
                       max_size=reps, unique=True)
        blocks = data.draw(st.lists(st.lists(row, max_size=12),
                                    min_size=1, max_size=64))
        sizes = [len(rows) for rows in blocks]
        block_of_burst = np.repeat(np.arange(len(blocks)), sizes)
        slot_matrix = np.array([r for rows in blocks for r in rows],
                               dtype=np.int64).reshape(-1, reps)
        mask = _decode_batch(block_of_burst, slot_matrix, len(blocks), n_slots, cap)
        assert mask.dtype == bool and mask.shape == (sum(sizes),)
        for j, rows in enumerate(blocks):
            got = set(np.flatnonzero(mask[block_of_burst == j]).tolist())
            assert got == peel_passes(rows, cap), (rows, cap)


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

    def test_rejects_no_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            run_open_loop(make_cfg(seed=5), 0.5, 0)

    def test_blr_bounds(self):
        stats = run_open_loop(make_cfg(seed=5, n_rcst=40), 0.5, 300)
        assert 0.0 <= stats.blr <= 1.0

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


class TestFrameSize:
    @staticmethod
    def curve(n_slots, wf, mss):
        cfg = ScenarioConfig(waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss,
                             n_rcst=2 * n_slots, sim_duration_s=1.0, seed=5)
        return {g: run_open_loop(cfg, g * n_slots / cfg.n_rcst, 20_000)
                for g in (0.6, 0.7, 0.8, 0.9)}

    def test_larger_frame_decodes_more_per_slot(self):
        # CRDSA++ gains from frame size: at G = 0.7 a 194-slot frame (WF3)
        # carries more per slot than a 64-slot one (WF14)
        large = self.curve(194, 3, 23)
        small = self.curve(64, 14, 173)
        assert large[0.7].throughput_per_slot > small[0.7].throughput_per_slot
        for stats in [*large.values(), *small.values()]:
            assert stats.throughput_per_slot <= stats.g_mean
