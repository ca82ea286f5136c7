"""Tests of the benchmark's reference decoder and of its agreement with the
program's decoders.  Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from crdsasim.mac import sic_decode, slotted_aloha_blr

from reference import open_loop_estimate, peel, undecodable_by_stopping_sets
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("rows, cap, decoded", [
    ([], None, set()),
    ([(0, 1, 2)], None, {0}),
    # two bursts on the same three slots: a stopping set
    ([(0, 1, 2), (0, 1, 2)], None, set()),
    # each burst has a slot of its own: both decode in the first iteration
    ([(0, 1, 2), (0, 1, 3)], None, {0, 1}),
    # slot 4 frees burst 2; cancelling it frees slots 2 and 3 for 0 and 1
    ([(0, 1, 2), (0, 1, 3), (2, 3, 4)], None, {0, 1, 2}),
    ([(0, 1, 2), (0, 1, 3), (2, 3, 4)], 1, {2}),
    # a chain: 0 in iteration 1, 1 in iteration 2, then {2, 3} is stuck
    ([(0, 1), (1, 2), (2, 3), (2, 3)], None, {0, 1}),
    ([(0, 1), (1, 2), (2, 3), (2, 3)], 1, {0}),
    ([(0, 1), (1, 2), (2, 3), (2, 3)], 2, {0, 1}),
])
def test_hand_worked_blocks(rows, cap, decoded):
    assert peel(rows, cap) == decoded
    assert sic_decode([list(r) for r in rows], 10**6 if cap is None else cap)[0] == decoded


@pytest.mark.parametrize("replicas", [2, 3])
def test_exhaustive_tiny_frames(replicas):
    """Every placement of up to 4 bursts in 5 slots: uncapped peeling loses
    exactly the union of stopping sets, and sic_decode agrees with the
    reference at every cap."""
    choices = list(itertools.combinations(range(5), replicas))
    for m in range(1, 5):
        for rows in itertools.product(choices, repeat=m):
            lost = undecodable_by_stopping_sets(rows)
            full = peel(rows)
            assert full == set(range(m)) - lost, rows
            for cap in (1, 2, 10**6):
                assert sic_decode([list(r) for r in rows], cap)[0] == peel(rows, cap), (rows, cap)


@pytest.mark.parametrize("n_slots, n_rcst, tx", [(3, 3, 0.5), (4, 3, 0.3), (2, 4, 0.7)])
def test_single_replica_matches_slotted_aloha(n_slots, n_rcst, tx):
    """Exact enumeration at replicas=1: expected lost over expected offered
    bursts is the per-burst loss probability of the closed form."""
    t = Fraction(tx).limit_denominator(1000)
    options = [None] + list(range(n_slots))   # silent, or the slot chosen
    lost = offered = Fraction(0)
    for choice in itertools.product(options, repeat=n_rcst):
        prob = Fraction(1)
        for c in choice:
            prob *= (1 - t) if c is None else t / n_slots
        rows = [(c,) for c in choice if c is not None]
        offered += prob * len(rows)
        lost += prob * (len(rows) - len(peel(rows)))
    assert math.isclose(float(lost / offered), slotted_aloha_blr(n_slots, n_rcst, tx),
                        rel_tol=1e-12)


def test_open_loop_estimate_is_seeded():
    a = open_loop_estimate(16, 10, 0.5, 3, 50, 7, 20)
    assert a == open_loop_estimate(16, 10, 0.5, 3, 50, 7, 20)
    assert all(0 <= d <= o <= 10 for o, d in zip(*a))


def test_benchmark_json_lists_the_metrics_the_runs_print():
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
