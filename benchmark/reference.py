"""Computations made apart from crdsasim, for the benchmark's checks.

Nothing here imports the simulator: the peeling decoder, the stopping-set
characterisation and the open-loop estimate are written from the CRDSA++
definitions alone, so agreement with ``crdsasim.mac`` is evidence and not
a tautology.
"""

from __future__ import annotations

import itertools
import random


def peel(replica_slots, max_iters=None):
    """Decoded burst indices of one block under iterative SIC.

    ``replica_slots[i]`` lists the slots holding burst i's replicas.  Each
    iteration recounts slot occupancy over the bursts still undecoded and
    decodes, all at once, every burst with a replica alone in its slot;
    cancelling them is what the next recount sees.  ``max_iters`` caps the
    number of iterations that decode something; ``None`` runs to the fixed
    point.
    """
    alive = list(range(len(replica_slots)))
    decoded = set()
    iters = 0
    while alive and (max_iters is None or iters < max_iters):
        count = {}
        for i in alive:
            for s in replica_slots[i]:
                count[s] = count.get(s, 0) + 1
        newly = [i for i in alive if any(count[s] == 1 for s in replica_slots[i])]
        if not newly:
            break
        iters += 1
        decoded.update(newly)
        alive = [i for i in alive if i not in decoded]
    return decoded


def undecodable_by_stopping_sets(replica_slots):
    """Bursts no amount of peeling can decode, by brute force.

    A stopping set is a set of bursts in which every slot any of them
    touches holds at least two of them; peeling can never start on it.
    The union of all stopping sets is itself one, and uncapped peeling
    loses exactly that union.  Exponential in the burst count, so only
    for tiny blocks.
    """
    m = len(replica_slots)
    lost = set()
    for size in range(2, m + 1):
        for subset in itertools.combinations(range(m), size):
            count = {}
            for i in subset:
                for s in replica_slots[i]:
                    count[s] = count.get(s, 0) + 1
            if all(c >= 2 for c in count.values()):
                lost.update(subset)
    return lost


def open_loop_estimate(n_slots, n_rcst, tx_prob, replicas, blocks, seed,
                       max_iters):
    """Offered and decoded bursts per block of an open-loop CRDSA++ link.

    Every terminal transmits in a block with probability ``tx_prob``; each
    burst's replicas go to distinct slots drawn uniformly.  Drawn with
    Python's own generator, independent of numpy and of the simulator's
    stream layout.
    """
    rng = random.Random(seed)
    slots = range(n_slots)
    offered, decoded = [], []
    for _ in range(blocks):
        k = sum(1 for _ in range(n_rcst) if rng.random() < tx_prob)
        rows = [rng.sample(slots, replicas) for _ in range(k)]
        offered.append(k)
        decoded.append(len(peel(rows, max_iters)))
    return offered, decoded
