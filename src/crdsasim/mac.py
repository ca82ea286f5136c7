"""CRDSA++ random-access MAC: replica placement and iterative SIC decoding.

A burst is one time-slot's payload; each unique burst is transmitted as
``replicas`` identical copies placed uniformly at random (without
replacement) in one RA block.  Placement rejection-resamples rows that
repeat a slot, rechecking only the rows it just redrew: the others cannot
have changed, and the redraws are the calls a recheck of every row would
make, so the MAC stream's draws do not depend on how much is rechecked.
Decoding peels singleton slots and cancels the decoded burst's replicas
everywhere, assuming power-balanced terminals (perfect cancellation, no
capture).  One vectorised decoder, :func:`_decode_batch`, serves both
loops: the open-loop driver decodes thousands of blocks per call, the
closed loop a window of the blocks sent in one one-way delay;
:func:`sic_decode` is its one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MacStats",
    "MacUsageError",
    "sic_decode",
    "sample_replica_slots",
    "run_open_loop",
    "slotted_aloha_blr",
    "DEFAULT_MAX_ITERS",
]

DEFAULT_MAX_ITERS = 20

# Blocks whose transmit decisions, placements and decoding the open-loop
# driver handles in one vectorised batch.  Placement rejection-resamples per
# batch, so this value fixes how the MAC stream is consumed: changing it
# changes the results of a seed.
OPEN_LOOP_CHUNK_BLOCKS = 4096


class MacUsageError(RuntimeError):
    """Raised on an impossible placement (more replicas than slots)."""


def sample_replica_slots(rng: np.random.Generator, m: int, n_slots: int,
                         replicas: int) -> np.ndarray:
    """Distinct replica slots for m bursts, shape (m, replicas).

    Rejection-resamples rows containing duplicate slots; with the block
    sizes in use here the duplicate probability per row is a few percent,
    so this converges in a few rounds while staying fully deterministic.
    Only the rows redrawn in a round can hold a duplicate in the next, so
    each round checks just those, with one compare per pair of columns.
    The redraws are the same calls, for the same rows in ascending order,
    as a recheck of every row would make, so the draws are unchanged.
    """
    if replicas > n_slots:
        raise MacUsageError("replicas cannot exceed slots per block")
    out = rng.integers(0, n_slots, size=(m, replicas), dtype=np.int64)
    idx = np.arange(m)                  # rows drawn in the last round
    rows = out
    while True:
        bad = np.zeros(idx.size, dtype=bool)
        for a in range(replicas):
            for b in range(a + 1, replicas):
                bad |= rows[:, a] == rows[:, b]
        idx = idx[bad]
        if not idx.size:
            return out
        rows = rng.integers(0, n_slots, size=(idx.size, replicas), dtype=np.int64)
        out[idx] = rows


@dataclass
class MacStats:
    """Open-loop MAC statistics over a batch of RA blocks: the per-block
    counts, and what follows from them."""

    slots_per_block: int
    offered_series: np.ndarray      # per-block unique burst counts
    decoded_series: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.offered_series.size

    @property
    def g_series(self) -> np.ndarray:
        """Per-block normalized offered load."""
        return self.offered_series / self.slots_per_block

    @property
    def bursts_offered(self) -> int:
        return int(self.offered_series.sum())

    @property
    def bursts_decoded(self) -> int:
        return int(self.decoded_series.sum())

    @property
    def bursts_lost(self) -> int:
        return self.bursts_offered - self.bursts_decoded

    @property
    def blr(self) -> float:
        if self.bursts_offered == 0:
            return 0.0              # tx_prob = 0 offers no burst
        return self.bursts_lost / self.bursts_offered

    @property
    def g_mean(self) -> float:
        return float(self.g_series.mean())

    @property
    def throughput_per_slot(self) -> float:
        """Decoded unique bursts per time-slot (normalized MAC throughput)."""
        return self.bursts_decoded / (self.n_blocks * self.slots_per_block)


def _decode_batch(block_of_burst: np.ndarray, slot_matrix: np.ndarray,
                  n_blocks: int, n_slots: int,
                  max_iters: int = DEFAULT_MAX_ITERS) -> np.ndarray:
    """Iterative SIC over many independent blocks at once.

    ``block_of_burst[i]`` is the block owning burst i and ``slot_matrix[i]``
    its replica slots.  Returns a boolean decoded mask.  Each pass counts
    the undecoded bursts' replicas per (block, slot), decodes every
    undecoded burst with a replica alone in its slot, and keeps only the
    rest for the next pass.  Decoding stops after ``max_iters`` passes or
    at the first pass that decodes nothing.  Blocks share no slots, so each
    block gets exactly the passes a decode of it alone would.
    """
    m = block_of_burst.shape[0]
    decoded = np.zeros(m, dtype=bool)
    keys = block_of_burst[:, None] * n_slots + slot_matrix  # (m, replicas)
    alive = np.arange(m)                 # indices of the undecoded bursts
    total = n_blocks * n_slots
    for _ in range(max_iters):
        single = np.bincount(keys.ravel(), minlength=total) == 1
        hit = single[keys]              # (alive, replicas) singleton replicas
        newly = hit[:, 0]
        for c in range(1, hit.shape[1]):
            newly = newly | hit[:, c]
        peeled = alive[newly]
        if not peeled.size:
            break
        decoded[peeled] = True
        rest = np.flatnonzero(~newly)
        keys = keys.take(rest, axis=0)  # rows; faster than keys[rest]
        alive = alive[rest]
    return decoded


def sic_decode(replica_slots, max_iters: int = DEFAULT_MAX_ITERS):
    """Iterative SIC over one block given each burst's replica slots (a
    sequence of rows or an (m, replicas) array): the one-block case of
    :func:`_decode_batch`.  Returns (decoded, lost) as sets of burst
    indices."""
    slots = np.asarray(replica_slots, dtype=np.int64)
    if slots.size == 0:
        return set(), set()
    mask = _decode_batch(np.zeros(slots.shape[0], dtype=np.int64), slots, 1,
                         int(slots.max()) + 1, max_iters)
    return set(np.flatnonzero(mask).tolist()), set(np.flatnonzero(~mask).tolist())


def run_open_loop(cfg, tx_prob: float, blocks: int) -> MacStats:
    """TCP-disabled load sweep driver: every RCST offers one burst per
    block with probability ``tx_prob``; placement and SIC follow the
    closed-loop MAC exactly.

    Transmit decisions come from each RCST's private stream and slot
    placement from the MAC stream, mirroring the closed-loop stream layout.
    """
    from crdsasim.config import MAC_STREAM, make_rng, rcst_stream

    if not 0.0 <= tx_prob <= 1.0:
        raise ValueError("tx_prob must lie in [0, 1]")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    n = cfg.slots_per_block
    n_rcst = cfg.n_rcst
    mac_rng = make_rng(cfg.seed, MAC_STREAM)
    rcst_rngs = [make_rng(cfg.seed, rcst_stream(i)) for i in range(n_rcst)]

    offered_series = np.zeros(blocks, dtype=np.int64)
    decoded_series = np.zeros(blocks, dtype=np.int64)

    done = 0
    while done < blocks:
        nb = min(OPEN_LOOP_CHUNK_BLOCKS, blocks - done)
        # (n_rcst, nb) transmit decisions, one row per private stream
        tx = np.empty((n_rcst, nb), dtype=bool)
        for i, rng in enumerate(rcst_rngs):
            tx[i] = rng.random(nb) < tx_prob
        per_block = tx.sum(axis=0)
        offered_series[done:done + nb] = per_block

        m = int(per_block.sum())
        if m:
            block_idx = np.repeat(np.arange(nb), per_block)  # bursts by block
            slots = sample_replica_slots(mac_rng, m, n, cfg.replicas)
            dec = _decode_batch(block_idx, slots, nb, n)
            decoded_series[done:done + nb] = np.bincount(
                block_idx[dec], minlength=nb
            )
        done += nb

    return MacStats(slots_per_block=n, offered_series=offered_series,
                    decoded_series=decoded_series)


def slotted_aloha_blr(n_slots: int, n_rcst: int, tx_prob: float) -> float:
    """Closed-form replicas=1 oracle: per-burst loss probability.

    With K ~ 1 + Binomial(N-1, t) transmitters in a block of n slots,
    E[1 - (1 - 1/n)^(K-1)] collapses to 1 - (1 - t/n)^(N-1).
    """
    return 1.0 - (1.0 - tx_prob / n_slots) ** (n_rcst - 1)
