"""Return Link Encapsulation adaptation.

Packs queued TCP segments into fixed-size burst payloads (whole segments,
fragments, or several small segments per burst).  Byte amounts are kept as
floats because the effective burst payload is calibrated in fractional
segment units (see config.DEFAULT_RLE_PAYLOAD).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["SegmentRef", "BurstSlice", "TxQueue", "pack_next_burst"]

_EPS = 1e-9


@dataclass(slots=True)
class SegmentRef:
    """One TCP segment incarnation as seen by the MAC queue."""

    seg_seq: int
    bytes_total: float          # MSS + per-segment overhead
    retransmit: bool = False    # a resend of seg_seq, not its first copy
    lost: bool = False          # a burst carrying part of it failed SIC


@dataclass(slots=True)
class BurstSlice:
    """A (possibly partial) segment's share of one burst payload."""

    seg: SegmentRef
    bytes_in_burst: float
    is_final_fragment: bool


@dataclass(slots=True)
class TxQueue:
    """Per-RCST FIFO of segments awaiting MAC transmission."""

    capacity_segments: int = 10000
    pending: deque = field(default_factory=deque)
    cursor_seg: SegmentRef | None = None   # in-progress fragmented segment
    cursor_sent: float = 0.0
    overflow_drops: int = 0

    def __len__(self):
        return len(self.pending) + (1 if self.cursor_seg is not None else 0)

    def has_data(self) -> bool:
        return self.cursor_seg is not None or bool(self.pending)

    def push(self, seg: SegmentRef) -> bool:
        """Append a segment; tail-drops (and counts) on overflow."""
        if len(self.pending) >= self.capacity_segments:
            self.overflow_drops += 1
            return False
        self.pending.append(seg)
        return True


def pack_next_burst(q: TxQueue, payload_bytes: float,
                    max_distinct: int | None = None) -> list[BurstSlice] | None:
    """Greedily fill one burst payload from the queue.

    Resumes any in-progress fragment first, then takes whole or partial
    segments in FIFO order until the payload is exhausted, the queue
    empties, or ``max_distinct`` distinct segments have been touched.
    Returns None when there is nothing to send.
    """
    if not q.has_data():
        return None
    budget = payload_bytes
    slices: list[BurstSlice] = []

    if q.cursor_seg is not None:
        seg = q.cursor_seg
        remaining = seg.bytes_total - q.cursor_sent
        take = min(remaining, budget)
        final = take >= remaining - _EPS
        slices.append(BurstSlice(seg, take, final))
        budget -= take
        if final:
            q.cursor_seg = None
            q.cursor_sent = 0.0
        else:
            q.cursor_sent += take

    while q.pending and budget > _EPS:
        if max_distinct is not None and len(slices) >= max_distinct:
            break
        seg = q.pending[0]
        take = min(seg.bytes_total, budget)
        final = take >= seg.bytes_total - _EPS
        slices.append(BurstSlice(seg, take, final))
        budget -= take
        q.pending.popleft()
        if not final:
            q.cursor_seg = seg
            q.cursor_sent = take
            break

    return slices
