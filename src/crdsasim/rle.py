"""Return Link Encapsulation adaptation.

Packs queued TCP segments into fixed-size burst payloads (whole segments,
fragments, or several small segments per burst).  A queued segment
incarnation is one ``SegmentRef`` from admission to the gateway: a burst
is the list of segments it touched, and only the queue's cursor records
how much of a partly sent segment is out.  Every segment of a queue has
the queue's ``seg_bytes`` on air.  Byte amounts are kept as floats
because the effective burst payload is calibrated in fractional segment
units (see config.DEFAULT_RLE_PAYLOAD).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["SegmentRef", "TxQueue", "pack_next_burst"]

_EPS = 1e-9


@dataclass(slots=True)
class SegmentRef:
    """One TCP segment incarnation as seen by the MAC queue."""

    seg_seq: int
    retransmit: bool = False    # a resend of seg_seq, not its first copy
    lost: bool = False          # a burst carrying part of it failed SIC


@dataclass(slots=True)
class TxQueue:
    """Per-RCST FIFO of segments awaiting MAC transmission."""

    seg_bytes: float            # MSS + per-segment overhead, every segment
    capacity_segments: int = 10000
    pending: deque = field(default_factory=deque)   # never packed, in order
    cursor_seg: SegmentRef | None = None   # in-progress fragmented segment
    cursor_sent: float = 0.0
    overflow_drops: int = 0

    def __len__(self):
        return len(self.pending) + (1 if self.cursor_seg is not None else 0)

    def has_data(self) -> bool:
        return self.cursor_seg is not None or bool(self.pending)

    def admit(self, seqs, first_new: int) -> bool:
        """Queue a sender's batch in order, one new segment incarnation per
        seq; the seqs below ``first_new`` are resends.

        A resend of a seq that still has a copy in ``pending`` is a no-op:
        that copy goes out in admission order.  Once ``pending`` holds
        ``capacity_segments``, the rest are tail-dropped and counted.
        Returns whether a segment went in.
        """
        pending = self.pending
        room = free = self.capacity_segments - len(pending)
        for seq in seqs:
            retransmit = seq < first_new
            if retransmit and any(s.seg_seq == seq for s in pending):
                continue
            if room > 0:
                pending.append(SegmentRef(seq, retransmit))
                room -= 1
            else:
                self.overflow_drops += 1
        return room < free


def pack_next_burst(q: TxQueue, payload_bytes: float,
                    max_distinct: int | None = None) -> list[SegmentRef] | None:
    """Greedily fill one burst payload from the queue.

    Resumes any in-progress fragment first, then takes whole or partial
    segments in FIFO order until the payload is exhausted, the queue
    empties, or ``max_distinct`` distinct segments have been touched.
    Returns the segments touched, in order, or None when there is nothing
    to send.  All of them are finished except perhaps the last, which is
    then ``q.cursor_seg``.
    """
    pending = q.pending
    seg_bytes = q.seg_bytes
    seg = q.cursor_seg
    if seg is None:
        if not pending:
            return None
        touched = []
        budget = payload_bytes
    else:
        touched = [seg]
        remaining = seg_bytes - q.cursor_sent
        take = min(remaining, payload_bytes)
        if take < remaining - _EPS:
            q.cursor_sent += take
            return touched
        budget = payload_bytes - take
        q.cursor_seg = None
        q.cursor_sent = 0.0

    while pending and budget > _EPS:
        if max_distinct is not None and len(touched) >= max_distinct:
            break
        seg = pending.popleft()
        touched.append(seg)
        take = min(seg_bytes, budget)
        budget -= take
        if take < seg_bytes - _EPS:
            q.cursor_seg = seg
            q.cursor_sent = take
            break

    return touched
