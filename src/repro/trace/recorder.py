"""Per-rank interval tracing (the simulation's HPCToolkit).

Every traced activity is an interval ``(rank, category, label, t0, t1)``.
The communicator layer records ``compute`` and ``wait`` intervals
automatically when a tracer is attached; applications can add their own
phases with :meth:`Tracer.record`.  A ``compute`` interval is recorded
when its charge starts, so a crash ends the dead rank's open intervals
at the crash time (:meth:`Tracer.end_open`).

The recorder is intentionally dumb — a list of intervals — so tracing
overhead never perturbs simulated timing (virtual time only advances
through engine events).  Analysis and rendering live in
:mod:`repro.trace.timeline` and :mod:`repro.trace.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Interval:
    """One traced activity on one rank."""

    rank: int
    category: str   # "compute" | "wait" | "io" | application-defined
    label: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Interval store with cheap filters."""

    def __init__(self):
        self.intervals: List[Interval] = []

    def record(self, rank: int, category: str, label: str,
               t0: float, t1: float) -> None:
        """Record one interval; no-op when zero-length."""
        if t1 <= t0:
            return
        self.intervals.append(Interval(rank, category, label, t0, t1))

    def end_open(self, rank: int, t: float) -> None:
        """End ``rank``'s intervals still open at ``t`` at ``t`` (a rank
        killed mid-charge stops computing when it dies); one that would
        become zero-length is dropped, as :meth:`record` drops it."""
        intervals = self.intervals
        for i in range(len(intervals) - 1, -1, -1):
            iv = intervals[i]
            if iv.rank == rank and iv.t1 > t:
                if iv.t0 < t:
                    intervals[i] = Interval(rank, iv.category, iv.label,
                                            iv.t0, t)
                else:
                    del intervals[i]

    def for_rank(self, rank: int) -> List[Interval]:
        return [iv for iv in self.intervals if iv.rank == rank]

    def by_category(self, category: str) -> List[Interval]:
        return [iv for iv in self.intervals if iv.category == category]

    def by_label(self, label: str) -> List[Interval]:
        return [iv for iv in self.intervals if iv.label == label]

    def ranks(self) -> List[int]:
        return sorted({iv.rank for iv in self.intervals})

    def span(self) -> Tuple[float, float]:
        """(earliest start, latest end) across all intervals."""
        if not self.intervals:
            return (0.0, 0.0)
        return (
            min(iv.t0 for iv in self.intervals),
            max(iv.t1 for iv in self.intervals),
        )

    def total_time(self, rank: Optional[int] = None,
                   category: Optional[str] = None,
                   label: Optional[str] = None) -> float:
        """Summed duration of intervals matching all given filters."""
        total = 0.0
        for iv in self.intervals:
            if rank is not None and iv.rank != rank:
                continue
            if category is not None and iv.category != category:
                continue
            if label is not None and iv.label != label:
                continue
            total += iv.duration
        return total

    def category_breakdown(self, rank: Optional[int] = None
                           ) -> Dict[str, float]:
        """Total duration per category (optionally one rank)."""
        out: Dict[str, float] = {}
        for iv in self.intervals:
            if rank is not None and iv.rank != rank:
                continue
            out[iv.category] = out.get(iv.category, 0.0) + iv.duration
        return out

    def to_records(self) -> List[dict]:
        """Plain-dict export (JSON-serializable)."""
        return [
            {"rank": iv.rank, "category": iv.category, "label": iv.label,
             "t0": iv.t0, "t1": iv.t1}
            for iv in self.intervals
        ]


def merge_intervals(spans: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping (t0, t1) spans, sorted and merged.

    Shared by the overlap metrics: the *busy time* of a rank or group is
    the measure of the union of its intervals, not the sum (concurrent
    activities must not double-count).
    """
    spans = sorted((s for s in spans if s[1] > s[0]), key=lambda s: s[0])
    out: List[Tuple[float, float]] = []
    for t0, t1 in spans:
        if out and t0 <= out[-1][1]:
            if t1 > out[-1][1]:
                out[-1] = (out[-1][0], t1)
        else:
            out.append((t0, t1))
    return out


def measure(spans: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of spans."""
    return sum(t1 - t0 for t0, t1 in merge_intervals(spans))
