"""Stream statistics.

Tracks the quantities the paper's performance model (Eq. 4) is written
in: number of elements (D/S), bytes moved (D), injection overhead paid
(D/S * o), and the consumer-side service pattern (how bursty arrivals
were, how long the consumer sat idle between elements) — the latter is
the measurable trace of "evenly distributed data flow" vs "bursty
communication" (Section II-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class StreamProfile:
    """Per-rank statistics for one stream."""

    elements_sent: int = 0
    elements_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    overhead_paid: float = 0.0        # injection overhead, seconds
    terminates_seen: int = 0
    arrival_times: List[float] = field(default_factory=list)
    service_start: float = 0.0
    service_end: float = 0.0
    # recovery accounting (repro.faults) — repr=False keeps fault-free
    # result digests (which hash record reprs) byte-identical
    checkpoints: int = field(default=0, repr=False)
    acked_elements: int = field(default=0, repr=False)
    replayed_elements: int = field(default=0, repr=False)
    recoveries: int = field(default=0, repr=False)
    adopted_producers: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    def record_recv(self, nbytes: int, when: float) -> None:
        self.elements_received += 1
        self.bytes_received += nbytes
        self.arrival_times.append(when)

    # ------------------------------------------------------------------
    def arrival_cv(self) -> float:
        """Coefficient of variation of interarrival gaps.

        ~0 for a perfectly even flow, large for bursty arrivals; this is
        the quantitative form of the paper's network-utilization claim.
        """
        ts = self.arrival_times
        if len(ts) < 3:
            return 0.0
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        mean = sum(gaps) / len(gaps)
        if mean <= 0:
            return 0.0
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        return (var ** 0.5) / mean

    def summary(self) -> dict:
        out = {
            "elements_sent": self.elements_sent,
            "elements_received": self.elements_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "overhead_paid": self.overhead_paid,
            "arrival_cv": self.arrival_cv(),
        }
        # recovery keys only appear when something recovery-related
        # happened, so fault-free summaries stay byte-identical
        if self.checkpoints or self.recoveries or self.replayed_elements:
            out["checkpoints"] = self.checkpoints
            out["acked_elements"] = self.acked_elements
            out["replayed_elements"] = self.replayed_elements
            out["recoveries"] = self.recoveries
            out["adopted_producers"] = self.adopted_producers
        return out
