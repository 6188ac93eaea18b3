"""Query, export and render the outcome of a study run.

A :class:`ResultSet` holds one :class:`JobResult` per job, in the
study's deterministic job order, and answers the questions figures and
tests actually ask: ``rs.series(label)`` (one figure line as a
:class:`~repro.bench.harness.Series`), ``rs.ratio(a, b)`` (point-wise
ratio of two lines), ``rs.table()`` (the paper-style text table),
``rs.to_json()`` / ``rs.to_csv()`` (artifacts), plus the
``executed`` / ``cached`` accounting the cache-gating CI job asserts
on.

*Failure is data*: a :class:`JobResult` carries ``status`` (``"ok"``,
``"failed"``, ``"timeout"``, ``"quarantined"``), the ``error`` text and
the ``attempts`` count (2 only for a cell that a pool break made the
runner re-run alone), and a partially-failed study
renders honestly — failed cells are blank in ``table()``, carry an
empty value and their status in ``to_csv()``, surface in
``to_json()``, and ``Series.value`` names the failure instead of
pretending the point was never swept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from .study import Study, StudyError

# NOTE: Series/render_table are imported lazily inside methods —
# repro.bench.figures runs studies, so a module-level import back into
# repro.bench would be circular.

__all__ = ["FAILURE_STATUSES", "JobResult", "ResultSet", "STATUSES"]

#: every status a JobResult may carry ("ok" first)
STATUSES = ("ok", "failed", "timeout", "quarantined")

#: the statuses that mean "this cell has no value"
FAILURE_STATUSES = ("failed", "timeout", "quarantined")


@dataclass
class JobResult:
    """Outcome of one job: the extracted y-value plus sim accounting —
    or, for a cell that did not produce one, its failure record."""

    job: Dict[str, Any]
    value: Optional[float]
    sim: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    #: "ok" | "failed" | "timeout" | "quarantined"
    status: str = "ok"
    #: the final attempt's error text (None when ok)
    error: Optional[str] = None
    #: how many times the cell was started (pool breaks re-run cells)
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise StudyError(
                f"job result status must be one of {list(STATUSES)}, "
                f"got {self.status!r}")
        if self.status == "ok" and self.value is None:
            raise StudyError(
                f"ok job result for {self.job.get('series')!r} at "
                f"P={self.job.get('x')} has no value")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def series(self) -> str:
        return self.job["series"]

    @property
    def x(self) -> int:
        return self.job["x"]

    def describe_failure(self) -> str:
        """One line naming why this cell has no value."""
        return f"{self.status}: {self.error or 'no error recorded'}"


class ResultSet:
    """All results of one study run, queryable by series label."""

    def __init__(self, study: Study, results: Iterable[JobResult]):
        self.study = study
        self.results: List[JobResult] = list(results)
        self._by_label: Dict[str, Dict[int, JobResult]] = {}
        for r in self.results:
            self._by_label.setdefault(r.series, {})[r.x] = r

    # ------------------------------------------------------------------
    # accounting (the cache-gating CI job asserts on these)
    # ------------------------------------------------------------------
    @property
    def executed(self) -> int:
        """Jobs that actually ran simulation attempts this time
        (successful or not); zero on a fully cached warm rerun."""
        return sum(1 for r in self.results if not r.cached)

    @property
    def cached(self) -> int:
        """Jobs served from the result cache, without simulation work."""
        return sum(1 for r in self.results if r.cached)

    @property
    def ok(self) -> int:
        """Jobs that produced a value."""
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        """Jobs that failed or timed out."""
        return sum(1 for r in self.results
                   if r.status in ("failed", "timeout"))

    @property
    def quarantined(self) -> int:
        """Jobs benched after breaking the worker pool on their own."""
        return sum(1 for r in self.results if r.status == "quarantined")

    @property
    def complete(self) -> bool:
        """True when every cell produced a value."""
        return self.ok == len(self.results)

    def failures(self) -> List[JobResult]:
        """The non-ok results, in job order."""
        return [r for r in self.results if not r.ok]

    def __len__(self) -> int:
        return len(self.results)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def labels(self) -> List[str]:
        """Series labels in job order."""
        return list(self._by_label)

    def series(self, label: str):
        """One figure line as a harness
        :class:`~repro.bench.harness.Series`.

        Failed points become *holes*: absent from ``points``, recorded
        in the series' ``missing`` map so ``Series.value`` can name the
        failure instead of claiming the point was never swept.
        """
        from ..bench.harness import Series

        points = self._by_label.get(label)
        if points is None:
            raise StudyError(
                f"study {self.study.name!r} has no series {label!r}; "
                f"available: {self.labels()}")
        meta = dict(next(iter(points.values())).job.get("meta", {}))
        return Series(label,
                      points={x: r.value for x, r in points.items()
                              if r.ok},
                      meta=meta,
                      missing={x: r.describe_failure()
                               for x, r in points.items() if not r.ok})

    def to_series(self) -> List[Any]:
        """Every line, in declaration/expansion order — what the
        figure and table code consumes directly."""
        return [self.series(label) for label in self.labels()]

    def value(self, label: str, x: int) -> float:
        return self.series(label).value(x)

    def ratio(self, num_label: str, den_label: str):
        """Point-wise ``num / den`` over their common x values."""
        from ..bench.harness import Series

        num, den = self.series(num_label), self.series(den_label)
        common = [x for x in num.xs if x in den.points]
        if not common:
            raise StudyError(
                f"series {num_label!r} and {den_label!r} share no points")
        return Series(f"{num_label} / {den_label}",
                      points={x: num.points[x] / den.points[x]
                              for x in common})

    # ------------------------------------------------------------------
    # rendering / export
    # ------------------------------------------------------------------
    def table(self, title: Optional[str] = None) -> str:
        """The paper-style text table; failed cells render blank and
        are itemized in a footer, so a partial study never reads as a
        complete one."""
        from ..bench.harness import render_table

        out = render_table(title or self.study.title, self.to_series(),
                           unit=self.study.unit)
        holes = self.failures()
        if holes:
            lines = [out, f"{len(holes)} cell(s) without a value:"]
            for r in holes:
                lines.append(f"  {r.series} @ P={r.x}: "
                             f"{r.describe_failure()}")
            out = "\n".join(lines)
        return out

    def to_json(self) -> Dict[str, Any]:
        return {
            "study": self.study.to_json(),
            "results": [
                {"job": r.job, "value": r.value, "sim": r.sim,
                 "cached": r.cached, "status": r.status,
                 "error": r.error, "attempts": r.attempts}
                for r in self.results
            ],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ResultSet":
        study = Study.from_json(data["study"])
        results = [JobResult(job=r["job"], value=r["value"],
                             sim=r.get("sim", {}),
                             cached=bool(r.get("cached", False)),
                             status=r.get("status", "ok"),
                             error=r.get("error"),
                             attempts=int(r.get("attempts", 1)))
                   for r in data["results"]]
        return cls(study, results)

    def to_csv(self) -> str:
        """Flat CSV: one row per job (study, series, x, value, cached,
        status); a failed cell's value field is empty, not invented."""
        lines = ["study,series,x,value,cached,status"]
        for r in self.results:
            label = r.series.replace('"', '""')
            value = repr(r.value) if r.ok else ""
            lines.append(f'{self.study.name},"{label}",{r.x},'
                         f'{value},{int(r.cached)},{r.status}')
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ResultSet({self.study.name!r}, jobs={len(self)}, "
                f"executed={self.executed}, cached={self.cached}, "
                f"failed={self.failed}, quarantined={self.quarantined})")
