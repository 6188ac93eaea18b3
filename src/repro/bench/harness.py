"""Experiment harness: series, tables, artifacts.

The benchmark files under ``benchmarks/`` are thin: they call a figure
function from :mod:`repro.bench.figures`, print the same rows the paper
plots, persist a JSON artifact, and assert the *shape* claims
(who wins, how the gap moves with P) — never absolute numbers.

Experiment *execution* lives in :mod:`repro.study` since the study
redesign: figures are :class:`~repro.study.study.Study` declarations
run by :func:`~repro.study.runner.run_study` (parallel, cached).
This module keeps the presentation pieces — :class:`Series`, tables,
artifacts.  (The deprecated ``sweep`` / ``Series.ratio_to`` shims were
removed one PR cycle after their deprecation.)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: the paper's x-axis is 32..8192 doubling; we sweep the same range with
#: x4 steps to keep the full suite tractable (shape is preserved)
DEFAULT_POINTS = (32, 128, 512, 2048, 8192)


def scale_points() -> List[int]:
    """Sweep points, overridable via ``REPRO_POINTS=32,64,...``.

    Validation goes through :mod:`repro.envcfg`: a malformed value
    raises :class:`~repro.envcfg.EnvVarError` naming the variable and
    quoting the offending string (the ``$REPRO_STUDY_JOBS`` contract).
    """
    from ..envcfg import env_int_list
    pts = env_int_list("REPRO_POINTS",
                       what="comma-separated list of process counts")
    if pts is None:
        return list(DEFAULT_POINTS)
    return sorted(set(pts))


@dataclass
class Series:
    """One line of a figure: label -> {nprocs: seconds}.

    ``missing`` records points that were *swept but produced no value*
    (a failed/timed-out/quarantined study cell) as ``{p: reason}`` —
    they render as holes, and :meth:`value` names the failure instead
    of pretending the point was never asked for.
    """

    label: str
    points: Dict[int, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    missing: Dict[int, str] = field(default_factory=dict)

    def value(self, p: int) -> float:
        try:
            return self.points[p]
        except KeyError:
            if p in self.missing:
                raise KeyError(
                    f"series {self.label!r} has no value at P={p} — "
                    f"the job produced none ({self.missing[p]}); "
                    f"process counts with values: {self.xs}") from None
            raise KeyError(
                f"series {self.label!r} has no point P={p}; "
                f"available process counts: {self.xs}") from None

    @property
    def xs(self) -> List[int]:
        return sorted(self.points)

    def speedup_over(self, other: "Series", p: int) -> float:
        """How many times faster this series is than ``other`` at
        ``P=p``: ``other / self`` (> 1 means this one is faster —
        y-values are execution times, so smaller wins)."""
        return other.value(p) / self.value(p)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def render_table(title: str, series: List[Series],
                 unit: str = "s") -> str:
    """The figure as a text table, one row per process count."""
    points = sorted({p for s in series for p in s.points})
    width = max(12, max(len(s.label) for s in series) + 2)
    header = f"{'procs':>8} | " + " | ".join(
        f"{s.label:>{width}}" for s in series)
    rule = "-" * len(header)
    lines = [title, rule, header, rule]
    for p in points:
        cells = []
        for s in series:
            v = s.points.get(p)
            cells.append(f"{v:>{width}.2f}" if v is not None
                         else " " * width)
        lines.append(f"{p:>8} | " + " | ".join(cells))
    lines.append(rule)
    return "\n".join(lines)


def results_dir() -> str:
    path = os.environ.get("REPRO_RESULTS_DIR",
                          os.path.join(os.path.dirname(__file__),
                                       "..", "..", "..", "benchmarks",
                                       "results"))
    path = os.path.abspath(path)
    os.makedirs(path, exist_ok=True)
    return path


def save_artifact(name: str, series: List[Series],
                  extra: Optional[Dict[str, Any]] = None,
                  out_dir: Optional[str] = None) -> str:
    """Persist a figure's series as JSON; returns the path.

    ``out_dir`` overrides the default artifact directory (which is
    ``$REPRO_RESULTS_DIR`` or ``benchmarks/results``)."""
    payload = {
        "figure": name,
        "series": [
            # "missing" appears only when a series has holes, so
            # fault-free artifacts are byte-identical to the old format
            {"label": s.label,
             "points": {str(k): v for k, v in s.points.items()},
             "meta": s.meta,
             **({"missing": {str(k): v for k, v in s.missing.items()}}
                if s.missing else {})}
            for s in series
        ],
        "extra": extra or {},
    }
    if out_dir is not None:
        directory = os.path.abspath(out_dir)
        os.makedirs(directory, exist_ok=True)
    else:
        directory = results_dir()
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path
