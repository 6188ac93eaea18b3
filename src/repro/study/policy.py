"""How a study run treats time and failure: :class:`RunPolicy`.

A policy is *runner* input, not *job* input: it changes how cells are
timed out and reported, never what a cell computes — which is why it
is deliberately **not** part of the cache key
(:data:`~repro.study.cache.EXECUTION_FIELDS` does not include it).  A
study may carry a default policy (``Study.with_policy``) that rides in
``to_json()`` next to — not inside — the cells, and ``run_study``'s
``policy=`` argument overrides it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from .study import StudyError

__all__ = ["ON_ERROR_MODES", "RunPolicy"]

#: what to do when a cell fails, times out or is quarantined
ON_ERROR_MODES = ("raise", "keep_going")


@dataclass(frozen=True)
class RunPolicy:
    """Per-run resilience settings for :func:`~repro.study.runner.run_study`.

    ``timeout`` — per-job wall-clock limit in seconds (None = no limit;
    enforced via ``SIGALRM`` inside the executing process, so it works
    identically in-process and in pool workers).
    ``on_error`` — ``"raise"`` aborts the study on the first cell that
    fails, times out or is quarantined (the historical behavior);
    ``"keep_going"`` records the failure in the
    :class:`~repro.study.results.JobResult` and keeps executing the
    other cells.
    """

    timeout: Optional[float] = None
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.timeout is not None and not self.timeout > 0:
            raise StudyError(
                f"policy timeout must be positive seconds or None, "
                f"got {self.timeout!r}")
        if self.on_error not in ON_ERROR_MODES:
            raise StudyError(
                f"policy on_error must be one of {list(ON_ERROR_MODES)}, "
                f"got {self.on_error!r}")

    @property
    def keep_going(self) -> bool:
        return self.on_error == "keep_going"

    # ------------------------------------------------------------------
    # JSON round-trip (policies ride in Study.to_json())
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunPolicy":
        if not isinstance(data, dict):
            raise StudyError(
                f"run policy must be a dict, got {type(data).__name__}")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise StudyError(
                f"run policy has unknown keys {sorted(unknown)}; "
                f"allowed: {sorted(cls.__dataclass_fields__)}")
        return cls(**data)
