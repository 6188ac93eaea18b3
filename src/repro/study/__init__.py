"""``repro.study`` — declarative, parallel, cache-aware experiments.

The paper's claims are all *sweeps*; this subsystem makes a sweep a
piece of data instead of a Python call tree:

* :class:`Study` — a named grid of axes plus per-cell app / machine /
  extractor declarations; compiles to a deterministic list of
  JSON-serializable **job specs** and round-trips through
  ``to_json()`` / ``from_json()``, so scenarios become files.
* :func:`run_study` — executes the jobs across a process pool with a
  content-addressed on-disk result cache (job spec + code version;
  virtual-time determinism makes caching exact), under a
  :class:`RunPolicy` (per-job wall-clock timeouts, ``keep_going``
  partial results); cells that kill their worker are quarantined.  The
  cache is also how a crashed or partially-failed sweep resumes: a
  rerun re-executes only the cells it has no entry for.
* :class:`ResultSet` — query (``series``, ``ratio``), render
  (``table``) and export (``to_json``, ``to_csv``) the results.
* :mod:`~repro.study.catalog` — the paper's figures (fig5-fig8, the
  placement family) as Study declarations; :mod:`repro.bench` runs
  these same declarations.
* :mod:`~repro.study.registry` — the name → worker/config/extractor
  tables that make job specs executable anywhere, extensible via
  :func:`register_app` / :func:`register_extractor`.
"""

from .cache import code_version, job_key
from .catalog import (
    CATALOG,
    fig5_study,
    fig6_study,
    fig7_study,
    fig8_study,
    get_study,
    placement_study,
    resilience_study,
)
from .policy import RunPolicy
from .registry import (
    APPS,
    AppSpec,
    EXTRACTORS,
    apply_extract,
    build_machine,
    register_app,
    register_extractor,
)
from .results import JobResult, ResultSet
from .runner import execute_job, run_study, simulations_executed
from .study import Study, StudyError

__all__ = [
    "APPS",
    "AppSpec",
    "CATALOG",
    "EXTRACTORS",
    "JobResult",
    "ResultSet",
    "RunPolicy",
    "Study",
    "StudyError",
    "apply_extract",
    "build_machine",
    "code_version",
    "execute_job",
    "fig5_study",
    "fig6_study",
    "fig7_study",
    "fig8_study",
    "get_study",
    "job_key",
    "placement_study",
    "register_app",
    "register_extractor",
    "resilience_study",
    "run_study",
    "simulations_executed",
]
