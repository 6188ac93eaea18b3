"""Execute a study: schedule jobs over processes, through the cache —
and survive the failure of any one of them.

``run_study`` is the one entry point: it compiles the study to job
specs, serves what it can from the content-addressed cache
(:mod:`~repro.study.cache`), and executes the misses — in-process for
``jobs=1``, across a :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise.  Jobs are independent simulations, so the figure suite is
embarrassingly parallel; virtual-time determinism means the parallel,
serial and cached paths all produce bit-identical values.

Resilience is policy, not luck (:class:`~repro.study.policy.RunPolicy`):

* a per-job **wall-clock timeout** is enforced with ``SIGALRM`` inside
  the executing process (worker or in-process alike); a timeout the
  runner cannot enforce is refused with a :class:`StudyError`;
* ``on_error="keep_going"`` turns failures into *data* — the cell's
  :class:`~repro.study.results.JobResult` records ``status`` /
  ``error`` / ``attempts`` and the study completes around the hole —
  while the default ``"raise"`` keeps the historical abort-on-first-
  failure contract;
* a **broken process pool** (worker OOM-killed, ``os._exit``, SIGKILL)
  is rebuilt; the pool never holds more cells than it has workers, so
  the cells in flight at a break are the suspects.  They re-run one at
  a time, and a cell that breaks the pool while it runs alone is
  **quarantined** instead of sinking the study.

The cache is how a sweep resumes: a rerun against the same cache
serves every cell that has an entry and re-executes only the ones that
failed, timed out or were quarantined.

Defaults honour the environment so existing callers pick studies up
transparently: ``REPRO_STUDY_JOBS`` sets the worker count and
``REPRO_STUDY_CACHE`` the cache directory when the caller passes
neither.
"""

from __future__ import annotations

import os
import signal
import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Union

from ..simmpi.launcher import run
from . import cache as result_cache
from .policy import RunPolicy
from .registry import apply_extract, build_config, build_machine, get_app
from .results import JobResult, ResultSet
from .study import Study, StudyError

__all__ = ["execute_job", "run_study", "simulations_executed"]

#: simulations actually run by THIS process (pool workers count their
#: own); the cache tests assert it stays flat across a warm re-run
_SIMULATIONS_EXECUTED = 0


def simulations_executed() -> int:
    """How many simulations this process has run on behalf of studies."""
    return _SIMULATIONS_EXECUTED


def execute_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job spec to completion; returns ``{"value", "sim"}``.

    Module-level (picklable) so pool workers can execute specs by name;
    everything a job references resolves through the registry.
    """
    global _SIMULATIONS_EXECUTED
    app = get_app(job["app"])
    cfg = build_config(app, job["nprocs"], job.get("params", {}))
    machine_spec = job.get("machine") or {}
    machine = build_machine(machine_spec, app, cfg)
    # the machine spec's "faults" and "cosim" sub-keys are launcher and
    # worker input respectively, not MachineConfig fields — but riding
    # in the spec puts the fault scenario and coupling spec into every
    # cache key
    faults = machine_spec.get("faults")
    extra = ()
    cosim = machine_spec.get("cosim")
    if cosim is not None:
        from ..cosim.spec import resolve_hub
        extra = (resolve_hub(cosim),)
    _SIMULATIONS_EXECUTED += 1
    sim = run(app.worker, job["nprocs"],
              args=(cfg, *extra, *job.get("args", ())), machine=machine,
              faults=faults)
    return {
        "value": apply_extract(job["extract"], sim),
        "sim": {"elapsed": sim.elapsed, "messages": sim.messages,
                "bytes": sim.bytes, "events": sim.events},
    }


def _job_context(job: Dict[str, Any]) -> str:
    return (f"study {job.get('study')!r} series {job.get('series')!r} "
            f"at P={job.get('x')}")


# ----------------------------------------------------------------------
# guarded execution: wall-clock timeout + failure-as-data
# ----------------------------------------------------------------------

class _JobTimeout(Exception):
    """Raised inside the executing process when SIGALRM fires."""


@contextmanager
def _wall_clock_limit(seconds: Optional[float]):
    """Raise :class:`_JobTimeout` after ``seconds`` of wall time.

    Uses ``SIGALRM``, so it interrupts compute loops and sleeps alike.
    It must run on the main thread of a platform with ``SIGALRM``;
    :func:`run_study` refuses a timeout anywhere else.
    """
    if not seconds:
        yield
        return

    def _alarm(signum, frame):
        raise _JobTimeout()

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _guarded_execute(job: Dict[str, Any],
                     timeout: Optional[float]) -> Dict[str, Any]:
    """Execute one job, converting failure into a plain payload.

    Returns ``{"ok": True, "outcome": ...}`` or ``{"ok": False,
    "kind": "failed"|"timeout", "error": str}`` — a dict survives
    pickling back from a pool worker no matter what exception type the
    app raised.
    """
    try:
        with _wall_clock_limit(timeout):
            outcome = execute_job(job)
    except _JobTimeout:
        return {"ok": False, "kind": "timeout",
                "error": f"exceeded the {timeout:g}s wall-clock timeout"}
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return {"ok": False, "kind": "failed",
                "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "outcome": outcome}


# ----------------------------------------------------------------------
# run_study
# ----------------------------------------------------------------------

def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        # shared $REPRO_* validation (repro.envcfg): a bad value names
        # the variable and quotes the offending string
        from ..envcfg import env_int
        jobs = env_int("REPRO_STUDY_JOBS", 1,
                       what="integer worker count", error=StudyError)
    if jobs < 1:
        raise StudyError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _resolve_policy(policy: Union[RunPolicy, Dict[str, Any], None],
                    study: Study) -> RunPolicy:
    if policy is None:
        policy = study.run_policy
    if policy is None:
        return RunPolicy()
    if isinstance(policy, dict):
        return RunPolicy.from_json(policy)
    if not isinstance(policy, RunPolicy):
        raise StudyError(
            f"policy must be a RunPolicy or a dict, got "
            f"{type(policy).__name__}")
    return policy


def _check_timeout_enforceable(policy: RunPolicy, jobs: int) -> None:
    """Refuse a timeout :func:`_wall_clock_limit` could not enforce.

    Pool workers run each job on their own main thread, so only a
    serial run is tied to the caller's thread.
    """
    if policy.timeout is None:
        return
    if not hasattr(signal, "SIGALRM"):
        raise StudyError(
            f"policy timeout={policy.timeout:g}s cannot be enforced: "
            "this platform has no SIGALRM")
    if (jobs == 1
            and threading.current_thread() is not threading.main_thread()):
        raise StudyError(
            f"policy timeout={policy.timeout:g}s cannot be enforced: a "
            "serial run (jobs=1) executes on the calling thread, and "
            "SIGALRM only reaches the main thread; call run_study from "
            "the main thread or use jobs > 1")


def run_study(study: Study,
              jobs: Optional[int] = None,
              cache: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None,
              *,
              policy: Union[RunPolicy, Dict[str, Any], None] = None
              ) -> ResultSet:
    """Run every cell of ``study``; returns the :class:`ResultSet`.

    ``jobs`` — process-pool width (default ``$REPRO_STUDY_JOBS`` or 1,
    i.e. in-process serial execution).  ``cache`` — result-cache
    directory (default ``$REPRO_STUDY_CACHE`` or no caching); a rerun
    against it re-executes only the cells without an entry.
    ``progress`` — optional callback for one-line status messages.
    ``policy`` — a :class:`~repro.study.policy.RunPolicy` (or its JSON
    dict) overriding the study's own default policy.
    """
    jobs = _resolve_jobs(jobs)
    run_policy = _resolve_policy(policy, study)
    _check_timeout_enforceable(run_policy, jobs)
    if cache is None:
        cache = os.environ.get("REPRO_STUDY_CACHE") or None
    if cache is not None:
        cache = os.path.abspath(os.path.expanduser(cache))

    specs = study.jobs()
    slots: List[Optional[JobResult]] = [None] * len(specs)
    pending: List[int] = []
    skipped_before = result_cache.skipped_total()
    for i, job in enumerate(specs):
        outcome = result_cache.load(cache, job) if cache else None
        if outcome is not None:
            slots[i] = JobResult(job=job, value=outcome["value"],
                                 sim=outcome.get("sim", {}), cached=True)
        else:
            pending.append(i)
    skipped = result_cache.skipped_total() - skipped_before
    if progress and skipped:
        progress(f"  cache: skipped {skipped} corrupt/mismatched "
                 f"entr{'y' if skipped == 1 else 'ies'} (treated as misses)")
    if progress:
        progress(f"study {study.name!r}: {len(specs)} job(s), "
                 f"{len(specs) - len(pending)} cached, "
                 f"{len(pending)} to run"
                 + (f" across {jobs} workers" if jobs > 1 else ""))

    if pending and jobs > 1:
        _run_pool(specs, pending, jobs, run_policy, cache, progress, slots)
    elif pending:
        _run_serial(specs, pending, run_policy, cache, progress, slots)

    rs = ResultSet(study, slots)
    if progress and not rs.complete:
        progress(f"study {study.name!r}: {rs.failed} failed, "
                 f"{rs.quarantined} quarantined (of {len(rs)})")
    return rs


def _settle(spec: Dict[str, Any], payload: Dict[str, Any], attempts: int,
            policy: RunPolicy, cache: Optional[str],
            progress) -> JobResult:
    """Turn one cell's final payload into its :class:`JobResult`.

    A success is stored in the cache.  A failure (``kind`` is
    ``failed``, ``timeout`` or ``quarantined``) raises unless the
    policy keeps going, and is recorded as the cell's status otherwise.
    """
    if payload["ok"]:
        outcome = payload["outcome"]
        if cache:
            result_cache.store(cache, spec, outcome)
        if progress:
            progress(f"  done {_job_context(spec)}")
        return JobResult(job=spec, value=outcome["value"],
                         sim=outcome["sim"], attempts=attempts)
    status, error = payload["kind"], payload["error"]
    if not policy.keep_going:
        what = "timed out" if status == "timeout" else status
        raise StudyError(f"{_job_context(spec)} {what} after {attempts} "
                         f"attempt(s): {error}")
    if progress:
        progress(f"  {status.upper()} {_job_context(spec)}: {error}")
    return JobResult(job=spec, value=None, status=status, error=error,
                     attempts=attempts)


def _run_serial(specs, pending, policy: RunPolicy, cache, progress,
                slots) -> None:
    for i in pending:
        payload = _guarded_execute(specs[i], policy.timeout)
        slots[i] = _settle(specs[i], payload, 1, policy, cache, progress)


# ----------------------------------------------------------------------
# pool engine: rebuild, probation, quarantine
# ----------------------------------------------------------------------

def _run_pool(specs, pending, jobs, policy: RunPolicy, cache, progress,
              slots) -> None:
    import concurrent.futures as cf
    from concurrent.futures.process import BrokenProcessPool

    # longest-processing-time-first: submit the big process counts
    # first so the pool tail is short.  Completion order does not
    # matter — results land in slots by index, and every job is
    # deterministic, so scheduling cannot perturb values.
    ready = deque(sorted(pending, key=lambda i: -specs[i]["nprocs"]))
    probation: deque = deque()   # in flight at a pool break; run alone
    attempts = dict.fromkeys(pending, 0)
    width = min(jobs, len(pending))
    pool: Optional[cf.ProcessPoolExecutor] = None
    futures: Dict[Any, int] = {}

    def fill() -> None:
        # never more cells in flight than workers, so a pool break
        # involves only cells a worker had taken.  Probation cells run
        # alone (a break leaves nothing in flight), so their break
        # names its culprit.
        nonlocal pool
        queue, cap = (probation, 1) if probation else (ready, width)
        while queue and len(futures) < cap:
            if pool is None:
                pool = cf.ProcessPoolExecutor(max_workers=width)
            try:
                fut = pool.submit(_guarded_execute, specs[queue[0]],
                                  policy.timeout)
            except BrokenProcessPool:
                if futures:
                    # a worker died: the next wait collects the cells
                    # in flight as broken
                    return
                # it died with none of our cells in flight: no suspect
                pool.shutdown(wait=False)
                pool = None
                continue
            i = queue.popleft()
            attempts[i] += 1
            futures[fut] = i

    def take(done):
        """Pop ``done`` futures into ``(cell, payload)`` pairs and
        the cells a pool break took down."""
        finished, broken = [], []
        for fut in done:
            i = futures.pop(fut)
            exc = fut.exception()
            if isinstance(exc, BrokenProcessPool):
                broken.append(i)
            else:
                finished.append((i, fut.result() if exc is None else {
                    "ok": False, "kind": "failed",
                    "error": f"{type(exc).__name__}: {exc}"}))
        return finished, broken

    try:
        fill()
        while futures:
            done, _ = cf.wait(list(futures), return_when=cf.FIRST_COMPLETED)
            finished, broken = take(done)
            if broken:
                # the executor is dead; every other future resolves now
                more, more_broken = take(cf.wait(list(futures)).done)
                finished += more
                broken += more_broken
                pool.shutdown(wait=False)
                pool = None
                if len(broken) == 1:
                    # alone in flight: the culprit is known, and
                    # re-running it would only break the next pool too
                    finished.append((broken[0], {
                        "ok": False, "kind": "quarantined",
                        "error": "worker process died while this cell "
                                 "was the only one executing"}))
                else:
                    probation.extend(sorted(broken))
                    if progress:
                        progress(f"  worker pool broke with {len(broken)} "
                                 "cells in flight; re-running each alone")
            # refill before settling, so no worker idles while this
            # thread stores results in the cache — unless a failure is
            # about to abort the run
            if policy.keep_going or all(p["ok"] for _, p in finished):
                fill()
            for i, payload in finished:
                slots[i] = _settle(specs[i], payload, attempts[i], policy,
                                   cache, progress)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
