"""Execute a study: schedule jobs over processes, through the cache —
and survive the failure of any one of them.

``run_study`` is the one entry point: it compiles the study to job
specs, serves what it can from the content-addressed cache
(:mod:`~repro.study.cache`), and executes the misses — in-process for
``jobs=1``, across a :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise.  Jobs are independent simulations, so the figure suite is
embarrassingly parallel; virtual-time determinism means the parallel,
serial, cached and resumed paths all produce bit-identical values.

Resilience is policy, not luck (:class:`~repro.study.policy.RunPolicy`):

* a per-job **wall-clock timeout** is enforced with ``SIGALRM`` inside
  the executing process (worker or in-process alike);
* failed or timed-out attempts are **retried** with exponential backoff
  and deterministic per-(job, attempt) jitter;
* ``on_error="keep_going"`` turns failures into *data* — the cell's
  :class:`~repro.study.results.JobResult` records ``status`` /
  ``error`` / ``attempts`` and the study completes around the hole —
  while the default ``"raise"`` keeps the historical abort-on-first-
  failure contract;
* a **broken process pool** (worker OOM-killed, ``os._exit``, SIGKILL)
  is respawned within a budget; the cells that were actually executing
  when it broke are identified via the journal's ``running`` markers,
  re-run one at a time (so blame converges), and **quarantined** after
  repeated strikes instead of sinking the study;
* every run writes a :class:`~repro.study.journal.RunJournal` under
  the cache dir; ``resume=True`` replays it — completed cells are
  served without re-execution (even if the result cache was wiped,
  and the cache is repopulated from the journal), failed ones re-run.

Defaults honour the environment so existing callers pick studies up
transparently: ``REPRO_STUDY_JOBS`` sets the worker count and
``REPRO_STUDY_CACHE`` the cache directory when the caller passes
neither.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..simmpi.launcher import run
from . import cache as result_cache
from .journal import RunJournal, mark_running
from .policy import RunPolicy, backoff_delay
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

    Uses ``SIGALRM``, so it interrupts compute loops and sleeps alike;
    a no-op when no limit is set, when the platform has no SIGALRM, or
    off the main thread (signals only deliver there).
    """
    if (not seconds or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
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


def _pool_entry(job: Dict[str, Any], timeout: Optional[float],
                journal_path: str, key: str, attempt: int,
                delay: float) -> Dict[str, Any]:
    """What a pool worker runs: backoff, mark the journal, execute.

    The ``running`` marker is written by the *worker* right before the
    simulation starts, so a pool break can be attributed to the cells
    that were actually executing — queued-but-unstarted cells carry no
    marker and are resubmitted without a strike.
    """
    if delay > 0:
        time.sleep(delay)
    mark_running(journal_path, key, attempt)
    return _guarded_execute(job, timeout)


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


def run_study(study: Study,
              jobs: Optional[int] = None,
              cache: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None,
              *,
              policy: Union[RunPolicy, Dict[str, Any], None] = None,
              resume: bool = False) -> ResultSet:
    """Run every cell of ``study``; returns the :class:`ResultSet`.

    ``jobs`` — process-pool width (default ``$REPRO_STUDY_JOBS`` or 1,
    i.e. in-process serial execution).  ``cache`` — result-cache
    directory (default ``$REPRO_STUDY_CACHE`` or no caching).
    ``progress`` — optional callback for one-line status messages.
    ``policy`` — a :class:`~repro.study.policy.RunPolicy` (or its JSON
    dict) overriding the study's own default policy.  ``resume`` —
    replay this study's :class:`~repro.study.journal.RunJournal`
    (requires ``cache``): completed cells are served without
    re-execution, failed/timed-out/quarantined cells re-run fresh.
    """
    jobs = _resolve_jobs(jobs)
    run_policy = _resolve_policy(policy, study)
    if cache is None:
        cache = os.environ.get("REPRO_STUDY_CACHE") or None
    if cache is not None:
        cache = os.path.abspath(os.path.expanduser(cache))
    if resume and cache is None:
        raise StudyError(
            "resume=True replays the run journal, which lives under the "
            "cache directory — pass cache=DIR (or set $REPRO_STUDY_CACHE)")

    specs = study.jobs()
    keys = [result_cache.job_key(job) for job in specs]
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

    # the journal lives under the cache dir; without a cache we still
    # journal (pool-break attribution needs the running markers) into
    # an ephemeral directory that cannot be resumed
    ephemeral: Optional[str] = None
    if cache is not None:
        journal_dir = os.path.join(cache, "journal")
    else:
        ephemeral = tempfile.mkdtemp(prefix="repro-study-journal-")
        journal_dir = ephemeral
    journal = RunJournal.open(journal_dir, study.name, keys, resume=resume)
    from_journal = 0
    if resume:
        prior = journal.prior_state()
        still_pending: List[int] = []
        for i in pending:
            done = prior.completed.get(keys[i])
            if done is not None:
                slots[i] = JobResult(job=specs[i], value=done["value"],
                                     sim=done.get("sim", {}), cached=True,
                                     attempts=done.get("attempts", 1))
                from_journal += 1
                if cache:  # repopulate a wiped cache from the journal
                    result_cache.store(cache, specs[i],
                                       {"value": done["value"],
                                        "sim": done.get("sim", {})})
            else:
                still_pending.append(i)
        pending = still_pending

    if progress:
        cached_n = len(specs) - len(pending) - from_journal
        progress(f"study {study.name!r}: {len(specs)} job(s), "
                 f"{cached_n} cached, "
                 + (f"{from_journal} resumed from the journal, "
                    if from_journal else "")
                 + f"{len(pending)} to run"
                 + (f" across {jobs} workers" if jobs > 1 else ""))

    try:
        if pending and jobs > 1:
            _run_pool(specs, keys, pending, jobs, run_policy, journal,
                      cache, progress, slots)
        elif pending:
            _run_serial(specs, keys, pending, run_policy, journal,
                        cache, progress, slots)
    finally:
        journal.close()
        if ephemeral is not None:
            shutil.rmtree(ephemeral, ignore_errors=True)

    results: List[JobResult] = []
    for i, slot in enumerate(slots):
        if slot is None:
            # a cell the engine never settled (e.g. abandoned when the
            # respawn budget ran dry): honest accounting, not silence
            slot = JobResult(job=specs[i], value=None, status="missing",
                             error="never executed", attempts=0)
        results.append(slot)
    rs = ResultSet(study, results)
    if progress and not rs.complete:
        progress(f"study {study.name!r}: {rs.failed} failed, "
                 f"{rs.quarantined} quarantined, {rs.missing} missing "
                 f"(of {len(rs)})")
    return rs


# ----------------------------------------------------------------------
# serial engine
# ----------------------------------------------------------------------

def _final_failure(spec: Dict[str, Any], key: str, kind: str, error: str,
                   attempts: int, policy: RunPolicy, journal: RunJournal,
                   progress) -> JobResult:
    """Record a cell's terminal failure; raise unless keep_going."""
    status = "timeout" if kind == "timeout" else "failed"
    journal.record(status, key=key, status=status, error=error,
                   attempts=attempts)
    if not policy.keep_going:
        raise StudyError(
            f"{_job_context(spec)} failed after {attempts} attempt(s): "
            f"{error}")
    if progress:
        progress(f"  FAILED {_job_context(spec)}: {error}")
    return JobResult(job=spec, value=None, status=status, error=error,
                     attempts=attempts)


def _run_serial(specs, keys, pending, policy: RunPolicy,
                journal: RunJournal, cache, progress, slots) -> None:
    for i in pending:
        attempts = 0
        failures = 0
        while True:
            attempts += 1
            if failures:
                delay = backoff_delay(policy, keys[i], failures)
                if delay > 0:
                    time.sleep(delay)
            journal.record("submitted", key=keys[i],
                           series=specs[i].get("series"),
                           x=specs[i].get("x"), attempt=attempts)
            payload = _guarded_execute(specs[i], policy.timeout)
            if payload["ok"]:
                outcome = payload["outcome"]
                slots[i] = JobResult(job=specs[i], value=outcome["value"],
                                     sim=outcome["sim"], attempts=attempts)
                journal.record("completed", key=keys[i],
                               value=outcome["value"], sim=outcome["sim"],
                               attempts=attempts)
                if cache:
                    result_cache.store(cache, specs[i], outcome)
                if progress:
                    progress(f"  done {_job_context(specs[i])}")
                break
            failures += 1
            if failures > policy.retries:
                slots[i] = _final_failure(specs[i], keys[i],
                                          payload["kind"], payload["error"],
                                          attempts, policy, journal,
                                          progress)
                break
            journal.record("retry", key=keys[i], attempt=attempts,
                           error=payload["error"])
            if progress:
                progress(f"  retry {failures}/{policy.retries} "
                         f"{_job_context(specs[i])}: {payload['error']}")


# ----------------------------------------------------------------------
# pool engine: respawn, blame, quarantine
# ----------------------------------------------------------------------

def _run_pool(specs, keys, pending, jobs, policy: RunPolicy,
              journal: RunJournal, cache, progress, slots) -> None:
    import concurrent.futures as cf
    from concurrent.futures.process import BrokenProcessPool

    # longest-processing-time-first: submit the big process counts
    # first so the pool tail is short.  Completion order does not
    # matter — results land in slots by index, and every job is
    # deterministic, so scheduling cannot perturb values.
    ready = deque(sorted(pending, key=lambda i: -specs[i]["nprocs"]))
    probation: deque = deque()   # struck cells, re-run one at a time
    attempts = {i: 0 for i in pending}   # submissions started
    failures = {i: 0 for i in pending}   # clean failures/timeouts
    strikes = {i: 0 for i in pending}    # in-flight at a pool break
    incomplete = set(pending)
    respawns_left = policy.respawn_budget
    width = min(jobs, len(pending))
    pool = cf.ProcessPoolExecutor(max_workers=width)
    futures: Dict[Any, int] = {}

    def submit(i: int) -> None:
        attempts[i] += 1
        delay = (backoff_delay(policy, keys[i], failures[i])
                 if failures[i] else 0.0)
        journal.record("submitted", key=keys[i],
                       series=specs[i].get("series"), x=specs[i].get("x"),
                       attempt=attempts[i])
        fut = pool.submit(_pool_entry, specs[i], policy.timeout,
                          journal.path, keys[i], attempts[i], delay)
        futures[fut] = i

    def pump_submissions() -> None:
        # probation cells run ALONE: one cell in flight and nothing
        # else, so the next pool break names its culprit unambiguously
        if probation:
            if not futures:
                submit(probation.popleft())
            return
        while ready:
            submit(ready.popleft())

    def settle(i: int, payload: Dict[str, Any]) -> None:
        if payload.get("ok"):
            outcome = payload["outcome"]
            slots[i] = JobResult(job=specs[i], value=outcome["value"],
                                 sim=outcome.get("sim", {}),
                                 attempts=attempts[i])
            incomplete.discard(i)
            strikes[i] = 0   # a clean completion clears suspicion
            journal.record("completed", key=keys[i],
                           value=outcome["value"],
                           sim=outcome.get("sim", {}),
                           attempts=attempts[i])
            if cache:
                result_cache.store(cache, specs[i], outcome)
            if progress:
                progress(f"  done {_job_context(specs[i])}")
            return
        failures[i] += 1
        if failures[i] <= policy.retries:
            journal.record("retry", key=keys[i], attempt=attempts[i],
                           error=payload.get("error", ""))
            if progress:
                progress(f"  retry {failures[i]}/{policy.retries} "
                         f"{_job_context(specs[i])}: "
                         f"{payload.get('error', '')}")
            ready.append(i)
            return
        slots[i] = _final_failure(specs[i], keys[i],
                                  payload.get("kind", "failed"),
                                  payload.get("error", "unknown error"),
                                  attempts[i], policy, journal, progress)
        incomplete.discard(i)

    def quarantine(i: int, why: str) -> None:
        journal.record("quarantined", key=keys[i], strikes=strikes[i],
                       attempts=attempts[i], error=why)
        if not policy.keep_going:
            raise StudyError(
                f"{_job_context(specs[i])} quarantined after "
                f"{strikes[i]} pool-breaking attempt(s): {why}")
        slots[i] = JobResult(job=specs[i], value=None,
                             status="quarantined", error=why,
                             attempts=attempts[i])
        incomplete.discard(i)
        if progress:
            progress(f"  QUARANTINED {_job_context(specs[i])}: {why}")

    try:
        while incomplete and (ready or probation or futures):
            pump_submissions()
            done, _ = cf.wait(list(futures), return_when=cf.FIRST_COMPLETED)
            broken: List[int] = []
            for fut in done:
                i = futures.pop(fut)
                exc = fut.exception()
                if exc is None:
                    settle(i, fut.result())
                elif isinstance(exc, BrokenProcessPool):
                    broken.append(i)
                else:
                    settle(i, {"ok": False, "kind": "failed",
                               "error": f"{type(exc).__name__}: {exc}"})
            if not broken:
                continue

            # the executor is dead; every remaining future resolves now
            for fut in cf.as_completed(list(futures)):
                i = futures.pop(fut)
                exc = fut.exception()
                if exc is None:
                    settle(i, fut.result())   # finished before the break
                elif isinstance(exc, BrokenProcessPool):
                    broken.append(i)
                else:
                    settle(i, {"ok": False, "kind": "failed",
                               "error": f"{type(exc).__name__}: {exc}"})
            pool.shutdown(wait=False)

            # blame: the journal's running markers name the cells that
            # were executing; queued cells resubmit without a strike
            state = RunJournal.read_state(journal.path)
            suspects = [i for i in broken
                        if state.running.get(keys[i], 0) >= attempts[i]]
            if not suspects:
                suspects = list(broken)
            for i in broken:
                if i not in suspects:
                    ready.append(i)
            for i in suspects:
                strikes[i] += 1
                why = ("worker process died while this cell was "
                       f"executing ({strikes[i]} strike(s))")
                if strikes[i] >= policy.quarantine_strikes:
                    quarantine(i, why)
                else:
                    probation.append(i)

            if not incomplete or not (ready or probation):
                break
            if respawns_left <= 0:
                why = ("worker pool kept breaking; respawn budget "
                       f"({policy.respawn_budget}) exhausted")
                if not policy.keep_going:
                    raise StudyError(f"study {_study_name(specs)}: {why}")
                for i in sorted(set(ready) | set(probation)):
                    if i in incomplete:
                        slots[i] = JobResult(job=specs[i], value=None,
                                             status="failed", error=why,
                                             attempts=attempts[i])
                        journal.record("failed", key=keys[i],
                                       status="failed", error=why,
                                       attempts=attempts[i])
                        incomplete.discard(i)
                if progress:
                    progress(f"  {why}")
                break
            respawns_left -= 1
            if progress:
                progress(f"  worker pool broke ({len(suspects)} suspect "
                         f"cell(s)); respawning, {respawns_left} "
                         f"respawn(s) left")
            pool = cf.ProcessPoolExecutor(
                max_workers=min(width, max(1, len(incomplete))))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _study_name(specs: Sequence[Dict[str, Any]]) -> str:
    return repr(specs[0].get("study")) if specs else "<empty>"
