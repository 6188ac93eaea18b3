"""Runner resilience: per-job timeouts, partial results, quarantine of
pool-killing cells, and reruns against the cache.

The misbehaving workload is the built-in ``study.chaos`` registry app —
fully deterministic in virtual time, with knobs for raising, timing out
(a *wall-clock* hang) and killing its worker process outright.
"""

import json
import threading

import pytest

from repro.study import (
    JobResult,
    ResultSet,
    RunPolicy,
    Study,
    StudyError,
    job_key,
    resilience_study,
    run_study,
    simulations_executed,
)


def chaos_study(name="chaos", points=(4, 8), **poison_params):
    """A healthy sweep plus one poisoned single-point cell."""
    study = (Study(name)
             .axis("nprocs", list(points))
             .axis("poison_nprocs", [4])
             .cell("Healthy", app="study.chaos"))
    if poison_params:
        study.cell("Poison", app="study.chaos", params=poison_params,
                   x_axis="poison_nprocs")
    return study


# ----------------------------------------------------------------------
# policy object
# ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(StudyError, match="on_error"):
        RunPolicy(on_error="explode")
    with pytest.raises(StudyError, match="timeout"):
        RunPolicy(timeout=0)
    # a study file that still sets a deleted knob fails naming the key
    with pytest.raises(StudyError, match="unknown.*retries"):
        RunPolicy.from_json({"retries": 1})


def test_policy_json_round_trip():
    p = RunPolicy(timeout=2.5, on_error="keep_going")
    assert RunPolicy.from_json(p.to_json()) == p


def test_study_policy_round_trips_and_stays_out_of_the_cache_key():
    bare = chaos_study()
    declared = chaos_study().with_policy(
        RunPolicy(timeout=9.0, on_error="keep_going"))
    data = json.loads(json.dumps(declared.to_json()))
    restored = Study.from_json(data)
    assert restored.run_policy == declared.run_policy
    # policy is presentation/execution-control, not part of the spec:
    # declaring one must not invalidate cached simulations
    for a, b in zip(bare.jobs(), declared.jobs()):
        assert job_key(a) == job_key(b)


# ----------------------------------------------------------------------
# keep_going: partial results
# ----------------------------------------------------------------------

def test_keep_going_records_failure_as_data():
    rs = run_study(chaos_study(fail=True),
                   policy=RunPolicy(on_error="keep_going"))
    assert rs.failed == 1 and rs.ok == 2 and rs.complete is False
    bad = rs.failures()[0]
    assert bad.status == "failed" and "ChaosError" in bad.error
    assert bad.value is None

    # holes render honestly everywhere
    assert "without a value" in rs.table()
    assert "Poison" in rs.table()
    line = [l for l in rs.to_csv().splitlines() if "Poison" in l][0]
    assert line.endswith(",failed") and ",," in line
    s = rs.series("Poison")
    with pytest.raises(KeyError, match="ChaosError"):
        s.value(4)


def test_default_policy_still_raises_on_failure():
    with pytest.raises(StudyError, match="chaos.*Poison.*P=4"):
        run_study(chaos_study(fail=True))


def test_resilience_catalog_study_is_keep_going_by_default():
    rs = run_study(resilience_study(points=[4, 8]))
    assert rs.failed == 1 and rs.ok == 2


def test_results_json_round_trip_preserves_failures():
    rs = run_study(chaos_study(fail=True),
                   policy=RunPolicy(on_error="keep_going"))
    restored = ResultSet.from_json(json.loads(json.dumps(rs.to_json())))
    assert restored.failed == 1
    bad = restored.failures()[0]
    assert bad.status == "failed" and "ChaosError" in bad.error
    for x in (4, 8):
        assert restored.value("Healthy", x) == rs.value("Healthy", x)


def test_jobresult_rejects_ok_without_value():
    job = chaos_study().jobs()[0]
    with pytest.raises(StudyError, match="value"):
        JobResult(job=job, value=None, sim={})
    with pytest.raises(StudyError, match="status"):
        JobResult(job=job, value=1.0, sim={}, status="exploded")


# ----------------------------------------------------------------------
# timeouts (wall-clock; chaos hangs in real time, not virtual time)
# ----------------------------------------------------------------------

def test_timeout_serial():
    rs = run_study(chaos_study(hang_s=10.0),
                   policy=RunPolicy(timeout=0.2, on_error="keep_going"))
    bad = rs.failures()[0]
    assert bad.status == "timeout"
    assert "0.2" in bad.error


def test_timeout_in_pool_worker():
    rs = run_study(chaos_study(hang_s=10.0), jobs=2,
                   policy=RunPolicy(timeout=0.2, on_error="keep_going"))
    assert rs.failures()[0].status == "timeout"
    assert rs.ok == 2


def test_timeout_off_the_main_thread_is_refused():
    """SIGALRM only reaches the main thread, so a serial run from any
    other thread cannot enforce a timeout: it must refuse up front, not
    let the hang run to completion and report ok.  Pool workers run
    each job on their own main thread, so jobs > 1 is enforceable."""
    outcome = {}

    def body(jobs):
        try:
            outcome[jobs] = run_study(
                chaos_study(hang_s=2.0), jobs=jobs,
                policy=RunPolicy(timeout=0.2, on_error="keep_going"))
        except StudyError as exc:
            outcome[jobs] = exc

    for jobs in (1, 2):
        thread = threading.Thread(target=body, args=(jobs,))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert isinstance(outcome[1], StudyError)
    assert "main thread" in str(outcome[1])
    assert outcome[2].failures()[0].status == "timeout"


# ----------------------------------------------------------------------
# pool-killing cells: rebuild, probation, quarantine
# ----------------------------------------------------------------------

def test_worker_death_is_survived_and_quarantined(tmp_path):
    """A cell that SIGKILLs its own pool worker breaks the whole
    executor; the runner must rebuild the pool, finish every healthy
    cell bit-identically, and quarantine the poison."""
    study = chaos_study(exit_code=9)
    rs = run_study(study, jobs=2, cache=str(tmp_path / "cache"),
                   policy=RunPolicy(on_error="keep_going"))
    assert rs.quarantined == 1 and rs.ok == 2
    bad = rs.failures()[0]
    assert bad.status == "quarantined" and "worker process died" in bad.error

    fault_free = run_study(chaos_study("chaos2"))
    for x in (4, 8):
        assert rs.value("Healthy", x) == fault_free.value("Healthy", x)


def test_lone_pool_killer_is_quarantined_after_one_attempt():
    """A cell that breaks the pool while it is the only cell in flight
    is the culprit: it is quarantined without a second attempt."""
    study = (Study("lone-killer")
             .axis("nprocs", [4])
             .cell("Poison", app="study.chaos", params={"exit_code": 9}))
    rs = run_study(study, jobs=2, policy=RunPolicy(on_error="keep_going"))
    bad = rs.failures()[0]
    assert bad.status == "quarantined" and bad.attempts == 1


def test_pool_break_reruns_only_cells_in_flight():
    """The pool holds at most ``jobs`` cells, so a break re-runs only
    the cells a worker had taken, not every queued cell.  The poison
    has the most ranks, so longest-first ordering submits it first."""
    study = (Study("in-flight")
             .axis("nprocs", list(range(2, 10)))
             .axis("poison_nprocs", [16])
             .cell("Healthy", app="study.chaos")
             .cell("Poison", app="study.chaos", params={"exit_code": 9},
                   x_axis="poison_nprocs"))
    rs = run_study(study, jobs=2, policy=RunPolicy(on_error="keep_going"))
    assert rs.quarantined == 1 and rs.ok == 8
    rerun = [r for r in rs.results if r.ok and r.attempts > 1]
    assert len(rerun) <= 1, [(r.x, r.attempts) for r in rerun]


def _break_submit(monkeypatch, at):
    """Make the ``at``-th executor submit raise ``BrokenProcessPool``,
    as ``submit`` does once a worker has died; returns the call log."""
    import concurrent.futures as cf
    from concurrent.futures.process import BrokenProcessPool

    real_submit = cf.ProcessPoolExecutor.submit
    calls = []

    def submit(self, fn, *args, **kwargs):
        calls.append(args[0]["series"])
        if len(calls) == at:
            raise BrokenProcessPool("a worker died before this submit")
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(cf.ProcessPoolExecutor, "submit", submit)
    return calls


def test_submit_to_a_broken_pool_requeues_the_cell(monkeypatch):
    """A worker can die between one cell finishing and the refill, so
    the refill's ``submit`` raises: the cell goes back in the queue with
    no attempt counted, the poison in flight is collected as broken and
    quarantined, and every healthy cell still runs once."""
    calls = _break_submit(monkeypatch, at=3)
    study = (Study("broken-refill")
             .axis("nprocs", [2, 3])
             .axis("poison_nprocs", [16])
             .cell("Healthy", app="study.chaos")
             .cell("Poison", app="study.chaos",
                   params={"exit_code": 9, "hang_s": 1.0},
                   x_axis="poison_nprocs"))
    rs = run_study(study, jobs=2, policy=RunPolicy(on_error="keep_going"))
    assert calls == ["Poison", "Healthy", "Healthy", "Healthy"]
    assert rs.quarantined == 1 and rs.ok == 2
    assert [r.attempts for r in rs.results] == [1, 1, 1]


def test_broken_pool_with_nothing_in_flight_is_rebuilt(monkeypatch):
    """A break with none of the study's cells in flight blames nobody:
    the pool is rebuilt and the cell submitted again."""
    calls = _break_submit(monkeypatch, at=1)
    rs = run_study(chaos_study(), jobs=2)
    assert len(calls) == 3
    assert rs.complete and [r.attempts for r in rs.results] == [1, 1]


def test_worker_death_raises_without_keep_going(tmp_path):
    with pytest.raises(StudyError):
        run_study(chaos_study(exit_code=9), jobs=2,
                  cache=str(tmp_path / "cache"))


def test_chaos_refuses_to_kill_the_host_process():
    """In a serial run the job executes in the host: the chaos app must
    raise instead of os._exit'ing the test runner itself."""
    rs = run_study(chaos_study(exit_code=9),
                   policy=RunPolicy(on_error="keep_going"))
    bad = rs.failures()[0]
    assert bad.status == "failed" and "refusing to kill" in bad.error


# ----------------------------------------------------------------------
# rerunning against the cache
# ----------------------------------------------------------------------

def test_rerun_against_the_cache_reexecutes_only_the_failed_cell(tmp_path):
    cache = str(tmp_path / "cache")
    study = chaos_study(fail=True)
    first = run_study(study, cache=cache,
                      policy=RunPolicy(on_error="keep_going"))
    assert first.failed == 1 and first.executed == 3

    before = simulations_executed()
    again = run_study(study, cache=cache,
                      policy=RunPolicy(on_error="keep_going"))
    # the two healthy cells are served without simulating; only the
    # failed cell runs again
    assert again.cached == 2 and again.executed == 1
    assert simulations_executed() == before + 1
    for x in (4, 8):
        assert again.value("Healthy", x) == first.value("Healthy", x)
