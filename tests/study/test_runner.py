"""Runner semantics: execution, parallelism, the content-addressed
cache (exactness, invalidation, zero-work warm runs) and the results
API."""

import json
import os

import pytest

from repro.study import (
    Study,
    StudyError,
    fig5_study,
    job_key,
    run_study,
    simulations_executed,
)
from repro.study import cache as study_cache


def tiny_study(points=(4, 8), alphas=(0.5,)):
    return fig5_study(points=list(points), alphas=tuple(alphas))


# ----------------------------------------------------------------------
# execution + results
# ----------------------------------------------------------------------

def test_serial_run_matches_direct_simulation():
    from repro.apps.mapreduce import MapReduceConfig, reference_worker
    from repro.simmpi import beskow, run

    rs = run_study(tiny_study(points=[8]))
    direct = run(reference_worker, 8, args=(MapReduceConfig(nprocs=8),),
                 machine=beskow())
    assert rs.value("Reference", 8) == max(
        v["elapsed"] for v in direct.values)


def test_resultset_queries_and_exports(tmp_path):
    rs = run_study(tiny_study())
    assert rs.labels() == ["Reference", "Decoupling (a=0.5)"]
    ref = rs.series("Reference")
    assert ref.xs == [4, 8]
    ratio = rs.ratio("Decoupling (a=0.5)", "Reference")
    assert ratio.value(8) == pytest.approx(
        rs.value("Decoupling (a=0.5)", 8) / rs.value("Reference", 8))
    with pytest.raises(StudyError, match="no series"):
        rs.series("nope")

    data = json.loads(json.dumps(rs.to_json()))
    from repro.study import ResultSet
    restored = ResultSet.from_json(data)
    assert restored.value("Reference", 8) == rs.value("Reference", 8)
    assert restored.study.jobs() == rs.study.jobs()

    csv = rs.to_csv()
    assert csv.splitlines()[0] == "study,series,x,value,cached,status"
    assert len(csv.splitlines()) == 1 + len(rs)
    assert '"Reference",8' in csv
    assert csv.splitlines()[1].endswith(",ok")

    table = rs.table()
    assert "Reference" in table and "procs" in table


def test_parallel_run_bit_identical_to_serial():
    study = tiny_study()
    serial = run_study(study, jobs=1)
    parallel = run_study(study, jobs=3)
    for label in serial.labels():
        assert parallel.series(label).points == serial.series(label).points


def test_failed_job_reports_series_and_point():
    bad = (Study("boom").axis("nprocs", [4])
           .cell("bad", app="mapreduce.reference",
                 params={"alpha": 7.0}))   # alpha must be in (0, 1)
    with pytest.raises(StudyError, match="boom.*bad.*P=4"):
        run_study(bad)


def test_bad_jobs_count_rejected():
    with pytest.raises(StudyError, match="jobs"):
        run_study(tiny_study(), jobs=0)


def test_bad_jobs_env_var_named_in_error(monkeypatch):
    """An unparseable $REPRO_STUDY_JOBS must fail as a StudyError that
    names the variable and the offending value — not a bare ValueError
    from int()."""
    monkeypatch.setenv("REPRO_STUDY_JOBS", "abc")
    with pytest.raises(StudyError,
                       match=r"\$REPRO_STUDY_JOBS.*'abc'"):
        run_study(tiny_study(points=[4]))


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

def test_cache_warm_run_does_zero_simulation_work(tmp_path):
    cache = str(tmp_path / "cache")
    study = tiny_study()
    cold = run_study(study, cache=cache)
    assert cold.executed == len(cold) and cold.cached == 0

    before = simulations_executed()
    warm = run_study(study, cache=cache)
    assert simulations_executed() == before, \
        "a fully cached run must launch no simulation"
    assert warm.executed == 0 and warm.cached == len(warm)
    for label in cold.labels():
        assert warm.series(label).points == cold.series(label).points


def test_cache_key_depends_on_spec():
    a = tiny_study(points=[4]).jobs()[0]
    b = tiny_study(points=[8]).jobs()[0]
    assert job_key(a) != job_key(b)
    assert job_key(a) == job_key(json.loads(json.dumps(a)))


def test_cache_survives_series_and_study_renames(tmp_path):
    """Presentation fields (study name, series label, meta) stay out of
    the key: a rename must not discard cached simulations."""
    cache = str(tmp_path / "cache")
    job = tiny_study(points=[4]).jobs()[0]
    study_cache.store(cache, job, {"value": 1.5, "sim": {}})

    renamed = dict(job)
    renamed["study"] = "fig5-bis"
    renamed["series"] = "Baseline (renamed)"
    renamed["meta"] = {"note": "same computation"}
    assert job_key(renamed) == job_key(job)
    assert study_cache.load(cache, renamed) == {"value": 1.5, "sim": {}}

    changed = dict(job)
    changed["params"] = {"alpha": 0.25}
    assert job_key(changed) != job_key(job)
    assert study_cache.load(cache, changed) is None


def test_cache_key_depends_on_code_version(monkeypatch):
    job = tiny_study(points=[4]).jobs()[0]
    fresh = job_key(job)
    monkeypatch.setattr(study_cache, "_code_version_memo", "different")
    assert job_key(job) != fresh


def test_cache_rejects_corrupt_and_mismatched_entries(tmp_path):
    cache = str(tmp_path / "cache")
    job = tiny_study(points=[4]).jobs()[0]
    path = study_cache.store(cache, job, {"value": 1.0, "sim": {}})
    assert study_cache.load(cache, job) == {"value": 1.0, "sim": {}}

    # corrupt file -> miss, not error — and the skip is *counted*, not
    # silently swallowed
    before = study_cache.skipped_total()
    with open(path, "w") as fh:
        fh.write("{not json")
    assert study_cache.load(cache, job) is None
    assert study_cache.skipped_entries()["corrupt"] >= 1
    assert study_cache.skipped_total() == before + 1

    # an entry whose stored spec does not match the requested one
    # (adversarial collision) -> miss, counted under "spec"
    other = tiny_study(points=[8]).jobs()[0]
    entry_path = study_cache.cache_path(cache, study_cache.job_key(job))
    os.makedirs(os.path.dirname(entry_path), exist_ok=True)
    with open(entry_path, "w") as fh:
        json.dump({"schema": 1, "job": other,
                   "outcome": {"value": 9.9, "sim": {}}}, fh)
    before_spec = study_cache.skipped_entries()["spec"]
    assert study_cache.load(cache, job) is None
    assert study_cache.skipped_entries()["spec"] == before_spec + 1

    # a plain miss (no file at all) is not a skipped entry
    before = study_cache.skipped_total()
    missing = tiny_study(points=[16]).jobs()[0]
    assert study_cache.load(cache, missing) is None
    assert study_cache.skipped_total() == before


def test_env_defaults_for_jobs_and_cache(tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("REPRO_STUDY_CACHE", cache)
    monkeypatch.setenv("REPRO_STUDY_JOBS", "1")
    study = tiny_study(points=[4])
    run_study(study)
    warm = run_study(study)
    assert warm.executed == 0 and warm.cached == len(warm)
