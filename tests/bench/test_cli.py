"""Tests for the figure CLI."""

import pytest

from repro.bench.cli import _parse_points, main, run_figure


def test_parse_points_default():
    assert _parse_points(None)[0] == 32


def test_parse_points_custom():
    assert _parse_points("128, 32") == [32, 128]


def test_parse_points_empty_rejected():
    with pytest.raises(SystemExit):
        _parse_points(",")


def test_cli_fig3(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "conventional" in out and "decoupled" in out


def test_cli_sweep_figure_small(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["fig8", "--points", "32"]) == 0
    out = capsys.readouterr().out
    assert "RefColl" in out and "Decoupling" in out
    assert (tmp_path / "fig8_cli.json").exists()


def test_cli_placement_figure(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["placement", "--points", "32"]) == 0
    out = capsys.readouterr().out
    assert "colocated" in out and "partitioned" in out
    assert (tmp_path / "placement_cli.json").exists()


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_stray_name_for_figures():
    with pytest.raises(SystemExit, match="study"):
        main(["fig5", "fig6"])


def test_cli_study_runs_and_caches(capsys, monkeypatch, tmp_path):
    """The study path end to end: cold run executes, warm run is fully
    cached (zero simulation work) and --expect-cached passes."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    cache = str(tmp_path / "cache")
    csv_path = tmp_path / "fig5.csv"

    assert main(["study", "fig5", "--points", "32", "--cache", cache,
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "Reference" in out and "Decoupling (a=0.0625)" in out
    assert "4 executed, 0 cached" in out
    assert (tmp_path / "results" / "fig5_study.json").exists()
    assert csv_path.read_text().startswith("study,series,x,value,cached")

    assert main(["study", "fig5", "--points", "32", "--cache", cache,
                 "--expect-cached"]) == 0
    out = capsys.readouterr().out
    assert "0 executed, 4 cached" in out


def test_cli_study_expect_cached_fails_on_cold_cache(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    cache = str(tmp_path / "cold-cache")
    assert main(["study", "fig5", "--points", "32", "--cache", cache,
                 "--expect-cached"]) == 1
    assert "expected a fully cached run" in capsys.readouterr().err


def test_cli_study_expect_cached_needs_a_cache(monkeypatch):
    monkeypatch.delenv("REPRO_STUDY_CACHE", raising=False)
    with pytest.raises(SystemExit, match="cache"):
        main(["study", "fig5", "--expect-cached"])


def test_cli_study_only_flags_rejected_for_figures():
    """A silently ignored --expect-cached would green-light a broken
    cache gate; the CLI must refuse instead."""
    with pytest.raises(SystemExit, match="study"):
        main(["fig5", "--expect-cached"])
    with pytest.raises(SystemExit, match="study"):
        main(["all", "--csv", "/tmp/x.csv"])


def test_cli_study_keep_going_and_rerun(capsys, monkeypatch, tmp_path):
    """The resilience path end to end: a run with a poisoned cell exits
    0 under --keep-going with the failure in the artifact, and the same
    command rerun against the cache re-executes only the poisoned
    cell."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_POINTS", "8,16")
    cache = str(tmp_path / "cache")

    assert main(["study", "resilience", "--cache", cache,
                 "--keep-going"]) == 0
    out = capsys.readouterr().out
    assert "1 failed" in out and "without a value" in out

    import json
    artifact = tmp_path / "results" / "resilience_study.json"
    extra = json.loads(artifact.read_text())["extra"]
    assert extra["failed"] == 1 and extra["executed"] == 3

    from repro.study.runner import simulations_executed
    before = simulations_executed()
    assert main(["study", "resilience", "--cache", cache,
                 "--keep-going"]) == 0
    # only the poisoned cell simulates again
    assert simulations_executed() == before + 1
    extra = json.loads(artifact.read_text())["extra"]
    assert extra["cached"] == 2 and extra["executed"] == 1


def test_cli_study_failure_without_keep_going_fails(capsys, monkeypatch,
                                                    tmp_path):
    from repro.study import resilience_study
    from repro.study.catalog import CATALOG

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_POINTS", "8")
    # without the study's declared keep_going the runner's default
    # raise policy applies, so the poisoned cell aborts with exit 1
    monkeypatch.setitem(
        CATALOG, "resilience",
        lambda points=None: resilience_study(points).with_policy(None))
    assert main(["study", "resilience"]) == 1
    assert "FAIL:" in capsys.readouterr().err


def test_cli_timeout_keeps_the_study_policy(capsys, monkeypatch, tmp_path):
    """--timeout overrides only the timeout: the resilience study's
    declared keep_going still applies, so the run finishes with its
    one failed cell instead of aborting."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_POINTS", "8")
    assert main(["study", "resilience", "--timeout", "60"]) == 0
    assert "1 failed" in capsys.readouterr().out


def test_cli_resilience_flags_rejected_for_figures():
    for flags in (["--keep-going"], ["--timeout", "5"]):
        with pytest.raises(SystemExit, match="study"):
            main(["fig5"] + flags)


def test_cli_study_needs_a_known_name():
    with pytest.raises(SystemExit, match="catalog"):
        main(["study"])
    with pytest.raises(SystemExit, match="catalog"):
        main(["study", "fig99"])


def test_cli_figures_honour_study_cache(capsys, monkeypatch, tmp_path):
    """The fig* aliases ride the same cache as the study command."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    cache = str(tmp_path / "cache")
    assert main(["study", "placement", "--points", "32",
                 "--cache", cache]) == 0
    capsys.readouterr()
    from repro.study.runner import simulations_executed
    before = simulations_executed()
    assert main(["placement", "--points", "32", "--cache", cache]) == 0
    assert simulations_executed() == before, \
        "the alias must be served from the study cache"
    out = capsys.readouterr().out
    assert "colocated" in out and "partitioned" in out
    assert (tmp_path / "placement_cli.json").exists()
