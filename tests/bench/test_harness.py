"""Tests for the benchmark harness."""

import json
import os

import pytest

from repro.bench.harness import (
    Series,
    render_table,
    save_artifact,
    scale_points,
)


def test_scale_points_default():
    os.environ.pop("REPRO_POINTS", None)
    pts = scale_points()
    assert pts[0] == 32 and pts[-1] == 8192
    assert pts == sorted(pts)


def test_scale_points_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_POINTS", "64,16,256")
    assert scale_points() == [16, 64, 256]


def test_scale_points_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_POINTS", ",")
    with pytest.raises(ValueError):
        scale_points()


def test_series_accessors():
    s = Series("a", points={32: 2.0, 64: 4.0})
    t = Series("b", points={32: 1.0, 64: 1.0})
    assert s.xs == [32, 64]
    assert s.value(32) == 2.0
    # t is 4x faster than s at P=64 (smaller elapsed wins)
    assert t.speedup_over(s, 64) == 4.0


def test_series_value_names_the_missing_point():
    s = Series("mine", points={32: 2.0, 64: 4.0})
    with pytest.raises(KeyError, match=r"'mine' has no point P=128"):
        s.value(128)
    with pytest.raises(KeyError, match=r"\[32, 64\]"):
        s.value(7)


def test_deprecated_shims_are_gone():
    """The study-redesign deprecation cycle is over: the backwards-named
    ratio_to and the forwarding sweep shim were removed."""
    import repro.bench.harness as harness

    assert not hasattr(Series, "ratio_to")
    assert not hasattr(harness, "sweep")
    assert "sweep" not in __import__("repro.bench", fromlist=[""]).__all__


def test_render_table_contains_all_points_and_labels():
    a = Series("alpha", points={32: 1.5, 64: 2.5})
    b = Series("beta", points={32: 3.0})
    text = render_table("My figure", [a, b])
    assert "My figure" in text
    assert "alpha" in text and "beta" in text
    assert "32" in text and "64" in text
    assert "1.50" in text and "3.00" in text


def test_save_artifact_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    s = Series("x", points={8: 1.25}, meta={"note": "hi"})
    path = save_artifact("unit", [s], extra={"k": 1})
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["figure"] == "unit"
    assert payload["series"][0]["points"]["8"] == 1.25
    assert payload["extra"] == {"k": 1}
