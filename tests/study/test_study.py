"""Study declaration semantics: axes, cells, expansion, JSON round-trip."""

import json

import pytest

from repro.study import Study, StudyError, fig5_study


def _grid():
    return (Study("g", title="grid")
            .axis("nprocs", [4, 8])
            .axis("alpha", [0.5, 0.25]))


def test_expansion_unreferenced_axis_does_not_multiply():
    s = _grid().cell("Reference", app="mapreduce.reference")
    jobs = s.jobs()
    assert [j["x"] for j in jobs] == [4, 8]
    assert all(j["series"] == "Reference" for j in jobs)


def test_expansion_bound_axis_makes_one_series_per_value():
    s = _grid().cell("Dec (a={alpha})", app="mapreduce.decoupled",
                     bind={"alpha": "alpha"})
    jobs = s.jobs()
    assert [(j["series"], j["x"]) for j in jobs] == [
        ("Dec (a=0.5)", 4), ("Dec (a=0.5)", 8),
        ("Dec (a=0.25)", 4), ("Dec (a=0.25)", 8),
    ]
    assert jobs[0]["params"] == {"alpha": 0.5}
    assert jobs[2]["params"] == {"alpha": 0.25}


def test_bind_into_machine_spec_path():
    s = (Study("m").axis("nprocs", [4]).axis("seed", [1, 2])
         .cell("noise {seed}", app="mapreduce.reference",
               machine={"preset": "beskow"},
               bind={"seed": "machine.noise.seed"}))
    jobs = s.jobs()
    assert jobs[0]["machine"]["noise"] == {"seed": 1}
    assert jobs[1]["machine"]["noise"] == {"seed": 2}


def test_jobs_are_json_plain_data():
    jobs = fig5_study(points=[4, 8]).jobs()
    assert jobs == json.loads(json.dumps(jobs))


def test_study_json_roundtrip_preserves_jobs():
    study = fig5_study(points=[4, 8])
    restored = Study.from_json(json.loads(json.dumps(study.to_json())))
    assert restored.jobs() == study.jobs()
    assert restored.title == study.title


def test_labels_in_expansion_order():
    assert fig5_study(points=[4], alphas=(0.5, 0.25)).labels() == [
        "Reference", "Decoupling (a=0.5)", "Decoupling (a=0.25)"]


def test_unknown_app_rejected_at_declaration():
    with pytest.raises(StudyError, match="unknown app"):
        Study("s").cell("x", app="spark.wordcount")


def test_unknown_extractor_rejected_at_declaration():
    with pytest.raises(StudyError, match="unknown extractor"):
        Study("s").cell("x", app="mapreduce.reference",
                        extract="min_elapsed")


def test_unknown_machine_preset_rejected():
    with pytest.raises(StudyError, match="preset"):
        Study("s").cell("x", app="mapreduce.reference",
                        machine={"preset": "summit"})


@pytest.mark.parametrize("key", ["parallel", "compile"])
def test_unknown_machine_key_rejected(key):
    with pytest.raises(StudyError, match=rf"unknown keys \['{key}'\]"):
        Study("s").cell("x", app="mapreduce.reference",
                        machine={"preset": "quiet", key: 2})


def test_undeclared_bound_axis_rejected_at_compile():
    s = Study("s").axis("nprocs", [4]).cell(
        "x", app="mapreduce.reference", bind={"alpha": "alpha"})
    with pytest.raises(StudyError, match="references axis"):
        s.jobs()


def test_missing_x_axis_rejected():
    s = Study("s").cell("x", app="mapreduce.reference")
    with pytest.raises(StudyError, match="nprocs"):
        s.jobs()


def test_x_axis_in_label_rejected():
    s = Study("s").axis("nprocs", [4]).cell(
        "P={nprocs}", app="mapreduce.reference")
    with pytest.raises(StudyError, match="x axis"):
        s.jobs()


def test_bound_axis_missing_from_label_rejected():
    """A cell that binds an axis but does not interpolate it into the
    label would silently overwrite one combination with the next."""
    s = _grid().cell("Dec", app="mapreduce.decoupled",
                     bind={"alpha": "alpha"})
    with pytest.raises(StudyError, match="label template"):
        s.jobs()


def test_binding_the_x_axis_rejected():
    with pytest.raises(StudyError, match="process count"):
        Study("s").cell("x", app="mapreduce.reference",
                        bind={"nprocs": "machine.noise.seed"})


def test_duplicate_series_label_rejected():
    s = (Study("s").axis("nprocs", [4])
         .cell("same", app="mapreduce.reference")
         .cell("same", app="mapreduce.decoupled"))
    with pytest.raises(StudyError, match="two cells"):
        s.jobs()


def test_duplicate_axis_rejected():
    with pytest.raises(StudyError, match="twice"):
        Study("s").axis("nprocs", [2]).axis("nprocs", [4])


def test_non_serializable_cell_param_rejected():
    with pytest.raises(StudyError, match="not JSON-serializable"):
        Study("s").cell("x", app="mapreduce.reference",
                        params={"alpha": object()})


def test_dotted_bind_outside_machine_rejected():
    with pytest.raises(StudyError, match="machine"):
        Study("s").axis("a", [1]).cell(
            "x {a}", app="mapreduce.reference", bind={"a": "config.alpha"})


def test_from_plan_placement_needs_a_graph_app():
    with pytest.raises(StudyError, match="from_plan"):
        Study("s").cell(
            "x", app="cg.blocking",
            machine={"placement": {"from_plan": True,
                                   "policy": "colocated"}})
