"""Builder validation and compilation of the declarative front-end."""

import pytest

from repro.api import GraphError, StreamGraph
from repro.core import PlanError
from repro.mpistream import Collector, RunningStats


def _body(ctx):
    yield from ctx.comm.barrier()


# ----------------------------------------------------------------------
# stage declaration
# ----------------------------------------------------------------------

def test_stage_and_flow_chain():
    g = StreamGraph()
    assert g.stage("a", fraction=0.5, body=_body) is g
    assert g.stage("b", fraction=0.5) is g
    assert g.flow("f", "a", "b", operator=Collector) is g


def test_duplicate_stage_rejected():
    g = StreamGraph().stage("a", fraction=0.5, body=_body)
    with pytest.raises(GraphError, match="duplicate stage"):
        g.stage("a", fraction=0.5)


def test_stage_needs_exactly_one_sizing():
    with pytest.raises(GraphError, match="exactly one"):
        StreamGraph().stage("a", fraction=0.5, size=4)
    with pytest.raises(GraphError, match="exactly one"):
        StreamGraph().stage("a")


def test_stage_fraction_range():
    with pytest.raises(GraphError, match="fraction"):
        StreamGraph().stage("a", fraction=0.0)
    with pytest.raises(GraphError, match="fraction"):
        StreamGraph().stage("a", fraction=1.5)


def test_stage_size_range():
    with pytest.raises(GraphError, match="size"):
        StreamGraph().stage("a", size=0)


# ----------------------------------------------------------------------
# flow declaration
# ----------------------------------------------------------------------

def test_unknown_stage_in_flow_rejected():
    g = StreamGraph().stage("a", fraction=0.5, body=_body)
    with pytest.raises(GraphError, match="unknown stage 'b'"):
        g.flow("f", "a", "b")
    with pytest.raises(GraphError, match="unknown stage 'c'"):
        g.flow("f", "c", "a")


def test_self_flow_rejected():
    g = StreamGraph().stage("a", fraction=0.5, body=_body)
    with pytest.raises(GraphError, match="distinct"):
        g.flow("f", "a", "a")


def test_duplicate_flow_rejected():
    g = (StreamGraph()
         .stage("a", fraction=0.5, body=_body)
         .stage("b", fraction=0.5, body=_body)
         .flow("f", "a", "b"))
    with pytest.raises(GraphError, match="duplicate flow"):
        g.flow("f", "b", "a")


def test_flow_parameter_validation():
    g = (StreamGraph()
         .stage("a", fraction=0.5, body=_body)
         .stage("b", fraction=0.5, body=_body))
    with pytest.raises(GraphError, match="window"):
        g.flow("f", "a", "b", window=0)
    with pytest.raises(GraphError, match="element_overhead"):
        g.flow("f", "a", "b", element_overhead=-1.0)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

def test_empty_graph_rejected():
    with pytest.raises(GraphError, match="no stages"):
        StreamGraph().compile(8)


def test_fraction_overflow_rejected():
    g = (StreamGraph()
         .stage("a", fraction=0.75, body=_body)
         .stage("b", fraction=0.75, body=_body))
    with pytest.raises(GraphError, match="overflow"):
        g.compile(8)


def test_size_plus_fraction_overflow_rejected():
    g = (StreamGraph()
         .stage("a", size=6, body=_body)
         .stage("b", fraction=0.5, body=_body))
    with pytest.raises(GraphError, match="overflow"):
        g.compile(8)


def test_missing_body_for_producer_stage():
    g = (StreamGraph()
         .stage("a", fraction=0.5)
         .stage("b", fraction=0.5, body=_body)
         .flow("f", "a", "b", operator=Collector))
    with pytest.raises(GraphError, match="missing body"):
        g.compile(8)


def test_missing_body_for_isolated_stage():
    g = (StreamGraph()
         .stage("a", fraction=0.5, body=_body)
         .stage("b", fraction=0.5))
    with pytest.raises(GraphError, match="missing body"):
        g.compile(8)


def test_missing_body_without_operator():
    g = (StreamGraph()
         .stage("a", fraction=0.5, body=_body)
         .stage("b", fraction=0.5)
         .flow("f", "a", "b"))
    with pytest.raises(GraphError, match="missing body"):
        g.compile(8)


def test_fraction_underflow_rejected():
    """Fractions that undercover the machine would silently inflate the
    largest stage via the plan's drift rule — reject instead."""
    g = (StreamGraph()
         .stage("compute", fraction=0.25, body=_body)
         .stage("analyze", fraction=0.125, body=_body))
    with pytest.raises(GraphError, match="undercover"):
        g.compile(64)


def test_fraction_rounding_drift_tolerated():
    """Fractions summing to 1 keep compiling even when sizes round."""
    g = (StreamGraph()
         .stage("a", fraction=1 / 3, body=_body)
         .stage("b", fraction=2 / 3, body=_body))
    plan = g.compile(16).plan
    assert plan.groups["a"].size + plan.groups["b"].size == 16


def test_explicit_sizes_undercovering_machine_rejected():
    """Gross undercoverage by explicit sizes is rejected up front."""
    g = (StreamGraph()
         .stage("workers", size=4, body=_body)
         .stage("sink", size=1, body=_body))
    with pytest.raises(GraphError, match="undercover"):
        g.compile(64)


def test_explicit_size_never_silently_inflated():
    """Within rounding slack, drift is still never credited to an
    explicitly sized stage."""
    g = (StreamGraph()
         .stage("a", fraction=0.28, body=_body)   # round(4.48) = 4
         .stage("b", size=11, body=_body))        # drift +1 lands on b
    with pytest.raises(GraphError, match="declared size 11"):
        g.compile(16)


def test_too_few_processes_rejected():
    g = (StreamGraph()
         .stage("a", fraction=0.5, body=_body)
         .stage("b", fraction=0.5, body=_body))
    with pytest.raises(GraphError, match="cannot host"):
        g.compile(1)


def test_graph_error_is_a_plan_error():
    # callers guarding the low-level API keep working on the builder
    assert issubclass(GraphError, PlanError)
    with pytest.raises(PlanError):
        StreamGraph().compile(4)


def test_compile_lowers_to_plan():
    g = (StreamGraph()
         .stage("compute", fraction=0.75, body=_body)
         .stage("analyze", fraction=0.25)
         .flow("samples", "compute", "analyze", operator=RunningStats))
    compiled = g.compile(16)
    plan = compiled.plan
    assert compiled.total_procs == 16
    assert plan.groups["compute"].size == 12
    assert plan.groups["analyze"].size == 4
    assert plan.alpha("analyze") == pytest.approx(0.25)
    assert [f.name for f in plan.flows] == ["samples"]
    assert plan.group_of(0) == "compute"
    assert plan.group_of(15) == "analyze"


def test_flows_in_out_views():
    g = (StreamGraph()
         .stage("a", size=2, body=_body)
         .stage("b", size=2, body=_body)
         .stage("c", size=2, body=_body)
         .flow("ab", "a", "b")
         .flow("bc", "b", "c"))
    assert [f.name for f in g.flows_out("a")] == ["ab"]
    assert [f.name for f in g.flows_in("c")] == ["bc"]
    assert [f.name for f in g.flows_in("b")] == ["ab"]
    assert [f.name for f in g.flows_out("b")] == ["bc"]
