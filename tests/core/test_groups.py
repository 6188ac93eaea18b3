"""Unit + property tests for decoupling plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import DecouplingPlan, PlanError


def _simple_plan(p=64, alpha=0.0625):
    plan = DecouplingPlan(p)
    plan.add_group("compute", fraction=1 - alpha)
    plan.add_group("reduce", fraction=alpha)
    plan.add_flow("data", src="compute", dst="reduce")
    return plan.validate()


def test_fractions_resolve_to_sizes():
    plan = _simple_plan(64, 0.0625)
    assert plan.groups["compute"].size == 60
    assert plan.groups["reduce"].size == 4
    assert plan.alpha("reduce") == pytest.approx(4 / 64)


def test_groups_cover_all_ranks_disjointly():
    plan = _simple_plan(100, 0.1)
    seen = [plan.group_of(r) for r in range(100)]
    assert seen.count("reduce") == plan.groups["reduce"].size
    assert seen.count("compute") == plan.groups["compute"].size


def test_contiguous_blocks_in_declaration_order():
    plan = _simple_plan(64)
    assert plan.group_of(0) == "compute"
    assert plan.group_of(59) == "compute"
    assert plan.group_of(60) == "reduce"
    assert plan.group_of(63) == "reduce"


def test_absolute_size_groups():
    plan = DecouplingPlan(10)
    plan.add_group("a", size=7)
    plan.add_group("b", size=3)
    plan.validate()
    assert plan.groups["a"].size == 7


def test_tiny_fraction_floors_at_one_rank():
    plan = DecouplingPlan(8)
    plan.add_group("big", fraction=0.99)
    plan.add_group("tiny", fraction=0.01)
    plan.validate()
    assert plan.groups["tiny"].size == 1
    assert plan.groups["big"].size == 7


def test_flow_ranks_are_its_two_groups_ascending():
    plan = DecouplingPlan(10)
    plan.add_group("a", size=3)
    plan.add_group("b", size=4)
    plan.add_group("c", size=3)
    plan.add_flow("back", src="c", dst="a")
    plan.validate()
    assert plan.flow_ranks("back") == (0, 1, 2, 7, 8, 9)
    assert plan.flow_ranks("back") is plan.flow_ranks("back")
    with pytest.raises(PlanError, match="unknown flow"):
        plan.flow_ranks("nope")
    # each group's members: one shared ascending tuple per group
    b = plan.group_ranks("b")
    assert b == (3, 4, 5, 6)
    assert plan.group_ranks("b") is b
    with pytest.raises(PlanError, match="unknown group"):
        plan.group_ranks("nope")
    # re-validating drops the cache, even for a block that did not move
    plan.validate()
    assert plan.group_ranks("b") == b
    assert plan.group_ranks("b") is not b
    # re-validating moves the blocks (b shrinks to absorb d)
    plan.add_group("d", size=2)
    plan.validate()
    assert plan.flow_ranks("back") == (0, 1, 2, 5, 6, 7)
    assert plan.group_ranks("b") == (3, 4)


def test_duplicate_group_rejected():
    plan = DecouplingPlan(4)
    plan.add_group("g", fraction=0.5)
    with pytest.raises(PlanError):
        plan.add_group("g", fraction=0.5)


def test_unknown_group_rejected():
    plan = DecouplingPlan(4)
    plan.add_group("a", fraction=1.0)
    with pytest.raises(PlanError):
        plan.add_flow("f", "a", "nope")


def test_self_flow_rejected():
    plan = DecouplingPlan(4)
    plan.add_group("a", fraction=1.0)
    with pytest.raises(PlanError):
        plan.add_flow("f", "a", "a")


def test_fraction_and_size_both_given_rejected():
    plan = DecouplingPlan(4)
    with pytest.raises(PlanError):
        plan.add_group("a", fraction=0.5, size=2)
    with pytest.raises(PlanError):
        plan.add_group("a")


def test_queries_before_validate_rejected():
    plan = DecouplingPlan(4)
    plan.add_group("a", fraction=1.0)
    with pytest.raises(PlanError):
        plan.group_of(0)


def test_empty_plan_rejected():
    with pytest.raises(PlanError):
        DecouplingPlan(4).validate()


@given(
    p=st.integers(min_value=2, max_value=8192),
    frac=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=100)
def test_property_partition_exact(p, frac):
    """For any P and alpha: sizes are positive and sum to exactly P; every
    rank belongs to exactly one group."""
    plan = DecouplingPlan(p)
    plan.add_group("main", fraction=1 - frac)
    plan.add_group("aux", fraction=frac)
    plan.validate()
    sizes = [plan.groups[n].size for n in ("main", "aux")]
    assert all(s >= 1 for s in sizes)
    assert sum(sizes) == p
    counts = {"main": 0, "aux": 0}
    for r in range(p):
        counts[plan.group_of(r)] += 1
    assert counts["main"] == sizes[0]
    assert counts["aux"] == sizes[1]


@given(p=st.integers(min_value=3, max_value=2048))
@settings(max_examples=60)
def test_property_three_group_partition(p):
    plan = DecouplingPlan(p)
    plan.add_group("a", fraction=0.7)
    plan.add_group("b", fraction=0.2)
    plan.add_group("c", fraction=0.1)
    plan.validate()
    assert sum(plan.groups[n].size for n in "abc") == p
    # contiguity: group changes at most twice over the rank axis
    changes = sum(
        1 for r in range(1, p) if plan.group_of(r) != plan.group_of(r - 1)
    )
    assert changes == 2
