"""Tests for trace recording, rendering and analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    Tracer,
    concurrency_profile,
    idle_fraction,
    imbalance_stats,
    legend,
    measure,
    measured_beta,
    merge_intervals,
    overlap_fraction,
    render,
)


def _t(intervals):
    tr = Tracer()
    for rank, cat, label, t0, t1 in intervals:
        tr.record(rank, cat, label, t0, t1)
    return tr


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------

def test_record_and_filter():
    tr = _t([(0, "compute", "a", 0, 1), (1, "wait", "w", 1, 2)])
    assert len(tr.for_rank(0)) == 1
    assert len(tr.by_category("wait")) == 1
    assert tr.by_label("a")[0].duration == 1.0
    assert tr.ranks() == [0, 1]
    assert tr.span() == (0.0, 2.0)


def test_zero_length_dropped():
    tr = _t([(0, "compute", "a", 1, 1)])
    assert tr.intervals == []


def test_end_open_ends_only_that_ranks_open_intervals():
    tr = _t([(0, "compute", "a", 0, 1), (0, "compute", "b", 1, 3),
             (1, "compute", "c", 1, 3), (0, "compute", "d", 2, 4)])
    tr.end_open(0, 2)
    assert [(iv.rank, iv.label, iv.t0, iv.t1) for iv in tr.intervals] == [
        (0, "a", 0, 1), (0, "b", 1, 2), (1, "c", 1, 3)]


def test_total_time_and_breakdown():
    tr = _t([
        (0, "compute", "a", 0, 1),
        (0, "compute", "b", 1, 3),
        (0, "wait", "w", 3, 4),
    ])
    assert tr.total_time(rank=0) == 4.0
    assert tr.total_time(category="compute") == 3.0
    assert tr.total_time(label="b") == 2.0
    assert tr.category_breakdown(0) == {"compute": 3.0, "wait": 1.0}


def test_to_records_roundtrip():
    tr = _t([(2, "io", "f", 0.5, 1.5)])
    recs = tr.to_records()
    assert recs == [{"rank": 2, "category": "io", "label": "f",
                     "t0": 0.5, "t1": 1.5}]


# ----------------------------------------------------------------------
# interval set algebra
# ----------------------------------------------------------------------

def test_merge_intervals_overlapping():
    assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]


def test_merge_intervals_touching():
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]


def test_measure_union_not_sum():
    assert measure([(0, 2), (1, 3)]) == 3.0


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
), max_size=30))
@settings(max_examples=80)
def test_property_measure_bounds(spans):
    spans = [(min(a, b), max(a, b)) for a, b in spans]
    m = measure(spans)
    total = sum(b - a for a, b in spans)
    assert 0 <= m <= total + 1e-9
    lo = min((a for a, _ in spans), default=0)
    hi = max((b for _, b in spans), default=0)
    assert m <= (hi - lo) + 1e-9


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def test_overlap_fraction_full_and_none():
    tr = _t([
        (0, "compute", "A", 0, 10),
        (1, "compute", "B", 0, 10),
    ])
    assert overlap_fraction(tr, "A", "B") == pytest.approx(1.0)
    tr2 = _t([
        (0, "compute", "A", 0, 10),
        (1, "compute", "B", 10, 20),
    ])
    assert overlap_fraction(tr2, "A", "B") == pytest.approx(0.0)


def test_overlap_fraction_partial():
    tr = _t([
        (0, "compute", "A", 0, 10),
        (1, "compute", "B", 5, 15),
    ])
    assert overlap_fraction(tr, "A", "B") == pytest.approx(0.5)


def test_overlap_fraction_missing_label():
    tr = _t([(0, "compute", "A", 0, 1)])
    assert overlap_fraction(tr, "A", "nope") == 0.0
    assert overlap_fraction(tr, "nope", "A") == 0.0


def test_measured_beta_staged_vs_pipelined():
    staged = _t([
        (0, "compute", "op0", 0, 10),
        (0, "compute", "op1", 10, 12),
    ])
    assert measured_beta(staged, "op0", "op1") == pytest.approx(1.0)
    pipelined = _t([
        (0, "compute", "op0", 0, 10),
        (1, "compute", "op1", 0.5, 12),
    ])
    assert measured_beta(pipelined, "op0", "op1") == pytest.approx(0.05)


def test_measured_beta_no_op1_is_one():
    tr = _t([(0, "compute", "op0", 0, 10)])
    assert measured_beta(tr, "op0", "op1") == 1.0


def test_idle_fraction():
    tr = _t([
        (0, "compute", "a", 0, 5),
        (0, "wait", "w", 5, 10),
    ])
    assert idle_fraction(tr, 0) == pytest.approx(0.5)
    assert idle_fraction(tr, 99) == 0.0


def test_imbalance_stats():
    tr = _t([
        (0, "compute", "a", 0, 1),
        (1, "compute", "a", 0, 3),
    ])
    stats = imbalance_stats(tr)
    assert stats["min"] == 1.0 and stats["max"] == 3.0
    assert stats["mean"] == 2.0
    assert stats["ranks"] == 2
    assert stats["cv"] == pytest.approx(0.5)


def test_imbalance_stats_empty():
    assert imbalance_stats(Tracer())["ranks"] == 0


def test_concurrency_profile_shape():
    tr = _t([
        (0, "compute", "k", 0, 10),
        (1, "compute", "k", 0, 5),
    ])
    prof = concurrency_profile(tr, "k", nbuckets=10)
    assert prof[0] == 2
    assert prof[-1] == 1
    assert concurrency_profile(tr, "nope", nbuckets=4) == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def test_render_shows_rows_and_glyphs():
    tr = _t([
        (0, "compute", "mover", 0, 1),
        (1, "wait", "recv", 0, 1),
    ])
    text = render(tr, width=20)
    lines = text.splitlines()
    assert lines[0].startswith("rank 0 |")
    assert "m" in lines[0]
    assert "~" in lines[1]


def test_render_idle_gap():
    tr = _t([
        (0, "compute", "a", 0, 1),
        (0, "compute", "b", 3, 4),
    ])
    text = render(tr, width=40)
    assert "." in text.splitlines()[0]


def test_render_empty():
    assert render(Tracer()) == "(empty trace)"


def test_render_respects_rank_subset():
    tr = _t([(r, "compute", "a", 0, 1) for r in range(5)])
    text = render(tr, ranks=[0, 4], width=10)
    assert len(text.splitlines()) == 3  # 2 rows + footer


def test_legend_lists_glyphs():
    tr = _t([
        (0, "compute", "mover", 0, 1),
        (0, "io", "dump", 1, 2),
    ])
    text = legend(tr)
    assert "compute:mover" in text
    assert "#" in text  # io glyph


def test_render_from_simulation():
    """End-to-end: render a real simulated trace."""
    from repro.simmpi import quiet_testbed, run

    def prog(comm):
        yield from comm.compute(1.0, label="calc")
        yield from comm.barrier()

    r = run(prog, 4, machine=quiet_testbed(), trace=True)
    text = render(r.tracer, width=30)
    assert "rank 0" in text and "c" in text
