"""Unit + property tests for the Eq. 1-4 performance model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StreamGraph
from repro.core.model import (
    BetaModel,
    auto_size_plan,
    conventional_time,
    decoupled_time_beta,
    decoupled_time_full,
    decoupled_time_overlap,
    optimal_alpha,
    optimal_granularity,
    predicted_sigma,
    speedup,
)
from repro.mpistream import RunningStats
from repro.simmpi import quiet_testbed

pos = st.floats(min_value=1e-3, max_value=1e3,
                allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=0.01, max_value=0.99)
betas = st.floats(min_value=0.0, max_value=1.0)


def test_eq1_is_the_sum():
    assert conventional_time(10, 5, 1) == 16


def test_eq2_balanced_point():
    # alpha = 0.5: both branches equal
    td = decoupled_time_overlap(t_w0=5, t_sigma=0, t_w1_decoupled=5, alpha=0.5)
    assert td == pytest.approx(10.0)


def test_eq2_compute_bound():
    td = decoupled_time_overlap(t_w0=100, t_sigma=1, t_w1_decoupled=0.1,
                                alpha=0.0625)
    assert td == pytest.approx(100 / 0.9375 + 1)


def test_eq2_decoupled_bound():
    td = decoupled_time_overlap(t_w0=0.1, t_sigma=0, t_w1_decoupled=10,
                                alpha=0.0625)
    assert td == pytest.approx(10 / 0.0625)


def test_eq3_limits():
    """beta=1 degenerates to the staged sum; beta=0 to the decoupled op."""
    kw = dict(t_w0=8.0, t_sigma=1.0, t_w1_decoupled=2.0, alpha=0.5)
    staged = decoupled_time_beta(beta=1.0, **kw)
    assert staged == pytest.approx(8 / 0.5 + 1 + 2 / 0.5)
    pipelined = decoupled_time_beta(beta=0.0, **kw)
    assert pipelined == pytest.approx(2 / 0.5)


def test_eq4_overhead_term():
    """With beta fixed at 1, Eq. 4 exceeds Eq. 3 by exactly (D/S)*o."""
    const_beta = lambda S: 1.0
    t3 = decoupled_time_beta(10, 0, 1, 0.5, 1.0)
    t4 = decoupled_time_full(10, 0, 1, 0.5, const_beta, D=1e6, S=1e3, o=1e-3)
    assert t4 - t3 == pytest.approx((1e6 / 1e3) * 1e-3)


def test_eq4_granularity_tradeoff():
    """Very fine granularity pays overhead; very coarse loses pipeline —
    a middle S beats both extremes under the default beta model."""
    beta = BetaModel(beta_min=0.05, s_half=1e6)
    kw = dict(t_w0=10, t_sigma=0.5, t_w1_decoupled=1, alpha=0.25,
              beta_of_s=beta, D=1e8, o=2e-5)
    t_fine = decoupled_time_full(S=64, **kw)
    t_coarse = decoupled_time_full(S=1e8, **kw)
    t_mid = decoupled_time_full(S=1e4, **kw)
    assert t_mid < t_fine
    assert t_mid < t_coarse


def test_speedup():
    assert speedup(8.0, 2.0) == 4.0
    with pytest.raises(ValueError):
        speedup(1.0, 0.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        conventional_time(-1, 0, 0)
    with pytest.raises(ValueError):
        decoupled_time_overlap(1, 0, 1, alpha=0.0)
    with pytest.raises(ValueError):
        decoupled_time_overlap(1, 0, 1, alpha=1.0)
    with pytest.raises(ValueError):
        decoupled_time_beta(1, 0, 1, 0.5, beta=1.5)
    with pytest.raises(ValueError):
        decoupled_time_full(1, 0, 1, 0.5, lambda s: 0.5, D=1, S=0, o=0)


# ----------------------------------------------------------------------
# BetaModel
# ----------------------------------------------------------------------

def test_beta_model_limits():
    b = BetaModel(beta_min=0.1, s_half=1000)
    assert b(1e-9) == pytest.approx(0.1, abs=1e-6)
    assert b(1000) == pytest.approx(0.1 + 0.9 * 0.5)
    assert b(1e12) == pytest.approx(1.0, abs=1e-6)


def test_beta_model_monotone_in_s():
    b = BetaModel()
    xs = [2 ** k for k in range(4, 30)]
    vals = [b(x) for x in xs]
    assert vals == sorted(vals)


def test_beta_model_validation():
    with pytest.raises(ValueError):
        BetaModel(beta_min=1.5)
    with pytest.raises(ValueError):
        BetaModel(s_half=0)
    with pytest.raises(ValueError):
        BetaModel()(0)


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------

def test_optimal_alpha_balances_branches():
    t_w0 = 10.0
    t1 = lambda a: 1.0  # constant decoupled-op time
    a = optimal_alpha(t_w0, 0.0, t1)
    left = t_w0 / (1 - a)
    right = 1.0 / a
    assert left == pytest.approx(right, rel=1e-3)


def test_optimal_alpha_clamps_when_compute_dominates():
    a = optimal_alpha(1000.0, 0.0, lambda a: 1e-9)
    assert a == pytest.approx(1e-3)


def test_optimal_alpha_clamps_when_decoupled_dominates():
    a = optimal_alpha(1e-9, 0.0, lambda a: 1000.0)
    assert a == pytest.approx(1.0 - 1e-3)


@given(t_w0=pos, t1=pos)
@settings(max_examples=60, deadline=None)
def test_optimal_alpha_is_optimal(t_w0, t1):
    """Property: Eq. 2 at alpha* never exceeds Eq. 2 on a probe grid."""
    a_star = optimal_alpha(t_w0, 0.0, lambda a: t1)
    best = decoupled_time_overlap(t_w0, 0.0, t1, a_star)
    for a in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
        assert best <= decoupled_time_overlap(t_w0, 0.0, t1, a) * 1.001


def test_optimal_granularity_interior_optimum():
    beta = BetaModel(beta_min=0.05, s_half=1e6)
    s_star, t_star = optimal_granularity(
        t_w0=10, t_sigma=0.5, t_w1_decoupled=1, alpha=0.25,
        beta_of_s=beta, D=1e8, o=2e-5,
    )
    assert 64 < s_star < 1e8
    # optimum beats the extremes
    t_fine = decoupled_time_full(10, 0.5, 1, 0.25, beta, 1e8, 64, 2e-5)
    t_coarse = decoupled_time_full(10, 0.5, 1, 0.25, beta, 1e8, 1e8, 2e-5)
    assert t_star <= min(t_fine, t_coarse)


def test_optimal_granularity_tiny_d():
    s, t = optimal_granularity(1, 0, 1, 0.5, BetaModel(), D=10, o=1e-6)
    assert s == 10


# ----------------------------------------------------------------------
# predicted sigma
# ----------------------------------------------------------------------

def test_predicted_sigma_grows_with_scale():
    s32 = predicted_sigma(10.0, 32, 0.02, 0.01)
    s8192 = predicted_sigma(10.0, 8192, 0.02, 0.01)
    assert 0 < s32 < s8192


def test_predicted_sigma_zero_noise():
    assert predicted_sigma(10.0, 1024, 0.0, 0.0) == pytest.approx(0.0)


def test_predicted_sigma_single_process():
    assert predicted_sigma(10.0, 1, 0.5, 0.02) == pytest.approx(0.2)


@given(alpha=alphas, beta=betas, t_w0=pos, t_w1=pos, t_sigma=pos)
@settings(max_examples=80, deadline=None)
def test_property_eq3_between_limits(alpha, beta, t_w0, t_w1, t_sigma):
    """Eq. 3 is monotone in beta: bounded by its beta=0 and beta=1 values."""
    lo = decoupled_time_beta(t_w0, t_sigma, t_w1, alpha, 0.0)
    hi = decoupled_time_beta(t_w0, t_sigma, t_w1, alpha, 1.0)
    mid = decoupled_time_beta(t_w0, t_sigma, t_w1, alpha, beta)
    assert lo - 1e-9 <= mid <= hi + 1e-9


@given(alpha=alphas, t_w0=pos, t_w1=pos)
@settings(max_examples=80, deadline=None)
def test_property_eq2_lower_bounds_eq3(alpha, t_w0, t_w1):
    """Perfect pipelining (Eq. 2) never loses to partial (Eq. 3 with the
    pessimistic finish-order assumption) at beta where both apply."""
    eq2 = decoupled_time_overlap(t_w0, 0.0, t_w1, alpha)
    eq3 = decoupled_time_beta(t_w0, 0.0, t_w1, alpha, beta=1.0)
    assert eq2 <= eq3 + 1e-9


# ----------------------------------------------------------------------
# auto_size_plan: Eq. 2 helper-group sizing
# ----------------------------------------------------------------------

def _sizing_body(ctx):
    with ctx.producer("f") as out:
        for _ in range(4):
            yield from ctx.compute(0.01)
            yield from out.send(1.0)


def _sizable_graph(work_src=0.8, work_dst=0.2):
    return (StreamGraph("sizable")
            .stage("src", fraction=0.75, body=_sizing_body, work=work_src)
            .stage("dst", fraction=0.25, work=work_dst)
            .flow("f", "src", "dst", operator=RunningStats))


def _sizes(plan):
    return {n: g.size for n, g in plan.groups.items()}


def test_auto_size_plan_resizes_at_the_balance_point():
    g = _sizable_graph()
    declared = g.compile(16).plan
    plan, notes = auto_size_plan(g, declared, machine=quiet_testbed())
    # 0.8 / (1 - a) = 0.2 / a at a = 0.2: round(3.2) = 3 helper ranks
    assert _sizes(plan) == {"src": 13, "dst": 3}
    assert notes[0].startswith("alpha* = 0.2000")
    assert notes[0].endswith("3/16 helper ranks")
    assert notes[1:] == ["src: resized 12 -> 13 ranks",
                         "dst: resized 4 -> 3 ranks"]
    # the input plan is left as declared; the copy keeps the flows
    assert _sizes(declared) == {"src": 12, "dst": 4}
    assert plan.flows == declared.flows
    assert plan.group_of(15) == "dst"


def test_auto_size_plan_skips_pinned_sizes():
    g = (StreamGraph()
         .stage("src", size=6, body=_sizing_body, work=1.0)
         .stage("dst", size=2, work=0.3)
         .flow("f", "src", "dst", operator=RunningStats))
    declared = g.compile(8).plan
    plan, notes = auto_size_plan(g, declared)
    assert plan is declared
    assert notes == ["skipped: stage(s) ['src', 'dst'] pin explicit sizes"]


def test_auto_size_plan_skips_missing_work_hints():
    g = (StreamGraph()
         .stage("src", fraction=0.75, body=_sizing_body)
         .stage("dst", fraction=0.25)
         .flow("f", "src", "dst", operator=RunningStats))
    declared = g.compile(8).plan
    plan, notes = auto_size_plan(g, declared)
    assert plan is declared
    assert "no work= hint" in notes[0]


def test_auto_size_plan_beta_scaling_enters_the_model():
    g = _sizable_graph()
    coarse, coarse_notes = auto_size_plan(g, g.compile(16).plan)
    fine, fine_notes = auto_size_plan(g, g.compile(16).plan,
                                      granularity=64.0)
    # tiny elements pipeline well: beta(S) < 1 shrinks helper-side work
    assert "x beta" in fine_notes[0] and "x beta" not in coarse_notes[0]
    assert _sizes(fine)["dst"] < _sizes(coarse)["dst"]
