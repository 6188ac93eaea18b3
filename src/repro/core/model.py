"""The Section II-D performance model (Eqs. 1-4) and its solvers.

Notation (matching the paper):

=========  ============================================================
``t_w0``   per-process time of the retained operation Op0, on P procs
``t_w1``   per-process time of the decoupled operation Op1, on P procs
``t_sigma``  expected synchronization/imbalance cost
``alpha``  fraction of processes dedicated to Op1  (0 < alpha < 1)
``beta``   fraction of Op0 *not* overlapped with Op1 (0 = perfect
           pipeline, 1 = no pipelining)
``D``      total bytes streamed between the groups
``S``      stream-element granularity in bytes
``o``      per-element overhead (construction + injection call)
``t_w1_decoupled``  Op1's time once it runs on alpha*P processes —
           the paper's T'_W1, supplied by the caller because it is
           operation-specific (e.g. a reduce tree shrinks with group
           size, I/O gains from buffering)
=========  ============================================================

Every equation returns *seconds of predicted execution time*; the
validation benchmark replays the same scenarios through the simulator
and compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .groups import DecouplingPlan


def conventional_time(t_w0: float, t_w1: float, t_sigma: float) -> float:
    """Eq. 1: ``Tc = T_W0 + T_sigma + T_W1`` — the staged bulk-synchronous
    execution where every process performs both operations."""
    _check_nonneg(t_w0=t_w0, t_w1=t_w1, t_sigma=t_sigma)
    return t_w0 + t_sigma + t_w1


def decoupled_time_overlap(t_w0: float, t_sigma: float,
                           t_w1_decoupled: float, alpha: float) -> float:
    """Eq. 2: perfect-pipelining bound.

    ``Td = max( T_W0 / (1-alpha) + T_sigma,  T'_W1 / alpha )`` — the two
    groups progress fully in parallel; whichever group is busier sets
    the makespan.  Note the workload re-scaling: the (1-alpha)P compute
    processes each carry 1/(1-alpha) of the per-process work, and the
    alpha*P decoupled processes carry 1/alpha of theirs.
    """
    _check_alpha(alpha)
    _check_nonneg(t_w0=t_w0, t_sigma=t_sigma, t_w1_decoupled=t_w1_decoupled)
    return max(t_w0 / (1.0 - alpha) + t_sigma, t_w1_decoupled / alpha)


def decoupled_time_beta(t_w0: float, t_sigma: float, t_w1_decoupled: float,
                        alpha: float, beta: float) -> float:
    """Eq. 3: partial pipelining under the paper's pessimistic assumption
    that Op1 always finishes after Op0.

    ``Td = beta * [T_W0/(1-alpha) + T_sigma] + T'_W1/alpha``:
    beta = 1 degenerates to the staged sum, beta = 0 to the decoupled
    operation alone.
    """
    _check_alpha(alpha)
    _check_beta(beta)
    _check_nonneg(t_w0=t_w0, t_sigma=t_sigma, t_w1_decoupled=t_w1_decoupled)
    return beta * (t_w0 / (1.0 - alpha) + t_sigma) + t_w1_decoupled / alpha


def decoupled_time_full(t_w0: float, t_sigma: float, t_w1_decoupled: float,
                        alpha: float, beta_of_s: Callable[[float], float],
                        D: float, S: float, o: float) -> float:
    """Eq. 4: Eq. 3 plus the stream overhead term ``(D/S) * o`` and
    granularity-dependent pipelining ``beta(S)``.

    Finer elements (small S) improve pipelining (lower beta) but pay
    more injection overhead — the central trade-off of the approach.
    """
    _check_alpha(alpha)
    _check_nonneg(t_w0=t_w0, t_sigma=t_sigma,
                  t_w1_decoupled=t_w1_decoupled, D=D, o=o)
    if S <= 0:
        raise ValueError("granularity S must be positive")
    beta = beta_of_s(S)
    _check_beta(beta)
    n_elements = D / S
    return beta * (t_w0 / (1.0 - alpha) + t_sigma + n_elements * o) \
        + t_w1_decoupled / alpha


def speedup(tc: float, td: float) -> float:
    """Conventional / decoupled — the paper's "Nx improvement"."""
    if td <= 0:
        raise ValueError("decoupled time must be positive")
    return tc / td


# ----------------------------------------------------------------------
# beta(S): pipelining efficiency as a function of granularity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BetaModel:
    """A concrete ``beta(S)`` family.

    The paper states only that finer-grained elements pipeline better
    ("beta is a function of S; the finer grain the stream element is,
    the higher pipelining can be achieved").  We use the saturating form

        ``beta(S) = beta_min + (1 - beta_min) * S / (S + S_half)``

    - S -> 0:    beta -> beta_min  (best achievable overlap)
    - S = S_half: halfway between floor and 1
    - S -> inf:  beta -> 1         (one giant element = staged execution)

    ``beta_min`` captures the un-overlappable head of the pipeline (the
    consumer cannot start before the first element exists).
    """

    beta_min: float = 0.05
    s_half: float = 1 << 20  # 1 MiB

    def __post_init__(self):
        _check_beta(self.beta_min)
        if self.s_half <= 0:
            raise ValueError("s_half must be positive")

    def __call__(self, S: float) -> float:
        if S <= 0:
            raise ValueError("granularity S must be positive")
        return self.beta_min + (1.0 - self.beta_min) * S / (S + self.s_half)


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------

def optimal_alpha(t_w0: float, t_sigma: float,
                  t_w1_decoupled: Callable[[float], float],
                  lo: float = 1e-3, hi: float = 1.0 - 1e-3,
                  tol: float = 1e-6) -> float:
    """The alpha that balances the two groups in Eq. 2.

    ``t_w1_decoupled(alpha)`` gives T'_W1 for a group of alpha*P procs
    (supplied by the caller: shrinking a reduce tree, buffering I/O...).
    The compute branch ``T_W0/(1-a) + T_sigma`` increases in alpha while
    the decoupled branch ``T'_W1(a)/a`` decreases (for any sensible
    T'_W1), so the max is minimized where they cross; bisection finds
    the crossing, clamped to the search interval.
    """
    _check_nonneg(t_w0=t_w0, t_sigma=t_sigma)

    def gap(a: float) -> float:
        return (t_w0 / (1.0 - a) + t_sigma) - t_w1_decoupled(a) / a

    glo, ghi = gap(lo), gap(hi)
    if glo >= 0:     # compute branch dominates even at tiny alpha
        return lo
    if ghi <= 0:     # decoupled branch dominates even at huge alpha
        return hi
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if gap(mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def optimal_granularity(t_w0: float, t_sigma: float, t_w1_decoupled: float,
                        alpha: float, beta_of_s: Callable[[float], float],
                        D: float, o: float,
                        s_grid: Optional[Sequence[float]] = None
                        ) -> Tuple[float, float]:
    """Minimize Eq. 4 over the granularity S.

    Returns ``(S*, Td(S*))``.  Default search grid: 64 log-spaced points
    from 64 B to D (one element).
    """
    if s_grid is None:
        if D <= 64:
            s_grid = [max(D, 1.0)]
        else:
            n = 64
            lo, hi = math.log(64.0), math.log(float(D))
            s_grid = [math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(n)]
    best_s, best_t = None, float("inf")
    for S in s_grid:
        td = decoupled_time_full(t_w0, t_sigma, t_w1_decoupled, alpha,
                                 beta_of_s, D, S, o)
        if td < best_t:
            best_s, best_t = S, td
    return best_s, best_t


def predicted_sigma(per_op_time: float, nprocs: int,
                    persistent_skew: float, quantum_fraction: float) -> float:
    """Analytic T_sigma for a bulk-synchronous phase on ``nprocs`` ranks.

    The slowest of P lognormal(0, skew) ranks runs at approximately
    ``exp(skew * sqrt(2 ln P))`` of the median; transient noise adds
    ``quantum_fraction`` in expectation.  T_sigma is the *extra* time
    beyond the nominal phase length.
    """
    _check_nonneg(per_op_time=per_op_time)
    if nprocs <= 1:
        return per_op_time * quantum_fraction
    max_factor = math.exp(persistent_skew * math.sqrt(2.0 * math.log(nprocs)))
    return per_op_time * (max_factor * (1.0 + quantum_fraction) - 1.0)


# ----------------------------------------------------------------------
# model-driven group sizing
# ----------------------------------------------------------------------

def _distribute(total: int, stages, weights: Dict[str, float]
                ) -> Dict[str, int]:
    """Split ``total`` ranks over ``stages`` proportional to ``weights``,
    every stage >= 1, remainder to the heaviest stage."""
    names = [s.name for s in stages]
    wsum = sum(weights[n] for n in names)
    sizes = {n: max(1, int(round(total * weights[n] / wsum))) for n in names}
    heaviest = max(names, key=lambda n: weights[n])
    sizes[heaviest] += total - sum(sizes.values())
    return sizes


def auto_size_plan(graph, plan: DecouplingPlan, machine=None,
                   granularity: Optional[float] = None
                   ) -> Tuple[DecouplingPlan, List[str]]:
    """Re-size ``plan``'s groups at Eq. 2's balance point.

    The paper hand-sets alpha; this derives it from a model instead.
    Each stage of ``graph`` (a :class:`~repro.api.graph.StreamGraph`)
    declares ``work=``, its nominal seconds if the whole machine ran
    it.  Pure consumers are the helper side (T'_W1), every other stage
    the compute side (T_W0), and :func:`optimal_alpha` solves

        T_W0 / (1 - alpha) + T_sigma = T'_W1 / alpha

    with T_sigma from ``machine``'s noise model (:func:`predicted_sigma`,
    zero without a machine).  A stream ``granularity`` S in bytes
    scales the helper-side work by :class:`BetaModel` beta(S).

    Returns ``(resized_plan, notes)``: the first note is the ``alpha*``
    line, then one line per resized group.  When sizing does not apply
    (a stage pins ``size=`` or lacks ``work=``, no producer/consumer
    split exists, or the rounding cannot place every stage) it returns
    ``plan`` itself and the reason.  Run a resized plan through
    ``CompiledGraph(graph, resized_plan)``; it changes simulated
    results by design.
    """
    stages = graph.stages
    nprocs = plan.total_procs

    pinned = [s.name for s in stages if s.size is not None]
    if pinned:
        return plan, [f"skipped: stage(s) {pinned} pin explicit sizes"]
    missing = [s.name for s in stages if s.work is None]
    if missing:
        return plan, [f"skipped: stage(s) {missing} declare no work= hint"]

    helpers = [s for s in stages
               if not graph.flows_out(s.name) and graph.flows_in(s.name)]
    producers = [s for s in stages if s not in helpers]
    if not helpers or not producers:
        return plan, ["skipped: need at least one pure-consumer stage and "
                      "one producing stage to decouple"]

    t_w0 = sum(s.work for s in producers)
    t_w1 = sum(s.work for s in helpers)
    t_sigma = 0.0
    if machine is not None:
        noise = machine.noise
        t_sigma = predicted_sigma(t_w0, nprocs, noise.persistent_skew,
                                  noise.quantum_fraction)
    beta_factor = BetaModel()(granularity) if granularity is not None else 1.0
    t_w1_eff = t_w1 * beta_factor

    lo = len(helpers) / nprocs
    hi = 1.0 - len(producers) / nprocs
    if lo >= hi:
        return plan, [f"skipped: {nprocs} processes cannot host "
                      f"{len(stages)} stages with a free alpha"]
    alpha = optimal_alpha(t_w0, t_sigma, lambda a: t_w1_eff,
                          lo=max(lo, 1e-3), hi=min(hi, 1.0 - 1e-3))
    alpha = min(max(alpha, lo), hi)

    n_helper = min(max(len(helpers), int(round(alpha * nprocs))),
                   nprocs - len(producers))
    weights = {s.name: s.effective_fraction(nprocs) for s in stages}
    sizes = _distribute(n_helper, helpers, weights)
    sizes.update(_distribute(nprocs - n_helper, producers, weights))
    if min(sizes.values()) < 1:
        return plan, ["skipped: proportional rounding could not place "
                      "every stage"]

    resized = DecouplingPlan(nprocs)
    for name in plan.groups:
        resized.add_group(name, size=sizes[name])
    for f in plan.flows:
        resized.add_flow(f.name, f.src, f.dst)
    resized.validate()

    notes = [
        f"alpha* = {alpha:.4f} (T_W0={t_w0:.3g}s, T'_W1={t_w1_eff:.3g}s"
        + (f" = {t_w1:.3g}s x beta {beta_factor:.3f}"
           if beta_factor != 1.0 else "")
        + f", T_sigma={t_sigma:.3g}s) -> {n_helper}/{nprocs} helper ranks"]
    notes += [f"{name}: resized {plan.groups[name].size} -> "
              f"{sizes[name]} ranks"
              for name in plan.groups
              if sizes[name] != plan.groups[name].size]
    return resized, notes


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------

def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_beta(beta: float) -> None:
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0, 1], got {beta}")


def _check_nonneg(**named: float) -> None:
    for name, value in named.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
