"""Noise and imbalance models.

The paper's decoupling strategy claims two benefits: pipelining and
*imbalance absorption*.  To measure absorption we need imbalance to
exist in the simulation; this module produces it deterministically.

Two effects are modeled, matching Section I of the paper ("interference
from system noises is unavoidable", "higher temperature variance ...
vary the speed of processors"):

* a **persistent per-rank speed factor** — each rank draws a constant
  multiplicative slowdown from a lognormal distribution, representing
  core-to-core frequency / thermal variance;
* **transient noise** — OS daemons and interrupts (Petrini et al.,
  SC'03) arrive at each rank as a Poisson process with mean gap
  ``quantum`` on that rank's cumulative *nominal* compute clock, and
  each arrival costs an exponential detour with mean
  ``quantum_fraction * quantum``.  Over an interval of nominal length
  ``t`` the expected inflation is ``quantum_fraction * t``; long phases
  smooth out and short phases jitter, as on a real machine.

The model keeps, per rank, the nominal compute left until the next
arrival.  A charge that ends before it only shortens that gap and draws
nothing.  A charge that crosses it, with ``r`` left after the arrival,
sees ``n = 1 + Poisson(r / quantum)`` arrivals, pays
``Gamma(n, quantum_fraction * quantum)`` (the sum of ``n`` exponential
detours) and draws the next gap as ``Exponential(quantum)``: three
draws.  By the Poisson process's independent increments and
memorylessness, a charge of length ``d`` then has the law of drawing
``Poisson(d / quantum)`` arrivals and as many exponential detours for
it alone, which costs a draw per charge plus one per arrival.

Both effects draw from per-rank generators,
``default_rng(SeedSequence(entropy=seed, spawn_key=(rank,)))``, built
for all ranks at once by :func:`repro.workloads.keyed.keyed_generators`
on the first noisy charge, so a simulation is reproducible and two runs
that only differ elsewhere see identical noise.  A rank's persistent
factor is its generator's first draw.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..workloads.keyed import keyed_generators
from .config import NoiseConfig


class NoiseModel:
    """Deterministic per-rank compute-time inflation."""

    def __init__(self, config: NoiseConfig, nranks: int):
        config.validate()
        self.config = config
        self.nranks = nranks
        self._quantum = config.quantum
        self._detour = config.quantum_fraction * config.quantum
        self._skew: Dict[int, float] = {}
        # nominal compute seconds left until each rank's next arrival
        self._gap: Dict[int, float] = {}
        self._rngs: Dict[int, np.random.Generator] = {}

    def _rng(self, rank: int) -> np.random.Generator:
        rng = self._rngs.get(rank)
        if rng is None:
            if 0 <= rank < self.nranks:
                ranks = range(self.nranks)
                self._rngs.update(zip(ranks, keyed_generators(
                    self.config.seed, [(r,) for r in ranks])))
            else:
                self._rngs[rank] = next(keyed_generators(self.config.seed,
                                                         [(rank,)]))
            rng = self._rngs[rank]
        return rng

    def _start(self, rank: int) -> float:
        """Draw ``rank``'s persistent factor, then its first arrival."""
        config = self.config
        skew, gap = 1.0, math.inf
        if config.persistent_skew > 0 or config.quantum_fraction > 0:
            rng = self._rng(rank)
            if config.persistent_skew > 0:
                skew = max(1.0, float(rng.lognormal(
                    0.0, config.persistent_skew)))
            if config.quantum_fraction > 0:
                gap = float(rng.exponential(self._quantum))
        self._skew[rank] = skew
        self._gap[rank] = gap
        return skew

    def persistent_factor(self, rank: int) -> float:
        """Constant speed factor (>= ~1) for ``rank``.

        Lognormal with median 1 and sigma = ``persistent_skew``; floored
        at 1.0 so the *fastest* ranks define the baseline — what matters
        for synchronization cost is the spread, and flooring keeps
        calibrated absolute times stable under noise sweeps.
        """
        skew = self._skew.get(rank)
        if skew is None:
            skew = self._start(rank)
        return skew

    def inflate(self, rank: int, duration: float) -> float:
        """Actual virtual-time cost of ``duration`` nominal compute seconds."""
        if duration <= 0:
            return 0.0
        skew = self._skew.get(rank)
        if skew is None:
            skew = self._start(rank)
        gap = self._gap[rank] - duration
        if gap > 0.0:
            self._gap[rank] = gap
            return duration * skew
        # the charge crosses the next arrival; -gap is left after it
        rng = self._rngs[rank]
        quantum = self._quantum
        events = 1 + int(rng.poisson(-gap / quantum))
        detours = float(rng.gamma(events, self._detour))
        self._gap[rank] = float(rng.exponential(quantum))
        return duration * skew + detours

    def expected_inflation(self, duration: float) -> float:
        """Mean cost of ``duration`` under transient noise only (analytic).

        Used by the performance model (Eq. 1's ``T_sigma``) to predict
        imbalance cost without running the simulation.
        """
        return duration * (1.0 + self.config.quantum_fraction)

    def expected_max_factor(self, nranks: int) -> float:
        """Approximate E[max of nranks persistent factors].

        For a lognormal(0, sigma) sample of size n the maximum
        concentrates near ``exp(sigma * sqrt(2 ln n))``; this is the
        analytic counterpart of the synchronization penalty a bulk-
        synchronous code pays at each barrier, and grows with scale —
        the paper's core motivation for absorbing imbalance.
        """
        sigma = self.config.persistent_skew
        if sigma <= 0 or nranks <= 1:
            return 1.0
        return math.exp(sigma * math.sqrt(2.0 * math.log(nranks)))
