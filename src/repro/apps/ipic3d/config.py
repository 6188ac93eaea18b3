"""Configuration of the iPIC3D case study (Section IV-D, Figs. 2, 7, 8).

The experiment is the GEM magnetic-reconnection challenge: ~2e9
particles on 8,192 processes (≈ 244k particles per rank, weak
scaling).  Two fidelity modes share the communication structure:

* **numeric** — real particles (NumPy arrays), a real Boris mover, and
  real subdomain ownership: the reference and decoupled exchanges must
  deliver *identical* final particle sets;
* **scale** — per-rank particle counts and exit volumes are drawn from
  the GEM statistics; handling costs are charged per particle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from ...workloads.particles import GEMSetup, PARTICLE_BYTES


@dataclass(frozen=True)
class IPICConfig:
    """One iPIC3D experiment instance."""

    nprocs: int
    steps: int = 40
    alpha: float = 0.0625
    numeric: bool = False
    #: weak scaling: particles per rank (paper: 2e9 / 8192)
    particles_per_rank: int = 244_000
    numeric_particles_per_rank: int = 200
    #: particle mover cost (Boris push + moment deposition)
    mover_seconds_per_particle: float = 5.3e-7
    #: reference per-hop handling (scan, pack, unpack) per particle
    handling_seconds_per_particle: float = 5.0e-7
    #: decoupled exchange group processes aggregated batches (vectorized)
    decoupled_handling_seconds_per_particle: float = 1.0e-7
    #: mean fraction of a rank's particles exiting per step
    exit_fraction_mean: float = 0.04
    #: lognormal sigma of per-(rank, step) exit volume
    exit_sigma: float = 0.4
    #: per-(rank, step) transient mover jitter (OS noise, cache effects)
    mover_jitter_sigma: float = 0.07
    #: GEM current-sheet profile (mild defaults: early-run skew)
    sheet_thickness: float = 0.25
    sheet_background: float = 2.0
    #: hop-distance distribution of exiting particles (1, 2, 3 hops)
    hop_probabilities: Tuple[float, float, float] = (0.8, 0.15, 0.05)
    #: field-solve + moments cost per step (charged, not modeled in
    #: detail: Figs. 7/8 isolate the particle operations)
    field_seconds_per_step: float = 2.0e-3
    #: particle I/O (Fig. 8): snapshots during the run (the paper's
    #: experiment corresponds to one full particle snapshot)
    io_dumps: int = 1
    #: stream granularity: particles per stream element (scale mode)
    stream_batch_particles: int = 2048
    numeric_dt: float = 0.05
    numeric_thermal: float = 0.08
    seed: int = 1931

    def __post_init__(self):
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if abs(sum(self.hop_probabilities) - 1.0) > 1e-9:
            raise ValueError("hop_probabilities must sum to 1")
        if not (0.0 <= self.exit_fraction_mean <= 1.0):
            raise ValueError("exit_fraction_mean must be in [0, 1]")
        if self.exit_sigma < 0:
            raise ValueError("exit_sigma must be >= 0")
        if self.mover_jitter_sigma < 0:
            raise ValueError("mover_jitter_sigma must be >= 0")

    # ------------------------------------------------------------------
    @property
    def n_exchange(self) -> int:
        """Decoupled particle-communication group size."""
        return max(1, round(self.alpha * self.nprocs))

    @property
    def n_mover(self) -> int:
        return max(1, self.nprocs - self.n_exchange)

    @property
    def particle_bytes(self) -> int:
        return PARTICLE_BYTES

    def rank_particles(self, rank: int, nranks: int) -> int:
        """Scale-mode particle count for ``rank`` of ``nranks``
        (deterministic GEM profile with multinomial noise)."""
        from ...workloads.particles import gem_counts
        counts = gem_counts(nranks, GEMSetup(
            total_particles=self.particles_per_rank * nranks,
            sheet_thickness=self.sheet_thickness,
            background=self.sheet_background,
            seed=self.seed))
        return int(counts[rank])

    def mover_jitter(self, rank: int, step: int) -> float:
        """Transient per-(rank, step) mover slowdown factor."""
        if self.mover_jitter_sigma == 0:
            return 1.0
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(5, rank, step)))
        return float(rng.lognormal(0.0, self.mover_jitter_sigma))

    def exits(self, rank: int, step: int, count: int) -> int:
        """Scale-mode: number of particles leaving ``rank`` at ``step``."""
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(3, rank, step)))
        frac = self.exit_fraction_mean * float(
            rng.lognormal(0.0, self.exit_sigma))
        return min(count, int(count * min(1.0, frac)))

    def hop_split(self, rank: int, step: int, n_exit: int
                  ) -> Tuple[int, int, int]:
        """Scale-mode: split exits into 1-, 2-, 3-hop populations."""
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(4, rank, step)))
        if n_exit == 0:
            return (0, 0, 0)
        counts = rng.multinomial(n_exit, list(self.hop_probabilities))
        return tuple(int(c) for c in counts)

    def with_(self, **kw) -> "IPICConfig":
        return replace(self, **kw)
