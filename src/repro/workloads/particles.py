"""Particle ensembles with GEM-challenge-like statistics.

iPIC3D's decoupled operations are driven by two statistical facts the
paper leans on (Section IV-D): particle counts per process are *skewed*
(magnetic-reconnection setups concentrate plasma near the current
sheet) and *dynamic* (particles migrate between subdomains every step,
unpredictably).  This module produces both, deterministically:

* :func:`gem_counts` — per-rank particle counts from the GEM
  current-sheet density profile ``n(y) ~ sech^2(y/lambda) + n_bg``;
* :class:`ParticleBlock` — a real NumPy particle container used by the
  numeric-mode Boris mover in :mod:`repro.apps.ipic3d.particles`.

Each simulated particle record is 10 doubles on the wire (position,
velocity, charge/weight, id) = 80 bytes, matching iPIC3D's particle
payload to first order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

#: bytes per particle on the wire (x,y,z,u,v,w,q,w8,id,pad as doubles)
PARTICLE_BYTES = 80

#: paper's Fig. 7 experiment: ~2e9 particles on 8192 processes
GEM_TOTAL_PARTICLES = 2_000_000_000


@dataclass(frozen=True)
class GEMSetup:
    """Parameters of the GEM-like particle distribution."""

    total_particles: int = GEM_TOTAL_PARTICLES
    sheet_thickness: float = 0.1   # lambda / L_y: thinner = more skew
    background: float = 0.2        # uniform background density floor
    seed: int = 1931               # GEM = Geospace Environmental Modeling

    def __post_init__(self):
        if self.total_particles < 1:
            raise ValueError("total_particles must be >= 1")
        if self.sheet_thickness <= 0:
            raise ValueError("sheet_thickness must be positive")
        if self.background < 0:
            raise ValueError("background must be non-negative")


def gem_density_profile(ncells: int, setup: GEMSetup) -> np.ndarray:
    """Normalized density over ``ncells`` slabs across the sheet normal:
    ``sech^2((y - 0.5) / lambda) + background``."""
    if ncells < 1:
        raise ValueError("ncells must be >= 1")
    y = (np.arange(ncells) + 0.5) / ncells
    prof = 1.0 / np.cosh((y - 0.5) / setup.sheet_thickness) ** 2
    prof = prof + setup.background
    return prof / prof.sum()


def gem_counts(nranks: int, setup: GEMSetup) -> np.ndarray:
    """Per-rank particle counts: ranks are slabs across the sheet normal,
    counts follow the sech^2 profile with multinomial sampling noise.

    The result is *skewed*: mid-domain ranks hold several times the
    particles of edge ranks — the imbalance Fig. 7 is about.
    """
    prof = gem_density_profile(nranks, setup)
    rng = np.random.default_rng(np.random.SeedSequence(setup.seed))
    counts = rng.multinomial(setup.total_particles, prof)
    return counts


class ParticleBlock:
    """A real particle container (numeric mode): structure-of-arrays."""

    __slots__ = ("x", "v", "q", "ids")

    def __init__(self, x: np.ndarray, v: np.ndarray, q: np.ndarray,
                 ids: np.ndarray):
        n = len(ids)
        if x.shape != (n, 3) or v.shape != (n, 3) or q.shape != (n,):
            raise ValueError("inconsistent particle array shapes")
        self.x = x
        self.v = v
        self.q = q
        self.ids = ids

    # ------------------------------------------------------------------
    @classmethod
    def sample(cls, n: int, rng: np.random.Generator,
               box: float = 1.0, thermal: float = 0.05) -> "ParticleBlock":
        """Maxwellian particles uniform in a periodic box."""
        x = rng.uniform(0.0, box, size=(n, 3))
        v = rng.normal(0.0, thermal, size=(n, 3))
        q = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        ids = np.arange(n, dtype=np.int64)
        return cls(x, v, q, ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nbytes_wire(self) -> int:
        return len(self) * PARTICLE_BYTES

    def select(self, mask: np.ndarray) -> "ParticleBlock":
        """Subset by boolean mask (used to split exiting particles)."""
        return ParticleBlock(self.x[mask], self.v[mask], self.q[mask],
                             self.ids[mask])

    @staticmethod
    def concat(blocks: List["ParticleBlock"]) -> "ParticleBlock":
        blocks = [b for b in blocks if len(b) > 0]
        if not blocks:
            return ParticleBlock(np.zeros((0, 3)), np.zeros((0, 3)),
                                 np.zeros(0), np.zeros(0, dtype=np.int64))
        return ParticleBlock(
            np.concatenate([b.x for b in blocks]),
            np.concatenate([b.v for b in blocks]),
            np.concatenate([b.q for b in blocks]),
            np.concatenate([b.ids for b in blocks]),
        )
