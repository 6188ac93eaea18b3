"""Synthetic workload generators: Zipf corpora, GEM-like particle
ensembles, and grid decompositions (DESIGN.md substitutions)."""

from .corpus import (
    CorpusSpec,
    FileSpec,
    file_histogram,
    histogram_nbytes,
    merge_histograms,
)
from .grids import BlockSpec
from .particles import (
    GEM_TOTAL_PARTICLES,
    PARTICLE_BYTES,
    GEMSetup,
    ParticleBlock,
    gem_counts,
    gem_density_profile,
)

__all__ = [
    "BlockSpec", "CorpusSpec", "FileSpec", "GEMSetup",
    "GEM_TOTAL_PARTICLES", "PARTICLE_BYTES", "ParticleBlock",
    "file_histogram", "gem_counts", "gem_density_profile",
    "histogram_nbytes", "merge_histograms",
]
