"""Tests for the synthetic workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    BlockSpec,
    CorpusSpec,
    FileSpec,
    GEMSetup,
    ParticleBlock,
    file_histogram,
    gem_counts,
    gem_density_profile,
    histogram_nbytes,
    merge_histograms,
)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------

def test_zipf_frequencies_normalized_and_decreasing():
    spec = CorpusSpec(vocabulary=1000)
    f = spec.frequencies()
    assert f.sum() == pytest.approx(1.0)
    assert np.all(np.diff(f) <= 0)
    assert f[0] > 10 * f[99]  # heavy head


def test_file_histogram_statistics():
    spec = CorpusSpec(vocabulary=500)
    f = FileSpec(0, spec.min_file_bytes)
    hist = file_histogram(spec, f, scale_words=10_000)
    assert sum(hist.values()) == 10_000
    # the most common word dominates (Zipf head)
    top = max(hist.values())
    assert top > 10_000 / 500  # way above uniform


def test_merge_histograms_is_sum():
    a = {"x": 1, "y": 2}
    b = {"y": 3, "z": 4}
    assert merge_histograms([a, b]) == {"x": 1, "y": 5, "z": 4}
    assert merge_histograms([]) == {}


def test_histogram_nbytes():
    assert histogram_nbytes({"ab": 5}) == 2 + 8


def test_corpus_validation():
    with pytest.raises(ValueError):
        CorpusSpec(vocabulary=0)
    with pytest.raises(ValueError):
        CorpusSpec(zipf_s=0)
    spec = CorpusSpec()
    with pytest.raises(ValueError):
        spec.word(spec.vocabulary)


@given(n=st.integers(min_value=1, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_property_histogram_mass_conserved(n):
    spec = CorpusSpec(vocabulary=50, seed=1)
    f = FileSpec(0, spec.min_file_bytes)
    hist = file_histogram(spec, f, scale_words=n)
    assert sum(hist.values()) == n
    assert all(v > 0 for v in hist.values())


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_cubic_block_matches_paper():
    b = BlockSpec(120, 120, 120)   # the paper's CG block per process
    assert b.points == 120 ** 3
    assert b.nbytes == 120 ** 3 * 8


def test_block_interior_and_boundary():
    b = BlockSpec(4, 4, 4)
    assert b.interior_points == 8
    assert b.boundary_points == 64 - 8


def test_thin_block_has_no_interior():
    b = BlockSpec(1, 10, 10)
    assert b.interior_points == 0
    assert b.boundary_points == b.points


def test_face_bytes():
    b = BlockSpec(10, 20, 30)
    assert b.face_points(0) == 600
    assert b.face_points(1) == 300
    assert b.face_points(2) == 200
    assert b.halo_bytes_total == 2 * (600 + 300 + 200) * 8


def test_grid_validation():
    with pytest.raises(ValueError):
        BlockSpec(0, 1, 1)
    with pytest.raises(ValueError):
        BlockSpec(1, 1, 1).face_points(3)


# ----------------------------------------------------------------------
# particles
# ----------------------------------------------------------------------

def test_gem_profile_peaked_at_sheet():
    prof = gem_density_profile(64, GEMSetup())
    assert prof.sum() == pytest.approx(1.0)
    mid = prof[31:33].mean()
    edge = prof[:2].mean()
    assert mid > 3 * edge


def test_gem_counts_skewed_and_conserving():
    setup = GEMSetup(total_particles=1_000_000)
    counts = gem_counts(128, setup)
    assert counts.sum() == 1_000_000
    assert counts.max() / counts.mean() > 1.5  # the paper's skew premise


def test_gem_counts_deterministic():
    setup = GEMSetup(total_particles=10_000, seed=3)
    assert np.array_equal(gem_counts(16, setup), gem_counts(16, setup))


def test_particle_block_roundtrip():
    rng = np.random.default_rng(0)
    b = ParticleBlock.sample(100, rng)
    assert len(b) == 100
    assert b.nbytes_wire == 100 * 80
    left = b.select(b.x[:, 0] < 0.5)
    right = b.select(b.x[:, 0] >= 0.5)
    merged = ParticleBlock.concat([left, right])
    assert len(merged) == 100
    assert sorted(merged.ids.tolist()) == sorted(b.ids.tolist())


def test_particle_block_empty_concat():
    empty = ParticleBlock.concat([])
    assert len(empty) == 0


def test_setup_validation():
    with pytest.raises(ValueError):
        GEMSetup(total_particles=0)
    with pytest.raises(ValueError):
        GEMSetup(sheet_thickness=0)
    with pytest.raises(ValueError):
        gem_density_profile(0, GEMSetup())


@given(nranks=st.integers(min_value=1, max_value=512),
       total=st.integers(min_value=1, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_property_gem_counts_conserve(nranks, total):
    counts = gem_counts(nranks, GEMSetup(total_particles=total))
    assert counts.sum() == total
    assert (counts >= 0).all()
