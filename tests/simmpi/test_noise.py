"""Unit tests + property tests for the noise/imbalance model."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mapreduce import MapReduceConfig, decoupled_worker
from repro.bench.perf import result_digest
from repro.faults import FaultPlan, Slowdown
from repro.simmpi import MachineConfig, beskow, run
from repro.simmpi.config import NoiseConfig
from repro.simmpi.noise import NoiseModel


def test_quiet_config_is_identity():
    m = NoiseModel(NoiseConfig(persistent_skew=0.0, quantum_fraction=0.0), 8)
    for rank in range(8):
        assert m.persistent_factor(rank) == 1.0
        assert m.inflate(rank, 1.0) == 1.0


def test_persistent_factor_at_least_one():
    m = NoiseModel(NoiseConfig(persistent_skew=0.1), 256)
    factors = [m.persistent_factor(r) for r in range(256)]
    assert all(f >= 1.0 for f in factors)
    assert max(factors) > 1.0  # some rank actually drew a slowdown


def test_persistent_factor_is_cached_and_deterministic():
    m1 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=7), 64)
    m2 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=7), 64)
    for r in range(64):
        f = m1.persistent_factor(r)
        assert f == m1.persistent_factor(r)  # cached
        assert f == m2.persistent_factor(r)  # seeded


def test_different_seeds_differ():
    m1 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=1), 64)
    m2 = NoiseModel(NoiseConfig(persistent_skew=0.1, seed=2), 64)
    assert [m1.persistent_factor(r) for r in range(64)] != [
        m2.persistent_factor(r) for r in range(64)
    ]


def test_inflate_zero_duration_is_zero():
    m = NoiseModel(NoiseConfig(), 4)
    assert m.inflate(0, 0.0) == 0.0


def test_transient_noise_mean_matches_expectation():
    """LLN check: over many long intervals, realized inflation approaches
    quantum_fraction."""
    cfg = NoiseConfig(persistent_skew=0.0, quantum_fraction=0.05, seed=3)
    m = NoiseModel(cfg, 1)
    nominal = 1.0
    samples = [m.inflate(0, nominal) for _ in range(200)]
    mean = np.mean(samples)
    assert mean == pytest.approx(nominal * 1.05, rel=0.05)
    assert m.expected_inflation(nominal) == pytest.approx(1.05)


def test_expected_max_factor_grows_with_scale():
    m = NoiseModel(NoiseConfig(persistent_skew=0.05), 1)
    f32 = m.expected_max_factor(32)
    f8192 = m.expected_max_factor(8192)
    assert 1.0 < f32 < f8192


def test_expected_max_factor_trivial_cases():
    m0 = NoiseModel(NoiseConfig(persistent_skew=0.0), 1)
    assert m0.expected_max_factor(10_000) == 1.0
    m1 = NoiseModel(NoiseConfig(persistent_skew=0.5), 1)
    assert m1.expected_max_factor(1) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(persistent_skew=-0.1).validate()
    with pytest.raises(ValueError):
        NoiseConfig(quantum_fraction=1.0).validate()
    with pytest.raises(ValueError):
        NoiseConfig(quantum=0.0).validate()


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_config_rejects_bad_seed(seed):
    """A seed that is not a non-negative int fails validation by name,
    also on a quiet machine that never draws from it."""
    cfg = NoiseConfig(persistent_skew=0.0, quantum_fraction=0.0, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        cfg.validate()
    data = json.loads(json.dumps(cfg.to_json()))
    with pytest.raises(ValueError, match="seed"):
        NoiseConfig.from_json(data)
    machine = json.loads(json.dumps(beskow().to_json()))
    machine["noise"]["seed"] = seed
    with pytest.raises(ValueError, match="seed"):
        MachineConfig.from_json(machine)


@given(
    duration=st.floats(min_value=1e-6, max_value=10.0,
                       allow_nan=False, allow_infinity=False),
    skew=st.floats(min_value=0.0, max_value=0.3),
    frac=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_inflation_never_shrinks_work(duration, skew, frac):
    """Invariant: noise can only add time, never remove it."""
    m = NoiseModel(NoiseConfig(persistent_skew=skew, quantum_fraction=frac), 4)
    for rank in range(4):
        assert m.inflate(rank, duration) >= duration * 0.999999


@given(rank=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_any_rank_id_is_valid(rank):
    m = NoiseModel(NoiseConfig(persistent_skew=0.05), 16)
    assert m.persistent_factor(rank) >= 1.0


# ----------------------------------------------------------------------
# the transient sampler's law
# ----------------------------------------------------------------------

QUANTUM, FRACTION = 0.01, 0.05
DURATIONS = [2e-6, 1e-4, 3e-3, 0.01, 0.1, 1.0]
SAMPLES = 20_000


def per_charge_detours(rng, duration, n):
    """The sampler the noise model had before its per-rank Poisson
    process: every charge draws its own Poisson count of noise events
    and one exponential detour per event."""
    out = np.zeros(n)
    for i in range(n):
        quanta = duration / QUANTUM
        events = int(rng.poisson(quanta if quanta > 1e-12 else 1e-12))
        if events:
            out[i] = rng.exponential(FRACTION * QUANTUM, size=events).sum()
    return out


def model_detours(duration, n, seed):
    m = NoiseModel(NoiseConfig(persistent_skew=0.0, quantum=QUANTUM,
                               quantum_fraction=FRACTION, seed=seed), 1)
    return np.array([m.inflate(0, duration) for _ in range(n)]) - duration


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance between the empirical
    distributions of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


@pytest.mark.parametrize("duration", DURATIONS)
def test_transient_detours_follow_the_per_charge_law(duration):
    """Consecutive charges on one rank are independent draws of a
    compound Poisson detour: P(none) = e^(-d/q), mean fraction * d,
    variance 2 fraction^2 q d; each is checked to 5 standard errors,
    and the sample against the per-charge sampler by a two-sample KS
    test at the 0.1 % level."""
    x = model_detours(duration, SAMPLES, seed=11)
    lam = duration / QUANTUM
    theta = FRACTION * QUANTUM
    p_none = math.exp(-lam)
    assert abs(np.mean(x == 0.0) - p_none) <= 5 * math.sqrt(
        p_none * (1 - p_none) / SAMPLES) + 1 / SAMPLES
    # cumulants of a compound Poisson sum of exponentials:
    # kappa_k = lam * k! * theta^k
    k2, k4 = 2 * lam * theta ** 2, 24 * lam * theta ** 4
    assert abs(x.mean() - FRACTION * duration) <= 5 * math.sqrt(
        k2 / SAMPLES)
    assert k2 == pytest.approx(2 * FRACTION ** 2 * QUANTUM * duration)
    assert abs(x.var() - k2) <= 5 * math.sqrt((k4 + 2 * k2 ** 2) / SAMPLES)
    ref = per_charge_detours(np.random.default_rng(12), duration, SAMPLES)
    assert ks_statistic(x, ref) < 1.95 * math.sqrt(2 / SAMPLES)


def test_ks_check_tells_the_laws_apart():
    """The KS bound above rejects a sampler whose detours are 10 %
    too long."""
    x = model_detours(0.1, SAMPLES, seed=11)
    ref = per_charge_detours(np.random.default_rng(12), 0.1, SAMPLES)
    assert ks_statistic(1.1 * x, ref) > 1.95 * math.sqrt(2 / SAMPLES)


@pytest.mark.parametrize("frac", [0.0, 0.01])
def test_skew_is_each_ranks_first_keyed_draw(frac):
    """Every rank's persistent factor is the first draw of its own
    SeedSequence(seed, spawn_key=(rank,)) generator, floored at 1,
    whether or not transient noise is on; 40 is outside the model's
    rank range and still gets its own stream."""
    sigma, seed = 0.1, 99
    m = NoiseModel(NoiseConfig(persistent_skew=sigma, quantum_fraction=frac,
                               seed=seed), 32)
    for rank in list(range(32)) + [40]:
        want = max(1.0, np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(rank,))).lognormal(0.0, sigma))
        assert m.persistent_factor(rank) == want


def test_without_transient_noise_inflation_is_exactly_the_skew():
    m = NoiseModel(NoiseConfig(persistent_skew=0.05, quantum_fraction=0.0,
                               seed=5), 8)
    rng = np.random.default_rng(0)
    for duration in rng.uniform(0.0, 2.0, size=400):
        rank = int(rng.integers(8))
        assert m.inflate(rank, duration) == \
            duration * m.persistent_factor(rank)


# ----------------------------------------------------------------------
# traced and untraced charges, and import cost
# ----------------------------------------------------------------------

@pytest.mark.parametrize("faults", [
    None,
    FaultPlan([Slowdown(5.0, 30.0, rank=3, factor=3.0)]),
], ids=["plain", "slowdown"])
def test_noisy_run_digest_is_the_same_traced_and_untraced(faults):
    """Tracing only records each charge: a noisy run, with or without a
    straggler window, gives the same results traced and untraced."""
    cfg = MapReduceConfig(nprocs=16, nchunks=4, seed=3)
    machine = beskow(noise_seed=8)
    plain = run(decoupled_worker, 16, args=(cfg,), machine=machine,
                faults=faults)
    traced = run(decoupled_worker, 16, args=(cfg,), machine=machine,
                 faults=faults, trace=True)
    assert traced.tracer is not None
    assert result_digest(traced) == result_digest(plain)
    quiet = machine.with_(noise=NoiseConfig(persistent_skew=0.0,
                                            quantum_fraction=0.0))
    assert result_digest(run(decoupled_worker, 16, args=(cfg,),
                             machine=quiet, faults=faults)) \
        != result_digest(plain)
    if faults is not None:
        assert result_digest(run(decoupled_worker, 16, args=(cfg,),
                                 machine=machine)) != result_digest(plain)


def test_import_and_beskow_leave_numpy_random_unimported():
    """numpy.random is imported by the first noisy charge, not by the
    package or a machine preset."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    code = ("import sys, repro, repro.simmpi, repro.api; "
            "repro.simmpi.beskow(); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["False"]
