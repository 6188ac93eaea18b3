"""keyed_draws and keyed_generators must reproduce NumPy's per-key
generators bit for bit."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.keyed import keyed_draws, keyed_generators

TOP = 2**32 - 1

SEEDS = [0, 1, TOP, 2**32, 2**64 + 5, 2**140 + 3] + [
    random.Random(16).getrandbits(bits) for bits in (31, 63, 97, 160)]

DRAWS = {
    "lognormal": lambda gen: gen.lognormal(0.0, 0.25),
    "uniform": lambda gen: gen.uniform(0.72, 1.28),
    "standard_normal": lambda gen: gen.standard_normal(),
}


def per_key(entropy, keys, draw):
    """The reference: one freshly seeded generator per key."""
    return [draw(np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=k))) for k in keys]


def _keys(width, seed):
    """Keys of ``width`` components, both ends of the 32-bit range
    included."""
    rng = random.Random(seed)
    keys = [(0,) * width, (TOP,) * width]
    keys += [tuple(rng.choice((0, TOP, rng.randrange(64),
                               rng.randrange(TOP + 1)))
                   for _ in range(width))
             for _ in range(6)]
    return keys


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("width", range(4))
@pytest.mark.parametrize("seed", SEEDS)
def test_matches_per_key_generators(seed, width, draw):
    keys = _keys(width, seed + width)
    assert keyed_draws(seed, keys, DRAWS[draw]) == \
        per_key(seed, keys, DRAWS[draw])


def test_mixed_widths_and_array_draws():
    keys = [(), (3,), (11, 0, TOP), (7, 5), (), (TOP,)]

    def draw(gen):
        return gen.lognormal(0.0, 1.0, size=3)

    got = keyed_draws(2017, keys, draw)
    want = per_key(2017, keys, draw)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_no_keys():
    assert keyed_draws(5, [], DRAWS["uniform"]) == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**200),
       keys=st.lists(st.lists(st.integers(0, TOP), max_size=3),
                     max_size=6))
def test_random_seeds_and_keys(seed, keys):
    assert keyed_draws(seed, keys, DRAWS["lognormal"]) == \
        per_key(seed, keys, DRAWS["lognormal"])


@pytest.mark.parametrize("entropy, keys", [
    (-1, [(1,)]),
    (3, [(-1,)]),
    (3, [(0, 2**32)]),      # would span two SeedSequence words
    (3, [(2**64,)]),
    (3, [(1,), (2, 2**40)]),
])
def test_rejects_out_of_range(entropy, keys):
    with pytest.raises(ValueError):
        keyed_draws(entropy, keys, DRAWS["uniform"])


def test_generators_are_the_per_key_generators():
    """Whole streams and states match, not only a first draw, and each
    generator's seed sequence answers only PCG64's request."""
    entropy = 2**40 + 9
    keys = _keys(2, 7) + [(), (5,), (1, 2, 3)]
    gens = list(keyed_generators(entropy, keys))
    assert len(gens) == len(keys)
    for key, gen in zip(keys, gens):
        seq = np.random.SeedSequence(entropy=entropy, spawn_key=key)
        ref = np.random.default_rng(seq)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random(5).tolist() == ref.random(5).tolist()
        assert np.array_equal(
            gen.bit_generator.seed_seq.generate_state(4, np.uint64),
            seq.generate_state(4, np.uint64))
    with pytest.raises(ValueError):
        gens[0].bit_generator.seed_seq.generate_state(8)
