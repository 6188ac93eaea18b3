"""Keyed random streams, many keys in one pass.

The applications draw their irregularity (file sizes, per-chunk jitter)
and the noise model its per-rank noise from *keyed streams*:
``default_rng(SeedSequence(entropy=seed, spawn_key=key))``, one fresh
generator per key, so every draw is a pure function of (seed, key) and
no rank's draws depend on the order in which ranks run.  Building those
generators through ``SeedSequence`` costs far more than drawing from
them.  :func:`keyed_generators` builds the same generators for a whole
list of keys: the seed's words are mixed into SeedSequence's entropy
pool once, the key words of all keys are mixed in together as
``uint64`` arrays, which gives every key's ``generate_state(4, uint64)``
words in one vectorized pass, and each key's ``PCG64`` seeds itself
from its four words, handed over by a small ``ISeedSequence`` that holds
nothing else.  :func:`keyed_draws` applies a draw to each of them.

NEP 19 freezes SeedSequence's output and PCG64's seeding and raw stream;
this module recomputes only SeedSequence's output, and PCG64 and the
draws themselves (the part NEP 19 lets NumPy change between versions)
are NumPy's own, so results stay bit-identical to the per-key
generators.  ``numpy.random`` is imported when the first generator is
built, not with this module.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["keyed_draws", "keyed_generators"]

T = TypeVar("T")

_MASK32 = 0xFFFF_FFFF

# NumPy's SeedSequence (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


# The mixing helpers take Python ints or uint64 arrays holding 32-bit
# words: every product of two such words fits in 64 bits, and masking
# to 32 bits after a wrapped uint64 subtraction is still exact mod 2**32.

def _hashmix(value, hash_const: int):
    """SeedSequence's ``hashmix``; returns the next hash constant too."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _absorb(pool: list, words, hash_const: int) -> Tuple[list, int]:
    """Mix each further entropy word into every pool word."""
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def _seed_pool(entropy: int) -> Tuple[List[int], int]:
    """The pool after the run entropy is mixed in, and the hash constant
    it leaves: everything the keys of one seed share."""
    words = []
    while True:
        words.append(entropy & _MASK32)
        entropy >>= 32
        if not entropy:
            break
    # with a spawn key, SeedSequence zero-pads the run entropy to the
    # pool size so that key words never land inside the pool
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    return _absorb(pool, words[_POOL_SIZE:], hash_const)


def _key_columns(keys: Sequence[Sequence[int]], width: int) -> list:
    """The keys' components as ``width`` uint64 columns of 32-bit words."""
    if width == 0:
        return []
    words = np.array(keys)
    if (words.dtype.kind not in "iu" or words.min() < 0
            or words.max() > _MASK32):
        # a component of 2**32 or more spans several SeedSequence words
        # and shifts every later word of the key
        raise ValueError("spawn-key components must be integers in "
                         "[0, 2**32)")
    return list(words.astype(np.uint64).T)


def _generate_state(pool: list) -> np.ndarray:
    """Each key's ``SeedSequence.generate_state(4, np.uint64)``, one row
    of four words per key, from the keys' entropy pools."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    # little-endian pairs of 32-bit words are the 64-bit words
    return np.stack([words[2 * j] | words[2 * j + 1] << 32
                     for j in range(4)], axis=1)


def _seed_words(entropy: int, keys: Sequence[Sequence[int]]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of every key's SeedSequence, as
    the rows of one ``(len(keys), 4)`` array."""
    entropy = operator.index(entropy)
    if entropy < 0:
        raise ValueError("entropy must be a non-negative integer")
    pool, hash_const = _seed_pool(entropy)
    widths = [len(key) for key in keys]
    out = np.empty((len(widths), 4), dtype=np.uint64)
    for width in set(widths):
        rows = [i for i, w in enumerate(widths) if w == width]
        columns = _key_columns([keys[i] for i in rows], width)
        key_pool = [np.full(len(rows), word, dtype=np.uint64)
                    for word in pool]
        key_pool, _ = _absorb(key_pool, columns, hash_const)
        out[rows] = _generate_state(key_pool)
    return out


@functools.cache
def _numpy_random():
    """NumPy's ``Generator`` and ``PCG64`` and the seed-word
    ``ISeedSequence``, imported when the first generator is built."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A seed sequence reduced to its ``generate_state(4, np.uint64)``
        words, all that ``PCG64`` asks of one."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds PCG64's four uint64 "
                                 "seed words only")
            return self.words

    return Generator, PCG64, SeedWords


def keyed_generators(entropy: int, keys: Sequence[Sequence[int]]
                     ) -> Iterator[np.random.Generator]:
    """Each key's generator, in key order, bit for bit equal to
    ``np.random.default_rng(np.random.SeedSequence(entropy=entropy,
    spawn_key=k))``; each is built as the iterator reaches it.

    ``entropy`` is a non-negative int and every key a sequence of ints
    in ``[0, 2**32)``; a negative entropy or a component outside that
    range raises ``ValueError`` at the call.  The generators cannot
    ``spawn`` or be pickled: their seed sequence holds PCG64's seed
    words only.
    """
    words = _seed_words(entropy, keys)
    generator, pcg64, seed_words = _numpy_random()
    return map(generator, map(pcg64, map(seed_words, words)))


def keyed_draws(entropy: int, keys: Sequence[Sequence[int]],
                draw: Callable[[np.random.Generator], T]) -> List[T]:
    """``draw`` applied to each key's own generator, bit for bit equal to
    ``[draw(np.random.default_rng(np.random.SeedSequence(entropy=entropy,
    spawn_key=k))) for k in keys]``; arguments and errors as for
    :func:`keyed_generators`.
    """
    return list(map(draw, keyed_generators(entropy, keys)))
