"""Keyed random streams, many keys in one pass.

The applications draw their irregularity (file sizes, per-chunk jitter)
from *keyed streams*: ``default_rng(SeedSequence(entropy=seed,
spawn_key=key))``, one fresh generator per key, so every draw is a pure
function of (seed, key) and no rank's draws depend on the order in
which ranks run.  Building those generators costs far more than drawing
from them.  :func:`keyed_draws` returns the same draws for a whole list
of keys: the seed's words are mixed into SeedSequence's entropy pool
once, the key words of all keys are mixed in together as ``uint64``
arrays, each key's PCG64 state follows from PCG's 128-bit seeding step,
and ``draw`` runs on one reused ``Generator`` set to that state.

NEP 19 freezes SeedSequence's output and PCG64's seeding and raw stream,
which are what this module recomputes.  The draw itself (the part NEP 19
lets NumPy change between versions) is still made by NumPy, so results
stay bit-identical to the per-key generators.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["keyed_draws"]

T = TypeVar("T")

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1

# NumPy's SeedSequence (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _pcg64_states(pool: list) -> List[Tuple[int, int]]:
    """PCG64's (state, inc) for each key, seeded exactly as
    ``PCG64(seed_seq)`` seeds itself from ``generate_state(4, uint64)``."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    # little-endian pairs of 32-bit words are the four 64-bit seed words
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | words[2 * j + 1] << 32).tolist() for j in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg_setseq_128_srandom_r: step from zero, add the seed, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def keyed_draws(entropy: int, keys: Sequence[Sequence[int]],
                draw: Callable[[np.random.Generator], T]) -> List[T]:
    """``draw`` applied to each key's own generator, bit for bit equal to
    ``[draw(np.random.default_rng(np.random.SeedSequence(entropy=entropy,
    spawn_key=k))) for k in keys]``.

    ``entropy`` is a non-negative int and every key a sequence of ints
    in ``[0, 2**32)``; a negative entropy or a component outside that
    range raises ``ValueError``.  ``draw`` must only draw from the
    generator it is given (the generator is reused, so it must not be
    kept or spawned from).
    """
    entropy = operator.index(entropy)
    if entropy < 0:
        raise ValueError("entropy must be a non-negative integer")
    pool, hash_const = _seed_pool(entropy)
    widths = [len(key) for key in keys]
    states: list = [None] * len(widths)
    for width in set(widths):
        rows = [i for i, w in enumerate(widths) if w == width]
        columns = _key_columns([keys[i] for i in rows], width)
        key_pool = [np.full(len(rows), word, dtype=np.uint64)
                    for word in pool]
        key_pool, _ = _absorb(key_pool, columns, hash_const)
        for i, state in zip(rows, _pcg64_states(key_pool)):
            states[i] = state

    gen = np.random.Generator(np.random.PCG64(0))
    bit_gen = gen.bit_generator
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg,
            "has_uint32": 0, "uinteger": 0}
    out = []
    for state, inc in states:
        pcg["state"] = state
        pcg["inc"] = inc
        bit_gen.state = full
        out.append(draw(gen))
    return out
