"""Unit + property tests for datatype descriptors and payload sizing."""

import enum
import random
import sys
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.datatypes import (
    BYTE,
    DOUBLE,
    FLOAT,
    INT,
    Datatype,
    SizedPayload,
    contiguous,
    payload_nbytes,
    struct,
    vector,
)
from repro.simmpi.errors import DatatypeError


def test_base_type_sizes():
    assert INT.size == 4
    assert DOUBLE.size == 8
    assert BYTE.size == 1
    assert FLOAT.extent == 4


def test_contiguous_scales_size_and_extent():
    t = contiguous(10, DOUBLE)
    assert t.size == 80
    assert t.extent == 80


def test_contiguous_zero_count():
    t = contiguous(0, INT)
    assert t.size == 0 and t.extent == 0


def test_vector_noncontiguous_extent_exceeds_size():
    # 3 blocks of 2 doubles, stride 5: the paper's zero-copy layout shape
    t = vector(3, 2, 5, DOUBLE)
    assert t.size == 3 * 2 * 8
    assert t.extent == ((3 - 1) * 5 + 2) * 8
    assert t.extent > t.size


def test_vector_contiguous_when_stride_equals_blocklength():
    t = vector(4, 3, 3, FLOAT)
    assert t.size == t.extent == 4 * 3 * 4


def test_vector_invalid_stride_rejected():
    with pytest.raises(DatatypeError):
        vector(3, 4, 2, INT)


def test_struct_accumulates_fields():
    t = struct([(3, INT), (2, DOUBLE)])
    assert t.size == 3 * 4 + 2 * 8


def test_datatype_invariant_enforced():
    with pytest.raises(DatatypeError):
        Datatype("bad", size=10, extent=5)
    with pytest.raises(DatatypeError):
        Datatype("bad", size=-1, extent=0)


def test_negative_counts_rejected():
    with pytest.raises(DatatypeError):
        contiguous(-1, INT)
    with pytest.raises(DatatypeError):
        vector(-1, 1, 1, INT)
    with pytest.raises(DatatypeError):
        struct([(-1, INT)])


# ----------------------------------------------------------------------
# payload sizing
# ----------------------------------------------------------------------

def test_numpy_array_sized_exactly():
    a = np.zeros(100, dtype=np.float64)
    assert payload_nbytes(a) == 800


def test_bytes_and_str():
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes("abcd") == 4
    assert payload_nbytes("é") == 2  # utf-8


def test_scalars():
    assert payload_nbytes(5) == 8
    assert payload_nbytes(1.5) == 8
    assert payload_nbytes(True) == 1
    assert payload_nbytes(1 + 2j) == 16
    assert payload_nbytes(None) == 0
    assert payload_nbytes(np.float32(1.0)) == 4


def test_containers_recurse():
    assert payload_nbytes([1, 2, 3]) == 24
    assert payload_nbytes((1.0, 2.0)) == 16
    assert payload_nbytes({"ab": 1}) == 2 + 8


def test_explicit_datatype_overrides():
    a = np.zeros(100, dtype=np.float64)
    assert payload_nbytes(a, datatype=DOUBLE, count=10) == 80


def test_sized_payload_wrapper():
    p = SizedPayload({"summary": 1}, nbytes=123456)
    assert payload_nbytes(p) == 123456
    assert p.data == {"summary": 1}


def test_sized_payload_rejects_negative():
    with pytest.raises(DatatypeError):
        SizedPayload(None, -1)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_sized_payload_roundtrip(n):
    assert payload_nbytes(SizedPayload("x", n)) == n


def chain_nbytes(obj, datatype=None, count=None):
    """payload_nbytes as one isinstance chain, without the exact-class
    lookups in front of it: the reference it must agree with."""
    if datatype is not None:
        n = count if count is not None else 1
        return n * datatype.size
    if isinstance(obj, SizedPayload):
        return obj.nbytes
    wire = getattr(obj, "__wire_nbytes__", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, complex):
        return 16
    if obj is None:
        return 0
    if isinstance(obj, dict):
        return sum(chain_nbytes(k) + chain_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(chain_nbytes(x) for x in obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.nbytes
    return sys.getsizeof(obj)


class WiredInt(int):
    __wire_nbytes__ = 3


class WiredFloat(float):
    def __wire_nbytes__(self):
        return 5


class WiredTuple(tuple):
    __wire_nbytes__ = 7


class Color(enum.IntEnum):
    RED = 1


Face = namedtuple("Face", "peer it rank data")


class Rows(list):
    pass


def random_payload(rng, depth=0):
    """A scalar, array, wrapper or (below depth 3) container payload."""
    leaves = [
        lambda: rng.randrange(-10**6, 10**6), lambda: rng.random(),
        lambda: rng.random() < 0.5, lambda: complex(rng.random(), 1.0),
        lambda: None, lambda: "é" * rng.randrange(4),
        lambda: bytes(rng.randrange(5)), lambda: np.zeros(rng.randrange(4)),
        lambda: np.int32(7), lambda: np.float64(0.5), lambda: np.bool_(1),
        lambda: SizedPayload(None, rng.randrange(10**5)),
        lambda: WiredInt(4), lambda: WiredFloat(2.0), lambda: Color.RED,
        lambda: WiredTuple((1, 2)), lambda: object(),
    ]
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(leaves)()

    def items():
        return [random_payload(rng, depth + 1)
                for _ in range(rng.randrange(5))]
    containers = [
        lambda: tuple(items()), lambda: items(), lambda: Rows(items()),
        lambda: Face(rng.randrange(64), 3, 1, random_payload(rng, depth + 1)),
        lambda: {i: x for i, x in enumerate(items())},
        lambda: frozenset(range(rng.randrange(4))),
        lambda: SizedPayload(items(), rng.randrange(10**5)),
    ]
    return rng.choice(containers)()


def test_payload_nbytes_equals_the_isinstance_chain():
    """The exact-class lookups change no size over a randomized nested
    corpus that mixes every class they cover with subclasses, NumPy
    scalars, SizedPayloads and ``__wire_nbytes__`` types."""
    rng = random.Random(22)
    for _ in range(3000):
        obj = random_payload(rng)
        assert payload_nbytes(obj) == chain_nbytes(obj), obj
    assert payload_nbytes((1, 2.0), datatype=DOUBLE, count=3) == \
        chain_nbytes((1, 2.0), datatype=DOUBLE, count=3) == 24


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@settings(max_examples=50)
def test_list_of_floats_is_8_per_element(xs):
    assert payload_nbytes(xs) == 8 * len(xs)


@given(
    count=st.integers(min_value=0, max_value=1000),
    blocklength=st.integers(min_value=0, max_value=100),
    extra_stride=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=80)
def test_vector_size_never_exceeds_extent(count, blocklength, extra_stride):
    t = vector(count, blocklength, blocklength + extra_stride, DOUBLE)
    assert t.size <= t.extent
