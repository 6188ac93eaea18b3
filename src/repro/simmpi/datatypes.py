"""Datatype descriptors and payload sizing.

Real MPI types drive two things the simulation cares about: the *wire
size* of a message (which sets its transfer time) and the *layout*
contract between sender and receiver (which the paper's MPIStream uses
to define stream elements with non-contiguous, zero-copy layouts).

We keep the MPI shape — named base types, ``contiguous`` / ``vector`` /
``struct`` constructors with size and extent — and add a sizing helper
for arbitrary Python payloads so application code can send real data
(numeric mode) or explicit byte counts (scale mode) through one API.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

import numpy as np

from .errors import DatatypeError


@dataclass(frozen=True)
class Datatype:
    """A (possibly derived) datatype: wire size and memory extent in bytes.

    ``size`` is the number of bytes actually transferred per element;
    ``extent`` is the span the element occupies in memory (>= size for
    strided/vector types).  The distinction matters for MPIStream's
    zero-copy, non-contiguous stream elements: the wire cost uses
    ``size``, buffer accounting uses ``extent``.
    """

    name: str
    size: int
    extent: int

    def __post_init__(self):
        if self.size < 0 or self.extent < 0:
            raise DatatypeError(f"negative size/extent in {self.name}")
        if self.extent < self.size:
            raise DatatypeError(
                f"extent ({self.extent}) < size ({self.size}) in {self.name}"
            )


# MPI base types (sizes per the usual C ABI on the paper's testbed)
CHAR = Datatype("CHAR", 1, 1)
INT = Datatype("INT", 4, 4)
LONG = Datatype("LONG", 8, 8)
FLOAT = Datatype("FLOAT", 4, 4)
DOUBLE = Datatype("DOUBLE", 8, 8)
BYTE = Datatype("BYTE", 1, 1)


def contiguous(count: int, base: Datatype, name: str = "") -> Datatype:
    """``MPI_Type_contiguous``: ``count`` adjacent copies of ``base``."""
    if count < 0:
        raise DatatypeError("contiguous count must be non-negative")
    return Datatype(
        name or f"contig({count},{base.name})",
        count * base.size,
        count * base.extent,
    )


def vector(count: int, blocklength: int, stride: int, base: Datatype,
           name: str = "") -> Datatype:
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    ``stride`` elements apart.  Non-contiguous when stride > blocklength —
    the layout the paper uses for zero-copy stream elements."""
    if count < 0 or blocklength < 0:
        raise DatatypeError("vector count/blocklength must be non-negative")
    if count > 0 and stride < blocklength:
        raise DatatypeError("vector stride must be >= blocklength")
    size = count * blocklength * base.size
    if count == 0:
        extent = 0
    else:
        extent = ((count - 1) * stride + blocklength) * base.extent
    return Datatype(name or f"vector({count},{blocklength},{stride},{base.name})",
                    size, extent)


def struct(fields: Sequence[Tuple[int, Datatype]], name: str = "") -> Datatype:
    """``MPI_Type_create_struct``: heterogeneous packed record."""
    size = 0
    extent = 0
    for count, base in fields:
        if count < 0:
            raise DatatypeError("struct field count must be non-negative")
        size += count * base.size
        extent += count * base.extent
    return Datatype(name or f"struct({len(fields)} fields)", size, extent)


# ----------------------------------------------------------------------
# payload sizing
# ----------------------------------------------------------------------

class SizedPayload:
    """Wrapper carrying an explicit wire size for scale-mode payloads.

    In scale mode applications ship summaries (counts, digests) instead
    of full data but must still pay the full transfer cost; wrapping the
    summary in ``SizedPayload(summary, nbytes)`` does exactly that.
    """

    __slots__ = ("data", "nbytes")

    def __init__(self, data: Any, nbytes: int):
        if nbytes < 0:
            raise DatatypeError("SizedPayload nbytes must be non-negative")
        self.data = data
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SizedPayload({self.data!r}, nbytes={self.nbytes})"


#: wire size of the exact built-in scalar classes; none of them has a
#: ``__wire_nbytes__`` or is a SizedPayload, so looking them up before
#: the isinstance chain changes no size (subclasses of int, float and
#: complex and NumPy scalars still take the chain)
_SCALAR_NBYTES = {int: 8, float: 8, bool: 1, complex: 16, type(None): 0}


def payload_nbytes(obj: Any, datatype: Datatype = None, count: int = None) -> int:
    """Wire size in bytes of an arbitrary payload.

    Priority: explicit (datatype, count) -> SizedPayload ->
    ``__wire_nbytes__`` protocol (application payload types declare
    their own wire size) -> buffer protocol (NumPy) -> bytes/str ->
    containers (recursive) -> scalars.
    The container estimate is intentionally cheap and deterministic; it
    exists so tests can send small Python structures without declaring
    types, while performance-sensitive paths use arrays or SizedPayload.
    Exact ``int``/``float``/``bool``/``complex``/``None`` and plain
    ``tuple``/``list`` are recognized by their class first, which gives
    the same sizes without walking the chain.
    """
    if datatype is not None:
        n = count if count is not None else 1
        return n * datatype.size
    cls = type(obj)
    n = _SCALAR_NBYTES.get(cls)
    if n is not None:
        return n
    if cls is tuple or cls is list:
        return sum(map(payload_nbytes, obj))
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
    # int, float and complex subclasses (bool and NoneType have none)
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.nbytes
    # fallback: in-memory footprint, better than crashing on exotic types
    return sys.getsizeof(obj)
