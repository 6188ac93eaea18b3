"""Stream elements: the basic unit of the dataflow.

The paper (Section III-A): *"The basic unit of a stream is called
stream element.  Stream elements are usually small in size and are
injected into the channel as soon as data for one stream element is
ready."*  An element carries its payload, provenance (which producer,
which position in that producer's sequence) and wire size, which the
performance model's overhead term ``(D/S) * o`` is accounted against.
"""

from __future__ import annotations

from typing import Any

from ..simmpi.datatypes import payload_nbytes

class _Terminate:
    """Unique sentinel type for the end-of-stream control element."""

    __slots__ = ()

    #: a TERM's wire size (40 B with its sequence number): the 32 B
    #: ``sys.getsizeof`` gives the sentinel on CPython 3.11, declared so
    #: it holds on every interpreter and skips the generic type dispatch
    __wire_nbytes__ = 32

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<MPIStream TERMINATE>"


#: control marker payload announcing the end of one producer's stream.
#: Matched by identity (payloads travel by reference inside the
#: simulation), so no application payload can collide with it.
TERMINATE = _Terminate()


class StreamElement:
    """One unit of streamed data, as seen by the consumer's operator.

    A plain ``__slots__`` record: one is created per received element,
    and the frozen-dataclass ``object.__setattr__`` construction path
    was measurable at stream rates of 100k+ elements/s.
    """

    __slots__ = ("data", "source", "seq", "nbytes")

    def __init__(self, data: Any, source: int, seq: int, nbytes: int):
        self.data = data
        self.source = source   # producer's rank in the channel communicator
        self.seq = seq         # position in that producer's stream (0-based)
        self.nbytes = nbytes   # wire size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StreamElement(source={self.source}, seq={self.seq}, "
                f"nbytes={self.nbytes})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StreamElement):
            return NotImplemented
        return (self.data == other.data and self.source == other.source
                and self.seq == other.seq and self.nbytes == other.nbytes)

    def __hash__(self) -> int:
        # value hash, like the frozen dataclass this class replaced
        return hash((self.data, self.source, self.seq, self.nbytes))


def element_nbytes(data: Any) -> int:
    """Wire size of an element payload (plus a tiny header).

    The ``__wire_nbytes__`` protocol is checked first: application
    payload types (histograms, particle blocks) dominate the
    per-element path and skip the generic type dispatch.
    """
    wire = getattr(data, "__wire_nbytes__", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire) + 8  # seq header
    return payload_nbytes(data) + 8
