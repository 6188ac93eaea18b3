"""Request objects for non-blocking operations.

A :class:`Request` is an :class:`~repro.simmpi.engine.EventFlag`; the
transport sets it when the operation completes (for receives, the
payload is ``(data, Status)``).  ``Comm.wait`` / ``Comm.waitall`` /
``Comm.waitany`` block on these flags; ``test`` polls them.  Streams
post their sends and receives straight through the transport
(``World.post_send`` / ``World.post_recv``), one request per element.
"""

from __future__ import annotations

from typing import Any

from .engine import EventFlag, format_label
from .errors import RequestError


class Status:
    """Completion status of a receive: source, tag, and message size."""

    __slots__ = ("source", "tag", "nbytes")

    def __init__(self, source: int, tag: int, nbytes: int):
        self.source = source
        self.tag = tag
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Status(source={self.source}, tag={self.tag}, nbytes={self.nbytes})"


class Request(EventFlag):
    """Handle for an in-flight non-blocking operation.

    A request *is* its completion flag: ``Request`` subclasses
    :class:`~repro.simmpi.engine.EventFlag` and ``req.flag`` returns
    ``self``, so the transport allocates one object per operation where
    it used to allocate two (requests are created twice per message on
    the hot path).  All call sites keep reading ``req.flag``.
    """

    __slots__ = ("kind", "_waited")

    def __init__(self, kind: str, label: Any = ""):
        # inlined EventFlag.__init__ (saves a call per request)
        self.is_set = False
        self.time = 0.0
        self.payload = None
        self._waiters = []
        self.label = label or kind
        self.kind = kind
        self._waited = False

    @property
    def flag(self) -> EventFlag:
        return self

    @property
    def done(self) -> bool:
        return self.is_set

    def test(self) -> bool:
        """Non-blocking completion check (``MPI_Test`` without the wait)."""
        return self.is_set

    def result(self) -> Any:
        """Value delivered at completion; raises if not complete yet."""
        if not self.is_set:
            raise RequestError(
                f"request {format_label(self.label)!r} not complete")
        return self.payload

    def _mark_waited(self) -> None:
        if self._waited:
            raise RequestError(
                f"request {format_label(self.label)!r} waited on twice; "
                "requests are "
                "single-completion objects"
            )
        self._waited = True


def completed_request(kind: str, payload: Any = None) -> Request:
    """A request that is already complete (zero-size sends, self-matches)."""
    req = Request(kind)
    req.flag.is_set = True
    req.flag.payload = payload
    return req
