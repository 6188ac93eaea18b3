"""MPI-like error hierarchy for the simulated runtime.

The simulated runtime mirrors the error classes an MPI implementation
reports, so application code and tests can assert on specific failure
modes (truncation, invalid rank, communicator misuse) exactly as they
would against a real MPI library.
"""

from __future__ import annotations


class SimMPIError(Exception):
    """Base class for all errors raised by the simulated MPI runtime."""


class InvalidRankError(SimMPIError):
    """A point-to-point or collective call referenced a rank outside the
    communicator, or a negative rank other than the wildcards."""


class InvalidTagError(SimMPIError):
    """A tag was negative (other than ``ANY_TAG``) or exceeded ``TAG_UB``."""


class TruncationError(SimMPIError):
    """A receive posted a buffer smaller than the matched message.

    Mirrors ``MPI_ERR_TRUNCATE``: matching succeeds on (source, tag) only,
    and a too-small receive is an application error, not a silent clip.
    """


class CommunicatorError(SimMPIError):
    """Misuse of a communicator: operating on a freed communicator, a rank
    calling a collective on a communicator it does not belong to, etc."""


class RequestError(SimMPIError):
    """Misuse of a request object (double wait, reading the result of
    an incomplete request...)."""


class DatatypeError(SimMPIError):
    """Malformed datatype definition (negative counts, zero-size base...)."""


class TopologyError(SimMPIError):
    """Invalid Cartesian topology construction or coordinate query."""


class PlacementError(SimMPIError):
    """Invalid rank→node placement: groups that overlap or leave ranks
    unplaced, unknown policy names, out-of-range lookups."""


class OracleConfigError(SimMPIError):
    """A machine the seed-era :class:`~repro.simmpi.oracle.OracleNetwork`
    cannot time: it models only the flat fabric under block placement."""


class IOError_(SimMPIError):
    """MPI-IO failure (file not opened, bad view, write on read-only...)."""


class WindowError(SimMPIError):
    """Misuse of a one-sided window: out-of-range target rank or byte
    range, RMA access outside an epoch, unlock without lock, freeing a
    window with an open epoch (``MPI_ERR_WIN`` / ``MPI_ERR_RMA_SYNC``)."""


class ProcessFailedError(SimMPIError):
    """An operation could not complete because a peer process failed.

    Mirrors ULFM's ``MPI_ERR_PROC_FAILED``: raised inside the simulated
    rank at the blocked (or newly posted) operation, so application code
    can catch it and recover — uncaught, it aborts the simulation, the
    ``MPI_ERRORS_ARE_FATAL`` default.  Wildcard receives are interrupted
    too (the ``MPI_ERR_PROC_FAILED_PENDING`` case) until the failure is
    acknowledged via :meth:`~repro.simmpi.comm.Comm.failure_ack`.
    """

    def __init__(self, message: str, rank: int = -1):
        self.rank = rank
        super().__init__(message)


class RevokedError(SimMPIError):
    """An operation targeted a peer already known to have failed.

    Mirrors ULFM's ``MPI_ERR_REVOKED``: once a failure has been
    *detected*, new sends to (or exact receives from) the dead rank fail
    immediately instead of parking in a mailbox forever.
    """

    def __init__(self, message: str, rank: int = -1):
        self.rank = rank
        super().__init__(message)


class FaultSignal:
    """Poison payload carried by a cancelled :class:`EventFlag`.

    The fault controller resolves doomed waits by setting their flags
    with a ``FaultSignal`` as payload; fault-aware wait sites check the
    payload's class and raise ``.error`` inside the waiting generator.
    Fault-free runs never allocate one, so the check is a single pointer
    compare on the wait path.
    """

    __slots__ = ("error",)

    def __init__(self, error: SimMPIError):
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSignal({self.error!r})"


class DeadlockError(SimMPIError):
    """The event queue drained while one or more ranks were still blocked.

    A real MPI job would hang; the simulator detects the condition and
    reports every blocked rank together with the primitive it is stuck in,
    which makes communication-protocol bugs in applications immediately
    visible in tests.
    """

    def __init__(self, blocked: dict):
        self.blocked = dict(blocked)
        detail = ", ".join(
            f"rank {r}: {why}" for r, why in sorted(self.blocked.items())
        )
        super().__init__(f"simulation deadlock; blocked ranks: {detail}")
