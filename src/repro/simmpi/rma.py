"""One-sided communication: simulated MPI-3 RMA windows.

A :class:`Win` exposes a per-rank region of ``nbytes`` addressable
bytes over an intracommunicator.  ``put``/``get`` move data without the
target posting a receive; the transfer itself is costed through the
machine's :class:`~repro.simmpi.network.Network` exactly like a
point-to-point message (same latency/bandwidth/contention model), so
one-sided and two-sided traffic share a single timing story.

Synchronization follows the two MPI modes the co-simulation hub needs:

``fence()``
    Active target.  Drains every RMA operation this rank has issued
    (a put is drained once its bytes are *delivered*, not merely once
    the origin buffer is free), then barriers on the communicator.
    The first fence opens an access epoch; each later fence closes the
    previous epoch and opens the next.

``lock(target)`` / ``unlock(target)``
    Passive target, exclusive.  The lock lives at the target: an
    uncontended acquire costs a request/grant round trip
    (``2 x link latency``); contended acquires queue FIFO at the target
    and are granted by the releaser.  ``unlock`` drains the epoch's
    operations before releasing, giving the usual
    lock-put-unlock-becomes-visible contract.

Misuse — out-of-range targets or byte ranges, access outside an epoch,
overlapping epochs, unlock without lock — raises
:class:`~repro.simmpi.errors.WindowError` (``MPI_ERR_WIN`` /
``MPI_ERR_RMA_SYNC``).  Windows over intercommunicators are rejected,
as in MPI.

Window memory is modeled as a sparse ``{offset: value}`` store per
rank: the simulator tracks *which* bytes move and *when* they become
visible, not their bit patterns.  A put's value lands at the target at
the fabric's ``delivered`` time; a get snapshots the target's value at
issue time and completes at the origin one request latency plus one
transfer later.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from .datatypes import payload_nbytes
from .engine import Delay, EventFlag, WaitFlag
from .errors import WindowError
from .request import Request

__all__ = [
    "Win",
]


class _WinState:
    """Shared (all-ranks) state behind one window allocation.

    The first member rank to reach :meth:`Win.allocate` creates the
    state under a key every member computes identically — the same
    first-arrival scheme communicator creation uses for context ids.
    """

    __slots__ = ("sizes", "mem", "lock_owner", "lock_queue")

    def __init__(self) -> None:
        #: per-rank window size in bytes (filled as members arrive)
        self.sizes: Dict[int, int] = {}
        #: per-rank sparse memory {offset: value}
        self.mem: Dict[int, Dict[int, Any]] = {}
        #: per-target current exclusive-lock holder (local rank)
        self.lock_owner: Dict[int, Optional[int]] = {}
        #: per-target FIFO of (waiter rank, grant flag, grant latency)
        self.lock_queue: Dict[int, Deque[Tuple[int, EventFlag, float]]] = {}


class Win:
    """A one-sided window over an intracommunicator.

    Construct collectively with ``yield from Win.allocate(comm, nbytes)``
    — every member must call it, in the same program order relative to
    other allocations on the same communicator.
    """

    def __init__(self, comm, state: _WinState, nbytes: int):
        self.comm = comm
        self._state = state
        self.nbytes = nbytes
        self.name = f"win@{comm.name}"
        #: "none" | "fence" | ("lock", target)
        self._epoch: Any = "none"
        #: flags set when an issued operation has fully settled at the
        #: target (put: bytes delivered; get: value returned)
        self._pending: List[EventFlag] = []
        self._freed = False

    # ------------------------------------------------------------------
    # allocation / teardown (collective)
    # ------------------------------------------------------------------
    @classmethod
    def allocate(cls, comm, nbytes: int) -> Generator[Any, Any, "Win"]:
        """Collectively allocate a window exposing ``nbytes`` local bytes.

        Per-rank sizes may differ (``MPI_Win_allocate`` semantics); a
        zero-size exposure is legal — such a rank can originate RMA but
        offers no target memory.
        """
        if getattr(comm, "is_inter", False):
            raise WindowError(
                f"cannot allocate a window over intercommunicator "
                f"{comm.name!r}: one-sided windows require an "
                "intracommunicator (merge the groups first)")
        if not isinstance(nbytes, int) or nbytes < 0:
            raise WindowError(
                f"window size must be a non-negative integer byte count, "
                f"got {nbytes!r}")
        # every member executes window allocations on a communicator in
        # the same order, so a per-rank sequence number names the same
        # allocation on every rank
        seq = getattr(comm, "_win_seq", 0)
        comm._win_seq = seq + 1
        key = (comm.context, "win", seq)
        cache = comm.world._win_cache
        state = cache.get(key)
        if state is None:
            state = cache[key] = _WinState()
        state.sizes[comm.rank] = nbytes
        state.mem[comm.rank] = {}
        win = cls(comm, state, nbytes)
        yield from comm.barrier()
        return win

    def free(self) -> Generator[Any, Any, None]:
        """Collectively free the window.

        Freeing with an open passive-target epoch is an error; a fence
        epoch is implicitly closed by draining the outstanding
        operations before the closing barrier.
        """
        self._check_live("free")
        if type(self._epoch) is tuple:
            raise WindowError(
                f"free of {self.name} with an open lock epoch on target "
                f"rank {self._epoch[1]}: unlock first")
        yield from self._drain()
        yield from self.comm.barrier()
        self._freed = True

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def put(self, value: Any, target: int, offset: int = 0,
            nbytes: Optional[int] = None) -> Generator[Any, Any, Request]:
        """Write ``value`` into ``target``'s window at ``offset``.

        Returns a request that completes when the origin buffer is
        reusable (``sender_free``); the value becomes visible at the
        target at the fabric's ``delivered`` time, and the enclosing
        epoch close waits for that.
        """
        self._check_access("put", target)
        if nbytes is None:
            nbytes = payload_nbytes(value, None, None)
        self._check_range("put", target, offset, nbytes)
        comm = self.comm
        world = comm.world
        ctl = world._fault_ctl
        if ctl is not None:
            ctl.check_send(comm.ranks[target], comm.context)
        delay = world._o_send_delay
        if delay is not None:
            yield delay
        engine = world.engine
        timing = world.network.transfer(
            comm._global, comm.ranks[target], nbytes, ready=engine.now)
        req = Request("put", label=("put->", target, "@", offset))
        engine.call_at(timing.sender_free, partial(engine.set_flag, req))
        settle = EventFlag(label=("put-settle->", target))
        mem = self._state.mem[target]
        set_flag = engine.set_flag

        def _land() -> None:
            mem[offset] = value
            set_flag(settle)

        engine.call_at(timing.delivered, _land)
        self._pending.append(settle)
        return req

    def get(self, target: int, offset: int = 0,
            nbytes: int = 8) -> Generator[Any, Any, Request]:
        """Read ``nbytes`` at ``offset`` from ``target``'s window.

        The value is snapshotted at issue time at the target and
        returned as the request's payload after one request latency
        plus the data transfer back to the origin.
        """
        self._check_access("get", target)
        self._check_range("get", target, offset, nbytes)
        comm = self.comm
        world = comm.world
        ctl = world._fault_ctl
        if ctl is not None:
            ctl.check_send(comm.ranks[target], comm.context)
        delay = world._o_send_delay
        if delay is not None:
            yield delay
        engine = world.engine
        latency, _ = world.network._link(comm._global, comm.ranks[target])
        timing = world.network.transfer(
            comm.ranks[target], comm._global, nbytes,
            ready=engine.now + latency)
        value = self._state.mem[target].get(offset)
        req = Request("get", label=("get<-", target, "@", offset))
        engine.call_at(timing.delivered,
                       partial(engine.set_flag, req, value))
        self._pending.append(req)
        return req

    def local(self) -> Dict[int, Any]:
        """Snapshot of this rank's own window memory ``{offset: value}``.

        Local loads need no epoch (the unified-model guarantee a
        recovery successor relies on when it reads the state a dead
        peer mirrored into it).
        """
        self._check_live("local load")
        return dict(self._state.mem[self.comm.rank])

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def fence(self, end: bool = False) -> Generator[Any, Any, None]:
        """Active-target epoch boundary: drain, barrier, open the next.

        ``end=True`` is the ``MPI_MODE_NOSUCCEED`` analogue — the fence
        closes the current epoch without opening another, so the window
        can switch to passive-target (lock) synchronization afterwards.
        """
        self._check_live("fence")
        if type(self._epoch) is tuple:
            raise WindowError(
                f"overlapping synchronization epochs on {self.name}: "
                f"fence while a lock epoch on target rank "
                f"{self._epoch[1]} is open")
        yield from self._drain()
        yield from self.comm.barrier()
        self._epoch = "none" if end else "fence"

    def lock(self, target: int) -> Generator[Any, Any, None]:
        """Acquire the exclusive passive-target lock at ``target``."""
        self._check_live("lock")
        self._check_target("lock", target)
        ep = self._epoch
        if ep == "fence":
            raise WindowError(
                f"overlapping synchronization epochs on {self.name}: "
                f"lock({target}) while a fence epoch is open")
        if type(ep) is tuple:
            raise WindowError(
                f"lock({target}) on {self.name} while already holding "
                f"the lock on target rank {ep[1]}")
        comm = self.comm
        world = comm.world
        ctl = world._fault_ctl
        if ctl is not None:
            ctl.check_send(comm.ranks[target], comm.context)
        state = self._state
        latency, _ = world.network._link(comm._global, comm.ranks[target])
        if state.lock_owner.get(target) is None:
            state.lock_owner[target] = comm.rank
            if latency > 0:
                yield Delay(2 * latency)  # request + grant round trip
        else:
            flag = EventFlag(label=("win-lock:", target))
            state.lock_queue.setdefault(target, deque()).append(
                (comm.rank, flag, latency))
            if latency > 0:
                yield Delay(latency)  # lock request reaches the target
            yield WaitFlag(flag)      # grant arrives from the releaser
        self._epoch = ("lock", target)

    def unlock(self, target: int) -> Generator[Any, Any, None]:
        """Drain the epoch's operations and release the lock."""
        self._check_live("unlock")
        if self._epoch != ("lock", target):
            held = (f"the lock held is on target rank {self._epoch[1]}"
                    if type(self._epoch) is tuple
                    else "no lock is held")
            raise WindowError(
                f"unlock({target}) on {self.name} without a matching "
                f"lock: {held}")
        yield from self._drain()
        state = self._state
        engine = self.comm.world.engine
        queue = state.lock_queue.get(target)
        if queue:
            nxt, flag, grant_latency = queue.popleft()
            state.lock_owner[target] = nxt
            engine.call_at(engine.now + grant_latency,
                           partial(engine.set_flag, flag))
        else:
            state.lock_owner[target] = None
        self._epoch = "none"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drain(self) -> Generator[Any, Any, None]:
        pending = self._pending
        while pending:
            flag = pending.pop()
            if not flag.is_set:
                yield WaitFlag(flag)

    def _check_live(self, op: str) -> None:
        if self._freed:
            raise WindowError(f"{op} on freed window {self.name}")

    def _check_target(self, op: str, target: int) -> None:
        if not 0 <= target < self.comm.size:
            raise WindowError(
                f"{op} target rank {target} out of range for {self.name} "
                f"over {self.comm.name!r} of size {self.comm.size}")

    def _check_access(self, op: str, target: int) -> None:
        self._check_live(op)
        self._check_target(op, target)
        ep = self._epoch
        if ep == "fence":
            return
        if type(ep) is tuple:
            if ep[1] == target:
                return
            raise WindowError(
                f"{op} on target rank {target} of {self.name} but the "
                f"open passive-target epoch locks target rank {ep[1]}")
        raise WindowError(
            f"{op} on {self.name} outside any synchronization epoch: "
            f"open one with fence() or lock({target}) first")

    def _check_range(self, op: str, target: int, offset: int,
                     nbytes: int) -> None:
        size = self._state.sizes[target]
        if offset < 0 or nbytes < 0 or offset + nbytes > size:
            raise WindowError(
                f"{op} byte range [{offset}, {offset + nbytes}) does not "
                f"fit the window at target rank {target}, which exposes "
                f"{size} byte(s)")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Win({self.name!r}, nbytes={self.nbytes})"
