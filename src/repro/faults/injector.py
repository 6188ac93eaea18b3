"""Deterministic fault injection against a running simulation.

The :class:`FaultController` is installed by the launcher when a run
carries a :class:`~repro.faults.plan.FaultPlan`.  It owns the whole
crash lifecycle (see DESIGN.md §12):

1. **Crash** — at the event's virtual time the rank's process is killed
   through the engine's :meth:`~repro.simmpi.engine.Engine.kill`
   primitive: the generator closes, the done flag records the crash
   time, the heap keeps draining.
2. **Detection** — ``detection_latency`` later the failure becomes
   *known* (modeling an asynchronous ULFM-style failure detector).  The
   controller then resolves every operation the crash doomed:

   * rendezvous headers parked in the dead rank's mailbox poison their
     sender requests (the sender wakes with
     :class:`~repro.simmpi.errors.ProcessFailedError`), and so does
     every header still in flight to it, when it lands;
   * posted receives of surviving members of every communicator the
     dead rank belonged to are cancelled — exact receives from the dead
     rank *and* wildcard receives (ULFM's ``PROC_FAILED_PENDING``),
     which keep raising on re-post until the communicator calls
     :meth:`~repro.simmpi.comm.Comm.failure_ack`;
   * new sends to the dead rank raise
     :class:`~repro.simmpi.errors.RevokedError` immediately.

Everything is edge-triggered at fixed virtual times over deterministic
structures (communicators in registration order, mailboxes by rank), so
a faulted run replays bit-identically for a fixed (seed, plan).

:class:`~repro.faults.plan.LinkDegrade` windows are not the
controller's: the launcher installs them on the run's network
(:meth:`~repro.simmpi.network.Network.degrade`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..simmpi.errors import FaultSignal, ProcessFailedError, RevokedError
from ..simmpi.matching import ANY_SOURCE
from .plan import FaultError, FaultPlan

__all__ = ["FaultController"]


class FaultController:
    """Schedules a plan's events and resolves what a crash dooms."""

    def __init__(self, engine, world, plan: FaultPlan):
        self.engine = engine
        self.world = world
        self.plan = plan
        #: global rank -> crash time (set the instant the rank dies)
        self.failed: Dict[int, float] = {}
        #: global rank -> detection time (set when survivors learn)
        self.detected: Dict[int, float] = {}
        #: detection epoch; bumps once per detected failure so
        #: communicators and streams can poll for news cheaply
        self.version = 0
        self.has_slowdowns = bool(plan.slowdowns)
        self._windows: Dict[int, List[Tuple[float, float, float]]] = {}
        for ev in plan.slowdowns:
            self._windows.setdefault(ev.rank, []).append(
                (ev.t0, ev.t1, ev.factor))
        for windows in self._windows.values():
            windows.sort()
        self._contexts: Dict[int, Tuple[Tuple[int, ...], Tuple[int, int]]] = {}
        #: intercommunicators, kept separate because the detection sweep
        #: crosses groups: a dead rank in one group dooms receives posted
        #: by the *other* group.  context -> (group, other group, contexts)
        self._inter_contexts: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, int]]] = {}
        #: context ids of revoked communicators (ULFM MPI_Comm_revoke)
        self.revoked: set = set()
        #: (channel context, stream tag) -> local ranks of producers
        #: that have terminated that stream.  Stands in for the ack/
        #: checkpoint metadata a real recovery protocol persists: the
        #: successor must not wait for a TERM a producer already sent
        #: to the dead consumer (it would never be re-sent).
        self.stream_terms: Dict[Tuple[int, int], set] = {}
        self._handles = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_comm(self, comm) -> None:
        """Record a communicator's membership for the detection sweep
        (called from ``Comm.__init__`` on fault-mode runs; the first
        member instance wins, they are identical by construction)."""
        remote = getattr(comm, "remote_ranks", None)
        if remote is not None:
            # either side may register first; the sweep treats the two
            # groups symmetrically, so the stored orientation is moot
            if comm.context not in self._inter_contexts:
                self._inter_contexts[comm.context] = (
                    comm.ranks, remote, (comm.context, comm.context_coll))
            return
        if comm.context not in self._contexts:
            self._contexts[comm.context] = (
                comm.ranks, (comm.context, comm.context_coll))

    def note_stream_terminated(self, context: int, tag: int,
                               producer_local: int) -> None:
        """A producer finished terminating stream ``tag`` on channel
        ``context`` (recorded by ``Stream.terminate`` and the cosim
        ``APort.close``)."""
        self.stream_terms.setdefault((context, tag), set()).add(
            producer_local)

    def terminated_producers(self, context: int, tag: int) -> set:
        return self.stream_terms.get((context, tag), set())

    def install(self, handles) -> None:
        """Schedule every planned event (called once by the launcher,
        after the rank processes are spawned)."""
        self._handles = handles
        for ev in self.plan.crashes:
            self.engine.call_at(ev.time, partial(self._crash, ev.rank))

    # ------------------------------------------------------------------
    # the crash lifecycle
    # ------------------------------------------------------------------
    def _crash(self, rank: int) -> None:
        now = self.engine.now
        self.failed[rank] = now
        self.engine.kill(
            self._handles[rank],
            ProcessFailedError(f"rank {rank} crashed at t={now:.6g}",
                               rank=rank))
        tracer = self.world.tracer
        if tracer is not None:
            # compute intervals are recorded when the charge starts; the
            # one the rank died in ends here
            tracer.end_open(rank, now)
        self.engine.call_after(self.plan.detection_latency,
                               partial(self._detect, rank))

    def _failure(self, rank: int) -> ProcessFailedError:
        return ProcessFailedError(
            f"rank {rank} (global) failed at t={self.failed[rank]:.6g}, "
            f"detected at t={self.detected[rank]:.6g}", rank=rank)

    def _detect(self, rank: int) -> None:
        self.detected[rank] = self.engine.now
        self.version += 1
        exc = self._failure(rank)
        engine = self.engine
        mailboxes = self.world.mailboxes
        # rendezvous senders parked in the dead rank's mailbox: their
        # headers will never match, poison the sender requests
        for env in mailboxes[rank].unexpected_envelopes():
            sreq = getattr(env, "sender_req", None)
            if sreq is not None and not sreq.is_set:
                engine.set_flag(sreq, FaultSignal(exc))
        # posted receives of surviving members in every communicator the
        # dead rank belongs to: exact receives from it are doomed,
        # wildcard receives are interrupted (PROC_FAILED_PENDING)
        for key in sorted(self._contexts):
            ranks, contexts = self._contexts[key]
            if rank not in ranks:
                continue
            dead_local = ranks.index(rank)
            for g in ranks:
                if g == rank or g in self.failed:
                    continue
                victims = mailboxes[g].cancel_posted(contexts, dead_local)
                for req in victims:
                    engine.set_flag(req, FaultSignal(exc))
        # intercommunicators: a dead rank is addressed by its rank in its
        # OWN group, and the doomed receives were posted by the OTHER
        # group — so the sweep crosses sides
        for key in sorted(self._inter_contexts):
            group_a, group_b, contexts = self._inter_contexts[key]
            if rank in group_a:
                dead_local, victims_of = group_a.index(rank), group_b
            elif rank in group_b:
                dead_local, victims_of = group_b.index(rank), group_a
            else:
                continue
            for g in victims_of:
                if g in self.failed:
                    continue
                victims = mailboxes[g].cancel_posted(contexts, dead_local)
                for req in victims:
                    engine.set_flag(req, FaultSignal(exc))

    # ------------------------------------------------------------------
    # communicator revocation (ULFM MPI_Comm_revoke)
    # ------------------------------------------------------------------
    def revoke(self, comm, contexts: Optional[Tuple[int, ...]] = None
               ) -> None:
        """Revoke ``comm``: every pending receive of every surviving
        member resolves to :class:`RevokedError`, and new operations on
        its contexts fail immediately — the survivors' tool for breaking
        out of a collective a failure left half-completed.

        ``contexts`` restricts the revocation (the channel-teardown
        degrade revokes only the *collective* context, so in-flight
        stream traffic on the p2p context keeps flowing)."""
        if contexts is None:
            contexts = (comm.context, comm.context_coll)
        todo = tuple(c for c in contexts if c not in self.revoked)
        if not todo:
            return
        self.revoked.update(todo)
        self.version += 1
        exc = RevokedError(
            f"communicator {comm.name!r} revoked", rank=comm.rank)
        engine = self.engine
        mailboxes = self.world.mailboxes
        # on an intercomm both groups post receives on the revoked
        # context; sweep every member of either side
        members = comm.ranks + getattr(comm, "remote_ranks", ())
        for g in members:
            if g in self.failed:
                continue
            for req in mailboxes[g].cancel_posted(todo, None):
                engine.set_flag(req, FaultSignal(exc))

    # ------------------------------------------------------------------
    # gates the transport consults (fault-mode runs only)
    # ------------------------------------------------------------------
    def deliver_header(self, gdst: int, env) -> None:
        """Land a rendezvous header in ``gdst``'s mailbox, unless
        ``gdst``'s failure was detected while the header was in flight:
        the detection sweep has already passed, so poison the sender
        here or it would wait forever."""
        if gdst in self.detected:
            self.engine.set_flag(env.sender_req,
                                 FaultSignal(self._failure(gdst)))
        else:
            self.world.mailboxes[gdst].deliver(env)

    def check_send(self, gdst: int, context: int) -> None:
        if context in self.revoked:
            raise RevokedError(
                f"send on a revoked communicator (context {context})")
        if gdst in self.detected:
            raise RevokedError(
                f"send to failed rank {gdst} (global), crashed at "
                f"t={self.failed[gdst]:.6g}", rank=gdst)

    def check_recv(self, comm, source: int) -> None:
        if self.revoked and comm.context in self.revoked:
            raise RevokedError(
                f"receive on revoked communicator {comm.name!r}")
        if not self.detected:
            return
        detected = self.detected
        # receives address the communicator's peer group (the remote
        # group of an intercomm): its members' deaths doom them
        peers = comm._peers
        if source == ANY_SOURCE:
            if comm._fault_acked >= self.version:
                return
            dead = [i for i, g in enumerate(peers) if g in detected]
            if dead:
                raise ProcessFailedError(
                    f"wildcard receive on {comm.name!r} interrupted: "
                    f"{'remote ' if comm.is_inter else ''}member rank(s) "
                    f"{dead} failed; call failure_ack() "
                    "to continue receiving from the survivors",
                    rank=dead[0])
            comm._fault_acked = self.version
            return
        g = peers[source]
        if g in detected:
            raise ProcessFailedError(
                f"receive from rank {source} on {comm.name!r}: peer "
                f"(global rank {g}) failed at t={self.failed[g]:.6g}",
                rank=source)

    # ------------------------------------------------------------------
    # straggler windows
    # ------------------------------------------------------------------
    def stretch(self, rank: int, start: float, duration: float) -> float:
        """Wall duration of ``duration`` compute seconds starting at
        ``start`` under the rank's slowdown windows (piecewise: the part
        of the charge overlapping a window runs ``factor``x slower)."""
        windows = self._windows.get(rank)
        if not windows or duration <= 0:
            return duration
        remaining = duration     # nominal seconds still to burn
        t = start
        for t0, t1, factor in windows:
            if remaining <= 0:
                break
            if t1 <= t:
                continue
            if t < t0:
                gap = t0 - t
                if remaining <= gap:
                    t += remaining
                    remaining = 0.0
                    break
                t = t0
                remaining -= gap
            span = t1 - t
            need = remaining * factor
            if need <= span:
                t += need
                remaining = 0.0
                break
            t = t1
            remaining -= span / factor
        if remaining > 0:
            t += remaining
        return t - start

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """What happened, for ``SimResult.extras["faults"]``."""
        return {
            "failed": dict(self.failed),
            "detected": dict(self.detected),
            "events": len(self.plan.events),
            "detection_latency": self.plan.detection_latency,
        }
