"""The transport (:class:`World`) and the :class:`Comm` communicator API.

``World`` owns the global simulation state — engine, network model,
noise model, one mailbox per rank — and implements the eager/rendezvous
point-to-point protocol on top of the engine's three syscalls.

``Comm`` is the per-rank handle application code programs against.  Its
methods are generator coroutines used with ``yield from`` inside a
simulated rank::

    def rank_main(comm):
        yield from comm.compute(0.5, label="mover")
        data = yield from comm.recv(source=ANY_SOURCE, tag=7)
        yield from comm.send(result, dest=0, tag=8)

The API mirrors mpi4py's lowercase object interface (send/recv move
Python payloads; sizes come from :func:`~repro.simmpi.datatypes.
payload_nbytes` or explicit datatypes), with collectives delegated to
:mod:`~repro.simmpi.collectives`.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush as _heappush
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from .config import MachineConfig
from .datatypes import Datatype, payload_nbytes
from .engine import Delay, Engine, WaitFlag, wait_any
from .errors import (
    CommunicatorError,
    FaultSignal,
    InvalidRankError,
    InvalidTagError,
    TruncationError,
)
from .matching import ANY_SOURCE, ANY_TAG, TAG_UB, Envelope, Mailbox
from .network import Network
from .noise import NoiseModel
from .request import Request, Status
from . import collectives

_env_new = Envelope.__new__


class ComputeCharge(tuple):
    """What :meth:`Comm.compute` returns: a one-``Delay`` tuple whose
    duration was fixed at the call (C-level iteration, no generator
    frame).  It is a distinct type so stream operators that *return* a
    compute charge, instead of ``yield from``-ing it, are still
    driven."""

    __slots__ = ()


class RecvRequest(Request):
    """A receive request that is also its own mailbox entry.

    The transport used to allocate two closures (``complete`` +
    ``on_match``) plus a :class:`PostedRecv` per receive; folding the
    completion state *and* the matching pattern into the request object
    (which already *is* the completion flag) makes a receive a single
    allocation.  The mailboxes duck-type posted receives through
    ``source``/``tag``/``context``/``max_nbytes``/``on_match``, which
    this class provides directly.
    """

    __slots__ = ("engine", "source", "tag", "context", "max_nbytes",
                 "o_recv")

    def __init__(self, engine: Engine, label: Any, source: int, tag: int,
                 context: int, max_nbytes: Optional[int], o_recv: float):
        # Request/EventFlag init inlined (one call frame per receive)
        self.is_set = False
        self.time = 0.0
        self.payload = None
        self._waiters = []
        self.label = label
        self.kind = "recv"
        self._waited = False
        self.engine = engine
        self.source = source
        self.tag = tag
        self.context = context
        self.max_nbytes = max_nbytes
        self.o_recv = o_recv

    def complete(self, env: Envelope, data_ready_time: float) -> None:
        max_nbytes = self.max_nbytes
        if max_nbytes is not None and env.nbytes > max_nbytes:
            raise TruncationError(
                f"message of {env.nbytes} B matched receive with "
                f"buffer of {max_nbytes} B (source={env.src}, tag={env.tag})"
            )
        engine = self.engine
        status = Status(env.src, env.tag, env.nbytes)
        now = engine.now
        done = (now if now > data_ready_time else data_ready_time) + self.o_recv
        engine._seq += 1
        _heappush(engine._heap,
                  (done, engine._seq,
                   partial(engine.set_flag, self,
                           (env.payload, status))))

    def on_match(self, env: Envelope) -> None:
        if env.eager:
            self.complete(env, env.delivered_time)
        else:
            env.on_match(env, partial(self.complete, env))


class World:
    """Global simulation state shared by every rank."""

    def __init__(self, engine: Engine, config: MachineConfig, nranks: int,
                 tracer=None, mailbox_factory=None, network_factory=None):
        """``mailbox_factory`` / ``network_factory`` inject alternative
        implementations — the ``bench perf`` slow path passes the
        :mod:`repro.simmpi.oracle` classes to reproduce pre-optimization
        behaviour; everything else uses the fast-path defaults."""
        config.validate()
        self.engine = engine
        self.config = config
        self.nranks = nranks
        # the machine's TopologyConfig picks the network's route (flat /
        # fat-tree / dragonfly), its placement policy the node map
        self.network = (network_factory or Network)(config, nranks)
        self.noise = NoiseModel(config.noise, nranks)
        if mailbox_factory is None:
            mailbox_factory = Mailbox
        self.mailboxes = [mailbox_factory() for _ in range(nranks)]
        # the network's placement-resolved rank→node lookup
        self.node_of = self.network.node_of
        self.tracer = tracer
        self._context_counter = 16  # low ids reserved for COMM_WORLD
        self._subcomm_cache: Dict[tuple, tuple] = {}
        self._group_cache: Dict[tuple, tuple] = {}
        # group_from_ranks member tuples -> small ids, by value and by
        # the identity of each value's first tuple (see group_id)
        self._group_ids: Dict[Tuple[int, ...], int] = {}
        self._group_ids_by_ref: Dict[int, int] = {}
        self.filesystem = None  # attached lazily by iolib
        # hot-path constants (MachineConfig is frozen); the o_send Delay
        # is immutable to the engine, so one shared instance serves
        # every send (point-to-point, stream, RMA) instead of an
        # allocation per message
        o_send = config.network.o_send
        self._o_send_delay = Delay(o_send) if o_send > 0 else None
        self._o_recv = config.network.o_recv
        self._compute_speed = config.compute_speed
        self._eager_threshold = config.network.eager_threshold
        # noise-free machines skip the NoiseModel call entirely: the
        # persistent factor is exactly 1.0 and no transient draws exist
        self._noise_free = (config.noise.persistent_skew == 0.0
                            and config.noise.quantum_fraction == 0.0)
        # fault injection (repro.faults): None on every fault-free run,
        # so the gates below stay single pointer compares.  The launcher
        # installs a FaultController when the run has a fault plan.
        self._fault_ctl = None
        # one-sided windows: shared _WinState per collective allocation,
        # keyed (comm context, "win", per-comm allocation seq) — the
        # same first-arrival agreement scheme as _subcomm_cache
        self._win_cache: Dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    # context management (communicator creation must agree across ranks)
    # ------------------------------------------------------------------
    def get_or_create_contexts(self, key: tuple) -> Tuple[int, int]:
        """(p2p_context, collective_context) for a derived communicator.

        The first member rank to reach the creation point allocates the
        pair; later ranks find it in the cache.  ``key`` is derived from
        the parent context plus what the creating call agrees on (for
        ``split``, the creation sequence number and color; for
        ``group_from_ranks``, the member tuple's :meth:`group_id` and
        its formation count), which all member ranks compute
        identically, mirroring how real MPI agrees on context ids during
        ``MPI_Comm_split``.
        """
        ids = self._subcomm_cache.get(key)
        if ids is None:
            p2p = self._context_counter
            self._context_counter += 2
            ids = (p2p, p2p + 1)
            self._subcomm_cache[key] = ids
        return ids

    def group_id(self, members: Tuple[int, ...]) -> int:
        """Small id of a member tuple, the same for every tuple of equal
        value.

        A tuple's hash is not cached and costs O(members), so the tuple
        a value was first formed with is found by identity: members that
        share one tuple object (a plan's group and flow tuples) never
        hash it, and any other tuple is hashed once."""
        gid = self._group_ids_by_ref.get(id(members))
        if gid is None:
            gid = self._group_ids.get(members)
            if gid is None:
                gid = len(self._group_ids)
                self._group_ids[members] = gid
                # the by-value key keeps this tuple alive, so no other
                # object takes its id() while the world exists
                self._group_ids_by_ref[id(members)] = gid
        return gid

    # ------------------------------------------------------------------
    # point-to-point transport
    # ------------------------------------------------------------------
    def post_send(self, gsrc: int, gdst: int, lsrc: int, tag: int,
                  context: int, payload: Any, nbytes: int,
                  synchronous: bool = False,
                  force_eager: bool = False) -> Request:
        """Initiate a transfer; returns the sender-side request.

        Called at the sender's current virtual time (CPU overhead has
        already been charged by the caller).  Eager messages commit the
        NIC transfer immediately and complete the sender as soon as the
        payload has left its NIC; rendezvous messages ship a header and
        only transfer once a matching receive exists.
        """
        ctl = self._fault_ctl
        if ctl is not None:
            ctl.check_send(gdst, context)
        engine = self.engine
        now = engine.now
        req = Request("send", label=("send->", gdst, "#", tag))
        eager = (force_eager or nbytes <= self._eager_threshold) \
            and not synchronous

        if eager:
            timing = self.network.transfer(gsrc, gdst, nbytes, ready=now)
            delivered = timing.delivered
            # Envelope.__init__ bypassed: one envelope per message makes
            # even the constructor's call frame measurable
            env = _env_new(Envelope)
            env.src = lsrc
            env.tag = tag
            env.context = context
            env.nbytes = nbytes
            env.payload = payload
            env.eager = True
            env.delivered_time = delivered
            env.on_match = None
            # both event times are provably >= now (the transfer starts
            # at `ready=now`), so the call_at clamp is skipped and the
            # two pushes are inlined
            heap = engine._heap
            seq = engine._seq + 1
            _heappush(heap, (delivered, seq,
                             partial(self.mailboxes[gdst].deliver, env)))
            seq += 1
            _heappush(heap, (timing.sender_free, seq,
                             partial(engine.set_flag, req)))
            engine._seq = seq
            return req

        # rendezvous: header (latency-only) then transfer on match
        def on_match(env_: Envelope, recv_done) -> None:
            match_time = engine.now
            ready = max(match_time, now)
            timing = self.network.transfer(gsrc, gdst, nbytes, ready=ready)
            engine.call_at(timing.sender_free,
                           partial(engine.set_flag, req))
            recv_done(timing.delivered)

        env = Envelope(lsrc, tag, context, nbytes, payload,
                       eager=False, delivered_time=now)
        env.on_match = on_match
        env.sender_req = req  # lets a receiver failure poison the sender
        header_latency, _ = self.network._link(gsrc, gdst)
        if ctl is not None:
            # the receiver may be declared dead while the header flies
            engine.call_at(now + header_latency,
                           partial(ctl.deliver_header, gdst, env))
        else:
            engine.call_at(now + header_latency,
                           partial(self.mailboxes[gdst].deliver, env))
        return req

    def post_recv(self, gdst: int, source: int, tag: int, context: int,
                  max_nbytes: Optional[int] = None,
                  label: Any = None) -> Request:
        """Post a receive; the request completes with ``(data, Status)``.

        ``label`` overrides the default lazy diagnostic label (callers
        on per-element hot paths pass a static string)."""
        req = RecvRequest(self.engine,
                          label if label is not None
                          else ("recv<-", source, "#", tag),
                          source, tag, context, max_nbytes, self._o_recv)
        self.mailboxes[gdst].post(req)
        return req


class Comm:
    """Per-rank communicator handle (mirrors the mpi4py object API)."""

    #: intracommunicators address their own members; :class:`Intercomm`
    #: overrides this (fault gates and streams branch on it cheaply)
    is_inter = False

    def __init__(self, world: World, ranks: Sequence[int], my_global: int,
                 context_p2p: int, context_coll: int, name: str = "comm",
                 my_local: Optional[int] = None):
        self.world = world
        # `tuple()` of a tuple is the same object: the launcher shares one
        # ranks tuple across all 8k+ Comm instances instead of copying.
        self.ranks: Tuple[int, ...] = tuple(ranks)
        self._global = my_global
        self._rank = (self.ranks.index(my_global)
                      if my_local is None else my_local)
        self.context = context_p2p
        self.context_coll = context_coll
        self.name = name
        self._coll_seq = 0
        # dup/split calls so far; group_from_ranks counts per member
        # tuple (by its World.group_id) instead, since only the group's
        # members call it
        self._create_seq = 0
        self._group_seq: Dict[int, int] = {}
        self._freed = False
        # introspection as plain attributes: rank/size sit on every
        # hot path (validation, collectives) and property dispatch is
        # measurable at 200k+ events/s
        self.rank = self._rank
        self.size = len(self.ranks)
        self.global_rank = my_global
        # the group point-to-point ranks address: this communicator's
        # own members (an Intercomm points these at its remote group)
        self._peers = self.ranks
        self._npeers = self.size
        # fault mode only: register for failure notification and track
        # which detection epoch this communicator has acknowledged
        ctl = world._fault_ctl
        if ctl is not None:
            self._fault_acked = 0
            ctl.register_comm(self)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def global_of(self, local: int) -> int:
        self._check_rank(local)
        return self.ranks[local]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Comm({self.name!r}, rank={self._rank}/{self.size})"

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _check_rank(self, r: int, wildcard: bool = False) -> None:
        if self._freed:
            raise CommunicatorError(f"operation on freed communicator {self.name!r}")
        if 0 <= r < self.size:
            return
        if wildcard and r == ANY_SOURCE:
            return
        raise InvalidRankError(
            f"rank {r} out of range for {self.name!r} of size {self.size}"
        )

    #: validates a point-to-point dest/source (a rank of ``_peers``)
    _check_peer = _check_rank

    @staticmethod
    def _check_tag(tag: int, wildcard: bool = False) -> None:
        if wildcard and tag == ANY_TAG:
            return
        if not (0 <= tag <= TAG_UB):
            raise InvalidTagError(f"tag {tag} outside [0, {TAG_UB}]")

    # ------------------------------------------------------------------
    # local time
    # ------------------------------------------------------------------
    def compute(self, seconds: float, label: str = "compute"
                ) -> ComputeCharge:
        """Charge ``seconds`` of nominal compute time; drive the result
        with ``yield from``.

        The charge is evaluated at the call: ``seconds`` at the
        machine's ``compute_speed``, inflated by the noise model unless
        the machine is noise-free, stretched over the rank's
        ``Slowdown`` windows from the current time, and recorded as a
        ``compute`` interval when the run is traced.
        """
        if seconds < 0:
            raise ValueError("negative compute duration")
        world = self.world
        actual = seconds / world._compute_speed
        if not world._noise_free:
            actual = world.noise.inflate(self._global, actual)
        ctl = world._fault_ctl
        if ctl is not None and ctl.has_slowdowns:
            # straggler windows compose multiplicatively with the noise
            # model: the charge is stretched piecewise over the windows
            # it overlaps
            actual = ctl.stretch(self._global, world.engine.now, actual)
        charge = Delay(actual)
        if world.tracer is not None:
            now = world.engine.now
            # the engine resumes the rank at exactly now + charge.dt
            world.tracer.record(self._global, "compute", label, now,
                                now + charge.dt)
        return ComputeCharge((charge,))

    def sleep(self, seconds: float) -> Generator[Any, Any, None]:
        """Raw virtual-time delay, no noise, no trace (harness use)."""
        yield Delay(seconds)

    @property
    def time(self) -> float:
        """Current virtual time (``MPI_Wtime``)."""
        return self.world.engine.now

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0,
              datatype: Optional[Datatype] = None, count: Optional[int] = None,
              _ctx: Optional[int] = None,
              nbytes: Optional[int] = None,
              force_eager: bool = False) -> Generator[Any, Any, Request]:
        if self._freed or dest < 0 or dest >= self._npeers:
            self._check_peer(dest)
        if tag < 0 or tag > TAG_UB:
            self._check_tag(tag)
        if nbytes is None:
            nbytes = payload_nbytes(data, datatype, count)
        world = self.world
        delay = world._o_send_delay
        if delay is not None:
            yield delay
        # lsrc is this rank's coordinate in its OWN group: on an
        # intercomm that is the remote-rank value the receiver matches
        return world.post_send(
            self._global, self._peers[dest], self._rank, tag,
            self.context if _ctx is None else _ctx, data, nbytes,
            force_eager=force_eager,
        )

    def issend(self, data: Any, dest: int, tag: int = 0,
               datatype: Optional[Datatype] = None, count: Optional[int] = None,
               _ctx: Optional[int] = None) -> Generator[Any, Any, Request]:
        self._check_peer(dest)
        self._check_tag(tag)
        nbytes = payload_nbytes(data, datatype, count)
        delay = self.world._o_send_delay
        if delay is not None:
            yield delay
        return self.world.post_send(
            self._global, self._peers[dest], self._rank, tag,
            self.context if _ctx is None else _ctx, data, nbytes,
            synchronous=True,
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              max_nbytes: Optional[int] = None,
              _ctx: Optional[int] = None) -> Request:
        """Post a non-blocking receive (no CPU cost until completion)."""
        if self._freed or source < ANY_SOURCE or source >= self._npeers:
            self._check_peer(source, wildcard=True)
        if tag > TAG_UB or tag < ANY_TAG:
            self._check_tag(tag, wildcard=True)
        ctl = self.world._fault_ctl
        if ctl is not None:
            ctl.check_recv(self, source)
        # envelopes carry the sender's rank in its own group, which is
        # the peer-group coordinate (or wildcard) matched here
        return self.world.post_recv(
            self._global, source, tag,
            self.context if _ctx is None else _ctx, max_nbytes,
        )

    def failure_ack(self) -> None:
        """Acknowledge every failure detected so far (ULFM's
        ``MPI_Comm_failure_ack``): wildcard receives on this communicator
        stop raising :class:`~repro.simmpi.errors.ProcessFailedError`
        for the acknowledged dead members.  No-op on fault-free runs."""
        ctl = self.world._fault_ctl
        if ctl is not None:
            self._fault_acked = ctl.version

    def revoke(self) -> None:
        """Revoke this communicator (ULFM's ``MPI_Comm_revoke``): every
        member's pending receive on it resolves to
        :class:`~repro.simmpi.errors.RevokedError` and new operations
        fail immediately — how survivors break out of a collective that
        a failure left half-completed.  Only meaningful on
        fault-injection runs."""
        ctl = self.world._fault_ctl
        if ctl is None:
            raise CommunicatorError(
                "revoke is part of the fault-injection surface; this "
                "run has no fault plan")
        ctl.revoke(self)

    def failed_members(self) -> Tuple[int, ...]:
        """Peer ranks (the remote group on an :class:`Intercomm`) whose
        failure has been detected (empty on fault-free runs)."""
        ctl = self.world._fault_ctl
        if ctl is None:
            return ()
        detected = ctl.detected
        return tuple(i for i, g in enumerate(self._peers) if g in detected)

    def wait(self, req: Request, label: str = "wait") -> Generator[Any, Any, Any]:
        """Block until ``req`` completes; returns its payload.

        For receive requests the payload is ``(data, Status)``."""
        if req._waited:
            req._mark_waited()  # raises the double-wait diagnostic
        req._waited = True
        flag = req  # a Request is its own EventFlag
        if flag.is_set:
            # already complete: continue synchronously at `now`, exactly
            # as the engine's WaitFlag fast path would, minus the
            # syscall allocation and dispatch
            payload = flag.payload
            if payload.__class__ is FaultSignal:
                raise payload.error
            return payload
        world = self.world
        engine = world.engine
        t0 = engine.now
        payload = yield WaitFlag(flag)
        if payload.__class__ is FaultSignal:
            raise payload.error
        if world.tracer is not None and engine.now > t0:
            world.tracer.record(self._global, "wait", label, t0,
                                engine.now)
        return payload

    def waitall(self, reqs: Sequence[Request], label: str = "waitall"
                ) -> Generator[Any, Any, List[Any]]:
        out = []
        for req in reqs:
            out.append((yield from self.wait(req, label=label)))
        return out

    def waitany(self, reqs: Sequence[Request], label: str = "waitany"
                ) -> Generator[Any, Any, Tuple[int, Any]]:
        """Block until the first of ``reqs`` completes.

        Returns ``(index, payload)``.  This is the primitive behind
        first-come-first-served stream consumption."""
        if not reqs:
            raise ValueError("waitany on empty request list")
        world = self.world
        engine = world.engine
        t0 = engine.now
        idx, payload = yield from wait_any(engine, reqs)
        reqs[idx]._mark_waited()
        if world.tracer is not None and engine.now > t0:
            world.tracer.record(self._global, "wait", label, t0, engine.now)
        return idx, payload

    def send(self, data: Any, dest: int, tag: int = 0,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             ) -> Generator[Any, Any, None]:
        req = yield from self.isend(data, dest, tag, datatype, count)
        yield from self.wait(req, label="send")

    def ssend(self, data: Any, dest: int, tag: int = 0,
              datatype: Optional[Datatype] = None, count: Optional[int] = None,
              ) -> Generator[Any, Any, None]:
        req = yield from self.issend(data, dest, tag, datatype, count)
        yield from self.wait(req, label="ssend")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: bool = False, max_nbytes: Optional[int] = None,
             ) -> Generator[Any, Any, Any]:
        req = self.irecv(source, tag, max_nbytes)
        data, st = yield from self.wait(req, label="recv")
        return (data, st) if status else data

    def sendrecv(self, data: Any, dest: int, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 ) -> Generator[Any, Any, Any]:
        """Simultaneous send+recv (deadlock-free halo-exchange primitive)."""
        rreq = self.irecv(source, recvtag)
        sreq = yield from self.isend(data, dest, sendtag)
        yield from self.wait(sreq, label="sendrecv")
        rdata, _ = yield from self.wait(rreq, label="sendrecv")
        return rdata

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG
               ) -> Optional[Status]:
        """Non-blocking probe of the unexpected queue."""
        self._check_peer(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        env = self.world.mailboxes[self._global].probe(source, tag, self.context)
        if env is None:
            return None
        return Status(env.src, env.tag, env.nbytes)

    # ------------------------------------------------------------------
    # collectives (implemented in collectives.py)
    # ------------------------------------------------------------------
    def _next_coll_tag(self, nsteps_reserved: int = 64) -> int:
        seq = self._coll_seq
        self._coll_seq += 1
        base = (seq * nsteps_reserved) % (TAG_UB - nsteps_reserved)
        return base

    def barrier(self):
        return collectives.barrier(self)

    def bcast(self, data: Any, root: int = 0):
        return collectives.bcast(self, data, root)

    def reduce(self, value: Any, op=None, root: int = 0, op_cost=None):
        return collectives.reduce(self, value, op, root, op_cost=op_cost)

    def allreduce(self, value: Any, op=None, op_cost=None):
        return collectives.allreduce(self, value, op, op_cost=op_cost)

    def gather(self, value: Any, root: int = 0):
        return collectives.gather(self, value, root)

    def allgather(self, value: Any):
        return collectives.allgather(self, value)

    def allgatherv(self, value: Any):
        return collectives.allgatherv(self, value)

    def alltoall(self, values: Sequence[Any]):
        return collectives.alltoall(self, values)

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0):
        return collectives.scatter(self, values, root)

    def scan(self, value: Any, op=None):
        return collectives.scan(self, value, op)

    def ibarrier(self):
        return collectives.ibarrier(self)

    def ireduce(self, value: Any, op=None, root: int = 0, op_cost=None):
        return collectives.ireduce(self, value, op, root, op_cost=op_cost)

    def iallgatherv(self, value: Any):
        return collectives.iallgatherv(self, value)

    def iallreduce(self, value: Any, op=None):
        return collectives.iallreduce(self, value, op)

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def split(self, color: Optional[int], key: int = 0
              ) -> Generator[Any, Any, Optional["Comm"]]:
        """Collective split (``MPI_Comm_split``); color=None opts out.

        The member list is agreed via a real allgather (so the call has
        realistic cost); context ids come from the world's first-creator
        cache keyed identically on every rank.  The first member to
        return from the allgather sorts every color's members by
        (key, rank) once and caches each color's member tuple and index
        map under its context key, so the other members do no O(P)
        work.
        """
        seq = self._create_seq
        self._create_seq += 1
        entries = yield from collectives.allgather(
            self, (color, key, self._rank)
        )
        if color is None:
            return None
        world = self.world
        ctx_key = (self.context, "split", seq, color)
        cached = world._group_cache.get(ctx_key)
        if cached is None:
            by_color: Dict[Any, list] = {}
            for c, k, r in entries:
                if c is not None:
                    by_color.setdefault(c, []).append((k, r))
            for c, members in by_color.items():
                members.sort()
                world._group_cache[(self.context, "split", seq, c)] = (
                    tuple(self.ranks[r] for _, r in members),
                    {r: i for i, (_, r) in enumerate(members)})
            cached = world._group_cache[ctx_key]
        globals_, index_of = cached
        p2p, coll = world.get_or_create_contexts(ctx_key)
        return Comm(world, globals_, self._global, p2p, coll,
                    name=f"{self.name}/split{seq}c{color}",
                    my_local=index_of[self._rank])

    def group_from_ranks(self, local_ranks: Sequence[int],
                         name: Optional[str] = None) -> "Comm":
        """Create a sub-communicator from a locally-known member list
        *without communication* (cf. ``MPI_Comm_create_group``).

        Only the group's members call this, each with the identical
        ``local_ranks`` list; ranks outside the group take no part.
        The members agree on the context ids through the world's
        first-creator cache under the member tuple's
        :meth:`World.group_id` plus how many times this rank has formed
        that tuple from this communicator, so the k-th formation of a
        group on one member matches the k-th on every other, whatever
        other groups, splits or dups each member made in between.  No
        agreement round is paid because the membership is already known
        deterministically on every rank (e.g. derived from a validated
        :class:`~repro.core.groups.DecouplingPlan`).
        """
        if self._freed:
            raise CommunicatorError(
                f"operation on freed communicator {self.name!r}")
        members = tuple(local_ranks)  # materialize once (iterables welcome)
        gid = self.world.group_id(members)
        seq = self._group_seq.get(gid, 0)
        ctx_key = (self.context, "group", gid, seq)
        cached = self.world._group_cache.get(ctx_key)
        if cached is None:
            # first member rank to arrive validates and builds the
            # shared member structures; every other rank (the calls are
            # identical by contract, like real MPI_Comm_create_group)
            # reuses them — O(members) total instead of per rank
            if not members:
                raise CommunicatorError(
                    f"group_from_ranks on {self.name!r} (size {self.size}) "
                    "needs at least one member rank, got an empty list")
            if len(set(members)) != len(members):
                seen: set = set()
                dupes = sorted({r for r in members
                                if r in seen or seen.add(r)})
                raise CommunicatorError(
                    f"group_from_ranks on {self.name!r} members must be "
                    f"duplicate-free: rank(s) {dupes} appear more than "
                    f"once in {len(members)} requested members")
            for r in members:
                self._check_rank(r)
            globals_ = tuple(self.ranks[r] for r in members)
            index_of = {r: i for i, r in enumerate(members)}
            cached = (globals_, index_of)
            self.world._group_cache[ctx_key] = cached
        globals_, index_of = cached
        my_local = index_of.get(self._rank)
        if my_local is None:
            preview = (list(members) if len(members) <= 16
                       else list(members[:16]) + ["..."])
            raise CommunicatorError(
                f"rank {self._rank} of {self.name!r} is not in the "
                f"requested group of {len(members)} member(s) {preview}; "
                "only members may call group_from_ranks")
        # all validation passed: only now count this formation and
        # (first arrival) take the context ids, so an error above
        # leaves the count untouched
        self._group_seq[gid] = seq + 1
        p2p, coll = self.world.get_or_create_contexts(ctx_key)
        return Comm(self.world, globals_, self._global, p2p, coll,
                    name=name or f"{self.name}/group{seq}",
                    my_local=my_local)

    def create_intercomm(self, local_ranks: Sequence[int],
                         remote_ranks: Sequence[int], tag: int = 0,
                         name: Optional[str] = None) -> "Intercomm":
        """Create an intercommunicator between two disjoint groups of
        this communicator's members *without communication* (the
        connect/accept analogue of :meth:`group_from_ranks`; cf.
        ``MPI_Intercomm_create``).

        Members of *both* groups call this at the same logical point:
        each side passes its own group as ``local_ranks`` and the peer
        group as ``remote_ranks`` (so the two sides' argument lists are
        mirrors of each other).  The context pair is agreed through the
        world's first-creator cache under a key derived from the *pair*
        of member tuples (order-normalized), so both sides resolve the
        identical contexts — the analogue of the bridge-communicator
        tag agreement in ``MPI_Intercomm_create``.  ``tag``
        disambiguates repeated intercommunicators between the same two
        groups, exactly like the MPI bridge tag.

        On the returned :class:`Intercomm`, ``dest``/``source`` ranks
        address the **remote** group; collectives and communicator
        derivation are not modeled and raise
        :class:`~repro.simmpi.errors.CommunicatorError`.
        """
        if self._freed:
            raise CommunicatorError(
                f"operation on freed communicator {self.name!r}")
        self._check_tag(tag)
        local = tuple(local_ranks)
        remote = tuple(remote_ranks)
        for side, group in (("local", local), ("remote", remote)):
            if not group:
                raise CommunicatorError(
                    f"create_intercomm on {self.name!r}: the {side} group "
                    f"is empty (local has {len(local)} member(s), remote "
                    f"has {len(remote)}); both groups need at least one "
                    "rank")
            if len(set(group)) != len(group):
                raise CommunicatorError(
                    f"create_intercomm on {self.name!r}: the {side} group "
                    f"{list(group)} has duplicate ranks")
            for r in group:
                self._check_rank(r)
        overlap = sorted(set(local) & set(remote))
        if overlap:
            raise CommunicatorError(
                f"create_intercomm on {self.name!r}: groups must be "
                f"disjoint; rank(s) {overlap} appear on both sides")
        if self._rank not in local:
            raise CommunicatorError(
                f"rank {self._rank} of {self.name!r} is not in its own "
                f"local group {list(local)}; each side passes its own "
                "group as local_ranks")
        local_glob = tuple(self.ranks[r] for r in local)
        remote_glob = tuple(self.ranks[r] for r in remote)
        # both sides must compute one key: normalize the pair by the
        # smaller leading member (the groups are disjoint, so the
        # ordering is total and communication-free)
        lo, hi = ((local_glob, remote_glob)
                  if local_glob[0] < remote_glob[0]
                  else (remote_glob, local_glob))
        ctx_key = (self.context, "intercomm", tag, lo, hi)
        p2p, coll = self.world.get_or_create_contexts(ctx_key)
        return Intercomm(
            self.world, local_glob, remote_glob, self._global, p2p, coll,
            name=name or f"{self.name}/inter{tag}",
            my_local=local.index(self._rank))

    def dup(self) -> Generator[Any, Any, "Comm"]:
        """Duplicate the communicator with fresh contexts (collective)."""
        seq = self._create_seq
        self._create_seq += 1
        yield from collectives.barrier(self)
        ctx_key = (self.context, "dup", seq)
        p2p, coll = self.world.get_or_create_contexts(ctx_key)
        return Comm(self.world, self.ranks, self._global, p2p, coll,
                    name=f"{self.name}/dup{seq}", my_local=self._rank)

    def free(self) -> None:
        self._freed = True


class Intercomm(Comm):
    """An intercommunicator: a local group exchanging point-to-point
    traffic with a disjoint remote group (``MPI_Comm_test_inter`` true).

    ``rank``/``size`` describe the **local** group (as in MPI);
    ``dest``/``source`` arguments of every point-to-point operation
    address the **remote** group.  Envelopes carry the sender's rank in
    *its own* group, which is exactly the remote-rank coordinate the
    receiver matches on — so the shared mailboxes need no new matching
    machinery, only the dedicated context pair.

    Intercommunicator collectives and communicator derivation (split /
    dup / merge) are not part of the modeled surface and raise
    :class:`~repro.simmpi.errors.CommunicatorError`.

    Fault semantics (fault-injection runs): a detected failure in the
    remote group poisons exact receives from the dead remote rank and
    interrupts wildcard receives on this intercommunicator
    (``PROC_FAILED_PENDING``) until :meth:`failure_ack`;
    :meth:`failed_members` reports dead **remote** ranks, since only
    remote peers carry intercomm traffic.
    """

    is_inter = True

    def __init__(self, world: World, ranks: Sequence[int],
                 remote_ranks: Sequence[int], my_global: int,
                 context_p2p: int, context_coll: int, name: str = "intercomm",
                 my_local: Optional[int] = None):
        # set before Comm.__init__: the fault controller's register_comm
        # (called from there) distinguishes intercomms by this attribute
        self.remote_ranks: Tuple[int, ...] = tuple(remote_ranks)
        self.remote_size = len(self.remote_ranks)
        super().__init__(world, ranks, my_global, context_p2p, context_coll,
                         name=name, my_local=my_local)
        # every point-to-point operation addresses the remote group
        self._peers = self.remote_ranks
        self._npeers = self.remote_size

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def remote_global_of(self, remote: int) -> int:
        """Global rank behind a remote-group rank."""
        self._check_peer(remote)
        return self.remote_ranks[remote]

    @property
    def all_member_ranks(self) -> Tuple[int, ...]:
        """Global ranks of both groups (local first) — the revocation
        sweep cancels pending receives on every one of them."""
        return self.ranks + self.remote_ranks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Intercomm({self.name!r}, rank={self._rank}/{self.size}, "
                f"remote={self.remote_size})")

    def _check_peer(self, r: int, wildcard: bool = False) -> None:
        """dest/source ranks live in the remote group."""
        if self._freed:
            raise CommunicatorError(
                f"operation on freed intercommunicator {self.name!r}")
        if 0 <= r < self.remote_size:
            return
        if wildcard and r == ANY_SOURCE:
            return
        raise InvalidRankError(
            f"remote rank {r} out of range for intercommunicator "
            f"{self.name!r} with a remote group of size {self.remote_size} "
            f"(local size {self.size})")

    # ------------------------------------------------------------------
    # the unmodeled surface
    # ------------------------------------------------------------------
    def _no_intercomm(self, op: str):
        raise CommunicatorError(
            f"{op} is not modeled on intercommunicators "
            f"({self.name!r}); merge the groups into an "
            "intracommunicator first")

    def barrier(self):
        self._no_intercomm("barrier")

    def bcast(self, data: Any, root: int = 0):
        self._no_intercomm("bcast")

    def reduce(self, value: Any, op=None, root: int = 0, op_cost=None):
        self._no_intercomm("reduce")

    def allreduce(self, value: Any, op=None, op_cost=None):
        self._no_intercomm("allreduce")

    def gather(self, value: Any, root: int = 0):
        self._no_intercomm("gather")

    def allgather(self, value: Any):
        self._no_intercomm("allgather")

    def allgatherv(self, value: Any):
        self._no_intercomm("allgatherv")

    def alltoall(self, values: Sequence[Any]):
        self._no_intercomm("alltoall")

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0):
        self._no_intercomm("scatter")

    def scan(self, value: Any, op=None):
        self._no_intercomm("scan")

    def ibarrier(self):
        self._no_intercomm("ibarrier")

    def ireduce(self, value: Any, op=None, root: int = 0, op_cost=None):
        self._no_intercomm("ireduce")

    def iallgatherv(self, value: Any):
        self._no_intercomm("iallgatherv")

    def iallreduce(self, value: Any, op=None):
        self._no_intercomm("iallreduce")

    def split(self, color: Optional[int], key: int = 0):
        self._no_intercomm("split")

    def dup(self):
        self._no_intercomm("dup")

    def group_from_ranks(self, local_ranks: Sequence[int],
                         name: Optional[str] = None) -> "Comm":
        self._no_intercomm("group_from_ranks")

    def create_intercomm(self, local_ranks: Sequence[int],
                         remote_ranks: Sequence[int], tag: int = 0,
                         name: Optional[str] = None) -> "Intercomm":
        self._no_intercomm("create_intercomm")
