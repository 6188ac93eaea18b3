"""Streams: attach, inject, operate, terminate.

The Python rendering of the paper's stream API (Section III-A):

=====================================  ==================================
Paper (C)                              Here
=====================================  ==================================
``MPIStream_Attach(dt, op, &s, &ch)``  ``s = yield from attach(ch, op)``
``MPIStream_Isend(&data, &s)``         ``yield from s.isend(data)``
``MPIStream_Operate(&s)``              ``yield from s.operate()``
``MPIStream_Terminate(&s)``            ``yield from s.terminate()``
=====================================  ==================================

Semantics reproduced faithfully:

* elements are injected *asynchronously* as soon as they exist
  (non-blocking sends with a bounded in-flight window);
* the consumer processes elements **first-come-first-served across all
  producers** (an ``ANY_SOURCE`` receive) — this is the imbalance-
  absorption mechanism;
* the attached operator is applied *on the fly* to each arriving
  element; operators may themselves communicate or charge compute time
  (pass a generator function);
* ``terminate`` ends one producer's flow; ``operate`` returns when all
  producers that target this consumer have terminated.  ``operate``,
  ``operate_pending`` (only what is already queued) and
  ``recv_element`` (the next data element, ``None`` once every producer
  has terminated) run one consumer loop, so TERMs, failures and
  checkpoints behave alike whichever call reads the stream.

Each ``isend`` charges the Eq.-4 per-element overhead ``o``
(element construction + injection call), configurable per stream.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from ..simmpi.comm import ComputeCharge
from ..simmpi.engine import Delay, WaitFlag
from ..simmpi.errors import (
    CommunicatorError,
    FaultSignal,
    ProcessFailedError,
    RequestError,
    RevokedError,
)
from ..simmpi.matching import ANY_SOURCE
from .channel import StreamChannel
from .element import TERMINATE, StreamElement, element_nbytes
from .profiles import StreamProfile

#: default per-element injection overhead (seconds) — the `o` of Eq. 4
DEFAULT_ELEMENT_OVERHEAD = 2.0e-6

#: default bound on a producer's in-flight elements before it waits
DEFAULT_WINDOW = 64

#: what the one consumer loop (`Stream._consume`) is driven for
_OPERATE, _PENDING, _RECV = 0, 1, 2

#: checkpoint acks travel on the stream's tag plus this offset, so they
#: can never match data elements (stream tags are small per-channel ints)
ACK_TAG_BASE = 1 << 16


class Stream:
    """One attached data stream over a :class:`StreamChannel`."""

    def __init__(self, channel: StreamChannel, operator: Optional[Callable],
                 tag: int, element_overhead: float, window: int,
                 router: Optional[Callable] = None, eager: bool = False,
                 checkpoint=None):
        self.channel = channel
        self.operator = operator
        self.tag = tag
        self.element_overhead = element_overhead
        self.window = window
        self.router = router
        self.eager = eager
        self.profile = StreamProfile()
        self._seq = 0
        self._pending: Deque = deque()
        self._terminated = False
        # failure handling runs only when the run injects faults
        # (`_ctl`), checkpointing only when the stream declares a policy;
        # both sit behind one `is not None` compare on the shared paths
        self.checkpoint = checkpoint
        self._ctl = channel.comm.world._fault_ctl
        if checkpoint is not None:
            checkpoint.validate()
            if router is not None:
                raise CommunicatorError(
                    "checkpoint recovery needs static blocked routing; "
                    "a custom router cannot replay deterministically")
        self.ack_tag = tag + ACK_TAG_BASE
        self._seen_version = 0
        self._handled_globals: set = set()
        self._dead_locals: set = set()
        self._termed_sources: set = set()
        #: dead producers already subtracted from expected_terms; a
        #: TERM of theirs still in flight must not count twice
        self._discounted_sources: set = set()
        self._unacked: Deque = deque()   # (seq, data, nbytes) un-acked
        self._ack_req = None
        self._contrib: dict = {}         # src local rank -> last seq
        self._since_ckpt = 0
        self._stream_failed = None
        # static blocked routing resolves the destination once, not per
        # element (custom routers stay per-element, see _dest)
        if channel.is_producer and router is None:
            self._static_dest = channel.consumer_of(channel.producer_index)
            self._dest_ci0 = (channel.producer_index * channel.nconsumers
                              // channel.nproducers)
        else:
            self._static_dest = None
            self._dest_ci0 = None
        # consumer-side bookkeeping
        if channel.is_consumer:
            ci = channel.consumer_index
            if router is None:
                self._expected_terms = channel.fan_in(ci)
            else:
                # custom routing: every producer terminates to every consumer
                self._expected_terms = channel.nproducers
        else:
            self._expected_terms = 0
        self._terms_seen = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def _dest(self, data: Any) -> int:
        pi = self.channel.producer_index
        if self.router is not None:
            ci = self.router(pi, self._seq, data) % self.channel.nconsumers
            return self.channel.consumers[ci]
        return self.channel.consumer_of(pi)

    def isend(self, data: Any) -> Generator[Any, Any, None]:
        """Inject one stream element (``MPIStream_Isend``).

        Non-blocking: returns once the element is handed to the
        transport.  When ``window`` elements are already in flight, the
        oldest is waited for before the new one is injected, so at most
        ``window`` elements are ever pending (bounded buffering,
        Section II-D's memory argument).
        """
        channel = self.channel
        if channel.freed:
            channel.check_alive()
        if not channel.is_producer:
            raise CommunicatorError(
                f"isend on a non-producer rank (rank {channel.comm.rank}, "
                f"role {channel.role})")
        if self._terminated:
            raise RequestError("isend after terminate")
        comm = channel.comm
        world = comm.world
        if self._ctl is not None:
            yield from self._poll_failures()
            if self._stream_failed is not None:
                raise self._stream_failed
        if self.checkpoint is not None:
            yield from self._drain_acks()
        overhead = self.element_overhead
        if overhead > 0:
            yield from comm.compute(overhead, label="stream-inject")
        pending = self._pending
        if len(pending) >= self.window:
            oldest = pending.popleft()
            # comm.wait inlined (label "stream-window"): the window is
            # normally full in steady state, so this runs per element
            oldest._waited = True
            if oldest.is_set:
                sent = oldest.payload
            else:
                engine = world.engine
                t0 = engine.now
                sent = yield WaitFlag(oldest)
                if world.tracer is not None and engine.now > t0:
                    world.tracer.record(comm.global_rank, "wait",
                                        "stream-window", t0, engine.now)
            if sent.__class__ is FaultSignal:
                yield from self._poll_failures()
                if self._stream_failed is not None:
                    raise self._stream_failed
        dest = (self._static_dest if self._static_dest is not None
                else self._dest(data))
        payload = (self._seq, data)
        # element_nbytes(data) == payload_nbytes((seq, data)): size the
        # element once for both the transport and the profile.  The
        # comm.isend generator is bypassed: destination and tag are
        # channel-fixed and already validated, so the per-element work
        # is exactly the o_send delay plus the transport hand-off.
        nbytes = element_nbytes(data)
        o_send_delay = world._o_send_delay
        if o_send_delay is not None:
            yield o_send_delay
        try:
            req = world.post_send(comm._global, comm.ranks[dest], comm._rank,
                                  self.tag, comm.context, payload, nbytes,
                                  force_eager=self.eager)
        except RevokedError:
            # the destination's failure was detected while we yielded;
            # retarget (no virtual time passes in between) and resend
            yield from self._poll_failures()
            if self._stream_failed is not None:
                raise self._stream_failed
            dest = (self._static_dest if self._static_dest is not None
                    else self._dest(data))
            req = world.post_send(comm._global, comm.ranks[dest], comm._rank,
                                  self.tag, comm.context, payload, nbytes,
                                  force_eager=self.eager)
        pending.append(req)
        if self.checkpoint is not None:
            self._unacked.append((self._seq, data, nbytes))
        profile = self.profile
        profile.elements_sent += 1
        profile.bytes_sent += nbytes
        profile.overhead_paid += overhead
        self._seq += 1

    def terminate(self) -> Generator[Any, Any, None]:
        """End this producer's flow (``MPIStream_Terminate``).

        Flushes the in-flight window, then sends a TERM control element
        to the consumer(s) that currently own this flow."""
        channel = self.channel
        channel.check_alive()
        if not channel.is_producer:
            raise CommunicatorError(
                f"terminate on a non-producer rank (rank "
                f"{channel.comm.rank}, role {channel.role})")
        if self._terminated:
            raise RequestError("stream terminated twice")
        comm = channel.comm
        world = comm.world
        engine = world.engine
        pending = self._pending
        while pending:
            # popleft, not iteration: failure handling mid-flush can
            # replay un-acked elements, which appends to the window
            req = pending.popleft()
            req._waited = True
            if req.is_set:
                payload = req.payload
            else:
                t0 = engine.now
                payload = yield WaitFlag(req)
                if world.tracer is not None and engine.now > t0:
                    world.tracer.record(comm.global_rank, "wait",
                                        "stream-flush", t0, engine.now)
            if payload.__class__ is FaultSignal:
                yield from self._poll_failures()
        ctl = self._ctl
        if ctl is not None:
            yield from self._poll_failures()
            if self._stream_failed is not None:
                # no consumer left to terminate to
                self._terminated = True
                return
        if self.router is None:
            targets = [self._static_dest]
        else:
            targets = [c for c in channel.consumers
                       if c not in self._dead_locals]
        for dest in targets:
            try:
                yield from comm.send((self._seq, TERMINATE), dest,
                                     tag=self.tag)
            except (ProcessFailedError, RevokedError):
                yield from self._poll_failures()
                if self.router is None and self._stream_failed is None:
                    yield from comm.send((self._seq, TERMINATE),
                                         self._static_dest, tag=self.tag)
        self._terminated = True
        if ctl is not None:
            # record the completed termination so a future successor
            # does not wait for a TERM that died with its consumer
            ctl.note_stream_terminated(comm.context, self.tag, comm._rank)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    @property
    def active_producers(self) -> int:
        """Producers of this consumer that have not yet terminated."""
        return self._expected_terms - self._terms_seen

    def recv_element(self) -> Generator[Any, Any, Optional[StreamElement]]:
        """Receive the next data element, FCFS across producers.

        TERMs (and crashed producers) are accounted inside the consumer
        loop, so this returns ``None`` only once every producer of this
        consumer has terminated.  Under a checkpoint policy the caller
        stands in for the operator: a snapshot an element's interval
        asks for is taken on the next consumer call."""
        channel = self.channel
        if not channel.is_consumer:
            raise CommunicatorError(
                f"recv_element on a non-consumer rank (rank "
                f"{channel.comm.rank}, role {channel.role})")
        # the loop's generator itself: no extra frame per element
        return self._consume(_RECV)

    def _accept(self, payload) -> Optional[StreamElement]:
        """Account one arrival, ``((seq, data), status)``: a TERM counts
        toward termination and yields None, unless its producer's death
        already discounted it (DESIGN §12), in which case it is absorbed
        without counting; a data element is recorded in the profile at
        the current time and returned."""
        (seq, data), st = payload
        source = st.source
        if data is TERMINATE:  # identity: payloads move by reference in-sim
            self._termed_sources.add(source)
            if source in self._discounted_sources:
                # this producer's death already reduced the accounting;
                # its in-flight TERM must not count too
                self._discounted_sources.discard(source)
                return None
            self._terms_seen += 1
            self.profile.terminates_seen += 1
            return None
        self.profile.record_recv(st.nbytes,
                                 self.channel.comm.world.engine.now)
        return StreamElement(data, source, seq, st.nbytes)

    def operate(self) -> Generator[Any, Any, StreamProfile]:
        """Consume until every producer terminates (``MPIStream_Operate``),
        applying the attached operator to each element on arrival."""
        if self.operator is None:
            raise CommunicatorError("operate on a stream with no operator")
        # note: no is_consumer guard — a non-consumer has zero expected
        # terminations, skips the loop and returns an empty profile
        return self._consume(_OPERATE)

    def operate_pending(self) -> Generator[Any, Any, int]:
        """Drain only the elements already queued (non-blocking variant);
        returns the number processed.  Lets a consumer interleave stream
        service with its own work."""
        if self.operator is None:
            raise CommunicatorError("operate_pending needs an operator")
        return self._consume(_PENDING)

    def _consume(self, mode: int) -> Generator[Any, Any, Any]:
        """The one consumer loop behind ``operate`` (until every producer
        terminated), ``operate_pending`` (until a mailbox probe finds
        nothing queued) and ``recv_element`` (until one data element
        arrives).  It receives FCFS across producers, accounts TERMs via
        `_accept`, handles detected failures and takes checkpoints.

        The receive and the operator call are inlined: at funnel rates
        one extra generator per element is real cost."""
        channel = self.channel
        if channel.freed:
            channel.check_alive()
        comm = channel.comm
        world = comm.world
        engine = world.engine
        tag = self.tag
        ckpt = self.checkpoint
        ctl = self._ctl
        operator = self.operator
        post_recv = world.post_recv
        my_global = comm._global
        context = comm.context
        probe = (world.mailboxes[my_global].probe if mode == _PENDING
                 else None)
        if mode == _OPERATE:
            self.profile.service_start = engine.now
        processed = 0
        while self._expected_terms > self._terms_seen:
            if ckpt is not None and self._since_ckpt >= ckpt.interval:
                # the interval's last element has been handled, by the
                # operator or by the recv_element caller it went to
                yield from self._do_checkpoint()
            if ctl is not None:
                if ctl.version != self._seen_version:
                    yield from self._handle_failures()
                    continue      # accounting may have changed
                try:
                    ctl.check_recv(comm, ANY_SOURCE)
                except ProcessFailedError:
                    yield from self._handle_failures()
                    continue
            if probe is not None and probe(ANY_SOURCE, tag, context) is None:
                break
            req = post_recv(my_global, ANY_SOURCE, tag, context,
                            label="stream-recv")
            req._waited = True
            if req.is_set:
                payload = req.payload
            else:
                t0 = engine.now
                payload = yield WaitFlag(req)
                if world.tracer is not None and engine.now > t0:
                    world.tracer.record(comm.global_rank, "wait", "recv",
                                        t0, engine.now)
            if payload.__class__ is FaultSignal:
                yield from self._handle_failures()
                continue
            element = self._accept(payload)
            if element is None:
                continue
            if ckpt is not None:
                self._contrib[element.source] = element.seq
                self._since_ckpt += 1
            if mode == _RECV:
                return element
            result = operator(element)
            if inspect.isgenerator(result) or type(result) is ComputeCharge:
                yield from result
            processed += 1
        if mode == _OPERATE:
            self.profile.service_end = engine.now
            return self.profile
        return processed if mode == _PENDING else None

    # ------------------------------------------------------------------
    # failure handling and checkpointing (repro.faults).  Everything
    # below runs only when the simulation injects faults or the stream
    # declares a Checkpoint policy; the paths above reach it through
    # `_ctl is not None` / `checkpoint is not None` compares.
    # ------------------------------------------------------------------
    def _poll_failures(self) -> Generator[Any, Any, None]:
        """Catch up on failures detected since this stream last looked."""
        ctl = self._ctl
        if ctl is not None and ctl.version != self._seen_version:
            yield from self._handle_failures()

    def _handle_failures(self) -> Generator[Any, Any, None]:
        """Process newly detected failures in detection order: adjust
        termination accounting, retarget producers to the deterministic
        successor consumer (replaying un-acked elements when the stream
        checkpoints), and adopt orphaned producers on the successor;
        then acknowledge them (``Comm.failure_ack``) so wildcard
        receives on the channel continue from the survivors."""
        ctl = self._ctl
        channel = self.channel
        ranks = channel.comm.ranks
        # the version this walk covers: a failure detected while it
        # yields (a restore, a replay) leaves the stream behind, so the
        # next poll or loop pass handles it
        version = ctl.version
        for g in list(ctl.detected):
            if g in self._handled_globals:
                continue
            self._handled_globals.add(g)
            try:
                local = ranks.index(g)
            except ValueError:
                continue          # not a member of this channel
            prev_dead = set(self._dead_locals)
            self._dead_locals.add(local)
            pi = channel.producer_index_of(local)
            if pi is not None:
                self._on_producer_death(pi)
            ci = channel.consumer_index_of(local)
            if ci is not None:
                yield from self._on_consumer_death(ci, prev_dead)
        self._seen_version = version
        channel.comm.failure_ack()

    def _on_producer_death(self, pi: int) -> None:
        """A producer died: its TERM will never arrive.  Only the
        consumer currently owning its flow adjusts accounting.  The
        producer's TERM may still be *delivered but unprocessed* in our
        mailbox, so the source is also marked discounted — a late TERM
        of a discounted source is absorbed without counting, else the
        consumer would exit one termination early and silently drop
        live producers' elements."""
        channel = self.channel
        if not channel.is_consumer:
            return
        p_local = channel.producers[pi]
        if p_local in self._termed_sources:
            return                # it already terminated to us
        if self._ctl is not None and p_local in self._ctl \
                .terminated_producers(channel.comm.context, self.tag):
            # it terminated elsewhere (in flight to us, or to a consumer
            # that died): either the TERM still arrives and counts, or
            # the adoption path already skipped it — never discount
            return
        if self.router is not None:
            # custom routing: every producer terminates to every consumer
            self._expected_terms -= 1
            self._discounted_sources.add(p_local)
            return
        ci0 = pi * channel.nconsumers // channel.nproducers
        if channel.owner_consumer(ci0, self._dead_locals) \
                == channel.consumer_index:
            self._expected_terms -= 1
            self._discounted_sources.add(p_local)

    def _on_consumer_death(self, ci_dead: int, prev_dead: set
                           ) -> Generator[Any, Any, None]:
        """A consumer died: producers retarget to the deterministic
        successor (next live consumer in cyclic index order) and replay
        their un-acked elements; the successor restores the checkpoint
        and adopts the orphaned producers' termination accounting."""
        channel = self.channel
        dead = self._dead_locals
        if channel.is_producer and self.router is None:
            if channel.owner_consumer(self._dest_ci0, prev_dead) == ci_dead:
                new_owner = channel.owner_consumer(self._dest_ci0, dead)
                if new_owner is None:
                    self._stream_failed = RevokedError(
                        f"stream tag {self.tag}: every consumer of the "
                        "channel has failed", rank=ci_dead)
                    return
                self._static_dest = channel.consumers[new_owner]
                if self.checkpoint is not None and self._unacked:
                    yield from self._replay(self._static_dest)
        if channel.is_consumer and self.router is None:
            my_ci = channel.consumer_index
            if channel.owner_consumer(ci_dead, dead) == my_ci:
                # I am the successor: adopt every live, un-terminated
                # producer whose flow the dead consumer owned.  A
                # producer that already terminated — to me, or to the
                # dead consumer (visible via the controller's
                # termination registry, the stand-in for persisted
                # recovery metadata) — sends no further TERM and must
                # not be waited for.
                comm = channel.comm
                already_termed = (self._termed_sources
                                  | (self._ctl.terminated_producers(
                                      comm.context, self.tag)
                                     if self._ctl is not None else set()))
                nc, np_ = channel.nconsumers, channel.nproducers
                adopted = 0
                for pi in range(np_):
                    p_local = channel.producers[pi]
                    if p_local in dead or p_local in already_termed:
                        continue
                    ci0 = pi * nc // np_
                    if channel.owner_consumer(ci0, prev_dead) == ci_dead:
                        adopted += 1
                self._expected_terms += adopted
                profile = self.profile
                profile.recoveries += 1
                profile.adopted_producers += adopted
                if self.checkpoint is not None:
                    yield from self._restore_cost()

    def _replay(self, dest: int) -> Generator[Any, Any, None]:
        """Resend every un-acked element (original sequence numbers) to
        the successor consumer — the recovery side of the checkpoint
        contract: acked elements live in the snapshot, the rest replay."""
        comm = self.channel.comm
        world = comm.world
        profile = self.profile
        o_send_delay = world._o_send_delay
        gdst = comm.ranks[dest]
        for seq, data, nbytes in self._unacked:
            if o_send_delay is not None:
                yield o_send_delay
            req = world.post_send(comm._global, gdst, comm._rank,
                                  self.tag, comm.context, (seq, data),
                                  nbytes, force_eager=self.eager)
            self._pending.append(req)
            profile.replayed_elements += 1

    def _restore_cost(self) -> Generator[Any, Any, None]:
        """Charge the successor's checkpoint read (client overhead plus
        streaming the snapshot back from the modeled filesystem)."""
        from ..simmpi.iolib import _filesystem
        iocfg = _filesystem(self.channel.comm.world).cfg
        yield Delay(iocfg.client_overhead)
        yield Delay(self.checkpoint.state_nbytes / iocfg.per_client_bandwidth)

    def _do_checkpoint(self) -> Generator[Any, Any, None]:
        """Snapshot the operator state through the filesystem model and
        ack every producer that contributed since the last snapshot."""
        from ..simmpi.iolib import _filesystem
        comm = self.channel.comm
        world = comm.world
        engine = world.engine
        fs = _filesystem(world)
        yield Delay(fs.cfg.client_overhead)
        done = fs.server_write(self.checkpoint.state_nbytes, engine.now)
        lag = done - engine.now
        if lag > 0:
            yield Delay(lag)
        profile = self.profile
        profile.checkpoints += 1
        profile.acked_elements += self._since_ckpt
        self._since_ckpt = 0
        ack_nbytes = self.checkpoint.ack_nbytes
        for src in sorted(self._contrib):
            if src in self._dead_locals:
                continue
            try:
                yield from comm.isend(self._contrib[src], src,
                                      tag=self.ack_tag, nbytes=ack_nbytes,
                                      force_eager=True)
            except RevokedError:
                continue          # detected between our poll and the ack
        self._contrib.clear()

    def _drain_acks(self) -> Generator[Any, Any, None]:
        """Producer side: consume any checkpoint acks that have arrived
        and drop the acked prefix of the replay buffer (non-blocking)."""
        comm = self.channel.comm
        if self._ack_req is None:
            yield from self._post_ack_recv(comm)
        while self._ack_req is not None and self._ack_req.is_set:
            req = self._ack_req
            self._ack_req = None
            req._waited = True
            payload = req.payload
            if payload.__class__ is FaultSignal:
                yield from self._handle_failures()
            else:
                watermark, _st = payload
                unacked = self._unacked
                while unacked and unacked[0][0] <= watermark:
                    unacked.popleft()
            yield from self._post_ack_recv(comm)

    def _post_ack_recv(self, comm) -> Generator[Any, Any, None]:
        while True:
            try:
                self._ack_req = comm.irecv(ANY_SOURCE, self.ack_tag)
                return
            except ProcessFailedError:
                yield from self._handle_failures()


def attach(channel: StreamChannel, operator: Optional[Callable] = None,
           element_overhead: float = DEFAULT_ELEMENT_OVERHEAD,
           window: int = DEFAULT_WINDOW,
           router: Optional[Callable] = None,
           eager: bool = False,
           checkpoint=None) -> Generator[Any, Any, Stream]:
    """Attach a stream to ``channel`` (``MPIStream_Attach``).

    Attaching is *local* (no synchronization): the stream id comes from
    a per-channel counter, so every rank that attaches streams to a
    given channel must do so in the same per-channel order — the same
    contract real MPI imposes on communicator/collective creation.
    Producers may start injecting before the consumer attaches; elements
    queue at the consumer until it begins operating.

    Parameters
    ----------
    operator:
        Callable applied to each :class:`StreamElement` on the consumer;
        may be a plain function or a generator function (to communicate
        or charge compute time).  Producers may pass None.
    element_overhead:
        Per-element injection cost in seconds — Eq. 4's ``o``.
    window:
        Producer-side bound on in-flight elements.
    router:
        Optional ``router(producer_index, seq, data) -> consumer_index``
        for per-element routing (e.g. key hashing).  With a custom
        router every producer's TERM fans out to all consumers.
    eager:
        Force fire-and-forget injection regardless of element size
        (models buffered eager delivery; relaxed-dataflow consumers may
        leave tail elements unconsumed without deadlocking producers).
    checkpoint:
        Optional :class:`~repro.faults.plan.Checkpoint` policy enabling
        stream-level recovery: the consumer snapshots its state every
        ``interval`` elements (costed through the filesystem model) and
        acks its producers, which buffer un-acked elements for replay;
        on a consumer crash the deterministic successor restores the
        snapshot and producers replay from the last acked element.
        Requires static blocked routing (``router=None``).
    """
    channel.check_alive()
    if window < 1:
        raise ValueError("window must be >= 1")
    if element_overhead < 0:
        raise ValueError("element_overhead must be >= 0")
    tag = channel.alloc_stream_tag()
    if False:  # pragma: no cover - keeps this function a generator
        yield None
    return Stream(channel, operator, tag, element_overhead, window, router,
                  eager=eager, checkpoint=checkpoint)
