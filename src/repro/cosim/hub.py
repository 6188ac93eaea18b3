"""The hub protocol: ports, translator ranks, buffers, and recovery.

Three actors run the coupling (see DESIGN.md §13):

* :class:`APort` — held by each rank of simulator A's port stage.
  ``put(element)`` ships ``(producer, seq, element)`` to the rank's
  hub translator with a *synchronous* send, so an overloaded hub exerts
  real rendezvous back-pressure.  Elements stay in an un-acked replay
  buffer until the hub confirms it has safely absorbed them (drained
  **and** mirrored), which is what makes crash handoff exactly-once.

* the hub translator (:func:`hub_main`) — each of the H hub ranks runs
  receive → transform → send over an explicit double buffer: a *fill*
  buffer accepts elements (capacity ``buffer_depth``; while it is full
  and the drain side is busy the rank simply does not repost its
  receive, so producers block in rendezvous) and a daemon *drainer*
  coroutine charges the transform cost, aggregates ``scale_ratio``
  micro elements into one macro element per producer, mirrors its
  state into its successor's RMA window, forwards macro elements to
  simulator B, and only then acks the producers.

* :class:`BPort` — held by each rank of simulator B's port stage.
  ``get()`` returns macro elements, deduplicating per (hub owner,
  macro seq) so a successor's replay after a crash is invisible, and
  returns ``None`` once every hub identity it covers has terminated.

Recovery reuses the PR 5 machinery end to end: a dead hub rank is
noticed by its peers through the poisoned sentinel receive on the hub
intracommunicator, the cyclic-successor rule picks the inheritor, the
inheritor reads the state the dead rank mirrored into its window
(``Win.local`` — local loads need no epoch), consults
``FaultController.stream_terms`` for TERMs the dead rank had already
absorbed, resends the mirrored in-flight macro elements (B deduplicates)
and publishes a deterministic sha256 *replay digest* over the adopted
state so tests can golden-gate the handoff.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..simmpi.datatypes import SizedPayload
from ..simmpi.engine import EventFlag, Spawn, WaitFlag, wait_any
from ..simmpi.errors import FaultSignal, ProcessFailedError, RevokedError
from ..simmpi.matching import ANY_SOURCE, ANY_TAG
from .spec import CosimError, HubSpec

__all__ = [
    "APort",
    "BPort",
    "TAG_ACK",
    "TAG_DATA",
    "TAG_TERM",
    "hub_main",
]

#: intercomm message tags
TAG_DATA = 1
TAG_ACK = 2
TAG_TERM = 3

#: bytes of bookkeeping in a mirror snapshot besides buffered elements
_MIRROR_HEADER_BYTES = 64
#: wire size of an ack / TERM control message
_CTL_BYTES = 64


def producers_of(hub_index: int, n_producers: int, hub_size: int
                 ) -> Tuple[int, ...]:
    """A-side port ranks owned by hub rank ``hub_index`` (static mod-H)."""
    return tuple(p for p in range(n_producers) if p % hub_size == hub_index)


def consumer_of(owner: int, n_consumers: int, hub_size: int) -> int:
    """B-side port rank fed by hub identity ``owner`` (block mapping)."""
    return owner * n_consumers // hub_size


def mirror_slot_bytes(spec: HubSpec, n_producers: int) -> int:
    """Window bytes reserved per hub rank for its mirrored state."""
    per_hub = max(1, (n_producers + spec.size - 1) // spec.size)
    buffered = spec.buffer_depth + (spec.scale_ratio - 1) * per_hub
    return _MIRROR_HEADER_BYTES + spec.element_bytes * buffered


def _unwrap(data: Any) -> Any:
    return data.data if isinstance(data, SizedPayload) else data


def _poisoned(req) -> bool:
    """A request a failure resolved: it carries no message, re-post it."""
    return (req is not None and req.is_set
            and req.payload.__class__ is FaultSignal)


# ----------------------------------------------------------------------
# simulator-side ports
# ----------------------------------------------------------------------
class APort:
    """Producer port of the fine-scale simulator (one per port rank)."""

    def __init__(self, inter, spec: HubSpec):
        self.inter = inter
        self.spec = spec
        self.me = inter.rank
        self.hub_size = inter.remote_size
        #: current hub translator (the static owner until it crashes)
        self.target = self.me % self.hub_size
        self.next_seq = 0
        #: seq -> element, awaiting the hub's absorbed-ack (replay set)
        self.unacked: "OrderedDict[int, Any]" = OrderedDict()
        self._send_reqs: deque = deque()
        self._ack_req = None
        #: flow-control cap: both halves of the hub's double buffer
        self.max_unacked = 2 * spec.buffer_depth
        self.replays = 0
        self.sent = 0
        self.closed = False

    # -- public ---------------------------------------------------------
    def put(self, element: Any) -> Generator[Any, Any, None]:
        """Ship one element to the hub (blocks under back-pressure)."""
        if self.closed:
            raise CosimError(
                f"put on closed co-simulation port (producer {self.me})")
        yield from self._pump(block=False)
        while len(self.unacked) >= self.max_unacked:
            yield from self._pump(block=True)
        seq = self.next_seq
        self.next_seq += 1
        self.unacked[seq] = element
        self.sent += 1
        yield from self._send_data(seq, element)

    def close(self) -> Generator[Any, Any, None]:
        """Flush (wait until every element is acked), then terminate."""
        if self.closed:
            return
        while self.unacked:
            yield from self._pump(block=True)
        ctl = self.inter.world._fault_ctl
        if ctl is not None:
            # persisted-recovery stand-in (PR 5): a successor must not
            # wait for a TERM this producer already delivered elsewhere
            ctl.note_stream_terminated(self.inter.context, TAG_TERM, self.me)
        while True:
            try:
                req = yield from self.inter.issend(
                    SizedPayload((self.me,), _CTL_BYTES),
                    dest=self.target, tag=TAG_TERM)
                yield from self.inter.wait(req)
                break
            except (ProcessFailedError, RevokedError):
                yield from self._recover()
        self.closed = True

    # -- internals ------------------------------------------------------
    def _send_data(self, seq: int, element: Any
                   ) -> Generator[Any, Any, None]:
        payload = SizedPayload((self.me, seq, element),
                               self.spec.element_bytes)
        while True:
            try:
                req = yield from self.inter.issend(
                    payload, dest=self.target, tag=TAG_DATA)
                self._send_reqs.append(req)
                return
            except (ProcessFailedError, RevokedError):
                yield from self._recover()

    def _pump(self, block: bool) -> Generator[Any, Any, None]:
        """Reap finished sends and apply every ack that has arrived; with
        ``block``, also wait for one more ack.

        A request leaves ``_ack_req`` before it is waited on and its ack
        is applied before the re-post, so a failure interrupting the
        re-post can neither lose the ack nor let ``_recover`` wait on
        the consumed request again."""
        inter = self.inter
        waited = False
        try:
            reqs = self._send_reqs
            while reqs and reqs[0].done:
                yield from inter.wait(reqs.popleft())
            while True:
                if self._ack_req is None:
                    self._ack_req = inter.irecv(source=ANY_SOURCE,
                                                tag=TAG_ACK)
                req = self._ack_req
                if waited or not (block or req.done):
                    return
                waited = not req.done
                self._ack_req = None
                data, _st = yield from inter.wait(req)
                self._apply_ack(_unwrap(data))
        except (ProcessFailedError, RevokedError):
            yield from self._recover()

    def _apply_ack(self, payload: Any) -> None:
        _kind, up_to = payload
        unacked = self.unacked
        while unacked:
            seq = next(iter(unacked))
            if seq > up_to:
                break
            del unacked[seq]

    def _recover(self) -> Generator[Any, Any, None]:
        """A hub rank died: re-aim at the cyclic successor and replay."""
        inter = self.inter
        inter.failure_ack()
        dead = set(inter.failed_members())
        home = self.me % self.hub_size
        for k in range(self.hub_size):
            cand = (home + k) % self.hub_size
            if cand not in dead:
                self.target = cand
                break
        else:
            raise CosimError(
                f"co-simulation hub lost all {self.hub_size} translator "
                f"rank(s); producer {self.me} cannot recover")
        # salvage an ack that completed normally before the poison sweep
        req, self._ack_req = self._ack_req, None
        if req is not None and req.is_set and not _poisoned(req):
            data, _st = yield from self.inter.wait(req)
            self._apply_ack(_unwrap(data))
        # poisoned or already-matched in-flight sends are superseded by
        # the replay: the hub's per-producer watermark drops duplicates
        self._send_reqs.clear()
        self.replays += len(self.unacked)
        for seq, element in list(self.unacked.items()):
            payload = SizedPayload((self.me, seq, element),
                                   self.spec.element_bytes)
            req = yield from inter.issend(
                payload, dest=self.target, tag=TAG_DATA)
            self._send_reqs.append(req)

    def summary(self) -> Dict[str, Any]:
        return {"producer": self.me, "sent": self.sent,
                "replays": self.replays, "target": self.target}


class BPort:
    """Consumer port of the coarse-scale simulator (one per port rank)."""

    def __init__(self, inter, spec: HubSpec):
        self.inter = inter
        self.spec = spec
        self.me = inter.rank
        self.hub_size = inter.remote_size
        n = inter.size
        #: hub identities whose macro stream lands on this rank
        self.owners: Set[int] = {
            h for h in range(self.hub_size)
            if consumer_of(h, n, self.hub_size) == self.me}
        self.covered: Set[int] = set()
        #: owner -> next expected macro seq (successor-replay dedup)
        self.watermark: Dict[int, int] = {}
        self.received = 0
        self.duplicates = 0
        self.by_owner: Dict[int, int] = {}
        self._req = None

    def get(self) -> Generator[Any, Any, Optional[Any]]:
        """Next macro element, or ``None`` once all owners terminated."""
        while True:
            if self.covered >= self.owners:
                return None
            if self._req is None:
                try:
                    self._req = self.inter.irecv(
                        source=ANY_SOURCE, tag=ANY_TAG)
                except (ProcessFailedError, RevokedError):
                    self.inter.failure_ack()
                    continue
            try:
                data, st = yield from self.inter.wait(self._req)
            except (ProcessFailedError, RevokedError):
                # a hub rank died; its successor will replay — ack the
                # failure and keep listening
                self.inter.failure_ack()
                self._req = None
                continue
            self._req = None
            payload = _unwrap(data)
            if st.tag == TAG_TERM:
                _kind, owners = payload
                self.covered.update(owners)
                continue
            owner, mseq, body = payload
            expected = self.watermark.get(owner, 0)
            if mseq < expected:
                self.duplicates += 1
                continue
            self.watermark[owner] = mseq + 1
            self.received += 1
            self.by_owner[owner] = self.by_owner.get(owner, 0) + 1
            return body

    def summary(self) -> Dict[str, Any]:
        return {"consumer": self.me, "received": self.received,
                "duplicates": self.duplicates,
                "by_owner": dict(sorted(self.by_owner.items()))}


# ----------------------------------------------------------------------
# the translator rank
# ----------------------------------------------------------------------
def hub_main(hubcomm, inter_a, inter_b, win, spec: HubSpec,
             n_producers: int, n_consumers: int, slot_bytes: int
             ) -> Generator[Any, Any, Dict[str, Any]]:
    """One hub translator rank: the receive → transform → send loop.

    ``hubcomm`` is the hub intracommunicator (death detection, window
    hosting), ``inter_a``/``inter_b`` the intercommunicators toward the
    two simulators' port stages, ``win`` the mirror window allocated
    over ``hubcomm`` with ``hub_size * slot_bytes`` bytes per rank.
    """
    h = hubcomm.rank
    H = hubcomm.size
    world = hubcomm.world
    engine = world.engine
    ctl = world._fault_ctl
    my_global = hubcomm.ranks[h]

    # --- translator state (shared with the drainer via closure) -------
    my_producers: Set[int] = set(producers_of(h, n_producers, H))
    owned: List[int] = [h]          # hub identities this rank acts for
    owned_set: Set[int] = {h}
    #: producer -> next unseen micro seq (receive-side duplicate filter;
    #: counts elements still sitting un-drained in the fill buffer)
    seen: Dict[int, int] = {}
    #: producer -> next un-absorbed micro seq.  Only *drained* elements
    #: count: they are represented in the mirror (carry/pending) so a
    #: successor can stand in for them.  Acks — and therefore the
    #: producers' replay-buffer trims — never run ahead of this.
    absorbed: Dict[int, int] = {}
    carry: Dict[int, List[Any]] = {}   # producer -> partial macro accum
    macro_next: Dict[int, int] = {h: 0}
    terms: Set[int] = set()
    fill: List[Tuple[int, int, Any]] = []
    handled_deaths: Set[int] = set()
    adopted_pending = 0
    replay_digest: Optional[str] = None
    stats = {"received": 0, "duplicates": 0, "forwarded": 0, "batches": 0,
             "mirrors": 0}
    #: the returned record; a standby refreshes it in place
    record: Dict[str, Any] = {"role": "hub", "hub": h}

    cell: Dict[str, Any] = {
        "work": EventFlag(label=("hub-work:", h)),
        "done": EventFlag(label=("hub-done:", h)),
        "batch": None, "busy": False, "stop": False,
    }

    # --- helpers -------------------------------------------------------
    def terms_covered() -> bool:
        need = my_producers - terms
        if not need:
            return True
        if ctl is not None:
            # TERMs absorbed by a rank that died afterwards are never
            # re-sent; the controller's persisted record covers them.
            # A dead producer never sends its TERM (DESIGN §12's rule
            # for dead stream producers)
            need -= ctl.terminated_producers(inter_a.context, TAG_TERM)
            need -= set(inter_a.failed_members())
        return not need

    def next_alive_after(idx: int) -> Optional[int]:
        dead = set(hubcomm.failed_members())
        for k in range(1, H + 1):
            cand = (idx + k) % H
            if cand not in dead:
                return None if cand == idx else cand
        return None

    def seal(producer: int) -> Tuple:
        """Close ``producer``'s micro group into its owner's next macro."""
        owner = producer % H
        mseq = macro_next.get(owner, 0)
        macro_next[owner] = mseq + 1
        size = len(carry[producer])
        carry[producer] = []
        return owner, mseq, ("macro", producer, mseq, size)

    def aggregate(producer: int, element: Any) -> Optional[Tuple]:
        """Accumulate one micro element; a full group yields a macro."""
        acc = carry.setdefault(producer, [])
        acc.append(element)
        return seal(producer) if len(acc) >= spec.scale_ratio else None

    def send_b(owner: int, payload, tag: int) -> Generator[Any, Any, None]:
        try:
            req = yield from inter_b.issend(
                payload, dest=consumer_of(owner, n_consumers, H), tag=tag)
            yield from inter_b.wait(req)
        except (ProcessFailedError, RevokedError):
            # consumer-side failures are outside the recovery story;
            # acknowledge and drop
            inter_b.failure_ack()

    def forward(macros) -> Generator[Any, Any, None]:
        for owner, mseq, body in macros:
            yield from send_b(owner, SizedPayload(
                (owner, mseq, body), spec.element_bytes), TAG_DATA)
        stats["forwarded"] += len(macros)

    def mirror(pending) -> Generator[Any, Any, None]:
        """Checkpoint this translator's state into its successor's
        window (lock/put/unlock), keyed by this rank's slot offset."""
        succ = next_alive_after(h)
        if succ is None:
            return  # sole survivor / H == 1: nobody to hand off to
        snapshot = {
            "owned": tuple(owned),
            "watermark": dict(absorbed),
            "carry": {p: list(a) for p, a in carry.items() if a},
            "macro_next": dict(macro_next),
            "terms": set(terms),
            "pending": list(pending),
        }
        buffered = len(pending) + sum(len(a) for a in snapshot["carry"]
                                      .values())
        nbytes = min(_MIRROR_HEADER_BYTES
                     + spec.element_bytes * buffered, slot_bytes)
        # a successor that dies mid-mirror is skipped: the next batch
        # re-aims.  A granted lock is released even when the put fails,
        # or the next mirror would find the epoch still open
        try:
            yield from win.lock(succ)
        except (ProcessFailedError, RevokedError):
            return
        try:
            req = yield from win.put(snapshot, succ, offset=h * slot_bytes,
                                     nbytes=nbytes)
        except (ProcessFailedError, RevokedError):
            req = None
        yield from win.unlock(succ)
        if req is not None:
            yield from hubcomm.wait(req)
            stats["mirrors"] += 1

    def send_ack(producer: int, up_to: int) -> Generator[Any, Any, None]:
        try:
            yield from inter_a.isend(
                SizedPayload(("ack", up_to), _CTL_BYTES),
                dest=producer, tag=TAG_ACK)
        except (ProcessFailedError, RevokedError):
            inter_a.failure_ack()

    def adopt(d: int) -> Generator[Any, Any, None]:
        """Inherit a dead translator's identity, buffer and producers."""
        nonlocal adopted_pending, replay_digest
        fresh = [d]
        snapshot = win.local().get(d * slot_bytes)
        if snapshot is not None:
            # the mirror may carry identities d itself had adopted
            fresh = [o for o in snapshot["owned"] if o not in owned_set]
        for o in fresh:
            owned.append(o)
            owned_set.add(o)
            my_producers.update(producers_of(o, n_producers, H))
            macro_next.setdefault(o, 0)
        pending: List[Tuple] = []
        if snapshot is not None:
            # the mirrored watermark covers exactly the dead rank's
            # drained elements: replays below it are duplicates to
            # re-ack, replays at or above it (its lost fill buffer) are
            # fresh work
            seen.update(snapshot["watermark"])
            absorbed.update(snapshot["watermark"])
            for p, acc in snapshot["carry"].items():
                carry[p] = list(acc)
            for o, mseq in snapshot["macro_next"].items():
                if macro_next.get(o, 0) < mseq:
                    macro_next[o] = mseq
            terms.update(snapshot["terms"])
            pending = list(snapshot["pending"])
        adopted_pending += len(pending)
        material = (
            tuple(sorted(fresh)),
            tuple(sorted((snapshot or {}).get("watermark", {}).items())),
            tuple(sorted((p, len(a)) for p, a in
                         (snapshot or {}).get("carry", {}).items())),
            tuple(sorted((o, m) for o, m, _b in pending)),
            tuple(sorted((snapshot or {}).get("terms", ()))),
        )
        digest = hashlib.sha256(repr(material).encode()).hexdigest()
        replay_digest = (digest if replay_digest is None else
                         hashlib.sha256(
                             (replay_digest + digest).encode()).hexdigest())
        # replay the macro elements the dead rank had not confirmed
        # forwarding; the consumer's watermark absorbs any duplicates
        yield from forward(pending)
        # producers the dead rank had acked only up to its mirror: ack
        # again from the restored watermark so their flush can finish
        for p in sorted(my_producers):
            wm = absorbed.get(p, 0)
            if wm > 0:
                yield from send_ack(p, wm - 1)

    def recover() -> Generator[Any, Any, None]:
        hubcomm.failure_ack()
        inter_a.failure_ack()
        inter_b.failure_ack()
        for d in sorted(set(hubcomm.failed_members()) - handled_deaths):
            handled_deaths.add(d)
            if next_alive_after(d) == h:
                yield from adopt(d)

    def post(comm) -> Generator[Any, Any, Any]:
        """Post a wildcard receive on ``comm`` — the only way this rank
        (re-)posts one.  A failure detected since the last
        ``failure_ack`` interrupts the post; recover, then retry."""
        while True:
            try:
                return comm.irecv(source=ANY_SOURCE, tag=ANY_TAG)
            except (ProcessFailedError, RevokedError):
                yield from recover()

    def wait_or_recover(flags
                        ) -> Generator[Any, Any, Optional[Tuple[int, Any]]]:
        """``wait_any`` over ``flags``; a failure it reports is
        recovered from and returns None (the caller re-posts what the
        failure poisoned)."""
        try:
            return (yield from wait_any(engine, flags))
        except (ProcessFailedError, RevokedError):
            yield from recover()
            return None

    def reposted(sentinel, data) -> Generator[Any, Any, Tuple[Any, Any]]:
        """The one rule for requests a failure may have resolved: a
        poisoned one carries no message and is re-posted (the data
        receive lazily, once it is wanted again: None); one that
        completed with a message is kept, to be consumed exactly once."""
        if _poisoned(sentinel):
            sentinel = yield from post(hubcomm)
        return sentinel, (None if _poisoned(data) else data)

    def accept(payload) -> Generator[Any, Any, Optional[Tuple]]:
        """Take one matched A-side message: note a TERM, adopt the dead
        owner of redirected traffic, re-ack a duplicate, or return the
        new ``(producer, seq, element)``."""
        data, st = payload
        body = _unwrap(data)
        if st.tag == TAG_TERM:
            terms.add(body[0])
            return None
        producer, seq, element = body
        owner = producer % H
        if owner not in owned_set:
            # redirected traffic from a dead translator's producers can
            # outrun the sentinel poison: adopt idempotently
            yield from recover()
            if owner not in owned_set:
                yield from adopt(owner)
                handled_deaths.add(owner)
        if seq < seen.get(producer, 0):
            # a replay of something already seen.  If it was absorbed
            # (drained + mirrored) the producer still needs the ack it
            # never saw; if it is merely sitting in the fill buffer the
            # ack will come when that batch drains.
            stats["duplicates"] += 1
            done_through = absorbed.get(producer, 0)
            if done_through > 0:
                yield from send_ack(producer, done_through - 1)
            return None
        seen[producer] = seq + 1
        stats["received"] += 1
        return producer, seq, element

    def drain(batch) -> Generator[Any, Any, bool]:
        """Transform, aggregate, mirror, forward and ack one batch;
        False if this rank crashed meanwhile (it then goes quiet)."""
        if ctl is not None and my_global in ctl.failed:
            return False
        nominal = spec.transform_seconds * len(batch)
        if nominal > 0:
            yield from hubcomm.compute(nominal, label="hub-transform")
        if ctl is not None and my_global in ctl.failed:
            return False
        macros = []
        for producer, seq, element in batch:
            macro = aggregate(producer, element)
            if macro is not None:
                macros.append(macro)
            if seq >= absorbed.get(producer, 0):
                absorbed[producer] = seq + 1
        # mirror BEFORE forwarding and acking: once a producer sees the
        # ack it will never replay, so the state must already be safe
        # in the successor's window
        yield from mirror(macros)
        yield from forward(macros)
        acks: Dict[int, int] = {}
        for producer, seq, _element in batch:
            if seq > acks.get(producer, -1):
                acks[producer] = seq
        for producer, up_to in sorted(acks.items()):
            yield from send_ack(producer, up_to)
        stats["batches"] += 1
        return True

    def flush_and_term(owners) -> Generator[Any, Any, None]:
        """Flush partial macro groups owned by ``owners`` and send each
        of those identities' TERM to its consumer."""
        owners_set = set(owners)
        tail = [seal(p) for p in sorted(carry)
                if carry[p] and p % H in owners_set]
        if tail:
            nominal = spec.transform_seconds * sum(t[2][3] for t in tail)
            if nominal > 0:
                yield from hubcomm.compute(nominal, label="hub-transform")
            yield from mirror(tail)
            yield from forward(tail)
        for owner in owners:
            yield from send_b(owner, SizedPayload(("term", (owner,)),
                                                  _CTL_BYTES), TAG_TERM)

    def refresh_record() -> Dict[str, Any]:
        record.update(
            owned=tuple(owned),
            adopted=tuple(o for o in owned if o != h),
            adopted_pending=adopted_pending,
            replay_digest=replay_digest,
            terms=len(terms),
            **stats,
        )
        return record

    # --- the drainer (daemon coroutine: overlap receive with drain) ----
    def drainer() -> Generator[Any, Any, None]:
        while True:
            yield WaitFlag(cell["work"])
            if cell["stop"] or not (yield from drain(cell["batch"])):
                return
            cell["busy"] = False
            engine.set_flag(cell["done"])

    yield Spawn(drainer(), name=f"hub-drainer-{h}", daemon=True)

    def dispatch() -> None:
        cell["batch"] = list(fill)
        del fill[:]
        cell["busy"] = True
        cell["done"] = EventFlag(label=("hub-done:", h))
        work = cell["work"]
        cell["work"] = EventFlag(label=("hub-work:", h))
        engine.set_flag(work)

    # --- the receive loop ----------------------------------------------
    # sentinel: nothing is ever sent on the hub intracomm, so this
    # wildcard receive completes only when the poison sweep cancels it —
    # a pure failure detector
    r_sent = yield from post(hubcomm)
    r_data = None
    while True:
        if terms_covered() and not fill and not cell["busy"]:
            break
        if not cell["busy"] and fill:
            dispatch()
            continue
        flags: List[Any] = [r_sent]
        if cell["busy"]:
            flags.append(cell["done"])
        if len(fill) < spec.buffer_depth and not terms_covered():
            if r_data is None:
                r_data = yield from post(inter_a)
            flags.append(r_data)
        got = yield from wait_or_recover(flags)
        if got is None:
            r_sent, r_data = yield from reposted(r_sent, r_data)
        elif flags[got[0]] is r_data:
            r_data = None
            item = yield from accept(got[1])
            if item is not None:
                fill.append(item)
        # else the drainer finished; the loop decides what to do next

    # --- drain leftovers and terminate --------------------------------
    cell["stop"] = True
    engine.set_flag(cell["work"])
    yield from flush_and_term(list(owned))

    def standby(sentinel, stray, flushed: int) -> Generator[Any, Any, None]:
        """Daemon watcher left behind after a clean exit.

        A peer translator can die *after* this rank finished; the
        hubcomm sentinel detects that, and the cyclic successor serves
        the inherited producers to completion, then flushes and TERMs
        the inherited identities (``owned[flushed:]``).  And a producer
        whose rendezvous was matched right at the crash instant re-sends
        a TERM or element this rank already has on record; the wildcard
        intercomm receive matches those strays so the producer unblocks,
        re-acked where the original ack was lost.  Messages go through
        ``accept`` and ``drain`` (one element per batch), and the
        already-returned record is refreshed in place after every step.
        """
        while True:
            if len(owned) > flushed and terms_covered():
                owners, flushed = owned[flushed:], len(owned)
                yield from flush_and_term(owners)
            refresh_record()
            if stray is None:
                stray = yield from post(inter_a)
            got = yield from wait_or_recover([sentinel, stray])
            if got is None:
                sentinel, stray = yield from reposted(sentinel, stray)
                continue
            stray = None
            item = yield from accept(got[1])
            if item is not None and not (yield from drain([item])):
                return

    if ctl is not None and H > 1:
        # the sentinel may have been poisoned after the loop's last
        # wait; a data receive still posted is handed over, so whatever
        # it matched is consumed, not lost
        flushed = len(owned)
        r_sent, r_data = yield from reposted(r_sent, r_data)
        yield Spawn(standby(r_sent, r_data, flushed),
                    name=f"hub-standby-{h}", daemon=True)
    return refresh_record()
