"""Collective operations over the point-to-point layer.

Implemented with the textbook algorithms an MPI library would pick at
these sizes — binomial trees for rooted collectives, reduce+bcast for
``allreduce``, gather+bcast for ``allgather`` — so that their cost
*scales with the communicator size* exactly as the paper's complexity
arguments require (e.g. "the complexity of the reduce operation
naturally decreases when moving ... to a smaller subset of processes",
Section IV-B).

Non-blocking collectives (``ibarrier``, ``ireduce``, ``iallgatherv``)
run the blocking algorithm in a spawned progress coroutine, i.e. they
get *asynchronous progress* as if the MPI library had a progress
thread.  This errs generous toward the paper's reference
implementations (Hoefler-style non-blocking CG, Iallgatherv/Ireduce
MapReduce), which keeps our comparisons conservative.

Reduction ``op`` is any commutative+associative binary callable
(default: ``operator.add``, which also concatenates or sums NumPy
arrays elementwise).  ``op_cost(a, b) -> seconds`` optionally charges
compute time per merge — this is how the MapReduce case study accounts
for the real cost of merging histograms inside the reduction tree.
"""

from __future__ import annotations

import operator
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from .datatypes import payload_nbytes
from .engine import Spawn, WaitFlag
from .errors import FaultSignal
from .request import Request


def _resolve_op(op: Optional[Callable]) -> Callable:
    return operator.add if op is None else op


# ----------------------------------------------------------------------
# binomial schedules: every rooted tree below is one of these
# ----------------------------------------------------------------------

#: binomial schedules keyed (communicator size, root); every rank and
#: every communicator of that shape reads the same table
_schedule_cache: dict = {}


def binomial_schedule(size: int, root: int
                      ) -> List[Tuple[Optional[int], Tuple[int, ...]]]:
    """Local rank -> ``(parent, children)`` of the binomial tree over
    ``size`` ranks rooted at ``root``.

    In virtual ranks ``v = (rank - root) % size`` a rank's parent is
    ``v`` with its lowest set bit cleared (the root has none), and its
    children are ``v + mask`` for every power of two ``mask`` below that
    bit that stays inside the communicator.  ``children`` come in
    ascending ``mask`` order: the order ``reduce`` and ``gather``
    receive from them; ``bcast`` and ``scatter`` send to them in
    reverse.  Cached per shape."""
    key = (size, root)
    hit = _schedule_cache.get(key)
    if hit is not None:
        return hit
    table: List[Any] = [None] * size
    for v in range(size):
        low = v & -v
        limit = low or size          # the root may use every mask
        children = []
        mask = 1
        while mask < limit and v + mask < size:
            children.append((v + mask + root) % size)
            mask <<= 1
        parent = (v - low + root) % size if v else None
        table[(v + root) % size] = (parent, tuple(children))
    if len(_schedule_cache) >= 64:
        _schedule_cache.clear()
    _schedule_cache[key] = table
    return table


# ----------------------------------------------------------------------
# tree messages: collectives talk in the collective context so they can
# never match application point-to-point traffic.  Each message is one
# generator that posts to the transport directly (destination, source
# and tag come from the schedule and are valid by construction), as the
# stream layer's per-element paths do.
# ----------------------------------------------------------------------

def _csend(comm, data: Any, dest: int, tag: int,
           nbytes: Optional[int] = None) -> Generator:
    """Send one tree message to local rank ``dest`` and wait for the
    send to complete (trace label ``coll-send``)."""
    if nbytes is None:
        nbytes = payload_nbytes(data)
    world = comm.world
    delay = world._o_send_delay
    if delay is not None:
        yield delay
    req = world.post_send(comm._global, comm.ranks[dest], comm._rank, tag,
                          comm.context_coll, data, nbytes)
    req._waited = True
    if req.is_set:
        payload = req.payload
    else:
        engine = world.engine
        t0 = engine.now
        payload = yield WaitFlag(req)
        # a poisoned wait raises below and records no interval
        if (world.tracer is not None and engine.now > t0
                and payload.__class__ is not FaultSignal):
            world.tracer.record(comm._global, "wait", "coll-send", t0,
                                engine.now)
    if payload.__class__ is FaultSignal:
        raise payload.error


def _crecv(comm, source: int, tag: int) -> Generator:
    """Receive one tree message from local rank ``source`` (trace label
    ``coll-recv``); returns its data."""
    world = comm.world
    ctl = world._fault_ctl
    if ctl is not None:
        ctl.check_recv(comm, source)
    req = world.post_recv(comm._global, source, tag, comm.context_coll)
    req._waited = True
    if req.is_set:
        payload = req.payload
    else:
        engine = world.engine
        t0 = engine.now
        payload = yield WaitFlag(req)
        if (world.tracer is not None and engine.now > t0
                and payload.__class__ is not FaultSignal):
            world.tracer.record(comm._global, "wait", "coll-recv", t0,
                                engine.now)
    if payload.__class__ is FaultSignal:
        raise payload.error
    return payload[0]


# ----------------------------------------------------------------------
# rooted collectives
# ----------------------------------------------------------------------

def bcast(comm, data: Any, root: int = 0) -> Generator[Any, Any, Any]:
    """Binomial-tree broadcast; returns the broadcast value on every rank.

    The payload is sized exactly once (at the root) and the size rides
    along the tree, so broadcasting a P-element container costs O(P)
    sizing work in total instead of O(P^2)."""
    comm._check_rank(root)
    size = comm.size
    tag = comm._next_coll_tag()
    if size == 1:
        return data
    parent, children = binomial_schedule(size, root)[comm.rank]
    if parent is None:
        nb = payload_nbytes(data)
    else:
        data, nb = yield from _crecv(comm, parent, tag)
    for dst in reversed(children):
        yield from _csend(comm, (data, nb), dst, tag, nbytes=nb + 8)
    return data


def reduce(comm, value: Any, op: Optional[Callable] = None, root: int = 0,
           op_cost: Optional[Callable] = None) -> Generator[Any, Any, Any]:
    """Binomial-tree reduction to ``root``; returns the result on root,
    ``None`` elsewhere.  ``op`` must be commutative (tree order is not
    rank order)."""
    comm._check_rank(root)
    op = _resolve_op(op)
    size = comm.size
    tag = comm._next_coll_tag()
    if size == 1:
        return value
    parent, children = binomial_schedule(size, root)[comm.rank]
    acc = value
    for src in children:
        child = yield from _crecv(comm, src, tag)
        if op_cost is not None:
            yield from comm.compute(op_cost(acc, child), label="reduce-op")
        acc = op(acc, child)
    if parent is None:
        return acc
    yield from _csend(comm, acc, parent, tag)
    return None


def gather(comm, value: Any, root: int = 0) -> Generator[Any, Any, Optional[List]]:
    """Binomial-tree gather; root receives ``[v_0, ..., v_{P-1}]``.

    Sub-tree sizes are accumulated incrementally and sent as explicit
    wire sizes: each rank sizes only its own contribution once."""
    comm._check_rank(root)
    size, rank = comm.size, comm.rank
    tag = comm._next_coll_tag()
    if size == 1:
        return [value]
    parent, children = binomial_schedule(size, root)[rank]
    acc = {rank: value}
    acc_nb = payload_nbytes(value) + 8
    for src in children:
        child, child_nb = yield from _crecv(comm, src, tag)
        acc.update(child)
        acc_nb += child_nb
    if parent is None:
        return [acc[r] for r in range(size)]
    yield from _csend(comm, (acc, acc_nb), parent, tag, nbytes=acc_nb)
    return None


def scatter(comm, values: Optional[Sequence[Any]], root: int = 0
            ) -> Generator[Any, Any, Any]:
    """Binomial-tree scatter of ``values`` (length = comm.size) from root."""
    comm._check_rank(root)
    size, rank = comm.size, comm.rank
    tag = comm._next_coll_tag()
    if rank == root:
        if values is None or len(values) != size:
            raise ValueError("scatter root must supply comm.size values")
        bundle = {r: values[r] for r in range(size)}
    else:
        bundle = None
    if size == 1:
        return bundle[rank]
    parent, children = binomial_schedule(size, root)[rank]
    if parent is not None:
        bundle = yield from _crecv(comm, parent, tag)
    vr = (rank - root) % size
    for dst in reversed(children):
        # the child at virtual rank vr + mask roots the sub-tree of
        # virtual ranks [vr + mask, vr + 2 * mask)
        lo = (dst - root) % size
        hi = min(2 * lo - vr, size)
        sub = {(v + root) % size: bundle.pop((v + root) % size)
               for v in range(lo, hi)}
        yield from _csend(comm, sub, dst, tag)
    return bundle[rank]


# ----------------------------------------------------------------------
# symmetric collectives
# ----------------------------------------------------------------------

def barrier(comm) -> Generator[Any, Any, None]:
    """Tree barrier: binomial gather of tokens, then binomial release."""
    yield from reduce(comm, 0, op=lambda a, b: 0, root=0)
    yield from bcast(comm, None, root=0)


def allreduce(comm, value: Any, op: Optional[Callable] = None,
              op_cost: Optional[Callable] = None) -> Generator[Any, Any, Any]:
    """reduce-to-0 + bcast (the MPICH choice for medium payloads)."""
    result = yield from reduce(comm, value, op, root=0, op_cost=op_cost)
    result = yield from bcast(comm, result, root=0)
    return result


def allgather(comm, value: Any) -> Generator[Any, Any, List]:
    """gather-to-0 + bcast of the assembled vector."""
    vec = yield from gather(comm, value, root=0)
    vec = yield from bcast(comm, vec, root=0)
    return vec


def allgatherv(comm, value: Any) -> Generator[Any, Any, List]:
    """Variable-size allgather.

    With Python payloads the v-variant is semantically identical to
    :func:`allgather` (element sizes are free to differ); it exists so
    application code reads like its MPI original
    (``MPI_Iallgatherv`` in the paper's MapReduce reference).
    """
    result = yield from allgather(comm, value)
    return result


def alltoall(comm, values: Sequence[Any]) -> Generator[Any, Any, List]:
    """Ring-schedule personalized all-to-all.

    Step ``k`` sends to ``rank+k`` and receives from ``rank-k``; P-1
    steps, one in-flight exchange per step.  O(P^2) messages total —
    faithful to why the paper calls all-to-all patterns "difficult to
    optimize at large scale"."""
    size, rank = comm.size, comm.rank
    if len(values) != size:
        raise ValueError("alltoall requires comm.size values")
    tag = comm._next_coll_tag()
    out: List[Any] = [None] * size
    out[rank] = values[rank]
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        rreq = comm.irecv(src, tag, _ctx=comm.context_coll)
        sreq = yield from comm.isend(values[dst], dst, tag,
                                     _ctx=comm.context_coll)
        yield from comm.wait(sreq, label="alltoall-send")
        data, _ = yield from comm.wait(rreq, label="alltoall-recv")
        out[src] = data
    return out


def alltoallv(comm, sends: Dict[int, Any], recv_from: Sequence[int],
              scan_seconds_per_peer: float = 2.0e-6
              ) -> Generator[Any, Any, Dict[int, Any]]:
    """Sparse personalized exchange (``MPI_Alltoallv`` with mostly-zero
    counts — the reference CG's halo exchange [17]).

    Every rank pays an O(P) argument-scan cost (the count/displacement
    vectors are P long even when only six entries are non-zero) — the
    well-known scalability tax of vector collectives, and the reason
    the blocking reference CG degrades at scale (Fig. 6).  Non-zero
    pairs then exchange real messages.

    ``sends`` maps destination local rank -> payload; ``recv_from``
    lists the local ranks this rank will receive from (the caller knows
    its recvcounts, as in MPI).  Returns ``{source: payload}``.
    """
    tag = comm._next_coll_tag()
    if scan_seconds_per_peer > 0 and comm.size > 1:
        yield from comm.compute(scan_seconds_per_peer * (comm.size - 1),
                                label="alltoallv-scan")
    rreqs = {src: comm.irecv(src, tag, _ctx=comm.context_coll)
             for src in recv_from}
    sreqs = []
    for dst, payload in sends.items():
        req = yield from comm.isend(payload, dst, tag,
                                    _ctx=comm.context_coll)
        sreqs.append(req)
    for req in sreqs:
        yield from comm.wait(req, label="alltoallv-send")
    out = {}
    for src, req in rreqs.items():
        data, _ = yield from comm.wait(req, label="alltoallv-recv")
        out[src] = data
    return out


def scan(comm, value: Any, op: Optional[Callable] = None
         ) -> Generator[Any, Any, Any]:
    """Inclusive prefix reduction (linear chain; not on any hot path)."""
    comm._check_rank(0)   # the freed check the rooted ones make on root
    op = _resolve_op(op)
    size, rank = comm.size, comm.rank
    tag = comm._next_coll_tag()
    acc = value
    if rank > 0:
        prev = yield from _crecv(comm, rank - 1, tag)
        acc = op(prev, value)
    if rank < size - 1:
        yield from _csend(comm, acc, rank + 1, tag)
    return acc


# ----------------------------------------------------------------------
# non-blocking collectives: blocking algorithm in a progress coroutine
# ----------------------------------------------------------------------

def _spawn_collective(comm, algo_gen, label: str) -> Generator[Any, Any, Request]:
    req = Request(f"i{label}", label=f"i{label}@{comm.name}")

    def progress():
        result = yield from algo_gen
        comm.world.engine.set_flag(req.flag, result)

    yield Spawn(progress(), name=f"i{label}-r{comm.rank}", daemon=True)
    return req


def ibarrier(comm) -> Generator[Any, Any, Request]:
    """Non-blocking barrier; complete with ``comm.wait(req)``."""
    req = yield from _spawn_collective(comm, barrier(comm), "barrier")
    return req


def ireduce(comm, value: Any, op: Optional[Callable] = None, root: int = 0,
            op_cost: Optional[Callable] = None) -> Generator[Any, Any, Request]:
    """Non-blocking :func:`reduce`; the wait's payload is the result on
    root (None elsewhere)."""
    req = yield from _spawn_collective(
        comm, reduce(comm, value, op, root, op_cost=op_cost), "reduce"
    )
    return req


def iallgatherv(comm, value: Any) -> Generator[Any, Any, Request]:
    """Non-blocking :func:`allgatherv` (the paper's MapReduce reference
    builds its global key set with this)."""
    req = yield from _spawn_collective(comm, allgatherv(comm, value), "allgatherv")
    return req


def iallreduce(comm, value: Any, op: Optional[Callable] = None
               ) -> Generator[Any, Any, Request]:
    """Non-blocking :func:`allreduce`; every rank's wait returns the
    reduced value."""
    req = yield from _spawn_collective(comm, allreduce(comm, value, op), "allreduce")
    return req


def ialltoallv(comm, sends: Dict[int, Any], recv_from: Sequence[int],
               scan_seconds_per_peer: float = 2.0e-6
               ) -> Generator[Any, Any, Request]:
    """Non-blocking :func:`alltoallv`: the scan and exchange progress in
    a spawned coroutine, overlapping the caller's compute — the
    Hoefler-style non-blocking reference CG [17]."""
    req = yield from _spawn_collective(
        comm, alltoallv(comm, sends, recv_from, scan_seconds_per_peer),
        "alltoallv",
    )
    return req
