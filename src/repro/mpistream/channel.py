"""Stream channels: the producer->consumer communication substrate.

``create_channel`` is the Python rendering of the paper's
``MPIStream_CreateChannel(is_data_producer, is_data_consumer, comm,
&channel)``: a collective over ``comm`` in which every rank declares
its role; the channel then knows the producer and consumer groups and
owns a *dedicated duplicate* of the communicator so stream traffic can
never match application point-to-point messages.

Routing: each producer is statically assigned one consumer by blocked
distribution (producer i of NP targets consumer ``i * NC // NP``), the
assignment the paper's case studies use (map ranks stream to "their"
reducer; compute ranks stream to "their" exchange/I-O server).  Custom
per-element routing is available per stream (see
:class:`~repro.mpistream.stream.Stream`).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..simmpi.comm import Comm
from ..simmpi.errors import (
    CommunicatorError,
    ProcessFailedError,
    RevokedError,
)

#: blocked-routing tables keyed (nproducers, nconsumers) — shared by
#: every channel of the same shape and read by ``Simulation.explain``
#: for its fan-in lines, so the report cannot disagree with the
#: assignment the channels execute
_peers_cache: dict = {}


def blocked_peers(nproducers: int, nconsumers: int):
    """Producer index -> consumer index table of the blocked
    distribution (producer ``i`` of NP targets consumer ``i*NC//NP``).

    Cached per shape."""
    key = (nproducers, nconsumers)
    hit = _peers_cache.get(key)
    if hit is not None:
        return hit[0]
    table = [i * nconsumers // nproducers for i in range(nproducers)]
    counts = [0] * nconsumers
    for ci in table:
        counts[ci] += 1
    if len(_peers_cache) >= 64:
        _peers_cache.clear()
    _peers_cache[key] = (table, counts)
    return table


def blocked_fan_in(nproducers: int, nconsumers: int):
    """Producers assigned per consumer (the bincount of
    :func:`blocked_peers`), from the same per-shape cache."""
    blocked_peers(nproducers, nconsumers)
    return _peers_cache[(nproducers, nconsumers)][1]


class _ChannelGroups:
    """Role structures shared by every rank of one channel.

    Built once per ``create_channel`` collective (all ranks receive the
    same role list object from the allgather, so the derived lists and
    index maps are computed once and shared) instead of per rank —
    channel setup used to be O(P) python work on each of P ranks.
    """

    __slots__ = ("producers", "consumers", "producer_index_of",
                 "consumer_index_of")

    def __init__(self, producers: List[int], consumers: List[int]):
        self.producers = producers
        self.consumers = consumers
        self.producer_index_of = {r: i for i, r in enumerate(producers)}
        self.consumer_index_of = {r: i for i, r in enumerate(consumers)}


class StreamChannel:
    """A directional dataflow link between two groups of processes."""

    def __init__(self, comm: Comm, producers: List[int], consumers: List[int],
                 groups: Optional[_ChannelGroups] = None):
        if not producers or not consumers:
            raise CommunicatorError(
                f"a stream channel needs at least one producer and one "
                f"consumer: got {len(producers)} producer(s) and "
                f"{len(consumers)} consumer(s) over {comm.name!r} "
                f"of size {comm.size}"
            )
        if groups is None:
            groups = _ChannelGroups(list(producers), list(consumers))
        self.comm = comm                    # dedicated dup, stream traffic only
        self.producers = groups.producers   # local ranks in `comm` (shared)
        self.consumers = groups.consumers
        self._groups = groups
        self._producer_index = groups.producer_index_of.get(comm.rank)
        self._consumer_index = groups.consumer_index_of.get(comm.rank)
        self.is_producer = self._producer_index is not None
        self.is_consumer = self._consumer_index is not None
        self._next_stream_tag = 1
        self.freed = False

    # ------------------------------------------------------------------
    @property
    def nproducers(self) -> int:
        return len(self.producers)

    @property
    def nconsumers(self) -> int:
        return len(self.consumers)

    @property
    def producer_index(self) -> Optional[int]:
        """This rank's index among the producers (None if not one)."""
        return self._producer_index

    @property
    def consumer_index(self) -> Optional[int]:
        return self._consumer_index

    # ------------------------------------------------------------------
    # static blocked routing
    # ------------------------------------------------------------------
    def consumer_of(self, producer_index: int) -> int:
        """Local rank of the consumer assigned to ``producer_index``."""
        nc, np_ = self.nconsumers, self.nproducers
        return self.consumers[producer_index * nc // np_]

    def producers_of(self, consumer_index: int) -> List[int]:
        """Indices of producers statically assigned to this consumer."""
        table = blocked_peers(self.nproducers, self.nconsumers)
        return [i for i, ci in enumerate(table) if ci == consumer_index]

    def fan_in(self, consumer_index: int) -> int:
        """Number of producers assigned to ``consumer_index`` — the
        consumer-side termination count, without materializing the
        index list ``producers_of`` returns."""
        return blocked_fan_in(self.nproducers,
                              self.nconsumers)[consumer_index]

    @property
    def role(self) -> str:
        """This rank's role on the channel ("producer" / "consumer" /
        "bystander") — diagnostics and failure handling both need it."""
        return ("producer" if self.is_producer else
                "consumer" if self.is_consumer else "bystander")

    def producer_index_of(self, local_rank: int):
        """Producer index of a member local rank (None if not one)."""
        return self._groups.producer_index_of.get(local_rank)

    def consumer_index_of(self, local_rank: int):
        """Consumer index of a member local rank (None if not one)."""
        return self._groups.consumer_index_of.get(local_rank)

    # ------------------------------------------------------------------
    # failure notification (fault-mode runs; see repro.faults)
    # ------------------------------------------------------------------
    def failed_members(self):
        """Local ranks of channel members whose failure has been
        detected, with their roles: ``[(local_rank, role), ...]``.
        Empty on fault-free runs."""
        out = []
        for local in self.comm.failed_members():
            if self._groups.producer_index_of.get(local) is not None:
                out.append((local, "producer"))
            elif self._groups.consumer_index_of.get(local) is not None:
                out.append((local, "consumer"))
            else:
                out.append((local, "bystander"))
        return out

    def owner_consumer(self, consumer_index: int, dead_locals):
        """The live consumer currently responsible for ``consumer_index``'s
        work: the index itself if alive, else the next live consumer in
        cyclic index order (the deterministic successor rule every rank
        computes identically).  None when every consumer is dead."""
        consumers = self.consumers
        nc = len(consumers)
        for k in range(nc):
            cand = (consumer_index + k) % nc
            if consumers[cand] not in dead_locals:
                return cand
        return None

    # ------------------------------------------------------------------
    def alloc_stream_tag(self) -> int:
        """Per-channel stream id; identical across ranks because streams
        are attached collectively in program order."""
        tag = self._next_stream_tag
        self._next_stream_tag += 1
        return tag

    def check_alive(self) -> None:
        if self.freed:
            raise CommunicatorError(
                f"operation on a freed stream channel (rank "
                f"{self.comm.rank}, role {self.role})")

    def free(self) -> Generator[Any, Any, None]:
        """Collective channel teardown (``MPIStream_FreeChannel``).

        On a fault-injection run where a channel member has failed, the
        collective barrier could never complete; teardown degrades to a
        local free (ULFM without shrink), deterministically on every
        surviving rank: the collective context is revoked so members
        already parked inside the barrier escape instead of waiting for
        ranks that will never arrive.  The p2p context stays live —
        other members may still be streaming."""
        self.check_alive()
        comm = self.comm
        ctl = comm.world._fault_ctl
        if ctl is None or not any(g in ctl.failed for g in comm.ranks):
            try:
                yield from comm.barrier()
                self.freed = True
                return
            except (ProcessFailedError, RevokedError):
                pass  # a member died while we were inside the barrier
        ctl.revoke(comm, contexts=(comm.context_coll,))
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StreamChannel({self.nproducers}P->{self.nconsumers}C, "
                f"rank={self.comm.rank}:{self.role})")


def create_channel(comm: Comm, is_producer: bool, is_consumer: bool
                   ) -> Generator[Any, Any, StreamChannel]:
    """Collective channel creation over ``comm``.

    Every rank declares its role; ranks may be neither (bystanders that
    hold the channel but move no data), but not both — the paper's
    dataflow is directional between disjoint groups.
    """
    if is_producer and is_consumer:
        raise CommunicatorError(
            "a rank cannot be both producer and consumer of one channel; "
            "create two channels for bidirectional flow"
        )
    roles = yield from comm.allgather((bool(is_producer), bool(is_consumer)))
    # The allgather moves payloads by reference, so every member rank
    # holds the *same* roles list object; derive the role groups once
    # and share them instead of rebuilding O(P) structures per rank.
    world = comm.world
    cache = getattr(world, "_channel_groups", None)
    if cache is None:
        cache = world._channel_groups = {}
    hit = cache.get(id(roles))
    if hit is not None and hit[0] is roles:
        groups = hit[1]
    else:
        producers = [r for r, (p, _) in enumerate(roles) if p]
        consumers = [r for r, (_, c) in enumerate(roles) if c]
        groups = _ChannelGroups(producers, consumers)
        # bounded: eviction only costs a rebuild on the (rare) miss,
        # and the identity guard above rejects any stale id() reuse
        if len(cache) >= 8:
            cache.clear()
        cache[id(roles)] = (roles, groups)
    dedicated = yield from comm.dup()
    return StreamChannel(dedicated, groups.producers, groups.consumers,
                         groups=groups)
