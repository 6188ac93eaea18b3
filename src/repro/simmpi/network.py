"""Interconnect timing model: one NIC discipline for every fabric.

The network model answers one question for the transport layer: given a
message of ``nbytes`` from rank *s* to rank *d* injected at time *t*,
when does it (a) free the sender's NIC, (b) arrive at the destination,
and (c) finish occupying the destination's NIC?

:class:`Network` is the only class that times a message (DESIGN.md §9).
The transport calls ``transfer``, ``_link`` (the rendezvous header's
latency), ``node_of`` and the two traffic counters.  ``transfer``
resolves the self, intra-node or inter-node link and then applies the
same NIC discipline on every topology the machine's
:class:`~repro.simmpi.config.TopologyConfig` selects:

* ``"flat"`` — the two-level intra/inter-node LogGP model: an
  inter-node message flies for the dilated ``latency``.  The default,
  and bit-identical to the committed goldens and to
  :class:`repro.simmpi.oracle.OracleNetwork` under block placement.
* ``"fat_tree"`` / ``"dragonfly"`` — an inter-node message asks its
  arrival from the topology's route in :mod:`repro.simmpi.fabrics`,
  which walks its own uplink or global-pipe timelines.

Rank→node mapping is not hard-coded: the machine's
:mod:`~repro.simmpi.placement` policy is resolved once into a flat
rank-indexed node list.

Design points, chosen to reproduce the paper's *shapes*:

* **Per-NIC serialization.**  Each rank has a transmit and a receive
  NIC timeline; back-to-back messages queue.  This is what produces the
  paper's observed master-process congestion in the MapReduce reduce
  group at 4,096+ processes (Section IV-B) — thousands of producers
  funnel into one consumer whose rx NIC serializes them.
* **Intra-node shortcut.**  Ranks on the same node communicate with
  lower latency / higher bandwidth (shared memory), whatever the cable
  plant.
* **Fabric dilation.**  On the flat fabric, one-way latency grows mildly
  (logarithmically) with the job size beyond a base allocation,
  standing in for the extra dragonfly hops and adaptive-routing traffic
  of large jobs.
* **Link degradation.**  :meth:`Network.degrade` installs
  ``LinkDegrade`` windows: a message between the two nodes injected
  inside a window serializes at ``bandwidth / bw_factor``.

The model is deliberately first-order: deterministic, O(1) per message
on the flat fabric, and calibrated rather than cycle-accurate (see
DESIGN.md §7).

Fast-path layout: the NIC timelines are flat lists indexed by rank
(not dicts), node ids are precomputed per rank, and the three possible
``(latency, bandwidth)`` resolutions — self, intra-node, inter-node —
are cached tuples, so :meth:`Network.transfer` does no attribute-chain
digging or hashing per message.  The pre-optimization implementation
is preserved as :class:`repro.simmpi.oracle.OracleNetwork`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .config import MachineConfig
from .fabrics import DragonflyFabric, FatTreeFabric


_tuple_new = tuple.__new__


class TransferTiming(NamedTuple):
    """Resolved timing of one message transfer.

    A NamedTuple: one is allocated per message, and tuple construction
    is C-level (the frozen-dataclass ``__init__`` it replaced was ~4x
    slower at transport rates).
    """

    inject_start: float   # when the payload starts leaving the sender NIC
    sender_free: float    # when the sender NIC is free again
    arrival: float        # when the last byte reaches the receiver NIC
    delivered: float      # when the receiver NIC has drained it (match time)


class Network:
    """Stateful NIC-timeline network model of one machine."""

    def __init__(self, config: MachineConfig, nranks: int):
        # flat per-rank NIC timelines: list indexing beats dict lookups
        # in the per-message hot path
        self._tx_free = [0.0] * nranks
        self._rx_free = [0.0] * nranks
        net = config.network
        if nranks > net.dilation_base and net.fabric_dilation > 0:
            dil = 1.0 + net.fabric_dilation * math.log2(nranks / net.dilation_base)
        else:
            dil = 1.0
        # per-rank node ids from the machine's placement policy and the
        # three possible link resolutions, precomputed once
        # (MachineConfig is frozen)
        self._placement = config.placement_for(nranks)
        self._node = list(self._placement.nodes)
        self._self_link = (0.0, net.intra_node_bandwidth)
        self._intra_link = (net.intra_node_latency, net.intra_node_bandwidth)
        self._inter_link = (net.latency * dil, net.bandwidth)
        self._size = nranks
        #: the inter-node route of a non-flat topology; None on the flat
        #: fabric, whose wire is ``_inter_link``
        kind = config.topology.kind
        if kind == "flat":
            self._route = None
        elif kind == "fat_tree":
            self._route = FatTreeFabric(config, self._node)
        elif kind == "dragonfly":
            self._route = DragonflyFabric(config, self._node)
        else:
            raise ValueError(f"unknown topology kind {kind!r}")
        #: (low node, high node) -> sorted [(t0, t1, bw_factor)]; empty
        #: unless :meth:`degrade` installed windows
        self._windows = {}
        # statistics
        self.messages_sent = 0
        self.bytes_sent = 0

    def _grow(self, size: int) -> None:
        """Accommodate out-of-range rank ids (the dict-based model
        tolerated them; flat lists grow lazily instead).  The placement
        defines the continuation deterministically."""
        extra = size - self._size
        self._tx_free.extend([0.0] * extra)
        self._rx_free.extend([0.0] * extra)
        node_of = self._placement.node_of
        self._node.extend(node_of(r) for r in range(self._size, size))
        self._size = size

    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Placement-resolved node id of ``rank``."""
        if rank < 0:
            raise ValueError(f"negative rank in node lookup: {rank}")
        if rank >= self._size:
            self._grow(rank + 1)
        return self._node[rank]

    def degrade(self, windows) -> None:
        """Install link-degradation windows (``LinkDegrade`` events:
        ``t0``, ``t1``, ``node_a``, ``node_b``, ``bw_factor``).

        A message between the two nodes whose injection starts inside
        ``[t0, t1)`` serializes at ``bandwidth / bw_factor``; where a
        pair's windows overlap, the earliest-starting one applies."""
        for ev in windows:
            a, b = ev.node_a, ev.node_b
            key = (a, b) if a < b else (b, a)
            self._windows.setdefault(key, []).append(
                (ev.t0, ev.t1, ev.bw_factor))
        for spans in self._windows.values():
            spans.sort()

    def _bw_factor(self, src_node: int, dst_node: int, when: float) -> float:
        key = ((src_node, dst_node) if src_node < dst_node
               else (dst_node, src_node))
        for t0, t1, factor in self._windows.get(key, ()):
            if t0 <= when < t1:
                return factor
        return 1.0

    # ------------------------------------------------------------------
    def _link(self, src: int, dst: int) -> Tuple[float, float]:
        """(latency, bandwidth) for the src->dst pair: the rendezvous
        header's cost."""
        if src < 0 or dst < 0:
            raise ValueError(f"negative rank in link lookup: {src}->{dst}")
        if src >= self._size or dst >= self._size:
            self._grow((src if src > dst else dst) + 1)
        if src == dst:
            # self-send: memcpy-like
            return self._self_link
        node = self._node
        src_node = node[src]
        dst_node = node[dst]
        if src_node == dst_node:
            return self._intra_link
        route = self._route
        if route is None:
            return self._inter_link
        return route.link(src_node, dst_node)

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> TransferTiming:
        """Timing for ``nbytes`` from ``src`` to ``dst``, ready at ``ready``.

        ``ready`` is when the sender has finished its CPU-side overhead
        and the payload could start injecting.  Mutates the NIC
        timelines (this call *commits* the transfer).
        """
        if nbytes < 0:
            raise ValueError("negative message size")
        if src < 0 or dst < 0:
            # the dict-based model silently keyed negative ids; flat
            # lists would alias rank -1 onto the last rank — reject
            raise ValueError(f"negative rank in transfer: {src}->{dst}")
        if src >= self._size or dst >= self._size:
            self._grow((src if src > dst else dst) + 1)
        tx_free = self._tx_free
        inject_start = tx_free[src]
        if ready > inject_start:
            inject_start = ready
        route = None
        if src == dst:
            latency, bandwidth = self._self_link
        else:
            node = self._node
            src_node = node[src]
            dst_node = node[dst]
            if src_node == dst_node:
                latency, bandwidth = self._intra_link
            else:
                latency, bandwidth = self._inter_link
                route = self._route
                if self._windows:
                    bandwidth = bandwidth / self._bw_factor(
                        src_node, dst_node, inject_start)
        serial = nbytes / bandwidth
        sender_free = inject_start + serial
        tx_free[src] = sender_free
        if route is None:
            arrival = sender_free + latency
        else:
            arrival = route.arrival(src_node, dst_node, nbytes, sender_free)
        delivered = self._rx_free[dst]
        if arrival > delivered:
            delivered = arrival
        if src != dst:
            # rx occupancy only for the wire transfer; self-sends
            # don't queue.
            delivered += serial
            self._rx_free[dst] = delivered
        self.messages_sent += 1
        self.bytes_sent += nbytes
        # direct tuple construction: both the generated namedtuple
        # __new__ and _make are Python-level wrappers that showed up in
        # transport profiles
        return _tuple_new(TransferTiming,
                          (inject_start, sender_free, arrival, delivered))
