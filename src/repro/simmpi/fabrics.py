"""Topology routes: the fat-tree and dragonfly wires between nodes.

:class:`~repro.simmpi.network.Network` times every message and owns
the NIC discipline (DESIGN.md §9); on a fat-tree or dragonfly machine
it asks an inter-node message's wire from the route here.  A route
answers two questions about a pair of distinct nodes:

``link(src_node, dst_node) -> (latency, bandwidth)``
    The latency-only cost of a rendezvous header.
``arrival(src_node, dst_node, nbytes, sender_free) -> float``
    When a payload that left the sender's NIC at ``sender_free``
    reaches the receiver's NIC; commits the route's own timelines.

Self-sends and intra-node messages never reach a route (shared memory
does not care about the cable plant).  Every timeline is a switch- or
group-indexed list of floats, grown lazily, and ``arrival`` walks a
bounded handful of them per message.  Like the flat model, both routes
are first-order and deterministic — they are calibrated to reproduce
*contention shapes* (which placement wins, how the gap moves with
scale), not cycle-accurate hop counts.

``NetworkConfig.fabric_dilation`` is deliberately **not** applied
here: that factor is the flat model's *surrogate* for the extra hops
and adaptive-routing traffic of large allocations, and these routes
model exactly those effects explicitly (per-level climbs, per-group
global pipes).  Applying both would double-count; topology latencies
come only from the ``TopologyConfig`` knobs.
"""

from __future__ import annotations

from typing import List, Tuple

from .config import MachineConfig

__all__ = [
    "DragonflyFabric",
    "FatTreeFabric",
]


class FatTreeFabric:
    """Nodes are leaves of a ``radix``-ary tree with per-level uplinks.

    A message between different nodes climbs to the lowest common
    switch (level ``L``), pays ``2 * L * link_latency`` of hop latency,
    and — the contention model — serializes on the *uplink timeline* of
    each source-side switch it ascends through.  Uplink bandwidth
    tapers by ``taper`` per level, so a reduce funnel whose producers
    sit under many different top-level subtrees hammers the thin upper
    links while a colocated layout stays under one leaf switch.
    """

    def __init__(self, config: MachineConfig, nodes: List[int]):
        topo = config.topology
        self._topo = topo
        self._radix = topo.radix
        self._hop = topo.link_latency
        self._bw = config.network.bandwidth   # NIC injection/drain rate
        nnodes = (max(nodes) + 1) if nodes else 1
        levels = 1
        capacity = self._radix
        while capacity < nnodes:
            capacity *= self._radix
            levels += 1
        self._levels = levels
        #: _up_free[l-1][switch] = when the uplink out of level-l switch
        #: ``switch`` is free; bandwidth tapers per level
        self._up_free = [
            [0.0] * (nnodes // self._radix ** l + 1)
            for l in range(1, levels)
        ]
        self._up_bw = [
            topo.uplink_bandwidth / topo.taper ** (l - 1)
            for l in range(1, levels)
        ]

    # ------------------------------------------------------------------
    def _climb(self, src_node: int, dst_node: int) -> int:
        """Lowest tree level whose switch covers both nodes (>= 1)."""
        radix = self._radix
        level = 1
        s, d = src_node // radix, dst_node // radix
        while s != d:
            s //= radix
            d //= radix
            level += 1
        while level > self._levels:
            # lazily-grown node ids outgrew the tree: add a level
            self._up_free.append([0.0])
            self._up_bw.append(self._up_bw[-1] / self._topo.taper
                               if self._up_bw
                               else self._topo.uplink_bandwidth)
            self._levels += 1
        return level

    def link(self, src_node: int, dst_node: int) -> Tuple[float, float]:
        level = self._climb(src_node, dst_node)
        return (2 * level * self._hop, self._bw)

    def arrival(self, src_node: int, dst_node: int, nbytes: int,
                sender_free: float) -> float:
        """Ascend the source-side uplink timelines, then the hops."""
        level = self._climb(src_node, dst_node)
        t = sender_free
        radix = self._radix
        sw = src_node                       # walked up incrementally:
        for l in range(1, level):           # sw == src_node // radix**l
            sw //= radix
            queue = self._up_free[l - 1]
            if sw >= len(queue):
                queue.extend([0.0] * (sw + 1 - len(queue)))
            start = queue[sw]
            if t > start:
                start = t
            t = start + nbytes / self._up_bw[l - 1]
            queue[sw] = t
        return t + 2 * level * self._hop


class DragonflyFabric:
    """Groups of nodes with cheap local links and one global pipe each.

    Nodes partition into groups of ``nodes_per_group``.  Group-local
    inter-node traffic pays ``local_latency``; cross-group traffic pays
    ``global_latency`` (plus two local hops to/from the gateway) and —
    the contention model — serializes on the *source group's* shared
    global-link timeline at ``global_bandwidth``.  A placement that
    keeps a producer/consumer pair inside one group streams on local
    links; a partitioned placement funnels every stream through the
    producers' global pipes.
    """

    def __init__(self, config: MachineConfig, nodes: List[int]):
        topo = config.topology
        self._npg = topo.nodes_per_group
        self._bw = config.network.bandwidth   # NIC injection/drain rate
        self._local_latency = topo.local_latency
        self._global_latency = topo.global_latency
        self._global_bw = topo.global_bandwidth
        ngroups = ((max(nodes) if nodes else 0) // self._npg) + 1
        #: _global_free[group] = when the group's global pipe is free
        self._global_free = [0.0] * ngroups

    # ------------------------------------------------------------------
    def link(self, src_node: int, dst_node: int) -> Tuple[float, float]:
        if src_node // self._npg == dst_node // self._npg:
            return (self._local_latency, self._bw)
        return (self._global_latency + 2 * self._local_latency, self._bw)

    def arrival(self, src_node: int, dst_node: int, nbytes: int,
                sender_free: float) -> float:
        """Group-local: the local latency.  Cross-group: the source
        group's global pipe, then the global and two local hops."""
        npg = self._npg
        group = src_node // npg
        if group == dst_node // npg:
            return sender_free + self._local_latency
        pipes = self._global_free
        if group >= len(pipes):
            pipes.extend([0.0] * (group + 1 - len(pipes)))
        start = pipes[group]
        if sender_free > start:
            start = sender_free
        t = start + nbytes / self._global_bw
        pipes[group] = t
        return t + self._global_latency + 2 * self._local_latency
