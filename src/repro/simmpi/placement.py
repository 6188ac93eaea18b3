"""Rank→node placement: which node each simulated rank occupies.

The paper's decoupling strategy is fundamentally a *placement*
question: whether the data/helper groups share nodes with their
producers (streams ride the intra-node shortcut) or sit on a disjoint
node set (streams cross the fabric and contend) decides how much of
the decoupled work is actually hidden.  The seed hard-coded
``node_of(rank) = rank // ranks_per_node`` inside ``MachineConfig``;
this module owns that mapping as a first-class, pluggable policy.

A :class:`PlacementPolicy` is a frozen, declarative spec that lives on
:class:`~repro.simmpi.config.MachineConfig`; resolving it against a
process count yields a :class:`Placement` — a flat ``nodes`` tuple
(rank-indexed, the fabric fast path reads it once) plus a deterministic
rule for ranks beyond the resolved prefix (the network model tolerates
out-of-range rank ids and grows lazily).

Policies
--------

``block``
    The seed rule: ranks fill nodes contiguously,
    ``node = rank // ranks_per_node``.  The default; the flat fabric
    under block placement is bit-identical to the committed goldens and
    to :class:`~repro.simmpi.oracle.OracleNetwork`.

``round_robin``
    Ranks deal cyclically across the same node count a block placement
    would use: ``node = rank % nnodes``.  Consecutive ranks never
    share a node — the adversarial layout for nearest-neighbour codes.

``colocated``
    Group-aware: the largest (*primary*) group packs nodes block-wise
    and every helper group spreads evenly across the primary's nodes,
    so each helper shares a node with the producers it serves.
    Oversubscribes nodes by design — that is the point.

``partitioned``
    Group-aware: each group packs block-wise onto its own disjoint
    node range, in declaration order.  Decoupled groups never share a
    node with their producers; every stream crosses the fabric.

Group-aware policies take ``(name, first_rank, size)`` triples — the
contiguous blocks a validated :class:`~repro.core.groups.
DecouplingPlan` assigns — as plain data, so this layer stays free of
upward imports; :class:`repro.api.Simulation` builds them from a
compiled graph automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from .errors import PlacementError

__all__ = [
    "BlockPlacement",
    "ColocatedPlacement",
    "PLAN_PLACEMENTS",
    "PartitionedPlacement",
    "Placement",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "placement_from_json",
    "resolve_placement",
]

#: one contiguous group block: (name, first_rank, size)
GroupBlock = Tuple[str, int, int]


class Placement:
    """A resolved rank→node map.

    ``nodes[rank]`` is the node id of every rank in the resolved
    prefix; ``node_of`` extends the map deterministically beyond it
    (policies define the continuation — block placement keeps the seed
    ``rank // ranks_per_node`` exactly, so lazily-grown flat fabrics
    stay oracle-identical).
    """

    __slots__ = ("policy_name", "nodes", "ranks_per_node", "_beyond")

    def __init__(self, policy_name: str, nodes: Sequence[int],
                 ranks_per_node: int,
                 beyond: Optional[Callable[[int], int]] = None):
        self.policy_name = policy_name
        self.nodes = tuple(nodes)
        self.ranks_per_node = ranks_per_node
        if beyond is None:
            base = (max(self.nodes) + 1) if self.nodes else 0
            n = len(self.nodes)
            rpn = ranks_per_node
            beyond = lambda rank: base + (rank - n) // rpn
        self._beyond = beyond

    @property
    def nranks(self) -> int:
        return len(self.nodes)

    @property
    def nnodes(self) -> int:
        """Distinct nodes occupied by the resolved prefix."""
        return len(set(self.nodes)) if self.nodes else 0

    def node_of(self, rank: int) -> int:
        if rank < 0:
            raise PlacementError(f"negative rank {rank} in placement lookup")
        if rank < len(self.nodes):
            return self.nodes[rank]
        return self._beyond(rank)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Placement({self.policy_name!r}, nranks={self.nranks}, "
                f"nnodes={self.nnodes})")


class PlacementPolicy:
    """Base class: a declarative placement spec on the machine config."""

    name = "abstract"

    def resolve(self, nranks: int, ranks_per_node: int) -> Placement:
        raise NotImplementedError

    def to_json(self) -> Dict[str, Any]:
        """This policy as a JSON-serializable dict (``{"policy": name}``
        plus the group blocks for the group-aware policies); feed the
        result to :func:`placement_from_json` to rebuild it."""
        out: Dict[str, Any] = {"policy": self.name}
        groups = getattr(self, "groups", None)
        if groups is not None:
            out["groups"] = [list(g) for g in groups]
        return out

    def _check(self, nranks: int, ranks_per_node: int) -> None:
        if nranks <= 0:
            raise PlacementError("nranks must be positive")
        if ranks_per_node <= 0:
            raise PlacementError("ranks_per_node must be positive")


@dataclass(frozen=True)
class BlockPlacement(PlacementPolicy):
    """Contiguous fill — the seed mapping, and the default."""

    name = "block"

    def resolve(self, nranks: int, ranks_per_node: int) -> Placement:
        self._check(nranks, ranks_per_node)
        rpn = ranks_per_node
        return Placement(self.name, [r // rpn for r in range(nranks)], rpn,
                         beyond=lambda rank: rank // rpn)


@dataclass(frozen=True)
class RoundRobinPlacement(PlacementPolicy):
    """Cyclic deal over the node count a block placement would use."""

    name = "round_robin"

    def resolve(self, nranks: int, ranks_per_node: int) -> Placement:
        self._check(nranks, ranks_per_node)
        nnodes = -(-nranks // ranks_per_node)  # ceil
        return Placement(self.name, [r % nnodes for r in range(nranks)],
                         ranks_per_node, beyond=lambda rank: rank % nnodes)


def _validated_groups(groups: Sequence[GroupBlock], nranks: int,
                      policy: str) -> Tuple[GroupBlock, ...]:
    out = tuple((str(n), int(f), int(s)) for n, f, s in groups)
    if not out:
        raise PlacementError(f"{policy} placement needs at least one group")
    covered = [False] * nranks
    for name, first, size in out:
        if size <= 0:
            raise PlacementError(f"group {name!r} has non-positive size")
        if first < 0 or first + size > nranks:
            raise PlacementError(
                f"group {name!r} block [{first}, {first + size}) outside "
                f"the {nranks}-rank world")
        for r in range(first, first + size):
            if covered[r]:
                raise PlacementError(
                    f"rank {r} covered by two groups ({name!r} overlaps)")
            covered[r] = True
    missing = covered.count(False)
    if missing:
        raise PlacementError(
            f"{policy} placement groups leave {missing} rank(s) unplaced")
    return out


@dataclass(frozen=True)
class ColocatedPlacement(PlacementPolicy):
    """Helper groups share nodes with the primary (largest) group.

    The primary group packs nodes block-wise; every other group's
    members spread evenly over the primary's nodes, so helper rank *j*
    of a size-*H* group lands on the node of primary member
    ``floor(j * P_primary / H)``.
    """

    groups: Tuple[GroupBlock, ...]
    name = "colocated"

    def __init__(self, groups: Sequence[GroupBlock]):
        object.__setattr__(self, "groups", tuple(
            (str(n), int(f), int(s)) for n, f, s in groups))

    def resolve(self, nranks: int, ranks_per_node: int) -> Placement:
        self._check(nranks, ranks_per_node)
        groups = _validated_groups(self.groups, nranks, self.name)
        primary = max(groups, key=lambda g: (g[2], -groups.index(g)))
        _, p_first, p_size = primary
        nodes = [0] * nranks
        for i in range(p_size):
            nodes[p_first + i] = i // ranks_per_node
        for name, first, size in groups:
            if (name, first, size) == primary:
                continue
            for j in range(size):
                anchor = (j * p_size) // size
                nodes[first + j] = nodes[p_first + anchor]
        return Placement(self.name, nodes, ranks_per_node)


@dataclass(frozen=True)
class PartitionedPlacement(PlacementPolicy):
    """Each group packs block-wise onto its own disjoint node range."""

    groups: Tuple[GroupBlock, ...]
    name = "partitioned"

    def __init__(self, groups: Sequence[GroupBlock]):
        object.__setattr__(self, "groups", tuple(
            (str(n), int(f), int(s)) for n, f, s in groups))

    def resolve(self, nranks: int, ranks_per_node: int) -> Placement:
        self._check(nranks, ranks_per_node)
        groups = _validated_groups(self.groups, nranks, self.name)
        nodes = [0] * nranks
        base = 0
        for _, first, size in groups:
            for j in range(size):
                nodes[first + j] = base + j // ranks_per_node
            base += -(-size // ranks_per_node)  # ceil: next disjoint range
        return Placement(self.name, nodes, ranks_per_node)


#: string shorthands accepted wherever a policy is expected
_NAMED_POLICIES = {
    "block": BlockPlacement,
    "round_robin": RoundRobinPlacement,
    "round-robin": RoundRobinPlacement,
}

#: policies that carry group blocks (JSON needs them at construction;
#: ``repro.api.Simulation`` and study ``from_plan`` placements take them
#: from a compiled plan)
PLAN_PLACEMENTS = {
    "colocated": ColocatedPlacement,
    "partitioned": PartitionedPlacement,
}


def placement_from_json(data: Dict[str, Any]) -> PlacementPolicy:
    """Rebuild a policy from :meth:`PlacementPolicy.to_json` output."""
    if not isinstance(data, dict) or "policy" not in data:
        raise PlacementError(
            f"placement JSON must be a dict with a 'policy' key, "
            f"got {data!r}")
    name = data["policy"]
    if name in PLAN_PLACEMENTS:
        groups = data.get("groups")
        if not groups:
            raise PlacementError(
                f"placement {name!r} needs its 'groups' blocks in JSON")
        return PLAN_PLACEMENTS[name](tuple(
            (str(n), int(f), int(s)) for n, f, s in groups))
    factory = _NAMED_POLICIES.get(name)
    if factory is None:
        raise PlacementError(
            f"unknown placement policy {name!r} in JSON; known: "
            f"{sorted(set(_NAMED_POLICIES) | set(PLAN_PLACEMENTS))}")
    return factory()


def resolve_placement(spec: Union[None, str, PlacementPolicy]
                      ) -> PlacementPolicy:
    """Normalize a placement spec: None → block, names → policies.

    ``colocated`` / ``partitioned`` need group blocks and therefore
    cannot be named by string here; :class:`repro.api.Simulation`
    builds them from a compiled graph's plan.
    """
    if spec is None:
        return BlockPlacement()
    if isinstance(spec, PlacementPolicy):
        return spec
    if isinstance(spec, str):
        factory = _NAMED_POLICIES.get(spec)
        if factory is None:
            raise PlacementError(
                f"unknown placement {spec!r}; named policies are "
                f"{sorted(set(_NAMED_POLICIES))} (colocated/partitioned "
                "need group blocks — pass a policy object or use "
                "repro.api.Simulation with a StreamGraph)")
        return factory()
    raise PlacementError(
        f"placement must be None, a name or a PlacementPolicy, "
        f"got {type(spec).__name__}")
