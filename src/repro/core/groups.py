"""Group formation and inter-group flows (Section II-C, Fig. 4).

A :class:`DecouplingPlan` is the declarative form of "form G groups of
P_i processes linked by streams": groups plus the flows between them.
Mapping operations to groups is the :class:`~repro.api.graph.
StreamGraph`'s job, where each stage is one operation on one group.

    plan = DecouplingPlan(total_procs=64)
    plan.add_group("compute", fraction=0.9375)
    plan.add_group("reduce", fraction=0.0625)      # alpha = 6.25%
    plan.add_flow("intermediate", src="compute", dst="reduce")
    plan.validate()

The plan assigns concrete rank ranges deterministically (groups take
contiguous rank blocks in declaration order, remainders resolved
largest-fraction-first), so every rank can compute its group without
communication; :meth:`DecouplingPlan.group_of` is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class PlanError(ValueError):
    """An invalid decoupling plan (bad fractions, unknown groups...)."""


@dataclass(frozen=True)
class Flow:
    """A directional dataflow between two groups."""

    name: str
    src: str
    dst: str


@dataclass
class GroupSpec:
    name: str
    fraction: float
    size: int = 0            # resolved by validate()
    first_rank: int = 0      # resolved by validate()

    @property
    def ranks(self) -> range:
        return range(self.first_rank, self.first_rank + self.size)


class DecouplingPlan:
    """Groups + inter-group flows for one application."""

    def __init__(self, total_procs: int):
        if total_procs <= 0:
            raise PlanError("total_procs must be positive")
        self.total_procs = total_procs
        self.groups: Dict[str, GroupSpec] = {}
        self._order: List[str] = []
        self.flows: List[Flow] = []
        self._validated = False
        #: ("group" | "flow", name) -> member ranks, one tuple shared by
        #: every rank (each forms its communicator from it); reset by
        #: validate
        self._ranks: Dict[Tuple[str, str], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_group(self, name: str, fraction: Optional[float] = None,
                  size: Optional[int] = None) -> "DecouplingPlan":
        """Declare a group by fraction of P or by absolute size."""
        if name in self.groups:
            raise PlanError(f"duplicate group {name!r}")
        if (fraction is None) == (size is None):
            raise PlanError("give exactly one of fraction / size")
        if size is not None:
            if not (0 < size <= self.total_procs):
                raise PlanError(f"group size {size} out of range")
            fraction = size / self.total_procs
        if not (0.0 < fraction <= 1.0):
            raise PlanError(f"fraction must be in (0, 1], got {fraction}")
        self.groups[name] = GroupSpec(name, fraction,
                                      size=size if size is not None else 0)
        self._order.append(name)
        self._validated = False
        return self

    def add_flow(self, name: str, src: str, dst: str) -> "DecouplingPlan":
        for g in (src, dst):
            if g not in self.groups:
                raise PlanError(f"unknown group {g!r} in flow {name!r}")
        if src == dst:
            raise PlanError(f"flow {name!r} must link two distinct groups")
        if any(f.name == name for f in self.flows):
            raise PlanError(f"duplicate flow {name!r}")
        self.flows.append(Flow(name, src, dst))
        return self

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def validate(self) -> "DecouplingPlan":
        """Resolve fractions to concrete disjoint rank ranges covering P.

        Sizes are ``round(fraction * P)`` floored at 1, with the
        remainder credited to / taken from the largest group; groups
        occupy contiguous blocks in declaration order.
        """
        if not self.groups:
            raise PlanError("plan has no groups")
        sizes: Dict[str, int] = {}
        for name in self._order:
            g = self.groups[name]
            sizes[name] = g.size if g.size > 0 else max(
                1, round(g.fraction * self.total_procs))
        drift = self.total_procs - sum(sizes.values())
        if drift != 0:
            largest = max(self._order, key=lambda n: sizes[n])
            sizes[largest] += drift
            if sizes[largest] < 1:
                raise PlanError(
                    f"group sizes {sizes} cannot cover {self.total_procs} "
                    "processes"
                )
        first = 0
        for name in self._order:
            g = self.groups[name]
            g.size = sizes[name]
            g.first_rank = first
            first += g.size
        self._validated = True
        self._ranks = {}
        return self

    def _require_validated(self) -> None:
        if not self._validated:
            raise PlanError("plan not validated; call validate() first")

    # ------------------------------------------------------------------
    # queries (pure, communication-free)
    # ------------------------------------------------------------------
    def group_of(self, rank: int) -> str:
        self._require_validated()
        if not (0 <= rank < self.total_procs):
            raise PlanError(f"rank {rank} out of range")
        for name in self._order:
            g = self.groups[name]
            if rank in g.ranks:
                return name
        raise AssertionError("unreachable: groups cover all ranks")

    def alpha(self, group: str) -> float:
        """The decoupled fraction for ``group`` (Eq. 4's alpha)."""
        self._require_validated()
        if group not in self.groups:
            raise PlanError(f"unknown group {group!r}")
        return self.groups[group].size / self.total_procs

    def group_ranks(self, group: str) -> Tuple[int, ...]:
        """A group's ranks, ascending: the members its stage
        communicator is formed over."""
        self._require_validated()
        key = ("group", group)
        hit = self._ranks.get(key)
        if hit is None:
            if group not in self.groups:
                raise PlanError(f"unknown group {group!r}")
            hit = self._ranks[key] = tuple(self.groups[group].ranks)
        return hit

    def flow_ranks(self, flow: str) -> Tuple[int, ...]:
        """Ranks of a flow's source and destination groups, ascending:
        the members its stream channel is collective over."""
        self._require_validated()
        key = ("flow", flow)
        hit = self._ranks.get(key)
        if hit is not None:
            return hit
        for f in self.flows:
            if f.name == flow:
                # groups are disjoint contiguous blocks: order the two
                lo, hi = sorted((self.groups[f.src], self.groups[f.dst]),
                                key=lambda g: g.first_rank)
                hit = self._ranks[key] = (*lo.ranks, *hi.ranks)
                return hit
        raise PlanError(f"unknown flow {flow!r}")
