"""Unit tests for rank→node placement policies."""

import pytest

from repro.simmpi.config import MachineConfig, quiet_testbed
from repro.simmpi.errors import PlacementError
from repro.simmpi.placement import (
    BlockPlacement,
    ColocatedPlacement,
    PartitionedPlacement,
    RoundRobinPlacement,
    resolve_placement,
)


# ----------------------------------------------------------------------
# block (the seed rule)
# ----------------------------------------------------------------------

def test_block_matches_seed_rule():
    p = BlockPlacement().resolve(100, 32)
    assert [p.node_of(r) for r in range(100)] == [r // 32 for r in range(100)]
    assert p.nnodes == 4


def test_block_beyond_prefix_stays_seed_identical():
    """Lazily-grown ranks must keep node_of == rank // rpn exactly —
    the flat fabric's oracle equivalence depends on it, including when
    the last resolved node is only partially filled."""
    p = BlockPlacement().resolve(40, 32)   # node 1 holds only 8 ranks
    for r in (40, 41, 63, 64, 100, 1000):
        assert p.node_of(r) == r // 32


def test_machine_placement_for_resolves_policy():
    cfg = quiet_testbed().with_(placement=RoundRobinPlacement())
    p = cfg.placement_for(64)
    assert p.policy_name == "round_robin"


# ----------------------------------------------------------------------
# round robin
# ----------------------------------------------------------------------

def test_round_robin_deals_across_block_node_count():
    p = RoundRobinPlacement().resolve(64, 32)
    assert p.nnodes == 2
    assert [p.node_of(r) for r in range(6)] == [0, 1, 0, 1, 0, 1]
    assert p.node_of(100) == 100 % 2      # continuation is cyclic too


def test_round_robin_neighbours_never_share_a_node():
    p = RoundRobinPlacement().resolve(96, 32)
    assert all(p.node_of(r) != p.node_of(r + 1) for r in range(95))


# ----------------------------------------------------------------------
# colocated / partitioned
# ----------------------------------------------------------------------

GROUPS = (("map", 0, 60), ("reduce", 60, 3), ("master", 63, 1))


def test_colocated_helpers_share_producer_nodes():
    p = ColocatedPlacement(GROUPS).resolve(64, 32)
    map_nodes = {p.node_of(r) for r in range(60)}
    assert map_nodes == {0, 1}
    # every helper sits on some producer's node
    for r in range(60, 64):
        assert p.node_of(r) in map_nodes
    # the 3 reducers spread across the producers' nodes
    assert {p.node_of(r) for r in range(60, 63)} == {0, 1}


def test_partitioned_groups_on_disjoint_nodes():
    p = PartitionedPlacement(GROUPS).resolve(64, 32)
    map_nodes = {p.node_of(r) for r in range(60)}
    reduce_nodes = {p.node_of(r) for r in range(60, 63)}
    master_nodes = {p.node_of(63)}
    assert map_nodes == {0, 1}
    assert reduce_nodes == {2}
    assert master_nodes == {3}


def test_group_placements_validate_coverage():
    with pytest.raises(PlacementError, match="unplaced"):
        ColocatedPlacement((("a", 0, 32),)).resolve(64, 32)
    with pytest.raises(PlacementError, match="overlap"):
        PartitionedPlacement((("a", 0, 40), ("b", 32, 32))).resolve(64, 32)
    with pytest.raises(PlacementError, match="outside"):
        PartitionedPlacement((("a", 0, 128),)).resolve(64, 32)
    with pytest.raises(PlacementError, match="at least one group"):
        ColocatedPlacement(()).resolve(64, 32)


def test_group_placements_hashable_on_machine_config():
    cfg = MachineConfig(placement=PartitionedPlacement(GROUPS))
    cfg.validate()
    assert hash(cfg.placement) == hash(PartitionedPlacement(GROUPS))


# ----------------------------------------------------------------------
# resolve_placement
# ----------------------------------------------------------------------

def test_resolve_placement_names_and_defaults():
    assert isinstance(resolve_placement(None), BlockPlacement)
    assert isinstance(resolve_placement("block"), BlockPlacement)
    assert isinstance(resolve_placement("round_robin"), RoundRobinPlacement)
    assert isinstance(resolve_placement("round-robin"), RoundRobinPlacement)
    policy = PartitionedPlacement(GROUPS)
    assert resolve_placement(policy) is policy


def test_resolve_placement_rejects_unknown():
    with pytest.raises(PlacementError, match="unknown placement"):
        resolve_placement("colocated")   # needs group blocks
    with pytest.raises(PlacementError, match="PlacementPolicy"):
        resolve_placement(42)


def test_config_validate_rejects_non_policy_placement():
    with pytest.raises(ValueError, match="PlacementPolicy"):
        MachineConfig(placement="block").validate()


def test_placement_negative_rank_rejected():
    p = BlockPlacement().resolve(8, 4)
    with pytest.raises(PlacementError):
        p.node_of(-1)
