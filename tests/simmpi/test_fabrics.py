"""Tests for the network's topologies: flat/fat-tree/dragonfly route
selection, the topology-specific contention behaviours, and the
randomized flat-fabric vs ``OracleNetwork`` equivalence cross-check."""

import random

import pytest

from repro.simmpi import run
from repro.simmpi.config import (
    MachineConfig,
    NetworkConfig,
    TopologyConfig,
    quiet_testbed,
    resolve_topology,
)
from repro.simmpi.fabrics import DragonflyFabric, FatTreeFabric
from repro.simmpi.errors import OracleConfigError
from repro.simmpi.network import Network
from repro.simmpi.oracle import OracleNetwork
from repro.simmpi.placement import BlockPlacement, RoundRobinPlacement


def _machine(kind, **topo_kw):
    cfg = quiet_testbed()
    return cfg.with_(topology=TopologyConfig(kind=kind, **topo_kw))


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def test_network_picks_route_from_topology_kind():
    """One Network times every topology; the kind picks its route."""
    assert Network(quiet_testbed(), 64)._route is None
    assert isinstance(Network(_machine("fat_tree"), 64)._route,
                      FatTreeFabric)
    assert isinstance(Network(_machine("dragonfly"), 64)._route,
                      DragonflyFabric)


def test_resolve_topology_accepts_names():
    assert resolve_topology(None).kind == "flat"
    assert resolve_topology("fat_tree").kind == "fat_tree"
    assert resolve_topology("fat-tree").kind == "fat_tree"
    t = TopologyConfig(kind="dragonfly")
    assert resolve_topology(t) is t
    with pytest.raises(ValueError, match="unknown topology kind"):
        resolve_topology("torus")
    with pytest.raises(ValueError, match="TopologyConfig"):
        resolve_topology(3.14)


def test_topology_config_validates():
    with pytest.raises(ValueError):
        TopologyConfig(kind="fat_tree", radix=1).validate()
    with pytest.raises(ValueError):
        TopologyConfig(taper=0.5).validate()
    with pytest.raises(ValueError):
        TopologyConfig(global_bandwidth=0).validate()
    with pytest.raises(ValueError):
        TopologyConfig(nodes_per_group=0).validate()


def test_launcher_threads_topology_and_placement():
    def prog(comm):
        yield from comm.barrier()

    m = quiet_testbed().with_(ranks_per_node=2,
                              topology=resolve_topology("dragonfly"),
                              placement=RoundRobinPlacement())
    r = run(prog, 4, machine=m)
    world = r.extras["world"]
    assert [world.node_of(rank) for rank in range(4)] == [0, 1, 0, 1]


# ----------------------------------------------------------------------
# randomized flat-fabric vs OracleNetwork cross-check (the PR 2
# oracle-equivalence pattern, extended to the fabric protocol)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_flat_fabric_matches_oracle_on_random_streams(seed):
    cfg = MachineConfig(name="x", ranks_per_node=8)
    nranks = 64
    fast = Network(cfg, nranks)
    oracle = OracleNetwork(cfg, nranks)
    rng = random.Random(seed)
    clock = 0.0
    for _ in range(2000):
        src = rng.randrange(nranks + 8)      # includes lazy-grow ranks
        dst = rng.randrange(nranks + 8)
        nbytes = rng.choice((0, 1, 100, 8192, 1 << 20))
        clock += rng.random() * 1e-5
        t_fast = fast.transfer(src, dst, nbytes, ready=clock)
        t_oracle = oracle.transfer(src, dst, nbytes, ready=clock)
        assert t_fast == t_oracle
    assert fast.messages_sent == oracle.messages_sent
    assert fast.bytes_sent == oracle.bytes_sent


def test_flat_fabric_matches_oracle_link_resolution():
    cfg = quiet_testbed()
    fast = Network(cfg, 96)
    oracle = OracleNetwork(cfg, 96)
    for src in range(0, 96, 7):
        for dst in range(0, 96, 11):
            assert fast._link(src, dst) == oracle._link(src, dst)


def _pair_exchange(comm):
    """Each rank swaps one message with the rank half the world away
    (a different node under block placement)."""
    peer = (comm.rank + comm.size // 2) % comm.size
    req = yield from comm.isend(comm.rank, dest=peer, nbytes=4096)
    yield from comm.recv(source=peer)
    yield from comm.wait(req)
    return comm.time


@pytest.mark.parametrize("override, match", [
    ({"topology": TopologyConfig(kind="fat_tree")},
     "flat fabric only, not 'fat_tree'"),
    ({"placement": RoundRobinPlacement()}, "block placement only, not "
                                           "'round_robin'"),
], ids=["fat_tree", "round_robin"])
def test_oracle_network_refuses_machines_it_cannot_model(override, match):
    """The seed network times a flat, block-placed machine whatever the
    config says, so it must refuse anything else instead of timing the
    wrong machine."""
    machine = quiet_testbed().with_(**override)
    assert run(_pair_exchange, 64, machine=machine).elapsed != \
        run(_pair_exchange, 64).elapsed
    with pytest.raises(OracleConfigError, match=match):
        run(_pair_exchange, 64, machine=machine,
            network_factory=OracleNetwork)
    # the flat, block-placed machine it does model stays accepted
    explicit_block = quiet_testbed().with_(placement=BlockPlacement())
    assert run(_pair_exchange, 64, machine=explicit_block,
               network_factory=OracleNetwork).elapsed == \
        run(_pair_exchange, 64).elapsed


# ----------------------------------------------------------------------
# fat-tree behaviour
# ----------------------------------------------------------------------

def _fat_tree(nranks=64, rpn=8, **topo_kw):
    topo_kw.setdefault("radix", 2)
    cfg = quiet_testbed().with_(
        ranks_per_node=rpn,
        network=NetworkConfig(fabric_dilation=0.0),
        topology=TopologyConfig(kind="fat_tree", **topo_kw))
    return Network(cfg, nranks)


def test_fat_tree_same_node_matches_flat_shortcut():
    net = _fat_tree()
    flat = Network(quiet_testbed().with_(
        ranks_per_node=8, network=NetworkConfig(fabric_dilation=0.0)), 64)
    assert net.transfer(0, 1, 1000, ready=0.0) == \
        flat.transfer(0, 1, 1000, ready=0.0)
    assert net.transfer(3, 3, 1000, ready=0.0) == \
        flat.transfer(3, 3, 1000, ready=0.0)


def test_fat_tree_latency_grows_with_climb_level():
    net = _fat_tree()
    # ranks 0/8: adjacent nodes (0,1) share a level-1 switch; ranks
    # 0/56: nodes 0 and 7 only meet at the root (level 3)
    near = net.transfer(0, 8, 0, ready=0.0).delivered
    net2 = _fat_tree()
    far = net2.transfer(0, 56, 0, ready=0.0).delivered
    assert far > near


def test_fat_tree_uplink_contention_serializes_cross_subtree():
    """Two same-size flows crossing the root from sibling sources
    queue on the shared uplink; two flows inside one leaf pair don't."""
    nbytes = 1 << 20
    net = _fat_tree()
    # both node 0 (rank 0) and node 1 (rank 8) send into the far half:
    # they share the level-2 uplink of switch 0
    a = net.transfer(0, 56, nbytes, ready=0.0)
    b = net.transfer(8, 48, nbytes, ready=0.0)
    uplink_serial = nbytes / (8.0e9 / 2.0)   # level-2 uplink, taper 2
    assert b.arrival >= a.arrival + uplink_serial * 0.99

    net2 = _fat_tree()
    c = net2.transfer(0, 8, nbytes, ready=0.0)    # level-1 only
    d = net2.transfer(16, 24, nbytes, ready=0.0)  # disjoint switch
    assert abs(c.arrival - d.arrival) < 1e-9


def test_fat_tree_rx_nic_still_serializes_incast():
    net = _fat_tree()
    nbytes = 1 << 20
    deliveries = [
        net.transfer(8 * (i + 1), 0, nbytes, ready=0.0).delivered
        for i in range(4)
    ]
    for a, b in zip(deliveries, deliveries[1:]):
        assert b > a


def test_fat_tree_lazy_grow_out_of_range_ranks():
    net = _fat_tree(nranks=16, rpn=8)
    t = net.transfer(0, 40, 1000, ready=0.0)     # rank 40: grown lazily
    assert t.delivered > 0
    assert net.node_of(40) == 5


# ----------------------------------------------------------------------
# dragonfly behaviour
# ----------------------------------------------------------------------

def _dragonfly(nranks=64, rpn=4, **topo_kw):
    topo_kw.setdefault("nodes_per_group", 4)
    cfg = quiet_testbed().with_(
        ranks_per_node=rpn,
        network=NetworkConfig(fabric_dilation=0.0),
        topology=TopologyConfig(kind="dragonfly", **topo_kw))
    return Network(cfg, nranks)


def test_dragonfly_local_cheaper_than_global():
    net = _dragonfly()
    # 16 ranks per group (4 nodes x 4 ranks): rank 4 is group 0,
    # rank 20 is group 1
    local = net.transfer(0, 4, 0, ready=0.0).delivered
    net2 = _dragonfly()
    glob = net2.transfer(0, 20, 0, ready=0.0).delivered
    assert glob > local


def test_dragonfly_global_pipe_serializes_per_source_group():
    nbytes = 1 << 20
    net = _dragonfly()
    # two senders in group 0 (nodes 0 and 1) both cross to group 1:
    # they share group 0's global pipe
    a = net.transfer(0, 20, nbytes, ready=0.0)
    b = net.transfer(4, 24, nbytes, ready=0.0)
    pipe_serial = nbytes / 5.0e9
    assert b.arrival >= a.arrival + pipe_serial * 0.99

    # senders in *different* groups do not share a pipe
    net2 = _dragonfly()
    c = net2.transfer(0, 20, nbytes, ready=0.0)   # group 0 -> 1
    d = net2.transfer(32, 0, nbytes, ready=0.0)   # group 2 -> 0
    assert abs(c.arrival - d.arrival) < net2._route._global_latency


def test_dragonfly_same_node_matches_flat_shortcut():
    net = _dragonfly()
    flat = Network(quiet_testbed().with_(
        ranks_per_node=4, network=NetworkConfig(fabric_dilation=0.0)), 64)
    assert net.transfer(0, 1, 5000, ready=0.0) == \
        flat.transfer(0, 1, 5000, ready=0.0)


# ----------------------------------------------------------------------
# placement x fabric: whole simulations stay deterministic and diverge
# ----------------------------------------------------------------------

def _funnel(comm):
    """All ranks stream to rank 0 (a miniature reduce funnel)."""
    if comm.rank == 0:
        for _ in range(4 * (comm.size - 1)):
            yield from comm.recv()
        return comm.time
    for i in range(4):
        req = yield from comm.isend(i, dest=0, nbytes=65536)
        yield from comm.wait(req)
    return comm.time


def test_fabric_simulation_deterministic():
    m = _machine("fat_tree", radix=2).with_(ranks_per_node=4)
    r1 = run(_funnel, 32, machine=m)
    r2 = run(_funnel, 32, machine=m)
    assert r1.elapsed == r2.elapsed
    assert r1.finish_times == r2.finish_times


def _halo(comm):
    """Each rank passes a message to rank+1 (placement-sensitive: under
    block placement most hops are intra-node, under round-robin none)."""
    req = None
    if comm.rank + 1 < comm.size:
        req = yield from comm.isend(1, dest=comm.rank + 1, nbytes=65536)
    if comm.rank > 0:
        yield from comm.recv()
    if req is not None:
        yield from comm.wait(req)
    return comm.time


def test_placement_changes_fabric_timing():
    m = _machine("fat_tree", radix=2).with_(ranks_per_node=4)
    block = run(_halo, 32, machine=m)
    spread = run(_halo, 32,
                 machine=m.with_(placement=RoundRobinPlacement()))
    assert spread.elapsed > block.elapsed


def test_flat_fabric_ignores_placement_only_through_node_map():
    """Round-robin placement on the *flat* fabric changes which pairs
    get the intra-node shortcut — consecutive ranks never share."""
    cfg = quiet_testbed().with_(ranks_per_node=4,
                                placement=RoundRobinPlacement())
    net = Network(cfg, 32)
    assert net._route is None
    lat_01 = net._link(0, 1)[0]
    assert lat_01 == cfg.network.latency   # neighbours now cross nodes
    assert net._link(0, 8)[0] == cfg.network.intra_node_latency
