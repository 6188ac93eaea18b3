"""Pinned virtual-time digests for network paths no committed golden
covers: dragonfly group-local and cross-group traffic, and flat-fabric
``LinkDegrade`` windows.  Any change to how those messages are timed
changes ``result_digest`` and fails here."""

from repro.bench.perf import result_digest
from repro.faults import FaultPlan, LinkDegrade
from repro.simmpi import quiet_testbed, run
from repro.simmpi.config import TopologyConfig


def _ring_and_incast(comm):
    """A ring pass at an eager and a rendezvous size, then every rank
    sends a small and a large message to rank 0."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for nbytes in (4096, 65536):
        req = yield from comm.isend(comm.rank, dest=right, nbytes=nbytes)
        yield from comm.recv(source=left)
        yield from comm.wait(req)
    if comm.rank == 0:
        for _ in range(2 * (comm.size - 1)):
            yield from comm.recv()
    else:
        for nbytes in (1024, 1 << 20):
            req = yield from comm.isend(comm.rank, dest=0, nbytes=nbytes)
            yield from comm.wait(req)
    return comm.time


def test_dragonfly_local_and_global_digest():
    # 2 ranks per node and 2 nodes per group: each group holds 4 ranks,
    # so the ring and the incast cross a node inside a group (1 -> 2)
    # and between groups (3 -> 4) as well as staying on a node (0 -> 1)
    machine = quiet_testbed().with_(
        ranks_per_node=2,
        topology=TopologyConfig(kind="dragonfly", nodes_per_group=2))
    sim = run(_ring_and_incast, 16, machine=machine)
    assert result_digest(sim) == \
        "88413a0d9079bf1af295b79803830332d233e22f606162ed63e6e29cfc625804"


def test_flat_link_degrade_windows_digest():
    machine = quiet_testbed().with_(ranks_per_node=1)
    # one rank per node; each window alone also changes the run: the
    # first slows traffic between ranks 0 and 1, the second the ring
    # step 2 -> 3
    plan = FaultPlan([LinkDegrade(0.0, 2.0e-4, 0, 1, 4.0),
                      LinkDegrade(0.0, 1.0, 2, 3, 2.5)])
    base = run(_ring_and_incast, 4, machine=machine)
    sim = run(_ring_and_incast, 4, machine=machine, faults=plan)
    assert sim.elapsed > base.elapsed      # the windows slow the run
    assert result_digest(sim) == \
        "aaf4767f30e6770db0f25165c6e0545c26a425670ea5698bad03add86551b09b"
