"""Tests for the SPMD launcher and machine presets."""

import pytest

from repro.simmpi import (
    MachineConfig,
    beskow,
    ideal_network_testbed,
    quiet_testbed,
    run,
)
from repro.simmpi.oracle import OracleNetwork


def test_values_and_finish_times_per_rank():
    def prog(comm):
        yield from comm.compute(0.1 * (comm.rank + 1))
        return comm.rank * 2

    r = run(prog, 4, machine=quiet_testbed())
    assert r.values == [0, 2, 4, 6]
    assert r.finish_times == sorted(r.finish_times)
    assert r.elapsed == pytest.approx(max(r.finish_times))


def test_rank_args_override_args():
    def prog(comm, x):
        yield from comm.sleep(0)
        return x

    r = run(prog, 3, rank_args=lambda rank: (rank * 10,))
    assert r.values == [0, 10, 20]


def test_shared_args():
    def prog(comm, x, y):
        yield from comm.sleep(0)
        return x + y

    r = run(prog, 2, args=(1, 2))
    assert r.values == [3, 3]


def test_zero_procs_rejected():
    with pytest.raises(ValueError):
        run(lambda comm: None, 0)


def test_max_events_budget():
    def prog(comm):
        while True:
            yield from comm.sleep(0.0)

    with pytest.raises(RuntimeError, match="event budget"):
        run(prog, 1, max_events=50)


def test_traffic_statistics():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 100, dest=1)
            return None
        yield from comm.recv(source=0)

    r = run(prog, 2)
    assert r.messages == 1
    assert r.bytes == 100


def test_imbalance_metric():
    def prog(comm):
        yield from comm.compute(1.0 if comm.rank == 0 else 0.5)

    r = run(prog, 2, machine=quiet_testbed())
    assert r.imbalance == pytest.approx(0.5)


def test_trace_disabled_by_default():
    def prog(comm):
        yield from comm.compute(0.1)

    assert run(prog, 2).tracer is None
    assert run(prog, 2, trace=True).tracer is not None


def test_extras_expose_world():
    def prog(comm):
        yield from comm.sleep(0)

    r = run(prog, 2)
    assert r.extras["world"].nranks == 2


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def test_beskow_preset_validates():
    cfg = beskow()
    cfg.validate()
    assert cfg.ranks_per_node == 32
    assert cfg.network.latency > 0


def test_beskow_noise_seed_override():
    a = beskow(noise_seed=1)
    b = beskow(noise_seed=2)
    assert a.noise.seed != b.noise.seed


def test_quiet_testbed_is_noise_free():
    cfg = quiet_testbed()
    assert cfg.noise.persistent_skew == 0.0
    assert cfg.noise.quantum_fraction == 0.0


def test_ideal_network_is_free():
    cfg = ideal_network_testbed()
    assert cfg.network.latency == 0.0
    assert cfg.network.o_send == 0.0


def test_with_replaces_fields():
    cfg = beskow().with_(compute_speed=2.0)
    assert cfg.compute_speed == 2.0
    assert cfg.name == "beskow-xc40"


def test_node_of():
    """The world's rank->node map is its network's; the default flat
    fabric and the seed OracleNetwork both keep the seed block rule."""
    def prog(comm):
        yield from comm.barrier()

    for factory in (None, OracleNetwork):
        world = run(prog, 2, machine=beskow(),
                    network_factory=factory).extras["world"]
        assert [world.node_of(r) for r in (0, 31, 32)] == [0, 0, 1]


def test_compute_speed_scales_time():
    def prog(comm):
        yield from comm.compute(1.0)
        return comm.time

    slow = run(prog, 1, machine=quiet_testbed())
    fast = run(prog, 1, machine=quiet_testbed().with_(compute_speed=4.0))
    assert fast.values[0] == pytest.approx(slow.values[0] / 4.0)
