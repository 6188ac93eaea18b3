"""Unit tests for the LogGP-style network model."""

import pytest

from repro.simmpi.config import (
    IOConfig,
    MachineConfig,
    NetworkConfig,
    beskow,
    quiet_testbed,
)
from repro.simmpi.launcher import run
from repro.simmpi.network import Network


def _net(nranks=64, **kw):
    cfg = quiet_testbed()
    if kw:
        cfg = cfg.with_(network=NetworkConfig(fabric_dilation=0.0, **kw))
    return Network(cfg, nranks)


def test_transfer_basic_timing():
    net = _net(bandwidth=1e9, latency=1e-6)
    # ranks 0 and 32 are on different nodes (32 ranks/node)
    t = net.transfer(0, 32, nbytes=1_000_000, ready=0.0)
    assert t.inject_start == 0.0
    assert t.sender_free == pytest.approx(1e-3)          # 1MB at 1GB/s
    assert t.arrival == pytest.approx(1e-3 + 1e-6)
    assert t.delivered == pytest.approx(2e-3 + 1e-6)     # + rx drain


def test_zero_byte_message_costs_latency_only():
    net = _net(bandwidth=1e9, latency=1e-6)
    t = net.transfer(0, 32, nbytes=0, ready=0.0)
    assert t.delivered == pytest.approx(1e-6)


def test_negative_size_rejected():
    net = _net()
    with pytest.raises(ValueError):
        net.transfer(0, 1, nbytes=-1, ready=0.0)


def test_tx_nic_serializes_back_to_back_sends():
    net = _net(bandwidth=1e9, latency=0.0)
    t1 = net.transfer(0, 32, nbytes=1_000_000, ready=0.0)
    t2 = net.transfer(0, 64, nbytes=1_000_000, ready=0.0)
    assert t2.inject_start == pytest.approx(t1.sender_free)
    assert t2.sender_free == pytest.approx(2e-3)


def test_rx_nic_serializes_incast():
    """Many senders to one receiver queue at the receiver NIC: this is
    the master-congestion effect of Fig. 5 at 4k/8k processes."""
    net = _net(bandwidth=1e9, latency=0.0)
    deliveries = [
        net.transfer(32 * (i + 1), 0, nbytes=1_000_000, ready=0.0).delivered
        for i in range(4)
    ]
    # each delivery waits for the previous to drain
    for a, b in zip(deliveries, deliveries[1:]):
        assert b >= a + 1e-3 * 0.99


def test_intra_node_is_faster_than_inter_node():
    cfg = quiet_testbed()
    net = Network(cfg, 64)
    same = net.transfer(0, 1, nbytes=10_000, ready=0.0)     # same node
    net2 = Network(cfg, 64)
    cross = net2.transfer(0, 32, nbytes=10_000, ready=0.0)  # across nodes
    assert same.delivered < cross.delivered


def test_self_send_has_no_latency_or_rx_queue():
    net = _net(bandwidth=1e9, latency=1e-3)
    t = net.transfer(5, 5, nbytes=1000, ready=0.0)
    assert t.arrival == pytest.approx(t.sender_free)
    assert t.delivered == pytest.approx(t.arrival)


def test_fabric_dilation_grows_with_job_size():
    cfg = beskow()
    latency = cfg.network.latency
    small = Network(cfg, 64)
    large = Network(cfg, 8192)
    # ranks 0 and 32 sit on different nodes (32 ranks/node)
    assert small._link(0, 32)[0] == pytest.approx(latency)
    assert large._link(0, 32)[0] > 1.2 * latency


def test_dilation_increases_latency_not_bandwidth():
    cfg = beskow()
    small = Network(cfg, 64)
    large = Network(cfg, 8192)
    t_small = small.transfer(0, 32, nbytes=0, ready=0.0)
    t_large = large.transfer(0, 32, nbytes=0, ready=0.0)
    assert t_large.delivered > t_small.delivered


def test_traffic_statistics_accumulate():
    net = _net()
    net.transfer(0, 32, nbytes=100, ready=0.0)
    net.transfer(0, 33, nbytes=200, ready=0.0)
    assert net.messages_sent == 2
    assert net.bytes_sent == 300


def test_ready_time_respected():
    net = _net(bandwidth=1e9, latency=0.0)
    t = net.transfer(0, 32, nbytes=1000, ready=5.0)
    assert t.inject_start == 5.0


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        NetworkConfig(bandwidth=-1).validate()
    with pytest.raises(ValueError):
        NetworkConfig(latency=-1e-6).validate()
    with pytest.raises(ValueError):
        MachineConfig(ranks_per_node=0).validate()
    with pytest.raises(ValueError):
        MachineConfig(compute_speed=0).validate()


@pytest.mark.parametrize("config, field", [
    (NetworkConfig(o_send=-1e-6), "o_send"),
    (NetworkConfig(o_recv=-1e-6), "o_recv"),
    (NetworkConfig(fabric_dilation=-0.1), "fabric_dilation"),
    (NetworkConfig(dilation_base=0), "dilation_base"),
    (NetworkConfig(dilation_base=-64), "dilation_base"),
    (IOConfig(client_overhead=-1e-6), "client_overhead"),
    (IOConfig(shared_pointer_overhead=-1e-6), "shared_pointer_overhead"),
    (IOConfig(view_setup_overhead=-1e-6), "view_setup_overhead"),
    (IOConfig(collective_exchange_overhead=-1e-6),
     "collective_exchange_overhead"),
    (IOConfig(open_overhead=-1e-6), "open_overhead"),
])
def test_config_validation_names_ignored_or_late_failing_field(config, field):
    """Values that used to be silently clamped, or to fail only at the
    first transfer or I/O call, are rejected where the config is
    checked, and a run refuses them before it starts."""
    def prog(comm):
        yield from comm.barrier()

    with pytest.raises(ValueError, match=field):
        config.validate()
    part = "network" if isinstance(config, NetworkConfig) else "io"
    with pytest.raises(ValueError, match=field):
        run(prog, 2, machine=quiet_testbed().with_(**{part: config}))

