"""Simulation entry point, Report merging, and old-vs-new equivalence."""

import pytest

from repro.api import GraphError, Report, Simulation, StreamGraph
from repro.mpistream import RunningStats, attach, create_channel
from repro.simmpi import NoiseConfig, beskow, quiet_testbed, run

NPROCS = 16
ROUNDS = 12


# ----------------------------------------------------------------------
# the seed quickstart, hand-wired (the old API), verbatim
# ----------------------------------------------------------------------

def _quickstart_program(comm):
    is_consumer = comm.rank == comm.size - 1
    channel = yield from create_channel(
        comm, is_producer=not is_consumer, is_consumer=is_consumer)
    stats = RunningStats()
    stream = yield from attach(channel, stats)
    if not is_consumer:
        for rnd in range(ROUNDS):
            workload = 0.01 * (1 + (comm.rank + rnd) % 4)
            yield from comm.compute(workload, label="calculation")
            yield from stream.isend(workload)
        yield from stream.terminate()
    else:
        yield from stream.operate()
    yield from channel.free()
    return stats.summary() if is_consumer else None


def _quickstart_graph():
    def compute_body(ctx):
        with ctx.producer("samples") as out:
            for rnd in range(ROUNDS):
                workload = 0.01 * (1 + (ctx.comm.rank + rnd) % 4)
                yield from ctx.compute(workload, label="calculation")
                yield from out.send(workload)

    return (StreamGraph("quickstart")
            .stage("compute", fraction=15 / 16, body=compute_body)
            .stage("analyze", fraction=1 / 16)
            .flow("samples", src="compute", dst="analyze",
                  operator=RunningStats))


def test_quickstart_old_vs_new_api_equivalence():
    """The declarative quickstart reproduces the hand-wired one
    *exactly*: same statistics, same virtual elapsed time, same
    message count."""
    old = run(_quickstart_program, NPROCS, machine=beskow())
    new = Simulation(NPROCS, machine="beskow").run(_quickstart_graph())

    assert new.stage_values("analyze")[0] == old.values[-1]
    assert new.elapsed == pytest.approx(old.elapsed, rel=1e-12)
    assert new.messages == old.messages
    assert new.bytes == old.bytes
    expected = (NPROCS - 1) * ROUNDS
    assert new.flow_elements("samples") == expected


def test_plain_program_run_matches_low_level_run():
    def program(comm):
        yield from comm.barrier()
        yield from comm.compute(0.01 * (comm.rank + 1))
        return comm.rank * 2

    old = run(program, 4, machine=quiet_testbed())
    new = Simulation(4, machine="quiet").run(program)
    assert isinstance(new, Report)
    assert new.values == old.values
    assert new.elapsed == old.elapsed
    assert new.nprocs == 4


def test_program_args_forwarded():
    def program(comm, base, scale):
        yield from comm.barrier()
        return base + comm.rank * scale

    report = Simulation(3).run(program, args=(100, 10))
    assert report.values == [100, 110, 120]


def test_rank_args_forwarded():
    def program(comm, tag):
        yield from comm.barrier()
        return tag

    report = Simulation(3).run(program, rank_args=lambda r: (f"r{r}",))
    assert report.values == ["r0", "r1", "r2"]


def test_graph_rejects_program_args():
    with pytest.raises(GraphError, match="rank programs"):
        Simulation(2).run(_quickstart_graph(), args=(1,))


def test_unknown_machine_preset_rejected():
    with pytest.raises(GraphError, match="unknown machine preset"):
        Simulation(2, machine="cray-unobtainium")


def test_invalid_target_rejected():
    with pytest.raises(GraphError, match="cannot run"):
        Simulation(2).run(42)


def test_nprocs_validated():
    with pytest.raises(GraphError):
        Simulation(0)


def test_compiled_graph_size_mismatch_rejected():
    compiled = _quickstart_graph().compile(NPROCS)
    with pytest.raises(GraphError, match="compiled for"):
        Simulation(NPROCS * 2).run(compiled)
    with pytest.raises(GraphError, match="compiled for"):
        Simulation(NPROCS * 2).explain(compiled)


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------

def _noop_body(ctx):
    yield from ()   # explain() never runs stage bodies


def test_explain_lists_groups_flows_and_the_sizing_line():
    graph = (StreamGraph("sized")
             .stage("compute", fraction=15 / 16, body=_noop_body,
                    work=0.9)
             .stage("analyze", fraction=1 / 16, work=0.1)
             .flow("samples", src="compute", dst="analyze",
                   operator=RunningStats))
    lines = Simulation(NPROCS, machine="beskow").explain(graph).splitlines()
    assert lines[0] == "'sized' on 16 procs, machine 'beskow-xc40'"
    assert lines[1] == "  group compute: ranks 0..14, size 15"
    assert lines[2] == "  group analyze: ranks 15..15, size 1"
    assert lines[3] == ("  flow samples: compute -> analyze, channel over "
                        "16 ranks, fan-in 15 per consumer, blocked routing, "
                        "window 64")
    assert lines[4].startswith("  sizing: alpha* = ")
    assert lines[4].endswith("-> 2/16 helper ranks")


def test_explain_renders_uneven_fan_in_routers_and_checkpoints():
    from repro.faults import Checkpoint
    graph = (StreamGraph("flows")
             .stage("src", size=5, body=_noop_body)
             .stage("dst", size=3)
             .stage("side", size=2, body=_noop_body)
             .flow("blocked", "src", "dst", operator=RunningStats,
                   window=4, checkpoint=Checkpoint(interval=8))
             .flow("routed", "src", "dst", operator=RunningStats,
                   router=lambda pi, seq, data: seq)
             .flow("aside", "side", "src", operator=RunningStats))
    text = Simulation(10).explain(graph)
    assert ("  flow blocked: src -> dst, channel over 8 ranks, fan-in 1..2 "
            "per consumer, blocked routing, window 4, checkpoint every 8 "
            "elements") in text
    assert ("  flow routed: src -> dst, channel over 8 ranks, per-element "
            "routing, window 64") in text
    # dst's ranks sit between side's and src's and are no member
    assert ("  flow aside: side -> src, channel over 7 ranks, fan-in 0..1 "
            "per consumer, blocked routing, window 64") in text
    assert ("  sizing: skipped: stage(s) ['src', 'dst', 'side'] pin "
            "explicit sizes") in text


# ----------------------------------------------------------------------
# noise and machine knobs
# ----------------------------------------------------------------------

def test_noise_false_silences_machine():
    sim = Simulation(4, machine="beskow", noise=False)
    assert sim.machine.noise.persistent_skew == 0.0
    assert sim.machine.noise.quantum_fraction == 0.0
    # the base preset is noisy
    assert beskow().noise.persistent_skew > 0.0


def test_noise_seed_override():
    sim = Simulation(4, machine="beskow", noise=1234)
    assert sim.machine.noise.seed == 1234
    assert sim.machine.noise.persistent_skew == \
        beskow().noise.persistent_skew


def test_noise_config_override():
    custom = NoiseConfig(persistent_skew=0.1, quantum=0.02,
                         quantum_fraction=0.05, seed=7)
    sim = Simulation(4, machine="beskow", noise=custom)
    assert sim.machine.noise == custom


def test_machine_config_passthrough():
    cfg = quiet_testbed()
    sim = Simulation(4, machine=cfg)
    assert sim.machine is cfg


# ----------------------------------------------------------------------
# topology / placement threading
# ----------------------------------------------------------------------

def test_topology_override_by_name_and_config():
    from repro.simmpi import TopologyConfig
    sim = Simulation(4, machine="quiet", topology="fat_tree")
    assert sim.machine.topology.kind == "fat_tree"
    custom = TopologyConfig(kind="dragonfly", nodes_per_group=4)
    sim2 = Simulation(4, machine="quiet", topology=custom)
    assert sim2.machine.topology is custom
    with pytest.raises(GraphError, match="unknown topology kind"):
        Simulation(4, topology="hypercube")
    # object specs are validated eagerly too, at the constructor
    with pytest.raises(GraphError, match="radix"):
        Simulation(4, topology=TopologyConfig(kind="fat_tree", radix=1))


def test_placement_override_by_name_and_policy():
    from repro.simmpi import BlockPlacement, RoundRobinPlacement
    sim = Simulation(4, placement="round_robin")
    assert isinstance(sim.machine.placement, RoundRobinPlacement)
    policy = BlockPlacement()
    sim2 = Simulation(4, placement=policy)
    assert sim2.machine.placement is policy
    with pytest.raises(GraphError, match="unknown placement"):
        Simulation(4, placement="scatter-gather")


def test_plan_placement_built_from_graph():
    """'colocated'/'partitioned' resolve against the compiled plan's
    group blocks and change the simulated timing on a real fabric."""
    reports = {}
    for mode in ("colocated", "partitioned"):
        sim = Simulation(NPROCS, machine="quiet",
                         topology="fat_tree", placement=mode)
        reports[mode] = sim.run(_quickstart_graph())
    for report in reports.values():
        assert report.flow_elements("samples") == (NPROCS - 1) * ROUNDS
    # the analyze stage either shares its producers' nodes or sits on
    # a disjoint one; under a fat-tree the stream cost must differ
    assert reports["partitioned"].elapsed != reports["colocated"].elapsed


def test_plan_placement_rejected_for_rank_programs():
    sim = Simulation(4, placement="partitioned")

    def prog(comm):
        yield from comm.barrier()

    with pytest.raises(GraphError, match="StreamGraph"):
        sim.run(prog)


# ----------------------------------------------------------------------
# Report: stages, flows, trace analysis
# ----------------------------------------------------------------------

def _traced_report():
    def produce(ctx):
        with ctx.producer("f") as out:
            for _ in range(8):
                yield from ctx.compute(0.02, label="calc")
                yield from out.send(1.0)

    graph = (StreamGraph()
             .stage("src", size=3, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=RunningStats))
    return Simulation(4, trace=True).run(graph)


def test_report_merges_profiles_and_trace():
    report = _traced_report()
    # stream profiles, both sides
    profiles = report.flow_profiles("f")
    assert set(profiles) == {0, 1, 2, 3}
    assert profiles[0].elements_sent == 8
    assert profiles[3].elements_received == 24
    assert report.flow_elements("f") == 24
    # stage queries
    assert report.stage_ranks("src") == [0, 1, 2]
    assert report.stage_of(3) == "dst"
    assert report.stage_values("dst")[0]["count"] == 24
    # trace analysis is wired through
    assert 0.0 <= report.idle(3) <= 1.0
    busy = report.busy_imbalance("compute", label="calc")
    assert busy["ranks"] == 3
    # summary has the headline numbers
    s = report.summary()
    assert s["stages"] == {"src": 3, "dst": 1}
    assert s["flows"] == {"f": 24}
    assert s["elapsed"] == report.elapsed


def test_report_overlap_requires_trace():
    def program(comm):
        yield from comm.compute(0.01)

    report = Simulation(2).run(program)
    with pytest.raises(GraphError, match="trace=True"):
        report.overlap("a", "b")


def test_report_stage_queries_require_graph():
    def program(comm):
        yield from comm.compute(0.01)
        return comm.rank

    report = Simulation(2).run(program)
    assert report.values == [0, 1]
    with pytest.raises(GraphError, match="StreamGraph"):
        report.stage_values("src")


def test_report_unknown_names_rejected():
    report = _traced_report()
    with pytest.raises(GraphError, match="unknown stage"):
        report.stage_ranks("nope")
    with pytest.raises(GraphError, match="unknown flow"):
        report.flow_profiles("nope")
