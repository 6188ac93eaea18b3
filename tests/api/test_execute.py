"""Integration tests for ``CompiledGraph.execute``: one rank's stage,
from communicator and channels to the terminate/free epilogue."""

import pytest

from repro.api import GraphError, StreamGraph
from repro.mpistream import Collector
from repro.simmpi import quiet_testbed, run


def _two_stage_graph(compute_body, analyze_body):
    return (StreamGraph()
            .stage("compute", fraction=0.75, body=compute_body)
            .stage("analyze", fraction=0.25, body=analyze_body)
            .flow("workload", src="compute", dst="analyze"))


def test_execute_wires_groups_and_channels():
    def compute_body(ctx):
        assert ctx.channel("workload").is_producer
        yield from ctx.producer("workload").send(ctx.world.rank)
        return ("compute", ctx.comm.size)

    def analyze_body(ctx):
        assert ctx.channel("workload").is_consumer
        sink = Collector()
        yield from ctx.consume("workload", sink)
        return ("analyze", sorted(sink.items))

    compiled = _two_stage_graph(compute_body, analyze_body).compile(8)
    r = run(compiled.execute, 8)
    results = [rec.result for rec in r.values]
    computes = [v for v in results if v[0] == "compute"]
    analyzes = [v for v in results if v[0] == "analyze"]
    assert computes == [("compute", 6)] * 6 and len(analyzes) == 2
    received = sorted(x for _, items in analyzes for x in items)
    assert received == list(range(6))  # all compute world-ranks arrived


def test_stage_context_alpha():
    def body(ctx):
        yield from ctx.comm.barrier()
        return ctx.alpha

    compiled = _two_stage_graph(body, body).compile(8)
    r = run(compiled.execute, 8)
    assert r.values[0].result == pytest.approx(6 / 8)
    assert r.values[7].result == pytest.approx(2 / 8)


def test_size_mismatch_rejected():
    def body(ctx):
        yield from ctx.comm.barrier()

    compiled = _two_stage_graph(body, body).compile(8)
    with pytest.raises(GraphError, match="plan sized for 8 processes"):
        run(compiled.execute, 4)


def test_channel_accessor_rejects_unrelated_flow():
    def body(ctx):
        yield from ctx.comm.barrier()
        ctx.channel("nonexistent")

    compiled = _two_stage_graph(body, body).compile(8)
    with pytest.raises(GraphError, match="does not touch stage"):
        run(compiled.execute, 8)


def test_decoupled_beats_conventional_on_imbalanced_two_op_app():
    """End-to-end sanity: the Fig. 3 mechanism, measured.

    Op0 = imbalanced compute; Op1 = analysis of each result.  The
    conventional run executes both on all ranks with a stage barrier;
    the decoupled run streams results to one analysis rank.
    """
    p = 8
    work = 1.0
    analysis_cost = 0.05

    def conventional(comm):
        # every rank: compute then analyze its own chunk, barrier-staged
        yield from comm.compute(work + 0.1 * comm.rank, label="calc")
        yield from comm.barrier()
        yield from comm.compute(analysis_cost * p, label="analyze")
        yield from comm.barrier()
        return comm.time

    def compute_body(ctx):
        s = ctx.producer("results")
        # same total work spread over one fewer rank
        scaled = (work + 0.1 * ctx.world.rank) * p / (p - 1)
        for chunk in range(4):
            yield from ctx.world.compute(scaled / 4, label="calc")
            yield from s.send(chunk)
        yield from s.terminate()
        return ctx.world.time

    def analyze_body(ctx):
        def analyze(el):
            yield from ctx.world.compute(analysis_cost, label="analyze")

        yield from ctx.consume("results", analyze)
        return ctx.world.time

    compiled = (StreamGraph()
                .stage("compute", size=p - 1, body=compute_body)
                .stage("analyze", size=1, body=analyze_body)
                .flow("results", src="compute", dst="analyze")
                ).compile(p)

    t_conv = max(run(conventional, p, machine=quiet_testbed()).values)
    t_dec = max(rec.result for rec in
                run(compiled.execute, p, machine=quiet_testbed()).values)
    assert t_dec < t_conv
