"""Context-manager handle semantics: auto-terminate, auto-free, role
checks."""

import pytest

from repro.api import GraphError, Simulation, StreamGraph
from repro.mpistream import Collector
from repro.simmpi import quiet_testbed


def test_auto_terminate_and_auto_free():
    """A producer body that never calls terminate/free still delivers
    everything, terminates every stream and frees every channel."""

    def produce(ctx):
        with ctx.producer("f") as out:
            for i in range(5):
                yield from out.send((ctx.comm.rank, i))
        # no terminate(), no free(): the runtime epilogue must do both
        return ctx.channel("f")

    graph = (StreamGraph()
             .stage("src", size=3, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    report = Simulation(4).run(graph)

    sink = report.stage_values("dst")[0]
    assert sorted(sink.items) == sorted(
        (r, i) for r in range(3) for i in range(5))
    # channels were freed on every rank (producers returned theirs)
    for ch in report.stage_values("src"):
        assert ch.freed
    # every producer's TERM was absorbed by the consumer
    prof = report.flow_profiles("f")[3]
    assert prof.terminates_seen == 3
    assert report.flow_elements("f") == 15


def test_stage_outside_a_flow_exchanges_nothing_for_it():
    """Each flow's channel is built and freed among its own two stages:
    stage ``c`` (ranks 2-3, between the flow's two stages) touches no
    flow, so it neither waits on ``a -> b``'s set-up and teardown
    collectives nor holds them up."""

    def produce(ctx):
        with ctx.producer("f") as out:
            for i in range(4):
                yield from out.send((ctx.comm.rank, i))

    def idle(ctx):
        yield from ctx.compute(2e-3)

    graph = (StreamGraph()
             .stage("a", size=2, body=produce)
             .stage("c", size=2, body=idle)
             .stage("b", size=2)
             .flow("f", "a", "b", operator=Collector))
    report = Simulation(6, machine=quiet_testbed()).run(graph)

    finish = report.sim.finish_times
    assert finish[2:4] == [0.002, 0.002]
    # a and b never wait for c's compute
    assert max(finish[:2] + finish[4:]) < 1e-4
    assert report.flow_elements("f") == 8
    # 8 elements + 2 TERMs, plus the allgather, dup barrier and free
    # barrier over f's 4 members; nothing from c
    assert report.messages == 28


def test_send_after_close_rejected():
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(1)
        yield from out.send(2)   # closed: must raise

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError, match="closed producer"):
        Simulation(2).run(graph)


def test_explicit_terminate_is_idempotent_with_epilogue():
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(41)
            yield from out.terminate()     # explicit, early
        return "done"

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    report = Simulation(2).run(graph)
    assert report.stage_values("src") == ["done"]
    assert report.stage_values("dst")[0].items == [41]


def test_send_after_terminate_rejected():
    def produce(ctx):
        out = ctx.producer("f")
        yield from out.terminate()
        yield from out.send(1)

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError):
        Simulation(2).run(graph)


def test_role_mismatch_rejected():
    def produce(ctx):
        ctx.consumer("f")      # wrong side
        yield from ctx.comm.barrier()

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError, match="producer"):
        Simulation(2).run(graph)


def test_unknown_flow_in_context_rejected():
    def produce(ctx):
        ctx.producer("nope")
        yield from ctx.comm.barrier()

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError, match="does not touch"):
        Simulation(2).run(graph)


def test_operate_after_consumer_close_rejected():
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(1)

    def consume(ctx):
        with ctx.consumer("f") as sink:
            pass
        yield from sink.operate()   # closed: must raise

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError, match="closed consumer"):
        Simulation(2).run(graph)


def test_consumer_context_manager_scopes_operate():
    def produce(ctx):
        with ctx.producer("f") as out:
            for i in range(3):
                yield from out.send(i)

    def consume(ctx):
        with ctx.consumer("f") as sink:
            yield from sink.operate()
            return sink.result()

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst", operator=Collector))
    report = Simulation(2).run(graph)
    assert report.stage_values("dst")[0].items == [0, 1, 2]


def test_consumer_operator_override():
    """A body-level closure operator replaces the flow-level one."""
    def produce(ctx):
        with ctx.producer("f") as out:
            for i in range(4):
                yield from out.send(i)

    def consume(ctx):
        got = []

        def op(element):
            got.append(element.data * 10)

        yield from ctx.consume("f", operator=op)
        return got

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst"))
    report = Simulation(2).run(graph)
    assert report.stage_values("dst")[0] == [0, 10, 20, 30]


def test_consume_without_any_operator_rejected():
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(1)

    def consume(ctx):
        yield from ctx.consume("f")   # flow declares no operator

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst"))
    with pytest.raises(GraphError, match="no operator"):
        Simulation(2).run(graph)


def test_stateful_operator_instances_are_per_rank():
    """A class operator yields one fresh instance per consumer rank."""
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(ctx.comm.rank)

    graph = (StreamGraph()
             .stage("src", size=4, body=produce)
             .stage("dst", size=2)
             .flow("f", "src", "dst", operator=Collector))
    report = Simulation(6).run(graph)
    a, b = report.stage_values("dst")
    assert a is not b
    # blocked routing: producers 0,1 -> consumer 0; 2,3 -> consumer 1
    assert sorted(a.items) == [0, 1]
    assert sorted(b.items) == [2, 3]


def test_stage_context_exposes_group_and_world():
    seen = {}

    def produce(ctx):
        seen.setdefault("alpha", ctx.alpha)
        yield from ctx.compute(0.001, label="calc")
        with ctx.producer("f") as out:
            yield from out.send((ctx.world.rank, ctx.comm.rank))
        return (ctx.world.rank, ctx.comm.rank, ctx.stage)

    graph = (StreamGraph()
             .stage("src", size=2, body=produce)
             .stage("dst", size=2)
             .flow("f", "src", "dst", operator=Collector))
    report = Simulation(4).run(graph)
    assert report.stage_values("src") == [(0, 0, "src"), (1, 1, "src")]
    assert seen["alpha"] == pytest.approx(0.5)


def test_consumer_pending_interleaves_with_own_work():
    """pending() drains only what is queued, so a consumer can overlap
    stream service with its own compute between polls."""
    def produce(ctx):
        with ctx.producer("f") as out:
            for i in range(6):
                yield from out.send(i)

    def consume(ctx):
        got = []
        polls = 0

        def op(element):
            got.append(element.data)

        sink = ctx.consumer("f")
        while sink.active_producers:
            n = yield from sink.pending(op)
            assert n >= 0
            polls += 1
            yield from ctx.compute(0.0005, label="own-work")
        yield from sink.operate()   # absorb anything after the last poll
        return {"got": sorted(got), "polls": polls}

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst"))
    out = Simulation(2).run(graph).stage_values("dst")[0]
    assert out["got"] == list(range(6))
    assert out["polls"] >= 1


def test_pending_needs_an_operator():
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(1)

    def consume(ctx):
        yield from ctx.consumer("f").pending()   # no operator anywhere

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst"))
    with pytest.raises(GraphError, match="no operator"):
        Simulation(2).run(graph)


def test_pending_after_close_rejected():
    def produce(ctx):
        with ctx.producer("f") as out:
            yield from out.send(1)

    def consume(ctx):
        with ctx.consumer("f") as sink:
            yield from sink.operate()
        yield from sink.pending()

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError, match="closed consumer"):
        Simulation(2).run(graph)


def test_handle_profiles_expose_stream_statistics():
    def produce(ctx):
        out = ctx.producer("f")
        with out:
            for i in range(5):
                yield from out.send(i)
        return out.profile

    def consume(ctx):
        sink = ctx.consumer("f")
        yield from sink.operate()
        return (sink.profile, sink.result())

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1, body=consume)
             .flow("f", "src", "dst", operator=Collector))
    report = Simulation(2).run(graph)
    src_prof = report.stage_values("src")[0]
    dst_prof, collected = report.stage_values("dst")[0]
    assert src_prof.elements_sent == 5
    assert dst_prof.elements_received == 5
    assert collected.items == [0, 1, 2, 3, 4]


def test_reentering_closed_producer_context_rejected():
    def produce(ctx):
        out = ctx.producer("f")
        with out:
            yield from out.send(1)
        with out:       # second entry: the handle is spent
            pass

    graph = (StreamGraph()
             .stage("src", size=1, body=produce)
             .stage("dst", size=1)
             .flow("f", "src", "dst", operator=Collector))
    with pytest.raises(GraphError, match="already closed"):
        Simulation(2).run(graph)


def test_operator_result_prefers_summary():
    from repro.api.handles import operator_result
    from repro.mpistream import RunningStats

    stats = RunningStats()
    assert operator_result(stats) == stats.summary()
    collector = Collector()
    assert operator_result(collector) is collector


def test_pipeline_of_three_stages():
    """map -> transform -> sink, with a mid-stage that both consumes
    and produces (the mapreduce shape)."""
    def produce(ctx):
        with ctx.producer("raw") as out:
            for i in range(6):
                yield from out.send(i)

    def transform(ctx):
        with ctx.producer("cooked") as out:
            def double(element):
                yield from out.send(element.data * 2)

            yield from ctx.consume("raw", operator=double)
        return "transformed"

    graph = (StreamGraph()
             .stage("src", size=2, body=produce)
             .stage("mid", size=1, body=transform)
             .stage("dst", size=1)
             .flow("raw", "src", "mid")
             .flow("cooked", "mid", "dst", operator=Collector))
    report = Simulation(4).run(graph)
    assert sorted(report.stage_values("dst")[0].items) == sorted(
        i * 2 for i in range(6) for _ in range(2))
