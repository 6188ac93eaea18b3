"""Randomized bit-identity property: graph runtime == seed oracle.

Generates graphs over the knobs that select different hot-loop paths —
stage counts and split, eager vs rendezvous element sizes, windows,
routers, machine presets with and without noise — and asserts the
graph runtime's execution digests exactly match the seed-implementation
oracle (SLOW_PATH injection).
"""

import random

import pytest

from repro.api import StreamGraph
from repro.api.graph import CompiledGraph
from repro.bench.perf import result_digest
from repro.core.model import auto_size_plan
from repro.mpistream import Collector, ReduceByKey, RunningStats
from repro.simmpi import beskow, ideal_network_testbed, quiet_testbed, run
from repro.simmpi.oracle import SLOW_PATH

#: element sizes straddling beskow's 8192B eager threshold
SMALL, LARGE = 64, 9000


class Items(Collector):
    """Collector whose reported value is plain data (digest-stable)."""

    __slots__ = ()

    def summary(self):
        return list(self.items)


class KeyTable(ReduceByKey):
    """ReduceByKey whose reported value is plain data (digest-stable)."""

    __slots__ = ()

    def summary(self):
        return dict(sorted(self.table.items()))

MACHINES = {
    "quiet": quiet_testbed,
    "ideal": ideal_network_testbed,
    "beskow-noisy": beskow,           # persistent skew + quanta, seeded
}


def _random_graph(rng):
    nprocs = rng.choice([6, 8, 12])
    nconsumers = rng.choice([1, 2])
    two_producers = rng.random() < 0.4
    rounds = rng.randint(3, 9)
    window = rng.choice([1, 2, 4, 8])
    payload = "x" * (LARGE if rng.random() < 0.5 else SMALL)
    use_router = rng.random() < 0.25
    operator = rng.choice([RunningStats, Items, KeyTable])

    def body(ctx):
        names = [f.name for f in ctx_graph.flows_out(ctx.stage)]
        for name in names:
            out = ctx.producer(name)
            for rnd in range(rounds):
                yield from ctx.compute(0.002 * (1 + (ctx.comm.rank + rnd) % 3))
                if operator is KeyTable:
                    yield from out.send((f"k{rnd % 4}", len(payload)))
                elif operator is RunningStats:
                    yield from out.send(float(len(payload) + rnd))
                else:
                    yield from out.send(payload)

    g = StreamGraph(f"random-{rng.random():.6f}")
    producer_ranks = nprocs - nconsumers
    if two_producers and producer_ranks >= 2:
        a = rng.randint(1, producer_ranks - 1)
        g.stage("p0", size=a, body=body)
        g.stage("p1", size=producer_ranks - a, body=body)
        producers = ["p0", "p1"]
    else:
        g.stage("p0", size=producer_ranks, body=body)
        producers = ["p0"]
    g.stage("c", size=nconsumers)
    router = ((lambda pi, seq, data: (pi + seq) % 97)
              if use_router else None)
    for i, src in enumerate(producers):
        g.flow(f"f{i}", src, "c", operator=operator, window=window,
               router=router)
    ctx_graph = g
    return g, nprocs


def _digest(graph, nprocs, machine, compiled=None, **kwargs):
    compiled = compiled or graph.compile(nprocs)

    def main(comm):
        record = yield from compiled.execute(comm)
        return record

    sim = run(main, nprocs, machine=machine, **kwargs)
    return result_digest(sim)


@pytest.mark.parametrize("seed", range(8))
def test_interpreted_matches_oracle(seed):
    rng = random.Random(1000 + seed)
    graph, nprocs = _random_graph(rng)
    machine = MACHINES[rng.choice(sorted(MACHINES))]()
    interpreted = _digest(graph, nprocs, machine)
    oracle = _digest(graph, nprocs, machine, **SLOW_PATH)
    assert interpreted == oracle, \
        f"seed {seed}: graph {graph.name} diverged on {machine.name}"


def test_auto_sized_plan_changes_results_by_design():
    """Eq. 2 sizing rewrites group sizes, so running the resized plan
    legitimately moves the digest."""
    def body(ctx):
        with ctx.producer("f") as out:
            for rnd in range(6):
                yield from ctx.compute(0.01)
                yield from out.send(float(rnd))

    g = (StreamGraph("sized")
         .stage("src", fraction=0.75, body=body, work=0.9)
         .stage("dst", fraction=0.25, work=0.1)
         .flow("f", "src", "dst", operator=RunningStats))
    declared = g.compile(8)
    resized, _notes = auto_size_plan(g, declared.plan,
                                     machine=quiet_testbed())
    assert resized is not declared.plan
    base = _digest(g, 8, quiet_testbed(), compiled=declared)
    sized = _digest(g, 8, quiet_testbed(),
                    compiled=CompiledGraph(g, resized))
    assert sized != base
