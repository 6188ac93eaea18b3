"""Stream-level recovery: checkpoints, acks, successor adoption, replay."""

import random
from dataclasses import replace

import pytest

from repro.api import Simulation, StreamGraph
from repro.bench.perf import result_digest
from repro.faults import Checkpoint, FaultPlan, RankCrash, Slowdown
from repro.faults.apps import (
    CGHaloRecoveryConfig,
    PcommRecoveryConfig,
    cg_halo_recovery,
    pcomm_recovery,
)
from repro.mpistream import attach, create_channel
from repro.simmpi import (
    DeadlockError,
    SizedPayload,
    beskow,
    quiet_testbed,
    run,
)

NPROCS = 12          # 3 helper ranks at alpha=0.25
ALPHA = 0.25
ELEMENTS = 40


def _build(stores, checkpoint):
    """Producers send (producer_rank, i); each consumer collects what it
    processed into ``stores[rank]`` so tests can audit delivery."""
    def produce_body(ctx):
        with ctx.producer("f") as out:
            for i in range(ELEMENTS):
                yield from ctx.compute(2e-4, label="produce")
                yield from out.send((ctx.comm.rank, i))
        return {"role": "producer"}

    def helper_body(ctx):
        mine = stores.setdefault(ctx.world.rank, [])

        def op(element):
            mine.append(element.data)

        profile = yield from ctx.consumer("f").operate(op)
        return {"role": "helper",
                "recoveries": profile.recoveries,
                "adopted": profile.adopted_producers,
                "checkpoints": profile.checkpoints}

    n_helper = max(1, round(ALPHA * NPROCS))
    return (
        StreamGraph("recovery-audit")
        .stage("compute", size=NPROCS - n_helper, body=produce_body)
        .stage("helper", size=n_helper, body=helper_body)
        .flow("f", src="compute", dst="helper",
              checkpoint=checkpoint)
    )


def _audit(stores, dead, n_producers, elements):
    """Problems with delivery after consumer ``dead`` crashed: each
    producer's elements must reach live consumers exactly once, as an
    unbroken run to its last element that starts no later than where
    the dead consumer stopped (it absorbed only a processed prefix)."""
    dead_store = stores.get(dead, [])
    seen = {}
    for rank, store in stores.items():
        if rank != dead:
            for producer, i in store:
                seen.setdefault(producer, []).append(i)
    problems = []
    if sorted(seen) != list(range(n_producers)):
        problems.append(f"only producers {sorted(seen)} reached live "
                        "consumers")
    for producer, idx in sorted(seen.items()):
        first = min(idx)
        if sorted(idx) != list(range(first, elements)):
            problems.append(f"producer {producer}: duplicate or gap")
            continue
        lost = [i for p, i in dead_store if p == producer]
        if lost and first > max(lost) + 1:
            problems.append(f"producer {producer}: elements "
                            f"{max(lost) + 1}..{first - 1} never delivered")
    return problems


def test_consumer_crash_recovers_with_no_gaps():
    """Every producer's elements reach *some* live consumer as an
    unbroken suffix from the last acked element: replay leaves no gap
    between what the crash interrupted and what flows afterwards."""
    stores = {}
    graph = _build(stores, Checkpoint(interval=8, state_nbytes=1 << 16))
    report = Simulation(
        NPROCS, faults=FaultPlan([RankCrash(0.004, NPROCS - 1)])
    ).run(graph)

    assert report.failed_ranks == {NPROCS - 1: 0.004}
    survivors = report.stage_values("helper")
    assert sum(v["recoveries"] for v in survivors) == 1
    adopted = sum(v["adopted"] for v in survivors)
    assert adopted > 0
    n_producers = NPROCS - max(1, round(ALPHA * NPROCS))
    assert not _audit(stores, NPROCS - 1, n_producers, ELEMENTS)


def test_fault_free_checkpointing_only_adds_overhead():
    stores = {}
    base = Simulation(NPROCS).run(_build(stores, None))
    stores_ck = {}
    ck = Simulation(NPROCS).run(
        _build(stores_ck, Checkpoint(interval=4, state_nbytes=1 << 18)))
    # identical delivery, strictly more elapsed time
    flat = sorted(x for s in stores.values() for x in s)
    flat_ck = sorted(x for s in stores_ck.values() for x in s)
    assert flat == flat_ck
    assert ck.elapsed > base.elapsed
    checkpoints = sum(v["checkpoints"] for v in ck.stage_values("helper"))
    assert checkpoints > 0


def test_shorter_intervals_cost_more():
    def elapsed(interval):
        cfg = CGHaloRecoveryConfig(nprocs=16, checkpoint_interval=interval)
        return run(cg_halo_recovery, 16, args=(cfg,),
                   machine=quiet_testbed()).elapsed

    none, short, longer = elapsed(0), elapsed(4), elapsed(256)
    assert short > longer > none


def test_producer_crash_terminates_its_flow():
    """Losing a producer must not wedge the consumer: the dead
    producer's termination accounting resolves at detection."""
    stores = {}
    graph = _build(stores, Checkpoint(interval=8))
    report = Simulation(
        NPROCS, faults=FaultPlan([RankCrash(0.004, 0)])  # a compute rank
    ).run(graph)
    assert report.failed_ranks == {0: 0.004}
    # every other producer's full stream arrived
    seen = {}
    for store in stores.values():
        for producer_rank, i in store:
            seen.setdefault(producer_rank, set()).add(i)
    for producer_rank, indexes in seen.items():
        if producer_rank != 0:
            assert indexes == set(range(ELEMENTS))


def test_failure_detected_during_a_restore_is_handled():
    """A producer death detected while the successor is still restoring
    the dead consumer's snapshot must not be marked seen unhandled: the
    successor discounts the dead producer and finishes, instead of
    waiting for its TERM until the run deadlocks."""
    def prog(comm):
        is_cons = comm.rank >= 4
        ch = yield from create_channel(comm, not is_cons, is_cons)
        got = []
        s = yield from attach(ch, lambda el: got.append(el.data),
                              checkpoint=Checkpoint(interval=4))
        if not is_cons:
            for i in range(20):
                yield from comm.compute(1e-3)
                yield from s.isend((comm.rank, i))
            yield from s.terminate()
            yield from comm.compute(20e-3)
            yield from ch.free()
            return None
        yield from s.operate()
        done = comm.time
        yield from ch.free()
        return done, got

    # consumer 4 dies; its successor 5 restores a 1 MiB snapshot (~0.9
    # ms), during which 5's own producer 2 dies
    r = run(prog, 6, machine=quiet_testbed(),
            faults=FaultPlan([RankCrash(5e-3, 4), RankCrash(5.4e-3, 2)]))
    done, got = r.values[5]
    assert done < 0.025      # before the survivors' late teardown
    assert sorted(i for rank, i in got if rank == 3) == list(range(20))


def test_recovery_demo_apps_run_and_recover():
    for worker, cfg_cls, crash_t in (
            (cg_halo_recovery, CGHaloRecoveryConfig, 0.02),
            (pcomm_recovery, PcommRecoveryConfig, 0.05)):
        cfg = cfg_cls(nprocs=16)
        plan = FaultPlan([RankCrash(crash_t, -1)])
        r = run(worker, 16, args=(cfg,), machine=quiet_testbed(),
                faults=plan)
        helpers = [v for v in r.values if v and v["role"] == "helper"]
        assert sum(v["recoveries"] for v in helpers) == 1
        assert sum(v["replayed_elements"] for v in r.values if v) > 0
        assert r.values[-1] is None


def test_helper_slowdown_stretches_helper_handling():
    """Helpers charge their handling through the compute path, so a
    straggler window on a helper rank slows the stream it serves."""
    cfg = CGHaloRecoveryConfig(nprocs=32, checkpoint_interval=8)
    free = run(cg_halo_recovery, 32, args=(cfg,), machine=quiet_testbed())
    slow = run(cg_halo_recovery, 32, args=(cfg,), machine=quiet_testbed(),
               faults=FaultPlan([Slowdown(0.0, free.elapsed, rank=31,
                                          factor=5.0)]))
    assert slow.elapsed > 1.2 * free.elapsed


def test_checkpoint_needs_static_routing():
    from repro.api.errors import GraphError

    graph = StreamGraph("bad")
    graph.stage("a", fraction=0.5, body=lambda ctx: iter(()))
    graph.stage("b", fraction=0.5)
    with pytest.raises(GraphError, match="static blocked routing"):
        graph.flow("f", src="a", dst="b", operator=lambda e: None,
                   router=lambda pi, seq, data: 0,
                   checkpoint=Checkpoint(interval=4))


def test_dead_producers_inflight_term_is_not_double_counted():
    """A producer that terminates and then crashes, with its TERM still
    delivered-but-unprocessed in the consumer's mailbox: the consumer
    must not both discount the death and count the TERM, or it exits a
    termination early and silently drops live producers' elements."""
    stores = {}

    def produce_body(ctx):
        with ctx.producer("f") as out:
            if ctx.comm.rank == 2:       # terminates early, then dies
                yield from out.send((2, 0))
                return {"role": "early"}
            for i in range(6):
                yield from ctx.compute(2e-3, label="produce")
                yield from out.send((ctx.comm.rank, i))
        return {"role": "producer"}

    def helper_body(ctx):
        mine = stores.setdefault(ctx.world.rank, [])

        def op(element):
            mine.append(element.data)
            yield from ctx.compute(5e-3, label="handle")

        yield from ctx.consumer("f").operate(op)
        return {"role": "helper"}

    graph = (
        StreamGraph("term-in-flight")
        .stage("compute", size=3, body=produce_body)
        .stage("helper", size=1, body=helper_body)
        .flow("f", src="compute", dst="helper")
    )
    # rank 2's TERM is sent by ~0.2 ms; the consumer is busy 5 ms per
    # element, so the TERM sits unprocessed when the crash lands
    report = Simulation(
        4, faults=FaultPlan([RankCrash(0.001, 2)])).run(graph)
    got = stores[3]
    assert (2, 0) in got
    # every element of the two LIVE producers was consumed
    for producer_rank in (0, 1):
        assert {i for r, i in got if r == producer_rank} == set(range(6))


def test_successor_skips_producer_that_termed_to_dead_consumer():
    """A producer that already terminated to the consumer that later
    dies must not be adopted by the successor — its TERM died with the
    consumer and will never be re-sent (the pre-fix behavior was a
    deadlock)."""
    stores = {}

    def produce_body(ctx):
        with ctx.producer("f") as out:
            if ctx.comm.rank == 1:       # assigned to consumer 1
                yield from out.send((1, 0))
                return {"role": "early"}
            for i in range(30):
                yield from ctx.compute(1e-3, label="produce")
                yield from out.send((ctx.comm.rank, i))
        return {"role": "producer"}

    def helper_body(ctx):
        mine = stores.setdefault(ctx.world.rank, [])

        def op(element):
            mine.append(element.data)

        yield from ctx.consumer("f").operate(op)
        return {"role": "helper"}

    graph = (
        StreamGraph("termed-to-dead")
        .stage("compute", size=2, body=produce_body)
        .stage("helper", size=2, body=helper_body)
        .flow("f", src="compute", dst="helper")
    )
    # p1 terminates to consumer rank 3 within ~0.3 ms; rank 3 dies at
    # 15 ms while consumer rank 2 still serves p0's stream
    report = Simulation(
        4, faults=FaultPlan([RankCrash(0.015, 3)])).run(graph)
    assert report.failed_ranks == {3: 0.015}
    assert {i for r, i in stores[2] if r == 0} == set(range(30))


def test_rank_inside_free_barrier_survives_member_crash():
    """A rank already blocked in the FreeChannel barrier when a member
    crashes must escape (revoke + local free), not abort the run with
    an uncaught ProcessFailedError."""

    def produce_body(ctx):
        with ctx.producer("f") as out:
            if ctx.comm.rank == 1:       # finishes early, enters free()
                yield from out.send((1, 0))
                return {"role": "early"}
            for i in range(20):
                yield from ctx.compute(1e-3, label="produce")
                yield from out.send((ctx.comm.rank, i))
        return {"role": "producer"}

    graph = (
        StreamGraph("free-barrier-escape")
        .stage("compute", size=2, body=produce_body)
        .stage("helper", size=1)
        .flow("f", src="compute", dst="helper", operator=lambda e: None)
    )
    # rank 1 is deep inside the teardown barrier when rank 0 dies
    report = Simulation(
        3, faults=FaultPlan([RankCrash(0.005, 0)])).run(graph)
    assert report.failed_ranks == {0: 0.005}
    assert report.values[1] is not None and report.values[2] is not None


def test_channel_free_degrades_locally_after_failure():
    """The epilogue's collective FreeChannel cannot barrier with a dead
    member; it degrades to a local free instead of deadlocking (the
    recovery-demo runs above would hang otherwise)."""
    cfg = CGHaloRecoveryConfig(nprocs=8, alpha=0.25,
                               elements_per_producer=30)
    r = run(cg_halo_recovery, 8, args=(cfg,), machine=quiet_testbed(),
            faults=FaultPlan([RankCrash(0.002, -1)]))
    # completion of every surviving rank IS the assertion
    assert sum(1 for v in r.values if v is None) == 1


# ----------------------------------------------------------------------
# rendezvous-size elements: headers in flight at failure detection
# ----------------------------------------------------------------------

FACE_PROCS = 16          # 14 producers funnel into 2 helpers
FACE_HELPERS = 2
FACE_ELEMENTS = 32
FACE_PRODUCE_S = 1e-5
FACE_BYTES = 32 << 10    # above the eager threshold


def _face_funnel(seed, stores):
    """A checkpointed face funnel whose faces travel by rendezvous."""
    def produce_body(ctx):
        rank = ctx.comm.rank
        jitter = random.Random(seed * 65537 + rank)
        with ctx.producer("faces") as out:
            for i in range(FACE_ELEMENTS):
                yield from ctx.compute(
                    FACE_PRODUCE_S * (1.0 + 0.3 * jitter.random()),
                    label="produce")
                yield from out.send(SizedPayload((rank, i), FACE_BYTES))
        return {"role": "producer"}

    def helper_body(ctx):
        mine = stores.setdefault(ctx.world.rank, [])

        def op(element):
            mine.append(element.data.data)
            yield from ctx.compute(FACE_BYTES * 2e-10, label="aggregate")

        yield from ctx.consumer("faces").operate(op)
        return {"role": "helper"}

    return (
        StreamGraph("face-funnel")
        .stage("compute", size=FACE_PROCS - FACE_HELPERS, body=produce_body)
        .stage("helper", size=FACE_HELPERS, body=helper_body)
        .flow("faces", src="compute", dst="helper",
              checkpoint=Checkpoint(interval=8, state_nbytes=1 << 16))
    )


def test_rendezvous_faces_survive_any_helper_crash():
    """Seeded property: whichever helper crashes, whenever, a funnel of
    rendezvous-size faces neither deadlocks (a header still in flight
    when the failure is detected poisons its sender on landing) nor
    loses, duplicates or skips an element."""
    problems = []
    for seed in range(48):
        rng = random.Random(seed)
        dead = FACE_PROCS - 1 - rng.randrange(FACE_HELPERS)
        when = (FACE_ELEMENTS * FACE_PRODUCE_S * 1.15
                * rng.uniform(0.25, 0.55))
        machine = beskow()
        machine = machine.with_(noise=replace(machine.noise, seed=seed))
        stores = {}
        try:
            Simulation(FACE_PROCS, machine=machine,
                       faults=FaultPlan([RankCrash(when, dead)])
                       ).run(_face_funnel(seed, stores))
        except DeadlockError:
            problems.append(f"seed {seed}: deadlock")
            continue
        problems += [f"seed {seed}: {p}" for p in _audit(
            stores, dead, FACE_PROCS - FACE_HELPERS, FACE_ELEMENTS)]
    assert not problems, "\n".join(problems)


def _cg_checkpointed(machine, **kw):
    cfg = CGHaloRecoveryConfig(nprocs=32, checkpoint_interval=8)
    return run(cg_halo_recovery, 32, args=(cfg,), machine=machine, **kw)


def test_checkpointed_stream_traces_producer_waits():
    """A checkpointed stream records its producers' window and flush
    waits exactly like a plain stream does."""
    r = _cg_checkpointed(beskow(), trace=True)
    assert r.tracer.by_label("stream-window")
    assert r.tracer.by_label("stream-flush")


def _quiet_beskow():
    """Beskow with its noise model off: a pinned digest must not depend
    on NumPy's non-uniform samplers, which NEP 19 lets change between
    releases (the committed perf goldens avoid them the same way)."""
    m = beskow()
    return m.with_(noise=replace(m.noise, persistent_skew=0.0,
                                 quantum_fraction=0.0))


def _pcomm_crash_traced():
    cfg = PcommRecoveryConfig(nprocs=32, checkpoint_interval=32)
    free = run(pcomm_recovery, 32, args=(cfg,), machine=_quiet_beskow())
    return run(pcomm_recovery, 32, args=(cfg,), machine=_quiet_beskow(),
               faults=FaultPlan([RankCrash(0.4 * free.elapsed, -1)]),
               trace=True)


def _cg_straggler():
    free = _cg_checkpointed(quiet_testbed())
    return _cg_checkpointed(
        quiet_testbed(),
        faults=FaultPlan([Slowdown(0.0, 0.5 * free.elapsed, 3, 3.0)]))


@pytest.mark.parametrize("simulate, digest", [
    # checkpointing without a fault controller
    (lambda: _cg_checkpointed(_quiet_beskow(), trace=True),
     "dfbd1a3fb777b4abf5689fa1ac1f8dda563282ad6762fded302c86dcf250482f"),
    # a straggler window on a noise-free machine with no tracer: the
    # producers' injection charge must still be stretched
    (_cg_straggler,
     "46a1c4adcb7edc73cbefdf66f857edfeb3b74a942b8ad555e86c6ca868505c2d"),
    # a helper crash with checkpoint replay, traced
    (_pcomm_crash_traced,
     "289a38917e5eb13546db2c16827ca5417a70775fadf4246912a07eabec6650e2"),
], ids=["cg-checkpoint-traced", "cg-straggler", "pcomm-crash-traced"])
def test_stream_path_digests_are_pinned(simulate, digest):
    """Virtual-time digests of stream paths no committed golden covers."""
    assert result_digest(simulate()) == digest
