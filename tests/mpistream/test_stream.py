"""Integration tests for the MPIStream library."""

import pytest

from repro.mpistream import (
    Aggregator,
    Collector,
    ReduceByKey,
    RunningStats,
    attach,
    create_channel,
)
from repro.faults import Checkpoint, FaultPlan, RankCrash
from repro.mpistream.channel import blocked_fan_in, blocked_peers
from repro.mpistream.element import TERMINATE, element_nbytes
from repro.simmpi import beskow, quiet_testbed, run
from repro.simmpi.datatypes import payload_nbytes
from repro.simmpi.errors import CommunicatorError, RequestError


def _roles(comm, nconsumers=1):
    """Last `nconsumers` ranks consume, the rest produce."""
    is_consumer = comm.rank >= comm.size - nconsumers
    return (not is_consumer, is_consumer)


def test_basic_produce_consume():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        sink = Collector()
        s = yield from attach(ch, sink)
        if is_prod:
            for i in range(5):
                yield from s.isend((comm.rank, i))
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return sorted(sink.items) if is_cons else None

    r = run(prog, 4)
    got = r.values[3]
    assert got == sorted((rank, i) for rank in range(3) for i in range(5))


def test_elements_fifo_per_producer():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        sink = Collector()
        s = yield from attach(ch, sink)
        if is_prod:
            for i in range(20):
                yield from s.isend(i)
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return sink.items if is_cons else None

    r = run(prog, 2)
    assert r.values[1] == list(range(20))


def test_fcfs_absorbs_imbalance():
    """A slow producer must not block consumption of fast producers'
    elements: the consumer finishes the fast ones' data early."""
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        arrival_sources = []

        def op(el):
            arrival_sources.append(el.source)

        s = yield from attach(ch, op)
        if is_prod:
            if comm.rank == 0:  # the slow one
                yield from comm.compute(1.0)
            yield from s.isend(comm.rank)
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return arrival_sources if is_cons else None

    r = run(prog, 4, machine=quiet_testbed())
    sources = r.values[3]
    # ranks 1,2 arrive before the delayed rank 0
    assert sources[-1] == 0
    assert set(sources) == {0, 1, 2}


def test_multiple_consumers_blocked_routing():
    def prog(comm):
        # 4 producers, 2 consumers
        is_cons = comm.rank >= 4
        ch = yield from create_channel(comm, not is_cons, is_cons)
        sink = Collector()
        s = yield from attach(ch, sink)
        if not is_cons:
            yield from s.isend(comm.rank)
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return sorted(sink.items) if is_cons else None

    r = run(prog, 6)
    # blocked assignment: producers 0,1 -> consumer idx0; 2,3 -> idx1
    assert r.values[4] == [0, 1]
    assert r.values[5] == [2, 3]


def test_blocked_peer_table_is_shared_and_dense_at_scale():
    assert list(blocked_peers(6, 2)) == [0, 0, 0, 1, 1, 1]
    assert list(blocked_fan_in(5, 3)) == [2, 2, 1]
    table = blocked_peers(256, 4)
    # cached: same shape returns the same object
    assert blocked_peers(256, 4) is table
    # and follows the blocked distribution's formula
    assert table[100] == 100 * 4 // 256


def test_custom_router_by_key():
    def prog(comm):
        is_cons = comm.rank >= 4
        ch = yield from create_channel(comm, not is_cons, is_cons)
        sink = Collector()
        s = yield from attach(ch, sink, router=lambda pi, seq, data: data % 2)
        if not is_cons:
            for v in range(4):
                yield from s.isend(v)
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return sorted(sink.items) if is_cons else None

    r = run(prog, 6)
    assert r.values[4] == [0, 0, 0, 0, 2, 2, 2, 2]   # even values
    assert r.values[5] == [1, 1, 1, 1, 3, 3, 3, 3]   # odd values


def test_reduce_by_key_operator():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        red = ReduceByKey()
        s = yield from attach(ch, red)
        if is_prod:
            for word in ("a", "b", "a"):
                yield from s.isend((word, 1))
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return red.table if is_cons else None

    r = run(prog, 4)  # 3 producers
    assert r.values[3] == {"a": 6, "b": 3}


def test_reduce_by_key_batched_pairs():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        red = ReduceByKey()
        s = yield from attach(ch, red)
        if is_prod:
            yield from s.isend([("x", 2), ("y", 1)])
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return red.table if is_cons else None

    r = run(prog, 2)
    assert r.values[1] == {"x": 2, "y": 1}


def test_running_stats_operator():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        stats = RunningStats()
        s = yield from attach(ch, stats)
        if is_prod:
            yield from s.isend(float(comm.rank * 10))
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        return stats.summary() if is_cons else None

    r = run(prog, 5)  # producers 0..3
    assert r.values[4] == {"count": 4, "min": 0.0, "max": 30.0, "mean": 15.0}


def test_aggregator_flushes_batches():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        flushed = []

        def flush(key, batch):
            flushed.append((key, list(batch)))
            yield from ch.comm.compute(0.0)

        agg = Aggregator(key_fn=lambda el: el.data % 2, flush=flush,
                         batch_size=3)
        s = yield from attach(ch, agg)
        if is_prod:
            for v in range(8):
                yield from s.isend(v)
            yield from s.terminate()
        else:
            yield from s.operate()
            yield from agg.drain()
        yield from ch.free()
        return flushed if is_cons else None

    r = run(prog, 2)
    flushed = r.values[1]
    all_items = sorted(x for _, batch in flushed for x in batch)
    assert all_items == list(range(8))
    # batches of 3 were flushed during operate; leftovers on drain
    assert any(len(b) == 3 for _, b in flushed)


def test_generator_operator_can_communicate():
    """An operator that forwards each element to a master rank."""
    def prog(comm):
        # rank 0 master, rank 1 consumer, ranks 2-3 producers
        is_prod = comm.rank >= 2
        is_cons = comm.rank == 1
        ch = yield from create_channel(comm, is_prod, is_cons)

        def forward(el):
            yield from comm.send(el.data, dest=0, tag=99)

        s = yield from attach(ch, forward)
        if is_prod:
            yield from s.isend(comm.rank * 100)
            yield from s.terminate()
            return None
        if is_cons:
            yield from s.operate()
            yield from comm.send(None, dest=0, tag=98)  # done marker
            return None
        # master: collect 2 forwards + done
        got = []
        for _ in range(2):
            got.append((yield from comm.recv(source=1, tag=99)))
        yield from comm.recv(source=1, tag=98)
        return sorted(got)

    r = run(prog, 4)
    assert r.values[0] == [200, 300]


def test_stream_profile_counts():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch, Collector())
        if is_prod:
            for i in range(7):
                yield from s.isend(i)
            yield from s.terminate()
            return s.profile.summary()
        prof = yield from s.operate()
        return prof.summary()

    r = run(prog, 3)
    assert r.values[0]["elements_sent"] == 7
    assert r.values[2]["elements_received"] == 14
    assert r.values[0]["overhead_paid"] > 0


def test_element_overhead_charged():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch, Collector(), element_overhead=0.01)
        if is_prod:
            t0 = comm.time
            for _ in range(10):
                yield from s.isend(1)
            dt = comm.time - t0
            yield from s.terminate()
            return dt
        yield from s.operate()
        return None

    r = run(prog, 2, machine=quiet_testbed())
    assert r.values[0] >= 0.1  # 10 elements x 10ms


def test_window_bounds_inflight():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch, Collector(), window=4)
        if is_prod:
            for i in range(100):
                yield from s.isend(i)
            yield from s.terminate()
            return len(s._pending)
        yield from s.operate()
        return None

    r = run(prog, 2)
    assert r.values[0] == 0  # terminate flushed everything


def test_role_errors():
    def prod_recv(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch, Collector())
        if is_prod:
            yield from s.recv_element()
        else:
            yield from s.operate()

    with pytest.raises(CommunicatorError):
        run(prod_recv, 2)


def test_both_roles_rejected():
    def prog(comm):
        yield from create_channel(comm, True, True)

    with pytest.raises(CommunicatorError):
        run(prog, 2)


def test_isend_after_terminate_rejected():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch, Collector())
        if is_prod:
            yield from s.terminate()
            yield from s.isend(1)
        else:
            yield from s.operate()

    with pytest.raises(RequestError):
        run(prog, 2)


def test_empty_group_rejected():
    def prog(comm):
        yield from create_channel(comm, True, False)  # nobody consumes

    with pytest.raises(CommunicatorError):
        run(prog, 2)


def test_two_streams_on_one_channel_are_isolated():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        a, b = Collector(), Collector()
        s1 = yield from attach(ch, a)
        s2 = yield from attach(ch, b)
        if is_prod:
            yield from s1.isend("one")
            yield from s2.isend("two")
            yield from s1.terminate()
            yield from s2.terminate()
        else:
            yield from s1.operate()
            yield from s2.operate()
        yield from ch.free()
        return (a.items, b.items) if is_cons else None

    r = run(prog, 2)
    assert r.values[1] == (["one"], ["two"])


def test_operate_pending_interleaves_with_own_work():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        sink = Collector()
        s = yield from attach(ch, sink)
        if is_prod:
            for i in range(5):
                yield from s.isend(i)
                yield from comm.compute(0.01)
            yield from s.terminate()
            return None
        drained = 0
        while s.active_producers > 0:
            drained += yield from s.operate_pending()
            yield from comm.compute(0.005, label="own-work")
            if s.active_producers > 0 and drained >= 5:
                # producers done sending payload; absorb the TERM
                el = yield from s.recv_element()
                assert el is None
        return sorted(sink.items)

    r = run(prog, 2, machine=quiet_testbed())
    assert r.values[1] == [0, 1, 2, 3, 4]


def test_use_after_free_rejected():
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch, Collector())
        if is_prod:
            yield from s.terminate()
        else:
            yield from s.operate()
        yield from ch.free()
        if is_prod:
            yield from s.isend(1)

    with pytest.raises(CommunicatorError):
        run(prog, 2)


def test_stream_traffic_isolated_from_app_p2p():
    """Stream uses a dup'ed communicator: a wildcard app recv never sees
    stream elements."""
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        sink = Collector()
        s = yield from attach(ch, sink)
        if is_prod:
            yield from s.isend("stream-data")
            yield from comm.send("app-data", dest=1, tag=0)
            yield from s.terminate()
            return None
        app = yield from comm.recv()   # wildcard on the parent comm
        yield from s.operate()
        return (app, sink.items)

    r = run(prog, 2)
    assert r.values[1] == ("app-data", ["stream-data"])


# ----------------------------------------------------------------------
# one consumer loop: recv_element and operate_pending read a stream the
# way operate does (TERMs absorbed, failures handled, checkpoints taken)
# ----------------------------------------------------------------------

def _crashing_producers(drain):
    """Ranks 0-2 send 20 elements each, 1 ms apart, to consumer rank 3,
    which reads them with ``drain(stream, comm, got)``; rank 1 crashes
    at 7.5 ms, after its 7th element."""
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        got = []
        s = yield from attach(ch, lambda el: got.append(el.data))
        if is_prod:
            for i in range(20):
                yield from comm.compute(1e-3)
                yield from s.isend((comm.rank, i))
            yield from s.terminate()
        else:
            yield from drain(s, comm, got)
        yield from ch.free()
        return got if is_cons else None

    r = run(prog, 4, machine=quiet_testbed(),
            faults=FaultPlan([RankCrash(7.5e-3, 1)]))
    got = r.values[3]
    assert len(got) == 47
    by_producer = {}
    for rank, i in got:
        by_producer.setdefault(rank, []).append(i)
    assert by_producer == {0: list(range(20)), 1: list(range(7)),
                           2: list(range(20))}


def test_recv_element_survives_a_producer_crash():
    def drain(s, comm, got):
        while True:
            element = yield from s.recv_element()
            if element is None:
                return
            got.append(element.data)

    _crashing_producers(drain)


def test_operate_pending_survives_a_producer_crash():
    def drain(s, comm, got):
        while s.active_producers > 0:
            yield from s.operate_pending()
            yield from comm.compute(5e-4, label="own-work")

    _crashing_producers(drain)


def test_recv_element_absorbs_a_queued_term():
    """A TERM queued ahead of another producer's element is absorbed:
    recv_element returns the element, and None only once every
    producer has terminated."""
    def prog(comm):
        is_prod, is_cons = _roles(comm)
        ch = yield from create_channel(comm, is_prod, is_cons)
        s = yield from attach(ch)
        if comm.rank == 0:
            yield from s.terminate()
        elif comm.rank == 1:
            yield from comm.compute(1e-3)
            yield from s.isend("late")
            yield from s.terminate()
        else:
            yield from comm.compute(5e-3)   # both arrivals queue up
            first = yield from s.recv_element()
            last = yield from s.recv_element()
            return (first.data, first.source, last)

    r = run(prog, 3, machine=quiet_testbed())
    assert r.values[2] == ("late", 1, None)


def test_recv_element_checkpoints_like_operate():
    """Under a checkpoint policy a recv_element consumer takes the
    snapshots operate takes: the caller's handling of an element stands
    in for the operator, and the snapshot follows on the next call."""
    def consume(use_recv):
        def prog(comm):
            is_prod, is_cons = _roles(comm)
            ch = yield from create_channel(comm, is_prod, is_cons)
            s = yield from attach(ch, Collector(),
                                  checkpoint=Checkpoint(interval=4))
            if is_prod:
                for i in range(10):
                    yield from s.isend(i)
                yield from s.terminate()
                return None
            if use_recv:
                while (yield from s.recv_element()) is not None:
                    pass
            else:
                yield from s.operate()
            return (s.profile.checkpoints, s.profile.acked_elements)

        return run(prog, 3, machine=quiet_testbed()).values[2]

    assert consume(use_recv=True) == consume(use_recv=False) == (5, 20)


def test_term_wire_size_is_declared():
    assert element_nbytes(TERMINATE) == 40
    assert payload_nbytes((7, TERMINATE)) == 40
