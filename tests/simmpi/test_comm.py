"""Integration tests for point-to-point communication via the launcher."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    SizedPayload,
    TruncationError,
    beskow,
    ideal_network_testbed,
    quiet_testbed,
    run,
)


def test_send_recv_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send({"x": 1}, dest=1, tag=3)
            return None
        data = yield from comm.recv(source=0, tag=3)
        return data

    r = run(prog, 2)
    assert r.values[1] == {"x": 1}


def test_recv_status_reports_source_tag_size():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(b"12345", dest=1, tag=9)
            return None
        data, st = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG,
                                        status=True)
        return (data, st.source, st.tag, st.nbytes)

    r = run(prog, 2)
    assert r.values[1] == (b"12345", 0, 9, 5)


def test_nonblocking_send_recv():
    def prog(comm):
        if comm.rank == 0:
            req = yield from comm.isend("hello", dest=1)
            yield from comm.wait(req)
            return None
        req = comm.irecv(source=0)
        data, st = yield from comm.wait(req)
        return data

    assert run(prog, 2).values[1] == "hello"


def test_messages_dont_cross_tags():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send("a", dest=1, tag=1)
            yield from comm.send("b", dest=1, tag=2)
            return None
        b = yield from comm.recv(source=0, tag=2)
        a = yield from comm.recv(source=0, tag=1)
        return (a, b)

    assert run(prog, 2).values[1] == ("a", "b")


def test_fifo_same_source_same_tag():
    def prog(comm):
        if comm.rank == 0:
            for i in range(10):
                yield from comm.send(i, dest=1, tag=0)
            return None
        out = []
        for _ in range(10):
            out.append((yield from comm.recv(source=0, tag=0)))
        return out

    assert run(prog, 2).values[1] == list(range(10))


def test_any_source_fcfs():
    """Wildcard receive takes the earliest arrival: rank 2 computes less,
    so its message lands first."""
    def prog(comm):
        if comm.rank == 0:
            first = yield from comm.recv(source=ANY_SOURCE, tag=0)
            second = yield from comm.recv(source=ANY_SOURCE, tag=0)
            return (first, second)
        delay = 1.0 if comm.rank == 1 else 0.1
        yield from comm.compute(delay)
        yield from comm.send(comm.rank, dest=0, tag=0)
        return None

    r = run(prog, 3)
    assert r.values[0] == (2, 1)


def test_rendezvous_large_message_blocks_sender_until_recv():
    """A >threshold ssend-like transfer cannot complete before the
    receiver arrives."""
    def prog(comm):
        big = SizedPayload(None, 10_000_000)  # >> eager threshold
        if comm.rank == 0:
            t0 = comm.time
            yield from comm.send(big, dest=1)
            return comm.time - t0
        yield from comm.compute(2.0)  # receiver busy for 2s
        yield from comm.recv(source=0)
        return None

    r = run(prog, 2, machine=beskow())
    assert r.values[0] >= 2.0  # sender had to wait for the rendezvous


def test_eager_small_message_completes_immediately():
    def prog(comm):
        if comm.rank == 0:
            t0 = comm.time
            yield from comm.send(b"x" * 64, dest=1)
            return comm.time - t0
        yield from comm.compute(2.0)
        yield from comm.recv(source=0)
        return None

    r = run(prog, 2, machine=beskow())
    assert r.values[0] < 0.1  # fire-and-forget


def test_ssend_synchronizes_even_small_messages():
    def prog(comm):
        if comm.rank == 0:
            t0 = comm.time
            yield from comm.ssend(b"x", dest=1)
            return comm.time - t0
        yield from comm.compute(1.5)
        yield from comm.recv(source=0)
        return None

    r = run(prog, 2, machine=beskow())
    assert r.values[0] >= 1.5


def test_sendrecv_exchanges_without_deadlock():
    def prog(comm):
        peer = 1 - comm.rank
        got = yield from comm.sendrecv(f"from{comm.rank}", dest=peer,
                                       source=peer)
        return got

    r = run(prog, 2)
    assert r.values == ["from1", "from0"]


def test_truncation_error_raised():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 100, dest=1)
            return None
        yield from comm.recv(source=0, max_nbytes=10)

    with pytest.raises(TruncationError):
        run(prog, 2)


def test_invalid_rank_and_tag_rejected():
    def bad_rank(comm):
        yield from comm.send(1, dest=5)

    def bad_tag(comm):
        yield from comm.send(1, dest=0, tag=-3)

    with pytest.raises(InvalidRankError):
        run(bad_rank, 2)
    with pytest.raises(InvalidTagError):
        run(bad_tag, 1)


def test_unmatched_recv_deadlocks_with_diagnostics():
    def prog(comm):
        if comm.rank == 1:
            yield from comm.recv(source=0, tag=7)

    with pytest.raises(DeadlockError) as ei:
        run(prog, 2)
    assert "rank1" in str(ei.value)


def test_waitall_collects_in_order():
    def prog(comm):
        if comm.rank == 0:
            reqs = []
            for peer in (1, 2, 3):
                r = yield from comm.isend(peer * 10, dest=peer)
                reqs.append(r)
            yield from comm.waitall(reqs)
            return None
        val = yield from comm.recv(source=0)
        return val

    r = run(prog, 4)
    assert r.values[1:] == [10, 20, 30]


def test_waitany_returns_first_completion():
    def prog(comm):
        if comm.rank == 0:
            r1 = comm.irecv(source=1, tag=1)
            r2 = comm.irecv(source=2, tag=2)
            idx, (data, st) = yield from comm.waitany([r1, r2])
            rest = yield from comm.wait([r1, r2][1 - idx])
            return (idx, data)
        yield from comm.compute(2.0 if comm.rank == 1 else 0.5)
        yield from comm.send(comm.rank, dest=0, tag=comm.rank)
        return None

    r = run(prog, 3)
    assert r.values[0] == (1, 2)  # rank2's message (req index 1) wins


def test_waitany_loser_that_never_completes_does_not_deadlock():
    """The watcher left on a losing request is a daemon: a request that
    never completes must not turn a finished run into a deadlock."""
    def prog(comm):
        if comm.rank == 0:
            reqs = [comm.irecv(1, tag=1), comm.irecv(1, tag=2)]
            idx, (data, _st) = yield from comm.waitany(reqs)
            return (idx, data)
        yield from comm.send("x", dest=0, tag=1)
        return None

    r = run(prog, 2)
    assert r.values[0] == (0, "x")


def test_double_wait_rejected():
    from repro.simmpi.errors import RequestError

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(1, dest=1)
            return None
        req = comm.irecv(source=0)
        yield from comm.wait(req)
        yield from comm.wait(req)

    with pytest.raises(RequestError):
        run(prog, 2)


def test_iprobe_sees_unexpected_message():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(b"zz", dest=1, tag=5)
            return None
        yield from comm.compute(0.1)  # let it arrive
        st = comm.iprobe(source=0, tag=5)
        data = yield from comm.recv(source=0, tag=5)
        return (st is not None and st.nbytes == 2, data)

    r = run(prog, 2)
    assert r.values[1] == (True, b"zz")


def test_numpy_payloads_pass_by_reference():
    def prog(comm):
        if comm.rank == 0:
            a = np.arange(10, dtype=np.float64)
            yield from comm.send(a, dest=1)
            return None
        a = yield from comm.recv(source=0)
        return float(a.sum())

    assert run(prog, 2).values[1] == 45.0


def test_compute_records_and_advances_time():
    def prog(comm):
        yield from comm.compute(1.0, label="kernel")
        return comm.time

    r = run(prog, 2, trace=True)
    assert all(v == pytest.approx(1.0) for v in r.values)
    assert r.tracer.total_time(category="compute") == pytest.approx(2.0)


def test_noise_makes_ranks_finish_apart():
    def prog(comm):
        yield from comm.compute(1.0)

    noisy = beskow().with_(compute_speed=1.0)
    r = run(prog, 64, machine=noisy)
    assert max(r.finish_times) > min(r.finish_times)


def test_ideal_network_zero_cost_messages():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 10**6, dest=1)
            return None
        yield from comm.recv(source=0)
        return comm.time

    r = run(prog, 2, machine=ideal_network_testbed())
    assert r.values[1] == pytest.approx(0.0, abs=1e-9)


def test_self_send_matches_own_recv():
    def prog(comm):
        req = comm.irecv(source=0, tag=1)
        sreq = yield from comm.isend("self", dest=0, tag=1)
        yield from comm.wait(sreq)
        data, _ = yield from comm.wait(req)
        return data

    assert run(prog, 1).values == ["self"]


def test_run_determinism_end_to_end():
    def prog(comm):
        yield from comm.compute(0.01 * (comm.rank + 1))
        v = yield from comm.allreduce(comm.rank)
        return v

    r1 = run(prog, 32, machine=beskow())
    r2 = run(prog, 32, machine=beskow())
    assert r1.elapsed == r2.elapsed
    assert r1.finish_times == r2.finish_times


def test_group_from_ranks_is_communication_free():
    """MPI_Comm_create_group analogue: a deterministic member list
    yields a working sub-communicator at zero message cost."""
    def prog(comm):
        members = [0, 1] if comm.rank < 2 else [2, 3]
        sub = comm.group_from_ranks(members)
        total = yield from sub.allreduce(comm.rank)
        return (sub.rank, sub.size, total)

    r = run(prog, 4)
    assert r.values == [(0, 2, 1), (1, 2, 1), (0, 2, 5), (1, 2, 5)]


def test_group_from_ranks_agrees_among_its_members_alone():
    """Rank 2 formed an extra group before [2, 3]; rank 3 did not.
    The two must still agree on [2, 3]'s contexts (the agreement keys
    on the member tuple, not on each rank's creation history)."""
    def prog(comm):
        if comm.rank <= 2:
            first = comm.group_from_ranks([0, 1, 2])
            yield from first.barrier()
        if comm.rank >= 2:
            pair = comm.group_from_ranks([2, 3])
            if comm.rank == 3:
                yield from pair.send("hello", dest=0)
                return None
            data = yield from pair.recv(source=1)
            return data
        return None

    assert run(prog, 4).values == [None, None, "hello", None]


def test_group_from_ranks_counts_formations_per_member_tuple():
    """The k-th formation of a tuple matches the k-th on every member,
    and a rejected call consumes no count."""
    from repro.simmpi import CommunicatorError

    def prog(comm):
        if comm.rank == 0:
            # rank 0 alone makes a rejected call and forms [0, 2]
            # before [0, 1]; neither moves its count for [0, 1]
            with pytest.raises(CommunicatorError):
                comm.group_from_ranks([0, 0])
            other = comm.group_from_ranks([0, 2])
            yield from other.barrier()
        if comm.rank == 2:
            other = comm.group_from_ranks([0, 2])
            yield from other.barrier()
            return None
        a = comm.group_from_ranks([0, 1])
        b = comm.group_from_ranks([0, 1])
        assert a.context != b.context
        if comm.rank == 0:
            yield from b.send("on b", dest=1)
            yield from a.send("on a", dest=1)
            return None
        got_a = yield from a.recv(source=0)
        got_b = yield from b.recv(source=0)
        return (got_a, got_b)

    assert run(prog, 3).values == [None, ("on a", "on b"), None]


def test_group_from_ranks_rejects_bad_members():
    from repro.simmpi import CommunicatorError

    def dup(comm):
        comm.group_from_ranks([0, 1, 1])
        yield from comm.barrier()

    def absent(comm):
        comm.group_from_ranks([comm.size - 1] if comm.rank == 0 else [0])
        yield from comm.barrier()

    def empty(comm):
        comm.group_from_ranks([])
        yield from comm.barrier()

    for prog in (dup, absent, empty):
        with pytest.raises(CommunicatorError):
            run(prog, 4)
