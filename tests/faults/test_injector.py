"""Fault injection semantics: crash, poison/cancel, slowdown, links."""

import pytest

from repro.bench.perf import result_digest
from repro.faults import FaultPlan, LinkDegrade, RankCrash, Slowdown
from repro.faults.plan import FaultError
from repro.simmpi import (
    ProcessFailedError,
    RevokedError,
    SizedPayload,
    beskow,
    quiet_testbed,
    run,
)
from repro.simmpi.config import TopologyConfig
from repro.simmpi.engine import Engine
from repro.simmpi.oracle import SLOW_PATH


def _crash(t, rank, latency=1e-4):
    return FaultPlan([RankCrash(t, rank)], detection_latency=latency)


# ----------------------------------------------------------------------
# engine-level kill primitive
# ----------------------------------------------------------------------

def test_engine_kill_closes_process_and_keeps_bookkeeping():
    engine = Engine()
    cleaned = []

    def proc():
        try:
            yield from __import__("repro.simmpi.engine",
                                  fromlist=[""]).delay(10.0)
        finally:
            cleaned.append(True)

    handle = engine.spawn(proc(), name="victim")
    engine.call_at(1.0, lambda: engine.kill(
        handle, ProcessFailedError("boom", rank=0)))
    assert engine.run() == 1.0
    assert cleaned == [True]            # finally blocks ran at kill time
    assert handle.done
    assert handle.done_flag.time == 1.0
    assert isinstance(handle.error, ProcessFailedError)
    # double kill is a no-op
    assert engine.kill(handle) is False


def test_kill_unknown_handle_rejected():
    engine = Engine()
    other = Engine().spawn(iter(()), name="elsewhere")
    with pytest.raises(ValueError, match="unknown process handle"):
        engine.kill(other)


# ----------------------------------------------------------------------
# crash resolution: no deadlocks, catchable ULFM-style errors
# ----------------------------------------------------------------------

def test_crash_kills_rank_and_records_crash_time():
    def prog(comm):
        yield from comm.sleep(1.0)
        return comm.rank

    r = run(prog, 4, faults=_crash(0.5, 2))
    assert r.values == [0, 1, None, 3]
    assert r.finish_times[2] == 0.5
    assert r.extras["faults"]["failed"] == {2: 0.5}
    assert r.extras["faults"]["detected"][2] == pytest.approx(0.5001)


def test_trace_ends_a_crashed_ranks_charge_at_the_crash():
    """A compute interval is recorded when its charge starts; the one a
    rank dies in ends at the crash time, and no other rank's changes."""
    def prog(comm):
        yield from comm.compute(0.25, label="first")
        yield from comm.compute(1.0, label="second")
        return comm.rank

    r = run(prog, 2, faults=_crash(0.5, 1), trace=True)
    spans = sorted((iv.rank, iv.label, iv.t0, iv.t1)
                   for iv in r.tracer.by_category("compute"))
    assert spans == [(0, "first", 0.0, 0.25), (0, "second", 0.25, 1.25),
                     (1, "first", 0.0, 0.25), (1, "second", 0.25, 0.5)]


def test_blocked_recv_on_dead_rank_resolves_not_deadlocks():
    def prog(comm):
        if comm.rank == 0:
            try:
                yield from comm.recv(source=1)
                return "data"
            except ProcessFailedError as exc:
                return ("failed", exc.rank)
        yield from comm.sleep(2.0)
        return "sender"

    r = run(prog, 2, faults=_crash(0.1, 1))
    assert r.values[0] == ("failed", 1)
    # the receiver resumed at detection time, not at heap drain
    assert r.finish_times[0] == pytest.approx(0.1 + 1e-4)


def test_rendezvous_sender_to_dead_receiver_is_poisoned():
    big = 1 << 20  # far beyond the eager threshold

    def prog(comm):
        if comm.rank == 0:
            try:
                req = yield from comm.isend(b"x", dest=1, nbytes=big)
                yield from comm.wait(req)
                return "sent"
            except ProcessFailedError:
                return "failed"
        yield from comm.sleep(2.0)
        return "receiver"

    r = run(prog, 2, faults=_crash(0.1, 1))
    assert r.values[0] == "failed"


def test_rendezvous_header_in_flight_at_detection_is_poisoned():
    """A header posted just before the receiver's failure is detected
    lands after the detection sweep; it must poison its sender when it
    lands, not park in the dead mailbox forever."""
    plan = FaultPlan([RankCrash(1e-3, 63)])
    detected = 1e-3 + plan.detection_latency

    def prog(comm):
        if comm.rank == 0:
            yield from comm.sleep(detected - 1e-6)
            try:
                yield from comm.send(SizedPayload("face", 1 << 20), dest=63)
                return "sent"
            except ProcessFailedError as exc:
                return ("failed", exc.rank)
        return "idle"

    r = run(prog, 64, machine=beskow(), faults=plan)
    assert r.values[0] == ("failed", 63)
    # the sender woke when its header landed, after the sweep
    assert r.finish_times[0] > detected


def test_post_detection_send_raises_revoked():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.sleep(0.5)   # well past detection
            try:
                yield from comm.send(1, dest=1)
                return "sent"
            except RevokedError as exc:
                return ("revoked", exc.rank)
        yield from comm.sleep(1.0)
        return "other"

    r = run(prog, 2, faults=_crash(0.1, 1))
    assert r.values[0] == ("revoked", 1)


def test_wildcard_recv_interrupts_until_acked():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.sleep(0.5)
            # a failure is detected and unacknowledged: wildcard raises
            try:
                comm.irecv()
                seen = "no-error"
            except ProcessFailedError:
                seen = "pending"
            comm.failure_ack()
            data = yield from comm.recv()   # rank 2's message delivers
            return (seen, data, comm.failed_members())
        if comm.rank == 2:
            yield from comm.sleep(0.6)
            yield from comm.send("hello", dest=0)
            return "sent"
        yield from comm.sleep(1.0)
        return "victim"

    r = run(prog, 3, faults=_crash(0.1, 1))
    assert r.values[0] == ("pending", "hello", (1,))


def test_uncaught_failure_aborts_like_errors_are_fatal():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.recv(source=1)   # no handler
        else:
            yield from comm.sleep(2.0)

    with pytest.raises(ProcessFailedError):
        run(prog, 2, faults=_crash(0.1, 1))


def _bcast_from_crashing_root(comm, late):
    if comm.rank == 0:
        yield from comm.sleep(10.0)     # crashes at 0.1, before sending
        yield from comm.bcast("x", root=0)
        return "root"
    if late:
        yield from comm.sleep(1.0)      # detection at 0.1001 comes first
    try:
        yield from comm.bcast(None, root=0)
    except ProcessFailedError as err:
        return str(err), err.rank, comm.time
    return "received"


def test_bcast_posted_after_detection_fails_at_the_receive_gate():
    """A tree receive from a detected-dead parent is never posted: the
    fault controller's check_recv raises at the call."""
    r = run(_bcast_from_crashing_root, 2, args=(True,),
            faults=_crash(0.1, 0))
    msg, rank, t = r.values[1]
    assert msg.startswith("receive from rank 0 on ")
    assert (rank, t, r.elapsed) == (0, 1.0, 1.0)


def test_bcast_posted_before_the_crash_raises_the_poisoned_error():
    """A tree receive already posted when its parent dies is poisoned at
    detection, and the wait raises the poison's error."""
    r = run(_bcast_from_crashing_root, 2, args=(False,),
            faults=_crash(0.1, 0))
    msg, rank, t = r.values[1]
    assert msg == "rank 0 (global) failed at t=0.1, detected at t=0.1001"
    assert (rank, t, r.elapsed) == (0, 0.10010000000000001,
                                    0.10010000000000001)


def test_collective_with_dead_member_resolves_via_revoke():
    """The ULFM pattern: the rank that observes the failure revokes the
    communicator, which resolves every other member's pending operation
    — the collective cannot deadlock the heap."""
    def prog(comm):
        if comm.rank == 2:
            yield from comm.sleep(2.0)
            return "late"
        try:
            yield from comm.barrier()
            return "through"
        except ProcessFailedError:
            comm.revoke()
            return "failed"
        except RevokedError:
            return "revoked"

    r = run(prog, 3, faults=_crash(0.1, 2))
    assert sorted(r.values[:2]) == ["failed", "revoked"]


def test_revoke_requires_a_fault_plan():
    from repro.simmpi import CommunicatorError

    def prog(comm):
        with pytest.raises(CommunicatorError, match="fault"):
            comm.revoke()
        if False:
            yield None

    run(prog, 1)


# ----------------------------------------------------------------------
# slowdown windows
# ----------------------------------------------------------------------

def test_slowdown_stretches_compute_piecewise():
    def prog(comm):
        yield from comm.compute(1.0)
        return comm.time

    plan = FaultPlan([Slowdown(0.25, 0.75, rank=1, factor=3.0)])
    r = run(prog, 2, faults=plan)
    assert r.values[0] == pytest.approx(1.0)
    # rank 1: 0.25s free, the 0.5s window yields 0.5/3 of progress,
    # the remaining 1.0 - 0.25 - 1/6 nominal seconds run after t1
    expected = 0.75 + (1.0 - 0.25 - 0.5 / 3.0)
    assert r.values[1] == pytest.approx(expected)


def test_slowdown_after_charge_has_no_effect():
    def prog(comm):
        yield from comm.compute(0.1)
        return comm.time

    plan = FaultPlan([Slowdown(5.0, 6.0, rank=0, factor=10.0)])
    r = run(prog, 1, faults=plan)
    assert r.values[0] == pytest.approx(0.1)


# ----------------------------------------------------------------------
# link degradation
# ----------------------------------------------------------------------

def _one_rank_per_node():
    return quiet_testbed().with_(ranks_per_node=1)


def test_link_degrade_slows_the_window_only():
    nbytes = 4 << 20

    def prog(comm):
        if comm.rank == 0:
            req = yield from comm.isend(b"", dest=1, nbytes=nbytes)
            yield from comm.wait(req)
            return comm.time
        yield from comm.recv(source=0)
        return comm.time

    base = run(prog, 2, machine=_one_rank_per_node())
    degraded = run(prog, 2, machine=_one_rank_per_node(),
                   faults=FaultPlan([LinkDegrade(0.0, 1.0, 0, 1, 4.0)]))
    after = run(prog, 2, machine=_one_rank_per_node(),
                faults=FaultPlan([LinkDegrade(5.0, 6.0, 0, 1, 4.0)]))
    assert degraded.elapsed > 3.0 * base.elapsed
    assert after.elapsed == pytest.approx(base.elapsed)


def test_link_degrade_requires_flat_fabric_and_no_injection():
    def prog(comm):
        yield from comm.sleep(0.1)

    plan = FaultPlan([LinkDegrade(0.0, 1.0, 0, 1, 2.0)])
    with pytest.raises(FaultError, match="flat fabric"):
        run(prog, 2, faults=plan, machine=quiet_testbed().with_(
            topology=TopologyConfig(kind="fat_tree")))
    with pytest.raises(FaultError, match="fast-path engine"):
        run(prog, 2, faults=_crash(0.1, 1), **SLOW_PATH)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_faulted_run_is_deterministic():
    from repro.faults.apps import CGHaloRecoveryConfig, cg_halo_recovery

    cfg = CGHaloRecoveryConfig(nprocs=16)
    plan = FaultPlan([RankCrash(0.02, -1)])
    a = run(cg_halo_recovery, 16, args=(cfg,), faults=plan)
    b = run(cg_halo_recovery, 16, args=(cfg,), faults=plan)
    assert result_digest(a) == result_digest(b)
    assert a.elapsed == b.elapsed
    assert a.finish_times == b.finish_times
