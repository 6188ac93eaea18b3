"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.simmpi.engine import (
    Delay,
    Engine,
    EventFlag,
    Spawn,
    WaitFlag,
    delay,
    wait_flag,
)
from repro.simmpi.errors import DeadlockError


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_delay_advances_virtual_time():
    eng = Engine()

    def proc():
        yield Delay(1.5)
        yield Delay(0.5)

    eng.spawn(proc())
    assert eng.run() == pytest.approx(2.0)


def test_zero_delay_is_legal():
    eng = Engine()

    def proc():
        yield Delay(0.0)

    eng.spawn(proc())
    assert eng.run() == 0.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_return_value_captured():
    eng = Engine()

    def proc():
        yield Delay(1.0)
        return 42

    h = eng.spawn(proc())
    eng.run()
    assert h.value == 42
    assert h.done


def test_two_processes_interleave():
    eng = Engine()
    order = []

    def slow():
        yield Delay(2.0)
        order.append(("slow", eng.now))

    def fast():
        yield Delay(1.0)
        order.append(("fast", eng.now))

    eng.spawn(slow())
    eng.spawn(fast())
    eng.run()
    assert order == [("fast", 1.0), ("slow", 2.0)]


def test_equal_time_events_fire_in_insertion_order():
    eng = Engine()
    order = []
    eng.call_at(1.0, lambda: order.append("a"))
    eng.call_at(1.0, lambda: order.append("b"))
    eng.call_at(1.0, lambda: order.append("c"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_call_at_in_the_past_clamps_to_now():
    eng = Engine()
    seen = []
    eng.call_at(5.0, lambda: eng.call_at(1.0, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [5.0]


def test_flag_wakes_waiter_with_payload():
    eng = Engine()
    flag = EventFlag("f")
    got = []

    def waiter():
        val = yield WaitFlag(flag)
        got.append((eng.now, val))

    def setter():
        yield Delay(3.0)
        eng.set_flag(flag, "hello")

    eng.spawn(waiter())
    eng.spawn(setter())
    eng.run()
    assert got == [(3.0, "hello")]


def test_wait_on_already_set_flag_does_not_block():
    eng = Engine()
    flag = EventFlag("f")

    def setter():
        eng.set_flag(flag, 7)
        return None
        yield  # pragma: no cover

    def waiter():
        yield Delay(1.0)
        val = yield WaitFlag(flag)
        return (eng.now, val)

    eng.spawn(setter())
    h = eng.spawn(waiter())
    eng.run()
    assert h.value == (1.0, 7)


def test_set_flag_is_idempotent():
    eng = Engine()
    flag = EventFlag("f")
    eng.set_flag(flag, 1)
    eng.set_flag(flag, 2)  # ignored
    assert flag.payload == 1


def test_multiple_waiters_all_wake():
    eng = Engine()
    flag = EventFlag("f")
    woke = []

    def waiter(i):
        yield WaitFlag(flag)
        woke.append(i)

    for i in range(5):
        eng.spawn(waiter(i))

    def setter():
        yield Delay(1.0)
        eng.set_flag(flag)

    eng.spawn(setter())
    eng.run()
    assert sorted(woke) == [0, 1, 2, 3, 4]


def test_spawn_returns_handle_to_parent():
    eng = Engine()

    def child():
        yield Delay(2.0)
        return "done-child"

    def parent():
        h = yield Spawn(child(), "c")
        val = yield WaitFlag(h.done_flag)
        return (eng.now, val, h.value)

    h = eng.spawn(parent())
    eng.run()
    assert h.value == (2.0, "done-child", "done-child")


def test_deadlock_detected_and_reported():
    eng = Engine()
    flag = EventFlag("never")

    def stuck():
        yield WaitFlag(flag)

    eng.spawn(stuck(), name="victim")
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    assert "victim" in str(ei.value)


def test_daemon_process_does_not_deadlock():
    eng = Engine()
    flag = EventFlag("never")

    def stuck():
        yield WaitFlag(flag)

    def main():
        yield Spawn(stuck(), "watcher", daemon=True)
        yield Delay(1.0)

    eng.spawn(main())
    assert eng.run() == 1.0


def test_exception_in_process_propagates():
    eng = Engine()

    def bad():
        yield Delay(1.0)
        raise RuntimeError("boom")

    eng.spawn(bad())
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


def test_event_budget_guards_livelocks():
    eng = Engine()
    eng.max_events = 10

    def spin():
        while True:
            yield Delay(0.0)

    eng.spawn(spin())
    with pytest.raises(RuntimeError, match="event budget"):
        eng.run()
    # the loop's finally stored the true count even though run() raised
    assert eng.events_fired == eng.max_events + 1


def test_helper_coroutines():
    eng = Engine()
    flag = EventFlag("f")

    def main():
        yield from delay(1.0)
        eng.set_flag(flag, "v")

    def waiter():
        val = yield from wait_flag(flag)
        return val

    h = eng.spawn(waiter())
    eng.spawn(main())
    eng.run()
    assert h.value == "v"


def test_unsupported_syscall_raises_typeerror():
    eng = Engine()

    def bad():
        yield "not-a-syscall"

    eng.spawn(bad())
    with pytest.raises(TypeError, match="unsupported syscall"):
        eng.run()


def test_set_flag_wakes_waiters_in_fifo_order():
    """Wake order is pinned: waiters resume in the order they blocked,
    via a single scheduled callback (insertion order == FIFO)."""
    eng = Engine()
    flag = EventFlag("f")
    woke = []

    def waiter(i):
        val = yield WaitFlag(flag)
        woke.append((i, val, eng.now))

    for i in range(8):
        eng.spawn(waiter(i), name=f"w{i}")

    def setter():
        yield Delay(2.0)
        eng.set_flag(flag, "v")

    eng.spawn(setter())
    eng.run()
    assert woke == [(i, "v", 2.0) for i in range(8)]


def test_set_flag_wake_is_one_event_for_many_waiters():
    """The single-callback wake: N waiters cost one heap event, not N."""
    eng = Engine()
    flag = EventFlag("f")

    def waiter():
        yield WaitFlag(flag)

    for _ in range(5):
        eng.spawn(waiter())

    def setter():
        yield Delay(1.0)
        eng.set_flag(flag)

    eng.spawn(setter())
    eng.run()
    # 6 spawn steps + setter's delay resumption + 1 collective wake
    assert eng.events_fired == 8


def test_wake_order_interleaves_like_per_waiter_events():
    """A woken process that immediately schedules new same-time work
    must see that work run *after* every waiter has woken (exactly as
    with per-waiter heap events, whose seqs were contiguous)."""
    eng = Engine()
    flag = EventFlag("f")
    order = []

    def waiter(i):
        yield WaitFlag(flag)
        order.append(("woke", i))
        eng.call_at(eng.now, lambda i=i: order.append(("follow-up", i)))

    for i in range(3):
        eng.spawn(waiter(i))

    def setter():
        yield Delay(1.0)
        eng.set_flag(flag)

    eng.spawn(setter())
    eng.run()
    assert order == [("woke", 0), ("woke", 1), ("woke", 2),
                     ("follow-up", 0), ("follow-up", 1), ("follow-up", 2)]


def test_replay_determinism():
    """The determinism contract: two runs of the same program drain
    identical (time, order) event sequences and finish times."""

    def scenario():
        eng = Engine()
        log = []
        flag = EventFlag("f")

        def pinger(i):
            for k in range(4):
                yield Delay(0.25 * ((i + k) % 3))
                log.append(("ping", i, k, eng.now))
            if i == 0:
                eng.set_flag(flag, "go")

        def waiter():
            val = yield WaitFlag(flag)
            log.append(("woke", val, eng.now))
            child = yield Spawn(delay(0.5), "tail")
            yield WaitFlag(child.done_flag)
            log.append(("tail-done", eng.now))

        eng.spawn(waiter())
        handles = [eng.spawn(pinger(i), name=f"p{i}") for i in range(5)]
        end = eng.run()
        return end, log, [h.done_flag.time for h in handles], eng.events_fired

    assert scenario() == scenario()


def _scripted_workload(script):
    """Generators built from a pure-data script — per-process op lists
    of ('delay', dt) / ('wait', i) / ('set', i) — so the same script
    drives any engine identically.  Returns (install, trace)."""
    flags = [EventFlag(label=("f", i)) for i in range(8)]
    trace = []
    engine_box = [None]

    def body(pid, ops):
        for op in ops:
            if op[0] == "delay":
                yield Delay(op[1])
            elif op[0] == "wait":
                payload = yield WaitFlag(flags[op[1]])
                trace.append(("woke", pid, op[1], payload))
            else:
                yield Spawn(setter(pid, op[1]), name=f"setter{pid}",
                            daemon=True)
            trace.append((pid, op[0]))
        return pid

    def setter(pid, i):
        yield Delay(1e-7)
        flags[i].is_set or trace.append(("set", pid, i))
        engine_box[0].set_flag(flags[i], payload=pid)

    def install(engine):
        engine_box[0] = engine
        for pid, ops in enumerate(script):
            engine.spawn(body(pid, ops), name=f"p{pid}")

    return install, trace


def _random_script(seed, nprocs=6, steps=8):
    rng = random.Random(seed)
    script = []
    for _ in range(nprocs):
        ops = []
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.45:
                ops.append(("delay", rng.choice((1e-7, 3e-7, 5e-7, 1e-6))))
            elif roll < 0.75:
                ops.append(("set", rng.randrange(8)))
            else:
                ops.append(("wait", rng.randrange(8)))
        script.append(ops)
    # every flag gets set, so no run deadlocks
    script.append([("set", i) for i in range(8)])
    return script


@pytest.mark.parametrize("seed", range(12))
def test_engine_replays_like_the_seed_oracle(seed):
    """Randomized replay: the engine and the seed OracleEngine fire the
    same wake sequence at the same virtual times."""
    from repro.simmpi.oracle import OracleEngine

    def replay(engine_cls):
        install, trace = _scripted_workload(script)
        engine = engine_cls()
        install(engine)
        return engine.run(), tuple(trace)

    script = _random_script(seed)
    # the seed engine pushes one wake event per flag waiter where the
    # engine batches them, so event counts differ by design: compare
    # the final time and the trace
    assert replay(Engine) == replay(OracleEngine)


def test_deadlock_diagnostics_formatted_lazily():
    """blocked_on holds the syscall object on the hot path; the string
    only materializes when DeadlockError fires."""
    eng = Engine()
    flag = EventFlag("the-flag")

    def stuck_wait():
        yield WaitFlag(flag)

    def stuck_tuple_label():
        yield WaitFlag(EventFlag(label=("recv<-", 3, "#", 7)))

    eng.spawn(stuck_wait(), name="w")
    eng.spawn(stuck_tuple_label(), name="t")
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    msg = str(ei.value)
    assert "wait(the-flag)" in msg
    assert "wait(recv<-3#7)" in msg


def test_events_fired_counter():
    eng = Engine()

    def proc():
        yield Delay(1.0)
        yield Delay(1.0)

    eng.spawn(proc())
    eng.run()
    # first step + two delay resumptions
    assert eng.events_fired == 3


# ----------------------------------------------------------------------
# kill: the handle index and its oracle fallback
# ----------------------------------------------------------------------

def test_kill_uses_the_handle_index():
    eng = Engine()

    def sleeper():
        yield Delay(100.0)

    def killer(victim):
        yield Delay(1.0)
        assert eng.kill(victim) is True

    victim = eng.spawn(sleeper(), name="victim")
    assert eng._proc_of_handle[victim].handle is victim
    eng.spawn(killer(victim))
    end = eng.run()
    # the pending Delay(100) was purged: the clock stops at the kill
    assert end == pytest.approx(1.0)
    assert victim.done and victim.done_flag.time == pytest.approx(1.0)


def test_kill_unknown_handle_rejected():
    from repro.simmpi.engine import ProcessHandle
    eng = Engine()
    with pytest.raises(ValueError, match="unknown process handle"):
        eng.kill(ProcessHandle("stranger"))


def test_kill_runs_finally_and_is_idempotent():
    eng = Engine()
    ran = []

    def victim():
        try:
            yield Delay(100.0)
            ran.append("finished")
        finally:
            ran.append("closed")

    def killer(handle):
        yield Delay(1.0)
        assert eng.kill(handle, error=RuntimeError("crash")) is True
        # a second kill is a no-op on a dead process
        assert eng.kill(handle) is False

    handle = eng.spawn(victim(), name="victim")
    eng.spawn(killer(handle))
    assert eng.run() == pytest.approx(1.0)
    assert ran == ["closed"]
    assert isinstance(handle.error, RuntimeError)


def test_kill_finished_process_returns_false():
    eng = Engine()

    def quick():
        yield Delay(0.5)

    h = eng.spawn(quick())
    eng.run()
    assert eng.kill(h) is False


def test_kill_falls_back_to_scan_for_unindexed_spawns():
    """Engine subclasses with their own spawn (the oracle engine) never
    populate _proc_of_handle; kill must still find their processes."""
    eng = Engine()

    def sleeper():
        yield Delay(100.0)

    def killer(victim):
        yield Delay(1.0)
        assert eng.kill(victim) is True

    victim = eng.spawn(sleeper(), name="victim")
    del eng._proc_of_handle[victim]          # simulate an oracle spawn
    eng.spawn(killer(victim))
    assert eng.run() == pytest.approx(1.0)
    assert victim.done


def test_oracle_engine_kill_works_without_the_index():
    """The oracle's own spawn never touches _proc_of_handle, and its
    per-resumption closures defeat the heap purge — kill still lands
    via the scan, records the crash time, and the stale Delay wake-up
    is absorbed instead of resurrecting the process."""
    from repro.simmpi.oracle import OracleEngine
    eng = OracleEngine()

    def sleeper():
        yield Delay(100.0)

    def killer(victim):
        yield Delay(1.0)
        assert eng.kill(victim) is True

    victim = eng.spawn(sleeper(), name="victim")
    eng.spawn(killer(victim))
    eng.run()
    assert victim.done
    assert victim.done_flag.time == pytest.approx(1.0)
