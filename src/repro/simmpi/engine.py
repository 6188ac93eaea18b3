"""Discrete-event simulation core.

The engine provides *virtual time* and cooperative processes.  Each
simulated MPI rank (and each internal progress coroutine, e.g. a
non-blocking collective) is a Python generator driven by the engine.
Processes yield *syscalls* — small command objects — and the engine
resumes them when the corresponding virtual-time event fires.

Only three syscalls exist at this level; everything else (message
matching, collectives, streams, I/O) is composed on top of them in
higher layers with ``yield from``:

``Delay(dt)``
    Resume the process ``dt`` virtual seconds from now.

``WaitFlag(flag)``
    Block until :class:`EventFlag` ``flag`` is set; resume at the set
    time (or immediately if already set).

``Spawn(gen)``
    Start a child process running generator ``gen`` concurrently; the
    yielding process resumes immediately with the child's
    :class:`ProcessHandle` as the value of the ``yield`` expression.

The design follows the classic event-heap pattern: a single
``(time, seq)``-ordered heap of callbacks guarantees deterministic
replay for a fixed seed and fixed process program order, which the
benchmark harness relies on.

Hot-path design (see DESIGN.md §8): syscall dispatch is keyed on the
exact class object rather than ``isinstance`` chains; every process
carries one preallocated resumer callback so Delay wake-ups allocate
nothing; ``blocked_on`` stores the blocking syscall object and is only
formatted into a human-readable string when a
:class:`~repro.simmpi.errors.DeadlockError` actually fires.  The
pre-optimization engine is preserved verbatim as
:class:`repro.simmpi.oracle.OracleEngine`; replay tests assert both
drain identical event sequences.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from .errors import FaultSignal


class Delay:
    """Syscall: resume the calling process after ``dt`` virtual seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        self.dt = float(dt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Delay({self.dt:.6g})"


class EventFlag:
    """A one-shot level-triggered flag processes can block on.

    ``set()`` records the virtual time of the event and wakes every
    waiter.  Waiters that arrive after the flag is set resume without
    blocking.  A payload can be attached for the waker to communicate a
    value (e.g. a matched message) to the waiter.

    ``label`` may be a string or a tuple of parts; tuples are joined
    lazily by :func:`format_label` so hot paths never pay for a
    diagnostic f-string that is only read when something deadlocks.
    """

    __slots__ = ("is_set", "time", "payload", "_waiters", "label")

    def __init__(self, label: Any = ""):
        self.is_set = False
        self.time: float = 0.0
        self.payload: Any = None
        self._waiters: List["_Process"] = []
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self.is_set else "unset"
        return f"EventFlag({format_label(self.label)!r}, {state})"


def format_label(label: Any) -> str:
    """Render a lazy label (string, or tuple of stringifiable parts)."""
    if type(label) is tuple:
        return "".join(map(str, label))
    return str(label)


class WaitFlag:
    """Syscall: block the calling process until ``flag`` is set."""

    __slots__ = ("flag",)

    def __init__(self, flag: EventFlag):
        self.flag = flag


class Spawn:
    """Syscall: start ``gen`` as a concurrent child process.

    ``daemon`` children do not keep the simulation alive and are not
    reported as deadlocked if still blocked when the heap drains (used
    for helper coroutines like ``waitany`` watchers).
    """

    __slots__ = ("gen", "name", "daemon")

    def __init__(self, gen: Generator, name: str = "child", daemon: bool = False):
        self.gen = gen
        self.name = name
        self.daemon = daemon


# Heap entries are plain (time, seq, callback) tuples: the unique ``seq``
# tiebreaker guarantees the callback is never compared, and C-level tuple
# comparison is ~3x faster than a dataclass __lt__ in the hot heappop path.
_HeapEntry = Tuple[float, int, Callable[[], None]]


class ProcessHandle:
    """Public view of a spawned process: completion flag + return value."""

    __slots__ = ("name", "done_flag", "value", "error")

    def __init__(self, name: str):
        self.name = name
        self.done_flag = EventFlag(label=("done:", name))
        self.value: Any = None
        self.error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self.done_flag.is_set


class _Process:
    """Internal per-generator bookkeeping.

    ``resume`` is the preallocated no-payload resumer: one
    ``partial(engine._step, proc, None)`` created at spawn time and
    reused by every Delay wake-up and the initial step, so the hot path
    never allocates a closure — and the partial dispatches at C level,
    without an intermediate Python frame.
    """

    __slots__ = ("gen", "handle", "blocked_on", "engine", "daemon", "resume")

    def __init__(self, gen: Generator, handle: ProcessHandle, engine: "Engine",
                 daemon: bool = False):
        self.gen = gen
        self.handle = handle
        self.blocked_on: Any = "start"
        self.engine = engine
        self.daemon = daemon
        self.resume = partial(engine._step, self, None)

    def blocked_label(self) -> str:
        """Human-readable description of what this process is blocked in.

        ``blocked_on`` holds the blocking syscall object (or one of the
        sentinel strings ``start``/``done``/``error``); formatting is
        deferred to here so the scheduling hot path never builds
        diagnostic strings.
        """
        b = self.blocked_on
        cls = b.__class__
        if cls is Delay:
            return f"delay({b.dt:.3g})"
        if cls is WaitFlag:
            return f"wait({format_label(b.flag.label)})"
        return str(b)


class Engine:
    """Deterministic discrete-event scheduler with a virtual clock.

    Determinism: events at equal times fire in insertion order (the
    ``seq`` tiebreaker), and process wakeups go through the same heap,
    so a run is a pure function of the process programs and their RNG
    seeds.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq: int = 0
        self._live: int = 0
        self._procs: List[_Process] = []
        #: handle -> process index (identity-keyed; ProcessHandle has no
        #: __eq__) so kill() is O(1) instead of a scan over every rank
        self._proc_of_handle: dict = {}
        self.max_events: Optional[int] = None
        self._events_fired: int = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at virtual ``time``.

        Times in the past are clamped to *now*: an event can never
        rewind the clock (this arises when e.g. a message's modeled
        arrival precedes the receiver's current time after contention).
        """
        if time < self.now:
            time = self.now
        self._seq += 1
        _heappush(self._heap, (time, self._seq, callback))

    def call_after(self, dt: float, callback: Callable[[], None]) -> None:
        self.call_at(self.now + dt, callback)

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "proc",
              daemon: bool = False) -> ProcessHandle:
        """Register ``gen`` as a process; it takes its first step at the
        current virtual time (via the heap, preserving global ordering)."""
        handle = ProcessHandle(name)
        proc = _Process(gen, handle, self, daemon=daemon)
        self._procs.append(proc)
        self._proc_of_handle[handle] = proc
        if not daemon:
            self._live += 1
        self._seq += 1
        _heappush(self._heap, (self.now, self._seq, proc.resume))
        return handle

    def kill(self, handle: ProcessHandle, error: Optional[BaseException] = None
             ) -> bool:
        """Terminate the process behind ``handle`` at the current virtual
        time (the fault injector's crash primitive).

        The generator is closed (its ``finally`` blocks run), the process
        stops counting toward liveness, and its done flag is set *now* so
        ``finish_times`` records the crash time.  ``handle.error`` carries
        ``error`` (e.g. a :class:`~repro.simmpi.errors.ProcessFailedError`)
        for post-mortem inspection.  Returns False if the process had
        already finished.  Stale wake-ups of a killed process (a Delay
        still in the heap, a flag it was waiting on) are absorbed by the
        interpreter: resuming a closed generator raises ``StopIteration``,
        which ``_step`` recognizes via the ``"killed"`` marker and drops
        without touching the bookkeeping a second time.
        """
        proc = self._proc_of_handle.get(handle)
        if proc is None:
            # subclasses with their own spawn (the oracle engine) miss
            # the index; fall back to the scan rather than mis-kill
            for proc in self._procs:
                if proc.handle is handle:
                    break
            else:
                raise ValueError(
                    f"kill: unknown process handle {handle.name!r}")
        if proc.blocked_on in ("done", "error", "killed"):
            return False
        proc.gen.close()
        proc.blocked_on = "killed"
        handle.error = error
        if not proc.daemon:
            self._live -= 1
        # purge the process's scheduled resumptions (a pending Delay
        # wake-up would otherwise drag the clock out to its fire time).
        # In place: run() holds a local reference to the heap list.
        # heapify preserves the (time, seq) total order.
        heap = self._heap
        filtered = [e for e in heap if e[2] is not proc.resume]
        if len(filtered) != len(heap):
            from heapq import heapify
            heap[:] = filtered
            heapify(heap)
        self.set_flag(handle.done_flag, None)
        return True

    def set_flag(self, flag: EventFlag, payload: Any = None) -> None:
        """Set ``flag`` at the current virtual time and wake all waiters.

        All waiters are woken by a *single* scheduled callback that
        steps them in FIFO (wait-arrival) order.  This is
        observationally identical to the one-event-per-waiter scheme —
        the per-waiter events were pushed with consecutive heap
        sequence numbers, so nothing could ever interleave between
        them — but costs one heap event instead of N.
        """
        if flag.is_set:
            return
        flag.is_set = True
        flag.time = self.now
        flag.payload = payload
        waiters = flag._waiters
        if not waiters:
            return
        flag._waiters = []
        if len(waiters) == 1:
            if payload is None:
                # identical to partial(_step, proc, None): reuse the
                # process's preallocated resumer
                callback = waiters[0].resume
            else:
                callback = partial(self._step, waiters[0], payload)
        elif payload is None:
            # `resume()` is `_step(proc, None)`
            def callback() -> None:
                for proc in waiters:
                    proc.resume()
        else:
            def callback() -> None:
                step = self._step
                for proc in waiters:
                    step(proc, payload)
        self._seq += 1
        _heappush(self._heap, (self.now, self._seq, callback))

    # ------------------------------------------------------------------
    # the interpreter loop
    # ------------------------------------------------------------------
    def _step(self, proc: _Process, sendval: Any) -> None:
        """Advance one process by one syscall.

        Dispatch is keyed on the syscall's exact class (no ``isinstance``
        chain); Delay resumptions reuse ``proc.resume`` instead of
        allocating a fresh closure per event.
        """
        send = proc.gen.send
        heap = self._heap
        while True:
            try:
                cmd = send(sendval)
            except StopIteration as stop:
                if proc.blocked_on == "killed":
                    # stale wake-up of a crashed process (its generator
                    # is closed); kill() already did the bookkeeping
                    return
                proc.handle.value = stop.value
                proc.blocked_on = "done"
                if not proc.daemon:
                    self._live -= 1
                self.set_flag(proc.handle.done_flag, stop.value)
                return
            except BaseException as exc:  # propagate to run()
                proc.handle.error = exc
                proc.blocked_on = "error"
                if not proc.daemon:
                    self._live -= 1
                self.set_flag(proc.handle.done_flag, None)
                raise
            cls = cmd.__class__
            if cls is Delay:
                proc.blocked_on = cmd
                self._seq += 1
                _heappush(heap, (self.now + cmd.dt, self._seq, proc.resume))
                return
            if cls is WaitFlag:
                flag = cmd.flag
                if flag.is_set:
                    # already satisfied: continue synchronously at `now`
                    sendval = flag.payload
                    continue
                proc.blocked_on = cmd
                flag._waiters.append(proc)
                return
            if cls is Spawn:
                sendval = self.spawn(cmd.gen, cmd.name, daemon=cmd.daemon)
                continue
            raise TypeError(
                f"process {proc.handle.name!r} yielded unsupported syscall "
                f"{cmd!r}; expected Delay/WaitFlag/Spawn"
            )

    def run(self) -> float:
        """Drain the event heap; return the final virtual time.

        Raises :class:`~repro.simmpi.errors.DeadlockError` when processes
        remain blocked after the heap empties, listing each stuck process
        and the primitive it is blocked in.
        """
        from .errors import DeadlockError

        heap = self._heap
        pop = _heappop
        budget = self.max_events
        if budget is None:
            budget = float("inf")
        fired = self._events_fired
        now = self.now
        try:
            while heap:
                entry = pop(heap)
                fired += 1
                if fired > budget:
                    raise RuntimeError(
                        f"event budget exceeded ({self.max_events} events); "
                        "likely a livelock in a simulated protocol"
                    )
                # callbacks never rewind the clock; `now` mirrors
                # self.now so the compare is a local read
                time_ = entry[0]
                if time_ > now:
                    now = time_
                    self.now = time_
                entry[2]()
        finally:
            self._events_fired = fired
        if self._live > 0:
            blocked = {
                p.handle.name: p.blocked_label()
                for p in self._procs
                if not p.daemon
                and p.blocked_on not in ("done", "error", "killed")
            }
            raise DeadlockError(blocked)
        return self.now

    @property
    def events_fired(self) -> int:
        return self._events_fired


def delay(dt: float) -> Generator[Delay, None, None]:
    """Convenience coroutine: ``yield from delay(dt)``."""
    yield Delay(dt)


def wait_flag(flag: EventFlag) -> Generator[WaitFlag, None, Any]:
    """Convenience coroutine: block on ``flag`` and return its payload."""
    payload = yield WaitFlag(flag)
    return payload


def wait_any(engine: Engine, flags) -> Generator[Any, Any, Tuple[int, Any]]:
    """Block until the first of ``flags`` (EventFlags or requests) is
    set; return ``(index, payload)``.

    An already-set flag wins at once, lowest index first.  Otherwise
    one daemon watcher per flag waits on it, so a flag that never fires
    cannot deadlock the run.  A payload that is a fault poison
    (:class:`~repro.simmpi.errors.FaultSignal`) raises its error.
    """
    for i, flag in enumerate(flags):
        if flag.is_set:
            payload = flag.payload
            if payload.__class__ is FaultSignal:
                raise payload.error
            return i, payload
    any_flag = EventFlag(label="waitany")

    def watcher(idx: int, flag: EventFlag) -> Generator[Any, Any, None]:
        payload = yield WaitFlag(flag)
        if not any_flag.is_set:
            engine.set_flag(any_flag, (idx, payload))

    for i, flag in enumerate(flags):
        yield Spawn(watcher(i, flag), name="waitany-helper", daemon=True)
    idx, payload = yield WaitFlag(any_flag)
    if payload.__class__ is FaultSignal:
        raise payload.error
    return idx, payload
