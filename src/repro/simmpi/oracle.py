"""The pre-optimization slow path, preserved verbatim as an oracle.

PR 2 rebuilt the simulator's hot loops (type-keyed syscall dispatch,
preallocated resumers, indexed mailboxes, flat NIC timelines).  The
optimizations are only admissible because they are *observationally
equivalent*: a simulation must produce bit-identical virtual-time
results — final times, message counts, per-rank values — on either
path.  This module keeps the original implementations alive so that
equivalence stays checkable forever:

:class:`OracleEngine`
    The seed engine loop: ``isinstance`` syscall chains, one closure
    per scheduled resumption, eagerly formatted ``blocked_on``
    diagnostics, and one heap event per woken waiter.

:class:`OracleNetwork`
    The seed network model: dict-based NIC timelines and per-call
    ``(latency, bandwidth)`` resolution through the config object.

:data:`LinearMailbox`
    Re-exported from :mod:`repro.simmpi.matching`: the linear-scan
    matching oracle.

``repro.bench.perf`` runs whole scenarios against this trio (via the
``engine_factory`` / ``mailbox_factory`` / ``network_factory``
injection points on :func:`repro.simmpi.launcher.run`) and asserts the
fast path reproduces the oracle's virtual-time results exactly; the
same pairing yields the before/after events-per-second comparison in
``BENCH_perf.json``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

from .config import MachineConfig
from .engine import (
    Delay,
    Engine,
    EventFlag,
    ProcessHandle,
    Spawn,
    WaitFlag,
    _Process,
    format_label,
)
from .errors import OracleConfigError
from .matching import LinearMailbox  # noqa: F401  (re-export)
from .network import TransferTiming
from .placement import BlockPlacement


class OracleEngine(Engine):
    """The seed scheduler, kept cycle-for-cycle faithful.

    Every override below is the pre-optimization implementation
    (modulo the lazy-label formatting needed to coexist with the new
    :class:`~repro.simmpi.engine.EventFlag`).  Virtual-time behaviour
    is identical to :class:`~repro.simmpi.engine.Engine` — replay tests
    assert it — only the per-event Python cost differs.
    """

    def spawn(self, gen: Generator, name: str = "proc",
              daemon: bool = False) -> ProcessHandle:
        handle = ProcessHandle(name)
        proc = _Process(gen, handle, self, daemon=daemon)
        self._procs.append(proc)
        if not daemon:
            self._live += 1
        self.call_at(self.now, lambda: self._step(proc, None))
        return handle

    def set_flag(self, flag: EventFlag, payload: Any = None) -> None:
        """Seed behaviour: one heap event per waiter (the fast path
        wakes all waiters through a single callback)."""
        if flag.is_set:
            return
        flag.is_set = True
        flag.time = self.now
        flag.payload = payload
        waiters, flag._waiters = flag._waiters, []
        for proc in waiters:
            self.call_at(self.now, lambda p=proc, f=flag: self._step(p, f.payload))

    def _step(self, proc: _Process, sendval: Any) -> None:
        """Seed interpreter: isinstance chains and per-event closures."""
        while True:
            try:
                cmd = proc.gen.send(sendval)
            except StopIteration as stop:
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
            if isinstance(cmd, Delay):
                # the seed formatted diagnostics eagerly on every block
                # — part of the cost this oracle preserves
                proc.blocked_on = f"delay({cmd.dt:.3g})"
                self.call_after(cmd.dt, lambda p=proc: self._step(p, None))
                return
            if isinstance(cmd, WaitFlag):
                flag = cmd.flag
                if flag.is_set:
                    sendval = flag.payload
                    continue
                proc.blocked_on = f"wait({format_label(flag.label)})"
                flag._waiters.append(proc)
                return
            if isinstance(cmd, Spawn):
                sendval = self.spawn(cmd.gen, cmd.name, daemon=cmd.daemon)
                continue
            raise TypeError(
                f"process {proc.handle.name!r} yielded unsupported syscall "
                f"{cmd!r}; expected Delay/WaitFlag/Spawn"
            )

    def run(self) -> float:
        """Seed drain loop (per-event attribute traffic and all)."""
        from .errors import DeadlockError

        import heapq
        heap = self._heap
        while heap:
            time_, _seq, callback = heapq.heappop(heap)
            self._events_fired += 1
            if self.max_events is not None and self._events_fired > self.max_events:
                raise RuntimeError(
                    f"event budget exceeded ({self.max_events} events); "
                    "likely a livelock in a simulated protocol"
                )
            if time_ > self.now:
                self.now = time_
            callback()
        if self._live > 0:
            blocked = {
                p.handle.name: p.blocked_label()
                for p in self._procs
                if not p.daemon and p.blocked_on not in ("done", "error")
            }
            raise DeadlockError(blocked)
        return self.now


class OracleNetwork:
    """The seed network model: dict NIC timelines, per-call config digs.

    It predates fabrics and placement policies, so it refuses a machine
    whose topology is not flat or whose placement is not block rather
    than silently timing a different machine.
    """

    def __init__(self, config: MachineConfig, nranks: int):
        import math
        if config.topology.kind != "flat":
            raise OracleConfigError(
                f"OracleNetwork models the flat fabric only, not "
                f"{config.topology.kind!r}; inject only the engine and "
                "mailbox oracles to keep the machine's fabric")
        if config.placement is not None \
                and not isinstance(config.placement, BlockPlacement):
            raise OracleConfigError(
                f"OracleNetwork maps ranks to nodes by block placement "
                f"only, not {config.placement.name!r}")
        self.config = config
        self.nranks = nranks
        self._tx_free: Dict[int, float] = {}
        self._rx_free: Dict[int, float] = {}
        net = config.network
        if nranks > net.dilation_base and net.fabric_dilation > 0:
            dil = 1.0 + net.fabric_dilation * math.log2(nranks / net.dilation_base)
        else:
            dil = 1.0
        self._dilation = dil
        # statistics
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """The seed's block rule: ranks fill nodes contiguously."""
        return rank // self.config.ranks_per_node

    def _link(self, src: int, dst: int) -> Tuple[float, float]:
        """(latency, bandwidth) for the src->dst pair."""
        net = self.config.network
        if src == dst:
            # self-send: memcpy-like
            return (0.0, net.intra_node_bandwidth)
        if self.node_of(src) == self.node_of(dst):
            return (net.intra_node_latency, net.intra_node_bandwidth)
        return (net.latency * self._dilation, net.bandwidth)

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> TransferTiming:
        """Seed timing computation, unchanged."""
        if nbytes < 0:
            raise ValueError("negative message size")
        latency, bandwidth = self._link(src, dst)
        serial = nbytes / bandwidth
        inject_start = max(ready, self._tx_free.get(src, 0.0))
        sender_free = inject_start + serial
        self._tx_free[src] = sender_free
        arrival = sender_free + latency
        delivered = max(arrival, self._rx_free.get(dst, 0.0)) + (
            serial if src != dst else 0.0
        )
        # rx occupancy only for the wire transfer; self-sends don't queue.
        if src != dst:
            self._rx_free[dst] = delivered
        self.messages_sent += 1
        self.bytes_sent += nbytes
        return TransferTiming(inject_start, sender_free, arrival, delivered)

    # ------------------------------------------------------------------
    def overheads(self) -> Tuple[float, float]:
        net = self.config.network
        return (net.o_send, net.o_recv)

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.config.network.eager_threshold

    def dilation(self) -> float:
        return self._dilation


#: the full slow-path trio, ready to unpack into launcher.run(...)
SLOW_PATH = dict(engine_factory=OracleEngine,
                 mailbox_factory=LinearMailbox,
                 network_factory=OracleNetwork)
