"""The single run entry point of the declarative front-end.

``Simulation`` bundles the platform knobs (machine preset, process
count, tracing, noise) once, then runs either a :class:`~repro.api.
graph.StreamGraph` or a plain rank program::

    sim = Simulation(64, machine="beskow", trace=True)
    report = sim.run(graph)                     # declarative graph
    report = sim.run(worker, args=(cfg,))       # existing rank program

Both paths return a :class:`~repro.api.report.Report`; the low-level
:func:`repro.simmpi.run` surface stays available for finer control.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Union

from ..core.model import auto_size_plan
from ..mpistream.channel import blocked_fan_in
from ..simmpi.config import (
    PRESETS as MACHINE_PRESETS,
    MachineConfig,
    NoiseConfig,
    TopologyConfig,
    quiet_testbed,
    resolve_topology,
)
from ..simmpi.errors import PlacementError
from ..simmpi.placement import (
    PLAN_PLACEMENTS,
    PlacementPolicy,
    resolve_placement,
)
from ..simmpi.launcher import run
from .errors import GraphError
from .graph import CompiledGraph, StreamGraph
from .report import Report


def plan_placement(kind: str, plan) -> PlacementPolicy:
    """Build a group-aware placement policy from a validated
    :class:`~repro.core.groups.DecouplingPlan`'s rank blocks."""
    factory = PLAN_PLACEMENTS.get(kind)
    if factory is None:
        raise GraphError(
            f"unknown plan placement {kind!r}; "
            f"choose from {sorted(PLAN_PLACEMENTS)}")
    blocks = [(name, spec.first_rank, spec.size)
              for name, spec in plan.groups.items()]
    return factory(blocks)


def _resolve_machine(machine: Union[None, str, MachineConfig],
                     noise: Union[None, bool, int, NoiseConfig]
                     ) -> MachineConfig:
    if machine is None:
        cfg = quiet_testbed()
    elif isinstance(machine, str):
        factory = MACHINE_PRESETS.get(machine)
        if factory is None:
            raise GraphError(
                f"unknown machine preset {machine!r}; choose from "
                f"{sorted(MACHINE_PRESETS)} or pass a MachineConfig")
        cfg = factory()
    elif isinstance(machine, MachineConfig):
        cfg = machine
    else:
        raise GraphError(
            f"machine must be a preset name or MachineConfig, "
            f"got {type(machine).__name__}")

    if noise is None or noise is True:
        return cfg
    if noise is False:
        return cfg.with_(noise=replace(
            cfg.noise, persistent_skew=0.0, quantum_fraction=0.0))
    if isinstance(noise, NoiseConfig):
        return cfg.with_(noise=noise)
    if isinstance(noise, int):
        return cfg.with_(noise=replace(cfg.noise, seed=noise))
    raise GraphError(
        f"noise must be None, a bool, a seed or a NoiseConfig, "
        f"got {type(noise).__name__}")


class Simulation:
    """One simulated platform + process count, ready to run work."""

    def __init__(self, nprocs: int,
                 machine: Union[None, str, MachineConfig] = None, *,
                 trace: bool = False,
                 noise: Union[None, bool, int, NoiseConfig] = None,
                 topology: Union[None, str, TopologyConfig] = None,
                 placement: Union[None, str, PlacementPolicy] = None,
                 faults=None,
                 max_events: Optional[int] = None):
        """
        Parameters
        ----------
        nprocs:
            Number of simulated processes.
        machine:
            Platform: a :class:`~repro.simmpi.config.MachineConfig`, a
            preset name (``"beskow"``, ``"quiet"``, ``"ideal"``) or
            None for the quiet testbed.
        trace:
            Record a :class:`~repro.trace.recorder.Tracer`, enabling the
            report's overlap/idle/imbalance analyses.
        noise:
            Noise override: ``False`` silences the machine's noise
            model, an ``int`` reseeds it, a :class:`~repro.simmpi.
            config.NoiseConfig` replaces it, ``None`` keeps the preset.
        topology:
            Fabric override: a kind name (``"flat"``, ``"fat_tree"``,
            ``"dragonfly"``) or a :class:`~repro.simmpi.config.
            TopologyConfig`; ``None`` keeps the machine's fabric.
        placement:
            Rank→node override: ``"block"``, ``"round_robin"``, a
            :class:`~repro.simmpi.placement.PlacementPolicy`, or —
            when running a :class:`StreamGraph` — ``"colocated"`` /
            ``"partitioned"``, which are built from the compiled
            plan's group blocks automatically.
        faults:
            Deterministic fault injection: a :class:`~repro.faults.
            plan.FaultPlan` or its JSON dict (None = fault-free).
            Crash ranks may be negative (``-1`` = last rank).
        max_events:
            Safety budget on engine events (livelock guard).
        """
        if nprocs <= 0:
            raise GraphError("nprocs must be positive")
        self.nprocs = nprocs
        if faults is not None:
            from ..faults.plan import FaultError, resolve_faults
            try:
                faults = resolve_faults(faults)
            except FaultError as exc:
                raise GraphError(str(exc)) from exc
        self.faults = faults
        machine_cfg = _resolve_machine(machine, noise)
        if topology is not None:
            try:
                machine_cfg = machine_cfg.with_(
                    topology=resolve_topology(topology))
            except ValueError as exc:
                raise GraphError(str(exc)) from exc
        #: placement deferred until run(): colocated/partitioned need
        #: the compiled graph's plan to know the group rank blocks
        self._plan_placement = (placement
                                if isinstance(placement, str)
                                and placement in PLAN_PLACEMENTS else None)
        if placement is not None and self._plan_placement is None:
            try:
                machine_cfg = machine_cfg.with_(
                    placement=resolve_placement(placement))
            except PlacementError as exc:
                raise GraphError(str(exc)) from exc
        self.machine = machine_cfg
        self.trace = trace
        self.max_events = max_events

    # ------------------------------------------------------------------
    def run(self, target: Union[StreamGraph, CompiledGraph, Callable], *,
            args: tuple = (),
            rank_args: Optional[Callable[[int], tuple]] = None) -> Report:
        """Run a :class:`StreamGraph` (compiling it for this machine) or
        a plain generator rank program ``fn(comm, *args)``."""
        if isinstance(target, (StreamGraph, CompiledGraph)):
            if args or rank_args is not None:
                raise GraphError(
                    "args/rank_args apply to rank programs; parameterize "
                    "a StreamGraph through its stage bodies instead")
            return self._run_graph(target)
        if callable(target):
            return self._run_program(target, args, rank_args)
        raise GraphError(
            f"cannot run {type(target).__name__}; pass a StreamGraph "
            "or a generator rank program")

    # ------------------------------------------------------------------
    def _compiled(self, target: Union[StreamGraph, CompiledGraph]
                  ) -> CompiledGraph:
        compiled = (target if isinstance(target, CompiledGraph)
                    else target.compile(self.nprocs))
        if compiled.total_procs != self.nprocs:
            raise GraphError(
                f"graph compiled for {compiled.total_procs} processes, "
                f"simulation has {self.nprocs}")
        return compiled

    def _run_graph(self, target: Union[StreamGraph, CompiledGraph]) -> Report:
        compiled = self._compiled(target)

        def main(comm):
            record = yield from compiled.execute(comm)
            return record

        machine = self.machine
        if self._plan_placement is not None:
            machine = machine.with_(placement=plan_placement(
                self._plan_placement, compiled.plan))
        sim = run(main, self.nprocs, machine=machine,
                  trace=self.trace, max_events=self.max_events,
                  faults=self.faults)
        return Report(sim=sim, plan=compiled.plan,
                      records=list(sim.values))

    def explain(self, target: Union[StreamGraph, CompiledGraph]) -> str:
        """How ``target`` runs on this simulation: one line per group
        (rank block, size), one per flow (its channel's member count,
        fan-in, window, routing or checkpoint), and the Eq. 2 sizing
        line of :func:`~repro.core.model.auto_size_plan` for this
        machine."""
        compiled = self._compiled(target)
        graph, plan = compiled.graph, compiled.plan
        lines = [f"{graph.name!r} on {plan.total_procs} procs, "
                 f"machine {self.machine.name!r}"]
        for name, g in plan.groups.items():
            lines.append(f"  group {name}: ranks {g.first_rank}.."
                         f"{g.first_rank + g.size - 1}, size {g.size}")
        for f in graph.flows:
            if f.router is not None:
                routing = "per-element routing"
            else:
                counts = blocked_fan_in(plan.groups[f.src].size,
                                        plan.groups[f.dst].size)
                lo, hi = int(min(counts)), int(max(counts))
                fan_in = f"{lo}" if lo == hi else f"{lo}..{hi}"
                routing = f"fan-in {fan_in} per consumer, blocked routing"
            members = len(plan.flow_ranks(f.name))
            line = (f"  flow {f.name}: {f.src} -> {f.dst}, channel over "
                    f"{members} ranks, {routing}, window {f.window}")
            if f.checkpoint is not None:
                line += f", checkpoint every {f.checkpoint.interval} elements"
            lines.append(line)
        _, notes = auto_size_plan(graph, plan, machine=self.machine)
        lines += [f"  sizing: {note}" for note in notes]
        return "\n".join(lines)

    def couple(self, graph_a: StreamGraph, graph_b: StreamGraph, *,
               hub=None, port_a: str, port_b: str,
               nprocs_a: Optional[int] = None) -> Report:
        """Run two stream graphs coupled through a translator hub.

        The world is split ``[A ranks | hub ranks | B ranks]``; each
        graph runs on its own sub-communicator and the two exchange
        elements through the hub's receive → transform → send stage
        (see :mod:`repro.cosim`).  ``hub`` is a
        :class:`~repro.cosim.HubSpec`, its mapping form, or None for
        the defaults; ``port_a``/``port_b`` name the stage of each
        graph that talks to the hub; ``nprocs_a`` overrides the even
        split of the non-hub ranks.
        """
        from ..cosim import CosimError, plan_layout, run_coupled
        if self._plan_placement is not None:
            raise GraphError(
                f"placement {self._plan_placement!r} derives group blocks "
                "from a single StreamGraph's plan; coupled runs need an "
                "explicit PlacementPolicy")
        try:
            layout = plan_layout(self.nprocs, hub, graph_a, graph_b,
                                 port_a, port_b, nprocs_a)
        except CosimError as exc:
            raise GraphError(str(exc)) from exc

        def main(comm):
            record = yield from run_coupled(
                comm, graph_a, graph_b, layout.hub,
                port_a=port_a, port_b=port_b, nprocs_a=layout.nprocs_a)
            return record

        sim = run(main, self.nprocs, machine=self.machine,
                  trace=self.trace, max_events=self.max_events,
                  faults=self.faults)
        return Report(sim=sim)

    def _run_program(self, fn: Callable, args: tuple,
                     rank_args: Optional[Callable[[int], tuple]]) -> Report:
        if self._plan_placement is not None:
            raise GraphError(
                f"placement {self._plan_placement!r} derives group blocks "
                "from a StreamGraph's plan; rank programs need an explicit "
                "PlacementPolicy (e.g. ColocatedPlacement(groups))")
        sim = run(fn, self.nprocs, machine=self.machine, args=args,
                  rank_args=rank_args, trace=self.trace,
                  max_events=self.max_events, faults=self.faults)
        return Report(sim=sim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Simulation(nprocs={self.nprocs}, "
                f"machine={self.machine.name!r}, trace={self.trace})")
