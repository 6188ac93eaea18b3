"""``repro.api`` — the declarative front-end over the decoupling stack.

One high-level surface that compiles user intent down to the existing
layers (`simmpi` communicators, `mpistream` channels/streams, `core`
plans, `trace` analysis):

* :class:`StreamGraph` — declare stages and flows fluently; compiles to
  a validated :class:`~repro.core.groups.DecouplingPlan` plus
  deterministic channel/stream wiring.
* :class:`Simulation` — the single run entry point: pick a machine,
  process count, tracing and noise once; run graphs or plain rank
  programs.
* :class:`~repro.api.handles.StageContext` with context-manager
  producer/consumer handles — the ``terminate``/``free`` protocol is
  applied automatically, so it cannot be forgotten.
* :class:`Report` — merged :class:`~repro.simmpi.launcher.SimResult`,
  per-flow stream profiles and trace overlap analysis.

The low-level API (``repro.simmpi.run``, ``repro.mpistream.attach`` /
``create_channel``) remains the "for finer control" layer; inside a
graph, ``StageContext.channel(flow)`` is the escape hatch.
"""

from .errors import GraphError
from .graph import CompiledGraph, FlowDef, StageDef, StreamGraph
from .handles import (
    ConsumerHandle,
    ProducerHandle,
    StageContext,
    StageRecord,
)
from .report import Report
from .simulation import MACHINE_PRESETS, Simulation, plan_placement

__all__ = [
    "CompiledGraph", "ConsumerHandle", "FlowDef", "GraphError",
    "MACHINE_PRESETS", "ProducerHandle", "Report", "Simulation",
    "StageContext", "StageDef", "StageRecord", "StreamGraph",
    "plan_placement",
]
