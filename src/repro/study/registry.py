"""Registries that make job specs executable: apps, extractors, machines.

A job spec is plain data, so everything it names must be resolvable by
name in *any* process — the study runner's pool workers included.
Three registries do that:

* **apps** — ``"mapreduce.decoupled"`` → an :class:`AppSpec`: the rank
  program (worker generator), its config dataclass, and (when the app
  compiles a :class:`~repro.api.StreamGraph`) a plan builder for the
  group-aware placements.
* **extractors** — ``"max_elapsed"`` / ``{"name": "max_field", "field":
  "io_time", "role": "mover", "scale": 15.0}`` → the scalar a cell
  reports.  Every extractor accepts an optional ``scale`` factor (the
  figures report paper-length runs by linear extrapolation).
* **machine specs** — ``{"preset": "beskow", "topology": {...},
  "placement": {"policy": "colocated", "from_plan": true}, "noise":
  {...}}`` → a :class:`~repro.simmpi.config.MachineConfig`, built via
  the config layer's JSON round-trip.  ``from_plan`` placements derive
  their group blocks from the app's compiled plan — exactly what
  :class:`repro.api.Simulation` does for graph runs.

``register_app`` / ``register_extractor`` extend the registries; the
built-ins cover the paper's three case studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..simmpi.config import (
    PRESETS,
    MachineConfig,
    NoiseConfig,
    TopologyConfig,
    resolve_topology,
)
from ..simmpi.errors import PlacementError
from ..simmpi.placement import PLAN_PLACEMENTS, placement_from_json
from .study import StudyError

__all__ = [
    "APPS",
    "AppSpec",
    "EXTRACTORS",
    "apply_extract",
    "build_config",
    "build_machine",
    "get_app",
    "register_app",
    "register_extractor",
    "validate_app",
    "validate_extract",
    "validate_machine_spec",
]

#: keys a machine spec may carry.  "faults" and "cosim" are not part of
#: the MachineConfig — faults resolve to a FaultPlan handed to the
#: launcher, cosim to a HubSpec handed to the app's worker — but riding
#: in the machine spec means every cache key incorporates the fault
#: scenario and coupling spec automatically (the spec is hashed
#: verbatim).
_MACHINE_KEYS = ("preset", "config", "noise", "topology", "placement",
                 "ranks_per_node", "compute_speed", "faults", "cosim")


# ----------------------------------------------------------------------
# apps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AppSpec:
    """One runnable application: worker + config class (+ plan)."""

    name: str
    worker: Callable
    config_cls: type
    describe: str = ""
    #: cfg -> DecouplingPlan, for ``from_plan`` placements; None for
    #: apps that do not compile a stream graph
    plan_builder: Optional[Callable[[Any], Any]] = None


APPS: Dict[str, AppSpec] = {}


def register_app(spec: AppSpec) -> AppSpec:
    """Add (or replace) an app registry entry; returns it.

    Pool workers resolve apps by re-importing this module, so a
    *runtime* registration travels to ``run_study(jobs>1)`` workers
    only under the ``fork`` start method (Linux default).  For
    spawn-based platforms, register at import time — e.g. in the
    module that defines the worker — or run with ``jobs=1``.
    """
    if not spec.name:
        raise StudyError("app spec needs a name")
    APPS[spec.name] = spec
    return spec


def get_app(name: str) -> AppSpec:
    spec = APPS.get(name)
    if spec is None:
        raise StudyError(
            f"unknown app {name!r}; registered: {sorted(APPS)}")
    return spec


validate_app = get_app


def _mapreduce_plan(cfg) -> Any:
    from ..apps.mapreduce.decoupled import build_graph
    return build_graph(cfg).compile(cfg.nprocs).plan


def _register_builtin_apps() -> None:
    from ..apps.cg import CGConfig, cg_blocking, cg_decoupled, cg_nonblocking
    from ..apps.ipic3d import (
        IPICConfig,
        pcomm_decoupled,
        pcomm_reference,
        pio_decoupled,
        pio_reference,
    )
    from ..apps.mapreduce import (
        MapReduceConfig,
        decoupled_worker,
        reference_worker,
    )
    from ..cosim.apps import CosimConfig, cosim_worker
    from .chaos import ChaosConfig, chaos_worker
    from ..faults.apps import (
        CGHaloRecoveryConfig,
        PcommRecoveryConfig,
        cg_halo_recovery,
        pcomm_recovery,
    )

    for spec in (
        AppSpec("mapreduce.reference", reference_worker, MapReduceConfig,
                "MapReduce word histogram, conventional reduce"),
        AppSpec("mapreduce.decoupled", decoupled_worker, MapReduceConfig,
                "MapReduce word histogram, decoupled reduce group",
                plan_builder=_mapreduce_plan),
        AppSpec("cg.blocking", cg_blocking, CGConfig,
                "CG solver, blocking halo exchange"),
        AppSpec("cg.nonblocking", cg_nonblocking, CGConfig,
                "CG solver, non-blocking halo exchange"),
        AppSpec("cg.decoupled", cg_decoupled, CGConfig,
                "CG solver, decoupled halo group"),
        AppSpec("ipic3d.pcomm_reference", pcomm_reference, IPICConfig,
                "iPIC3D particle communication, neighbour forwarding"),
        AppSpec("ipic3d.pcomm_decoupled", pcomm_decoupled, IPICConfig,
                "iPIC3D particle communication, decoupled exchange"),
        AppSpec("ipic3d.pio_reference", pio_reference, IPICConfig,
                "iPIC3D particle I/O, blocking dump "
                "(args: [collective: bool])"),
        AppSpec("ipic3d.pio_decoupled", pio_decoupled, IPICConfig,
                "iPIC3D particle I/O, decoupled buffered writers"),
        AppSpec("cg.halo_recovery", cg_halo_recovery, CGHaloRecoveryConfig,
                "CG halo funnel with checkpointed stream recovery"),
        AppSpec("ipic3d.pcomm_recovery", pcomm_recovery,
                PcommRecoveryConfig,
                "iPIC3D exit funnel with checkpointed stream recovery"),
        AppSpec("cosim.hub", cosim_worker, CosimConfig,
                "coupled micro/macro simulators through a translator "
                "hub (machine.cosim.* sets the hub knobs)"),
        AppSpec("study.chaos", chaos_worker, ChaosConfig,
                "deterministic misbehaving workload for runner-"
                "resilience studies (fail/exit_code/hang_s)"),
    ):
        register_app(spec)


_register_builtin_apps()


def build_config(spec: AppSpec, nprocs: int, params: Dict[str, Any]) -> Any:
    """Instantiate the app's config for one job."""
    try:
        return spec.config_cls(nprocs=nprocs, **params)
    except (TypeError, ValueError) as exc:
        raise StudyError(
            f"app {spec.name!r}: bad config params {params!r} at "
            f"nprocs={nprocs}: {exc}") from exc


# ----------------------------------------------------------------------
# extractors
# ----------------------------------------------------------------------

def _max_elapsed(result) -> float:
    # crashed ranks (fault-injection runs) report None; the survivors
    # define the figure metric
    vals = [v["elapsed"] for v in result.values if v is not None]
    if not vals:
        raise StudyError("extractor max_elapsed: every rank crashed")
    return max(vals)


def _max_field(result, field: str, role: Optional[str] = None) -> float:
    vals = [v[field] for v in result.values
            if v is not None and (role is None or v.get("role") == role)]
    if not vals:
        raise StudyError(
            f"extractor max_field: no surviving rank has role {role!r}")
    return max(vals)


def _pio_visible(result) -> float:
    """Fig. 8 decoupled metric: end-to-end time minus the movers'
    compute baseline — the particle-I/O cost a user actually observes."""
    movers = [v for v in result.values
              if v is not None and v.get("role") == "mover"]
    if not movers:
        raise StudyError("extractor pio_visible: no mover ranks")
    baseline = max(v["elapsed"] - v["io_time"] for v in movers)
    return max(v["elapsed"] for v in result.values
               if v is not None) - baseline


EXTRACTORS: Dict[str, Callable] = {
    "max_elapsed": _max_elapsed,
    "max_field": _max_field,
    "pio_visible": _pio_visible,
}


def register_extractor(name: str, fn: Callable) -> Callable:
    """Add (or replace) an extractor ``fn(result, **params) -> float``."""
    EXTRACTORS[name] = fn
    return fn


def validate_extract(spec: Any) -> None:
    """Check an extract spec without running anything."""
    if isinstance(spec, str):
        name, params = spec, {}
    elif isinstance(spec, dict):
        spec = dict(spec)
        name = spec.pop("name", None)
        spec.pop("scale", None)
        params = spec
    else:
        raise StudyError(
            f"extract spec must be a name or a dict, got {type(spec).__name__}")
    if name not in EXTRACTORS:
        raise StudyError(
            f"unknown extractor {name!r}; registered: {sorted(EXTRACTORS)}")
    for key in params:
        if not isinstance(key, str):
            raise StudyError(f"extractor param keys must be strings: {key!r}")


def apply_extract(spec: Any, result) -> float:
    """Run an extract spec against a :class:`SimResult`."""
    validate_extract(spec)
    if isinstance(spec, str):
        name, params, scale = spec, {}, 1.0
    else:
        params = dict(spec)
        name = params.pop("name")
        scale = float(params.pop("scale", 1.0))
    try:
        value = EXTRACTORS[name](result, **params)
    except (KeyError, TypeError) as exc:
        raise StudyError(
            f"extractor {name!r} failed with params {params!r}: {exc}"
        ) from exc
    return float(value) * scale


# ----------------------------------------------------------------------
# machine specs
# ----------------------------------------------------------------------

def validate_machine_spec(spec: Optional[Dict[str, Any]],
                          app: AppSpec) -> None:
    """Check a machine spec's shape at declaration time."""
    if spec is None:
        return
    if not isinstance(spec, dict):
        raise StudyError(
            f"machine spec must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - set(_MACHINE_KEYS)
    if unknown:
        raise StudyError(
            f"machine spec has unknown keys {sorted(unknown)}; "
            f"allowed: {list(_MACHINE_KEYS)}")
    if "preset" in spec and "config" in spec:
        raise StudyError("machine spec: give 'preset' or 'config', not both")
    preset = spec.get("preset")
    if preset is not None and preset not in PRESETS:
        raise StudyError(
            f"unknown machine preset {preset!r}; "
            f"choose from {sorted(PRESETS)}")
    faults = spec.get("faults")
    if faults is not None:
        from ..faults.plan import FaultError, resolve_faults
        try:
            resolve_faults(faults)
        except FaultError as exc:
            raise StudyError(f"machine spec faults: {exc}") from exc
    cosim = spec.get("cosim")
    if cosim is not None:
        from ..cosim.spec import CosimError, resolve_hub
        try:
            resolve_hub(cosim)
        except CosimError as exc:
            raise StudyError(f"machine spec cosim: {exc}") from exc
    placement = spec.get("placement")
    if placement is not None:
        if not isinstance(placement, dict):
            raise StudyError("machine spec placement must be a dict")
        if placement.get("from_plan"):
            policy = placement.get("policy")
            # an unresolved bind target may legitimately still be None
            # here; the policy name is re-checked at build time
            if policy is not None and policy not in PLAN_PLACEMENTS:
                raise StudyError(
                    f"from_plan placement must be one of "
                    f"{list(PLAN_PLACEMENTS)}, got {policy!r}")
            if app.plan_builder is None:
                raise StudyError(
                    f"app {app.name!r} compiles no stream graph; "
                    "from_plan placement needs explicit 'groups'")


def build_machine(spec: Optional[Dict[str, Any]], app: AppSpec,
                  cfg: Any) -> MachineConfig:
    """Resolve a job's machine spec into a :class:`MachineConfig`."""
    spec = dict(spec or {})
    validate_machine_spec(spec, app)
    spec.pop("faults", None)   # launcher concern, not a MachineConfig field
    spec.pop("cosim", None)    # worker concern, not a MachineConfig field
    if "config" in spec:
        base = MachineConfig.from_json(spec["config"])
    else:
        base = PRESETS[spec.get("preset", "quiet")]()
    overrides: Dict[str, Any] = {}
    if "ranks_per_node" in spec:
        overrides["ranks_per_node"] = int(spec["ranks_per_node"])
    if "compute_speed" in spec:
        overrides["compute_speed"] = float(spec["compute_speed"])
    if "noise" in spec:
        # partial sub-specs merge OVER the base machine's config — a
        # study that binds only machine.noise.seed must keep the
        # preset's other noise knobs (a quiet preset stays quiet)
        overrides["noise"] = NoiseConfig.from_json(
            {**base.noise.to_json(), **spec["noise"]})
    if "topology" in spec:
        topo = spec["topology"]
        overrides["topology"] = (
            resolve_topology(topo) if isinstance(topo, str)
            else TopologyConfig.from_json(
                {**base.topology.to_json(), **topo}))
    if "placement" in spec:
        overrides["placement"] = _build_placement(spec["placement"], app, cfg)
    if overrides:
        base = base.with_(**overrides)
    base.validate()
    return base


def _build_placement(data: Dict[str, Any], app: AppSpec, cfg: Any):
    if data.get("from_plan"):
        from ..api import plan_placement

        policy = data.get("policy")
        if policy not in PLAN_PLACEMENTS:
            raise StudyError(
                f"from_plan placement must be one of {list(PLAN_PLACEMENTS)}, "
                f"got {policy!r}")
        if app.plan_builder is None:
            raise StudyError(
                f"app {app.name!r} compiles no stream graph; from_plan "
                "placement needs explicit 'groups'")
        return plan_placement(policy, app.plan_builder(cfg))
    try:
        return placement_from_json(data)
    except PlacementError as exc:
        raise StudyError(str(exc)) from exc
