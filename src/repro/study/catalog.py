"""The paper's sweep figures, declared as studies.

Each ``*_study`` builder returns the :class:`~repro.study.study.Study`
whose cells are the figure's lines; :func:`repro.bench.figures` and the
``python -m repro.bench study`` CLI both run these same declarations,
so a figure is one JSON-serializable scenario — cacheable, parallel,
and regenerable point-by-point.

Points default to :func:`repro.bench.harness.scale_points` (the
``REPRO_POINTS``-aware paper axis).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..simmpi.config import TopologyConfig
from .policy import RunPolicy
from .study import Study, StudyError

__all__ = [
    "CATALOG",
    "CG_PAPER_ITERATIONS",
    "IPIC_PAPER_STEPS",
    "cosim_study",
    "fig5_study",
    "fig6_study",
    "fig7_study",
    "fig8_study",
    "get_study",
    "placement_study",
    "recovery_study",
    "resilience_study",
]

#: paper parameters
CG_PAPER_ITERATIONS = 300
IPIC_PAPER_STEPS = 40

#: the paper's platform, as a machine spec
_BESKOW = {"preset": "beskow"}


def _points(points: Optional[Sequence[int]]) -> List[int]:
    if points is not None:
        return list(points)
    from ..bench.harness import scale_points
    return scale_points()


# ----------------------------------------------------------------------
# Fig. 5 — MapReduce weak scaling with alpha sweep
# ----------------------------------------------------------------------

def fig5_study(points: Optional[Sequence[int]] = None,
               alphas: Tuple[float, ...] = (0.125, 0.0625, 0.03125)
               ) -> Study:
    """Reference vs decoupled (three alphas), 2.9 TB-equivalent corpus."""
    return (
        Study("fig5", title="Fig. 5 - MapReduce weak scaling (s)")
        .axis("nprocs", _points(points))
        .axis("alpha", alphas)
        .cell("Reference", app="mapreduce.reference", machine=_BESKOW)
        .cell("Decoupling (a={alpha:.4g})", app="mapreduce.decoupled",
              bind={"alpha": "alpha"}, machine=_BESKOW)
    )


# ----------------------------------------------------------------------
# Fig. 6 — CG solver weak scaling
# ----------------------------------------------------------------------

def fig6_study(points: Optional[Sequence[int]] = None,
               sim_iterations: int = 20) -> Study:
    """Blocking / non-blocking / decoupled CG, 120^3 points per rank,
    reported at the paper's 300 iterations by linear extrapolation."""
    extract = {"name": "max_elapsed",
               "scale": CG_PAPER_ITERATIONS / sim_iterations}
    params = {"iterations": sim_iterations}
    study = Study("fig6", title="Fig. 6 - CG solver weak scaling (s)")
    study.axis("nprocs", _points(points))
    for label, app in (("Reference (Blocking)", "cg.blocking"),
                       ("Reference (Non-blocking)", "cg.nonblocking"),
                       ("Decoupling", "cg.decoupled")):
        study.cell(label, app=app, params=params, extract=extract,
                   machine=_BESKOW)
    return study


# ----------------------------------------------------------------------
# Fig. 7 — iPIC3D particle communication weak scaling
# ----------------------------------------------------------------------

def fig7_study(points: Optional[Sequence[int]] = None,
               sim_steps: int = 8) -> Study:
    """Reference forwarding vs decoupled exchange, GEM setup, reported
    at the paper's step count."""
    factor = IPIC_PAPER_STEPS / sim_steps
    params = {"steps": sim_steps}
    return (
        Study("fig7", title="Fig. 7 - particle communication (s)")
        .axis("nprocs", _points(points))
        .cell("Reference", app="ipic3d.pcomm_reference", params=params,
              extract={"name": "max_elapsed", "scale": factor},
              machine=_BESKOW)
        .cell("Decoupling", app="ipic3d.pcomm_decoupled", params=params,
              extract={"name": "max_field", "field": "elapsed",
                       "role": "mover", "scale": factor},
              machine=_BESKOW)
    )


# ----------------------------------------------------------------------
# Fig. 8 — iPIC3D particle I/O weak scaling
# ----------------------------------------------------------------------

def fig8_study(points: Optional[Sequence[int]] = None,
               sim_steps: int = 8) -> Study:
    """Collective / shared-pointer references vs decoupled buffered I/O.

    The references report the blocking dump time; the decoupled run the
    *visible* cost (the :data:`pio_visible` extractor — streaming
    overhead plus the final drain tail)."""
    params = {"steps": sim_steps}
    io_time = {"name": "max_field", "field": "io_time"}
    return (
        Study("fig8", title="Fig. 8 - particle I/O (s)")
        .axis("nprocs", _points(points))
        .cell("RefColl", app="ipic3d.pio_reference", params=params,
              args=(True,), extract=io_time, machine=_BESKOW)
        .cell("RefShared", app="ipic3d.pio_reference", params=params,
              args=(False,), extract=io_time, machine=_BESKOW)
        .cell("Decoupling", app="ipic3d.pio_decoupled", params=params,
              extract="pio_visible", machine=_BESKOW)
    )


# ----------------------------------------------------------------------
# Placement scenario family — colocated vs partitioned under a fat-tree
# ----------------------------------------------------------------------

def placement_study(points: Optional[Sequence[int]] = None,
                    alpha: float = 0.0625,
                    topology: Optional[TopologyConfig] = None) -> Study:
    """The Fig. 5 reduce funnel, decoupled identically, run once with
    the reduce group colocated on its producers' nodes and once exiled
    to a disjoint node set, on a contended radix-2 fat-tree — the
    decoupling strategy as a *placement* study."""
    topo = topology or TopologyConfig(kind="fat_tree", radix=2)
    return (
        Study("placement",
              title="Placement - colocated vs partitioned on a fat-tree (s)")
        .axis("nprocs", _points(points))
        .axis("mode", ("colocated", "partitioned"))
        .cell("Decoupling ({mode})", app="mapreduce.decoupled",
              params={"alpha": alpha},
              bind={"mode": "machine.placement.policy"},
              machine={"preset": "beskow",
                       "topology": topo.to_json(),
                       "placement": {"from_plan": True}},
              meta={"topology": topo.kind, "alpha": alpha})
    )


# ----------------------------------------------------------------------
# Recovery scenario family — crash a helper rank, measure the cost
# ----------------------------------------------------------------------

def recovery_study(points: Optional[Sequence[int]] = None,
                   crash_time: float = 0.02,
                   checkpoint_interval: int = 32) -> Study:
    """The CG halo funnel with stream-level recovery: one line runs
    fault-free, the other crashes the helper group's tail rank
    (``rank=-1`` resolves per process count) mid-stream and recovers via
    checkpoint restore + un-acked replay on the deterministic successor.

    The two cells differ only in the machine spec's ``faults`` sub-key,
    so their cache entries can never collide — the fault scenario is
    part of every job's content address."""
    faults = {"events": [
        {"kind": "crash", "time": crash_time, "rank": -1}]}
    params = {"checkpoint_interval": checkpoint_interval}
    return (
        Study("recovery",
              title="Recovery - helper crash + replay vs fault-free (s)")
        .axis("nprocs", _points(points))
        .cell("Fault-free", app="cg.halo_recovery", params=params,
              machine=_BESKOW)
        .cell("Crash + recover", app="cg.halo_recovery", params=params,
              machine={"preset": "beskow", "faults": faults},
              meta={"crash_time": crash_time})
    )


# ----------------------------------------------------------------------
# Co-simulation scenario family — hub sensitivity sweep
# ----------------------------------------------------------------------

def cosim_study(points: Optional[Sequence[int]] = None,
                elements_per_producer: int = 24,
                produce_seconds: float = 2e-6) -> Study:
    """The coupled micro/macro pair under a hub-knob sweep: hub size x
    buffer depth x transform cost x scale ratio, each landing in the
    machine spec's ``cosim`` sub-key — so every combination has its own
    cache address, like fault scenarios do.

    The default points are deliberately small (the sweep is 16 cells
    per point); pass ``points`` explicitly for scaling curves."""
    params = {"elements_per_producer": elements_per_producer,
              "produce_seconds": produce_seconds}
    return (
        Study("cosim", title="Co-simulation - hub sensitivity (us)")
        .axis("nprocs", list(points) if points is not None else [12, 20])
        .axis("hub", (1, 2))
        .axis("depth", (2, 8))
        .axis("transform", (0.0, 4e-6))
        .axis("ratio", (1, 4))
        .cell("Hub (H={hub}, depth={depth}, t={transform:g}, 1:{ratio})",
              app="cosim.hub", params=params,
              extract={"name": "max_elapsed", "scale": 1e6},
              bind={"hub": "machine.cosim.size",
                    "depth": "machine.cosim.buffer_depth",
                    "transform": "machine.cosim.transform_seconds",
                    "ratio": "machine.cosim.scale_ratio"},
              machine={"preset": "beskow"})
    )


# ----------------------------------------------------------------------
# Resilience smoke scenario — a healthy sweep plus one poisoned cell
# ----------------------------------------------------------------------

def resilience_study(points: Optional[Sequence[int]] = None,
                     poison_nprocs: int = 4) -> Study:
    """A healthy ``study.chaos`` sweep plus one always-failing cell.

    This is the runner-resilience smoke scenario (the
    ``study-resilience`` CI job runs it): under the study's default
    ``keep_going`` policy the run completes with *exactly one* failed
    cell — the poisoned one, swept over its own single-point axis — and
    a rerun against the same cache serves every healthy cell from it
    while re-executing only the poison.  Healthy values are
    deterministic, so serial, parallel and cached runs agree
    bit-for-bit.
    """
    return (
        Study("resilience",
              title="Resilience - healthy sweep + one poisoned cell (s)")
        .axis("nprocs", _points(points))
        .axis("poison_nprocs", [poison_nprocs])
        .cell("Healthy", app="study.chaos")
        .cell("Poison", app="study.chaos", params={"fail": True},
              x_axis="poison_nprocs",
              meta={"note": "always fails; the runner must survive it"})
        .with_policy(RunPolicy(on_error="keep_going"))
    )


#: name -> study builder(points=None, **kwargs)
CATALOG: Dict[str, Callable[..., Study]] = {
    "fig5": fig5_study,
    "fig6": fig6_study,
    "fig7": fig7_study,
    "fig8": fig8_study,
    "placement": placement_study,
    "recovery": recovery_study,
    "resilience": resilience_study,
    "cosim": cosim_study,
}


def get_study(name: str, points: Optional[Sequence[int]] = None,
              **kwargs) -> Study:
    """Build a catalog study by name (the CLI's lookup)."""
    builder = CATALOG.get(name)
    if builder is None:
        raise StudyError(
            f"unknown study {name!r}; catalog: {sorted(CATALOG)}")
    return builder(points=points, **kwargs)
