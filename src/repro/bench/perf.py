"""Performance benchmarks that gate the simulator's own speed.

Where :mod:`repro.bench.figures` reproduces what the *paper* measured
(virtual time of simulated applications), this module measures the
*simulator*: how many engine events per wall-clock second the core can
drain on canonical scenarios, with the virtual-time results pinned
bit-identical to the pre-optimization slow path.

Three kinds of output:

* **events/sec accounting** — each scenario runs under wall-clock +
  ``events_fired`` accounting and reports events/sec, per-rank message
  totals and peak mailbox queue depths.
* **slow-path equivalence** — the same scenario re-runs on the
  :mod:`repro.simmpi.oracle` implementations (seed engine, linear-scan
  mailbox, dict-based network) and the virtual-time results (final
  times, per-rank finish times, message counts, per-rank values
  including stream statistics) must be *bit-identical*; ``bench perf``
  fails loudly otherwise.
* **golden gating** — ``--check-golden`` compares a scenario's
  virtual-time results against a committed golden file; CI runs the
  quickstart scenario this way so a change that silently perturbs
  simulation results cannot land.  Wall-clock is always reported, never
  gated (CI machines vary).

Scenarios are deterministic by construction (noise-free machine
variants, zero chunk jitter), so the digests are stable across runs
and Python versions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simmpi.config import MachineConfig, TopologyConfig, beskow
from ..simmpi.launcher import SimResult, run
from ..simmpi.oracle import SLOW_PATH

#: BENCH_perf.json schema version
SCHEMA = 2


class PerfError(RuntimeError):
    """A perf invariant failed (oracle mismatch, golden mismatch)."""


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _quiet_beskow() -> MachineConfig:
    """The paper's platform with the noise model silenced: perf
    scenarios must be deterministic so golden results can gate CI."""
    from dataclasses import replace
    m = beskow()
    return m.with_(noise=replace(m.noise, persistent_skew=0.0,
                                 quantum_fraction=0.0))


@dataclass(frozen=True)
class Scenario:
    """One perf workload: a rank program plus its scale and platform."""

    name: str
    describe: str
    nprocs: int
    #: () -> (fn, args, machine); deferred so scenario listing is cheap
    build: Callable[[], Tuple[Callable, tuple, MachineConfig]]
    #: which slow path the oracle leg runs: "full" injects the seed
    #: engine+mailbox+network trio; "core" injects only engine+mailbox
    #: and keeps the scenario's own fabric (the seed OracleNetwork is
    #: flat-only, so topology scenarios pin the engine/matching layers
    #: instead — the same oracle-equivalence discipline, minus the
    #: network leg that cannot exist); "none" skips the oracle leg
    #: entirely (fault-injection scenarios need the fast-path engine's
    #: kill/poison primitives, which the seed engine predates — the
    #: committed golden digest is their regression gate instead)
    slow_path: str = "full"
    #: optional fault plan (JSON dict) handed to run(faults=)
    faults: Optional[Dict[str, Any]] = None


def _quickstart_build():
    """The README quickstart shape: a compute stage streams workload
    samples to a small analysis stage (decoupled running statistics)."""
    from ..api import StreamGraph
    from ..mpistream import RunningStats

    nprocs, rounds = 16, 64

    def compute_body(ctx):
        with ctx.producer("samples") as out:
            for rnd in range(rounds):
                workload = 0.01 * (1 + (ctx.comm.rank + rnd) % 4)
                yield from ctx.compute(workload, label="calculation")
                yield from out.send(workload)

    graph = (
        StreamGraph("perf-quickstart")
        .stage("compute", fraction=15 / 16, body=compute_body)
        .stage("analyze", fraction=1 / 16)
        .flow("samples", src="compute", dst="analyze", operator=RunningStats)
    )
    compiled = graph.compile(nprocs)

    def main(comm):
        record = yield from compiled.execute(comm)
        return record

    return main, (), _quiet_beskow()


def _fig5_build(nprocs: int):
    """The Fig. 5 MapReduce reduce-funnel: (1-alpha)P mappers stream
    chunk histograms into alpha*P reducers that funnel into one master
    — the paper's congestion scenario, at stream granularity 64."""
    def build():
        from ..apps.mapreduce import MapReduceConfig, decoupled_worker
        cfg = MapReduceConfig(nprocs=nprocs, nchunks=64,
                              chunk_jitter_sigma=0.0)
        return decoupled_worker, (cfg,), _quiet_beskow()
    return build


def _fig6_build():
    """The Fig. 6 decoupled CG at 256 ranks: compute ranks stream faces
    to a halo group and run two sub-communicator allreduces per
    iteration — the app with the most collective traffic."""
    from ..apps.cg import CGConfig, cg_decoupled
    cfg = CGConfig(nprocs=256, iterations=10)
    return cg_decoupled, (cfg,), _quiet_beskow()


def _fig7_build():
    """The Fig. 7 iPIC3D particle-communication decoupling at 256
    ranks: movers stream exiting particles to exchange servers."""
    from ..apps.ipic3d import IPICConfig, pcomm_decoupled
    cfg = IPICConfig(nprocs=256, steps=4)
    return pcomm_decoupled, (cfg,), _quiet_beskow()


#: the fat-tree the placement scenarios contend on: radix 2 over the
#: 32-rank nodes, so 256 ranks span 8 nodes under a 3-level tree with
#: tapered uplinks — cross-subtree streams queue, intra-node ones fly
_PLACEMENT_TOPOLOGY = TopologyConfig(kind="fat_tree", radix=2)


def _fig5_placement_build(mode: str):
    """The Fig. 5 reduce funnel with the reduce group either sharing
    its producers' nodes (colocated) or exiled to a disjoint node set
    (partitioned), under the contended fat-tree.  The paper's placement
    trade-off as a perf scenario: the two must diverge measurably."""
    def build():
        from ..api import plan_placement
        from ..apps.mapreduce import MapReduceConfig, decoupled_worker
        from ..apps.mapreduce.decoupled import build_graph
        cfg = MapReduceConfig(nprocs=256, nchunks=64,
                              chunk_jitter_sigma=0.0)
        plan = build_graph(cfg).compile(cfg.nprocs).plan
        machine = _quiet_beskow().with_(
            topology=_PLACEMENT_TOPOLOGY,
            placement=plan_placement(mode, plan))
        return decoupled_worker, (cfg,), machine
    return build


def _fabric_contention_build():
    """Synthetic incast across a thin fat-tree: every rank rendezvous-
    sends to rank 0 from all subtrees, so the tapered per-level uplink
    timelines — not the NICs — set the pace.  Gated by a committed
    golden in CI so fabric-timing drift fails the build."""
    rounds, nbytes = 12, 131_072

    def main(comm):
        if comm.rank == 0:
            for _ in range(rounds * (comm.size - 1)):
                yield from comm.recv()
            return comm.time
        for rnd in range(rounds):
            req = yield from comm.isend(rnd, dest=0, nbytes=nbytes)
            yield from comm.wait(req)
        return comm.time

    machine = _quiet_beskow().with_(
        ranks_per_node=8,
        topology=TopologyConfig(kind="fat_tree", radix=2))
    return main, (), machine


def _fault_recovery_build():
    """A 64-rank CG-shaped funnel whose helper-group tail rank crashes
    mid-stream: failure detection, poison sweep, successor adoption,
    checkpoint restore and un-acked replay all sit on the measured
    path.  The committed golden digest pins the recovered virtual-time
    results — recovery drift fails CI exactly like timing drift."""
    from ..faults.apps import CGHaloRecoveryConfig, cg_halo_recovery
    cfg = CGHaloRecoveryConfig(nprocs=64, checkpoint_interval=16)
    return cg_halo_recovery, (cfg,), _quiet_beskow()


#: the fault-recovery scenario's plan: crash the last rank (helper
#: tail) at ~40% of the fault-free makespan
_FAULT_RECOVERY_PLAN = {
    "events": [{"kind": "crash", "time": 0.02, "rank": -1}],
}


def _cosim_build():
    """The coupled micro/macro pair through a 2-rank translator hub
    whose first rank crashes mid-stream: intercommunicator failure
    detection, window-mirrored buffer adoption by the cyclic successor,
    un-acked producer replay and TERM handoff all sit on the measured
    path.  The committed golden digest pins the recovered results."""
    from ..cosim.apps import CosimConfig, cosim_worker
    from ..cosim.spec import HubSpec
    cfg = CosimConfig(nprocs=24, elements_per_producer=24,
                      produce_seconds=2e-6)
    spec = HubSpec(size=2, buffer_depth=2, transform_seconds=1e-6,
                   scale_ratio=3, element_bytes=2048)
    return cosim_worker, (cfg, spec), _quiet_beskow()


#: the cosim scenario's plan: crash the first hub rank (global rank
#: nprocs_a = (24 - 2) // 2 = 11) mid-stream, while both sides are live
_COSIM_PLAN = {
    "events": [{"kind": "crash", "time": 6e-5, "rank": 11}],
}


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("quickstart", "compute->analyze stream graph, 16 ranks",
                 16, _quickstart_build),
        Scenario("fig5-256", "MapReduce reduce funnel, 256 ranks",
                 256, _fig5_build(256)),
        Scenario("fig5-1024", "MapReduce reduce funnel, 1024 ranks",
                 1024, _fig5_build(1024)),
        Scenario("fig5-4096", "MapReduce reduce funnel, 4096 ranks",
                 4096, _fig5_build(4096)),
        Scenario("fig6-cg", "decoupled CG with halo group, 256 ranks",
                 256, _fig6_build),
        Scenario("fig7-pcomm", "iPIC3D particle communication, 256 ranks",
                 256, _fig7_build),
        Scenario("fig5-placement",
                 "reduce funnel, partitioned groups on a fat-tree, 256 ranks",
                 256, _fig5_placement_build("partitioned"),
                 slow_path="core"),
        Scenario("fig5-colocated",
                 "reduce funnel, colocated groups on a fat-tree, 256 ranks",
                 256, _fig5_placement_build("colocated"),
                 slow_path="core"),
        Scenario("fabric-contention",
                 "incast over tapered fat-tree uplinks, 64 ranks",
                 64, _fabric_contention_build,
                 slow_path="core"),
        Scenario("fault-recovery",
                 "helper crash + checkpoint replay on a 64-rank funnel",
                 64, _fault_recovery_build,
                 slow_path="none", faults=_FAULT_RECOVERY_PLAN),
        Scenario("cosim",
                 "coupled hub + crashed translator rank, 24 ranks",
                 24, _cosim_build,
                 slow_path="none", faults=_COSIM_PLAN),
    )
}

#: scenarios the default `bench perf` run covers (fig5-4096 is opt-in:
#: its slow-path leg alone runs for minutes; fig6-cg is opt-in so the
#: committed BENCH_perf.json keeps its scenario set, and CI gates it by
#: its golden)
DEFAULT_SCENARIOS = ("quickstart", "fig5-256", "fig5-1024", "fig7-pcomm",
                     "fig5-placement", "fig5-colocated", "fabric-contention",
                     "fault-recovery", "cosim")


# ----------------------------------------------------------------------
# scenario listing (`bench perf --list`)
# ----------------------------------------------------------------------

def _golden_dir() -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, "benchmarks", "golden")


def golden_scenarios(directory: Optional[str] = None) -> Dict[str, str]:
    """Map scenario name -> golden filename for every committed golden
    under ``benchmarks/golden`` (missing directory -> empty map)."""
    directory = directory or _golden_dir()
    out: Dict[str, str] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    for fname in names:
        if not fname.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, fname)) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        scen = data.get("scenario")
        if scen:
            out[scen] = fname
    return out


def list_scenarios(golden: Optional[Dict[str, str]] = None) -> str:
    """One row per registered scenario: scale, oracle leg, fault
    injection, default-suite membership and golden gating — so nobody
    has to read this module to learn what ``--scenario`` accepts or
    which scenarios CI pins."""
    if golden is None:
        golden = golden_scenarios()
    rule = "-" * 76
    lines = ["bench perf scenarios", rule]
    header = (f"{'scenario':>17} | {'nprocs':>6} | {'slow path':>9} | "
              f"{'faults':>6} | {'suite':>7} | golden")
    lines += [header, rule]
    for name, s in SCENARIOS.items():   # registration order
        lines.append(
            f"{name:>17} | {s.nprocs:>6} | {s.slow_path:>9} | "
            f"{('yes' if s.faults else '-'):>6} | "
            f"{('default' if name in DEFAULT_SCENARIOS else 'opt-in'):>7}"
            f" | {golden.get(name, '-')}")
        lines.append(f"{'':>17} |   {s.describe}")
    lines.append(rule)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

@dataclass
class PerfRecord:
    """One (scenario, variant) measurement."""

    scenario: str
    variant: str                   # "fast" | "oracle"
    wall_s: float
    events: int
    events_per_sec: float
    virtual_elapsed: float
    messages: int
    bytes: int
    peak_posted: int
    peak_unexpected: int
    digest: str                    # sha256 of the virtual-time results
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        # `extra` stays nested so PerfRecord(**to_json()) round-trips
        # (the isolated-subprocess path relies on it)
        return dict(self.__dict__)


def _slow_path_kwargs(scenario: Scenario) -> Dict[str, Any]:
    """Injection kwargs for a scenario's oracle leg (see
    :attr:`Scenario.slow_path`)."""
    if scenario.slow_path == "full":
        return dict(SLOW_PATH)
    if scenario.slow_path == "core":
        kwargs = dict(SLOW_PATH)
        kwargs.pop("network_factory")
        return kwargs
    if scenario.slow_path == "none":
        raise PerfError(
            f"scenario {scenario.name!r} has no oracle leg (slow_path="
            "'none'); its golden digest is the regression gate")
    raise PerfError(
        f"scenario {scenario.name!r} has unknown slow_path "
        f"{scenario.slow_path!r}")


def _clear_memos() -> None:
    """Reset cross-run caches so every timed run pays its own setup —
    memoization must never flatter the second leg of a comparison."""
    from ..apps.mapreduce import common as mr_common
    from ..apps.mapreduce import decoupled as mr_decoupled
    from ..cosim import apps as cosim_apps
    from ..cosim import coupling as cosim_coupling
    from ..faults import apps as fault_apps
    from ..simmpi import collectives, topology
    from ..mpistream import channel as mp_channel
    mr_common._file_tables.clear()
    mr_common._jitter_tables.clear()
    mr_common._chunk_sketch_memo.clear()
    mr_decoupled._compiled.cache_clear()
    fault_apps._compiled.cache_clear()
    cosim_apps._graphs.cache_clear()
    cosim_coupling._compiled.cache_clear()
    topology._best_dims.cache_clear()
    topology._divisors.cache_clear()
    mp_channel._peers_cache.clear()
    collectives._schedule_cache.clear()


def result_digest(sim: SimResult) -> str:
    """Canonical sha256 over the virtual-time results: final time,
    per-rank finish times, traffic totals and per-rank values (stream
    statistics ride inside the values' reprs).  Everything hashed is a
    pure function of the simulated execution — wall-clock never enters.
    """
    h = hashlib.sha256()
    h.update(repr(sim.elapsed).encode())
    h.update(repr(sim.finish_times).encode())
    h.update(repr((sim.nprocs, sim.messages, sim.bytes)).encode())
    for v in sim.values:
        h.update(repr(v).encode())
    return h.hexdigest()


def _mailbox_peaks(sim: SimResult) -> Tuple[int, int]:
    world = sim.extras.get("world")
    if world is None:
        return (0, 0)
    return (max(mb.peak_posted for mb in world.mailboxes),
            max(mb.peak_unexpected for mb in world.mailboxes))


#: walls under this are dominated by interpreter warm-up (allocator,
#: bytecode specialization) rather than steady-state event throughput;
#: such scenarios deepen to FAST_SCENARIO_REPEATS so best-of-N can see
#: warm runs — the cold first run then simply loses the minimum
FAST_SCENARIO_WALL = 0.1
FAST_SCENARIO_REPEATS = 5


def run_scenario(name: str, variant: str = "fast",
                 repeats: int = 1,
                 isolate: bool = False) -> PerfRecord:
    """Run one scenario under wall-clock + events accounting.

    ``repeats`` > 1 reports the best wall-clock of N runs (standard
    benchmarking practice: the minimum is the least-interfered
    measurement; the virtual-time results are identical every time by
    determinism, which is asserted).  Sub-100ms scenarios deepen
    best-of-N automatically (see :data:`FAST_SCENARIO_WALL`) so the
    interpreter's cold-start tax cannot masquerade as a regression.
    ``isolate`` runs the measurement in a fresh subprocess so one
    scenario's heap garbage cannot tax the next one's wall-clock — the
    suite uses it for every record.
    """
    if isolate:
        return _run_isolated(name, variant, repeats)
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise PerfError(f"unknown scenario {name!r}; "
                        f"choose from {sorted(SCENARIOS)}")
    if variant not in ("fast", "oracle"):
        raise PerfError(f"unknown variant {variant!r}")
    fn, args, machine = scenario.build()
    kwargs = _slow_path_kwargs(scenario) if variant == "oracle" else {}
    if scenario.faults is not None:
        kwargs["faults"] = scenario.faults
    wall = None
    last_digest = None
    n = max(1, repeats)
    i = 0
    while i < n:
        _clear_memos()
        gc.collect()
        t0 = time.perf_counter()
        sim = run(fn, scenario.nprocs, args=args, machine=machine, **kwargs)
        elapsed = time.perf_counter() - t0
        if i == 0 and n > 1 and elapsed < FAST_SCENARIO_WALL \
                and n < FAST_SCENARIO_REPEATS:
            n = FAST_SCENARIO_REPEATS
        if wall is None or elapsed < wall:
            wall = elapsed
        digest = result_digest(sim)
        if last_digest is not None and digest != last_digest:
            raise PerfError(
                f"scenario {name!r} is not deterministic across repeats")
        last_digest = digest
        i += 1
    peak_posted, peak_unexpected = _mailbox_peaks(sim)
    digest = last_digest
    return PerfRecord(
        scenario=name,
        variant=variant,
        wall_s=round(wall, 6),
        events=sim.events,
        events_per_sec=round(sim.events / wall, 1) if wall > 0 else 0.0,
        virtual_elapsed=sim.elapsed,
        messages=sim.messages,
        bytes=sim.bytes,
        peak_posted=peak_posted,
        peak_unexpected=peak_unexpected,
        digest=digest,
    )


def _run_isolated(name: str, variant: str, repeats: int) -> PerfRecord:
    """Measure in a fresh interpreter; returns the child's PerfRecord."""
    import subprocess

    code = (
        "import json, sys\n"
        "from repro.bench.perf import run_scenario\n"
        "r = run_scenario(sys.argv[1], sys.argv[2], "
        "repeats=int(sys.argv[3]))\n"
        "print('PERF_RECORD ' + json.dumps(r.to_json()))\n"
    )
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, name, variant, str(repeats)],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise PerfError(
            f"isolated run of {name!r}/{variant} failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("PERF_RECORD "):
            data = json.loads(line[len("PERF_RECORD "):])
            return PerfRecord(**data)
    raise PerfError(
        f"isolated run of {name!r}/{variant} produced no record:\n"
        f"{proc.stdout}\n{proc.stderr}")


def verify_against_oracle(name: str, repeats: int = 1,
                          isolate: bool = False
                          ) -> Tuple[PerfRecord, PerfRecord]:
    """Run a scenario on both paths; raise unless the virtual-time
    results are bit-identical."""
    fast = run_scenario(name, "fast", repeats=repeats, isolate=isolate)
    oracle = run_scenario(name, "oracle", repeats=repeats, isolate=isolate)
    mismatches = [
        f"{field_}: fast={getattr(fast, field_)!r} "
        f"oracle={getattr(oracle, field_)!r}"
        for field_ in ("virtual_elapsed", "messages", "bytes", "digest")
        if getattr(fast, field_) != getattr(oracle, field_)
    ]
    if mismatches:
        raise PerfError(
            f"scenario {name!r}: fast path diverged from the "
            f"pre-optimization oracle — " + "; ".join(mismatches))
    return fast, oracle


# ----------------------------------------------------------------------
# layered profiling (--profile)
# ----------------------------------------------------------------------

#: path fragment -> layer name, checked in order
_LAYERS = (
    ("simmpi/engine", "engine"),
    ("simmpi/matching", "matching"),
    ("simmpi/network", "network"),
    ("simmpi/comm", "comm"),
    ("simmpi/collectives", "collectives"),
    ("simmpi/", "simmpi-other"),
    ("mpistream/", "mpistream"),
    ("repro/api/", "api"),
    ("repro/core/", "core"),
    ("repro/apps/", "apps"),
    ("repro/bench", "bench"),
)


def _layer_of(path: str) -> str:
    path = path.replace(os.sep, "/")
    for fragment, layer in _LAYERS:
        if fragment in path:
            return layer
    return "other"


def profile_scenario(name: str, top_n: int = 12) -> Dict[str, Any]:
    """cProfile one run; return per-layer totals and the top-N
    functions per layer by internal time."""
    import cProfile
    import pstats

    scenario = SCENARIOS[name]
    fn, args, machine = scenario.build()
    _clear_memos()
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    run(fn, scenario.nprocs, args=args, machine=machine)
    profiler.disable()
    stats = pstats.Stats(profiler)
    layers: Dict[str, float] = {}
    rows: Dict[str, List[Tuple[float, str]]] = {}
    total = 0.0
    for (path, lineno, func), (_cc, ncalls, tottime, _cum, _callers) \
            in stats.stats.items():
        layer = _layer_of(path)
        layers[layer] = layers.get(layer, 0.0) + tottime
        total += tottime
        rows.setdefault(layer, []).append(
            (tottime, f"{os.path.basename(path)}:{lineno}:{func} "
                      f"({ncalls} calls)"))
    top = {
        layer: [f"{t:.4f}s {desc}"
                for t, desc in sorted(entries, reverse=True)[:top_n]]
        for layer, entries in rows.items()
    }
    return {
        "total_s": round(total, 4),
        "layers_s": {k: round(v, 4)
                     for k, v in sorted(layers.items(),
                                        key=lambda kv: -kv[1])},
        "top": top,
    }


# ----------------------------------------------------------------------
# suite + artifact
# ----------------------------------------------------------------------

def _meta() -> Dict[str, Any]:
    import platform

    from ..study.cache import code_version
    meta = {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # the same source digest the study cache keys on: two payloads
        # with equal code_version measured identical simulator code
        "code_version": code_version(),
    }
    try:  # best effort, absent outside a git checkout
        import subprocess
        meta["commit"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except Exception:
        meta["commit"] = None
    return meta


def run_suite(names: Optional[List[str]] = None,
              check_oracle: bool = True,
              profile: bool = False,
              repeats: int = 2) -> Dict[str, Any]:
    """Run scenarios; return the BENCH_perf payload."""
    names = list(names or DEFAULT_SCENARIOS)
    payload: Dict[str, Any] = {"meta": _meta(), "scenarios": {}}
    for name in names:
        entry: Dict[str, Any] = {}
        if check_oracle and SCENARIOS[name].slow_path != "none":
            fast, oracle = verify_against_oracle(name, repeats=repeats,
                                                 isolate=True)
            entry["fast"] = fast.to_json()
            entry["oracle"] = oracle.to_json()
            entry["oracle_identical"] = True
            entry["speedup_vs_oracle"] = round(
                fast.events_per_sec / oracle.events_per_sec, 3)
        else:
            fast = run_scenario(name, "fast", repeats=repeats,
                                isolate=True)
            entry["fast"] = fast.to_json()
        if profile:
            entry["profile"] = profile_scenario(name)
        payload["scenarios"][name] = entry
    return payload


def save_payload(payload: Dict[str, Any],
                 out_dir: Optional[str] = None,
                 filename: str = "BENCH_perf.json") -> str:
    from .harness import results_dir
    directory = os.path.abspath(out_dir) if out_dir else results_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return path


# ----------------------------------------------------------------------
# golden gating (CI)
# ----------------------------------------------------------------------

#: virtual-time fields a golden file pins (wall-clock is never gated)
GOLDEN_FIELDS = ("virtual_elapsed", "events", "messages", "bytes", "digest")


def golden_entry(record: PerfRecord) -> Dict[str, Any]:
    return {"scenario": record.scenario,
            **{f: getattr(record, f) for f in GOLDEN_FIELDS}}


def check_golden(record: PerfRecord, golden_path: str) -> None:
    """Raise :class:`PerfError` if the scenario's virtual-time results
    differ from the committed golden file."""
    with open(golden_path) as fh:
        golden = json.load(fh)
    if golden.get("scenario") != record.scenario:
        raise PerfError(
            f"golden file {golden_path!r} pins scenario "
            f"{golden.get('scenario')!r}, not {record.scenario!r}")
    diffs = [
        f"{f}: got {getattr(record, f)!r}, golden {golden[f]!r}"
        for f in GOLDEN_FIELDS
        if f in golden and getattr(record, f) != golden[f]
    ]
    if diffs:
        raise PerfError(
            f"virtual-time results for {record.scenario!r} differ from "
            f"golden {golden_path!r} — " + "; ".join(diffs))


def write_golden(record: PerfRecord, golden_path: str) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(golden_path)), exist_ok=True)
    with open(golden_path, "w") as fh:
        json.dump(golden_entry(record), fh, indent=2)
    return golden_path


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def render_report(payload: Dict[str, Any]) -> str:
    """Human-readable table of the payload."""
    lines = ["bench perf — simulator events/sec", "-" * 74]
    header = (f"{'scenario':>12} | {'variant':>7} | {'events':>9} | "
              f"{'wall (s)':>9} | {'events/s':>10} | {'speedup':>8}")
    lines += [header, "-" * 74]
    for name, entry in payload["scenarios"].items():
        for variant in ("oracle", "fast"):
            rec = entry.get(variant)
            if not rec:
                continue
            if variant == "fast":
                speedup = entry.get("speedup_vs_oracle")
                tag = f"{speedup:>7.2f}x" if speedup else f"{'':>8}"
            else:
                tag = f"{'':>8}"
            lines.append(
                f"{name:>12} | {variant:>7} | {rec['events']:>9} | "
                f"{rec['wall_s']:>9.3f} | {rec['events_per_sec']:>10.0f} | "
                f"{tag}")
        if entry.get("oracle_identical"):
            lines.append(f"{'':>12} |   virtual-time results bit-identical "
                         "to the slow-path oracle")
        prof = entry.get("profile")
        if prof:
            layers = ", ".join(f"{k}={v:.3f}s"
                               for k, v in prof["layers_s"].items()
                               if v >= 0.01)
            lines.append(f"{'':>12} |   profile: {layers}")
    lines.append("-" * 74)
    return "\n".join(lines)
