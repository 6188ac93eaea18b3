"""The benchmark's workloads: seeded inputs, one timed simulation each,
and the checks that the simulation's outputs are correct.

Every workload is a decoupled program from the paper run on the paper's
platform (Beskow, with its noise model on):

* ``funnel`` -- the Fig. 5 MapReduce reduce funnel: 120 mappers stream
  chunk histograms (8 per file) into 7 reducers that fold into one
  master.  Many producers per consumer, so every receive is a wildcard:
  matching and the stream layer carry the run.
* ``halo`` -- the Fig. 6 decoupled CG: 60 compute ranks stream boundary
  faces to a 4-rank halo group that aggregates and streams bundles
  back, interleaved with sub-communicator allreduces.  Point-to-point
  routing, collectives and compute charges carry the run.
* ``recovery`` -- a CG-shaped face funnel with checkpointed streams in
  which one helper rank crashes mid-stream: failure detection,
  successor adoption, checkpoint restore and replay sit on the timed
  path.  Its stream is audited element by element.

Each timed run gets a fresh input drawn from the workload seed, so the
simulator's caches keyed on a configuration cannot flatter later runs,
and the same seed always yields the same sequence of inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Any, Dict, Iterator, List

import numpy as np

from repro.api import Simulation, StreamGraph
from repro.apps.cg import CGConfig, cg_decoupled, poisson_rhs, sequential_cg
from repro.apps.mapreduce import (
    MapReduceConfig,
    decoupled_worker,
    map_chunk,
    rank_file,
)
from repro.faults import Checkpoint, FaultPlan, RankCrash
from repro.simmpi import beskow, run
from repro.simmpi.datatypes import SizedPayload

__all__ = ["WORKLOADS"]


def _machine(noise_seed: int):
    """The paper's platform with its noise process reseeded."""
    m = beskow()
    return m.with_(noise=replace(m.noise, seed=noise_seed))


def _sim(out):
    """The launcher's SimResult behind either return shape."""
    return getattr(out, "sim", out)


def digest(out) -> str:
    """sha256 over the run's virtual-time results (wall-clock never
    enters), used to check that repeats and traced runs agree."""
    sim = _sim(out)
    h = hashlib.sha256()
    h.update(repr((sim.elapsed, sim.finish_times, sim.messages, sim.bytes,
                   sim.events)).encode())
    return h.hexdigest()


class Workload:
    """One benchmark workload (subclasses fill in the four hooks)."""

    name = ""

    def inputs(self, seed: int) -> Iterator[Dict[str, Any]]:
        """Endless, deterministic sequence of run inputs for ``seed``."""
        rng = random.Random(seed)
        while True:
            yield self.make_input(rng.randrange(1 << 31))

    def make_input(self, sub_seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def execute(self, inp: Dict[str, Any]):
        """The timed region: one complete simulation."""
        raise NotImplementedError

    def check(self, inp: Dict[str, Any], out) -> List[str]:
        """Problems with one run's outputs (empty when correct)."""
        raise NotImplementedError

    def reference(self, seed: int) -> List[str]:
        """Problems found by a small run checked against an independent
        reference computation."""
        raise NotImplementedError

    def counts(self, out) -> Dict[str, int]:
        """Work counts of one run, as the program reports them."""
        sim = _sim(out)
        boxes = getattr(sim.extras.get("world"), "mailboxes", ())
        return {
            "events": sim.events,
            "messages": sim.messages,
            "peak_unexpected": max(
                (getattr(mb, "peak_unexpected", 0) for mb in boxes),
                default=0),
            "replayed_elements": 0,
        }


# ----------------------------------------------------------------------
# funnel: MapReduce reduce funnel (Fig. 5)
# ----------------------------------------------------------------------

class Funnel(Workload):
    name = "funnel"
    nprocs = 128
    nchunks = 8

    def make_input(self, sub_seed):
        cfg = MapReduceConfig(nprocs=self.nprocs, nchunks=self.nchunks,
                              seed=sub_seed)
        return {"cfg": cfg, "machine": _machine(sub_seed)}

    def execute(self, inp):
        cfg = inp["cfg"]
        return run(decoupled_worker, cfg.nprocs, args=(cfg,),
                   machine=inp["machine"])

    def check(self, inp, out):
        cfg = inp["cfg"]
        values = out.values
        problems = []
        if any(v is None for v in values):
            return ["a rank returned no result"]
        masters = [v for v in values if v.get("role") == "master"]
        if len(masters) != 1:
            return [f"{len(masters)} master ranks, expected 1"]
        chunks = cfg.nprocs * cfg.nchunks
        mapped = sum(v.get("chunks", 0) for v in values
                     if v.get("role") == "map")
        folded = sum(v.get("elements", 0) for v in values
                     if v.get("role") == "reduce")
        if mapped != chunks or folded != chunks:
            problems.append(f"{mapped} chunks mapped and {folded} folded, "
                            f"expected {chunks}")
        # every chunk's words reach the master exactly once through
        # both funnel levels
        want = sum(cfg.nchunks * map_chunk(cfg, rank_file(cfg, f), f, 0).words
                   for f in range(cfg.nprocs))
        got = masters[0]["result"].words
        if got != want:
            problems.append(f"master counted {got} words, expected {want}")
        return problems

    def reference(self, seed):
        cfg = MapReduceConfig(nprocs=8, alpha=0.25, numeric=True, seed=seed)
        out = run(decoupled_worker, 8, args=(cfg,), machine=_machine(seed))
        truth: Dict[str, int] = {}
        for f in range(cfg.nprocs):
            file = rank_file(cfg, f)
            for chunk in range(cfg.nchunks):
                for word, n in map_chunk(cfg, file, f, chunk).table.items():
                    truth[word] = truth.get(word, 0) + n
        master = [v for v in out.values if v["role"] == "master"][0]
        if master["result"].table != truth:
            return ["numeric MapReduce histogram differs from the "
                    "sequential ground truth"]
        return []


# ----------------------------------------------------------------------
# halo: decoupled CG halo exchange (Fig. 6)
# ----------------------------------------------------------------------

class Halo(Workload):
    name = "halo"
    nprocs = 64
    iterations = 5

    def make_input(self, sub_seed):
        cfg = CGConfig(nprocs=self.nprocs, iterations=self.iterations,
                       seed=sub_seed)
        return {"cfg": cfg, "machine": _machine(sub_seed)}

    def execute(self, inp):
        cfg = inp["cfg"]
        return run(cg_decoupled, cfg.nprocs, args=(cfg,),
                   machine=inp["machine"])

    def check(self, inp, out):
        cfg = inp["cfg"]
        values = out.values
        if any(v is None for v in values):
            return ["a rank returned no result"]
        compute = [v for v in values if v.get("role") == "compute"]
        halo = [v for v in values if v.get("role") == "halo"]
        problems = []
        if len(compute) != cfg.n_compute or len(halo) != cfg.n_halo:
            problems.append(f"{len(compute)} compute / {len(halo)} halo "
                            f"ranks, expected {cfg.n_compute} / "
                            f"{cfg.n_halo}")
        if any(v["iterations"] != cfg.iterations for v in compute):
            problems.append("a compute rank stopped early")
        # one aggregated bundle per compute rank per iteration
        bundles = sum(v["bundles"] for v in halo)
        if bundles != cfg.iterations * cfg.n_compute:
            problems.append(f"{bundles} bundles, expected "
                            f"{cfg.iterations * cfg.n_compute}")
        return problems

    def reference(self, seed):
        n, iters = 6, 30
        cfg = CGConfig(nprocs=9, numeric=True, iterations=iters,
                       numeric_block_points=n, alpha=0.12, seed=seed)
        out = run(cg_decoupled, 9, args=(cfg,), machine=_machine(seed))
        parts = [v for v in out.values if "u_local" in v]
        dims = parts[0]["dims"]
        u = np.zeros((dims[0] * n, dims[1] * n, dims[2] * n))
        for v in parts:
            x, y, z = v["coords"]
            u[x * n:(x + 1) * n, y * n:(y + 1) * n, z * n:(z + 1) * n] = \
                v["u_local"]
        seq = sequential_cg(poisson_rhs(u.shape, seed=cfg.seed),
                            max_iter=iters, tol=0)
        if not np.allclose(u, seq.u, rtol=0.0, atol=1e-10):
            return ["decoupled CG solution differs from sequential CG"]
        return []


# ----------------------------------------------------------------------
# recovery: helper crash + checkpoint replay on a CG face funnel
# ----------------------------------------------------------------------

class Recovery(Workload):
    name = "recovery"
    nprocs = 48
    n_helper = 6
    elements = 60
    #: one 22^2 double face, under the eager threshold.  Rendezvous-size
    #: elements deadlock a few percent of crashes: a header still in
    #: flight to the helper when its failure is detected is never
    #: poisoned, so its sender waits forever.
    element_bytes = 22 * 22 * 8
    produce_seconds = 2.0e-4
    handle_seconds = 22 * 22 * 8 * 2.0e-10
    checkpoint_interval = 8

    def _graph(self, jitter_seed: int, stores: Dict[int, list]):
        elements = self.elements
        produce = self.produce_seconds
        nbytes = self.element_bytes
        handle_s = self.handle_seconds

        def produce_body(ctx):
            rank = ctx.comm.rank
            jit = random.Random(jitter_seed * 65537 + rank)
            with ctx.producer("faces") as out:
                for i in range(elements):
                    yield from ctx.compute(
                        produce * (1.0 + 0.3 * jit.random()),
                        label="produce")
                    yield from out.send(SizedPayload((rank, i), nbytes))
            return {"role": "compute"}

        def helper_body(ctx):
            mine = stores.setdefault(ctx.world.rank, [])

            def op(element):
                data = element.data
                mine.append(getattr(data, "data", data))
                yield from ctx.compute(handle_s, label="aggregate")

            profile = yield from ctx.consumer("faces").operate(op)
            return {"role": "helper", "recoveries": profile.recoveries,
                    "adopted": profile.adopted_producers}

        return (
            StreamGraph("hostbench-recovery")
            .stage("compute", size=self.nprocs - self.n_helper,
                   body=produce_body)
            .stage("helper", size=self.n_helper, body=helper_body)
            .flow("faces", src="compute", dst="helper",
                  checkpoint=Checkpoint(interval=self.checkpoint_interval,
                                        state_nbytes=1 << 20))
        )

    def make_input(self, sub_seed, crash=True):
        rng = random.Random(sub_seed)
        stores: Dict[int, list] = {}
        inp = {"graph": self._graph(sub_seed, stores), "stores": stores,
               "machine": _machine(sub_seed)}
        if crash:
            # any helper, 25-55% of the way through the producers' stream
            span = self.elements * self.produce_seconds * 1.15
            inp["crash_rank"] = self.nprocs - 1 - rng.randrange(self.n_helper)
            inp["crash_time"] = span * rng.uniform(0.25, 0.55)
        return inp

    def execute(self, inp):
        faults = None
        if "crash_rank" in inp:
            faults = FaultPlan([RankCrash(inp["crash_time"],
                                          inp["crash_rank"])])
        return Simulation(self.nprocs, machine=inp["machine"],
                          faults=faults).run(inp["graph"])

    def _audit(self, stores, dead: int) -> List[str]:
        """Each producer's elements reach live helpers exactly once, as
        an unbroken run ending at its last element that starts no later
        than where the dead helper stopped."""
        dead_store = stores.get(dead, [])
        seen: Dict[int, List[int]] = {}
        for rank, store in stores.items():
            if rank == dead:
                continue
            for producer, i in store:
                seen.setdefault(producer, []).append(i)
        problems = []
        n_producers = self.nprocs - self.n_helper
        if sorted(seen) != list(range(n_producers)):
            problems.append(f"elements from {len(seen)} producers reached "
                            f"live helpers, expected {n_producers}")
        for producer, idx in sorted(seen.items()):
            if len(idx) != len(set(idx)):
                problems.append(f"producer {producer}: duplicate delivery")
                continue
            first = min(idx)
            if set(idx) != set(range(first, self.elements)):
                problems.append(f"producer {producer}: gap in its stream")
                continue
            lost = [i for p, i in dead_store if p == producer]
            resume = max(lost) + 1 if lost else 0
            if first > resume:
                problems.append(f"producer {producer}: elements {resume} "
                                f"to {first - 1} never delivered")
        return problems

    def check(self, inp, out):
        dead = inp["crash_rank"]
        problems = []
        if out.failed_ranks != {dead: inp["crash_time"]}:
            problems.append(f"failed ranks {out.failed_ranks}, expected "
                            f"{{{dead}: {inp['crash_time']}}}")
        helpers = [v for v in out.values
                   if v is not None and v.get("role") == "helper"]
        if len(helpers) != self.n_helper - 1:
            problems.append(f"{len(helpers)} helpers survived, expected "
                            f"{self.n_helper - 1}")
        recoveries = sum(v["recoveries"] for v in helpers)
        if recoveries != 1:
            problems.append(f"{recoveries} recoveries, expected 1")
        return problems + self._audit(inp["stores"], dead)

    def counts(self, out):
        got = super().counts(out)
        got["replayed_elements"] = sum(
            p.replayed_elements for p in out.flow_profiles("faces").values())
        return got

    def reference(self, seed):
        # the same stream without a crash delivers everything exactly once
        inp = self.make_input(seed, crash=False)
        out = self.execute(inp)
        delivered = sorted(x for s in inp["stores"].values() for x in s)
        want = [(p, i) for p in range(self.nprocs - self.n_helper)
                for i in range(self.elements)]
        if delivered != want or out.failed_ranks:
            return ["fault-free stream did not deliver every element "
                    "exactly once"]
        return []


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Funnel(), Halo(), Recovery())
}
