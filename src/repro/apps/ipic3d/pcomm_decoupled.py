"""Decoupled particle communication (Section IV-D1, Figs. 2 and 7).

The mover group G0 streams exiting particles to the exchange group G1
the moment they are found; G1 "handles the complexity of particle
communication internally": it buckets arrivals by destination and
forwards aggregated batches straight to the destination mover — at most
two hops per particle (G0 -> G1 -> G0) versus the reference's
up-to-``DimX+DimY+DimZ`` forwarding passes.

Two delivery disciplines, matching the two fidelity modes:

* **numeric (strict)** — step-synchronous: each mover sends exactly one
  exit element per step and receives exactly one aggregated arrival
  batch per step (after a small alltoallv inside G1 moves every
  destination's particles to its serving exchange rank).  Strictness
  lets tests prove the reference and decoupled exchanges produce
  *identical* particle sets.
* **scale (relaxed dataflow)** — the paper's actual execution model:
  movers never block on arrivals; they drain whatever batches have
  landed between steps (first-come-first-served), and exchange ranks
  process exit elements the moment they arrive.  This is what absorbs
  imbalance — no mover ever waits for a specific delayed peer.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

import numpy as np

from ...mpistream import attach, create_channel
from ...simmpi.collectives import alltoallv
from ...simmpi.comm import Comm
from ...simmpi.datatypes import SizedPayload
from ...simmpi.topology import dims_create
from ...workloads.particles import ParticleBlock
from .config import IPICConfig
from .particles import boris_push, owner_of, spawn_block
from .pcomm_reference import E_FIELD, B_FIELD, _neighbors


def pcomm_decoupled(comm: Comm, cfg: IPICConfig
                    ) -> Generator[Any, Any, Dict[str, Any]]:
    """SPMD main: first ``n_mover`` ranks move particles, the rest run
    the decoupled exchange."""
    if comm.size != cfg.nprocs:
        raise ValueError("config/communicator size mismatch")
    n0 = cfg.n_mover
    is_mover = comm.rank < n0
    t0 = comm.time

    ch_up = yield from create_channel(comm, is_producer=is_mover,
                                      is_consumer=not is_mover)
    ch_down = yield from create_channel(comm, is_producer=not is_mover,
                                        is_consumer=is_mover)
    state = {"arrivals": 0}

    def absorb(element):
        # scale-mode sink: fold an arrival batch into the local count
        state["arrivals"] += element.data[2]

    up = yield from attach(ch_up, None)                      # blocked by src
    down = yield from attach(ch_down, absorb,
                             router=lambda pi, seq, data: data[0],
                             eager=not cfg.numeric)
    sub = yield from comm.split(0 if is_mover else 1, key=comm.rank)

    if is_mover:
        result = yield from _mover_rank(comm, cfg, up, down, state, t0)
    else:
        result = yield from _exchange_rank(comm, cfg, sub, ch_up, up, down)
    yield from ch_up.free()
    yield from ch_down.free()
    return result


def _mover_rank(comm: Comm, cfg: IPICConfig, up, down, state, t0
                ) -> Generator[Any, Any, Dict[str, Any]]:
    n0 = cfg.n_mover
    dims = tuple(dims_create(n0, 3))
    me = comm.rank

    if cfg.numeric:
        particles = spawn_block(cfg.numeric_particles_per_rank, me,
                                dims, cfg.seed, cfg.numeric_thermal)
    else:
        particles = None
        # weak-scaling fairness: the same total particles over fewer
        # mover ranks (each mover carries 1/(1-alpha) more)
        count = int(cfg.rank_particles(me, n0) * cfg.nprocs / n0)

    pcomm_visible = 0.0
    for step in range(cfg.steps):
        n_local = len(particles) if cfg.numeric else count
        jitter = cfg.mover_jitter(me, step)
        yield from comm.compute(
            n_local * cfg.mover_seconds_per_particle * jitter,
            label="mover")
        yield from comm.compute(cfg.field_seconds_per_step, label="field")

        t_phase = comm.time
        if cfg.numeric:
            # strict, step-synchronous protocol (verifiable physics)
            boris_push(particles, E_FIELD, B_FIELD, cfg.numeric_dt)
            owners = owner_of(particles.x, dims)
            stay = owners == me
            exits = particles.select(~stay)
            particles = particles.select(stay)
            yield from up.isend((step, me, exits))
            element = yield from down.recv_element()
            _dest, arr_step, arrivals = element.data
            assert arr_step == step, "arrival batch out of step order"
            particles = ParticleBlock.concat([particles, arrivals])
        else:
            # relaxed dataflow: stream exits, drain whatever has landed
            n_exit = cfg.exits(me, step, count)
            count -= n_exit
            yield from up.isend(
                (step, me,
                 SizedPayload(n_exit, n_exit * cfg.particle_bytes + 16)))
            yield from down.operate_pending()
            count += state["arrivals"]
            state["arrivals"] = 0
        pcomm_visible += comm.time - t_phase

    yield from up.terminate()
    out: Dict[str, Any] = {
        "role": "mover",
        "elapsed": comm.time - t0,
        "pcomm_time": pcomm_visible,
        "steps": cfg.steps,
    }
    if cfg.numeric:
        out["ids"] = np.sort(particles.ids).tolist()
        out["count"] = len(particles)
    else:
        out["count"] = count
    return out


def _exchange_rank(comm: Comm, cfg: IPICConfig, sub, ch_up, up, down
                   ) -> Generator[Any, Any, Dict[str, Any]]:
    if cfg.numeric:
        result = yield from _exchange_strict(comm, cfg, sub, ch_up, up, down)
    else:
        result = yield from _exchange_relaxed(comm, cfg, ch_up, up, down)
    return result


# ----------------------------------------------------------------------
# numeric mode: strict per-step aggregation with G1-internal shuffle
# ----------------------------------------------------------------------

def _exchange_strict(comm: Comm, cfg: IPICConfig, sub, ch_up, up, down
                     ) -> Generator[Any, Any, Dict[str, Any]]:
    n0 = cfg.n_mover
    dims = tuple(dims_create(n0, 3))
    me_ci = ch_up.consumer_index
    served = ch_up.producers_of(me_ci)
    n1 = ch_up.nconsumers
    particles_handled = 0

    def serving_consumer(mover_rank: int) -> int:
        return mover_rank * n1 // n0

    for step in range(cfg.steps):
        by_dest: Dict[int, List[ParticleBlock]] = {}
        for _ in served:
            element = yield from up.recv_element()
            _step, _src, exits = element.data
            if len(exits):
                owners = owner_of(exits.x, dims)
                for dest in np.unique(owners):
                    by_dest.setdefault(int(dest), []).append(
                        exits.select(owners == dest))
                particles_handled += len(exits)
        yield from comm.compute(
            sum(sum(len(b) for b in blocks)
                for blocks in by_dest.values())
            * cfg.decoupled_handling_seconds_per_particle,
            label="exchange-handle")

        # shuffle: each destination's particles to its serving G1 rank
        sends: Dict[int, Any] = {}
        for dest, blocks in by_dest.items():
            g1 = serving_consumer(dest)
            sends.setdefault(g1, {})[dest] = ParticleBlock.concat(blocks)
        flags = [0] * sub.size
        for g1 in sends:
            if g1 != sub.rank:
                flags[g1] = 1
        matrix = yield from sub.allgather(tuple(flags))
        recv_from = [r for r in range(sub.size) if matrix[r][sub.rank]]
        local = sends.pop(sub.rank, {})
        received = yield from alltoallv(sub, sends, recv_from,
                                        scan_seconds_per_peer=0.0)
        merged: Dict[int, List[ParticleBlock]] = {}
        for bundle in [local] + list(received.values()):
            for dest, block in bundle.items():
                merged.setdefault(dest, []).append(block)

        # exactly one batch per served mover per step
        for dest in served:
            block = ParticleBlock.concat(merged.get(dest, []))
            yield from down.isend((dest, step, block))

    return {
        "role": "exchange",
        "elapsed": comm.time,
        "particles_handled": particles_handled,
        "steps": cfg.steps,
    }


# ----------------------------------------------------------------------
# scale mode: relaxed FCFS dataflow with per-round aggregation
# ----------------------------------------------------------------------

def _exchange_relaxed(comm: Comm, cfg: IPICConfig, ch_up, up, down
                      ) -> Generator[Any, Any, Dict[str, Any]]:
    n0 = cfg.n_mover
    dims = tuple(dims_create(n0, 3))
    me_ci = ch_up.consumer_index
    served = ch_up.producers_of(me_ci)
    total_elements = cfg.steps * len(served)
    particles_handled = 0
    buckets: Dict[int, int] = {}       # dest mover -> pending particles
    since_flush = 0

    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(23, me_ci)))

    def flush():
        for dest, cnt in list(buckets.items()):
            if cnt > 0:
                yield from down.isend(_ArrivalBatch(
                    dest, -1, cnt, cnt * cfg.particle_bytes + 24))
        buckets.clear()

    for _ in range(total_elements):
        element = yield from up.recv_element()
        _step, src, exits = element.data
        n_exit = exits.data
        particles_handled += n_exit
        if n_exit > 0:
            yield from comm.compute(
                n_exit * cfg.decoupled_handling_seconds_per_particle,
                label="exchange-handle")
            # destinations: the source's neighbours (multi-hop tail folded
            # in — the exchange group delivers direct regardless of hops)
            neigh = _neighbors(src, dims)
            base, extra = divmod(n_exit, len(neigh))
            for i, dest in enumerate(neigh):
                n = base + (1 if i < extra else 0)
                if n > 0:
                    buckets[dest] = buckets.get(dest, 0) + n
        since_flush += 1
        if since_flush >= len(served):   # ~once per simulation step
            yield from flush()
            since_flush = 0
    yield from flush()

    return {
        "role": "exchange",
        "elapsed": comm.time,
        "particles_handled": particles_handled,
        "steps": cfg.steps,
    }


class _ArrivalBatch:
    """Scale-mode arrival batch: (dest, step, count) + wire size."""

    __slots__ = ("dest", "step", "count", "nbytes")

    def __init__(self, dest: int, step: int, count: int, nbytes: int):
        self.dest = dest
        self.step = step
        self.count = count
        self.nbytes = nbytes

    def __wire_nbytes__(self) -> int:
        return self.nbytes

    def __getitem__(self, i):
        return (self.dest, self.step, self.count)[i]
