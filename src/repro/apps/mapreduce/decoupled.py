"""Decoupled MapReduce over a declarative stream graph (Section IV-B).

Groups, exactly as the paper lays them out:

* **map stage** — (1 - alpha) * P ranks.  Each reads its log files and
  streams every chunk's partial histogram to its assigned local
  reducer *the moment the chunk is mapped* (continuous dataflow, no
  end-of-stage burst).
* **reduce stage** — alpha * P ranks, "further decoupled into one group
  that reduces the streams locally and one master process that
  aggregates the global results".  Local reducers fold arriving
  partials first-come-first-served; every ``master_update_elements``
  elements they push their running partial to the master.  *No data
  aggregation is applied inside the reduce group* — faithfully copying
  the paper's noted limitation, which congests the master at 4,096+
  processes (the Fig. 5 uptick).

Because the same total workload runs on fewer map ranks, each mapper
carries ``1/(1-alpha)`` more input (the paper's fairness rule,
Section IV-A).

The wiring is declared once in :func:`build_graph` and compiled onto a
``DecouplingPlan`` by :mod:`repro.api`; ``CompiledGraph.execute``
builds each rank's stage and applies the terminate/free protocol
instead of the bodies doing it by hand.  :func:`decoupled_worker`
keeps its original plain-rank-program signature so existing callers
(benchmarks, sweeps) are unchanged.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator

from ...api import StreamGraph
from ...simmpi.comm import Comm
from .common import (
    MapReduceConfig,
    chunk_map_seconds,
    empty_histogram,
    map_chunk,
    merge_cost_seconds,
    rank_file,
)


class _ReduceState:
    """Per-reducer folding state (attribute access beats a dict in the
    per-element fold operator)."""

    __slots__ = ("partial", "since_push", "elements")

    def __init__(self, partial):
        self.partial = partial
        self.since_push = 0
        self.elements = 0


def roles(cfg: MapReduceConfig, rank: int) -> str:
    """'map' / 'reduce' / 'master' for a world rank.

    Map ranks come first; the reduce group occupies the tail, with its
    last rank acting as the master aggregator."""
    if rank < cfg.n_map:
        return "map"
    if rank == cfg.nprocs - 1:
        return "master"
    return "reduce"


def build_graph(cfg: MapReduceConfig) -> StreamGraph:
    """The three-stage graph: map -> reduce -> master."""

    def map_body(ctx) -> Generator[Any, Any, Dict[str, Any]]:
        # Fairness rule (Section IV-A): the decoupled run processes the
        # SAME total workload — all cfg.nprocs files' chunks — spread
        # over the smaller map group, so each mapper carries
        # ~1/(1-alpha) more input than a reference rank.
        my_index = ctx.comm.rank       # map block starts at world rank 0
        nmap = cfg.n_map
        total_bytes = 0
        chunks_done = 0
        with ctx.producer("intermediate") as out:
            for item in range(my_index, cfg.nprocs * cfg.nchunks, nmap):
                file_idx, chunk = divmod(item, cfg.nchunks)
                file = rank_file(cfg, file_idx)
                chunk_bytes = file.nbytes / cfg.nchunks
                seconds = chunk_map_seconds(cfg, file_idx, chunk, chunk_bytes)
                yield from ctx.compute(seconds, label="map")
                part = map_chunk(cfg, file, file_idx, chunk)
                yield from out.send(part)
                total_bytes += chunk_bytes
                chunks_done += 1
        return {"chunks": chunks_done, "file_bytes": int(total_bytes)}

    def reduce_body(ctx) -> Generator[Any, Any, Dict[str, Any]]:
        state = _ReduceState(empty_histogram(cfg))
        with ctx.producer("aggregate") as to_master:

            def fold(element):
                part = element.data
                cost = merge_cost_seconds(state.partial, part, cfg)
                yield from ctx.compute(cost, label="reduce")
                state.partial = state.partial.merge(part)
                state.since_push += 1
                state.elements += 1
                if state.since_push >= cfg.master_update_elements:
                    yield from to_master.send(state.partial)
                    state.partial = empty_histogram(cfg)
                    state.since_push = 0

            yield from ctx.consume("intermediate", operator=fold)
            if state.since_push > 0 or state.elements == 0:
                yield from to_master.send(state.partial)
        return {"elements": state.elements}

    def master_body(ctx) -> Generator[Any, Any, Dict[str, Any]]:
        state = {"total": empty_histogram(cfg), "updates": 0}

        def aggregate(element):
            part = element.data
            cost = merge_cost_seconds(state["total"], part, cfg)
            yield from ctx.compute(cost, label="master-merge")
            state["total"] = state["total"].merge(part)
            state["updates"] += 1

        yield from ctx.consume("aggregate", operator=aggregate)
        return {"updates": state["updates"], "result": state["total"]}

    return (
        StreamGraph("mapreduce-decoupled")
        .stage("map", size=cfg.n_map, body=map_body)
        .stage("reduce", size=cfg.n_reduce - 1, body=reduce_body)
        .stage("master", size=1, body=master_body)
        .flow("intermediate", src="map", dst="reduce")
        .flow("aggregate", src="reduce", dst="master")
    )


#: per-config compiled graph: building and validating the graph is a
#: pure function of cfg, but the SPMD launcher calls decoupled_worker
#: once per rank — without the memo an 8k-rank run pays 8k compiles
@functools.lru_cache(maxsize=64)
def _compiled(cfg: MapReduceConfig):
    return build_graph(cfg).compile(cfg.nprocs)


def decoupled_worker(comm: Comm, cfg: MapReduceConfig
                     ) -> Generator[Any, Any, Dict[str, Any]]:
    """SPMD main of the decoupled implementation (graph-compiled)."""
    if comm.size != cfg.nprocs:
        raise ValueError("config/communicator size mismatch")
    t_start = comm.time
    record = yield from _compiled(cfg).execute(comm)
    out: Dict[str, Any] = {"role": record.stage}
    out.update(record.result)
    out["elapsed"] = comm.time - t_start
    return out
