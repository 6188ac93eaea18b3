"""Decoupled CG: the halo exchange runs on its own group (Section IV-C).

Group G0 (compute ranks) streams boundary faces out and computes the
inner Laplacian without waiting; group G1 (halo ranks, alpha = 6.25%)
receives faces first-come-first-served, *aggregates the six faces
destined to each compute rank into one bundle*, and streams the bundle
back — so a compute rank completes its boundary with a single receive
instead of six neighbour dependencies, exactly the paper's description:
"instead of communicating with six processes, the group G1 aggregates
these boundary values for group G0 and stream them back".

Routing: faces are routed by *destination* compute rank, so all six
faces for rank j land on one halo rank regardless of which neighbour
produced them.  Iterations are pipelined — a fast rank's iteration k+1
faces may arrive while a slow neighbour's iteration k face is still in
flight; the halo group buffers per (iteration, destination).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ...mpistream import attach, create_channel
from ...simmpi.comm import Comm
from ...simmpi.datatypes import SizedPayload
from ...simmpi.topology import CartComm, dims_create
from .config import CGConfig
from .kernels import (
    FACES,
    clear_ghost,
    insert_ghost,
    interior,
    local_dot,
)
from .reference import _RankState, _cg_iteration_algebra, _finalize


def cg_decoupled(comm: Comm, cfg: CGConfig
                 ) -> Generator[Any, Any, Dict[str, Any]]:
    """SPMD main: first ``n_compute`` ranks solve, the rest serve halos."""
    n0 = cfg.n_compute
    is_compute = comm.rank < n0
    t0 = comm.time

    ch_up = yield from create_channel(comm, is_producer=is_compute,
                                      is_consumer=not is_compute)
    ch_down = yield from create_channel(comm, is_producer=not is_compute,
                                        is_consumer=is_compute)

    # faces are routed by destination compute rank; bundles likewise
    route_up = lambda pi, seq, data: _consumer_for(ch_up, data[0])
    route_down = lambda pi, seq, data: data[0]
    up = yield from attach(ch_up, None, router=route_up)
    down = yield from attach(ch_down, None, router=route_down)

    # split is collective over the world: every rank participates
    sub = yield from comm.split(0 if is_compute else 1, key=comm.rank)

    if is_compute:
        result = yield from _compute_rank(comm, cfg, sub, up, down, t0)
    else:
        result = yield from _halo_rank(comm, cfg, ch_up, up, down)
    yield from ch_up.free()
    yield from ch_down.free()
    return result


def _consumer_for(channel, dest_producer_index: int) -> int:
    """Consumer index serving ``dest_producer_index`` under blocked
    assignment (all of a compute rank's faces funnel to one halo rank)."""
    return dest_producer_index * channel.nconsumers // channel.nproducers


def _compute_rank(comm: Comm, cfg: CGConfig, sub, up, down, t0
                  ) -> Generator[Any, Any, Dict[str, Any]]:
    n0 = cfg.n_compute
    dims = dims_create(n0, 3)
    cart = CartComm(sub, dims)
    # weak-scaling fairness: the same global grid over fewer ranks
    scale = cfg.nprocs / n0 if not cfg.numeric else 1.0
    state = _RankState(cfg, cart, cfg.block(scale), comm.rank)

    rr = (local_dot(state.r, state.r) if cfg.numeric else 1.0)
    if cfg.numeric:
        rr = yield from sub.allreduce(rr)

    for it in range(cfg.iterations):
        # 1. stream out boundary faces, routed by destination rank
        for axis, direction, peer in state.neighbors:
            payload = state.face_payload(axis, direction)
            yield from up.isend((peer, it, comm.rank, payload))
        # 2. inner Laplacian while faces travel
        yield from comm.compute(state.laplacian_seconds("inner"),
                                label="laplacian-inner")
        state.compute_q("inner")
        # 3. one aggregated bundle per iteration
        if state.neighbors:
            element = yield from down.recv_element()
            _dest, bundle_it, faces = element.data
            assert bundle_it == it, "bundle arrived out of iteration order"
            _absorb_bundle(cfg, state, faces)
        # 4. boundary Laplacian + algebra on G0's communicator
        yield from comm.compute(state.laplacian_seconds("boundary"),
                                label="laplacian-boundary")
        state.compute_q("boundary")
        rr, _res = yield from _cg_iteration_algebra(sub, state, rr)

    yield from up.terminate()
    out = _finalize(comm, cfg, state, rr, t0)
    out["role"] = "compute"
    return out


def _absorb_bundle(cfg: CGConfig, state, faces: List) -> None:
    if not cfg.numeric:
        return
    for axis, direction in FACES:
        clear_ghost(state.p, axis, direction)
    for axis, direction, face in faces:
        # neighbour's face (axis, direction) fills our (axis, -direction)
        insert_ghost(state.p, axis, -direction, face)


def _halo_rank(comm: Comm, cfg: CGConfig, ch_up, up, down
               ) -> Generator[Any, Any, Dict[str, Any]]:
    """Aggregate faces per (iteration, destination); bundle when full."""
    me = ch_up.consumer_index
    served = ch_up.producers_of(me)          # compute-rank indices I serve
    n0 = cfg.n_compute
    dims = dims_create(n0, 3)
    probe = CartComm(_FakeRank(0, n0), dims)
    expected = {
        j: _neighbor_count(probe, j) for j in served
    }
    total_expected = cfg.iterations * sum(expected.values())
    pending: Dict[Tuple[int, int], List] = {}
    bundles_sent = 0
    bytes_aggregated = 0

    for _ in range(total_expected):
        element = yield from up.recv_element()
        dest, it, src_rank, payload = element.data
        key = (it, dest)
        bucket = pending.setdefault(key, [])
        if cfg.numeric:
            bucket.append(payload)
            face_bytes = payload[2].nbytes
        else:
            bucket.append(payload)         # SizedPayload; keeps wire size
            face_bytes = payload.nbytes
        bytes_aggregated += face_bytes
        yield from comm.compute(
            face_bytes * cfg.aggregate_seconds_per_byte, label="aggregate")
        if len(bucket) == expected[dest]:
            del pending[key]
            if cfg.numeric:
                yield from down.isend((dest, it, bucket))
            else:
                nbytes = sum(p.nbytes for p in bucket)
                yield from down.isend(SizedBundle(dest, it, nbytes))
            bundles_sent += 1

    yield from down.terminate()
    assert not pending, "halo rank finished with incomplete bundles"
    return {
        "role": "halo",
        "elapsed": comm.time,
        "bundles": bundles_sent,
        "bytes_aggregated": bytes_aggregated,
        "iterations": cfg.iterations,
    }


class SizedBundle:
    """Timed-mode bundle: (dest, iteration, wire size of six faces)."""

    __slots__ = ("dest", "it", "nbytes")

    def __init__(self, dest: int, it: int, nbytes: int):
        self.dest = dest
        self.it = it
        self.nbytes = nbytes

    def __wire_nbytes__(self) -> int:
        return self.nbytes + 16

    def __getitem__(self, i):
        # bundle consumers unpack (dest, it, faces)
        return (self.dest, self.it, [])[i]


class _FakeRank:
    """Minimal stand-in comm for coordinate math on the halo side."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size


def _neighbor_count(cart: CartComm, rank: int) -> int:
    coords = cart.coords(rank)
    n = 0
    for axis in range(3):
        for direction in (-1, +1):
            peer = cart.rank_of(tuple(
                c + (direction if ax == axis else 0)
                for ax, c in enumerate(coords)
            ))
            if peer is not None:
                n += 1
    return n
