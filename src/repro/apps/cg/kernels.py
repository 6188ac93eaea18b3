"""Numerical kernels for the distributed CG solver (real NumPy math).

The local state of one rank is a 3-D block of the global grid stored
with a one-cell ghost layer on every face: shape ``(nx+2, ny+2, nz+2)``.
Faces are exchanged into the ghost layer; the 7-point Laplacian then
applies uniformly over the interior.

All kernels are vectorized NumPy (per the hpc-parallel guides: no
Python loops over grid points, views not copies where possible).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: (axis, direction) keys for the six faces, in a fixed exchange order
FACES: List[Tuple[int, int]] = [
    (0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1),
]


def alloc_block(nx: int, ny: int, nz: int) -> np.ndarray:
    """A zeroed local block with ghost layers."""
    return np.zeros((nx + 2, ny + 2, nz + 2), dtype=np.float64)


def interior(u: np.ndarray) -> np.ndarray:
    """View of the owned cells (no ghosts)."""
    return u[1:-1, 1:-1, 1:-1]


def extract_face(u: np.ndarray, axis: int, direction: int) -> np.ndarray:
    """Copy of the outermost *owned* plane on ``(axis, direction)`` —
    what gets sent to the neighbour on that side."""
    idx: List[slice] = [slice(1, -1)] * 3
    idx[axis] = slice(1, 2) if direction < 0 else slice(-2, -1)
    return np.ascontiguousarray(u[tuple(idx)])


def insert_ghost(u: np.ndarray, axis: int, direction: int,
                 face: np.ndarray) -> None:
    """Write a received neighbour plane into the ghost layer."""
    idx: List[slice] = [slice(1, -1)] * 3
    idx[axis] = slice(0, 1) if direction < 0 else slice(-1, None)
    u[tuple(idx)] = face


def clear_ghost(u: np.ndarray, axis: int, direction: int) -> None:
    """Zero a ghost face (homogeneous Dirichlet boundary)."""
    idx: List[slice] = [slice(1, -1)] * 3
    idx[axis] = slice(0, 1) if direction < 0 else slice(-1, None)
    u[tuple(idx)] = 0.0


def apply_laplacian(u: np.ndarray, out: np.ndarray) -> None:
    """7-point negative Laplacian: ``out = 6u - sum(neighbours)``.

    ``u`` must have current ghost layers; ``out`` is written on the
    owned region only (its ghosts are untouched).
    """
    c = u[1:-1, 1:-1, 1:-1]
    out[1:-1, 1:-1, 1:-1] = (
        6.0 * c
        - u[:-2, 1:-1, 1:-1] - u[2:, 1:-1, 1:-1]
        - u[1:-1, :-2, 1:-1] - u[1:-1, 2:, 1:-1]
        - u[1:-1, 1:-1, :-2] - u[1:-1, 1:-1, 2:]
    )


def apply_laplacian_split(u: np.ndarray, out: np.ndarray,
                          part: str) -> None:
    """Laplacian restricted to the ``'inner'`` region (independent of
    ghosts) or the ``'boundary'`` shell (needs ghosts).

    This split is what communication/computation overlap is made of:
    the inner part is computed while faces are in flight.
    """
    if part == "inner":
        c = u[2:-2, 2:-2, 2:-2]
        if c.size == 0:
            return
        out[2:-2, 2:-2, 2:-2] = (
            6.0 * c
            - u[1:-3, 2:-2, 2:-2] - u[3:-1, 2:-2, 2:-2]
            - u[2:-2, 1:-3, 2:-2] - u[2:-2, 3:-1, 2:-2]
            - u[2:-2, 2:-2, 1:-3] - u[2:-2, 2:-2, 3:-1]
        )
        return
    if part == "boundary":
        # recompute the full owned region and keep only the shell: for
        # the block sizes in numeric mode this costs less than six
        # strided shell updates and is obviously correct.
        tmp = np.empty_like(u)
        apply_laplacian(u, tmp)
        shell = shell_mask(u.shape)
        out[shell] = tmp[shell]
        return
    raise ValueError(f"part must be 'inner' or 'boundary', got {part!r}")


def shell_mask(shape: Tuple[int, int, int]) -> np.ndarray:
    """Boolean mask of the one-cell owned shell (ghosts excluded)."""
    mask = np.zeros(shape, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = True
    inner = np.zeros(shape, dtype=bool)
    inner[2:-2, 2:-2, 2:-2] = True
    return mask & ~inner


def local_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product over owned cells."""
    return float(np.vdot(interior(a), interior(b)).real)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    """``y[own] += alpha * x[own]`` in place."""
    interior(y)[...] = interior(y) + alpha * interior(x)
