"""3-D block domain decomposition helpers.

Shared by the CG solver and iPIC3D: a global Cartesian grid is split
into per-process blocks; each block exchanges one-cell-deep halos with
its six face neighbours.  The paper's CG weak scaling keeps 120^3 grid
points per process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlockSpec:
    """One process's sub-block of the global grid."""

    nx: int
    ny: int
    nz: int
    value_bytes: int = 8  # double precision

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("block dimensions must be >= 1")
        if self.value_bytes <= 0:
            raise ValueError("value_bytes must be positive")

    @property
    def points(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def interior_points(self) -> int:
        """Points computable before any halo arrives (>= 1 cell from every
        face); zero if the block is too thin to have an interior."""
        ix = max(0, self.nx - 2)
        iy = max(0, self.ny - 2)
        iz = max(0, self.nz - 2)
        return ix * iy * iz

    @property
    def boundary_points(self) -> int:
        return self.points - self.interior_points

    def face_points(self, axis: int) -> int:
        """Points on one face perpendicular to ``axis`` (0=x, 1=y, 2=z)."""
        if axis == 0:
            return self.ny * self.nz
        if axis == 1:
            return self.nx * self.nz
        if axis == 2:
            return self.nx * self.ny
        raise ValueError(f"axis must be 0..2, got {axis}")

    def face_bytes(self, axis: int) -> int:
        return self.face_points(axis) * self.value_bytes

    @property
    def halo_bytes_total(self) -> int:
        """Bytes sent per halo exchange (both faces of all three axes)."""
        return 2 * sum(self.face_bytes(ax) for ax in range(3)) \
            if min(self.nx, self.ny, self.nz) > 0 else 0

    @property
    def nbytes(self) -> int:
        return self.points * self.value_bytes

