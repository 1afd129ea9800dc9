"""Point sets on the unit cube: uniform grids, Halton probes, fill distance.

A PointSet is an immutable ordered collection of points in [0, 1]^d.  Sets
built by :func:`uniform_grid` remember their lattice parameter m, which
unlocks the exact closed form of the fill distance; arbitrary sets fall
back to a probe-based estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ResourceLimitError, _check_positive_int
from .kernels import _BLOCK_ENTRIES, _sq_dists

DEFAULT_MAX_POINTS = 4096
_PROBE_COUNT = 2048


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered points in the unit cube, optionally tagged as a lattice.

    ``grid_m`` is set only by :func:`uniform_grid`; when present the points
    enumerate {0, 1/m, ..., 1}^dim in row-major order (first coordinate
    slowest).
    """

    dim: int
    points: np.ndarray
    grid_m: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        object.__setattr__(self, "points", pts)
        _check_positive_int(self.dim, "dim")
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ArgumentError(
                f"points must be an (N, {self.dim}) array, got shape {pts.shape}"
            )
        if pts.shape[0] == 0:
            raise ArgumentError("point set may not be empty")
        if not np.isfinite(pts).all():
            raise ArgumentError("points must be finite")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ArgumentError("all coordinates must lie in [0, 1]")
        # equal neighbours after a lexicographic sort: the duplicates
        # np.unique(axis=0) finds, at about a fifth of its cost on small sets
        rows = pts[np.lexsort(pts.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ArgumentError("point set contains duplicate points")
        if self.grid_m is not None and pts.shape[0] != (self.grid_m + 1) ** self.dim:
            raise ArgumentError("grid_m inconsistent with the number of points")
        pts.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]


def uniform_grid(m: int, d: int) -> PointSet:
    """The lattice {0, 1/m, ..., 1}^d in row-major order.

    Raises a resource-limit error when (m+1)^d exceeds ``DEFAULT_MAX_POINTS``
    (4096); Gram work downstream is dense, so the cap keeps memory and
    eigensolver cost bounded.
    """
    _check_positive_int(m, "m")
    _check_positive_int(d, "d")
    n = (m + 1) ** d
    if n > DEFAULT_MAX_POINTS:
        raise ResourceLimitError(
            f"grid with ({m}+1)^{d} = {n} points exceeds the cap of {DEFAULT_MAX_POINTS}"
        )
    axis = np.arange(m + 1) / m
    cols = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([c.ravel() for c in cols], axis=1)
    return PointSet(dim=int(d), points=pts, grid_m=int(m))


def halton_points(n: int, d: int) -> PointSet:
    """Deterministic quasi-random probe set (unscrambled Halton sequence)."""
    _check_positive_int(n, "n")
    _check_positive_int(d, "d")
    from scipy.stats import qmc  # deferred: scipy.stats about doubles the import of rfl

    return PointSet(dim=int(d), points=qmc.Halton(d=d, scramble=False).random(n))


def _min_dists_to(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query point, the distance to the nearest set point.

    Queries go in blocks of about 4M distances, which bounds memory.
    """
    out = np.empty(queries.shape[0])
    step = max(1, _BLOCK_ENTRIES // points.shape[0])
    for i0 in range(0, queries.shape[0], step):
        d2 = _sq_dists(queries[i0 : i0 + step], points)
        out[i0 : i0 + d2.shape[0]] = np.sqrt(d2.min(axis=1))
    return out


def fill_distance(points: PointSet) -> float:
    """Largest distance from any domain point to the node set.

    Uniform grids use the exact value sqrt(d)/(2m).  Other sets maximize
    the nearest-node distance over 2048 unscrambled Halton points, which
    estimates the true fill distance from below with error at most the
    resolution of those probe points.
    """
    if points is None or len(points) == 0:
        raise ArgumentError("point set may not be empty")
    if points.grid_m is not None:
        return float(np.sqrt(points.dim) / (2.0 * points.grid_m))
    probe = halton_points(_PROBE_COUNT, points.dim)
    return float(_min_dists_to(points.points, probe.points).max())
