"""Gram systems, kernel interpolation, power functions, unit-ball sampling.

The central object is :class:`GramSystem`, a factorized kernel matrix over a
node set.  It backs the nodal basis, the interpolation projector and the
power function.  :class:`RkhsFunction` represents finite kernel combinations
whose norms and inner products are exact quadratic forms.

Many functions are projected at once through :func:`_projected_at`: one
Gram solve per block of node-value rows and one kernel matrix between the
evaluation points and the nodes, with each row's values bit-identical to
``project(system, row).eval_at(X)``.  ``rfl project`` and
:meth:`rfl.functionals.TargetFunctional._projected_values` both take it.

Numerical policy
----------------
Factorization uses Cholesky with an escalating diagonal jitter ladder
(0, then 1e-12 * trace/N doubling up to 1e-6 * trace/N); the jitter actually
used is recorded on the system.  Power-function values are Schur complements
computed in double precision.  On an unjittered system every value below the
double-precision noise floor 1e3 * N * eps * K(x,x) is recomputed from exact
node coordinates in extended precision (see :mod:`rfl._exact`), except at a
node, where the value is exactly 0 and no extended call is made.  That path
factors the node Gram once per call and runs the kernel profile and one
forward substitution per point as raw ``mpmath.libmp`` calls at an explicit
precision.  The sup of the power function is the largest of these pointwise
values, so :func:`power_function_sup` and :func:`power_values` never
disagree.  Jittered systems never escalate: their Schur complement is an
upper bound for the exact one and sits safely above the noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from . import _exact
from .errors import (
    ArgumentError,
    SingularGramError,
    _check_nonnegative_int,
    _check_positive_int,
    _check_real,
)
from .geometry import PointSet, halton_points, uniform_grid
from .kernels import Kernel

_EPS = float(np.finfo(float).eps)

JITTER_START_FACTOR = 1e-12
JITTER_MAX_FACTOR = 1e-6

_DEGENERATE_NORM = 1e-6
_COEFF_GUARD = 1e3
_SAMPLE_ATTEMPTS = 8
# Schur complements below _SCHUR_FLOOR * N * eps * K(x,x) on an unjittered
# system are double-precision noise
_SCHUR_FLOOR = 1e3
# rows per Gram solve in _projected_at; one solve of all 4000 rows of an
# flm dataset left the process's peak RSS about 0.3 MB higher
_SOLVE_BLOCK = 256


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Factorized Gram matrix over a node set.

    ``gram`` always holds the exact double-precision kernel matrix; the
    Cholesky ``factor`` belongs to ``gram + jitter_used * I``.
    """

    kernel: Kernel
    points: PointSet
    gram: np.ndarray
    factor: np.ndarray
    jitter_used: float

    def __len__(self) -> int:
        return len(self.points)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (gram + jitter I) x = rhs through the stored factor."""
        return cho_solve((self.factor, True), rhs)


@dataclass(frozen=True, eq=False)
class RkhsFunction:
    """Finite kernel combination sum_j coeffs[j] * K(., centers[j])."""

    kernel: Kernel
    centers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if centers.shape[0] == 1 and centers.shape[1] != self.kernel.dim:
            centers = centers.T
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if centers.shape != (coeffs.shape[0], self.kernel.dim):
            raise ArgumentError(
                f"centers shape {centers.shape} does not match "
                f"{coeffs.shape[0]} coefficients in dimension {self.kernel.dim}"
            )
        if coeffs.shape[0] < 1:
            raise ArgumentError("an RKHS combination needs at least one center")
        centers.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)

    def eval_at(self, X) -> np.ndarray:
        """Values at an (n, dim) array of points (or a single point)."""
        return self.kernel.pairwise(X, self.centers) @ self.coeffs

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel.to_json(),
            "centers": self.centers.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "RkhsFunction":
        return RkhsFunction(
            kernel=Kernel.from_json(obj["kernel"]),
            centers=np.asarray(obj["centers"], dtype=float),
            coeffs=np.asarray(obj["coeffs"], dtype=float),
        )


def build_gram(kernel: Kernel, points: PointSet) -> GramSystem:
    """Assemble and factorize the Gram matrix of a node set.

    Cholesky is attempted on the raw matrix first; failures walk the jitter
    ladder until the factorization succeeds or the maximum jitter is
    exhausted, which raises :class:`SingularGramError`.
    """
    if kernel.dim != points.dim:
        raise ArgumentError(
            f"kernel dimension {kernel.dim} does not match point set dimension {points.dim}"
        )
    gram = kernel.pairwise(points.points, points.points)
    n = gram.shape[0]
    mean_diag = float(np.trace(gram)) / n
    jitter = 0.0
    while True:
        try:
            factor = np.linalg.cholesky(gram + jitter * np.eye(n) if jitter else gram)
            break
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = JITTER_START_FACTOR * mean_diag
            else:
                jitter *= 2.0
            if jitter > JITTER_MAX_FACTOR * mean_diag:
                raise SingularGramError(
                    f"Cholesky failed up to jitter {JITTER_MAX_FACTOR * mean_diag:.3e} "
                    f"for {kernel.family} on {n} nodes (nodes too close or kernel too flat)"
                ) from None
    return GramSystem(
        kernel=kernel, points=points, gram=gram, factor=factor, jitter_used=float(jitter)
    )


def project(system: GramSystem, node_values) -> RkhsFunction:
    """Interpolation projector: the kernel combination matching node data.

    ``node_values`` is read as the vector of function values on the node
    set; the returned combination interpolates them (up to factorization
    accuracy) and is the orthogonal projection onto the node span whenever
    the values come from an RKHS function.
    """
    b = np.asarray(node_values, dtype=float)
    if b.shape != (len(system),):
        raise ArgumentError(
            f"expected {len(system)} node values, got shape {b.shape}"
        )
    coeffs = system.solve(b)
    return RkhsFunction(kernel=system.kernel, centers=system.points.points, coeffs=coeffs)


def _projected_at(system: GramSystem, node_values: np.ndarray, X: np.ndarray):
    """Yield ``project(system, row).eval_at(X)`` for each row of ``node_values``.

    Each block of rows takes one solve, whose columns have the bits of the
    per-row solves.  The kernel matrix between ``X`` and the nodes is built
    once and each row takes its own matrix-vector product, the one
    :meth:`RkhsFunction.eval_at` makes; one matrix product over all rows
    would round differently.
    """
    k = system.kernel.pairwise(X, system.points.points)
    for i0 in range(0, len(node_values), _SOLVE_BLOCK):
        for c in system.solve(node_values[i0 : i0 + _SOLVE_BLOCK].T).T:
            yield k @ c


def _power_squared(system: GramSystem, X: np.ndarray) -> np.ndarray:
    """Schur complements K(x,x) - k_x^T (gram + jitter)^{-1} k_x on a batch.

    On an unjittered system each entry below the floor
    ``_SCHUR_FLOOR * N * eps * K(x,x)`` is recomputed in extended precision
    (see :func:`rfl._exact.schur_values`).  A point equal to a node
    takes its exact 0 here, and a batch whose sub-floor points are all
    nodes makes no extended-precision call.  A jittered Schur complement
    is already a valid upper bound and is returned as computed.
    """
    nodes = system.points.points
    k = system.kernel.pairwise(nodes, X)
    s = system.kernel.diagonal() - np.einsum("ij,ij->j", k, system.solve(k))
    if system.jitter_used == 0.0:
        floor = _SCHUR_FLOOR * len(system) * _EPS * system.kernel.diagonal()
        low = np.flatnonzero(s < floor)
        if len(low):
            # a point equal to a node has an exact 0 and needs no factor
            hits = set(map(tuple, nodes.tolist()))
            hit = np.array([tuple(X[i].tolist()) in hits for i in low], dtype=bool)
            s[low[hit]] = 0.0
            if not hit.all():
                s[low[~hit]] = _exact.schur_values(system.kernel, nodes, X[low[~hit]])
    return np.maximum(s, 0.0)


def power_values(system: GramSystem, eval_points) -> np.ndarray:
    """Power function on a batch of points with pointwise guarantees."""
    if isinstance(eval_points, PointSet):
        X = eval_points.points
    else:
        X = np.atleast_2d(np.asarray(eval_points, dtype=float))
        if not np.isfinite(X).all():
            raise ArgumentError("evaluation points must be finite")
    return np.sqrt(_power_squared(system, X))


def default_power_eval_set(points: PointSet) -> PointSet:
    """Evaluation set for sup computations: 16x the node resolution.

    One-dimensional grids refine to a 16x finer grid (which contains the
    nodes; harmless for a sup).  Everything else uses 4096 unscrambled
    Halton points, since a 16x finer lattice would blow the grid cap in
    d >= 2.
    """
    if points.grid_m is not None and points.dim == 1:
        return uniform_grid(min(16 * points.grid_m, 4095), 1)
    return halton_points(4096, points.dim)


def power_function_sup(system: GramSystem, eval_set: PointSet | None = None) -> float:
    """Maximum of :func:`power_values` over a dense evaluation set."""
    if eval_set is None:
        eval_set = default_power_eval_set(system.points)
    return float(np.sqrt(_power_squared(system, eval_set.points).max()))


def rkhs_inner(f: RkhsFunction, g: RkhsFunction) -> float:
    """Exact inner product of two kernel combinations."""
    if f.kernel != g.kernel:
        raise ArgumentError("inner product requires functions over the same kernel")
    cross = f.kernel.pairwise(f.centers, g.centers)
    return float(f.coeffs @ cross @ g.coeffs)


def rkhs_norm(f: RkhsFunction) -> float:
    """Native-space norm sqrt(<f, f>); round-off below zero clamps to 0."""
    return float(np.sqrt(max(rkhs_inner(f, f), 0.0)))


# centers per drawn function; norm targets on [0.2, 1] avoid near-zero draws
DEFAULT_SAMPLE_CENTERS = 10
_NORM_TARGET_RANGE = (0.2, 1.0)


def sample_unit_ball(
    kernel: Kernel, n_centers: int, norm_target: float, seed: int
) -> RkhsFunction:
    """Random kernel combination with an exactly prescribed norm.

    Centers are uniform in the cube and coefficients standard normal,
    rescaled so the native norm equals ``norm_target``.  Draws whose norm
    is numerically degenerate, or whose rescaled coefficients would be so
    large that evaluating the function loses pointwise accuracy, are
    rejected and redrawn from the same stream (at most 8 attempts).
    """
    _check_positive_int(n_centers, "n_centers")
    _check_nonnegative_int(seed, "seed")
    if not 0.0 < _check_real(norm_target, "norm_target") <= 1.0:
        raise ArgumentError(f"norm_target must lie in (0, 1], got {norm_target!r}")
    rng = np.random.default_rng(seed)
    for _ in range(_SAMPLE_ATTEMPTS):
        centers = rng.uniform(0.0, 1.0, size=(n_centers, kernel.dim))
        coeffs = rng.standard_normal(n_centers)
        gram = kernel.pairwise(centers, centers)
        norm = float(np.sqrt(max(coeffs @ gram @ coeffs, 0.0)))
        if norm <= _DEGENERATE_NORM:
            continue
        coeffs = coeffs * (norm_target / norm)
        if float(np.linalg.norm(coeffs)) > _COEFF_GUARD:
            continue
        return RkhsFunction(kernel=kernel, centers=centers, coeffs=coeffs)
    raise SingularGramError(
        f"could not draw a well-conditioned unit-ball sample after "
        f"{_SAMPLE_ATTEMPTS} attempts (seed {seed})"
    )
