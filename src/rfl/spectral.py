"""Smallest Gram eigenvalues, the spectral lower bound, and growth constants.

The eigensolver is a deterministic cyclic-by-rows Jacobi iteration written
against plain numpy arrays; the residual of the returned eigenpair is
checked before its value is used.  When the smallest eigenvalue
of a flat-kernel Gram matrix falls below what double precision can resolve
(the rounded matrix itself is typically indefinite there), the value is
rebuilt from exact node coordinates in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _exact
from ._report import Report
from .errors import ArgumentError, DivergenceError, ResourceLimitError, SingularGramError
from .geometry import PointSet, fill_distance, uniform_grid
from .kernels import Kernel
from .rkhs import GramSystem, build_gram

_EPS = float(np.finfo(float).eps)

JACOBI_MAX_N = 512
JACOBI_MAX_SWEEPS = 60
_JACOBI_TOL_FACTOR = 1e-13
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SpectralReport(Report):
    """Smallest eigenvalue of a grid Gram matrix against its spectral bound.

    ``bound_m_gamma`` is m times the spectral-density corner minimum; the
    ``m_pow_d`` pair tracks the stronger exponent that the change of
    variables in the underlying argument supports.  ``method`` records
    whether the eigenvalue came from the double-precision Jacobi solver or
    the extended-precision fallback.
    """

    kernel: Kernel
    m: int
    d: int
    lambda_min: float
    inv_op_norm: float
    bound_m_gamma: float
    bound_satisfied: bool
    bound_m_pow_d_gamma: float
    bound_m_pow_d_satisfied: bool
    jitter_used: float
    method: str


def smallest_eigenvalue(gram) -> float:
    """Smallest eigenvalue of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run in a fixed row order until the off-diagonal Frobenius mass
    drops below 1e-13 times the matrix norm (comfortably past the 1e-12
    contract), then the smallest diagonal entry is returned after a
    Rayleigh-residual sanity check on its eigenvector.
    """
    A = np.array(gram, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ArgumentError("matrix is not symmetric")
    n = A.shape[0]
    if n > JACOBI_MAX_N:
        raise ResourceLimitError(f"Jacobi solver capped at {JACOBI_MAX_N}, got {n}")
    if n == 1:
        return float(A[0, 0])
    orig = A.copy()
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return 0.0
    V = np.eye(n)
    tol = _JACOBI_TOL_FACTOR * fro
    for _ in range(JACOBI_MAX_SWEEPS):
        # off-diagonal mass summed directly; the fro^2 - diag^2 shortcut
        # cancels catastrophically once off falls near sqrt(eps)*fro
        off_mat = A.copy()
        np.fill_diagonal(off_mat, 0.0)
        off = float(np.linalg.norm(off_mat))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        raise DivergenceError("Jacobi iteration did not converge within the sweep budget")
    diag = np.diag(A)
    idx = int(np.argmin(diag))
    lam = float(diag[idx])
    v = V[:, idx]
    residual = float(np.linalg.norm(orig @ v - lam * v))
    if residual > _RESIDUAL_TOL * fro:
        raise DivergenceError(
            f"Jacobi eigenpair residual {residual:.3e} exceeds {_RESIDUAL_TOL * fro:.3e}"
        )
    return lam


def _double_noise_floor(gram: np.ndarray) -> float:
    n = gram.shape[0]
    return 10.0 * n * _EPS * float(np.linalg.norm(gram))


def lambda_min_accurate(kernel: Kernel, points: PointSet, gram) -> tuple[float, str]:
    """Smallest Gram eigenvalue with automatic precision escalation.

    Runs the double-precision Jacobi solver first.  A result below the
    noise floor of the rounded matrix is meaningless (the stored matrix is
    often exactly indefinite even though the true one is positive
    definite), so grids then recompute from exact node coordinates in
    extended precision.  Other node sets have no extended-precision route
    and raise :class:`SingularGramError` instead of returning an
    unresolved value.  Returns the value and the method tag
    ("jacobi" or "extended").
    """
    lam = smallest_eigenvalue(gram)
    floor = _double_noise_floor(np.asarray(gram, dtype=float))
    if lam > floor:
        return lam, "jacobi"
    if points.grid_m is None:
        raise SingularGramError(
            f"smallest Gram eigenvalue {lam:.3e} of {len(points)} non-grid nodes lies "
            f"below the double-precision noise floor {floor:.3e}, and only grids "
            "have an extended-precision fallback"
        )
    refined = _exact.grid_lambda_min(kernel, points.grid_m, points.dim)
    return refined, "extended"


def check_eigen_lower_bound(kernel: Kernel, m: int, d: int | None = None) -> SpectralReport:
    """Compare the smallest grid-Gram eigenvalue with its spectral bound.

    The bound states lambda_min >= m * Gamma_m where Gamma_m is the corner
    minimum of the spectral density over [-m/2, m/2]^d; the stronger
    m^d variant is evaluated alongside.  Flags carry a 1e-6 relative slack.
    """
    if d is None:
        d = kernel.dim
    if d != kernel.dim:
        raise ArgumentError(
            f"requested dimension {d} conflicts with the kernel descriptor ({kernel.dim})"
        )
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ArgumentError(f"grid parameter m must be a positive integer, got {m!r}")
    gamma = kernel.gamma_m(int(m))
    grid = uniform_grid(int(m), int(d))
    system = build_gram(kernel, grid)
    lam, method = lambda_min_accurate(kernel, grid, system.gram)
    bound = m * gamma
    bound_pow = float(m**d) * gamma
    slack = 1.0 - 1e-6
    return SpectralReport(
        kernel=kernel,
        m=int(m),
        d=int(d),
        lambda_min=lam,
        inv_op_norm=1.0 / lam,
        bound_m_gamma=bound,
        bound_satisfied=bool(lam >= bound * slack),
        bound_m_pow_d_gamma=bound_pow,
        bound_m_pow_d_satisfied=bool(lam >= bound_pow * slack),
        jitter_used=system.jitter_used,
        method=method,
    )


def holder_constant_G(system: GramSystem, s: float, C_F: float) -> float:
    """Hölder constant of the discretized functional on node data.

    Evaluates C_F * (1 + |K^-1|_op * sqrt(N) * C_K * h^alpha)^s where h is
    the fill distance of the node set and (alpha, C_K) the kernel's Hölder
    data.  The operator norm is 1/lambda_min with lambda_min from
    :func:`lambda_min_accurate`; on a non-grid node set whose smallest
    eigenvalue lies below the noise floor that raises
    :class:`SingularGramError`.
    """
    if not (0.0 < s <= 1.0):
        raise ArgumentError(f"exponent s must lie in (0, 1], got {s!r}")
    if C_F < 0.0:
        raise ArgumentError(f"functional constant must be nonnegative, got {C_F!r}")
    alpha, c_k = system.kernel.holder_data()
    h = fill_distance(system.points)
    lam, _ = lambda_min_accurate(system.kernel, system.points, system.gram)
    n = len(system)
    return float(C_F * (1.0 + (1.0 / lam) * math.sqrt(n) * c_k * h**alpha) ** s)
