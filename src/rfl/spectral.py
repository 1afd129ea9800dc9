"""Smallest Gram eigenvalues, the spectral lower bound, and growth constants.

Grid eigenvalues of every kernel on the line and of gaussian kernels in
any dimension (see :func:`rfl._exact.supports_grid`) are rebuilt from
exact node coordinates in extended precision, so flat kernels whose
rounded Gram matrix is indefinite in double precision still get their
true value.  Every other node set, and grids past ``EXTENDED_MAX_M``, use
LAPACK's symmetric eigensolver and refuse a value that does not clear the
noise floor of the rounded matrix.  The dimension is always the kernel's
``dim``, and an eigenvalue is always that of one :class:`rfl.rkhs.GramSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _exact
from ._report import Report
from .errors import ArgumentError, SingularGramError, _check_positive_int
from .geometry import fill_distance, uniform_grid
from .kernels import Kernel
from .rkhs import GramSystem, build_gram

_EPS = float(np.finfo(float).eps)

# largest grid m sent to the extended route; the raw-libmp Householder
# reduction of the Gram's two half-order blocks grows like m^3 / 4 (sobolev
# r=1, d=1, one solve at 169 bits: 0.013 s at m=32, 0.065 s at m=64;
# gaussian sigma=1, which reruns up to 338 and 676 bits: 0.022 s and 0.24 s;
# best of 3 on a 2-core Xeon)
EXTENDED_MAX_M = 64


@dataclass(frozen=True)
class SpectralReport(Report):
    """Smallest eigenvalue of a grid Gram matrix against its spectral bound.

    ``bound_m_gamma`` is m times the spectral-density corner minimum; the
    ``m_pow_d`` pair tracks the stronger exponent that the change of
    variables in the underlying argument supports.  ``method`` records
    whether the eigenvalue came from the extended-precision grid route
    ("extended") or from LAPACK in double precision ("eigvalsh").
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
    """Smallest eigenvalue of a symmetric matrix, by ``numpy.linalg.eigvalsh``."""
    A = np.array(gram, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ArgumentError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(A)[0])


def lambda_min_accurate(system: GramSystem) -> tuple[float, str]:
    """Smallest eigenvalue of a Gram system, from the most accurate route available.

    Systems on a uniform grid with m <= ``EXTENDED_MAX_M`` whose kernel
    :func:`rfl._exact.supports_grid` are solved in extended precision from
    exact node coordinates.  Everything else goes to :func:`smallest_eigenvalue`
    on ``system.gram``; a result at or below the noise floor of the rounded
    matrix is meaningless (the stored matrix is often exactly indefinite even
    though the true one is positive definite) and raises :class:`SingularGramError`.
    Returns the value and the method tag ("extended" or "eigvalsh").
    """
    m = system.points.grid_m
    if m is not None and m <= EXTENDED_MAX_M and _exact.supports_grid(system.kernel):
        return _exact.grid_lambda_min(system.kernel, m), "extended"
    gram = system.gram
    lam = smallest_eigenvalue(gram)
    floor = 10.0 * len(gram) * _EPS * float(np.linalg.norm(gram))
    if lam <= floor:
        raise SingularGramError(
            f"smallest Gram eigenvalue {lam:.3e} of {len(gram)} nodes lies below the "
            f"double-precision noise floor {floor:.3e}, and no extended-precision route applies"
        )
    return lam, "eigvalsh"


def check_eigen_lower_bound(kernel: Kernel, m: int) -> SpectralReport:
    """Compare the smallest grid-Gram eigenvalue with its spectral bound.

    The grid is the uniform one in the kernel's dimension d.  The bound
    states lambda_min >= m * Gamma_m where Gamma_m is the corner minimum of
    the spectral density over [-m/2, m/2]^d; the stronger m^d variant is
    evaluated alongside.  Flags carry a 1e-6 relative slack.
    """
    _check_positive_int(m, "grid parameter m")
    d = int(kernel.dim)
    gamma = kernel.gamma_m(int(m))
    system = build_gram(kernel, uniform_grid(int(m), d))
    lam, method = lambda_min_accurate(system)
    bound = m * gamma
    bound_pow = float(m**d) * gamma
    slack = 1.0 - 1e-6
    return SpectralReport(
        kernel=kernel,
        m=int(m),
        d=d,
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
    :func:`lambda_min_accurate`; on nodes without an extended-precision
    route whose smallest eigenvalue lies below the noise floor that raises
    :class:`SingularGramError`.
    """
    if isinstance(s, bool) or not (0.0 < s <= 1.0):
        raise ArgumentError(f"exponent s must be a number in (0, 1], got {s!r}")
    if isinstance(C_F, bool) or not (math.isfinite(C_F) and C_F >= 0.0):
        raise ArgumentError(f"functional constant must be finite and nonnegative, got {C_F!r}")
    alpha, c_k = system.kernel.holder_data()
    h = fill_distance(system.points)
    lam, _ = lambda_min_accurate(system)
    n = len(system)
    return float(C_F * (1.0 + (1.0 / lam) * math.sqrt(n) * c_k * h**alpha) ** s)
