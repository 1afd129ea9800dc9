"""Extended-precision fallbacks for quantities double precision cannot hold.

Flat kernels on fine grids produce Gram matrices whose smallest eigenvalue
and near-node Schur complements sit far below the double-precision noise
floor; the rounded matrix itself can even be indefinite while the true one
is positive definite.  The routines here rebuild the few affected scalars
from exact node coordinates with mpmath, for kernels whose profile has a
closed form here (see :func:`supports` and :func:`supports_grid`).
:mod:`rkhs` escalates Schur values after measuring a double-precision
attempt against its noise floor; :mod:`spectral` takes grid eigenvalues
from here directly.

Every call runs in its own ``mpmath.MPContext`` at ``_DPS`` digits, so the
process-wide ``mpmath.mp`` precision is never read or written and
concurrent callers cannot change each other's working precision.

:func:`schur_values` factors the node Gram once per call and then runs one
forward and one back substitution per point.  The arithmetic is exactly
that of calling ``cholesky_solve`` per point: the factor and both
substitutions run 10 guard bits above the base precision, the same
operations in the same order, so the results agree to the last bit.

Everything in this module is deterministic and dependency-free apart from
mpmath itself.
"""

from __future__ import annotations

import mpmath
import numpy as np

from .errors import SingularGramError, UnsupportedConfigurationError
from .kernels import GAUSSIAN, INVERSE_MULTIQUADRIC, SOBOLEV, Kernel

_DPS = 50
# guard bits that mpmath's cholesky_solve adds for its factor and solves
_GUARD_BITS = 10


def supports(kernel: Kernel) -> bool:
    """Whether the kernel's profile has an extended-precision form here.

    Sobolev orders other than r in {1, 2} are evaluated through a spline
    of a quadrature table, which is only accurate to double precision; no
    extended-precision recomputation of such a kernel can be meaningful.
    """
    return kernel.family != SOBOLEV or kernel.r in (1, 2)


def supports_grid(kernel: Kernel, d: int) -> bool:
    """Whether :func:`grid_lambda_min` covers the grid: gaussian in any d, the rest in d = 1."""
    return kernel.family == GAUSSIAN or (d == 1 and supports(kernel))


def _context() -> mpmath.MPContext:
    ctx = mpmath.MPContext()
    ctx.dps = _DPS
    return ctx


def _profile_mp(ctx: mpmath.MPContext, kernel: Kernel, s2):
    """Radial profile at a squared distance, in the precision of ``ctx``."""
    if kernel.family == GAUSSIAN:
        return ctx.e ** (-s2 / (2 * ctx.mpf(kernel.sigma) ** 2))
    if kernel.family == INVERSE_MULTIQUADRIC:
        return (ctx.mpf(kernel.sigma) ** 2 + s2) ** (-ctx.mpf(kernel.beta))
    if kernel.r == 1:
        return ctx.pi * ctx.e ** (-2 * ctx.pi * ctx.sqrt(s2))
    if kernel.r == 2:
        x = ctx.sqrt(s2)
        return (ctx.pi / 2) * (1 + 2 * ctx.pi * x) * ctx.e ** (-2 * ctx.pi * x)
    raise UnsupportedConfigurationError(
        "extended-precision fallback only covers sobolev orders r in {1, 2}"
    )


def _gram_mp(ctx: mpmath.MPContext, kernel: Kernel, coords):
    n = len(coords)
    K = ctx.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            s2 = sum((a - b) ** 2 for a, b in zip(coords[i], coords[j]))
            K[i, j] = K[j, i] = _profile_mp(ctx, kernel, s2)
    return K


def _grid_coords_1d(ctx: mpmath.MPContext, m: int):
    return [(ctx.mpf(i) / m,) for i in range(m + 1)]


def grid_lambda_min(kernel: Kernel, m: int, d: int) -> float:
    """Smallest Gram eigenvalue on the uniform grid, via extended precision.

    For the gaussian family the grid Gram factors as the d-fold Kronecker
    power of the one-dimensional Gram (a product kernel on a full lattice),
    so the smallest eigenvalue in dimension d is the d-th power of the
    one-dimensional one.  That identity is exact, not an approximation, and
    keeps the mp eigensolve at size m+1 instead of (m+1)^d.  A 1-D value
    that is not positive (every digit cancelled) raises SingularGramError.
    """
    if not supports_grid(kernel, d):
        raise UnsupportedConfigurationError(
            f"no extended-precision grid eigenvalue for {kernel.family} in d={d}"
        )
    ctx = _context()
    K = _gram_mp(ctx, kernel, _grid_coords_1d(ctx, m))
    lam = min(ctx.eigsy(K, eigvals_only=True))
    if lam <= 0:
        raise SingularGramError(
            f"extended-precision 1-D grid eigenvalue {float(lam):.3e} at m={m} is not positive"
        )
    return float(lam**d)


def schur_values(kernel: Kernel, nodes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Exact Schur complements K(x,x) - k_x^T K^{-1} k_x at many points.

    ``nodes`` is the (N, d) node array and ``xs`` the (n, d) evaluation
    array; both are promoted coordinate-by-coordinate to mp floats, which
    is lossless.  Returns a float64 array of nonnegative values; entries
    below double-precision resolution round to the nearest representable
    value rather than to an arbitrary negative residue.
    """
    nodes = np.atleast_2d(nodes)
    xs = np.atleast_2d(xs)
    ctx = _context()
    coords = [tuple(ctx.mpf(float(c)) for c in row) for row in nodes]
    K = _gram_mp(ctx, kernel, coords)
    diag = _profile_mp(ctx, kernel, ctx.mpf(0))
    # K = L L^T, factored and solved in a context carrying the guard bits
    hi = mpmath.MPContext()
    hi.prec = ctx.prec + _GUARD_BITS
    L = hi.cholesky(hi.matrix(K))
    n = len(coords)
    lower = [[L[i, j] for j in range(i)] for i in range(n)]
    upper = [[L[j, i] for j in range(i + 1, n)] for i in range(n)]
    pivots = [L[i, i] for i in range(n)]
    out = np.empty(xs.shape[0])
    for idx, row in enumerate(xs):
        x = tuple(ctx.mpf(float(c)) for c in row)
        k = [_profile_mp(ctx, kernel, sum((a - b) ** 2 for a, b in zip(c, x))) for c in coords]
        # forward substitution L z = k as in cholesky_solve, then back
        # substitution L^T y = z as in U_solve, both in place in y
        y = [hi.convert(v) for v in k]
        for i in range(n):
            y[i] -= hi.fsum(l * z for l, z in zip(lower[i], y))
            y[i] /= pivots[i]
        for i in range(n - 1, -1, -1):
            yi = y[i]
            for u, yj in zip(upper[i], y[i + 1 :]):
                yi -= u * yj
            y[i] = yi / pivots[i]
        s = diag - sum(kv * yv for kv, yv in zip(k, y))
        out[idx] = float(max(s, ctx.mpf(0)))
    return out
