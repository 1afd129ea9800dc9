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

The kernel profiles, the Gram entries, the grid eigensolve, the Cholesky
factor and the substitutions run as direct ``mpmath.libmp`` calls on raw
mpf tuples.  Each call is given the precision and the rounding mode (round
to nearest) that the mpf operator it stands for would take from its context,
and the calls run in the order the operator expressions evaluate, so the
results are bit-identical to the object-level expressions while skipping
their wrapper, context lookup and allocation costs.  The precision is an
argument of every helper.  The one departure in form is ``e ** y``:
mpf_pow takes ``log e`` afresh for every exponent that is not a
half-integer, and here it is taken once per call at the same precision,
which gives the same bits.

The grid eigensolve is mpmath's own ``eigsy`` with ``eigvals_only=True``,
replayed operation for operation on lists of raw values: the Householder
reduction to tridiagonal form (EISPACK tred2) and the implicit QL
iteration (imtql2).
Where ``eigsy`` mixes in Python ints (accumulators starting from 0,
``2 * x``, ``1 / x``, the first rotation's ``s, c, p = 1, 1, 0``), the
replay makes the libmp call that the mpf operator makes for an int, so the
eigenvalues are ``eigsy``'s bits.  Only the closing sort, which merely
permutes, is left out; the minimum is taken by comparison instead.

libmp functions read no context state, so nothing here reads or writes the
process-wide ``mpmath.mp`` precision and concurrent callers cannot change
each other's working precision.  Everything here is deterministic and
dependency-free apart from mpmath itself.

:func:`schur_values` factors the node Gram K = L L^T once per call as
``MPContext.cholesky`` does, 10 guard bits up, and per point returns
K(x,x) - |z|^2 from one forward substitution L z = k (Wendland, *Scattered
Data Approximation*, 2005, sec. 11.1), with no back substitution or k . y;
a point equal to a node returns exactly 0.  The profile is evaluated once
per distinct squared distance within a call.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from mpmath.libmp import (
    MPZ_ONE,
    dps_to_prec,
    finf,
    fninf,
    fone,
    from_float,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_exp,
    mpf_gt,
    mpf_hypot,
    mpf_le,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pow,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    mpf_sum,
    prec_to_dps,
    to_float,
)

from .errors import SingularGramError, UnsupportedConfigurationError
from .kernels import GAUSSIAN, INVERSE_MULTIQUADRIC, SOBOLEV, Kernel

_DPS = 50
# guard bits that mpmath's cholesky_solve adds for its factor and solves
_GUARD_BITS = 10
# round to nearest, the rounding mode of every MPContext's mpf operators
_RND = "n"
# QL steps allowed per eigenvalue, per decimal digit (tridiag_eigen's 2 * dps)
_QL_STEPS_PER_DIGIT = 2


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


def _sum(terms, prec: int):
    """Python's ``sum`` of mpf values: ``0 + t`` first, then one rounded add per term."""
    terms = iter(terms)
    acc = mpf_add(next(terms), fzero, prec, _RND)
    for t in terms:
        acc = mpf_add(acc, t, prec, _RND)
    return acc


def _sq_dist(a, b, prec: int):
    """``sum((s - t) ** 2 for s, t in zip(a, b))`` on raw coordinates."""
    return _sum(
        (mpf_pow_int(mpf_sub(s, t, prec, _RND), 2, prec, _RND) for s, t in zip(a, b)), prec
    )


def _profile(kernel: Kernel, prec: int):
    """The radial profile as a function of a raw squared distance, at ``prec`` bits.

    Constants are rounded once here; each comment gives the mpf expression,
    over the squared distance ``s2``, that the returned function reproduces.
    """
    e = mpf_e(prec, _RND)
    # the log that mpf_pow takes at prec + 10 bits for a general exponent
    log_e = mpf_log(e, prec + 10, _RND)

    def e_pow(y):
        # e ** y: integer and half-integer exponents take mpf_pow's own routes
        if y[2] < -1:
            return mpf_exp(mpf_mul(y, log_e), prec, _RND)
        return mpf_pow(e, y, prec, _RND)

    sigma2 = mpf_pow_int(from_float(float(kernel.sigma)), 2, prec, _RND)
    if kernel.family == GAUSSIAN:
        # e ** (-s2 / (2 * mpf(sigma) ** 2))
        den = mpf_mul_int(sigma2, 2, prec, _RND)
        return lambda s2: e_pow(mpf_div(mpf_neg(s2, prec, _RND), den, prec, _RND))
    if kernel.family == INVERSE_MULTIQUADRIC:
        # (mpf(sigma) ** 2 + s2) ** (-mpf(beta))
        neg_beta = mpf_neg(from_float(float(kernel.beta)), prec, _RND)
        return lambda s2: mpf_pow(mpf_add(sigma2, s2, prec, _RND), neg_beta, prec, _RND)
    pi = mpf_pi(prec, _RND)
    minus_two_pi = mpf_mul_int(pi, -2, prec, _RND)
    if kernel.r == 1:
        # pi * e ** (-2 * pi * sqrt(s2))
        return lambda s2: mpf_mul(
            pi, e_pow(mpf_mul(minus_two_pi, mpf_sqrt(s2, prec, _RND), prec, _RND)), prec, _RND
        )
    if kernel.r == 2:
        # (pi / 2) * (1 + 2 * pi * x) * e ** (-2 * pi * x) with x = sqrt(s2)
        half_pi = mpf_div(pi, from_int(2), prec, _RND)
        two_pi = mpf_mul_int(pi, 2, prec, _RND)
        one = from_int(1)

        def sobolev2(s2):
            x = mpf_sqrt(s2, prec, _RND)
            rise = mpf_add(mpf_mul(two_pi, x, prec, _RND), one, prec, _RND)
            rise = mpf_mul(half_pi, rise, prec, _RND)
            return mpf_mul(rise, e_pow(mpf_mul(minus_two_pi, x, prec, _RND)), prec, _RND)

        return sobolev2
    raise UnsupportedConfigurationError(
        "extended-precision fallback only covers sobolev orders r in {1, 2}"
    )


def _gram(profile, coords, prec: int) -> list:
    """Raw Gram rows of ``profile`` over every pair of raw coordinate tuples."""
    n = len(coords)
    K = [[fzero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            K[i][j] = K[j][i] = profile(_sq_dist(coords[i], coords[j], prec))
    return K


def _tridiagonalize(A: list, prec: int) -> tuple[list, list]:
    """Householder reduction of the raw symmetric rows ``A`` to tridiagonal form.

    Replays mpmath's ``r_sy_tridiag(calc_ev=False)`` (EISPACK tred2) on its
    upper triangle, overwriting ``A``; returns the diagonal and the
    off-diagonal (last entry zero).  The accumulators ``scale``, ``H``,
    ``G`` and ``F`` start from int 0 there, hence :func:`_sum`.
    """
    n = len(A)
    E = [fzero] * n
    for i in range(n - 1, 1, -1):
        scale = _sum((mpf_abs(A[k][i], prec, _RND) for k in range(i)), prec)
        # a nonzero scale can still have an infinite reciprocal
        if scale == fzero or (scale_inv := mpf_rdiv_int(1, scale, prec, _RND)) in (finf, fninf):
            E[i] = A[i - 1][i]
            continue
        for k in range(i):
            A[k][i] = mpf_mul(A[k][i], scale_inv, prec, _RND)
        H = _sum((mpf_mul(A[k][i], A[k][i], prec, _RND) for k in range(i)), prec)
        F = A[i - 1][i]
        G = mpf_sqrt(H, prec, _RND)
        if mpf_gt(F, fzero):
            G = mpf_neg(G, prec, _RND)
        E[i] = mpf_mul(scale, G, prec, _RND)
        H = mpf_sub(H, mpf_mul(F, G, prec, _RND), prec, _RND)
        A[i - 1][i] = mpf_sub(F, G, prec, _RND)
        products = []
        for j in range(i):
            # (A U)_j over the upper triangle: column j, then row j
            terms = [mpf_mul(A[k][j], A[k][i], prec, _RND) for k in range(j + 1)]
            terms += [mpf_mul(A[j][k], A[k][i], prec, _RND) for k in range(j + 1, i)]
            E[j] = mpf_div(_sum(terms, prec), H, prec, _RND)
            products.append(mpf_mul(E[j], A[j][i], prec, _RND))
        F = _sum(products, prec)
        HH = mpf_div(F, mpf_mul_int(H, 2, prec, _RND), prec, _RND)
        for j in range(i):
            F = A[j][i]
            G = E[j] = mpf_sub(E[j], mpf_mul(HH, F, prec, _RND), prec, _RND)
            for k in range(j + 1):
                update = mpf_add(
                    mpf_mul(F, E[k], prec, _RND), mpf_mul(G, A[k][i], prec, _RND), prec, _RND
                )
                A[k][j] = mpf_sub(A[k][j], update, prec, _RND)
    if n > 1:
        # tred2's last step, i == 1, only copies the remaining off-diagonal entry
        E[1] = A[0][1]
    return [A[i][i] for i in range(n)], E[1:] + [fzero]


def _tridiagonal_eigenvalues(d: list, e: list, prec: int) -> list:
    """Eigenvalues, unordered, of the raw tridiagonal (``d``, ``e``), in place in ``d``.

    Replays mpmath's ``tridiag_eigen(z=False)`` (EISPACK imtql2, implicit
    QL with Dubrulle's change) short of its closing sort, which only
    permutes.  More than ``_QL_STEPS_PER_DIGIT`` steps per decimal digit on
    one eigenvalue raises :class:`SingularGramError`.
    """
    n = len(d)
    limit = _QL_STEPS_PER_DIGIT * prec_to_dps(prec)
    eps = (0, MPZ_ONE, 1 - prec, 1)
    for l in range(n):
        steps = 0
        while True:
            # look for a small subdiagonal element
            m = l
            while m + 1 < n:
                size = mpf_add(
                    mpf_abs(d[m], prec, _RND), mpf_abs(d[m + 1], prec, _RND), prec, _RND
                )
                if mpf_le(mpf_abs(e[m], prec, _RND), mpf_mul(eps, size, prec, _RND)):
                    break
                m += 1
            if m == l:
                break
            if steps >= limit:
                raise SingularGramError(f"no convergence to an eigenvalue after {limit} QL steps")
            steps += 1
            # form the shift
            p = d[l]
            g = mpf_div(
                mpf_sub(d[l + 1], p, prec, _RND), mpf_mul_int(e[l], 2, prec, _RND), prec, _RND
            )
            r = mpf_hypot(g, fone, prec, _RND)
            s = (mpf_sub if mpf_lt(g, fzero) else mpf_add)(g, r, prec, _RND)
            g = mpf_add(mpf_sub(d[m], p, prec, _RND), mpf_div(e[l], s, prec, _RND), prec, _RND)
            # s, c, p = 1, 1, 0 are Python ints until the first rotation;
            # d - 0 subtracts from_int(0), which is fzero
            s = c = None
            p = fzero
            for i in range(m - 1, l - 1, -1):
                if s is None:
                    f = b = mpf_mul_int(e[i], 1, prec, _RND)
                else:
                    f = mpf_mul(s, e[i], prec, _RND)
                    b = mpf_mul(c, e[i], prec, _RND)
                if mpf_gt(mpf_abs(f, prec, _RND), mpf_abs(g, prec, _RND)):
                    c = mpf_div(g, f, prec, _RND)
                    r = mpf_hypot(c, fone, prec, _RND)
                    e[i + 1] = mpf_mul(f, r, prec, _RND)
                    s = mpf_rdiv_int(1, r, prec, _RND)
                    c = mpf_mul(c, s, prec, _RND)
                else:
                    s = mpf_div(f, g, prec, _RND)
                    r = mpf_hypot(s, fone, prec, _RND)
                    e[i + 1] = mpf_mul(g, r, prec, _RND)
                    c = mpf_rdiv_int(1, r, prec, _RND)
                    s = mpf_mul(s, c, prec, _RND)
                g = mpf_sub(d[i + 1], p, prec, _RND)
                r = mpf_add(
                    mpf_mul(mpf_sub(d[i], g, prec, _RND), s, prec, _RND),
                    mpf_mul(mpf_mul_int(c, 2, prec, _RND), b, prec, _RND),
                    prec,
                    _RND,
                )
                p = mpf_mul(s, r, prec, _RND)
                d[i + 1] = mpf_add(g, p, prec, _RND)
                g = mpf_sub(mpf_mul(c, r, prec, _RND), b, prec, _RND)
            d[l] = mpf_sub(d[l], p, prec, _RND)
            e[l] = g
            e[m] = fzero
    return d


def grid_lambda_min(kernel: Kernel, m: int, d: int) -> float:
    """Smallest Gram eigenvalue on the uniform grid, via extended precision.

    For the gaussian family the grid Gram factors as the d-fold Kronecker
    power of the one-dimensional Gram (a product kernel on a full lattice),
    so the smallest eigenvalue in dimension d is the d-th power of the
    one-dimensional one.  That identity is exact, not an approximation, and
    keeps the mp eigensolve at size m+1 instead of (m+1)^d.  A 1-D value
    that is not positive (every digit cancelled), or an eigensolve that
    does not converge, raises SingularGramError.
    """
    if not supports_grid(kernel, d):
        raise UnsupportedConfigurationError(
            f"no extended-precision grid eigenvalue for {kernel.family} in d={d}"
        )
    prec = dps_to_prec(_DPS)
    # node i / m, as mpf(i) / m
    coords = [(mpf_div(from_int(i), from_int(m), prec, _RND),) for i in range(m + 1)]
    # the eigenvalues MPContext.eigsy returns for this Gram, bit for bit
    try:
        eigs = _tridiagonal_eigenvalues(
            *_tridiagonalize(_gram(_profile(kernel, prec), coords, prec), prec), prec
        )
    except SingularGramError as exc:
        msg = f"extended-precision 1-D grid eigensolve at m={m}: {exc}"
        raise SingularGramError(msg) from None
    lam = eigs[0]
    for v in eigs[1:]:
        if mpf_lt(v, lam):
            lam = v
    if mpf_le(lam, fzero):
        raise SingularGramError(
            f"extended-precision 1-D grid eigenvalue {to_float(lam, rnd=_RND):.3e} at m={m} "
            "is not positive"
        )
    return to_float(mpf_pow_int(lam, d, prec, _RND), rnd=_RND)


def _cholesky(K: list, prec: int) -> tuple[list, list]:
    """``MPContext.cholesky`` of the raw symmetric rows ``K``: rows ``L[i, :i]`` and pivots.

    Its ``fsum`` and ``fdot`` round a sum of exact products once; its pass
    i == j over column j turns ``L[j, j] = sqrt(s)`` into ``s / sqrt(s)``.
    A pivot ``s`` below its tolerance ``eps`` raises :class:`SingularGramError`.
    """
    eps = (0, MPZ_ONE, 1 - prec, 1)
    lower = [[] for _ in K]
    pivots = []
    for j in range(len(K)):
        row = lower[j]
        s = mpf_sub(K[j][j], mpf_sum([mpf_mul(v, v) for v in row], prec, _RND), prec, _RND)
        if mpf_lt(s, eps):
            raise SingularGramError(f"extended-precision node Gram not positive at pivot {j}")
        pivots.append(mpf_div(s, mpf_sqrt(s, prec, _RND), prec, _RND))
        for i in range(j + 1, len(K)):
            t = mpf_sum([mpf_mul(a, b) for a, b in zip(lower[i], row)], prec, _RND)
            lower[i].append(mpf_div(mpf_sub(K[i][j], t, prec, _RND), pivots[j], prec, _RND))
    return lower, pivots


def schur_values(kernel: Kernel, nodes: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Exact Schur complements K(x,x) - k_x^T K^{-1} k_x at many points.

    ``nodes`` is the (N, d) node array and ``xs`` the (n, d) evaluation
    array; both are promoted coordinate-by-coordinate to mp floats, which
    is lossless.  Returns a float64 array of nonnegative values, exactly 0
    at a node; entries below double-precision resolution round to the
    nearest representable value rather than to an arbitrary negative
    residue.  A node Gram that is not positive definite at the working
    precision raises :class:`SingularGramError`.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float)).tolist()
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    prec = dps_to_prec(_DPS)
    hi = prec + _GUARD_BITS
    # grids repeat squared distances: evaluate each distinct one once per call
    profile = cache(_profile(kernel, prec))
    coords = [tuple(map(from_float, row)) for row in nodes]
    diag = profile(fzero)
    # K = L L^T at the guard precision, as cholesky_solve factors it
    lower, pivots = _cholesky(_gram(profile, coords, prec), hi)
    hits = set(map(tuple, nodes))
    out = np.zeros(len(xs))
    for idx, row in enumerate(xs):
        if (x := tuple(row.tolist())) in hits:
            continue
        x = tuple(map(from_float, x))
        # L z = k by cholesky_solve's forward substitution, at the guard precision
        z = []
        for c, row_l, pivot in zip(coords, lower, pivots):
            dot = mpf_sum([mpf_mul(l, zj, hi, _RND) for l, zj in zip(row_l, z)], hi, _RND)
            k = profile(_sq_dist(c, x, prec))
            z.append(mpf_div(mpf_sub(k, dot, hi, _RND), pivot, hi, _RND))
        # |z|^2 as one rounding of exact squares, subtracted at the base precision
        s = mpf_sub(diag, mpf_sum([mpf_mul(v, v) for v in z], hi, _RND), prec, _RND)
        # max(s, 0): a negative residue (sign bit set) stays zero
        if not s[0]:
            out[idx] = to_float(s, rnd=_RND)
    return out
