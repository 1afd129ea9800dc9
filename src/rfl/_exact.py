"""Extended-precision fallbacks for quantities double precision cannot hold.

Flat kernels on fine grids produce Gram matrices whose smallest eigenvalue
and near-node Schur complements sit far below the double-precision noise
floor; the rounded matrix itself can even be indefinite while the true one
is positive definite.  The routines here rebuild the few affected scalars
from exact node coordinates with mpmath (grids: see :func:`supports_grid`).
:mod:`rkhs` escalates Schur values after measuring a double-precision
attempt against its noise floor; :mod:`spectral` takes grid eigenvalues
from here directly.

The kernel profiles, the Gram entries, the Cholesky factor and the
substitutions run as direct ``mpmath.libmp`` calls on raw mpf tuples.
Each call is given the precision and the rounding mode (round to nearest)
that the mpf operator it stands for would take from its context, and the
calls run in the order the operator expressions evaluate, so the results
are bit-identical to the object-level expressions while skipping their
wrapper, context lookup and allocation costs.  The precision is an
argument of every helper.  The one departure in form is ``e ** y``:
mpf_pow takes ``log e`` afresh for every exponent that is not a
half-integer, and here it is taken once per call at the same precision,
which gives the same bits.  The Matern profile of the sobolev orders other
than 1 and 2 is not replayed from raw libmp: it is the one profile that
evaluates its operator expression, with mpmath's ``besselk``, on an
``MPContext`` of its own set to the working precision.

The grid eigensolve never forms the 1-D Gram.  On the uniform grid it is
the symmetric Toeplitz matrix of t_k = phi((k / m)^2), k = 0..m, so it is
centrosymmetric, and with J the exchange matrix and B the upper right
block of order n // 2 (n = m + 1) it is orthogonally similar to the direct
sum of A - BJ, of order n // 2, and A + BJ, of order n - n // 2, which for
odd n carries the border sqrt(2) t and the corner t_0 of the middle node
(Cantoni & Butler, *Linear Algebra Appl.* 13, 1976).  Its spectrum is the
union of theirs.  Each block is reduced to tridiagonal form T by
Householder similarity transforms, at a quarter of the full reduction's
work for both.  Only the smallest eigenvalue is wanted, so no QL sweep
follows: Sturm counts, one O(n) pivot recurrence each (Barth, Martin &
Wilkinson, *Numer. Math.* 9, 1967; Kahan, *Accurate eigenvalues of a
symmetric tri-diagonal matrix*, 1966), bracket it, and Newton's method on
det(T - mu I) from below closes the bracket.  Only the block with the lower
Newton bound from 0 is refined.  One Sturm count of the other block at the
bracket's lower end certifies that it has no eigenvalue below; if it has,
that block is refined too, and the smaller double is the Gram's, as
rounding is monotone.  The value is returned only if the bracket, widened
by delta = ``_DELTA_ULPS`` n u |T| with u = 2^-prec, rounds to one double;
otherwise the whole solve reruns at the precision the bracket shows it
needs, up to a cap.

delta covers the rounding of the blocks and of their reduction.  Each t_k
is a few rounded operations on k / m rounded once, and the profiles are
positive, so each is off by a few u t_0 <= u |K|.  The exact blocks of
these rounded t_k are an exact orthogonal similarity of their Toeplitz
matrix, and rounding the entries t_|i-j| +- t_(n-1-i-j) once, and sqrt(2)
and its products with t, adds at most 3 u |K| per entry, so order n u |K|
in norm.  Each dot product and rank-2 update of the reduction is a sum of
exact products rounded once, so its error is u times its terms' magnitudes
with no factor of its length (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, sec. 3.1).  Each of the transforms then adds a
constant times u |K| of backward error, so each T is the exact reduction
of a matrix within order n u |K| of its exact block (Wilkinson, *The
Algebraic Eigenvalue Problem*, 1965, ch. 3 and 5; Higham ch. 19), and by
Weyl's inequality lambda_min moves no further.  |T| is therefore the
larger of the two blocks' Gershgorin norms, which bounds |K|, for both
blocks.  A block's own norm would not do: for a flat kernel A - BJ
cancels to a norm far below |K| while its entries keep the u |K| rounding
of the t_k (gaussian sigma = 1e3 at m = 5 would certify a wrong double).
The constant is measured: over the nine kernels of the tests at m in
{4, 8, 12, 16, 24, 32}, |lambda_min(T) - lambda_150| is at most
0.58 n u |T| at 169 bits and 0.61 at 338 bits (both sobolev r = 1.25,
whose ``besselk`` carries guard bits of its own).

libmp functions read no context state and each Matern profile builds its
own context, so nothing here reads or writes the process-wide ``mpmath.mp``
precision and concurrent callers cannot change each other's working
precision.  Everything here is deterministic and dependency-free apart
from mpmath itself.

:func:`schur_values` factors the node Gram K = L L^T once per call as
``MPContext.cholesky`` does, 10 guard bits up, and per point returns
K(x,x) - |z|^2 from one forward substitution L z = k (Wendland, *Scattered
Data Approximation*, 2005, sec. 11.1), with no back substitution or k . y.
The profile is evaluated once per distinct squared distance within a call.
Points equal to a node are left to the caller: their value is exactly 0,
and :mod:`rkhs` answers them without a factor.
"""

from __future__ import annotations

from functools import cache

import mpmath
import numpy as np
from mpmath.libmp import (
    MPZ_ONE,
    dps_to_prec,
    fnone,
    fone,
    from_float,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_exp,
    mpf_gt,
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
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    mpf_sum,
    to_float,
)

from .errors import SingularGramError, UnsupportedConfigurationError
from .kernels import GAUSSIAN, INVERSE_MULTIQUADRIC, Kernel

_DPS = 50
# guard bits that mpmath's cholesky_solve adds for its factor and solves
_GUARD_BITS = 10
# round to nearest, the rounding mode of every MPContext's mpf operators
_RND = "n"
# Sturm counts allowed to refine one grid eigenvalue, per bit of working precision
_STEPS_PER_BIT = 2
# bound on the rounding of the grid Gram's blocks and their tridiagonal
# reduction, in units of 2^-prec |T| per row of the Gram (the test kernels
# at m <= 32 and 169 or 338 bits stay below 0.61; tests/test_exact.py
# holds 2)
_DELTA_ULPS = 64
# bits kept past a double's 53 when a grid eigensolve reruns
_MARGIN_BITS = 32
# largest working precision of a grid eigensolve: three doublings of the base
_MAX_PREC = 8 * dps_to_prec(_DPS)


def supports_grid(kernel: Kernel) -> bool:
    """Whether :func:`grid_lambda_min` covers the kernel: gaussian in any d, the rest in d = 1."""
    return kernel.family == GAUSSIAN or kernel.dim == 1


def _sq_dist(a, b, prec: int):
    """``sum((s - t) ** 2 for s, t in zip(a, b))`` on raw coordinates.

    One rounded add per term, in ``sum``'s order: the Schur values keep the
    bits of the object-level expression.
    """
    acc = fzero
    for s, t in zip(a, b):
        acc = mpf_add(acc, mpf_pow_int(mpf_sub(s, t, prec, _RND), 2, prec, _RND), prec, _RND)
    return acc


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
    # 2 * pi ** r / gamma(r) * x ** nu * besselk(nu, 2 * pi * x) with x = sqrt(s2),
    # nu = r - 1/2 (the Matern form), on a context of this call's own
    ctx = mpmath.MPContext()
    ctx.prec = prec
    r = ctx.mpf(kernel.r)
    nu, scale = r - 0.5, 2 * ctx.pi**r / ctx.gamma(r)
    zero = (ctx.sqrt(ctx.pi) * ctx.gamma(nu) / ctx.gamma(r))._mpf_

    def matern(s2):
        if s2 == fzero:
            return zero
        x = ctx.sqrt(ctx.make_mpf(s2))
        return (scale * x**nu * ctx.besselk(nu, 2 * ctx.pi * x))._mpf_

    return matern


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

    EISPACK tred2's order on the upper triangle, overwriting ``A``; returns
    the diagonal and the off-diagonal (last entry zero).  Each dot product
    and rank-2 update is a sum of exact products rounded once.  tred2's
    column scaling is left out: an mpf's exponent cannot overflow.
    """
    n = len(A)
    E = [fzero] * n
    for i in range(n - 1, 1, -1):
        H = mpf_sum([mpf_mul(A[k][i], A[k][i]) for k in range(i)], prec, _RND)
        if H == fzero:
            E[i] = A[i - 1][i]
            continue
        F = A[i - 1][i]
        G = mpf_sqrt(H, prec, _RND)
        if mpf_gt(F, fzero):
            G = mpf_neg(G)
        E[i] = G
        H = mpf_sub(H, mpf_mul(F, G), prec, _RND)
        A[i - 1][i] = mpf_sub(F, G, prec, _RND)
        for j in range(i):
            # (A u)_j over the upper triangle: column j, then row j
            terms = [mpf_mul(A[k][j], A[k][i]) for k in range(j + 1)]
            terms += [mpf_mul(A[j][k], A[k][i]) for k in range(j + 1, i)]
            E[j] = mpf_div(mpf_sum(terms, prec, _RND), H, prec, _RND)
        F = mpf_sum([mpf_mul(E[j], A[j][i]) for j in range(i)], prec, _RND)
        HH = mpf_div(F, mpf_shift(H, 1), prec, _RND)
        for j in range(i):
            F = A[j][i]
            G = E[j] = mpf_sub(E[j], mpf_mul(HH, F), prec, _RND)
            # mpf_sum only adds: negate the factors, exactly, once per column
            F, G = mpf_neg(F), mpf_neg(G)
            for k in range(j + 1):
                A[k][j] = mpf_sum([A[k][j], mpf_mul(F, E[k]), mpf_mul(G, A[k][i])], prec, _RND)
    if n > 1:
        # tred2's last step, i == 1, only copies the remaining off-diagonal entry
        E[1] = A[0][1]
    return [A[i][i] for i in range(n)], E[1:] + [fzero]


def _sturm(d: list, e2: list, mu, prec: int):
    """Sturm count and Newton step of the raw tridiagonal (``d``, ``e``) at the shift ``mu``.

    ``e2`` is ``[0, e_0 ** 2, e_1 ** 2, ...]``.  The pivots of
    T - mu I = L D L^T, q_k = d_k - mu - e_{k-1}^2 / q_{k-1}, are negative
    for as many eigenvalues as lie below mu (Barth, Martin & Wilkinson,
    *Numer. Math.* 9, 1967); a zero pivot counts as negative.  Their
    mu-derivatives give (log det(T - mu I))' = sum(q'_k / q_k), where
    q'_k / q_k = (-1 + (e_{k-1}^2 / q_{k-1}) (q'_{k-1} / q_{k-1})) / q_k.
    Returns the count and, when it is 0, Newton's step -1 / sum(q'_k / q_k)
    on det(T - mu I), which from below the smallest eigenvalue stays below it.
    """
    neg = 0
    q, g, s = fone, fzero, fzero
    for dk, e2k in zip(d, e2):
        r = mpf_div(e2k, q, prec, _RND)
        q = mpf_sub(mpf_sub(dk, mu, prec, _RND), r, prec, _RND)
        if q == fzero:
            q = (1, MPZ_ONE, -2 * prec, 1)
        neg += q[0]
        g = mpf_div(mpf_add(fnone, mpf_mul(r, g, prec, _RND), prec, _RND), q, prec, _RND)
        s = mpf_add(s, g, prec, _RND)
    return neg, None if neg else mpf_rdiv_int(-1, s, prec, _RND)


def _one_float(lo, hi, power: int, prec: int):
    """The double that every value in [``lo``, ``hi``] ** ``power`` rounds to, or None."""
    if not mpf_gt(lo, fzero):
        return None
    value = to_float(mpf_pow_int(lo, power, prec, "f"), rnd=_RND)
    return value if value == to_float(mpf_pow_int(hi, power, prec, "c"), rnd=_RND) else None


def _certified_power(d: list, e2: list, power: int, delta, prec: int):
    """``lambda_min(T) ** power`` of a raw tridiagonal T, if ``prec`` bits hold it.

    ``d`` is the diagonal of T and ``e2`` its squared off-diagonal as
    :func:`_sturm` reads it.  Sturm counts bracket the smallest eigenvalue
    between ``lo`` (none below) and ``hi`` (one below).  The search starts
    at the power of two under Newton's step from 0, itself below
    lambda_min, and doubles until the count turns, which it does below
    2 min(d) as lambda_min <= min(d).
    Then Newton's steps raise ``lo``, a bisection replaces any step that
    would leave the bracket or fails to halve the step before it, and ``hi``
    comes down to ``lo + n * step``, an upper bound because each of the n
    terms of 1 / step is at most 1 / (lambda_min - lo).  The solve stops
    once ``[lo - delta, hi + delta] ** power`` rounds to one double, or once
    ``hi - lo <= delta`` leaves nothing to refine.  Returns ``(value, lo)``:
    ``value`` is None unless it rounds to one double, and ``lo`` is None
    when no lower end clears ``delta`` (lambda_min is not positive at this
    precision).  More than ``_STEPS_PER_BIT`` counts per bit of ``prec``
    raise :class:`SingularGramError`.
    """
    n = len(d)
    neg, step = _sturm(d, e2, fzero, prec)
    if neg:
        return None, None

    def certify(a, b):
        return _one_float(mpf_sub(a, delta, prec, "f"), mpf_add(b, delta, prec, "c"), power, prec)

    lo, hi, moved = fzero, None, None
    x = (0, MPZ_ONE, step[2] + step[3] - 1, 1)
    limit = _STEPS_PER_BIT * prec
    for _ in range(limit):
        neg, s = _sturm(d, e2, x, prec)
        if neg:
            hi = x
        else:
            lo, step = x, s
        if hi is None:
            x = mpf_shift(x, 1)
            continue
        if (value := certify(lo, hi)) is not None:
            return value, lo
        if mpf_le(mpf_sub(hi, lo, prec, "c"), delta):
            return None, lo if mpf_gt(lo, delta) else None
        reach = mpf_mul_int(step, n, prec, _RND)
        up = mpf_add(lo, reach, prec, _RND)
        newton = mpf_add(lo, step, prec, _RND)
        if mpf_lt(lo, up) and mpf_lt(up, hi) and (mpf_le(reach, delta) or certify(lo, up)):
            x = up
        elif mpf_lt(lo, newton) and mpf_lt(newton, hi) and (
            moved is None or mpf_le(mpf_mul_int(step, 2, prec, _RND), moved)
        ):
            x, moved = newton, step
        else:
            moved = mpf_shift(mpf_sub(hi, lo, prec, _RND), -1)
            x = mpf_add(lo, moved, prec, _RND)
    raise SingularGramError(f"no convergence after {limit} Sturm counts at {prec} bits")


def _toeplitz_blocks(profile, m: int, prec: int) -> tuple[list, list]:
    """Raw rows of the two half-order blocks of the 1-D grid Gram: A - BJ, then A + BJ.

    The Gram of the n = m + 1 nodes i / m is the symmetric Toeplitz matrix
    of t_k = profile((k / m) ** 2), with k / m rounded once.  A - BJ has
    order n // 2 and entries t_|i-j| - t_(n-1-i-j); A + BJ adds them
    instead and, for odd n, gets the border sqrt(2) t_(n//2-i) and the
    corner t_0.
    """
    n = m + 1
    t = []
    for k in range(n):
        x = mpf_div(from_int(k), from_int(m), prec, _RND)
        t.append(profile(mpf_mul(x, x, prec, _RND)))
    half = n // 2
    pairs = [[(t[abs(i - j)], t[n - 1 - i - j]) for j in range(half)] for i in range(half)]
    minus = [[mpf_sub(a, b, prec, _RND) for a, b in row] for row in pairs]
    plus = [[mpf_add(a, b, prec, _RND) for a, b in row] for row in pairs]
    if n % 2:
        root2 = mpf_sqrt(from_int(2), prec, _RND)
        border = [mpf_mul(root2, t[half - i], prec, _RND) for i in range(half)]
        for row, b in zip(plus, border):
            row.append(b)
        plus.append(border + [t[0]])
    return minus, plus


def _lower_first(blocks: list, prec: int) -> list:
    """The two raw (``d``, ``e2``) tridiagonals, the lower Newton bound from 0 first.

    A block with an eigenvalue at or below 0 at this precision counts as lowest.
    """
    (neg0, step0), (neg1, step1) = (_sturm(*block, fzero, prec) for block in blocks)
    if not neg0 and (neg1 or mpf_lt(step1, step0)):
        return blocks[::-1]
    return blocks


def grid_lambda_min(kernel: Kernel, m: int) -> float:
    """Smallest Gram eigenvalue on the uniform grid in ``kernel.dim``, via extended precision.

    For the gaussian family the grid Gram factors as the d-fold Kronecker
    power of the one-dimensional Gram (a product kernel on a full lattice),
    so the smallest eigenvalue in dimension d is the d-th power of the
    one-dimensional one.  That identity is exact, not an approximation, and
    keeps the mp eigensolve at size m+1 instead of (m+1)^d.

    The 1-D Gram splits into its two half-order blocks (see
    :func:`_toeplitz_blocks` and the module docstring), each reduced to
    tridiagonal form.  The block with the lower Newton bound from 0 has its
    smallest eigenvalue bracketed by Sturm counts (see
    :func:`_certified_power`); one Sturm count of the other block at the
    bracket's lower end shows that it has no eigenvalue below, or else that
    block is refined too and the smaller double returned.  Each bracket,
    widened by delta = ``_DELTA_ULPS`` * (m+1) * 2^-prec * |T| with |T| the
    larger block's norm, must round to one double after the d-th power.
    Otherwise the solve reruns with log2(delta / lambda) + 53 +
    ``_MARGIN_BITS`` more bits for the block that failed, or at twice the
    precision while its value is not positive.  A value that needs more
    than ``_MAX_PREC`` bits, a solve that does not converge, or a power
    below the double range raises :class:`SingularGramError`.
    """
    if not supports_grid(kernel):
        raise UnsupportedConfigurationError(
            f"no extended-precision grid eigenvalue for {kernel.family} in d={kernel.dim}"
        )
    d = kernel.dim
    prec = dps_to_prec(_DPS)
    while True:
        profile = _profile(kernel, prec)
        blocks = [_tridiagonalize(rows, prec) for rows in _toeplitz_blocks(profile, m, prec)]
        # |K| <= the larger block's largest Gershgorin row sum
        norm = max(
            abs(to_float(a)) + abs(to_float(b)) + abs(to_float(c))
            for diag, off in blocks
            for a, b, c in zip(diag, [fzero, *off], off)
        )
        # (d, e2) as _sturm reads them
        blocks = [
            (diag, [fzero] + [mpf_mul(v, v, prec, _RND) for v in off[:-1]]) for diag, off in blocks
        ]
        delta = mpf_shift(from_float(_DELTA_ULPS * (m + 1) * norm), -prec)
        low, other = _lower_first(blocks, prec)
        try:
            lam, lo = _certified_power(*low, d, delta, prec)
            # no eigenvalue of the other block below lo: lam is the Gram's
            if lam is not None and _sturm(*other, lo, prec)[0]:
                lam_other, lo = _certified_power(*other, d, delta, prec)
                lam = None if lam_other is None else min(lam, lam_other)
        except SingularGramError as exc:
            msg = f"extended-precision 1-D grid eigensolve at m={m}: {exc}"
            raise SingularGramError(msg) from None
        if lam is not None:
            if lam < np.finfo(float).tiny:
                raise SingularGramError(
                    f"extended-precision grid eigenvalue at m={m}, d={d} is below the double range"
                )
            return lam
        if lo is None:
            need, why = 2 * prec, "is not positive"
        else:
            # log2(delta / lo) bits are lost; keep a double's 53 and a margin past them
            lost = (delta[2] + delta[3]) - (lo[2] + lo[3])
            need = prec + max(lost + 53, 0) + _MARGIN_BITS
            why = "does not round to one double"
        if need > _MAX_PREC:
            raise SingularGramError(
                f"extended-precision 1-D grid eigenvalue at m={m} {why} at {prec} bits, "
                f"and {need} bits would pass the cap of {_MAX_PREC}"
            )
        prec = need


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
    """Exact Schur complements K(x,x) - k_x^T K^{-1} k_x at many points off the nodes.

    ``nodes`` is the (N, d) node array and ``xs`` the (n, d) evaluation
    array; both are promoted coordinate-by-coordinate to mp floats, which
    is lossless.  Returns a float64 array of nonnegative values; entries
    below double-precision resolution round to the nearest representable
    value rather than to an arbitrary negative residue.  At a node the
    value is only the factor's rounding residue.  A node Gram that is not
    positive definite at the working precision raises
    :class:`SingularGramError`.
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
    out = np.zeros(len(xs))
    for idx, row in enumerate(xs):
        x = tuple(map(from_float, row.tolist()))
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
