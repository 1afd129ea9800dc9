"""Extended-precision fallbacks: bit identity and isolation from mpmath.mp.

The raw-arithmetic Schur path is compared bit for bit against an oracle
written here with mpmath number objects: the kernel profile and Gram as
operator expressions, ``MPContext.cholesky`` for the node factor, and
``cholesky_solve`` per point at 50 and at 150 digits for Schur values off
the nodes.  Grid eigenvalues must be the double of ``eigsy``'s minimum at
150 digits on the object-level Gram, even where the 50-digit ``eigsy`` lost
it.  The two half-order blocks the solve splits the Toeplitz grid Gram into
must hold its 150-digit spectrum, and exact rational Sturm counts check that
their tridiagonal forms keep lambda_min within the rounding bound the solve
widens its bracket by.
Threads a caller runs are checked to neither leak a working precision into
the process-wide mpmath context nor pick one up from each other.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache

import mpmath
import numpy as np
import pytest
from mpmath.libmp import dps_to_prec, from_float, to_rational

from rfl import (
    Kernel,
    SingularGramError,
    UnsupportedConfigurationError,
    _exact,
    build_gram,
    default_power_eval_set,
    power_values,
    rate_study_power,
    uniform_grid,
)
from rfl.spectral import EXTENDED_MAX_M

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)


def _reference_context(dps=50):
    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


def _reference_profile(ctx, kernel, s2):
    """Radial profile at a squared distance, as mpf operator expressions."""
    if kernel.family == "gaussian":
        return ctx.e ** (-s2 / (2 * ctx.mpf(kernel.sigma) ** 2))
    if kernel.family == "inverse_multiquadric":
        return (ctx.mpf(kernel.sigma) ** 2 + s2) ** (-ctx.mpf(kernel.beta))
    if kernel.r == 1:
        return ctx.pi * ctx.e ** (-2 * ctx.pi * ctx.sqrt(s2))
    if kernel.r == 2:
        x = ctx.sqrt(s2)
        return (ctx.pi / 2) * (1 + 2 * ctx.pi * x) * ctx.e ** (-2 * ctx.pi * x)
    # the Matern form, and its limit at s2 = 0
    r = ctx.mpf(kernel.r)
    nu = r - 0.5
    if s2 == 0:
        return ctx.sqrt(ctx.pi) * ctx.gamma(nu) / ctx.gamma(r)
    x = ctx.sqrt(s2)
    return 2 * ctx.pi**r / ctx.gamma(r) * x**nu * ctx.besselk(nu, 2 * ctx.pi * x)


def _reference_gram(ctx, kernel, coords):
    n = len(coords)
    K = ctx.matrix(n, n)
    values = {}  # grids repeat squared distances
    for i in range(n):
        for j in range(i, n):
            s2 = sum((a - b) ** 2 for a, b in zip(coords[i], coords[j]))
            if s2 not in values:
                values[s2] = _reference_profile(ctx, kernel, s2)
            K[i, j] = K[j, i] = values[s2]
    return K


def _reference_schur(kernel, nodes, xs, dps=50):
    """Per-point ``cholesky_solve`` at ``dps`` digits: refactors the node Gram for every point."""
    ctx = _reference_context(dps)
    coords = [tuple(ctx.mpf(float(c)) for c in row) for row in nodes]
    K = _reference_gram(ctx, kernel, coords)
    diag = _reference_profile(ctx, kernel, ctx.mpf(0))
    out = []
    for row in xs:
        x = tuple(ctx.mpf(float(c)) for c in row)
        k = ctx.matrix(
            [_reference_profile(ctx, kernel, sum((a - b) ** 2 for a, b in zip(c, x))) for c in coords]
        )
        y = ctx.cholesky_solve(K, k)
        s = diag - sum(k[i] * y[i] for i in range(len(coords)))
        out.append(float(max(s, ctx.mpf(0))))
    return np.array(out)


@cache
def _reference_grid_lambda_min(kernel, m, dps=150):
    """Smallest eigenvalue, an mpf, of the object-level 1-D grid Gram by ``eigsy``."""
    ctx = _reference_context(dps)
    coords = [(ctx.mpf(i) / m,) for i in range(m + 1)]
    return min(ctx.eigsy(_reference_gram(ctx, kernel, coords), eigvals_only=True))


def _probe_points(nodes, seed):
    rng = np.random.default_rng(seed)
    near = np.vstack([nodes + 3e-7, nodes - 8e-7])
    far = rng.uniform(0.0, 1.0, size=(12, nodes.shape[1]))
    return np.clip(np.vstack([nodes, near, far]), 0.0, 1.0)


SCHUR_CASES = [
    (Kernel("gaussian", sigma=0.5, dim=1), 8),
    (Kernel("gaussian", sigma=1.0, dim=2), 3),
    (Kernel("sobolev", r=1.0, dim=1), 8),
    (Kernel("sobolev", r=2.0, dim=1), 8),
    (Kernel("sobolev", r=1.25, dim=1), 8),
    (Kernel("sobolev", r=2.75, dim=1), 8),
    (Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), 8),
    # a non-integer exponent takes mpf_pow's exp-log route
    (Kernel("inverse_multiquadric", sigma=0.7, beta=0.6, dim=1), 8),
]


@pytest.mark.parametrize("kernel, m", SCHUR_CASES)
def test_schur_values_bit_identical_to_per_point_solve(kernel, m):
    nodes = uniform_grid(m, kernel.dim).points
    xs = _probe_points(nodes, seed=m)
    # node hits, the nodes and the near probes that np.clip moved onto the
    # boundary nodes, are power_values' to answer with an exact 0
    node_set = set(map(tuple, nodes.tolist()))
    on_node = np.array([x in node_set for x in map(tuple, xs.tolist())])
    assert on_node.sum() > len(nodes)
    xs = xs[~on_node]
    got = _exact.schur_values(kernel, nodes, xs)
    assert got.tobytes() == _reference_schur(kernel, nodes, xs).tobytes()
    assert got.tobytes() == _reference_schur(kernel, nodes, xs, dps=150).tobytes()
    assert (got > 0.0).all()


@pytest.mark.parametrize("kernel, m", SCHUR_CASES)
def test_node_cholesky_bit_identical_to_mpcontext_cholesky(kernel, m):
    prec = dps_to_prec(50)
    hi = prec + _exact._GUARD_BITS
    nodes = uniform_grid(m, kernel.dim).points
    coords = [tuple(from_float(float(c)) for c in row) for row in nodes]
    K = _exact._gram(_exact._profile(kernel, prec), coords, prec)
    ctx = mpmath.MPContext()
    ctx.prec = hi
    want = ctx.cholesky(ctx.matrix([[ctx.make_mpf(v) for v in row] for row in K]))
    lower, pivots = _exact._cholesky(K, hi)
    n = len(coords)
    assert [len(row) for row in lower] == list(range(n))
    for i in range(n):
        assert lower[i] == [want[i, j]._mpf_ for j in range(i)]
        assert pivots[i] == want[i, i]._mpf_


@pytest.mark.parametrize("m", [28, 32, 40])
def test_schur_values_on_a_non_positive_node_gram_raise_singular(m):
    # mpmath's own cholesky raises a bare ValueError on these node Grams
    with pytest.raises(SingularGramError, match="node Gram not positive at pivot"):
        _exact.schur_values(GAUSS, uniform_grid(m, 1).points, np.array([[0.013]]))


def test_power_values_at_the_nodes_are_exactly_zero():
    grid = uniform_grid(8, 1)
    system = build_gram(GAUSS, grid)
    assert system.jitter_used == 0.0
    assert power_values(system, grid).tobytes() == np.zeros(len(grid.points)).tobytes()


GRID_KERNELS = [
    Kernel("gaussian", sigma=0.5, dim=1),
    GAUSS,
    Kernel("gaussian", sigma=2.0, dim=1),
    Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1),
    Kernel("inverse_multiquadric", sigma=0.7, beta=0.6, dim=1),
    Kernel("sobolev", r=1.0, dim=1),
    Kernel("sobolev", r=2.0, dim=1),
    Kernel("sobolev", r=1.25, dim=1),
    Kernel("sobolev", r=2.75, dim=1),
]


def _check_grid_lambda_min(kernel, m):
    want = _reference_grid_lambda_min(kernel, m)
    assert _exact.grid_lambda_min(kernel, m).hex() == float(want).hex()
    return want


@pytest.mark.parametrize("kernel", GRID_KERNELS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 12, 16, 32])
def test_grid_lambda_min_bit_identical_to_object_level_eigsy(kernel, m):
    _check_grid_lambda_min(kernel, m)


def _eigenvalues_below(diag, off, mu):
    """Sturm count of the tridiagonal (``diag``, ``off``) at ``mu``, in exact rationals."""
    count, q = 0, Fraction(1)
    for d, e in zip(diag, [0, *off]):
        q = d - mu - e * e / q
        count += q < 0
    return count


def _blocks_as_rationals(kernel, m, prec):
    """The block tridiagonals that ``grid_lambda_min`` solves at ``prec`` bits, as rationals."""
    blocks = _exact._toeplitz_blocks(_exact._profile(kernel, prec), m, prec)
    return [
        [[Fraction(*to_rational(v)) for v in part] for part in _exact._tridiagonalize(rows, prec)]
        for rows in blocks
    ]


@pytest.mark.parametrize("kernel", GRID_KERNELS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 15, 16])
def test_toeplitz_blocks_hold_the_spectrum_of_the_grid_gram(kernel, m):
    # odd and even n = m + 1: the two blocks' eigenvalues together are the Gram's
    ctx = _reference_context(150)
    prec = dps_to_prec(150)
    blocks = _exact._toeplitz_blocks(_exact._profile(kernel, prec), m, prec)
    assert [len(rows) for rows in blocks] == [(m + 1) // 2, (m + 2) // 2]
    matrices = [ctx.matrix([list(map(ctx.make_mpf, row)) for row in rows]) for rows in blocks]
    got = sorted(v for A in matrices for v in ctx.eigsy(A, eigvals_only=True))
    coords = [(ctx.mpf(i) / m,) for i in range(m + 1)]
    want = sorted(ctx.eigsy(_reference_gram(ctx, kernel, coords), eigvals_only=True))
    tol = ctx.mpf(10) ** -140 * max(abs(v) for v in want)
    assert all(abs(a - b) <= tol for a, b in zip(got, want))


@pytest.mark.parametrize("kernel", GRID_KERNELS)
@pytest.mark.parametrize("m", [8, 9, 16, 32])
def test_tridiagonal_form_keeps_lambda_min_within_delta(kernel, m):
    # grid_lambda_min widens its bracket by _DELTA_ULPS n u |T| (u = 2^-prec,
    # |T| the larger block's norm) for the rounding of the Toeplitz entries,
    # the blocks and their reduction; the smaller block minimum must sit well
    # inside that, here within 2 n u |T| of the 150-digit eigenvalue
    want = Fraction(*to_rational(_reference_grid_lambda_min(kernel, m)._mpf_))
    n = m + 1
    for prec in (dps_to_prec(50), 2 * dps_to_prec(50)):
        blocks = _blocks_as_rationals(kernel, m, prec)
        norm = max(
            abs(a) + abs(b) + abs(c)
            for diag, off in blocks
            for a, b, c in zip(diag, [0, *off], off)
        )
        bound = Fraction(2 * n, 2**prec) * norm
        assert sum(_eigenvalues_below(diag, off, want - bound) for diag, off in blocks) == 0
        assert sum(_eigenvalues_below(diag, off, want + bound) for diag, off in blocks) >= 1


@pytest.mark.parametrize("kernel", GRID_KERNELS)
def test_grid_lambda_min_refines_the_other_block_when_its_count_turns(kernel, monkeypatch):
    # taken in the wrong order, the first block's bracket lies above the other
    # block's minimum: the Sturm count there turns and the other is refined too
    ms = [1, 2, 5, 8, 13]
    want = [_exact.grid_lambda_min(kernel, m).hex() for m in ms]
    lower_first = _exact._lower_first
    monkeypatch.setattr(_exact, "_lower_first", lambda *args: lower_first(*args)[::-1])
    certified, calls = _exact._certified_power, []

    def counting(*args):
        calls.append(args)
        return certified(*args)

    monkeypatch.setattr(_exact, "_certified_power", counting)
    for m, lam in zip(ms, want):
        calls.clear()
        assert _exact.grid_lambda_min(kernel, m).hex() == lam
        # the last pass, at one precision, refines both blocks
        (*_, prec_a), (*_, prec_b) = calls[-2:]
        assert prec_a == prec_b


@pytest.mark.parametrize("sigma", [1e3, 1e5])
@pytest.mark.parametrize("d", [1, 2])
def test_flat_gaussian_grid_lambda_min_is_the_800_digit_double(sigma, d):
    # the antisymmetric block's norm is far below |K| here, while the Toeplitz
    # entries are rounded to u |K|: a delta from that block's own norm would
    # certify a wrong double (0x1.097c2c8854c6ep-124 at sigma=1e3, d=1)
    kernel = Kernel("gaussian", sigma=sigma, dim=d)
    want = float(_reference_grid_lambda_min(kernel, 5, dps=800) ** d)
    got = _exact.grid_lambda_min(kernel, 5)
    assert got.hex() == want.hex()
    if (sigma, d) == (1e3, 1):
        assert got.hex() == "0x1.097c2c8854c0dp-124"


@pytest.mark.parametrize(
    "kernel, m, positive",
    [
        (Kernel("sobolev", r=1.0, dim=1), EXTENDED_MAX_M, True),
        (Kernel("inverse_multiquadric", sigma=0.7, beta=0.6, dim=1), EXTENDED_MAX_M, False),
        (GAUSS, 23, False),
        (Kernel("gaussian", sigma=2.0, dim=1), 24, False),
        # positive at 50 digits, but with 14 to 6 digits left, not a double's 16
        (GAUSS, 17, True),
        (GAUSS, 18, True),
        (GAUSS, 19, True),
        (GAUSS, 20, True),
    ],
)
def test_grid_lambda_min_at_the_cap_and_where_eigsy_is_not_positive(kernel, m, positive):
    # ``positive`` is the sign of eigsy's minimum at 50 digits; either way
    # the double of the 150-digit minimum comes back
    assert (_reference_grid_lambda_min(kernel, m, dps=50) > 0) == positive
    assert _check_grid_lambda_min(kernel, m) > 0


@pytest.mark.parametrize("sigma, m", [(0.5, 8), (1.0, 4), (1.0, 12), (2.0, 16)])
def test_gaussian_d2_grid_lambda_min_is_the_squared_1d_value(sigma, m):
    kernel = Kernel("gaussian", sigma=sigma, dim=2)
    want = float(_reference_grid_lambda_min(kernel, m) ** 2)
    assert _exact.grid_lambda_min(kernel, m).hex() == want.hex()


def test_grid_lambda_min_does_not_call_eigsy(monkeypatch):
    kernel = Kernel("sobolev", r=2.0, dim=1)
    want = float(_reference_grid_lambda_min(kernel, 12))

    def eigsy(*args, **kwargs):
        raise AssertionError("grid_lambda_min went through MPContext.eigsy")

    monkeypatch.setattr(mpmath.MPContext, "eigsy", eigsy)
    assert _exact.grid_lambda_min(kernel, 12).hex() == want.hex()


def test_grid_lambda_min_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(_exact, "_STEPS_PER_BIT", 0)
    with pytest.raises(SingularGramError, match="at m=4: no convergence after 0 Sturm counts"):
        _exact.grid_lambda_min(Kernel("sobolev", r=1.0, dim=1), 4)


def test_grid_lambda_min_below_the_double_range_raises():
    # the 1-D value at sigma=1000, m=24 is near 1e-200: its square has no double
    with pytest.raises(SingularGramError, match="at m=24, d=2 is below the double range"):
        _exact.grid_lambda_min(Kernel("gaussian", sigma=1000.0, dim=2), 24)


@pytest.mark.parametrize("kernel", GRID_KERNELS)
def test_grid_lambda_min_agrees_with_eigvalsh(kernel):
    # double-precision eigenvalues are good to about 1e-15 |A|; judge only those well above that
    for m in range(1, 13):
        lam = _exact.grid_lambda_min(kernel, m)
        nodes = uniform_grid(m, 1).points
        gram = kernel.pairwise(nodes, nodes)
        norm = np.linalg.norm(gram, 2)
        assert lam > 0
        if lam / norm > 1e-10:
            assert abs(lam - np.linalg.eigvalsh(gram)[0]) <= 1e-8 * norm


def test_threads_keep_global_precision_and_values():
    # the Matern profile runs besselk on an MPContext of its own
    kernels = (GAUSS, Kernel("sobolev", r=1.25, dim=1))
    kms = [(kernel, m) for kernel in kernels for m in range(8, 13)]
    nodes = uniform_grid(8, 1).points
    xs = _probe_points(nodes, seed=1)
    serial_lams = [_exact.grid_lambda_min(kernel, m).hex() for kernel, m in kms]
    serial_schur = [_exact.schur_values(kernel, nodes, xs).tobytes() for kernel in kernels]
    assert mpmath.mp.dps == 15

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            lams = [pool.submit(_exact.grid_lambda_min, kernel, m) for kernel, m in kms * 2]
            schurs = [pool.submit(_exact.schur_values, kernel, nodes, xs) for kernel in kernels * 2]
            threaded_lams = [f.result(timeout=120).hex() for f in lams]
            threaded_schur = [f.result(timeout=120).tobytes() for f in schurs]
    finally:
        sys.setswitchinterval(interval)
    assert mpmath.mp.dps == 15
    assert threaded_lams == serial_lams * 2
    assert threaded_schur == serial_schur * 2


def test_rate_study_power_with_escalation_keeps_global_precision():
    # sigma=2 escalates the sups at m=6 and m=7 into extended precision: they
    # are the _exact Schur values, and the study leaves mpmath.mp as it was
    kernel = Kernel("gaussian", sigma=2.0, dim=1)
    study = rate_study_power(kernel, [2, 4, 6, 7])
    assert mpmath.mp.dps == 15
    for m, sup in zip(study.m_list[2:], study.sups[2:]):
        grid = uniform_grid(m, 1)
        exact = _exact.schur_values(kernel, grid.points, default_power_eval_set(grid).points)
        assert sup == float(np.sqrt(exact.max()))


def test_supports_grid():
    imq = Kernel("inverse_multiquadric", sigma=1.0, beta=2.0, dim=1)
    for d in (1, 2, 3):
        assert _exact.supports_grid(Kernel("gaussian", sigma=0.5, dim=d))
    assert _exact.supports_grid(imq)
    assert _exact.supports_grid(Kernel("sobolev", r=2.0, dim=1))
    assert _exact.supports_grid(Kernel("sobolev", r=1.25, dim=1))
    imq2 = Kernel("inverse_multiquadric", sigma=1.0, beta=2.0, dim=2)
    assert not _exact.supports_grid(imq2)
    with pytest.raises(UnsupportedConfigurationError):
        _exact.grid_lambda_min(imq2, 3)
