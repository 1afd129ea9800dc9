"""Gram systems, interpolation, power function, and unit-ball sampling.

Frozen values were computed through independent routes: tiny linear solves
by hand-coded 2x2 algebra, and power-function values via extended-precision
(mpmath, 60 digit) Schur complements.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import rfl.rkhs
from rfl import (
    ArgumentError,
    GramSystem,
    Kernel,
    PointSet,
    RkhsFunction,
    SingularGramError,
    build_gram,
    default_power_eval_set,
    halton_points,
    power_function_sup,
    power_values,
    project,
    rkhs_inner,
    rkhs_norm,
    sample_unit_ball,
    uniform_grid,
)
from rfl.rkhs import _projected_at

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)
EPS = float(np.finfo(float).eps)

TEST_KERNELS = [
    GAUSS,
    Kernel("sobolev", r=2.0, dim=1),
    Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1),
]


def test_build_gram_basic():
    sys2 = build_gram(GAUSS, uniform_grid(2, 1))
    assert len(sys2) == 3
    assert sys2.jitter_used == 0.0
    assert np.array_equal(sys2.gram, sys2.gram.T)
    # factor reproduces the matrix
    assert np.allclose(sys2.factor @ sys2.factor.T, sys2.gram, atol=1e-14)


def test_build_gram_dim_mismatch():
    with pytest.raises(ArgumentError):
        build_gram(GAUSS, uniform_grid(2, 2))


def test_jitter_ladder():
    # moderately sized smooth-kernel grids factor without help
    for m in (2, 4, 8):
        assert build_gram(GAUSS, uniform_grid(m, 1)).jitter_used == 0.0
    # a near-duplicate pair collapses the matrix in double precision
    near = PointSet(dim=1, points=np.array([[0.0], [1e-9]]))
    sys_near = build_gram(GAUSS, near)
    assert sys_near.jitter_used > 0.0
    # flat-kernel fine grids need the ladder too
    sys16 = build_gram(GAUSS, uniform_grid(16, 1))
    assert sys16.jitter_used > 0.0


def test_singular_gram_error(monkeypatch):
    def always_fail(_):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(np.linalg, "cholesky", always_fail)
    with pytest.raises(SingularGramError):
        build_gram(GAUSS, uniform_grid(2, 1))


def test_solve_roundtrip():
    sys4 = build_gram(Kernel("sobolev", r=1.0, dim=1), uniform_grid(4, 1))
    x = np.array([1.0, -2.0, 0.5, 3.0, -0.25])
    assert np.allclose(sys4.solve(sys4.gram @ x), x, atol=1e-9)


SOLVE_SYSTEMS = [
    (Kernel("gaussian", sigma=1.0, dim=1), 12),  # jittered
    (Kernel("gaussian", sigma=0.5, dim=1), 4),
    (Kernel("gaussian", sigma=1.0, dim=2), 3),
    (Kernel("sobolev", r=1.0, dim=1), 16),
    (Kernel("sobolev", r=2.0, dim=1), 6),
    (Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), 5),
]


@pytest.mark.parametrize("kernel, m", SOLVE_SYSTEMS)
def test_matrix_solve_columns_equal_vector_solves(kernel, m):
    # error_decomposition projects a block of samples with one solve
    system = build_gram(kernel, uniform_grid(m, kernel.dim))
    block = np.random.default_rng(m).standard_normal((50, len(system)))
    batched = system.solve(block.T)
    for j, row in enumerate(block):
        assert batched[:, j].tobytes() == system.solve(row).tobytes()


def test_project_frozen_two_nodes():
    # K = [[1, e^{-1/2}], [e^{-1/2}, 1]], data (1, 0); solved by hand:
    # c = (1/(1-q^2)) (1, -q) with q = e^{-1/2}
    sys1 = build_gram(GAUSS, uniform_grid(1, 1))
    f = project(sys1, np.array([1.0, 0.0]))
    assert f.coeffs[0] == pytest.approx(1.5819767068693265, rel=1e-12)
    assert f.coeffs[1] == pytest.approx(-0.9595173756674719, rel=1e-12)
    assert f.eval_at(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert f.eval_at(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_project_validation():
    sys2 = build_gram(GAUSS, uniform_grid(2, 1))
    with pytest.raises(ArgumentError):
        project(sys2, np.array([1.0, 2.0]))


def test_nodal_basis_delta_property():
    # the i-th nodal basis function interpolates the i-th unit vector
    sys3 = build_gram(Kernel("sobolev", r=1.0, dim=1), uniform_grid(3, 1))
    nodes = sys3.points.points
    for i in range(4):
        u_i = project(sys3, np.eye(4)[i])
        for j in range(4):
            val = u_i.eval_at(nodes[j])[0]
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_interpolation_and_orthogonality():
    grid_fine = uniform_grid(128, 1)
    for kernel in TEST_KERNELS:
        system = build_gram(kernel, uniform_grid(4, 1))
        nodes = system.points.points
        for seed in range(10):
            f = sample_unit_ball(kernel, 10, 0.8, seed=seed)
            pf = project(system, f.eval_at(nodes))
            # exact fit at the nodes
            assert np.abs(pf.eval_at(nodes) - f.eval_at(nodes)).max() <= 1e-8
            # residual orthogonal to the node span
            for j in range(len(system)):
                k_j = RkhsFunction(kernel, nodes[j : j + 1], np.array([1.0]))
                ip = rkhs_inner(f, k_j) - rkhs_inner(pf, k_j)
                assert abs(ip) <= 1e-8
            # Pythagoras: ||f||^2 = ||Pf||^2 + ||f - Pf||^2
            res = RkhsFunction(
                kernel, np.vstack([f.centers, pf.centers]), np.concatenate([f.coeffs, -pf.coeffs])
            )
            lhs = rkhs_norm(f) ** 2
            rhs = rkhs_norm(pf) ** 2 + rkhs_norm(res) ** 2
            assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-12)
            assert rkhs_norm(pf) <= rkhs_norm(f) * (1.0 + 1e-9)


def test_power_function_single_node_frozen():
    # one node at 0: P(x)^2 = 1 - K(x,0)^2, so P(1) = sqrt(1 - e^{-1})
    system = build_gram(GAUSS, PointSet(dim=1, points=np.array([[0.0]])))
    assert power_values(system, np.array([[1.0]]))[0] == pytest.approx(
        0.7950600976206501, rel=1e-13
    )
    assert power_values(system, np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-7)


def test_power_function_escalated_frozen():
    # the double-precision Schur complement is pure noise here; values come
    # from the extended-precision path and were frozen against an mpmath
    # recomputation (60 digits)
    system = build_gram(GAUSS, uniform_grid(8, 1))
    assert system.jitter_used == 0.0
    assert power_values(system, np.array([[1.0 / 16.0]]))[0] == pytest.approx(
        4.494163747007547e-08, rel=1e-12
    )
    assert power_function_sup(system) == pytest.approx(
        5.5379573672791953e-08, rel=1e-12
    )


def test_power_values_batch_matches_pointwise():
    system = build_gram(Kernel("sobolev", r=2.0, dim=1), uniform_grid(4, 1))
    xs = np.array([[0.1], [0.33], [0.61], [0.95]])
    batch = power_values(system, xs)
    for i, x in enumerate(xs):
        assert batch[i] == pytest.approx(power_values(system, x[None])[0], rel=1e-12)
    aspoints = power_values(system, PointSet(dim=1, points=xs))
    assert np.array_equal(batch, aspoints)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_power_values_rejects_non_finite_points(bad):
    # scipy's cho_solve raised a bare ValueError for these
    system = build_gram(GAUSS, uniform_grid(4, 1))
    with pytest.raises(ArgumentError, match="finite"):
        power_values(system, np.array([[0.5], [bad]]))


def test_power_function_vanishes_at_nodes():
    for kernel in TEST_KERNELS:
        system = build_gram(kernel, uniform_grid(4, 1))
        vals = power_values(system, system.points)
        assert vals.max() <= 1e-6


@pytest.mark.parametrize(
    "kernel, m, escalated",
    [
        # the 16x finer 1-D grid holds every node; at m=8, 120 more points are below the floor
        (GAUSS, 4, []),
        (GAUSS, 8, [120]),
        # the first of 4096 Halton points is the node (0, 0)
        (Kernel("gaussian", sigma=0.05, dim=2), 4, []),
    ],
)
def test_power_values_at_node_hits_skip_the_extended_factor(kernel, m, escalated, monkeypatch):
    grid = uniform_grid(m, kernel.dim)
    system = build_gram(kernel, grid)
    X = default_power_eval_set(grid).points
    schur_values, calls = rfl.rkhs._exact.schur_values, []

    def counting(kernel, nodes, xs):
        calls.append(len(xs))
        return schur_values(kernel, nodes, xs)

    monkeypatch.setattr(rfl.rkhs._exact, "schur_values", counting)
    got = power_values(system, X)
    assert calls == escalated
    # the same bits as before node hits skipped the factor: every sub-floor
    # point escalated, and an exact 0 at each node among them
    k = kernel.pairwise(grid.points, X)
    s = kernel.diagonal() - np.einsum("ij,ij->j", k, system.solve(k))
    low = s < rfl.rkhs._SCHUR_FLOOR * len(system) * EPS * kernel.diagonal()
    nodes = set(map(tuple, grid.points.tolist()))
    hit = low & np.array([x in nodes for x in map(tuple, X.tolist())])
    assert hit.sum() >= 1
    s[hit] = 0.0
    if escalated:
        s[low & ~hit] = schur_values(kernel, grid.points, X[low & ~hit])
    assert got.tobytes() == np.sqrt(np.maximum(s, 0.0)).tobytes()


def test_power_bounds_interpolation_error():
    # |f(x) - Pf(x)| <= ||f|| P(x) on a dense grid
    grid = uniform_grid(512, 1)
    for kernel in TEST_KERNELS:
        system = build_gram(kernel, uniform_grid(4, 1))
        pvals = power_values(system, grid)
        for seed in range(5):
            f = sample_unit_ball(kernel, 10, 1.0, seed=100 + seed)
            pf = project(system, f.eval_at(system.points.points))
            err = np.abs(f.eval_at(grid.points) - pf.eval_at(grid.points))
            bound = rkhs_norm(f) * pvals
            assert np.all(err <= bound * (1.0 + 1e-6) + 1e-14)


def test_default_power_eval_set():
    fine = default_power_eval_set(uniform_grid(4, 1))
    assert fine.grid_m == 64
    capped = default_power_eval_set(uniform_grid(300, 1))
    assert capped.grid_m == 4095
    d2 = default_power_eval_set(uniform_grid(4, 2))
    assert d2.grid_m is None
    assert len(d2) == 4096 and d2.dim == 2


def test_norms_frozen():
    f_plus = RkhsFunction(GAUSS, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    # 2 + 2 e^{-1/2}
    assert rkhs_norm(f_plus) ** 2 == pytest.approx(3.213061319425267, rel=1e-13)
    f_minus = RkhsFunction(GAUSS, np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
    # 2 - 2 e^{-1/2}
    assert rkhs_norm(f_minus) ** 2 == pytest.approx(0.7869386805747332, rel=1e-13)


def test_inner_reproducing_property():
    f = RkhsFunction(GAUSS, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    k0 = RkhsFunction(GAUSS, np.array([[0.25]]), np.array([1.0]))
    assert rkhs_inner(f, k0) == pytest.approx(f.eval_at(np.array([0.25]))[0], rel=1e-13)
    other = RkhsFunction(Kernel("sobolev", r=2.0, dim=1), np.array([[0.5]]), np.array([1.0]))
    with pytest.raises(ArgumentError):
        rkhs_inner(f, other)


def test_rkhs_function_validation_and_shapes():
    with pytest.raises(ArgumentError):
        RkhsFunction(GAUSS, np.array([[0.0], [1.0]]), np.array([1.0]))
    with pytest.raises(ArgumentError):
        RkhsFunction(GAUSS, np.empty((0, 1)), np.empty(0))
    # a flat center list in d=1 is promoted to a column
    f = RkhsFunction(GAUSS, np.array([0.2, 0.8]), np.array([1.0, 2.0]))
    assert f.centers.shape == (2, 1)
    assert f.eval_at(np.array([0.2]))[0] == pytest.approx(1.0 + 2.0 * math.exp(-0.18), rel=1e-13)


def test_sample_unit_ball_norm_and_determinism():
    for kernel in TEST_KERNELS:
        for seed in range(20):
            target = 0.2 + 0.04 * seed
            f = sample_unit_ball(kernel, 10, target, seed=seed)
            assert rkhs_norm(f) == pytest.approx(target, abs=1e-8)
            assert f.centers.shape == (10, 1)
    a = sample_unit_ball(GAUSS, 10, 0.7, seed=42)
    b = sample_unit_ball(GAUSS, 10, 0.7, seed=42)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_unit_ball(GAUSS, 10, 0.7, seed=43)
    assert not np.array_equal(a.centers, c.centers)


def test_sample_unit_ball_validation():
    with pytest.raises(ArgumentError):
        sample_unit_ball(GAUSS, 0, 0.5, seed=0)
    with pytest.raises(ArgumentError):
        sample_unit_ball(GAUSS, 10, 0.0, seed=0)
    with pytest.raises(ArgumentError):
        sample_unit_ball(GAUSS, 10, 1.5, seed=0)
    # True was a center count that failed inside numpy, and a norm target of 1
    with pytest.raises(ArgumentError):
        sample_unit_ball(GAUSS, True, 0.5, seed=0)
    with pytest.raises(ArgumentError):
        sample_unit_ball(GAUSS, 3, True, seed=0)
    # -1 and 2.5 failed inside numpy; True drew seed 1 and None fresh entropy
    for seed in (-1, 2.5, True, False, None):
        with pytest.raises(ArgumentError, match="seed must be a non-negative integer"):
            sample_unit_ball(GAUSS, 3, 0.5, seed)


def test_sample_unit_ball_degenerate_draws(monkeypatch):
    import rfl.rkhs as rkhs_mod

    class ZeroRng:
        def uniform(self, lo, hi, size=None):
            return np.full(size, 0.5) if size else 0.5

        def standard_normal(self, n):
            return np.zeros(n)

    monkeypatch.setattr(rkhs_mod.np.random, "default_rng", lambda seed: ZeroRng())
    with pytest.raises(SingularGramError):
        sample_unit_ball(GAUSS, 4, 0.5, seed=0)


def test_rkhs_function_json_roundtrip():
    f = sample_unit_ball(GAUSS, 6, 0.9, seed=5)
    back = RkhsFunction.from_json(f.to_json())
    assert back.kernel == f.kernel
    assert np.array_equal(back.centers, f.centers)
    assert np.array_equal(back.coeffs, f.coeffs)


def test_gram_system_is_frozen():
    sys2 = build_gram(GAUSS, uniform_grid(2, 1))
    assert isinstance(sys2, GramSystem)
    with pytest.raises(AttributeError):
        sys2.jitter_used = 1.0


@pytest.mark.parametrize("r", [1.25, 2.75])
def test_matern_power_values_are_exactly_zero_at_the_nodes(r):
    # orders outside {1, 2} had a spline profile with no extended-precision
    # form, and their sub-floor values, nodes included, were raised to the floor
    kernel = Kernel("sobolev", r=r, dim=1)
    system = build_gram(kernel, uniform_grid(8, 1))
    assert system.jitter_used == 0.0
    assert power_values(system, system.points).tobytes() == np.zeros(len(system)).tobytes()
    X = np.clip(
        np.concatenate([system.points.points[:, 0] + 1e-7, (np.arange(512) + 0.5) / 512]), 0.0, 1.0
    )[:, None]
    pvals = power_values(system, X)
    assert np.isfinite(pvals).all()
    assert np.isfinite(power_function_sup(system))
    for seed in range(10):
        f = sample_unit_ball(kernel, 10, 1.0, seed=seed)
        pf = project(system, f.eval_at(system.points.points))
        err = np.abs(f.eval_at(X) - pf.eval_at(X))
        # plus the rounding of the two evaluations, all there is at the node x = 1
        slack = 1e2 * EPS * kernel.diagonal() * (np.abs(f.coeffs).sum() + np.abs(pf.coeffs).sum())
        assert (err <= rkhs_norm(f) * pvals * (1.0 + 1e-6) + slack).all()


def _matern_power_60_digits(kernel, nodes, xs):
    """Power function values K(x,x) - |L^-1 k_x|^2 with K = L L^T, at 60 digits."""
    ctx = mpmath.MPContext()
    ctx.dps = 60
    r = ctx.mpf(kernel.r)
    nu, scale = r - 0.5, 2 * ctx.pi**r / ctx.gamma(r)
    zero = ctx.sqrt(ctx.pi) * ctx.gamma(nu) / ctx.gamma(r)

    def phi(a, b):
        x = abs(ctx.mpf(a) - ctx.mpf(b))
        return scale * x**nu * ctx.besselk(nu, 2 * ctx.pi * x) if x else zero

    L = ctx.cholesky(ctx.matrix([[phi(a, b) for b in nodes] for a in nodes]))
    out = []
    for x in xs:
        z = []
        for i, a in enumerate(nodes):
            z.append((phi(a, x) - sum(L[i, j] * z[j] for j in range(i))) / L[i, i])
        out.append(float(ctx.sqrt(zero - sum(v * v for v in z))))
    return np.array(out)


@pytest.mark.parametrize("m", [8, 16])
def test_matern_power_values_match_60_digits(m):
    # the spline profile put these off by 3.9e-10 (m = 8) and 1.7e-9 (m = 16)
    kernel = Kernel("sobolev", r=1.25, dim=1)
    grid = uniform_grid(m, 1)
    X = default_power_eval_set(grid).points[::7]
    X = X[~np.isin(X[:, 0], grid.points[:, 0])]
    got = power_values(build_gram(kernel, grid), X)
    want = _matern_power_60_digits(kernel, grid.points[:, 0], X[:, 0])
    assert np.abs(got - want).max() <= 1e-12 * want.min()


def kernel_id(kernel):
    shape = f"r={kernel.r}" if kernel.family == "sobolev" else f"s={kernel.sigma},b={kernel.beta}"
    return f"{kernel.family}-{shape}-d{kernel.dim}"


PROJECTED_AT_SYSTEMS = [
    (Kernel("gaussian", sigma=0.5, dim=1), 12),
    (Kernel("gaussian", sigma=1.0, dim=1), 8),
    (Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), 6),
    (Kernel("inverse_multiquadric", sigma=0.5, beta=1.5, dim=1), 8),
    (Kernel("sobolev", r=1.0, dim=1), 16),
    (Kernel("sobolev", r=2.0, dim=1), 16),
    (Kernel("sobolev", r=1.25, dim=1), 16),
    (Kernel("gaussian", sigma=1.0, dim=2), 4),
    (Kernel("inverse_multiquadric", sigma=0.5, beta=1.5, dim=2), 4),
]


@pytest.mark.parametrize("block", [None, 7], ids=["block256", "block7"])
@pytest.mark.parametrize(
    "kernel, m", PROJECTED_AT_SYSTEMS, ids=[f"{kernel_id(k)}-m{m}" for k, m in PROJECTED_AT_SYSTEMS]
)
def test_projected_at_bit_identical_to_per_row_projection(kernel, m, block, monkeypatch):
    # rfl project's route, on its default evaluation set; blocks of 7 rows
    # leave a partial last block
    if block is not None:
        monkeypatch.setattr(rfl.rkhs, "_SOLVE_BLOCK", block)
    system = build_gram(kernel, uniform_grid(m, kernel.dim))
    X = default_power_eval_set(system.points).points
    rows = np.array(
        [sample_unit_ball(kernel, 10, 0.8, s).eval_at(system.points.points) for s in range(30)]
    )
    batched = list(_projected_at(system, rows, X))
    assert len(batched) == len(rows)
    for row, vals in zip(rows, batched):
        assert vals.tobytes() == project(system, row).eval_at(X).tobytes()


def _node_sets(kernel):
    yield uniform_grid(6 if kernel.dim == 1 else 3, kernel.dim)
    yield halton_points(7 if kernel.dim == 1 else 16, kernel.dim)


def _seeded_draws(kernel, seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        target = float(rng.uniform(0.2, 1.0))
        yield sample_unit_ball(kernel, 10, target, int(rng.integers(2**32)))


PROPERTY_KERNELS = [
    Kernel("gaussian", sigma=1.0, dim=1),
    Kernel("gaussian", sigma=0.5, dim=2),
    Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1),
    Kernel("inverse_multiquadric", sigma=0.5, beta=1.5, dim=2),
    Kernel("sobolev", r=1.0, dim=1),
    Kernel("sobolev", r=2.0, dim=1),
    Kernel("sobolev", r=1.25, dim=1),
]


@pytest.mark.parametrize("kernel", PROPERTY_KERNELS, ids=kernel_id)
def test_projector_is_idempotent(kernel):
    # P(Pf) = Pf: Pf's node values give back Pf's coefficients; jitter would
    # break exact interpolation, so every system here must factor unjittered
    for nodes in _node_sets(kernel):
        system = build_gram(kernel, nodes)
        assert system.jitter_used == 0.0
        cond = np.linalg.cond(system.gram)
        for f in _seeded_draws(kernel, 3, 5):
            pf = project(system, f.eval_at(nodes.points))
            ppf = project(system, pf.eval_at(nodes.points))
            # the solve's forward error bound, relative to the coefficients
            tol = 10.0 * cond * EPS * np.abs(pf.coeffs).max()
            assert np.abs(ppf.coeffs - pf.coeffs).max() <= tol


@pytest.mark.parametrize("kernel", PROPERTY_KERNELS, ids=kernel_id)
def test_power_bounds_unit_ball_samples_on_grids_and_halton_nodes(kernel):
    # |f(x) - Pf(x)| <= ||f|| P(x) for every family, d = 2 and Halton nodes included
    X = halton_points(257, kernel.dim).points
    for nodes in _node_sets(kernel):
        system = build_gram(kernel, nodes)
        pvals = power_values(system, X)
        for f in _seeded_draws(kernel, 5, 8):
            pf = project(system, f.eval_at(nodes.points))
            err = np.abs(f.eval_at(X) - pf.eval_at(X))
            # plus the rounding of the two evaluations, all there is at a node
            coeff_sum = np.abs(f.coeffs).sum() + np.abs(pf.coeffs).sum()
            slack = 1e2 * EPS * kernel.diagonal() * coeff_sum
            assert np.all(err <= rkhs_norm(f) * pvals * (1.0 + 1e-6) + slack)


SUP_SYSTEMS = [
    *((Kernel("gaussian", sigma=sigma, dim=1), m) for sigma in (0.5, 1.0, 2.0) for m in (2, 4, 7)),
    *((Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), m) for m in (2, 8, 15)),
    *((Kernel("sobolev", r=r, dim=1), m) for r in (1.0, 2.0, 1.25) for m in (2, 8, 16)),
    (Kernel("gaussian", sigma=1.0, dim=2), 2),
    (Kernel("gaussian", sigma=0.5, dim=2), 4),
    (Kernel("gaussian", sigma=0.5, dim=2), None),
]


@pytest.mark.parametrize(
    "kernel, m", SUP_SYSTEMS, ids=[f"{kernel_id(k)}-m{m}" for k, m in SUP_SYSTEMS]
)
def test_power_function_sup_is_the_max_of_power_values(kernel, m):
    # one escalation rule: the sup is the largest pointwise value, bit for
    # bit; m = None stands for 16 Halton nodes, and d = 2 evaluates on
    # 4096 Halton points
    nodes = halton_points(16, 2) if m is None else uniform_grid(m, kernel.dim)
    system = build_gram(kernel, nodes)
    assert system.jitter_used == 0.0
    eval_set = default_power_eval_set(nodes)
    assert power_function_sup(system, eval_set) == power_values(system, eval_set).max()


# sups whose double-precision square lay between a tenth of the noise floor
# and the floor, which a whole-batch escalation rule returned unescalated.
# at_doubles: 120-digit forward substitution (Wendland 2005, sec. 11.1) on
# the grids' double coordinates, rounded once; at_rationals: the same on the
# exact rationals j/m and i/(16m).
SUPS_NEAR_THE_FLOOR = [
    (Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), 15,
     9.6026298931856e-07, 9.602629893185602e-07),
    (Kernel("gaussian", sigma=0.5, dim=1), 10, 9.043441890807872e-07, 9.043441890807871e-07),
    (Kernel("gaussian", sigma=2.0, dim=1), 5, 6.149307075946224e-07, 6.149307075946222e-07),
    (Kernel("gaussian", sigma=1.0, dim=1), 7, 5.049083327753045e-07, 5.049083327753042e-07),
    (Kernel("gaussian", sigma=0.25, dim=1), 16, 1.2174843591313893e-06, 1.2174843591313893e-06),
    (Kernel("inverse_multiquadric", sigma=1.0, beta=0.5, dim=1), 14,
     9.498476234765438e-07, 9.49847623476544e-07),
]


@pytest.mark.parametrize(
    "kernel, m, at_doubles, at_rationals",
    SUPS_NEAR_THE_FLOOR,
    ids=[f"{kernel_id(k)}-m{m}" for k, m, *_ in SUPS_NEAR_THE_FLOOR],
)
def test_power_function_sup_near_the_floor_is_exact(kernel, m, at_doubles, at_rationals):
    # the first IMQ sup read 1.0429216160504421e-06 (+8.6 %) before, and the
    # gaussian sigma = 0.25 one 7.10818189487937e-07, a bound 42 % too small
    sup = power_function_sup(build_gram(kernel, uniform_grid(m, 1)))
    assert sup == at_doubles
    assert sup == pytest.approx(at_rationals, rel=1e-14)
