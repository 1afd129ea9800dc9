"""Eigensolver accuracy, the spectral lower bound, and growth constants.

The in-house Jacobi solver is checked against numpy's eigvalsh on random
symmetric matrices and against hand-solved closed forms; extended-precision
values for flat-kernel grids were frozen against an independent mpmath
recomputation (60 digits, exact node coordinates).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rfl import (
    ArgumentError,
    Kernel,
    ResourceLimitError,
    SingularGramError,
    SpectralReport,
    UnsupportedConfigurationError,
    build_gram,
    check_eigen_lower_bound,
    fill_distance,
    halton_points,
    holder_constant_G,
    lambda_min_accurate,
    smallest_eigenvalue,
    uniform_grid,
)

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)


def test_smallest_eigenvalue_frozen():
    # [[1, 1/4], [1/4, 1]] has eigenvalues 1 -+ 1/4
    assert smallest_eigenvalue(np.array([[1.0, 0.25], [0.25, 1.0]])) == pytest.approx(
        0.75, rel=1e-13
    )
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.5]])
    # root of the characteristic cubic, cross-checked with numpy eigvalsh
    assert smallest_eigenvalue(A) == pytest.approx(1.1406451548040428, rel=1e-12)
    assert smallest_eigenvalue(np.array([[3.0]])) == 3.0
    assert smallest_eigenvalue(np.zeros((4, 4))) == 0.0


def test_smallest_eigenvalue_random_cross_check():
    rng = np.random.default_rng(2024)
    for n in range(1, 13):
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.1, 10.0, n)
            eigs[0] = 1e-10
            A = (Q * eigs) @ Q.T
            A = 0.5 * (A + A.T)
            got = smallest_eigenvalue(A)
            want = float(np.linalg.eigvalsh(A).min())
            assert abs(got - want) <= 1e-8 * float(np.linalg.norm(A)) + 1e-12


def test_smallest_eigenvalue_validation():
    with pytest.raises(ArgumentError):
        smallest_eigenvalue(np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        smallest_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ResourceLimitError):
        smallest_eigenvalue(np.eye(513))
    assert smallest_eigenvalue(np.eye(16)) == pytest.approx(1.0, rel=1e-14)


def test_lambda_min_accurate_small_grid_uses_jacobi():
    grid = uniform_grid(2, 1)
    system = build_gram(GAUSS, grid)
    lam, method = lambda_min_accurate(GAUSS, grid, system.gram)
    assert method == "jacobi"
    assert lam == pytest.approx(float(np.linalg.eigvalsh(system.gram).min()), rel=1e-10)


def test_lambda_min_accurate_extended_frozen():
    # here the rounded Gram matrix is indefinite in double precision, so the
    # value must come from the exact-coordinate extended route; frozen against
    # an independent mpmath eigensolve
    grid9 = uniform_grid(9, 1)
    lam9, method9 = lambda_min_accurate(GAUSS, grid9, build_gram(GAUSS, grid9).gram)
    assert method9 == "extended"
    assert lam9 == pytest.approx(4.8939190503331614e-17, rel=1e-10)
    grid12 = uniform_grid(12, 1)
    lam12, method12 = lambda_min_accurate(GAUSS, grid12, build_gram(GAUSS, grid12).gram)
    assert method12 == "extended"
    assert lam12 == pytest.approx(2.202265092616178e-24, rel=1e-10)


def test_check_eigen_lower_bound_frozen_sobolev():
    report = check_eigen_lower_bound(Kernel("sobolev", r=1.0, dim=1), 2)
    # Gamma_2 = (1 + 1)^{-1} = 1/2, so the bound is m * Gamma_2 = 1
    assert report.bound_m_gamma == pytest.approx(1.0, rel=1e-14)
    assert report.bound_satisfied
    assert report.bound_m_pow_d_satisfied
    assert report.lambda_min >= 1.0
    assert report.method == "jacobi"
    assert report.inv_op_norm == pytest.approx(1.0 / report.lambda_min, rel=1e-14)


def test_check_eigen_lower_bound_gaussian_d2():
    report = check_eigen_lower_bound(Kernel("gaussian", sigma=1.0, dim=2), 2)
    # corner minimum 2 pi e^{-4 pi^2}
    assert report.bound_m_gamma == pytest.approx(2.0 * 4.4969799216688755e-17, rel=1e-12)
    assert report.bound_m_pow_d_gamma == pytest.approx(
        4.0 * 4.4969799216688755e-17, rel=1e-12
    )
    assert report.bound_satisfied
    assert report.bound_m_pow_d_satisfied
    assert report.d == 2


def test_check_eigen_lower_bound_sweep():
    for kernel in (GAUSS, Kernel("sobolev", r=2.0, dim=1)):
        for m in (1, 3, 6, 10):
            report = check_eigen_lower_bound(kernel, m)
            assert report.bound_satisfied
            assert report.bound_m_pow_d_satisfied
            assert report.lambda_min > 0.0


def test_check_eigen_lower_bound_validation():
    with pytest.raises(UnsupportedConfigurationError):
        check_eigen_lower_bound(
            Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), 2
        )
    with pytest.raises(ArgumentError):
        check_eigen_lower_bound(GAUSS, 0)
    with pytest.raises(ArgumentError):
        check_eigen_lower_bound(GAUSS, 2, d=2)


def test_spectral_report_json():
    report = check_eigen_lower_bound(Kernel("sobolev", r=1.0, dim=1), 2)
    obj = report.to_json()
    assert obj["m"] == 2
    assert obj["bound_satisfied"] is True
    assert isinstance(report, SpectralReport)


def test_holder_constant_G_matches_manual_formula():
    system = build_gram(GAUSS, uniform_grid(2, 1))
    lam = float(np.linalg.eigvalsh(system.gram).min())
    h = fill_distance(system.points)
    alpha, c_k = GAUSS.holder_data()
    for s, c_f in ((1.0, 1.0), (0.5, 3.0)):
        want = c_f * (1.0 + (1.0 / lam) * math.sqrt(3.0) * c_k * h**alpha) ** s
        assert holder_constant_G(system, s, c_f) == pytest.approx(want, rel=1e-9)


def test_holder_constant_G_frozen_and_override():
    system = build_gram(GAUSS, uniform_grid(2, 1))
    assert holder_constant_G(system, 1.0, 1.0) == pytest.approx(23.900, rel=1e-3)


def test_holder_constant_G_validation():
    system = build_gram(GAUSS, uniform_grid(2, 1))
    with pytest.raises(ArgumentError):
        holder_constant_G(system, 0.0, 1.0)
    with pytest.raises(ArgumentError):
        holder_constant_G(system, 1.5, 1.0)
    with pytest.raises(ArgumentError):
        holder_constant_G(system, 1.0, -1.0)


def test_holder_constant_G_growth_caps():
    # growth exponents stay under the analytic envelopes (10% slack):
    # sobolev: log C_G vs log m, envelope (2r - d - 1/2) s
    # multiquadric: log C_G vs m, envelope 4 sigma M_d s
    # gaussian: log C_G vs m^2, envelope sigma^2 pi^2 d s
    ms = np.array([2.0, 4.0, 8.0, 16.0])

    def slope(xs, ys):
        return float(np.polyfit(xs, ys, 1)[0])

    sob = Kernel("sobolev", r=2.0, dim=1)
    c_sob = [holder_constant_G(build_gram(sob, uniform_grid(int(m), 1)), 1.0, 1.0) for m in ms]
    assert slope(np.log(ms), np.log(c_sob)) <= 2.5 * 1.1

    mq = Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1)
    c_mq = [holder_constant_G(build_gram(mq, uniform_grid(int(m), 1)), 1.0, 1.0) for m in ms]
    assert slope(ms, np.log(c_mq)) <= 4.0 * (math.pi**2 / 3.0) * 1.1

    c_g = [holder_constant_G(build_gram(GAUSS, uniform_grid(int(m), 1)), 1.0, 1.0) for m in ms]
    assert slope(ms**2, np.log(c_g)) <= math.pi**2 * 1.1

    # all three sequences grow (the constants are monotone in m)
    for seq in (c_sob, c_mq, c_g):
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_holder_constant_G_frozen_sequences():
    # spot values measured once and pinned loosely to catch regressions
    sob = Kernel("sobolev", r=2.0, dim=1)
    assert holder_constant_G(build_gram(sob, uniform_grid(4, 1)), 1.0, 1.0) == pytest.approx(
        3.5522, rel=1e-3
    )
    mq = Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1)
    assert holder_constant_G(build_gram(mq, uniform_grid(4, 1)), 1.0, 1.0) == pytest.approx(
        432.88, rel=1e-3
    )
    assert holder_constant_G(build_gram(GAUSS, uniform_grid(4, 1)), 1.0, 1.0) == pytest.approx(
        5.5604e4, rel=1e-3
    )


def test_holder_constant_G_off_grid_below_floor_raises():
    # 40 Halton nodes make the gaussian Gram numerically indefinite; with no
    # extended-precision route off the grid, a sub-floor eigenvalue must not
    # turn into a (negative) Hölder constant
    nodes = halton_points(40, 1)
    system = build_gram(GAUSS, nodes)
    with pytest.raises(SingularGramError, match="noise floor"):
        lambda_min_accurate(GAUSS, nodes, system.gram)
    with pytest.raises(SingularGramError):
        holder_constant_G(system, 1.0, 1.0)
