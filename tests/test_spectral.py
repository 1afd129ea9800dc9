"""Eigenvalue routes, the spectral lower bound, and growth constants.

The double-precision solver is checked against hand-solved closed forms;
extended-precision grid values were frozen against independent mpmath
recomputations (60 and 80 digits, exact node coordinates).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from rfl import (
    ArgumentError,
    Kernel,
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
from rfl._exact import grid_lambda_min
from rfl.spectral import EXTENDED_MAX_M

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)
SOB1 = Kernel("sobolev", r=1.0, dim=1)


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


def test_smallest_eigenvalue_recovers_planted_spectrum():
    # A = Q diag(eigs) Q^T has the planted smallest eigenvalue 1e-10
    rng = np.random.default_rng(2024)
    for n in range(1, 13):
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.1, 10.0, n)
            eigs[0] = 1e-10
            A = (Q * eigs) @ Q.T
            A = 0.5 * (A + A.T)
            got = smallest_eigenvalue(A)
            assert abs(got - eigs.min()) <= 1e-8 * float(np.linalg.norm(A)) + 1e-12


def test_smallest_eigenvalue_validation():
    with pytest.raises(ArgumentError):
        smallest_eigenvalue(np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        smallest_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert smallest_eigenvalue(np.eye(16)) == pytest.approx(1.0, rel=1e-14)


def test_lambda_min_accurate_small_grid_uses_extended():
    grid = uniform_grid(2, 1)
    system = build_gram(GAUSS, grid)
    lam, method = lambda_min_accurate(system)
    assert method == "extended"
    assert lam == pytest.approx(float(np.linalg.eigvalsh(system.gram).min()), rel=1e-10)


def test_lambda_min_accurate_extended_frozen():
    # here the rounded Gram matrix is indefinite in double precision, so the
    # value must come from the exact-coordinate extended route; frozen against
    # an independent mpmath eigensolve
    grid9 = uniform_grid(9, 1)
    lam9, method9 = lambda_min_accurate(build_gram(GAUSS, grid9))
    assert method9 == "extended"
    assert lam9 == pytest.approx(4.8939190503331614e-17, rel=1e-10)
    grid12 = uniform_grid(12, 1)
    lam12, method12 = lambda_min_accurate(build_gram(GAUSS, grid12))
    assert method12 == "extended"
    assert lam12 == pytest.approx(2.202265092616178e-24, rel=1e-10)


# criterion 4's 48 grids; each value is the float of an independent 80-digit
# mpmath eigensolve from exact node coordinates (perfbench/reference.json)
CRITERION4_KERNELS = {
    "gaussian_d1": Kernel("gaussian", sigma=1.0, dim=1),
    "gaussian_d2": Kernel("gaussian", sigma=1.0, dim=2),
    "sobolev_r1": Kernel("sobolev", r=1.0, dim=1),
    "sobolev_r2": Kernel("sobolev", r=2.0, dim=1),
}
CRITERION4_HEX = {
    "gaussian_d1": [
        "0x1.92e9a0720d3ecp-2",
        "0x1.35cdb1fdd7250p-6",
        "0x1.97b18147d25d9p-12",
        "0x1.515854caf96a7p-18",
        "0x1.962f56bb8321bp-25",
        "0x1.7fe35083379dep-32",
        "0x1.2a65fe6ae3c04p-39",
        "0x1.89cd12559609dp-47",
        "0x1.c362657ec93fep-55",
        "0x1.c9351c0614d14p-63",
        "0x1.9ecfcac7e3c0fp-71",
        "0x1.54c8b55506a46p-79",
    ],
    "gaussian_d2": [
        "0x1.3d11488dd2e20p-3",
        "0x1.76ea34f555aafp-12",
        "0x1.44a2f21332bffp-23",
        "0x1.bc89adb8cc4b9p-36",
        "0x1.423d17eddd15dp-49",
        "0x1.1fd4fa604138ap-63",
        "0x1.5bd19cf3976b9p-78",
        "0x1.2ee3a34892865p-93",
        "0x1.8df1ebb74b334p-109",
        "0x1.9847548929f49p-125",
        "0x1.50125e440a433p-141",
        "0x1.c5a5bf05aef07p-158",
    ],
    "sobolev_r1": [
        "0x1.915f7772aa809p+1",
        "0x1.79ebd29dc5d84p+1",
        "0x1.473062e622b8cp+1",
        "0x1.1379302259f84p+1",
        "0x1.d1eff6c996be9p+0",
        "0x1.8fc2715d9aa89p+0",
        "0x1.5c5dcbfc28064p+0",
        "0x1.33e66082d56fep+0",
        "0x1.13769446f9d54p+0",
        "0x1.f1ff5cc98ad32p-1",
        "0x1.c61bc15b23c18p-1",
        "0x1.a12fcde278e6bp-1",
    ],
    "sobolev_r2": [
        "0x1.8ca793e7b85efp+0",
        "0x1.2f0a7c2bb768cp+0",
        "0x1.68fd98e9b4c71p-1",
        "0x1.972f1f2dfd325p-2",
        "0x1.d9d9a9a21512ap-3",
        "0x1.23110d224c8cap-3",
        "0x1.7977f8204d314p-4",
        "0x1.00ae6a22364c6p-4",
        "0x1.6b659d122af4ap-5",
        "0x1.0a08045f5b608p-5",
        "0x1.90a4265e47017p-6",
        "0x1.34f39632ad28ep-6",
    ],
}


def test_criterion4_eigenvalues_frozen():
    for name, kernel in CRITERION4_KERNELS.items():
        for m, want in enumerate(CRITERION4_HEX[name], start=1):
            report = check_eigen_lower_bound(kernel, m)
            assert report.method == "extended"
            assert report.lambda_min.hex() == want, (name, m)


def test_lambda_min_accurate_double_route():
    # nodes without an extended route take eigvalsh when the value clears the floor
    sob = Kernel("sobolev", r=1.0, dim=1)
    system = build_gram(sob, halton_points(40, 1))
    gram = system.gram
    assert lambda_min_accurate(system) == (
        float(np.linalg.eigvalsh(gram)[0]),
        "eigvalsh",
    )
    for kernel, grid in (
        (Kernel("sobolev", r=1.25, dim=1), halton_points(40, 1)),
        (Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=2), uniform_grid(4, 2)),
    ):
        lam, method = lambda_min_accurate(build_gram(kernel, grid))
        assert method == "eigvalsh"
        assert lam > 0.0


def test_lambda_min_accurate_past_extended_cap():
    m = EXTENDED_MAX_M + 1
    grid = uniform_grid(m, 1)
    lam, method = lambda_min_accurate(build_gram(SOB1, grid))
    assert method == "eigvalsh"
    assert lam == pytest.approx(grid_lambda_min(SOB1, m), rel=1e-12)


def test_non_positive_extended_eigenvalue_raises():
    # the gaussian sigma=1e12 grid Gram at m=16 is positive only below
    # 2^-1352, the precision cap; it must not become a negative eigenvalue
    # or a negative Hölder constant
    flat = Kernel("gaussian", sigma=1e12, dim=1)
    grid = uniform_grid(16, 1)
    system = build_gram(flat, grid)
    with pytest.raises(SingularGramError, match="not positive"):
        lambda_min_accurate(system)
    with pytest.raises(SingularGramError):
        holder_constant_G(system, 1.0, 1.0)


def test_holder_constant_takes_the_extended_eigenvalue_past_50_digits():
    # at m=24 the 50-digit eigenvalue 1.1e-52 gave 9.34e50 here
    system = build_gram(GAUSS, uniform_grid(24, 1))
    alpha, c_k = GAUSS.holder_data()
    h = fill_distance(system.points)
    want = 1.0 + math.sqrt(25) * c_k * h**alpha / 1.0754863207487035e-56
    assert holder_constant_G(system, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_check_eigen_lower_bound_frozen_sobolev():
    report = check_eigen_lower_bound(Kernel("sobolev", r=1.0, dim=1), 2)
    # Gamma_2 = (1 + 1)^{-1} = 1/2, so the bound is m * Gamma_2 = 1
    assert report.bound_m_gamma == pytest.approx(1.0, rel=1e-14)
    assert report.bound_satisfied
    assert report.bound_m_pow_d_satisfied
    assert report.lambda_min >= 1.0
    assert report.method == "extended"
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


def test_holder_constant_G_frozen():
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


@pytest.mark.parametrize(
    "s, c_f", [(True, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)]
)
def test_holder_constant_G_rejects_bool_exponent_and_non_finite_constant(s, c_f):
    system = build_gram(GAUSS, uniform_grid(2, 1))
    with pytest.raises(ArgumentError):
        holder_constant_G(system, s, c_f)


@pytest.mark.parametrize("c_f", [True, False])
def test_holder_constant_G_rejects_bool_constant(c_f):
    # True used to be read as 1.0 and returned 23.899935514765616
    system = build_gram(GAUSS, uniform_grid(2, 1))
    with pytest.raises(ArgumentError, match="functional constant"):
        holder_constant_G(system, 1.0, c_f)


def test_check_eigen_lower_bound_rejects_bool_m():
    with pytest.raises(ArgumentError, match="positive integer"):
        check_eigen_lower_bound(SOB1, True)


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
        lambda_min_accurate(system)
    with pytest.raises(SingularGramError):
        holder_constant_G(system, 1.0, 1.0)
