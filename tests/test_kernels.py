"""Kernel evaluation, Fourier data, Hölder data, and corner constants.

Frozen expected values come from independent closed forms (math/scipy
computed separately from the package); property checks run as seeded
loops with plain asserts.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import rfl.kernels
from rfl import (
    ArgumentError,
    FAMILIES,
    Kernel,
    UnsupportedConfigurationError,
    m_d_constant,
)
from rfl.kernels import SOBOLEV_MAX_R

RNG_SEED = 1234


def kval(k: Kernel, u: np.ndarray, v: np.ndarray) -> float:
    """K(u, v) for two points, read off the 1x1 block of ``pairwise``."""
    return k.pairwise(u[None], v[None])[0, 0]


def sample_kernels() -> list[Kernel]:
    return [
        Kernel("gaussian", sigma=0.5, dim=1),
        Kernel("gaussian", sigma=1.0, dim=2),
        Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1),
        Kernel("inverse_multiquadric", sigma=2.0, beta=1.5, dim=3),
        Kernel("sobolev", r=1.0, dim=1),
        Kernel("sobolev", r=2.0, dim=1),
        Kernel("sobolev", r=1.25, dim=1),
    ]


def test_gaussian_eval_frozen():
    k = Kernel("gaussian", sigma=1.0, dim=1)
    # e^{-1/2}
    assert kval(k, np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.6065306597126334, rel=1e-14
    )
    k5 = Kernel("gaussian", sigma=0.5, dim=1)
    # e^{-2}
    assert kval(k5, np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.1353352832366127, rel=1e-14
    )
    assert kval(k, np.array([0.3]), np.array([0.3])) == 1.0


def test_multiquadric_eval_frozen():
    k = Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1)
    assert kval(k, np.array([0.0]), np.array([1.0])) == pytest.approx(0.5, rel=1e-15)
    k2 = Kernel("inverse_multiquadric", sigma=2.0, beta=1.5, dim=1)
    # (4 + 1)^{-1.5}
    assert kval(k2, np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.08944271909999159, rel=1e-14
    )


def test_sobolev_closed_forms_frozen():
    k1 = Kernel("sobolev", r=1.0, dim=1)
    assert kval(k1, np.array([0.5]), np.array([0.5])) == pytest.approx(math.pi, rel=1e-14)
    # pi e^{-2 pi}
    assert kval(k1, np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.005866744366933474, rel=1e-13
    )
    k2 = Kernel("sobolev", r=2.0, dim=1)
    assert kval(k2, np.array([0.0]), np.array([0.0])) == pytest.approx(
        math.pi / 2, rel=1e-14
    )
    # (pi/2)(1 + 2 pi) e^{-2 pi}
    assert kval(k2, np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.02136429318711424, rel=1e-13
    )


def test_sobolev_generic_r_matches_bessel():
    # Matern closed form (2 pi^r / Gamma(r)) x^{r-1/2} K_{r-1/2}(2 pi x), in
    # scipy's gamma and this expression's own order of operations
    r = 1.7
    k = Kernel("sobolev", r=r, dim=1)
    for x in (0.05, 0.1, 0.3, 0.55, 0.9):
        oracle = (
            (2.0 * math.pi**r / special.gamma(r))
            * x ** (r - 0.5)
            * special.kv(r - 0.5, 2.0 * math.pi * x)
        )
        got = kval(k, np.array([0.0]), np.array([x]))
        assert got == pytest.approx(float(oracle), abs=1e-8)
    zero = math.sqrt(math.pi) * special.gamma(r - 0.5) / special.gamma(r)
    assert kval(k, np.array([0.0]), np.array([0.0])) == pytest.approx(zero, rel=1e-12)


def _matern_50_digits(r: float, xs: np.ndarray) -> list:
    """The sobolev profile by mpmath's besselk at 50 digits, with its limit at x = 0."""
    ctx = mpmath.MPContext()
    ctx.dps = 50
    r = ctx.mpf(r)
    nu, scale = r - 0.5, 2 * ctx.pi**r / ctx.gamma(r)
    zero = ctx.sqrt(ctx.pi) * ctx.gamma(nu) / ctx.gamma(r)
    return [scale * x**nu * ctx.besselk(nu, 2 * ctx.pi * x) if x else zero for x in map(ctx.mpf, xs)]


@pytest.mark.parametrize("r", [0.6, 1.25, 1.75, 2.75, 3.3, 10.2, 20.2, SOBOLEV_MAX_R])
def test_sobolev_profile_matches_50_digit_besselk(r):
    # the spline these orders used read 0.00689 for 0.40188 at r = 20.2, x = 1e-3;
    # at 0 and where K_nu overflows the profile takes its value at 0
    xs = np.concatenate([[0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1e-3], np.arange(1, 1001) / 1000])
    got = Kernel("sobolev", r=r, dim=1).pairwise(np.zeros((1, 1)), xs[:, None])[0]
    for x, value, want in zip(xs, got, _matern_50_digits(r, xs)):
        assert abs(value - want) <= 1e-13 * want, (x, value)


def test_sobolev_generic_r_frozen_spot():
    k = Kernel("sobolev", r=1.7, dim=1)
    assert kval(k, np.array([0.0]), np.array([0.3])) == pytest.approx(
        0.6500317763430706, abs=1e-8
    )


def test_eval_translation_invariance():
    rng = np.random.default_rng(RNG_SEED)
    for k in sample_kernels():
        for _ in range(20):
            u = rng.uniform(0, 1, k.dim)
            v = rng.uniform(0, 1, k.dim)
            shift = rng.uniform(-0.2, 0.2, k.dim)
            a = kval(k, u, v)
            b = kval(k, u + shift, v + shift)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_pairwise_symmetry_bit_exact():
    rng = np.random.default_rng(RNG_SEED + 1)
    for k in sample_kernels():
        X = rng.uniform(0, 1, (17, k.dim))
        G = k.pairwise(X, X)
        assert np.array_equal(G, G.T)
        assert np.all(np.diag(G) == k.diagonal())


def test_pairwise_matches_eval():
    # one pair's 1x1 block is its entry of the full matrix, and swapping the
    # arrays transposes the matrix, both bit for bit
    rng = np.random.default_rng(RNG_SEED + 2)
    for k in sample_kernels():
        X = rng.uniform(0, 1, (5, k.dim))
        Y = rng.uniform(0, 1, (7, k.dim))
        G = k.pairwise(X, Y)
        assert np.array_equal(G, k.pairwise(Y, X).T)
        for i in range(5):
            for j in range(7):
                assert G[i, j] == kval(k, X[i], Y[j])


def _textbook_pairwise(k: Kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The kernel matrix by the plain formula: the full difference tensor
    reduced with ``sum(axis=-1)``, then the profile out of place."""
    diff = X[:, None, :] - Y[None, :, :]
    s2 = (diff * diff).sum(axis=-1)
    if k.family == "gaussian":
        return np.exp(-s2 / (2.0 * k.sigma**2))
    if k.family == "inverse_multiquadric":
        return (k.sigma**2 + s2) ** (-k.beta)
    x = np.sqrt(s2)
    if k.r == 1:
        return math.pi * np.exp(-2.0 * math.pi * x)
    if k.r == 2:
        return (math.pi / 2.0) * (1.0 + 2.0 * math.pi * x) * np.exp(-2.0 * math.pi * x)
    # the Matern form, and its value at 0 where kv(nu, 0) = inf meets 0^nu
    with np.errstate(invalid="ignore"):
        value = special.kv(k.r - 0.5, 2.0 * math.pi * x) * x ** (k.r - 0.5)
    value = value * (2.0 * math.pi**k.r / math.gamma(k.r))
    zero = math.sqrt(math.pi) * math.gamma(k.r - 0.5) / math.gamma(k.r)
    return np.where(np.isfinite(value), value, zero)


_BYTE_PIN_KERNELS = [
    *(Kernel("gaussian", sigma=s, dim=d) for s in (0.25, 1.0, 500.0) for d in (1, 2, 3, 7, 8)),
    *(
        Kernel("inverse_multiquadric", sigma=s, beta=b, dim=d)
        for s, b in ((0.5, 0.5), (1.0, 1.0), (1.0, 1.5), (2.0, 2.0))
        for d in (1, 2, 3, 7, 8)
    ),
    Kernel("sobolev", r=1.0, dim=1),
    Kernel("sobolev", r=2.0, dim=1),
    Kernel("sobolev", r=1.25, dim=1),
]


@pytest.mark.parametrize("block", [None, 100], ids=["one-block", "100-entry-blocks"])
@pytest.mark.parametrize("k", _BYTE_PIN_KERNELS, ids=repr)
def test_pairwise_bytes_equal_the_textbook_formula(k, block, monkeypatch):
    # the coordinate-at-a-time sum must be numpy's sum(axis=-1) bit for bit on
    # both sides of the dim 8 switch, also when rows go in several blocks
    if block is not None:
        monkeypatch.setattr(rfl.kernels, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(RNG_SEED + 5)
    coincident = rng.uniform(0, 1, (6, k.dim))[[0, 1, 1, 2, 0, 3, 4, 4, 5]]
    shapes = [
        (rng.uniform(0, 1, (1, k.dim)), rng.uniform(0, 1, (1, k.dim))),
        (rng.uniform(0, 1, (2048, k.dim)), rng.uniform(0, 1, (10, k.dim))),
        (rng.uniform(0, 1, (9, k.dim)), rng.uniform(0, 1, (2048, k.dim))),
        (coincident, coincident),
        (np.empty((0, k.dim)), rng.uniform(0, 1, (5, k.dim))),
    ]
    for X, Y in shapes:
        got = k.pairwise(X, Y)
        want = _textbook_pairwise(k, X, Y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_positive_semidefinite_witness():
    rng = np.random.default_rng(RNG_SEED + 3)
    for k in sample_kernels():
        for _ in range(10):
            n = int(rng.integers(2, 13))
            X = rng.uniform(0, 1, (n, k.dim))
            G = k.pairwise(X, X)
            lam = np.linalg.eigvalsh(G).min()
            assert lam >= -1e-10 * np.trace(G)


def test_kernel_validation():
    with pytest.raises(ArgumentError):
        Kernel("triangle", dim=1)
    with pytest.raises(ArgumentError):
        Kernel("gaussian", sigma=0.0, dim=1)
    with pytest.raises(ArgumentError):
        Kernel("gaussian", sigma=1.0, dim=0)
    with pytest.raises(ArgumentError):
        Kernel("inverse_multiquadric", sigma=1.0, beta=-1.0, dim=1)
    # smoothness must exceed half the dimension
    with pytest.raises(ArgumentError):
        Kernel("sobolev", r=0.5, dim=1)
    # r - d/2 must not be a nonnegative integer
    with pytest.raises(ArgumentError):
        Kernel("sobolev", r=1.5, dim=1)
    with pytest.raises(ArgumentError):
        Kernel("sobolev", r=2.5, dim=1)
    assert Kernel("sobolev", r=2.0, dim=1).r == 2.0
    # r = 200 crashed in math.gamma; orders past the cap lose digits
    assert Kernel("sobolev", r=SOBOLEV_MAX_R, dim=1).r == SOBOLEV_MAX_R
    for r in (math.nextafter(SOBOLEV_MAX_R, math.inf), 200.0):
        with pytest.raises(ArgumentError, match="exceeds"):
            Kernel("sobolev", r=r, dim=1)


@pytest.mark.parametrize(
    "family, field, value",
    [
        ("gaussian", "sigma", math.inf),
        ("inverse_multiquadric", "beta", math.inf),
        ("sobolev", "r", math.nan),
        ("sobolev", "r", math.inf),
    ],
)
def test_kernel_rejects_non_finite_parameters(family, field, value):
    # sigma=inf made the gaussian constant; r=nan or inf crashed inside scipy
    with pytest.raises(ArgumentError, match=field):
        Kernel(family, dim=1, **{field: value})


def test_sobolev_eval_needs_dim_one():
    k = Kernel("sobolev", r=2.2, dim=2)
    with pytest.raises(UnsupportedConfigurationError):
        k.pairwise(np.zeros((1, 2)), np.ones((1, 2)))


def test_fourier_transform_frozen():
    # the spectral density read through gamma_m, at the origin (m=0) or at
    # the corner xi = (m/2, ..., m/2)
    k = Kernel("gaussian", sigma=1.0, dim=1)
    # sqrt(2 pi) at the origin
    assert k.gamma_m(0) == pytest.approx(2.5066282746310002, rel=1e-14)
    # sqrt(2 pi) e^{-2 pi^2} at xi = 1
    assert k.gamma_m(2) == pytest.approx(6.7059525212074645e-09, rel=1e-12)
    k5 = Kernel("gaussian", sigma=0.5, dim=2)
    # (2 sigma^2 pi)^{d/2} = pi/2
    assert k5.gamma_m(0) == pytest.approx(math.pi / 2, rel=1e-14)
    ks = Kernel("sobolev", r=2.0, dim=3)
    # (1 + 3)^{-2}; m=2 puts the d=3 corner at |xi|^2 = 3
    assert ks.gamma_m(2) == pytest.approx(0.0625, rel=1e-12)


def _cos_transform(profile, xi: float) -> float:
    """Fourier transform at xi of an even profile on the line, by quadrature."""
    val, _ = integrate.quad(profile, 0, np.inf, weight="cos", wvar=2.0 * math.pi * xi)
    return 2.0 * val


def test_fourier_transform_matches_quadrature():
    # dual route: gamma_m is the spectral density at the corner xi = (m/2, ..., m/2),
    # which must equal the Fourier integral of the profile there.  The gaussian
    # profile is a product over coordinates, so in d=2 its transform is the
    # square of the line's; the d=2 sobolev r=3/2 profile is 2 pi e^{-2 pi rho}
    # (the Matern form with K_{1/2}), transformed by a Hankel integral.
    for m in (1, 2, 3):
        line = _cos_transform(lambda x: math.exp(-2.0 * x * x), m / 2.0)
        for d in (1, 2):
            got = Kernel("gaussian", sigma=0.5, dim=d).gamma_m(m)
            assert got == pytest.approx(line**d, rel=1e-9)
        s1 = _cos_transform(lambda x: math.pi * math.exp(-2.0 * math.pi * x), m / 2.0)
        assert Kernel("sobolev", r=1.0, dim=1).gamma_m(m) == pytest.approx(s1, rel=1e-9)
        q = math.sqrt(2.0) * m / 2.0
        s2, _ = integrate.quad(
            lambda rho: 4.0 * math.pi**2 * math.exp(-2.0 * math.pi * rho)
            * special.j0(2.0 * math.pi * q * rho) * rho,
            0,
            np.inf,
            limit=200,
        )
        assert Kernel("sobolev", r=1.5, dim=2).gamma_m(m) == pytest.approx(s2, rel=1e-9)
    ks = Kernel("sobolev", r=1.0, dim=1)
    # reverse direction: integrating the density against cos recovers phi
    for x in (0.3, 0.7):
        val = _cos_transform(lambda t: 1.0 / (1.0 + t * t), x)
        assert kval(ks, np.array([0.0]), np.array([x])) == pytest.approx(val, abs=1e-6)


def test_gamma_m_frozen():
    g = Kernel("gaussian", sigma=1.0, dim=1)
    # sqrt(2 pi) e^{-2 pi^2 (m^2/4)} at m=2
    assert g.gamma_m(2) == pytest.approx(6.7059525212074645e-09, rel=1e-12)
    g2 = Kernel("gaussian", sigma=1.0, dim=2)
    assert g2.gamma_m(2) == pytest.approx(4.4969799216688755e-17, rel=1e-12)
    s1 = Kernel("sobolev", r=1.0, dim=1)
    # (1 + d m^2/4)^{-r} = 0.5 at m=2
    assert s1.gamma_m(2) == pytest.approx(0.5, rel=1e-15)
    s2 = Kernel("sobolev", r=2.0, dim=1)
    assert s2.gamma_m(4) == pytest.approx(0.04, rel=1e-14)


def test_gamma_m_monotone_and_errors():
    for k in (Kernel("gaussian", sigma=0.7, dim=2), Kernel("sobolev", r=2.0, dim=1)):
        vals = [k.gamma_m(m) for m in range(1, 10)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
    mq = Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1)
    with pytest.raises(UnsupportedConfigurationError):
        mq.gamma_m(2)
    g = Kernel("gaussian", sigma=1.0, dim=1)
    # m = 0 degenerates to the density at the origin
    assert g.gamma_m(0) == pytest.approx(2.5066282746310002, rel=1e-14)
    with pytest.raises(ArgumentError):
        g.gamma_m(-1)
    with pytest.raises(ArgumentError):
        g.gamma_m(2.5)
    # True returned the m = 1 value and False the m = 0 one
    for m in (True, False):
        with pytest.raises(ArgumentError, match="non-negative integer"):
            g.gamma_m(m)


def test_holder_data_frozen():
    alpha, c = Kernel("gaussian", sigma=1.0, dim=1).holder_data()
    assert alpha == 1.0
    assert c == pytest.approx(1.0, rel=1e-14)
    alpha, c = Kernel("gaussian", sigma=0.5, dim=2).holder_data()
    assert alpha == 1.0
    # sqrt(2) / 0.25
    assert c == pytest.approx(5.656854249492381, rel=1e-13)
    alpha, c = Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1).holder_data()
    assert alpha == 1.0
    assert c == pytest.approx(2.0, rel=1e-13)
    alpha, c = Kernel("inverse_multiquadric", sigma=2.0, beta=1.5, dim=3).holder_data()
    assert c == pytest.approx(0.16237976320958225, rel=1e-12)


def test_holder_data_sobolev_estimate():
    k = Kernel("sobolev", r=2.0, dim=1)
    alpha, c = k.holder_data()
    assert alpha == 1.0
    assert c > 0.0
    # deterministic: repeated calls agree exactly
    assert k.holder_data() == (alpha, c)
    k1 = Kernel("sobolev", r=1.0, dim=1)
    a1, _ = k1.holder_data()
    # exponent min(1, r - d/2) = 1/2 for r=1, d=1
    assert a1 == 0.5


def test_holder_inequality_witness():
    rng = np.random.default_rng(RNG_SEED + 4)
    for k in sample_kernels():
        alpha, c = k.holder_data()
        slack = 1.05 if k.family == "sobolev" else 1.0 + 1e-12
        for _ in range(2000):
            u = rng.uniform(0, 1, k.dim)
            v = rng.uniform(0, 1, k.dim)
            w = rng.uniform(0, 1, k.dim)
            dvw = float(np.linalg.norm(v - w))
            if dvw <= 1e-14:
                continue
            lhs = abs(kval(k, u, v) - kval(k, u, w))
            assert lhs <= c * dvw**alpha * slack


def test_kappa_and_diagonal():
    assert Kernel("gaussian", sigma=1.0, dim=1).kappa() == 1.0
    assert Kernel("sobolev", r=1.0, dim=1).kappa() == pytest.approx(
        math.sqrt(math.pi), rel=1e-14
    )
    mq = Kernel("inverse_multiquadric", sigma=2.0, beta=1.0, dim=1)
    assert mq.diagonal() == pytest.approx(0.25, rel=1e-15)


def _sobolev_density_integral(r: float, dim: int) -> float:
    """Integral of (1 + |xi|^2)^(-r) over R^dim by 30-digit radial quadrature."""
    with mpmath.workdps(30):
        half = mpmath.mpf(dim) / 2
        sphere = 2 * mpmath.pi**half / mpmath.gamma(half)
        radial = mpmath.quad(lambda p: p ** (dim - 1) * (1 + p * p) ** (-r), [0, 1, mpmath.inf])
        return float(sphere * radial)


@pytest.mark.parametrize(
    "r, dim", [(1.0, 1), (2.0, 1), (1.25, 1), (2.2, 2), (3.3, 2), (2.0, 3), (1.75, 3)]
)
def test_sobolev_diagonal_is_the_density_integral_in_every_dimension(r, dim):
    # d >= 2 returned the 1-D value: 1.4617 for r = 2.2, d = 2 (true 2.618) and
    # pi / 2 for r = 2, d = 3 (true pi^2)
    k = Kernel("sobolev", r=r, dim=dim)
    assert k.diagonal() == pytest.approx(_sobolev_density_integral(r, dim), rel=1e-14)
    assert k.kappa() == math.sqrt(k.diagonal())


@pytest.mark.parametrize("r", [1.0, 2.0, 1.25, 2.75, 20.2])
def test_sobolev_diagonal_on_the_line_keeps_its_bits(r):
    shortcut = {1.0: math.pi, 2.0: math.pi / 2.0}
    want = shortcut.get(r, math.sqrt(math.pi) * math.gamma(r - 0.5) / math.gamma(r))
    assert Kernel("sobolev", r=r, dim=1).diagonal() == want


def test_sobolev_holder_data_refuses_dim_2():
    # it sampled the 1-D profile and returned that constant
    with pytest.raises(UnsupportedConfigurationError, match="dim=1"):
        Kernel("sobolev", r=2.2, dim=2).holder_data()


def test_m_d_constant_frozen():
    # 12 pi Gamma((d+2)/2)^2 / 9
    assert m_d_constant(1) == pytest.approx(math.pi**2 / 3.0, rel=1e-14)
    assert m_d_constant(2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert m_d_constant(4) == pytest.approx(16.755160819145562, rel=1e-13)
    # envelope 6.38 d holds on the supported range
    for d in range(1, 5):
        assert m_d_constant(d) <= 6.38 * d


def test_m_d_constant_errors():
    with pytest.raises(ArgumentError):
        m_d_constant(0)
    with pytest.raises(ArgumentError):
        m_d_constant(-2)
    # True was read as d = 1
    with pytest.raises(ArgumentError, match="positive integer"):
        m_d_constant(True)
    # the formula outgrows its own envelope from d=5 on
    with pytest.raises(UnsupportedConfigurationError):
        m_d_constant(5)


@pytest.mark.parametrize("dim", [1.5, True, False, "2", None, math.inf])
def test_from_json_rejects_a_dim_that_is_not_integral(dim):
    # a truncating cast used to load 1.5 and True as dim 1
    with pytest.raises(ArgumentError):
        Kernel.from_json({"family": "gaussian", "dim": dim})
    with pytest.raises(ArgumentError):
        Kernel("gaussian", dim=dim)


def test_from_json_accepts_an_integral_float_dim():
    k = Kernel.from_json({"family": "gaussian", "dim": 2.0})
    assert k.dim == 2 and type(k.dim) is int
    assert Kernel.from_json({"family": "gaussian", "dim": np.int64(3)}).dim == 3


def test_json_roundtrip():
    for k in sample_kernels():
        back = Kernel.from_json(k.to_json())
        assert back == k
    with pytest.raises(ArgumentError):
        Kernel.from_json({"family": "gaussian", "sigma": 1.0, "dim": 1, "extra": 3})
    assert set(FAMILIES) == {"gaussian", "inverse_multiquadric", "sobolev"}
