"""Quadrature, the functional kinds, the ODE endpoint map, and Hölder constants.

Every value goes through :class:`TargetFunctional`.  Frozen integral values
come from scipy.integrate.quad run separately, for example
quad(exp(-(t-1/2)^2/2), 0, 1) = 0.9598504379197684; ODE references use
either closed forms or scipy's solve_ivp as a second route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import rfl.rkhs
from rfl import (
    BETAS,
    LINKS,
    ODE_RHS,
    ArgumentError,
    DivergenceError,
    FUNCTIONAL_KINDS,
    Kernel,
    RkhsFunction,
    TargetFunctional,
    UnsupportedConfigurationError,
    build_gram,
    project,
    sample_unit_ball,
    uniform_grid,
)
from rfl.functionals import _simpson_weights

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)


def bump(center: float) -> RkhsFunction:
    """Single kernel translate t -> exp(-(t - center)^2 / 2)."""
    return RkhsFunction(GAUSS, np.array([[center]]), np.array([1.0]))


def integral(beta, f, **kw) -> float:
    return TargetFunctional(kind="linear_integral", beta=beta, **kw).value(f)


def energy(f, **kw) -> float:
    return TargetFunctional(kind="l2_energy", **kw).value(f)


def ode_map(rhs, a, b, h0, steps) -> TargetFunctional:
    return TargetFunctional(
        kind="ode_map", ode={"rhs": rhs, "a": a, "b": b, "h0": h0, "steps": steps}
    )


def test_simpson_weights_basic():
    w = _simpson_weights(33)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    t = np.linspace(0.0, 1.0, 33)
    # Simpson is exact on cubics up to round-off
    assert w @ t**3 == pytest.approx(0.25, rel=1e-13)
    assert w @ t**2 == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_quadrature_points_validation():
    for n in (32, 31, 33.0, 10, True):
        with pytest.raises(ArgumentError):
            TargetFunctional(kind="l2_energy", quadrature_points=n)


def test_weight_l2_norm():
    # linear_integral's constant is |beta|_L2 * kappa, and kappa = 1 here
    def norm(beta, **kw):
        return TargetFunctional(kind="linear_integral", beta=beta, **kw).holder_constant(GAUSS)

    assert norm("one") == 1.0
    assert norm("sin2pi") == pytest.approx(0.7071067811865476, rel=1e-14)
    # numeric route for function weights: || exp(-(t-1/2)^2/2) ||_{L2}
    assert norm(bump(0.5)) == pytest.approx(math.sqrt(0.9225620128255848), rel=1e-9)
    # always the default 257-point rule, whatever quadrature_points is
    assert norm(bump(0.5), quadrature_points=33) == norm(bump(0.5))


def test_linear_integral_frozen():
    assert integral("one", bump(0.5)) == pytest.approx(0.9598504379197684, abs=1e-11)
    # composite Simpson at 257 points truncates near 7e-11 here
    assert integral("sin2pi", bump(0.3)) == pytest.approx(0.029739523361115367, abs=5e-10)


def test_linear_integral_linearity():
    f = bump(0.2)
    g = bump(0.7)
    h = RkhsFunction(GAUSS, np.vstack([f.centers, g.centers]), np.array([2.0, -3.0]))
    assert integral("one", h) == pytest.approx(
        2.0 * integral("one", f) - 3.0 * integral("one", g), rel=1e-12
    )


def test_linear_integral_validation():
    f2 = RkhsFunction(
        Kernel("gaussian", sigma=1.0, dim=2), np.array([[0.5, 0.5]]), np.array([1.0])
    )
    with pytest.raises(UnsupportedConfigurationError):
        integral("one", f2)
    with pytest.raises(ArgumentError):
        integral("one", bump(0.5), quadrature_points=10)
    with pytest.raises(ArgumentError):
        integral("cos", bump(0.5))


def test_gflm_map_frozen():
    gf = TargetFunctional(kind="gflm", beta="sin2pi", link="tanh")
    assert gf.value(bump(0.3)) == pytest.approx(0.029730758861192964, abs=5e-10)
    # identity link reduces to the linear integral
    ident = TargetFunctional(kind="gflm", beta="sin2pi", link="identity")
    assert ident.value(bump(0.3)) == integral("sin2pi", bump(0.3))
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="gflm", beta="sin2pi", link="relu")


def test_gflm_holder_constant():
    # Lip(link) * ||beta||_L2 * kappa
    def c_f(kernel, beta, link):
        return TargetFunctional(kind="gflm", beta=beta, link=link).holder_constant(kernel)

    assert c_f(GAUSS, "sin2pi", "tanh") == pytest.approx(math.sqrt(0.5), rel=1e-13)
    assert c_f(GAUSS, "sin2pi", "logistic") == pytest.approx(0.25 * math.sqrt(0.5), rel=1e-13)
    sob = Kernel("sobolev", r=1.0, dim=1)
    assert c_f(sob, "one", "identity") == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_l2_energy_frozen():
    # || exp(-(t-1/2)^2/2) ||_{L2}^2 = int_0^1 exp(-(t-1/2)^2) dt
    assert energy(bump(0.5)) == pytest.approx(0.9225620128255848, abs=1e-10)
    doubled = RkhsFunction(GAUSS, np.array([[0.5]]), np.array([2.0]))
    assert energy(doubled) == pytest.approx(4.0 * energy(bump(0.5)), rel=1e-12)


def test_ode_solution_map_pure_integral():
    # rhs "u": h(b) = h0 + int_0^1 f, with the frozen quad value
    got = ode_map("u", 0.0, 1.0, 2.0, 64).value(bump(0.5))
    assert got == pytest.approx(2.9598504379197683, abs=1e-9)


def test_ode_solution_map_exponential():
    # rhs "h" ignores f: h(1) = e
    got = ode_map("h", 0.0, 1.0, 1.0, 64).value(bump(0.5))
    assert got == pytest.approx(2.718281828459045, abs=1e-7)
    finer = ode_map("h", 0.0, 1.0, 1.0, 256).value(bump(0.5))
    assert abs(finer - math.e) < abs(got - math.e)


@pytest.mark.parametrize("rhs", ["u_minus_h", "sin_u_times_h"])
def test_ode_solution_map_matches_scipy(rhs):
    f = bump(0.3)

    def field(t, y):
        u = f.eval_at(np.array([t]))[0]
        return (u - y[0]) if rhs == "u_minus_h" else (math.sin(u) * y[0])

    ref = solve_ivp(
        field, (0.0, 1.0), [1.5], rtol=1e-10, atol=1e-12, dense_output=False
    ).y[0, -1]
    got = ode_map(rhs, 0.0, 1.0, 1.5, 128).value(f)
    assert got == pytest.approx(float(ref), abs=1e-6)


def test_ode_solution_map_validation():
    with pytest.raises(ArgumentError):
        ode_map("u", 0.0, 1.0, 1.0, 8)
    with pytest.raises(ArgumentError):
        ode_map("u", 1.0, 0.0, 1.0, 64)
    with pytest.raises(ArgumentError):
        ode_map("cube", 0.0, 1.0, 1.0, 64)
    f2 = RkhsFunction(
        Kernel("gaussian", sigma=1.0, dim=2), np.array([[0.5, 0.5]]), np.array([1.0])
    )
    with pytest.raises(UnsupportedConfigurationError):
        ode_map("u", 0.0, 1.0, 1.0, 64).value(f2)


def test_ode_solution_map_divergence():
    with pytest.raises(DivergenceError):
        ode_map("h", 0.0, 1.0, 1e308, 64).value(bump(0.5))


def test_ode_holder_constant_frozen():
    assert ode_map("u", 0.0, 1.0, 2.0, 64).holder_constant(GAUSS) == 1.0
    assert ode_map("h", 0.0, 1.0, 2.0, 64).holder_constant(GAUSS) == 0.0
    assert ode_map("u_minus_h", 0.0, 1.0, 2.0, 64).holder_constant(GAUSS) == 1.0
    assert ode_map("sin_u_times_h", 0.0, 1.0, 2.0, 64).holder_constant(GAUSS) == pytest.approx(
        2.0 * math.e, rel=1e-14
    )


# The arithmetic of the free functions that TargetFunctional used to dispatch
# to, kept verbatim as an oracle for the bit-identity test below.
def _old_simpson_weights(n):
    h = 1.0 / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _old_beta_values(beta, t):
    return BETAS[beta][0](t) if isinstance(beta, str) else beta.eval_at(t[:, None])


def _old_linear_integral(f, beta, n):
    t = np.linspace(0.0, 1.0, n)
    integrand = f.eval_at(t[:, None]) * _old_beta_values(beta, t)
    return float(_old_simpson_weights(n) @ integrand)


def _old_l2_energy(f, n):
    t = np.linspace(0.0, 1.0, n)
    vals = f.eval_at(t[:, None])
    return float(_old_simpson_weights(n) @ (vals * vals))


def _old_rk4(f, rhs_name, a, b, h0, steps):
    rhs = ODE_RHS[rhs_name]
    dx = (b - a) / steps
    xs = a + np.arange(2 * steps + 1) * (dx / 2.0)
    us = f.eval_at(xs[:, None])
    h = float(h0)
    for i in range(steps):
        x = xs[2 * i]
        u0, um, u1 = us[2 * i], us[2 * i + 1], us[2 * i + 2]
        k1 = rhs(x, u0, h)
        k2 = rhs(x + dx / 2.0, um, h + dx * k1 / 2.0)
        k3 = rhs(x + dx / 2.0, um, h + dx * k2 / 2.0)
        k4 = rhs(x + dx, u1, h + dx * k3)
        h = h + (dx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return h


def _old_beta_l2_norm(beta):
    if isinstance(beta, str):
        return BETAS[beta][1]
    t = np.linspace(0.0, 1.0, 257)
    vals = _old_beta_values(beta, t)
    return float(math.sqrt(max(_old_simpson_weights(257) @ (vals * vals), 0.0)))


def _old_value(tf, f):
    n = tf.quadrature_points
    if tf.kind == "linear_integral":
        return _old_linear_integral(f, tf.beta, n)
    if tf.kind == "gflm":
        return float(LINKS[tf.link][0](_old_linear_integral(f, tf.beta, n)))
    if tf.kind == "l2_energy":
        return _old_l2_energy(f, n)
    o = tf.ode
    return _old_rk4(f, o["rhs"], float(o["a"]), float(o["b"]), float(o["h0"]), int(o["steps"]))


def _old_holder_constant(tf, kernel):
    if tf.kind == "linear_integral":
        return _old_beta_l2_norm(tf.beta) * kernel.kappa()
    if tf.kind == "gflm":
        return LINKS[tf.link][1] * _old_beta_l2_norm(tf.beta) * kernel.kappa()
    if tf.kind == "l2_energy":
        return 2.0 * kernel.kappa()
    o = tf.ode
    span = float(o["b"]) - float(o["a"])
    if o["rhs"] in ("u", "u_minus_h"):
        return span
    if o["rhs"] == "h":
        return 0.0
    return abs(float(o["h0"])) * math.exp(span) * span


def _bit_identity_cases():
    weight = RkhsFunction(GAUSS, np.array([[0.2], [0.7]]), np.array([1.0, -0.5]))
    cases = [TargetFunctional(kind="gflm", beta="sin2pi", link=link) for link in sorted(LINKS)]
    for beta in ("one", "sin2pi", weight):
        for n in (257, 129, 33):
            cases.append(TargetFunctional(kind="linear_integral", beta=beta, quadrature_points=n))
    cases.append(TargetFunctional(kind="gflm", beta=weight, link="logistic", quadrature_points=65))
    cases += [TargetFunctional(kind="l2_energy", quadrature_points=n) for n in (257, 33)]
    for rhs in sorted(ODE_RHS):
        cases.append(ode_map(rhs, -0.25, 1.0, 1.5, 48))
    assert {tf.kind for tf in cases} == set(FUNCTIONAL_KINDS)
    return cases


@pytest.mark.parametrize(
    "kernel",
    [GAUSS, Kernel("sobolev", r=1.25, dim=1), Kernel("inverse_multiquadric", sigma=1.0, dim=1)],
    ids=["gaussian", "sobolev", "imq"],
)
def test_target_functional_bit_identical_to_free_function_arithmetic(kernel):
    fs = [sample_unit_ball(kernel, 10, 0.8, seed) for seed in range(5)]
    for tf in _bit_identity_cases():
        for f in fs:
            assert tf.value(f).hex() == _old_value(tf, f).hex(), tf
        assert tf.holder_constant(kernel).hex() == _old_holder_constant(tf, kernel).hex(), tf


def test_target_functional_holder_data():
    gf = TargetFunctional(kind="gflm", beta="sin2pi", link="tanh")
    assert gf.holder_exponent() == 1.0
    assert gf.holder_constant(GAUSS) == pytest.approx(math.sqrt(0.5), rel=1e-13)
    en = TargetFunctional(kind="l2_energy")
    assert en.holder_constant(GAUSS) == pytest.approx(2.0, rel=1e-14)
    lin = TargetFunctional(kind="linear_integral", beta="one")
    assert lin.holder_constant(GAUSS) == pytest.approx(1.0, rel=1e-14)
    assert ode_map("u", 0.0, 1.0, 2.0, 64).holder_constant(GAUSS) == 1.0


def test_energy_holder_constant_of_a_sobolev_kernel_in_dim_2():
    # kappa^2 = pi Gamma(1.2) / Gamma(2.2), the density's integral over R^2;
    # the 1-D value 1.4617 stood in for it
    kernel = Kernel("sobolev", r=2.2, dim=2)
    kappa = math.sqrt(math.pi * math.gamma(1.2) / math.gamma(2.2))
    assert TargetFunctional(kind="l2_energy").holder_constant(kernel) == pytest.approx(
        2.0 * kappa, rel=1e-14
    )


def test_target_functional_validation():
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="cubic")
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="linear_integral")
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="gflm", beta="sin2pi", link="relu")
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="ode_map")
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="ode_map", ode={"rhs": "u", "a": 0.0, "b": 1.0})
    with pytest.raises(ArgumentError):
        TargetFunctional(kind="l2_energy", quadrature_points=12)
    # every setting is checked at construction, before any value() call
    weight2 = RkhsFunction(
        Kernel("gaussian", sigma=1.0, dim=2), np.array([[0.5, 0.5]]), np.array([1.0])
    )
    for kind in ("linear_integral", "gflm"):
        for beta in ("cos", 1.0, np.ones(3), weight2):
            with pytest.raises(ArgumentError):
                TargetFunctional(kind=kind, beta=beta, link="tanh")
    good = {"rhs": "u", "a": 0.0, "b": 1.0, "h0": 1.0, "steps": 64}
    for key, bad in [
        ("rhs", "cube"),
        ("rhs", ["u"]),
        ("steps", 8),
        ("steps", 64.0),
        ("b", 0.0),
        ("b", -1.0),
        ("a", math.nan),
        ("b", math.inf),
        ("h0", math.nan),
        ("h0", -math.inf),
        ("a", "0"),
        ("h0", True),
        ("b", 10**400),
    ]:
        with pytest.raises(ArgumentError):
            TargetFunctional(kind="ode_map", ode={**good, key: bad})
    # accepted, and value() is finite, but e^(b-a) overflows the float range
    long_span = TargetFunctional(
        kind="ode_map", ode={"rhs": "sin_u_times_h", "a": 0, "b": 800, "h0": 1, "steps": 64}
    )
    with pytest.raises(ArgumentError, match="800"):
        long_span.holder_constant(GAUSS)
    assert set(FUNCTIONAL_KINDS) == {"linear_integral", "gflm", "ode_map", "l2_energy"}


def test_target_functional_json_roundtrip():
    cases = [
        TargetFunctional(kind="linear_integral", beta="one"),
        TargetFunctional(kind="gflm", beta="sin2pi", link="logistic"),
        TargetFunctional(kind="l2_energy", quadrature_points=129),
        ode_map("sin_u_times_h", 0.0, 1.0, 1.5, 64),
    ]
    for tf in cases:
        back = TargetFunctional.from_json(tf.to_json())
        assert back == tf


def empirical_holder(functional: TargetFunctional, kernel: Kernel, n_pairs: int, seed: int):
    """Largest ratio |F(f) - F(g)| / |f - g|_sup over ``n_pairs`` sampled pairs.

    Each pair takes two child seeds, then two norm targets on [0.2, 1], from
    one master generator; f and g combine 10 centers each, and sup norms are
    taken on the uniform grid with m = 2048, so the ratio approaches the
    true constant from below.
    """
    rng = np.random.default_rng(seed)
    t = uniform_grid(2048, 1).points
    best = 0.0
    for _ in range(n_pairs):
        s1, s2 = rng.integers(0, 2**63 - 1, size=2)
        target1, target2 = rng.uniform(0.2, 1.0, size=2)
        f = sample_unit_ball(kernel, 10, float(target1), int(s1))
        g = sample_unit_ball(kernel, 10, float(target2), int(s2))
        dist = float(np.abs(f.eval_at(t) - g.eval_at(t)).max())
        if dist > 1e-12:
            best = max(best, abs(functional.value(f) - functional.value(g)) / dist)
    return best


def test_empirical_holder_below_constant():
    for tf in (
        TargetFunctional(kind="gflm", beta="sin2pi", link="tanh"),
        TargetFunctional(kind="l2_energy"),
    ):
        ratio = empirical_holder(tf, GAUSS, n_pairs=100, seed=0)
        assert 0.0 < ratio <= tf.holder_constant(GAUSS) * 1.001


@pytest.mark.parametrize(
    "kernel",
    [GAUSS, Kernel("sobolev", r=1.25, dim=1), Kernel("inverse_multiquadric", sigma=1.0, dim=1)],
    ids=["gaussian", "sobolev", "imq"],
)
@pytest.mark.parametrize("m", [2, 4, 8])
def test_projected_values_bit_identical_to_per_sample_projection(kernel, m):
    # error_decomposition's route: one solve per block of samples, one kernel
    # matrix per functional, against value(project(system, row)) per sample
    system = build_gram(kernel, uniform_grid(m, 1))
    rows = np.array(
        [sample_unit_ball(kernel, 10, 0.7, s).eval_at(system.points.points) for s in range(12)]
    )
    for tf in _bit_identity_cases():
        batched = tf._projected_values(system, rows)
        per_sample = [tf.value(project(system, row)) for row in rows]
        assert [float(v).hex() for v in batched] == [v.hex() for v in per_sample], tf


@pytest.mark.parametrize("m", [16, 32, 64, 200])
def test_projected_values_bit_identical_on_larger_grids(m, monkeypatch):
    # blocks of 7 rows leave a partial last block
    monkeypatch.setattr(rfl.rkhs, "_SOLVE_BLOCK", 7)
    system = build_gram(GAUSS, uniform_grid(m, 1))
    rows = np.array(
        [sample_unit_ball(GAUSS, 10, 0.9, s).eval_at(system.points.points) for s in range(40)]
    )
    for tf in (
        TargetFunctional(kind="gflm", beta="sin2pi", link="tanh"),
        ode_map("sin_u_times_h", 0.0, 1.0, 0.5, 16),
    ):
        batched = tf._projected_values(system, rows)
        per_sample = [tf.value(project(system, row)) for row in rows]
        assert [float(v).hex() for v in batched] == [v.hex() for v in per_sample], tf


def test_projected_values_need_dim_one():
    kernel = Kernel("gaussian", sigma=1.0, dim=2)
    system = build_gram(kernel, uniform_grid(2, 2))
    for tf in (TargetFunctional(kind="l2_energy"), ode_map("u", 0.0, 1.0, 0.0, 16)):
        with pytest.raises(UnsupportedConfigurationError, match="dim=1"):
            tf._projected_values(system, np.zeros((3, len(system))))
