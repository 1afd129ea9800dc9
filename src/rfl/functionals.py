"""Target functionals on the unit ball: integral maps, an ODE endpoint map,
a quadratic energy, and empirical Hölder-ratio estimation.

Each configured functional is 1-Hölder (Lipschitz) on the unit ball with a
computable constant C_F; the constant travels with the functional so rate
checks downstream can compare measured errors against C_F times a power of
the interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DivergenceError, UnsupportedConfigurationError
from .geometry import uniform_grid
from .kernels import Kernel
from .rkhs import DEFAULT_SAMPLE_CENTERS, _NORM_TARGET_RANGE, RkhsFunction, sample_unit_ball

DEFAULT_QUADRATURE_POINTS = 257
_MIN_QUADRATURE_POINTS = 33
_HOLDER_GRID_M = 2048

LINKS = {
    "identity": (lambda x: x, 1.0),
    "tanh": (math.tanh, 1.0),
    "logistic": (lambda x: 1.0 / (1.0 + math.exp(-x)), 0.25),
    "sin": (math.sin, 1.0),
}

# name -> (callable on t arrays, exact L2 norm on [0, 1])
BETAS = {
    "one": (lambda t: np.ones_like(t), 1.0),
    "sin2pi": (lambda t: np.sin(2.0 * math.pi * t), math.sqrt(0.5)),
}

ODE_RHS = {
    "u": lambda x, u, h: u,
    "h": lambda x, u, h: h,
    "u_minus_h": lambda x, u, h: u - h,
    "sin_u_times_h": lambda x, u, h: math.sin(u) * h,
}

FUNCTIONAL_KINDS = ("linear_integral", "gflm", "ode_map", "l2_energy")


def _check_quadrature_points(n: int) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= _MIN_QUADRATURE_POINTS and n % 2 == 1):
        raise ArgumentError(
            f"quadrature_points must be an odd integer >= {_MIN_QUADRATURE_POINTS}, got {n!r}"
        )
    return int(n)


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights for n equally spaced points on [0, 1]."""
    n = _check_quadrature_points(n)
    h = 1.0 / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _require_line(f: RkhsFunction, what: str):
    if f.kernel.dim != 1:
        raise UnsupportedConfigurationError(f"{what} is only defined for dim=1 inputs")


def _beta_values(beta, t: np.ndarray) -> np.ndarray:
    if isinstance(beta, str):
        if beta not in BETAS:
            raise ArgumentError(f"unknown weight name {beta!r}; choose from {sorted(BETAS)}")
        return BETAS[beta][0](t)
    if isinstance(beta, RkhsFunction):
        return beta.eval_at(t[:, None])
    raise ArgumentError("weight must be a registered name or an RkhsFunction")


def beta_l2_norm(beta, quadrature_points: int = DEFAULT_QUADRATURE_POINTS) -> float:
    """L2([0,1]) norm of a weight; closed form for registered names."""
    if isinstance(beta, str):
        if beta not in BETAS:
            raise ArgumentError(f"unknown weight name {beta!r}; choose from {sorted(BETAS)}")
        return BETAS[beta][1]
    n = _check_quadrature_points(quadrature_points)
    t = np.linspace(0.0, 1.0, n)
    vals = _beta_values(beta, t)
    return float(math.sqrt(max(simpson_weights(n) @ (vals * vals), 0.0)))


def linear_integral(
    f: RkhsFunction, beta, quadrature_points: int = DEFAULT_QUADRATURE_POINTS
) -> float:
    """Composite-Simpson value of the weighted integral of f over [0, 1]."""
    _require_line(f, "the integral functional")
    n = _check_quadrature_points(quadrature_points)
    t = np.linspace(0.0, 1.0, n)
    integrand = f.eval_at(t[:, None]) * _beta_values(beta, t)
    return float(simpson_weights(n) @ integrand)


def quadrature_error_estimate(
    f: RkhsFunction, beta, quadrature_points: int = DEFAULT_QUADRATURE_POINTS
) -> float:
    """Richardson step-halving estimate of the Simpson quadrature error."""
    n = _check_quadrature_points(quadrature_points)
    coarse = max(_MIN_QUADRATURE_POINTS, (n - 1) // 2 + 1)
    if coarse % 2 == 0:
        coarse += 1
    fine_val = linear_integral(f, beta, n)
    coarse_val = linear_integral(f, beta, coarse)
    return abs(fine_val - coarse_val) / 15.0


def gflm_map(
    f: RkhsFunction,
    beta,
    link: str,
    quadrature_points: int = DEFAULT_QUADRATURE_POINTS,
) -> float:
    """Scalar-on-function regression map: link applied to the weighted integral."""
    if link not in LINKS:
        raise ArgumentError(f"unknown link {link!r}; choose from {sorted(LINKS)}")
    g, _ = LINKS[link]
    return float(g(linear_integral(f, beta, quadrature_points)))


def gflm_holder_constant(kernel: Kernel, beta, link: str) -> float:
    """C_F = Lip(link) * |beta|_L2 * kappa for the regression map."""
    if link not in LINKS:
        raise ArgumentError(f"unknown link {link!r}; choose from {sorted(LINKS)}")
    return LINKS[link][1] * beta_l2_norm(beta) * kernel.kappa()


def l2_energy(f: RkhsFunction, quadrature_points: int = DEFAULT_QUADRATURE_POINTS) -> float:
    """Squared L2 norm of f over [0, 1] by composite Simpson."""
    _require_line(f, "the energy functional")
    n = _check_quadrature_points(quadrature_points)
    t = np.linspace(0.0, 1.0, n)
    vals = f.eval_at(t[:, None])
    return float(simpson_weights(n) @ (vals * vals))


def _rk4(f: RkhsFunction, rhs_name: str, a: float, b: float, h0: float, steps: int) -> float:
    """Classical fixed-step fourth-order Runge-Kutta for h' = rhs(x, f(x), h)."""
    rhs = ODE_RHS[rhs_name]
    dx = (b - a) / steps
    # f only ever gets evaluated on the half-step lattice, so batch it once
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
        if not math.isfinite(h):
            raise DivergenceError(
                f"ODE state became non-finite at step {i + 1} of {steps}"
            )
    return h


def ode_solution_map(
    f: RkhsFunction, rhs: str, a: float, b: float, h0: float, steps: int
) -> float:
    """Endpoint value h(b) of the initial value problem h' = rhs(x, f(x), h)."""
    if rhs not in ODE_RHS:
        raise ArgumentError(f"unknown rhs {rhs!r}; choose from {sorted(ODE_RHS)}")
    if not (isinstance(steps, (int, np.integer)) and steps >= 16):
        raise ArgumentError(f"steps must be an integer >= 16, got {steps!r}")
    if not (b > a):
        raise ArgumentError(f"need b > a, got [{a}, {b}]")
    _require_line(f, "the ODE solution map")
    return _rk4(f, rhs, float(a), float(b), float(h0), int(steps))


def ode_error_estimate(
    f: RkhsFunction, rhs: str, a: float, b: float, h0: float, steps: int
) -> float:
    """Richardson step-halving estimate of the integrator error at b."""
    v1 = ode_solution_map(f, rhs, a, b, h0, steps)
    v2 = ode_solution_map(f, rhs, a, b, h0, 2 * steps)
    return abs(v1 - v2) / 15.0


def ode_holder_constant(kernel: Kernel, rhs: str, a: float, b: float, h0: float) -> float:
    """Lipschitz constant of f -> h_f(b) with respect to the sup norm of f.

    Comparison-lemma bounds: for rhs "u" the map is the plain integral, so
    the constant is b - a; "h" ignores f entirely; "u_minus_h" damps the
    perturbation (|delta h(b)| <= int e^{-(b-tau)} |delta f| <= (b-a) sup);
    "sin_u_times_h" has |h| <= |h0| e^{x-a} and rhs slopes bounded by |h|
    in u and 1 in h, giving |h0| e^{b-a} (b-a).
    """
    if rhs not in ODE_RHS:
        raise ArgumentError(f"unknown rhs {rhs!r}; choose from {sorted(ODE_RHS)}")
    span = float(b) - float(a)
    if span <= 0:
        raise ArgumentError(f"need b > a, got [{a}, {b}]")
    if rhs == "u":
        return span
    if rhs == "h":
        return 0.0
    if rhs == "u_minus_h":
        return span
    return abs(float(h0)) * math.exp(span) * span


@dataclass(frozen=True)
class TargetFunctional:
    """One configured functional with its Hölder data.

    ``kind`` selects the map; ``beta``/``link`` configure the integral
    kinds and ``ode`` (a dict with rhs, a, b, h0, steps) the ODE kind.
    The Hölder exponent is 1 for every configuration; the constant depends
    on the kernel through its amplitude kappa.
    """

    kind: str
    beta: object = None
    link: str = "identity"
    ode: dict | None = None
    quadrature_points: int = DEFAULT_QUADRATURE_POINTS

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ArgumentError(
                f"unknown functional kind {self.kind!r}; choose from {FUNCTIONAL_KINDS}"
            )
        if self.kind in ("linear_integral", "gflm") and self.beta is None:
            raise ArgumentError(f"{self.kind} requires a weight (beta)")
        if self.kind == "gflm" and self.link not in LINKS:
            raise ArgumentError(f"unknown link {self.link!r}; choose from {sorted(LINKS)}")
        if self.kind == "ode_map":
            if not isinstance(self.ode, dict):
                raise ArgumentError("ode_map requires an ode config dict")
            missing = {"rhs", "a", "b", "h0", "steps"} - set(self.ode)
            if missing:
                raise ArgumentError(f"ode config missing keys: {sorted(missing)}")
        _check_quadrature_points(self.quadrature_points)

    def value(self, f: RkhsFunction) -> float:
        if self.kind == "linear_integral":
            return linear_integral(f, self.beta, self.quadrature_points)
        if self.kind == "gflm":
            return gflm_map(f, self.beta, self.link, self.quadrature_points)
        if self.kind == "l2_energy":
            return l2_energy(f, self.quadrature_points)
        o = self.ode
        return ode_solution_map(f, o["rhs"], o["a"], o["b"], o["h0"], o["steps"])

    def holder_exponent(self) -> float:
        return 1.0

    def holder_constant(self, kernel: Kernel) -> float:
        """The constant C_F of |F(f) - F(g)| <= C_F |f - g|_sup on the ball."""
        if self.kind == "linear_integral":
            return beta_l2_norm(self.beta) * kernel.kappa()
        if self.kind == "gflm":
            return gflm_holder_constant(kernel, self.beta, self.link)
        if self.kind == "l2_energy":
            return 2.0 * kernel.kappa()
        o = self.ode
        return ode_holder_constant(kernel, o["rhs"], o["a"], o["b"], o["h0"])

    def to_json(self) -> dict:
        out = {"kind": self.kind, "quadrature_points": int(self.quadrature_points)}
        if self.kind in ("linear_integral", "gflm"):
            out["beta"] = self.beta if isinstance(self.beta, str) else self.beta.to_json()
        if self.kind == "gflm":
            out["link"] = self.link
        if self.kind == "ode_map":
            out["ode"] = dict(self.ode)
        return out

    @staticmethod
    def from_json(obj: dict) -> "TargetFunctional":
        beta = obj.get("beta")
        if isinstance(beta, dict):
            beta = RkhsFunction.from_json(beta)
        return TargetFunctional(
            kind=obj["kind"],
            beta=beta,
            link=obj.get("link", "identity"),
            ode=obj.get("ode"),
            quadrature_points=obj.get("quadrature_points", DEFAULT_QUADRATURE_POINTS),
        )


def empirical_holder(
    functional: TargetFunctional, kernel: Kernel, n_pairs: int, seed: int
) -> float:
    """Largest observed ratio |F(f) - F(g)| / |f - g|_sup over sampled pairs.

    Pairs are independent unit-ball samples of ``DEFAULT_SAMPLE_CENTERS``
    centers each; sup norms are taken on the uniform grid with m = 2048,
    so the estimate approaches the true constant from below.
    Deterministic per seed.
    """
    if not (isinstance(n_pairs, (int, np.integer)) and n_pairs >= 100):
        raise ArgumentError(f"n_pairs must be an integer >= 100, got {n_pairs!r}")
    if kernel.dim != 1:
        raise UnsupportedConfigurationError("empirical Hölder ratios are implemented for dim=1")
    rng = np.random.default_rng(seed)
    t = uniform_grid(_HOLDER_GRID_M, 1).points
    best = 0.0
    for _ in range(int(n_pairs)):
        s1, s2 = rng.integers(0, 2**63 - 1, size=2)
        target1, target2 = rng.uniform(*_NORM_TARGET_RANGE, size=2)
        f = sample_unit_ball(kernel, DEFAULT_SAMPLE_CENTERS, float(target1), int(s1))
        g = sample_unit_ball(kernel, DEFAULT_SAMPLE_CENTERS, float(target2), int(s2))
        dist = float(np.abs(f.eval_at(t) - g.eval_at(t)).max())
        if dist <= 1e-12:
            continue
        best = max(best, abs(functional.value(f) - functional.value(g)) / dist)
    return best
