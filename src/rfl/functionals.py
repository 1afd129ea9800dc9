"""Target functionals on the unit ball: integral maps, an ODE endpoint map
and a quadratic energy.

:class:`TargetFunctional` is the one API: it checks every setting once, when
it is built, and evaluates each kind itself.  Each configured functional is
1-Hölder (Lipschitz) on the unit ball with a computable constant C_F; the
constant travels with the functional so rate checks downstream can compare
measured errors against C_F times a power of the interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentError,
    DivergenceError,
    UnsupportedConfigurationError,
    _check_positive_int,
    _check_real,
)
from .kernels import Kernel
from .rkhs import GramSystem, RkhsFunction, _projected_at

DEFAULT_QUADRATURE_POINTS = 257
_MIN_QUADRATURE_POINTS = 33

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


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights for n equally spaced points on [0, 1]."""
    h = 1.0 / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def _rk4(
    xs: np.ndarray, us: np.ndarray, rhs_name: str, dx: float, h: float, steps: int
) -> float:
    """Classical fixed-step fourth-order Runge-Kutta for h' = rhs(x, f(x), h), from ``h``.

    ``us`` holds f on the half-step lattice ``xs`` (2 steps + 1 points, dx/2 apart).
    """
    rhs = ODE_RHS[rhs_name]
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


@dataclass(frozen=True)
class TargetFunctional:
    """One configured functional with its Hölder data.

    ``kind`` selects the map: the Simpson integral over [0, 1] of f times
    the weight ``beta`` (a ``BETAS`` name or a dim=1 :class:`RkhsFunction`),
    ``link`` of that integral (``gflm``), the squared L2 norm of f, or the
    RK4 endpoint h(b) of h' = rhs(x, f(x), h) with ``ode`` = {rhs, a, b, h0,
    steps}.  Every setting is checked here, once.  The Hölder exponent is 1
    for every configuration; the constant depends on the kernel through its
    amplitude kappa.
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
        beta = self.beta
        if self.kind in ("linear_integral", "gflm"):
            if beta is None:
                raise ArgumentError(f"{self.kind} requires a weight (beta)")
            if isinstance(beta, str) and beta not in BETAS:
                raise ArgumentError(f"unknown weight name {beta!r}; choose from {sorted(BETAS)}")
            on_line = isinstance(beta, RkhsFunction) and beta.kernel.dim == 1
            if not (isinstance(beta, str) or on_line):
                raise ArgumentError("weight must be a registered name or a dim=1 RkhsFunction")
        if self.kind == "gflm" and self.link not in LINKS:
            raise ArgumentError(f"unknown link {self.link!r}; choose from {sorted(LINKS)}")
        if self.kind == "ode_map":
            o = self.ode
            if not isinstance(o, dict):
                raise ArgumentError("ode_map requires an ode config dict")
            missing = {"rhs", "a", "b", "h0", "steps"} - set(o)
            if missing:
                raise ArgumentError(f"ode config missing keys: {sorted(missing)}")
            if not (isinstance(o["rhs"], str) and o["rhs"] in ODE_RHS):
                raise ArgumentError(f"unknown rhs {o['rhs']!r}; choose from {sorted(ODE_RHS)}")
            o = {**o, "steps": _check_positive_int(o["steps"], "steps", 16)}
            for key in ("a", "b", "h0"):
                o[key] = _check_real(o[key], f"ode {key}")
            if not o["b"] > o["a"]:
                raise ArgumentError(f"need b > a, got [{o['a']}, {o['b']}]")
            object.__setattr__(self, "ode", o)
        n = _check_positive_int(self.quadrature_points, "quadrature_points", _MIN_QUADRATURE_POINTS)
        if n % 2 == 0:
            raise ArgumentError(f"quadrature_points must be odd, got {n!r}")
        object.__setattr__(self, "quadrature_points", n)

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Simpson nodes t, weights w and weight values beta(t), built on first use."""
        t = np.linspace(0.0, 1.0, self.quadrature_points)
        beta, b = self.beta, None
        if self.kind != "l2_energy":
            b = BETAS[beta][0](t) if isinstance(beta, str) else beta.eval_at(t[:, None])
        return t, _simpson_weights(len(t)), b

    @cached_property
    def _points(self) -> np.ndarray:
        """The (P, 1) points where F reads f: the RK4 half-step lattice or the Simpson nodes."""
        if self.kind == "ode_map":
            o = self.ode
            dx = (o["b"] - o["a"]) / o["steps"]
            return (o["a"] + np.arange(2 * o["steps"] + 1) * (dx / 2.0))[:, None]
        return self._rule[0][:, None]

    def _check_dim(self, kernel: Kernel) -> None:
        if kernel.dim != 1:
            what = {"l2_energy": "energy functional", "ode_map": "ODE solution map"}
            what = what.get(self.kind, "integral functional")
            raise UnsupportedConfigurationError(f"the {what} is only defined for dim=1 inputs")

    def _from_values(self, vals: np.ndarray) -> float:
        """F(f) from the values of f at :attr:`_points`."""
        if self.kind == "ode_map":
            o = self.ode
            dx = (o["b"] - o["a"]) / o["steps"]
            return _rk4(self._points[:, 0], vals, o["rhs"], dx, o["h0"], o["steps"])
        _, w, b = self._rule
        if self.kind == "l2_energy":
            return float(w @ (vals * vals))
        integral = float(w @ (vals * b))
        return float(LINKS[self.link][0](integral)) if self.kind == "gflm" else integral

    def value(self, f: RkhsFunction) -> float:
        self._check_dim(f.kernel)
        return self._from_values(f.eval_at(self._points))

    def _projected_values(self, system: GramSystem, node_values: np.ndarray) -> np.ndarray:
        """F(Pf) for each row of ``node_values``, the values of an f at ``system``'s nodes.

        Pf is read at :attr:`_points` through :func:`rfl.rkhs._projected_at`,
        so row i gives the bits of ``value(project(system, node_values[i]))``.
        """
        self._check_dim(system.kernel)
        vals = _projected_at(system, node_values, self._points)
        return np.fromiter(map(self._from_values, vals), float, len(node_values))

    def holder_exponent(self) -> float:
        return 1.0

    def holder_constant(self, kernel: Kernel) -> float:
        """The constant C_F of |F(f) - F(g)| <= C_F |f - g|_sup on the ball.

        Lip(link) * |beta|_L2 * kappa for the integral kinds (Lip = 1 for
        ``linear_integral``) and 2 kappa for the energy.  The ODE map has
        comparison-lemma bounds: for rhs "u" the map is the plain integral,
        so the constant is b - a; "h" ignores f entirely; "u_minus_h" damps
        the perturbation (|delta h(b)| <= int e^{-(b-tau)} |delta f| <=
        (b-a) sup); "sin_u_times_h" has |h| <= |h0| e^{x-a} and rhs slopes
        bounded by |h| in u and 1 in h, giving |h0| e^{b-a} (b-a).
        """
        if self.kind == "l2_energy":
            return 2.0 * kernel.kappa()
        if self.kind == "ode_map":
            o = self.ode
            span = o["b"] - o["a"]
            if o["rhs"] == "h":
                return 0.0
            if o["rhs"] == "sin_u_times_h":
                try:
                    c = abs(o["h0"]) * math.exp(span) * span
                except OverflowError:
                    c = math.inf
                if not math.isfinite(c):
                    raise ArgumentError(
                        f"sin_u_times_h Hölder constant |h0| e^(b-a) (b-a) overflows "
                        f"for the span b - a = {span!r}"
                    )
                return c
            return span
        if isinstance(self.beta, str):
            norm = BETAS[self.beta][1]
        else:
            # a function weight's L2 norm always takes the default 257-point
            # rule, whatever quadrature_points is set to
            n = DEFAULT_QUADRATURE_POINTS
            vals = self.beta.eval_at(np.linspace(0.0, 1.0, n)[:, None])
            norm = float(math.sqrt(max(_simpson_weights(n) @ (vals * vals), 0.0)))
        lip = LINKS[self.link][1] if self.kind == "gflm" else 1.0
        return lip * norm * kernel.kappa()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "quadrature_points": self.quadrature_points}
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
