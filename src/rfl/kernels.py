"""Translation-invariant Mercer kernel families on the unit cube.

Three families are provided: the gaussian kernel exp(-|u-v|^2 / 2 sigma^2),
the inverse multiquadric kernel (sigma^2 + |u-v|^2)^(-beta), and a Sobolev
kernel defined through its spectral density (1 + |xi|^2)^(-r).  The Sobolev
family is realized in closed form for r in {1, 2} on the line; other orders
fall back to adaptive quadrature of the inverse Fourier integral with a
cached tabulation.

All values are plain float64.  Two internal escalation paths elsewhere in the
package (see _exact) recompute selected quantities in extended precision when
double precision cannot represent them; the kernel descriptors here stay
oblivious to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, UnsupportedConfigurationError
from .geometry import _sq_dist_blocks

GAUSSIAN = "gaussian"
INVERSE_MULTIQUADRIC = "inverse_multiquadric"
SOBOLEV = "sobolev"

FAMILIES = (GAUSSIAN, INVERSE_MULTIQUADRIC, SOBOLEV)

_HOLDER_TRIPLES = 100_000
_HOLDER_SEED = 20040


def _is_nonneg_integer(x: float, tol: float = 1e-12) -> bool:
    return x >= -tol and abs(x - round(x)) < tol


@dataclass(frozen=True)
class Kernel:
    """Descriptor of one kernel family with its shape parameters.

    Parameters
    ----------
    family : str
        One of ``gaussian``, ``inverse_multiquadric``, ``sobolev``.
    sigma : float
        Width / shape parameter, must be positive.  Used by the gaussian
        and inverse multiquadric families.
    beta : float
        Inverse multiquadric exponent, positive.  Ignored otherwise.
    r : float
        Sobolev order.  Requires r > dim/2 with r - dim/2 not an integer.
        Ignored otherwise.
    dim : int
        Ambient dimension d of the cube [0, 1]^d.
    """

    family: str
    sigma: float = 1.0
    beta: float = 1.0
    r: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArgumentError(f"unknown kernel family {self.family!r}")
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise ArgumentError(f"dim must be a positive integer, got {self.dim!r}")
        for name in ("sigma", "beta", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ArgumentError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.sigma > 0):
            raise ArgumentError(f"sigma must be positive, got {self.sigma!r}")
        if self.family == INVERSE_MULTIQUADRIC and not (self.beta > 0):
            raise ArgumentError(f"beta must be positive, got {self.beta!r}")
        if self.family == SOBOLEV:
            excess = self.r - self.dim / 2.0
            if excess <= 0:
                raise ArgumentError(
                    f"sobolev order r={self.r} must exceed dim/2={self.dim / 2.0}"
                )
            if _is_nonneg_integer(excess):
                raise ArgumentError(
                    f"sobolev order r={self.r} with dim={self.dim} hits the "
                    "excluded half-integer gap (r - dim/2 must not be an integer)"
                )

    # -- evaluation ---------------------------------------------------

    def pairwise(self, X, Y) -> np.ndarray:
        """Matrix of kernel values between two point arrays.

        X has shape (n, dim) and Y shape (p, dim); the result is (n, p).
        The values depend only on squared coordinate differences, so
        swapping X and Y transposes the result bit for bit.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != self.dim or Y.shape[1] != self.dim:
            raise ArgumentError(
                f"point arrays must have {self.dim} columns, "
                f"got {X.shape[1]} and {Y.shape[1]}"
            )
        if self.family == SOBOLEV and self.dim != 1:
            raise UnsupportedConfigurationError(
                "sobolev kernel evaluation is only available for dim=1"
            )
        s2 = _sq_dists(X, Y)
        return self._profile(s2)

    def _profile(self, s2: np.ndarray) -> np.ndarray:
        """Radial profile phi(|u-v|) applied to squared distances."""
        if self.family == GAUSSIAN:
            return np.exp(-s2 / (2.0 * self.sigma**2))
        if self.family == INVERSE_MULTIQUADRIC:
            return (self.sigma**2 + s2) ** (-self.beta)
        x = np.sqrt(s2)
        if self.r == 1:
            return math.pi * np.exp(-2.0 * math.pi * x)
        if self.r == 2:
            return (math.pi / 2.0) * (1.0 + 2.0 * math.pi * x) * np.exp(-2.0 * math.pi * x)
        spline = _sobolev_profile_table(float(self.r))
        return np.asarray(spline(np.clip(x, 0.0, 1.0)))

    def diagonal(self) -> float:
        """The constant K(u, u), i.e. the radial profile at distance zero."""
        if self.family == GAUSSIAN:
            return 1.0
        if self.family == INVERSE_MULTIQUADRIC:
            return self.sigma ** (-2.0 * self.beta)
        if self.r == 1:
            return math.pi
        if self.r == 2:
            return math.pi / 2.0
        return _sobolev_profile_zero(float(self.r))

    def kappa(self) -> float:
        """sup over the cube of sqrt(K(u, u)); equals sqrt of the diagonal."""
        return math.sqrt(self.diagonal())

    # -- spectral side ------------------------------------------------

    def gamma_m(self, m: int) -> float:
        """Minimum of the spectral density over the cube [-m/2, m/2]^dim.

        The density is radially decreasing for both supported families, so
        the minimum sits at the corner with |xi|^2 = dim * m^2 / 4.  m = 0
        degenerates to the value at the origin.
        """
        if self.family == INVERSE_MULTIQUADRIC:
            raise UnsupportedConfigurationError(
                "gamma_m needs a Fourier transform; none exists for the "
                "inverse multiquadric kernel"
            )
        if not (isinstance(m, (int, np.integer)) and m >= 0):
            raise ArgumentError(f"m must be a nonnegative integer, got {m!r}")
        if self.family == GAUSSIAN:
            amp = (2.0 * self.sigma**2 * math.pi) ** (self.dim / 2.0)
            return amp * math.exp(-self.sigma**2 * math.pi**2 * self.dim * m**2 / 2.0)
        return (1.0 + self.dim * m**2 / 4.0) ** (-self.r)

    # -- smoothness data ----------------------------------------------

    def holder_data(self) -> tuple[float, float]:
        """Exponent and constant (alpha, C_K) of the kernel's Hölder bound.

        The bound reads |K(u, v) - K(u, w)| <= C_K |v - w|^alpha.  The
        gaussian and inverse multiquadric constants are closed forms; the
        sobolev constant is estimated by sampling.
        """
        root_d = math.sqrt(self.dim)
        if self.family == GAUSSIAN:
            return 1.0, root_d / self.sigma**2
        if self.family == INVERSE_MULTIQUADRIC:
            return 1.0, 2.0 * root_d * self.beta * self.sigma ** (-2.0 * self.beta - 2.0)
        alpha = min(1.0, self.r - self.dim / 2.0)
        return alpha, _sobolev_holder_constant(float(self.r), int(self.dim), alpha)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        out = {"family": self.family, "sigma": self.sigma, "dim": int(self.dim)}
        if self.family == INVERSE_MULTIQUADRIC:
            out["beta"] = self.beta
        if self.family == SOBOLEV:
            out["r"] = self.r
        return out

    @staticmethod
    def from_json(obj: dict) -> "Kernel":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ArgumentError("kernel config must be an object with a 'family' key")
        known = {"family", "sigma", "beta", "r", "dim"}
        extra = set(obj) - known
        if extra:
            raise ArgumentError(f"unknown kernel config keys: {sorted(extra)}")
        kw = dict(obj)
        if "dim" in kw:
            kw["dim"] = int(kw["dim"])
        return Kernel(**kw)


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, blockwise to bound memory."""
    out = np.empty((X.shape[0], Y.shape[0]))
    for i0, d2 in _sq_dist_blocks(X, Y):
        out[i0 : i0 + d2.shape[0]] = d2
    return out


@lru_cache(maxsize=8)
def _sobolev_profile_zero(r: float) -> float:
    # integral of (1 + xi^2)^(-r) over the line
    return math.sqrt(math.pi) * math.gamma(r - 0.5) / math.gamma(r)


@lru_cache(maxsize=8)
def _sobolev_profile_table(r: float):
    """Cubic spline of the d=1 sobolev profile for a general order r.

    Tabulates 2 * integral_0^inf (1 + xi^2)^(-r) cos(2 pi x xi) d xi on a
    fine grid of [0, 1] using the oscillatory-weight quadrature rule, then
    interpolates.  Built once per order and cached.
    """
    from scipy import integrate, interpolate  # deferred: they load scipy.special, optimize, sparse

    xs = np.linspace(0.0, 1.0, 1025)
    vals = np.empty_like(xs)
    vals[0] = _sobolev_profile_zero(r)
    for i, x in enumerate(xs[1:], start=1):
        val, _ = integrate.quad(
            lambda t: (1.0 + t * t) ** (-r),
            0.0,
            np.inf,
            weight="cos",
            wvar=2.0 * math.pi * x,
        )
        vals[i] = 2.0 * val
    return interpolate.CubicSpline(xs, vals)


@lru_cache(maxsize=8)
def _sobolev_holder_constant(r: float, dim: int, alpha: float) -> float:
    """Sampled Hölder constant for the sobolev family.

    No closed form is available, so the constant is the largest ratio
    |K(u, v) - K(u, w)| / |v - w|^alpha observed over a fixed seeded sample
    of point triples, with perturbations spanning several length scales so
    the short-distance regime that dominates the ratio is covered.
    """
    kernel = Kernel(SOBOLEV, r=r, dim=dim)
    rng = np.random.default_rng(_HOLDER_SEED)
    n = _HOLDER_TRIPLES
    u = rng.uniform(0.0, 1.0, size=(n, dim))
    v = rng.uniform(0.0, 1.0, size=(n, dim))
    scales = 10.0 ** rng.uniform(-5.0, 0.0, size=(n, 1))
    w = np.clip(v + scales * rng.standard_normal((n, dim)), 0.0, 1.0)
    duv = np.sqrt(((u - v) ** 2).sum(axis=1))
    duw = np.sqrt(((u - w) ** 2).sum(axis=1))
    dvw = np.sqrt(((v - w) ** 2).sum(axis=1))
    keep = dvw > 1e-14
    kuv = kernel._profile(duv[keep] ** 2)
    kuw = kernel._profile(duw[keep] ** 2)
    ratio = np.abs(kuv - kuw) / dvw[keep] ** alpha
    return float(ratio.max())


def m_d_constant(d: int) -> float:
    """The dimension constant 12 pi Gamma((d+2)/2)^2 / 9.

    The value is checked against the linear envelope 6.38 d on every call.
    The gamma-squared growth outruns the envelope from d = 5 onward, so
    those dimensions are rejected rather than silently returning a value
    that breaks the documented postcondition.  Everything in this package
    uses d <= 2.
    """
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ArgumentError(f"d must be a positive integer, got {d!r}")
    val = 12.0 * math.pi * math.gamma((d + 2) / 2.0) ** 2 / 9.0
    if not val <= 6.38 * d:
        raise UnsupportedConfigurationError(
            f"dimension constant {val:.4g} exceeds its linear envelope "
            f"{6.38 * d:.4g}; the formula only respects the envelope for d <= 4"
        )
    return val
