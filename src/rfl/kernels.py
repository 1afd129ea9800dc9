"""Translation-invariant Mercer kernel families on the unit cube.

Three families are provided: the gaussian kernel exp(-|u-v|^2 / 2 sigma^2),
the inverse multiquadric kernel (sigma^2 + |u-v|^2)^(-beta), and a Sobolev
kernel defined through its spectral density (1 + |xi|^2)^(-r).  On the line
its profile is the Matern kernel 2 pi^r |x|^nu K_nu(2 pi |x|) / Gamma(r),
nu = r - 1/2 (Wendland, *Scattered Data Approximation*, 2005, Thm 6.13),
written out for r in {1, 2} and through scipy's K_nu for other orders.

Every kernel value comes from :meth:`Kernel.pairwise`.  It writes the
squared distances straight into the result matrix, adding one coordinate
at a time, and then applies the radial profile to that matrix in place.
Besides the result, a call in dimensions 2 to 7 holds one temporary of
at most about 4M entries while it sums the coordinates (dimension 8 and
up: see _sq_dists), and the sobolev profiles other than r = 1 one more
array of the result's size.

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

from .errors import (
    ArgumentError,
    UnsupportedConfigurationError,
    _check_nonnegative_int,
    _check_positive_int,
    _check_real,
)

GAUSSIAN = "gaussian"
INVERSE_MULTIQUADRIC = "inverse_multiquadric"
SOBOLEV = "sobolev"

FAMILIES = (GAUSSIAN, INVERSE_MULTIQUADRIC, SOBOLEV)

_BLOCK_ENTRIES = 1 << 22
_HOLDER_TRIPLES = 100_000
_HOLDER_SEED = 20040
# largest sobolev order.  On x in {0, 5e-324, 1e-300, 1e-12, 1e-6, 1e-3} and
# 1000 points of (0, 1] every order up to 45.7 (step 0.1) is within 2.9e-14 of
# 50-digit mpmath (45.8: 2.2e-13); but from r near 44 K_nu overflows below
# 1e-6, where phi(0) stands in, 6.1e-14 off at r = 44 and 1.03e-13 at 44.7
SOBOLEV_MAX_R = 44.0


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
        Sobolev order.  Requires dim/2 < r <= ``SOBOLEV_MAX_R`` with
        r - dim/2 not an integer.  Ignored otherwise.
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
        object.__setattr__(self, "dim", _check_positive_int(self.dim, "dim"))
        for name in ("sigma", "beta", "r"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        # the gaussian divides by 2 sigma^2 and the inverse multiquadric adds sigma^2
        if not (self.sigma > 0 and 0.0 < 2.0 * (self.sigma * self.sigma) < math.inf):
            raise ArgumentError(f"need 0 < sigma and 0 < 2 sigma^2 < inf, got sigma={self.sigma!r}")
        if self.family == INVERSE_MULTIQUADRIC:
            if not (self.beta > 0):
                raise ArgumentError(f"beta must be positive, got {self.beta!r}")
            with np.errstate(over="ignore", under="ignore"):
                diagonal = np.float64(self.sigma) ** (-2.0 * self.beta)
            if not 0.0 < diagonal < math.inf:
                raise ArgumentError(f"sigma^(-2 beta) = {diagonal:.3g} is not a positive float")
        if self.family == SOBOLEV:
            excess = self.r - self.dim / 2.0
            if excess <= 0:
                raise ArgumentError(
                    f"sobolev order r={self.r} must exceed dim/2={self.dim / 2.0}"
                )
            if abs(excess - round(excess)) < 1e-12:
                raise ArgumentError(
                    f"sobolev order r={self.r} with dim={self.dim} hits the "
                    "excluded half-integer gap (r - dim/2 must not be an integer)"
                )
            if self.r > SOBOLEV_MAX_R:
                raise ArgumentError(
                    f"sobolev order r={self.r} exceeds {SOBOLEV_MAX_R}, past which the "
                    "double-precision profile loses digits"
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
        return self._profile(_sq_dists(X, Y))

    def _profile(self, s2: np.ndarray) -> np.ndarray:
        """Radial profile phi(|u-v|) applied to squared distances.

        Overwrites ``s2`` (a float64 array the caller no longer needs) and
        returns it.  Each step is the operation of the textbook formula, so
        the values do not depend on working in place: -a/b equals a/(-b)
        exactly, and ``**=`` takes the scalar-power path of ``**``.
        """
        if self.family == GAUSSIAN:
            np.divide(s2, -(2.0 * self.sigma**2), out=s2)
            return np.exp(s2, out=s2)
        if self.family == INVERSE_MULTIQUADRIC:
            s2 += self.sigma**2
            s2 **= -self.beta
            return s2
        x = np.sqrt(s2, out=s2)
        if self.r == 1:
            x *= -2.0 * math.pi
            np.exp(x, out=x)
            x *= math.pi
            return x
        if self.r == 2:
            x *= 2.0 * math.pi
            decay = np.negative(x)
            np.exp(decay, out=decay)
            x += 1.0
            x *= math.pi / 2.0
            x *= decay
            return x
        from scipy.special import kv  # deferred: scipy.special adds to rfl's import time

        # 2 pi^r / Gamma(r) x^nu K_nu(2 pi x); at x = 0 and wherever kv
        # overflows the product is 0 * inf or inf, and phi rounds to phi(0)
        r = self.r
        bessel = np.multiply(x, 2.0 * math.pi)
        kv(r - 0.5, bessel, out=bessel)
        x **= r - 0.5
        with np.errstate(invalid="ignore"):
            x *= bessel
        x *= 2.0 * math.pi**r / math.gamma(r)
        x[~np.isfinite(x)] = _sobolev_profile_zero(r)
        return x

    def diagonal(self) -> float:
        """The constant K(u, u), i.e. the radial profile at distance zero."""
        if self.family == GAUSSIAN:
            return 1.0
        if self.family == INVERSE_MULTIQUADRIC:
            return self.sigma ** (-2.0 * self.beta)
        if self.dim == 1 and self.r == 1:
            return math.pi
        if self.dim == 1 and self.r == 2:
            return math.pi / 2.0
        return _sobolev_profile_zero(self.r, self.dim)

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
        _check_nonnegative_int(m, "m")
        try:
            if self.family == GAUSSIAN:
                amp = (2.0 * self.sigma**2 * math.pi) ** (self.dim / 2.0)
                return amp * math.exp(-self.sigma**2 * math.pi**2 * self.dim * m**2 / 2.0)
            return (1.0 + self.dim * m**2 / 4.0) ** (-self.r)
        except OverflowError:
            raise ArgumentError(f"Gamma_m of {self} leaves the float range at m={m}") from None

    # -- smoothness data ----------------------------------------------

    def holder_data(self) -> tuple[float, float]:
        """Exponent and constant (alpha, C_K) of the kernel's Hölder bound.

        The bound reads |K(u, v) - K(u, w)| <= C_K |v - w|^alpha.  The
        gaussian and inverse multiquadric constants are closed forms; the
        sobolev constant is estimated by sampling the profile on the line,
        so a sobolev kernel in dim >= 2 raises
        :class:`~rfl.errors.UnsupportedConfigurationError`.
        """
        root_d = math.sqrt(self.dim)
        if self.family == GAUSSIAN:
            return 1.0, root_d / self.sigma**2
        if self.family == INVERSE_MULTIQUADRIC:
            return 1.0, 2.0 * root_d * self.beta * self.sigma ** (-2.0 * self.beta - 2.0)
        if self.dim != 1:
            raise UnsupportedConfigurationError(
                "the sobolev Hölder constant is only available for dim=1"
            )
        alpha = min(1.0, self.r - 0.5)
        return alpha, _sobolev_holder_constant(self.r, alpha)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        out = {"family": self.family, "sigma": self.sigma, "dim": self.dim}
        if self.family == INVERSE_MULTIQUADRIC:
            out["beta"] = self.beta
        if self.family == SOBOLEV:
            out["r"] = self.r
        return out

    @staticmethod
    def from_json(obj: dict) -> "Kernel":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ArgumentError("kernel config must be an object with a 'family' key")
        extra = set(obj) - {"family", "sigma", "beta", "r", "dim"}
        if extra:
            raise ArgumentError(f"unknown kernel config keys: {sorted(extra)}")
        return Kernel(**obj)


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, one coordinate at a time.

    Row i, column j holds (X[i,0]-Y[j,0])^2 + (X[i,1]-Y[j,1])^2 + ...,
    added in coordinate order straight into the result.  That order is
    numpy's ``sum(axis=-1)`` over the difference tensor bit for bit while
    dim <= 7; from dim 8 numpy sums pairwise, so those dimensions keep the
    (rows, p, dim) difference block and its ``sum``.  Rows go in blocks of
    about 4M entries, which bounds the one temporary a block needs.
    """
    n, d = X.shape
    p = Y.shape[0]
    out = np.empty((n, p))
    step = max(1, _BLOCK_ENTRIES // max(1, p))
    sq = np.empty((min(step, n), p)) if 2 <= d < 8 else None
    for i0 in range(0, n, step):
        x, rows = X[i0 : i0 + step], out[i0 : i0 + step]
        if d >= 8:
            diff = x[:, None, :] - Y[None, :, :]
            np.multiply(diff, diff, out=diff).sum(axis=-1, out=rows)
            continue
        np.subtract(x[:, 0, None], Y[:, 0], out=rows)
        np.multiply(rows, rows, out=rows)
        for k in range(1, d):
            t = sq[: rows.shape[0]]
            np.subtract(x[:, k, None], Y[:, k], out=t)
            rows += np.multiply(t, t, out=t)
    return out


@lru_cache(maxsize=8)
def _sobolev_profile_zero(r: float, dim: int = 1) -> float:
    # integral of (1 + |xi|^2)^(-r) over R^dim
    return math.sqrt(math.pi) ** dim * math.gamma(r - dim / 2) / math.gamma(r)


@lru_cache(maxsize=8)
def _sobolev_holder_constant(r: float, alpha: float) -> float:
    """Sampled Hölder constant for the sobolev family.

    No closed form is available, so the constant is the largest ratio
    |K(u, v) - K(u, w)| / |v - w|^alpha observed over a fixed seeded sample
    of point triples, with perturbations spanning several length scales so
    the short-distance regime that dominates the ratio is covered.
    """
    kernel = Kernel(SOBOLEV, r=r)
    rng = np.random.default_rng(_HOLDER_SEED)
    n = _HOLDER_TRIPLES
    u = rng.uniform(0.0, 1.0, size=(n, 1))
    v = rng.uniform(0.0, 1.0, size=(n, 1))
    scales = 10.0 ** rng.uniform(-5.0, 0.0, size=(n, 1))
    w = np.clip(v + scales * rng.standard_normal((n, 1)), 0.0, 1.0)
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
    _check_positive_int(d, "d")
    val = 12.0 * math.pi * math.gamma((d + 2) / 2.0) ** 2 / 9.0
    if not val <= 6.38 * d:
        raise UnsupportedConfigurationError(
            f"dimension constant {val:.4g} exceeds its linear envelope "
            f"{6.38 * d:.4g}; the formula only respects the envelope for d <= 4"
        )
    return val
