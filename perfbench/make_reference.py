"""Compute the benchmark's extended-precision reference values.

Writes ``reference.json`` beside this file.  Everything here is built
from the kernel formulas and the point sets directly with mpmath at
``DPS`` digits; nothing is taken from ``rfl`` (in particular not from
``rfl._exact``), so a broken extended-precision path in the package
cannot certify itself.  The values are pure functions of the configs,
so rerunning the script reproduces the file.

    python3 perfbench/make_reference.py

Contents:

* ``eigen``: smallest Gram eigenvalue on the grid {0, 1/m, ..., 1}^d for
  the 48 ``eigen_sweep`` configs.  Gaussian d=2 uses the Kronecker
  identity lambda_min(K_2) = lambda_min(K_1)^2 of a product kernel on a
  full lattice.
* ``certify``: the power function P(x) = sqrt(K(x,x) - k_x^T K^-1 k_x) at
  every 8th of the 2048 midpoints (indices 0, 8, 16, ...), for the 15
  ``certify`` configs.
* ``flm``: sup of P over the 16m-grid for gaussian sigma=1, m=2,4,8.
* ``project_2d``: sup of P over the first 4096 unscrambled Halton points
  in d=2 for gaussian sigma=1, m=8, again through the Kronecker identity
  (k_x^T K^-1 k_x factors over the two coordinates).
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np
from scipy.stats import qmc

DPS = 80
CERTIFY_STRIDE = 8

ctx = mpmath.MPContext()
ctx.dps = DPS

EIGEN_KERNELS = {
    "gaussian_d1": ("gaussian", {"sigma": 1.0}, 1),
    "gaussian_d2": ("gaussian", {"sigma": 1.0}, 2),
    "sobolev_r1": ("sobolev", {"r": 1}, 1),
    "sobolev_r2": ("sobolev", {"r": 2}, 1),
}
CERTIFY_KERNELS = {
    "gaussian_s0.5": ("gaussian", {"sigma": 0.5}),
    "gaussian_s1": ("gaussian", {"sigma": 1.0}),
    "sobolev_r1": ("sobolev", {"r": 1}),
    "sobolev_r2": ("sobolev", {"r": 2}),
    "imq_s1_b1": ("inverse_multiquadric", {"sigma": 1.0, "beta": 1.0}),
}


def profile(family: str, params: dict, dist):
    """Radial profile phi(|x - y|) of the package's kernel families."""
    if family == "gaussian":
        return ctx.exp(-dist**2 / (2 * ctx.mpf(params["sigma"]) ** 2))
    if family == "inverse_multiquadric":
        return (ctx.mpf(params["sigma"]) ** 2 + dist**2) ** (-ctx.mpf(params["beta"]))
    if params["r"] == 1:
        return ctx.pi * ctx.exp(-2 * ctx.pi * dist)
    return (ctx.pi / 2) * (1 + 2 * ctx.pi * dist) * ctx.exp(-2 * ctx.pi * dist)


def grid_1d(m: int) -> list:
    return [ctx.mpf(i) / m for i in range(m + 1)]


def gram_1d(family: str, params: dict, nodes: list):
    n = len(nodes)
    K = ctx.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            K[i, j] = K[j, i] = profile(family, params, abs(nodes[i] - nodes[j]))
    return K


def lambda_min(family: str, params: dict, m: int, d: int) -> float:
    lam = min(ctx.eigsy(gram_1d(family, params, grid_1d(m)), eigvals_only=True))
    return float(lam**d)


class Interpolant1d:
    """k_x^T K^-1 k_x on a 1-d node set through one Cholesky factor."""

    def __init__(self, family: str, params: dict, nodes: list):
        self.family, self.params, self.nodes = family, params, nodes
        self.L = ctx.cholesky(gram_1d(family, params, nodes))

    def quad(self, x) -> object:
        n = len(self.nodes)
        k = [profile(self.family, self.params, abs(x - c)) for c in self.nodes]
        z = []
        for i in range(n):
            z.append((k[i] - ctx.fsum(self.L[i, j] * z[j] for j in range(i))) / self.L[i, i])
        return ctx.fsum(v * v for v in z)


def power_1d(family: str, params: dict, m: int, xs) -> list[float]:
    interp = Interpolant1d(family, params, grid_1d(m))
    diag = profile(family, params, ctx.mpf(0))
    return [float(ctx.sqrt(max(diag - interp.quad(ctx.mpf(float(x))), 0))) for x in xs]


def main() -> None:
    eigen = {
        name: {str(m): lambda_min(fam, params, m, d) for m in range(1, 13)}
        for name, (fam, params, d) in EIGEN_KERNELS.items()
    }
    midpoints = (np.arange(2048) + 0.5) / 2048.0
    certify = {
        name: {str(m): power_1d(fam, params, m, midpoints[::CERTIFY_STRIDE]) for m in (2, 4, 8)}
        for name, (fam, params) in CERTIFY_KERNELS.items()
    }
    gauss = {"sigma": 1.0}
    flm = {
        str(m): max(power_1d("gaussian", gauss, m, np.arange(16 * m + 1) / (16 * m)))
        for m in (2, 4, 8)
    }
    halton = qmc.Halton(d=2, scramble=False).random(4096)
    interp = Interpolant1d("gaussian", gauss, grid_1d(8))
    quads = [{float(x): interp.quad(ctx.mpf(float(x))) for x in set(col)} for col in halton.T]
    project_sup = max(
        ctx.sqrt(max(1 - quads[0][float(a)] * quads[1][float(b)], 0)) for a, b in halton
    )
    out = {
        "dps": DPS,
        "certify_stride": CERTIFY_STRIDE,
        "eigen": eigen,
        "certify": certify,
        "flm": flm,
        "project_2d": float(project_sup),
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)


if __name__ == "__main__":
    main()
