"""The benchmark workloads: inputs, the timed calls, and their checks.

Each workload is a class with three steps:

* ``__init__(seed, out)`` builds the inputs (part of ``setup_s``);
* ``run()`` makes the workload's calls into ``rfl`` (timed as ``wall_s``);
* ``check(reference)`` verifies the outputs outside the timed region and
  returns the number of checked units, the failures among them, the
  largest relative deviation of the certified quantities from the stored
  extended-precision reference, and a digest of the outputs.

Calls go through module attributes (``rkhs.build_gram``, ``cli.run``) so
that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import rfl.cli as cli
import rfl.geometry as geometry
import rfl.kernels as kernels
import rfl.rkhs as rkhs

EIGEN_M_LIST = ",".join(str(m) for m in range(1, 13))
EIGEN_KERNELS = {
    "gaussian_d1": ["--kernel", "gaussian", "--sigma", "1", "--d", "1"],
    "gaussian_d2": ["--kernel", "gaussian", "--sigma", "1", "--d", "2"],
    "sobolev_r1": ["--kernel", "sobolev", "--r", "1", "--d", "1"],
    "sobolev_r2": ["--kernel", "sobolev", "--r", "2", "--d", "1"],
}
CERTIFY_KERNELS = {
    "gaussian_s0.5": {"family": "gaussian", "sigma": 0.5},
    "gaussian_s1": {"family": "gaussian", "sigma": 1.0},
    "sobolev_r1": {"family": "sobolev", "r": 1.0},
    "sobolev_r2": {"family": "sobolev", "r": 2.0},
    "imq_s1_b1": {"family": "inverse_multiquadric", "sigma": 1.0, "beta": 1.0},
}
CERTIFY_M = (2, 4, 8)
CERTIFY_SAMPLES = 100


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _read_csv(path: Path) -> list[dict]:
    """Rows of an ``rfl`` table keyed by header, first column dropped.

    The first column is the kernel label, which itself contains commas
    (``gaussian(sigma=1.0,d=1)``), so cells are aligned from the right.
    """
    header, *lines = path.read_text().splitlines()
    keys = header.split(",")[1:]
    return [dict(zip(keys, line.split(",")[-len(keys):])) for line in lines]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class EigenSweep:
    """``rfl eigen`` for 4 kernels x m in 1..12 (criterion 4); no randomness, the seed is unused."""

    def __init__(self, seed: int, out: Path):
        self.argvs = {
            name: ["eigen", *flags, "--m-list", EIGEN_M_LIST, "--threads", "1",
                   "--out", str(out / name)]
            for name, flags in EIGEN_KERNELS.items()
        }
        self.out = out

    def run(self):
        self.codes = {name: cli.run(argv) for name, argv in self.argvs.items()}

    def check(self, reference: dict) -> dict:
        attempted = failed = 0
        worst = 0.0
        tables = []
        for name in EIGEN_KERNELS:
            table = self.out / name / "tables" / "eigen.csv"
            if self.codes[name] != 0 or not table.is_file():
                attempted += 12
                failed += 12
                continue
            tables.append(table)
            for row in _read_csv(table):
                attempted += 1
                lam = float(row["lambda_min"])
                ok = row["satisfied"] == "true" and _finite(lam) and lam > 0
                failed += not ok
                worst = max(worst, _rel_err(lam, reference["eigen"][name][row["m"]]))
        return {"attempted": attempted, "failed": failed, "cert_rel_err_max": worst,
                "lambda_rel_err_max": worst, "digest": _digest(tables)}


class Certify:
    """Criterion 2 through the library: P(x) on 2048 midpoints vs sampled errors."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.kernels = {name: kernels.Kernel(dim=1, **kw) for name, kw in CERTIFY_KERNELS.items()}
        mid = (np.arange(2048) + 0.5) / 2048.0
        self.eval_pts = geometry.PointSet(dim=1, points=mid[:, None])

    def _samples(self, kernel):
        rng = np.random.default_rng(self.seed)
        for _ in range(CERTIFY_SAMPLES):
            child = int(rng.integers(0, 2**63 - 1))
            target = float(rng.uniform(0.2, 1.0))
            yield rkhs.sample_unit_ball(kernel, 10, target, child)

    def run(self):
        X = self.eval_pts.points
        self.results = {}
        for name, kernel in self.kernels.items():
            for m in CERTIFY_M:
                system = rkhs.build_gram(kernel, geometry.uniform_grid(m, 1))
                pvals = rkhs.power_values(system, self.eval_pts)
                violations = []
                ratios = []
                for f in self._samples(kernel):
                    pf = rkhs.project(system, f.eval_at(system.points.points))
                    err = np.abs(f.eval_at(X) - pf.eval_at(X))
                    bound = rkhs.rkhs_norm(f) * pvals * (1.0 + 1e-6)
                    violations.append(bool(np.any(err > bound)) or not np.isfinite(err).all())
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratios.append(float(np.where(bound > 0, err / bound, 0.0).max()))
                self.results[name, m] = (pvals, violations, ratios)

    def check(self, reference: dict) -> dict:
        stride = reference["certify_stride"]
        attempted = failed = 0
        worst = 0.0
        h = hashlib.sha256()
        for (name, m), (pvals, violations, ratios) in self.results.items():
            attempted += len(violations)
            failed += sum(violations)
            ref = np.asarray(reference["certify"][name][str(m)])
            worst = max(worst, float((np.abs(pvals[::stride] - ref) / ref).max()))
            h.update(np.ascontiguousarray(pvals).tobytes())
            h.update(np.asarray(ratios).tobytes())
        return {"attempted": attempted, "failed": failed, "cert_rel_err_max": worst,
                "digest": h.hexdigest()}


class FlmTrain:
    """``rfl flm``, gaussian d=1, m in {2,4,8}: criterion 8 at a quarter of its epochs."""

    def __init__(self, seed: int, out: Path):
        self.out = out / "flm"
        self.argv = [
            "flm", "--kernel", "gaussian", "--sigma", "1", "--d", "1", "--m-list", "2,4,8",
            "--weight", "sin2pi", "--link", "tanh", "--n-samples", "4000",
            "--widths", "128,128", "--epochs", "100", "--seed", str(seed),
            "--threads", "1", "--out", str(self.out),
        ]

    def run(self):
        self.code = cli.run(self.argv)

    def check(self, reference: dict) -> dict:
        table = self.out / "tables" / "flm.csv"
        if self.code != 0 or not table.is_file():
            return {"attempted": 3, "failed": 3, "cert_rel_err_max": 1.0, "digest": ""}
        rows = _read_csv(table)
        failed = 0
        worst = 0.0
        for row in rows:
            vals = {k: float(row[k]) for k in ("term_I", "term_II", "total", "heldout_sup_error",
                                               "heldout_mean_abs", "power_sup", "c_f", "c_g")}
            ok = _finite(*vals.values()) and vals["total"] <= vals["term_I"] + vals["term_II"] + 1e-10
            failed += not ok
            worst = max(worst, _rel_err(vals["power_sup"], reference["flm"][row["m"]]))
        return {"attempted": len(rows), "failed": failed + (len(rows) != 3),
                "cert_rel_err_max": worst, "digest": _digest([table])}


class Project2d:
    """``rfl project``, gaussian d=2, m=8 (81 nodes), 1000 samples, 4096 Halton points.

    Stresses ``kernels.pairwise`` (about 93% of the time) and the memory of
    batching it.  Not listed in ``BENCHMARK.json``: its wall time varied by
    up to 20% between runs on a 2-core shared host (Intel Xeon, OpenBLAS
    with 2 threads), and the total run budget for four listed workloads
    leaves it two passes a run.
    """

    def __init__(self, seed: int, out: Path):
        self.out = out / "project"
        self.argv = [
            "project", "--kernel", "gaussian", "--sigma", "1", "--d", "2", "--m", "8",
            "--n-samples", "1000", "--seed", str(seed), "--threads", "1",
            "--out", str(self.out),
        ]

    def run(self):
        self.code = cli.run(self.argv)

    def check(self, reference: dict) -> dict:
        table = self.out / "tables" / "project.csv"
        report = self.out / "report.json"
        if self.code != 0 or not table.is_file():
            return {"attempted": 1000, "failed": 1000, "cert_rel_err_max": 1.0, "digest": ""}
        rows = _read_csv(table)
        failed = sum(
            not (_finite(r["norm"], r["sup_error"], r["bound"], r["ratio"])
                 and float(r["ratio"]) <= 1.0)
            for r in rows
        )
        payload = json.loads(report.read_text())
        report_ok = _finite(payload["max_ratio"], payload["power_sup"]) and payload["max_ratio"] <= 1.0
        return {"attempted": len(rows) + 1, "failed": failed + (not report_ok) + (len(rows) != 1000),
                "cert_rel_err_max": _rel_err(payload["power_sup"], reference["project_2d"]),
                "digest": _digest([table])}


WORKLOADS = {
    "eigen_sweep": EigenSweep,
    "certify": Certify,
    "flm_train": FlmTrain,
    "project_2d": Project2d,
}

# call counts fixed by each workload's config; the traced run must see them
EXPECTED_CALLS = {
    "eigen_sweep": {"spectral.check_eigen_lower_bound.calls": 48},
    "certify": {"rkhs.sample_unit_ball.calls": 1500, "rkhs.power_values.calls": 15},
    "flm_train": {"nets.gradient.calls": 3 * 100 * math.ceil(3200 / 64),
                  "rkhs.sample_unit_ball.calls": 3 * 4000},
    "project_2d": {"rkhs.sample_unit_ball.calls": 1000},
}
