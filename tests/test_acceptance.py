"""End-to-end acceptance checks, one per numbered criterion.

Each test evaluates its criterion at the stated tolerance, records a
[PASS]/[FAIL] line for the terminal summary, and asserts.  Seeds and
training configurations are fixed so reruns are bit-for-bit identical.
"""

from __future__ import annotations

import json
import time

import numpy as np

from rfl import (
    Kernel,
    PointSet,
    RkhsFunction,
    TargetFunctional,
    TrainConfig,
    build_gram,
    check_eigen_lower_bound,
    flm_experiment,
    forward_batch,
    generate_dataset,
    gradient,
    init,
    loss_mse,
    power_function_sup,
    power_values,
    project,
    rate_study_power,
    rkhs_inner,
    rkhs_norm,
    sample_unit_ball,
    train,
    uniform_grid,
)
from rfl.cli import run as cli_run

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)

FIVE_KERNELS = [
    Kernel("gaussian", sigma=0.5, dim=1),
    GAUSS,
    Kernel("sobolev", r=1.0, dim=1),
    Kernel("sobolev", r=2.0, dim=1),
    Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1),
]

M_VALUES = (2, 4, 8)
N_SAMPLES = 100


def _check(log, num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line)
    log(line)
    assert ok, line


def _ball_samples(kernel, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        child = int(rng.integers(0, 2**63 - 1))
        target = float(rng.uniform(0.2, 1.0))
        yield sample_unit_ball(kernel, 10, target, child)


def test_criterion_1_interpolation_orthogonality(acceptance_log):
    start = time.perf_counter()
    worst_resid = 0.0
    worst_ip = 0.0
    for kernel in FIVE_KERNELS:
        for m in M_VALUES:
            system = build_gram(kernel, uniform_grid(m, 1))
            nodes = system.points.points
            for f in _ball_samples(kernel, 101, N_SAMPLES):
                values = f.eval_at(nodes)
                pf = project(system, values)
                resid = float(np.abs(pf.eval_at(nodes) - values).max())
                worst_resid = max(worst_resid, resid)
                residual = RkhsFunction(
                    kernel,
                    np.vstack([f.centers, pf.centers]),
                    np.concatenate([f.coeffs, -pf.coeffs]),
                )
                for j in range(len(system)):
                    k_j = RkhsFunction(kernel, nodes[j : j + 1], np.array([1.0]))
                    worst_ip = max(worst_ip, abs(rkhs_inner(residual, k_j)))
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-8 and worst_ip <= 1e-8 and elapsed < 30.0
    _check(
        acceptance_log,
        1,
        "interpolation and orthogonality",
        ok,
        f"max node residual {worst_resid:.3e}, max inner product {worst_ip:.3e} "
        f"(tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_2_pointwise_bound(acceptance_log):
    start = time.perf_counter()
    eval_pts = PointSet(dim=1, points=((np.arange(2048) + 0.5) / 2048.0)[:, None])
    worst_ratio = 0.0
    violations = 0
    for kernel in FIVE_KERNELS:
        for m in M_VALUES:
            system = build_gram(kernel, uniform_grid(m, 1))
            pvals = power_values(system, eval_pts)
            for f in _ball_samples(kernel, 202, N_SAMPLES):
                pf = project(system, f.eval_at(system.points.points))
                err = np.abs(f.eval_at(eval_pts.points) - pf.eval_at(eval_pts.points))
                bound = rkhs_norm(f) * pvals * (1.0 + 1e-6)
                violations += int(np.any(err > bound))
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(bound > 0, err / bound, 0.0).max()
                worst_ratio = max(worst_ratio, float(ratio))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _check(
        acceptance_log,
        2,
        "pointwise error bound",
        ok,
        f"{violations} violations over 2048 points x 15 configs x 100 samples, "
        f"worst error/bound ratio {worst_ratio:.5f}, {elapsed:.1f}s",
    )


def test_criterion_3_power_decay_rates(acceptance_log):
    start = time.perf_counter()
    sob = rate_study_power(Kernel("sobolev", r=2.0, dim=1), [4, 8, 16, 32, 64])
    mq = rate_study_power(
        Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), [2, 4, 6, 8]
    )
    gauss = rate_study_power(GAUSS, [2, 4, 6, 8])
    elapsed = time.perf_counter() - start
    sob_ok = -3.5 <= sob.slope <= -2.5
    mq_ok = mq.slope < 0.0 and mq.r_squared >= 0.95
    gauss_ok = gauss.ratios_strictly_decreasing
    ok = sob_ok and mq_ok and gauss_ok and elapsed < 120.0
    _check(
        acceptance_log,
        3,
        "power-function decay rates",
        ok,
        f"sobolev slope {sob.slope:.4f} in [-3.5, -2.5]; multiquadric slope "
        f"{mq.slope:.4f} with R^2 {mq.r_squared:.4f}; gaussian ratios "
        f"{[f'{r:.4g}' for r in gauss.ratios]} strictly decreasing: "
        f"{gauss_ok}, {elapsed:.1f}s",
    )


def test_criterion_4_eigenvalue_lower_bound(acceptance_log):
    start = time.perf_counter()
    configs = [
        Kernel("gaussian", sigma=1.0, dim=1),
        Kernel("gaussian", sigma=1.0, dim=2),
        Kernel("sobolev", r=1.0, dim=1),
        Kernel("sobolev", r=2.0, dim=1),
    ]
    failures = []
    pow_d_all = True
    for kernel in configs:
        for m in range(1, 13):
            report = check_eigen_lower_bound(kernel, m)
            if not report.bound_satisfied:
                failures.append((kernel.family, kernel.dim, m))
            pow_d_all = pow_d_all and report.bound_m_pow_d_satisfied
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _check(
        acceptance_log,
        4,
        "spectral lower bound",
        ok,
        f"lambda_min >= m Gamma_m for 4 kernels x m in 1..12, failures: "
        f"{failures or 'none'}; m^d variant satisfied everywhere: {pow_d_all}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_gradient_check(acceptance_log):
    start = time.perf_counter()
    shapes = [(2, (5, 4)), (3, (4, 6)), (1, (6, 3)), (4, (3, 5)), (5, (4, 4))]
    worst = 0.0
    rng = np.random.default_rng(55)
    for seed, (dim, widths) in enumerate(shapes):
        net = init(dim, widths, seed=seed)
        X = rng.standard_normal((5, dim))
        y = rng.standard_normal(5)
        grads = gradient(net, X, y)
        eps = 1e-6
        for p, g in zip(net.parameters(), grads):
            flat_p, flat_g = p.ravel(), g.ravel()
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + eps
                up = 0.5 * loss_mse(net, X, y)
                flat_p[idx] = orig - eps
                down = 0.5 * loss_mse(net, X, y)
                flat_p[idx] = orig
                fd = (up - down) / (2.0 * eps)
                denom = max(abs(fd), abs(flat_g[idx]), 1e-10)
                worst = max(worst, abs(fd - flat_g[idx]) / denom)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _check(
        acceptance_log,
        5,
        "gradient check",
        ok,
        f"worst relative deviation from central differences {worst:.3e} "
        f"(tol 1e-6) on 5 networks, {elapsed:.1f}s",
    )


def test_criterion_6_projection_term_bound(acceptance_log):
    start = time.perf_counter()
    functionals = [
        TargetFunctional(kind="gflm", beta="sin2pi", link="tanh"),
        TargetFunctional(kind="l2_energy"),
    ]
    worst_ratio = 0.0
    ok = True
    for functional in functionals:
        c_f = functional.holder_constant(GAUSS)
        s = functional.holder_exponent()
        for m in M_VALUES:
            system = build_gram(GAUSS, uniform_grid(m, 1))
            eps = power_function_sup(system)
            allowed = c_f * eps**s * (1.0 + 1e-3)
            worst = 0.0
            for f in _ball_samples(GAUSS, 303, 200):
                pf = project(system, f.eval_at(system.points.points))
                worst = max(worst, abs(functional.value(f) - functional.value(pf)))
            ok = ok and worst <= allowed
            if allowed > 0:
                worst_ratio = max(worst_ratio, worst / allowed)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _check(
        acceptance_log,
        6,
        "projection-term bound",
        ok,
        f"sup |F(f) - F(Pf)| within C_F eps^s for 2 functionals x 3 grids x "
        f"200 samples, worst ratio {worst_ratio:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_linear_functional_training(acceptance_log):
    start = time.perf_counter()
    functional = TargetFunctional(kind="linear_integral", beta="one")
    dataset = generate_dataset(GAUSS, functional, m=8, n_samples=2000, seed=11)
    baseline = float(np.mean(np.abs(dataset.heldout_y - dataset.train_y.mean())))

    def run_width(widths):
        config = TrainConfig(epochs=400, widths=widths, seed=11)
        net = init(dataset.inputs.shape[1], widths, seed=11)
        return train(net, dataset, config)

    main = run_width((64, 64))
    factor = baseline / main.heldout_mean_abs
    sups = [run_width(w).heldout_sup_error for w in ((8, 8), (32, 32), (128, 128))]
    band = all(b <= a * 1.2 for a, b in zip(sups, sups[1:]))
    elapsed = time.perf_counter() - start
    ok = factor >= 10.0 and band and elapsed < 300.0
    _check(
        acceptance_log,
        7,
        "end-to-end linear-functional training",
        ok,
        f"(64,64) beats best-constant baseline {factor:.0f}x (need 10x); "
        f"held-out sup errors across widths {[f'{s:.4g}' for s in sups]} "
        f"nonincreasing within 20%: {band}, {elapsed:.1f}s",
    )


def test_criterion_8_regression_map_trend(acceptance_log):
    start = time.perf_counter()
    config = TrainConfig(epochs=400, widths=(128, 128), seed=0)
    experiment = flm_experiment("sin2pi", "tanh", GAUSS, [2, 4, 8], config, 4000)
    triangle_ok = all(
        row.total <= row.term_I + row.term_II + 1e-10 for row in experiment.rows
    )
    sups = [row.heldout_sup_error for row in experiment.rows]
    elapsed = time.perf_counter() - start
    ok = experiment.sup_trend_nonincreasing and triangle_ok and elapsed < 600.0
    _check(
        acceptance_log,
        8,
        "regression-map trend",
        ok,
        f"held-out sup errors {[f'{s:.4g}' for s in sups]} nonincreasing within "
        f"20%: {experiment.sup_trend_nonincreasing}; decomposition triangle "
        f"inequality: {triangle_ok}, {elapsed:.1f}s",
    )


def test_criterion_9_deterministic_outputs(acceptance_log, tmp_path):
    start = time.perf_counter()
    jobs = {
        "rates": ["rates", "--kernel", "gaussian", "--sigma", "1.0", "--d", "1",
                  "--m-list", "2,4,6,8"],
        "eigen": ["eigen", "--kernel", "sobolev", "--r", "2.0", "--d", "1",
                  "--m-list", "1,2,3,4"],
        "train": ["train", "--kernel", "gaussian", "--sigma", "1.0", "--d", "1",
                  "--m", "2", "--weight", "sin2pi", "--link", "tanh",
                  "--n-samples", "40", "--epochs", "3", "--widths", "8,8",
                  "--seed", "5"],
        "flm": ["flm", "--kernel", "gaussian", "--sigma", "1.0", "--d", "1",
                "--m-list", "1,2", "--weight", "sin2pi", "--link", "tanh",
                "--n-samples", "30", "--epochs", "3", "--widths", "8,8"],
    }
    mismatches = []
    for name, args in jobs.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert cli_run([*args, "--out", str(out_a)]) == 0
        assert cli_run([*args, "--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert "report.json" in map(str, files_a)
        if files_a != files_b:
            mismatches.append(f"{name}: file lists differ")
        for rel in files_a:
            if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
                mismatches.append(f"{name}/{rel}")
    # library-level determinism: identical seeds give identical predictions
    functional = TargetFunctional(kind="l2_energy")
    ds_a = generate_dataset(GAUSS, functional, 2, 30, seed=3)
    ds_b = generate_dataset(GAUSS, functional, 2, 30, seed=3)
    net_a = init(3, (8, 8), seed=3)
    net_b = init(3, (8, 8), seed=3)
    cfg = TrainConfig(epochs=3, widths=(8, 8), seed=3)
    train(net_a, ds_a, cfg)
    train(net_b, ds_b, cfg)
    library_ok = (
        np.array_equal(forward_batch(net_a, ds_a.inputs), forward_batch(net_b, ds_b.inputs))
        and np.array_equal(ds_a.inputs, ds_b.inputs)
        and np.array_equal(ds_a.targets, ds_b.targets)
        and ds_a.n_train == ds_b.n_train
    )
    elapsed = time.perf_counter() - start
    ok = not mismatches and library_ok
    _check(
        acceptance_log,
        9,
        "deterministic outputs",
        ok,
        f"byte-identical output reruns for {list(jobs)} "
        f"(mismatches: {mismatches or 'none'}); library rerun identical: "
        f"{library_ok}, {elapsed:.1f}s",
    )


def test_acceptance_report_is_json_serializable(tmp_path):
    # the nine criteria above print their lines; this guard keeps the CLI
    # report of a representative run loadable, which the studies rely on
    out = tmp_path / "probe"
    assert (
        cli_run(
            ["rates", "--kernel", "gaussian", "--sigma", "1.0", "--d", "1",
             "--m-list", "2,4,6,8", "--out", str(out)]
        )
        == 0
    )
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "rates"
