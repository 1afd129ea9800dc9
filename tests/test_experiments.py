"""Dataset generation, error decomposition, rate studies, and metadata."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import rfl.experiments
import rfl.nets
import rfl.rkhs
from rfl import (
    ArgumentError,
    Dataset,
    DivergenceError,
    Kernel,
    TargetFunctional,
    TrainConfig,
    TrainReport,
    UnsupportedConfigurationError,
    error_decomposition,
    flm_experiment,
    generate_dataset,
    kernel_label,
    rate_study_eigen,
    rate_study_power,
    theorem_metadata,
)
from rfl.rkhs import DEFAULT_SAMPLE_CENTERS

GAUSS = Kernel("gaussian", sigma=1.0, dim=1)
ENERGY = TargetFunctional(kind="l2_energy")
LINEAR = TargetFunctional(kind="linear_integral", beta="one")
GFLM = TargetFunctional(kind="gflm", beta="sin2pi", link="tanh")


def test_kernel_label():
    assert kernel_label(GAUSS) == "gaussian(sigma=1.0,d=1)"
    assert (
        kernel_label(Kernel("inverse_multiquadric", sigma=1.0, beta=1.5, dim=2))
        == "inverse_multiquadric(sigma=1.0,beta=1.5,d=2)"
    )
    assert kernel_label(Kernel("sobolev", r=2.0, dim=1)) == "sobolev(r=2.0,d=1)"


def test_generate_dataset_shapes_and_split():
    ds = generate_dataset(GAUSS, ENERGY, m=2, n_samples=50, seed=7)
    assert isinstance(ds, Dataset)
    assert len(ds) == 50
    assert ds.n_train == 40
    assert ds.inputs.shape == (50, 3)
    assert ds.targets.shape == (50,)
    assert ds.train_x.shape == (40, 3)
    assert ds.heldout_x.shape == (10, 3)
    assert ds.grid.grid_m == 2


def test_generate_dataset_rows_recompute():
    ds = generate_dataset(GAUSS, ENERGY, m=2, n_samples=10, seed=3)
    draws = rfl.experiments._unit_ball_draws(GAUSS, 10, 3, DEFAULT_SAMPLE_CENTERS)
    for i, f in enumerate(draws):
        assert np.array_equal(ds.inputs[i], f.eval_at(ds.grid.points))
        assert ds.targets[i] == ENERGY.value(f)


def test_generate_dataset_deterministic():
    a = generate_dataset(GAUSS, ENERGY, m=2, n_samples=20, seed=11)
    b = generate_dataset(GAUSS, ENERGY, m=2, n_samples=20, seed=11)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = generate_dataset(GAUSS, ENERGY, m=2, n_samples=20, seed=12)
    assert not np.array_equal(a.inputs, c.inputs)


def test_generate_dataset_validation():
    with pytest.raises(ArgumentError):
        generate_dataset(GAUSS, ENERGY, m=2, n_samples=0, seed=0)
    with pytest.raises(ArgumentError):
        generate_dataset(GAUSS, ENERGY, m=2, n_samples=10, seed=-1)
    # True drew the dataset of seed 1
    with pytest.raises(ArgumentError, match="seed"):
        generate_dataset(GAUSS, ENERGY, m=2, n_samples=10, seed=True)


@pytest.mark.parametrize("n_samples", [True, False, 10.5, 0.0])
def test_generate_dataset_rejects_bool_sample_count(n_samples):
    # n_samples=True used to return a one-row dataset
    with pytest.raises(ArgumentError, match="n_samples"):
        generate_dataset(GAUSS, ENERGY, m=2, n_samples=n_samples, seed=0)


def test_generate_dataset_rejects_non_integral_and_bool_grid_sizes():
    for m in (2.9, True):
        with pytest.raises(ArgumentError):
            generate_dataset(GAUSS, ENERGY, m=m, n_samples=5, seed=0)
    assert generate_dataset(GAUSS, ENERGY, m=2.0, n_samples=5, seed=0).grid.grid_m == 2


def test_error_decomposition_triangle_and_fields():
    config = TrainConfig(epochs=5, widths=(8, 8), seed=0)
    ds = generate_dataset(GAUSS, ENERGY, m=2, n_samples=40, seed=config.seed)
    dec = error_decomposition(ds, config)
    assert dec.total <= dec.term_I + dec.term_II + 1e-10
    assert dec.term_I >= 0.0 and dec.term_II >= 0.0 and dec.total >= 0.0
    assert dec.c_f == ENERGY.holder_constant(GAUSS)
    assert dec.power_sup > 0.0
    assert isinstance(dec.train_report, TrainReport)
    assert dec.to_json()["term_I"] == dec.term_I


def test_error_decomposition_uses_the_dataset_kernel_grid_and_functional(monkeypatch):
    config = TrainConfig(epochs=2, widths=(4, 4), seed=0)
    ds = generate_dataset(GAUSS, LINEAR, m=8, n_samples=20, seed=config.seed)
    grams = []
    original = rfl.experiments.build_gram

    def recording(kernel, points):
        grams.append((kernel, points))
        return original(kernel, points)

    monkeypatch.setattr(rfl.experiments, "build_gram", recording)
    dec = error_decomposition(ds, config)
    assert grams == [(ds.kernel, ds.grid)]
    assert dec.c_f == ds.functional.holder_constant(ds.kernel)
    # targets and F(Pf) both use the dataset's functional; an l2_energy
    # F(Pf) against these linear-integral targets would differ by O(1)
    assert dec.term_I < 1e-9


def test_rate_study_power_sobolev_frozen():
    study = rate_study_power(Kernel("sobolev", r=2.0, dim=1), [4, 8, 16, 32, 64])
    assert study.fit_kind == "log_sup_sq_vs_log_m"
    assert study.slope == pytest.approx(-2.8235345161454632, rel=1e-6)
    assert study.r_squared >= 0.999
    assert all(b < a for a, b in zip(study.sups, study.sups[1:]))
    assert study.eval_resolution is None
    header, rows = study.table()
    assert header == ["kernel", "m", "M", "seed", "sup_power"]
    assert len(rows) == 5
    assert rows[0][0] == "sobolev(r=2.0,d=1)"
    assert rows[0][1] == 4


def test_rate_study_power_multiquadric():
    study = rate_study_power(
        Kernel("inverse_multiquadric", sigma=1.0, beta=1.0, dim=1), [2, 4, 6, 8]
    )
    assert study.fit_kind == "log_sup_sq_vs_m"
    assert study.slope < 0.0
    assert study.r_squared >= 0.95


def test_rate_study_power_gaussian():
    study = rate_study_power(GAUSS, [2, 4, 6, 8])
    assert study.fit_kind == "log_sup_sq_vs_m_log_m"
    assert study.ratios_strictly_decreasing
    assert len(study.ratios) == 3
    assert study.ratios[0] == pytest.approx(
        study.sups[1] / study.sups[0], rel=1e-12
    )


def test_rate_study_power_validation():
    with pytest.raises(ArgumentError):
        rate_study_power(GAUSS, [2, 4, 6])
    with pytest.raises(ArgumentError):
        rate_study_power(GAUSS, [2, 4, 4, 8])


@pytest.mark.parametrize(
    "m_list, eval_resolution",
    [
        ([1.5, 2.5, 3.5, 4.5], None),  # used to report m = 1, 2, 3, 4
        ([1, 2, 3, True], None),
        ([2, 4, 6, 8], 64.7),  # used to evaluate on the grid of 64
        ([2, 4, 6, 8], True),
    ],
)
def test_rate_study_power_rejects_non_integral_sizes(m_list, eval_resolution):
    with pytest.raises(ArgumentError, match="must be an integer"):
        rate_study_power(GAUSS, m_list, eval_resolution=eval_resolution)


def test_rate_study_power_divergence():
    # an extremely flat kernel pins every sup at the jitter floor, so the
    # fitted slope is nonnegative
    flat = Kernel("gaussian", sigma=500.0, dim=1)
    with pytest.raises(DivergenceError):
        rate_study_power(flat, [1, 2, 3, 4])


def test_rate_study_eigen():
    study = rate_study_eigen(Kernel("sobolev", r=1.0, dim=1), [1, 2, 3])
    assert study.d == 1
    assert [r.m for r in study.reports] == [1, 2, 3]
    assert all(r.bound_satisfied for r in study.reports)
    header, rows = study.table()
    assert header == [
        "kernel",
        "m",
        "d",
        "lambda_min",
        "m_gamma",
        "m_pow_d_gamma",
        "satisfied",
    ]
    assert rows[1][1] == 2
    assert rows[1][6] is True
    obj = study.to_json()
    assert len(obj["reports"]) == 3


@pytest.mark.parametrize("m_list", [[2.9, 3.5], [True, 2]])
def test_rate_study_eigen_rejects_non_integral_sizes(m_list):
    # [2.9, 3.5] used to report m = 2, 3
    with pytest.raises(ArgumentError, match="must be an integer"):
        rate_study_eigen(Kernel("sobolev", r=1.0, dim=1), m_list)


def test_rate_study_eigen_accepts_integral_floats():
    study = rate_study_eigen(Kernel("sobolev", r=1.0, dim=1), [2.0, np.int64(3)])
    assert [r.m for r in study.reports] == [2, 3]
    assert study.d == 1


def test_flm_experiment_smoke():
    config = TrainConfig(epochs=3, widths=(8, 8), seed=0)
    exp = flm_experiment("sin2pi", "tanh", GAUSS, [1, 2], config, n_samples=30)
    assert [r.m for r in exp.rows] == [1, 2]
    assert exp.rows[0].n_nodes == 2
    assert exp.rows[1].n_nodes == 3
    for row in exp.rows:
        assert row.total <= row.term_I + row.term_II + 1e-10
        assert row.c_f == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert row.c_g >= row.c_f
        assert row.power_sup > 0.0
    assert isinstance(exp.sup_trend_nonincreasing, bool)
    header, rows = exp.table()
    assert header[:4] == ["kernel", "m", "M", "seed"]
    assert len(rows) == 2
    assert exp.to_json()["n_samples"] == 30


def test_flm_experiment_builds_one_gram_system_per_grid_size(monkeypatch):
    built = []
    original = rfl.experiments.build_gram

    def counting(kernel, points):
        built.append(original(kernel, points))
        return built[-1]

    monkeypatch.setattr(rfl.experiments, "build_gram", counting)
    config = TrainConfig(epochs=1, widths=(4, 4), seed=0)
    exp = flm_experiment("sin2pi", "tanh", GAUSS, [1, 2], config, n_samples=20)
    assert len(built) == 2
    assert [r.n_nodes for r in exp.rows] == [len(s) for s in built]
    assert [r.jitter_used for r in exp.rows] == [s.jitter_used for s in built]
    ds = generate_dataset(GAUSS, ENERGY, m=2, n_samples=20, seed=config.seed)
    dec = error_decomposition(ds, config)
    assert dec.system is built[-1]
    assert "system" not in dec.to_json()


@pytest.mark.parametrize(
    "m_list, n_samples",
    [([2.9], 10), ([2], 10.7), ([True], 10), ([2], True)],
)
def test_flm_experiment_rejects_non_integral_sizes(m_list, n_samples):
    # m_list=[2.9], n_samples=10.7 used to run m = 2 on 10 samples
    config = TrainConfig(epochs=1, widths=(4, 4), seed=0)
    with pytest.raises(ArgumentError, match="must be an integer"):
        flm_experiment("sin2pi", "tanh", GAUSS, m_list, config, n_samples=n_samples)


def _decomposition_per_sample(dataset, config):
    """The error decomposition through per-sample projections and a loss-curve training."""
    system = rfl.rkhs.build_gram(dataset.kernel, dataset.grid)
    projected = np.array(
        [dataset.functional.value(rfl.rkhs.project(system, row)) for row in dataset.inputs]
    )
    net = rfl.nets.init(len(system), config.widths, config.seed)
    report = rfl.nets.train(net, dataset, config)
    preds = rfl.nets.forward_batch(net, dataset.inputs)
    return (
        float(np.abs(dataset.targets - projected).max()),
        float(np.abs(projected - preds).max()),
        float(np.abs(dataset.targets - preds).max()),
        report,
    )


@pytest.mark.parametrize("functional", [ENERGY, LINEAR, GFLM])
def test_error_decomposition_matches_per_sample_route(functional):
    config = TrainConfig(epochs=4, batch_size=16, widths=(8, 8), seed=2)
    ds = generate_dataset(GAUSS, functional, m=4, n_samples=60, seed=config.seed)
    term_i, term_ii, total, report = _decomposition_per_sample(ds, config)
    dec = error_decomposition(ds, config)
    assert [dec.term_I, dec.term_II, dec.total] == [term_i, term_ii, total]
    assert dec.train_report.loss_curve == []
    assert report.loss_curve != []
    assert dataclasses.replace(dec.train_report, loss_curve=report.loss_curve) == report


def test_flm_experiment_matches_per_grid_datasets():
    # the first grid's targets serve every grid, so the rows equal those of
    # datasets drawn grid by grid
    config = TrainConfig(epochs=2, batch_size=16, widths=(6, 6), seed=3)
    exp = flm_experiment("sin2pi", "tanh", GAUSS, [1, 2, 4], config, n_samples=40)
    for row in exp.rows:
        ds = generate_dataset(GAUSS, GFLM, m=row.m, n_samples=40, seed=config.seed)
        term_i, term_ii, total, report = _decomposition_per_sample(ds, config)
        assert [row.term_I, row.term_II, row.total] == [term_i, term_ii, total]
        assert row.heldout_sup_error == report.heldout_sup_error
        assert row.heldout_mean_abs == report.heldout_mean_abs


def test_flm_experiment_draws_every_grid_but_evaluates_targets_once(monkeypatch):
    draws, values = [], []
    sample, value = rfl.experiments.sample_unit_ball, TargetFunctional.value

    def counting_sample(*args):
        draws.append(args)
        return sample(*args)

    def counting_value(self, f):
        values.append(f)
        return value(self, f)

    monkeypatch.setattr(rfl.experiments, "sample_unit_ball", counting_sample)
    monkeypatch.setattr(TargetFunctional, "value", counting_value)
    config = TrainConfig(epochs=1, widths=(4, 4), seed=0)
    flm_experiment("sin2pi", "tanh", GAUSS, [1, 2, 4], config, n_samples=25)
    assert len(draws) == 3 * 25
    assert len(values) == 25


def test_theorem_metadata_sobolev_frozen():
    meta = theorem_metadata("sobolev", 64)
    assert meta["m"] == 2
    assert meta["N"] == 3
    assert meta["widths"] == [189, 196608000]
    # M^{-(2r-d)/(2(2r-1))} = 64^{-1/2}
    assert meta["error_bound_factor"] == pytest.approx(0.125, rel=1e-12)
    # parameter count recomputed from the schedule formula
    w1, w2 = meta["widths"]
    assert meta["param_count_bound"] == w1 * 4 + w2 * (w1 + 1) + w2
    assert meta["param_count_bound_float"] == float(meta["param_count_bound"])
    assert meta["params"]["r"] == 2.0


def test_theorem_metadata_multiquadric_frozen():
    meta = theorem_metadata("multiquadric", 22026)
    assert meta["m"] == 1
    assert meta["N"] == 2
    assert meta["theorem"] == "multiquadric"
    assert meta["error_bound_factor"] > 0.0


def test_theorem_metadata_gaussian():
    ms = [theorem_metadata("gaussian", M)["m"] for M in (100, 10000, 1000000)]
    assert all(m >= 1 for m in ms)
    assert all(b >= a for a, b in zip(ms, ms[1:]))
    meta = theorem_metadata("gaussian", 100, params={"sigma": 0.5})
    assert meta["N"] == (meta["m"] + 1) ** meta["params"]["d"]
    assert isinstance(meta["m_expression"], str)
    assert isinstance(meta["error_bound_expression"], str)


def test_theorem_metadata_validation():
    with pytest.raises(ArgumentError):
        theorem_metadata("fourier", 64)
    with pytest.raises(ArgumentError):
        theorem_metadata("sobolev", 1)
    with pytest.raises(ArgumentError):
        theorem_metadata("sobolev", 64, params={"s": 1.5})
    with pytest.raises(UnsupportedConfigurationError):
        theorem_metadata("multiquadric", 64, params={"d": 5})
    # constants the formulas cannot take, including a sobolev r <= d/2 and an M
    # past the float range
    for theorem, M, params in [
        ("sobolev", 64, {"r": 0.5}),
        ("sobolev", 64, {"r": 0.75, "d": 2}),
        ("sobolev", 64, {"r": math.nan}),
        ("gaussian", 64, {"sigma": math.inf}),
        ("gaussian", 64, {"d": 2.5}),
        ("gaussian", 64, {"sigma": 1e200}),
        ("sobolev", 10**400, {}),
        # the exact parameter bound would need more than 4300 digits: the first
        # is caught before (5M)^N is computed, the second right after
        ("sobolev", 10**300, {}),
        ("sobolev", 453000, {"r": 1.0}),
        # sigma, beta and c must be positive, as the CLI schema requires
        ("gaussian", 64, {"c": -1.0}),
        ("multiquadric", 64, {"sigma": -0.1}),
        ("gaussian", 64, {"sigma": -1.0}),
        ("gaussian", 64, {"sigma": 0.0}),
        ("multiquadric", 64, {"beta": 0.0}),
        ("sobolev", 64, {"c": 0.0}),
    ]:
        with pytest.raises(ArgumentError):
            theorem_metadata(theorem, M, params=params)
    assert theorem_metadata("gaussian", 64, params={"d": 2.0})["params"]["d"] == 2
