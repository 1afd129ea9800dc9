"""Width schedule, forward pass, backprop, and the training loop."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

import rfl.nets
from rfl import (
    ArgumentError,
    DivergenceError,
    TanhNetwork,
    TrainConfig,
    TrainReport,
    forward_batch,
    gradient,
    init,
    loss_mse,
    theoretical_widths,
    train,
)


def test_theoretical_widths_frozen():
    ws = theoretical_widths(1, 10)
    assert (ws.w1, ws.w2) == (9, 60)
    # 9 * 2 + 60 * 10 + 60
    assert ws.param_count_bound == 678
    ws2 = theoretical_widths(2, 25)
    assert (ws2.w1, ws2.w2) == (48, 93750)
    assert theoretical_widths(3, 46).w1 == 135


def test_theoretical_widths_hypothesis_warning():
    with pytest.warns(UserWarning):
        theoretical_widths(2, 20)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theoretical_widths(2, 21)


def test_theoretical_widths_validation():
    with pytest.raises(ArgumentError):
        theoretical_widths(0, 10)
    with pytest.raises(ArgumentError):
        theoretical_widths(1, 1)
    # True was read as N = 1
    with pytest.raises(ArgumentError, match="positive integer"):
        theoretical_widths(True, 10)


def test_init_shapes_and_glorot_bounds():
    net = init(3, (7, 5), seed=0)
    assert net.input_dim == 3
    assert net.W1.shape == (7, 3)
    assert net.b1.shape == (7,)
    assert net.W2.shape == (5, 7)
    assert net.b2.shape == (5,)
    assert net.a.shape == (5,)
    assert np.all(net.b1 == 0.0) and np.all(net.b2 == 0.0)
    assert np.abs(net.W1).max() <= math.sqrt(6.0 / (3 + 7))
    assert np.abs(net.W2).max() <= math.sqrt(6.0 / (7 + 5))
    assert np.abs(net.a).max() <= math.sqrt(6.0 / (5 + 1))
    assert net.widths == (7, 5)
    assert net.param_count == 7 * 3 + 7 + 5 * 7 + 5 + 5


def test_init_deterministic():
    a = init(2, (4, 4), seed=9)
    b = init(2, (4, 4), seed=9)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    c = init(2, (4, 4), seed=10)
    assert not np.array_equal(a.W1, c.W1)


def test_init_validation():
    with pytest.raises(ArgumentError):
        init(0, (4, 4), seed=0)
    with pytest.raises(ArgumentError):
        init(2, (0, 4), seed=0)
    # True was read as one input
    with pytest.raises(ArgumentError, match="positive integer"):
        init(True, (2, 2), seed=0)


def test_forward_frozen_composition():
    net = TanhNetwork(
        input_dim=1,
        W1=np.array([[1.0]]),
        b1=np.zeros(1),
        W2=np.array([[1.0]]),
        b2=np.zeros(1),
        a=np.array([1.0]),
    )
    out = forward_batch(net, np.array([[0.5], [0.0]]))
    assert out[0] == pytest.approx(0.4318081805950961, rel=1e-15)
    assert out[1] == 0.0


def test_forward_batch_matches_single():
    net = init(4, (6, 5), seed=1)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 4))
    batch = forward_batch(net, X)
    for i in range(10):
        assert batch[i] == pytest.approx(forward_batch(net, X[i : i + 1])[0], rel=1e-14)


def test_output_bounded_by_outer_weights():
    net = init(3, (8, 8), seed=4)
    bound = float(np.abs(net.a).sum())
    rng = np.random.default_rng(5)
    X = rng.uniform(-50, 50, (200, 3))
    assert np.abs(forward_batch(net, X)).max() <= bound


def test_forward_validation():
    net = init(3, (4, 4), seed=0)
    with pytest.raises(ArgumentError):
        forward_batch(net, np.zeros((1, 2)))
    with pytest.raises(ArgumentError):
        forward_batch(net, np.zeros((2, 4)))


def test_gradient_matches_central_differences():
    net = init(2, (5, 4), seed=3)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    grads = gradient(net, X, y)

    def loss():
        return 0.5 * loss_mse(net, X, y)

    eps = 1e-6
    for p, g in zip(net.parameters(), grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + eps
            up = loss()
            flat_p[idx] = orig - eps
            down = loss()
            flat_p[idx] = orig
            fd = (up - down) / (2.0 * eps)
            denom = max(abs(fd), abs(flat_g[idx]), 1e-10)
            assert abs(fd - flat_g[idx]) / denom <= 1e-6


def reference_gradient(net, X, y):
    """Backprop with its own inline forward pass: the oracle for ``gradient``."""
    n = X.shape[0]
    H1 = np.tanh(X @ net.W1.T - net.b1)
    H2 = np.tanh(H1 @ net.W2.T - net.b2)
    e = (H2 @ net.a - y) / n
    d2 = (e[:, None] * net.a[None, :]) * (1.0 - H2 * H2)
    d1 = (d2 @ net.W2) * (1.0 - H1 * H1)
    return [d1.T @ X, -d1.sum(axis=0), d2.T @ H1, -d2.sum(axis=0), H2.T @ e]


@pytest.mark.parametrize(
    "n, dim, widths", [(1, 9, (128, 128)), (64, 9, (128, 128)), (17, 3, (32, 16))]
)
def test_gradient_bit_identical_to_inline_forward_pass(n, dim, widths):
    net = init(dim, widths, seed=5)
    rng = np.random.default_rng(n)
    net.b1[...] = rng.standard_normal(widths[0])
    net.b2[...] = rng.standard_normal(widths[1])
    X = rng.uniform(-1.0, 1.0, (n, dim))
    y = rng.standard_normal(n)
    for got, want in zip(gradient(net, X, y), reference_gradient(net, X, y), strict=True):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_gradient_validation():
    net = init(2, (3, 3), seed=0)
    with pytest.raises(ArgumentError):
        gradient(net, np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ArgumentError):
        gradient(net, np.zeros((3, 2)), np.zeros(2))


def test_loss_mse():
    net = init(2, (3, 3), seed=0)
    X = np.zeros((4, 2))
    y = np.full(4, 2.0)
    # net output at 0 is 0, so the MSE is 4
    assert loss_mse(net, X, y) == pytest.approx(4.0, rel=1e-12)


def _four_rows():
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 3))
    return init(3, (4, 4), seed=0), X, np.array([0.5, -1.0, 2.0, 1.5])


def test_loss_mse_rejects_column_targets():
    # an (n, 1) column broadcast against the (n,) outputs into an (n, n) residual
    net, X, y = _four_rows()
    with pytest.raises(ArgumentError):
        loss_mse(net, X, y[:, None])


def test_gradient_rejects_column_targets():
    # a column of targets gave gradients of the wrong shapes, e.g. (4, 4, 3) for W1
    net, X, y = _four_rows()
    with pytest.raises(ArgumentError):
        gradient(net, X, y[:, None])


def test_gradient_rejects_feature_count_mismatch():
    # five features for a two-input network, rejected as forward_batch rejects them
    with pytest.raises(ArgumentError):
        gradient(init(2, (3, 3), seed=0), np.zeros((3, 5)), np.zeros(3))


def test_loss_mse_rejects_target_length_mismatch():
    net, X, y = _four_rows()
    with pytest.raises(ArgumentError):
        loss_mse(net, X, y[:3])


def tiny_dataset(n=256, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 1))
    y = 0.3 * np.sin(2.0 * x[:, 0])
    cut = int(0.8 * n)
    return SimpleNamespace(
        train_x=x[:cut], train_y=y[:cut], heldout_x=x[cut:], heldout_y=y[cut:]
    )


def test_train_reduces_loss_and_reports():
    data = tiny_dataset()
    net = init(1, (16, 16), seed=0)
    before = loss_mse(net, data.train_x, data.train_y)
    config = TrainConfig(epochs=60, widths=(16, 16), seed=0)
    report = train(net, data, config)
    assert report.final_train_mse < before / 10.0
    assert len(report.loss_curve) == 60
    assert report.loss_curve[-1] == pytest.approx(report.final_train_mse, rel=1e-12)
    assert report.param_count == net.param_count
    assert report.epochs == 60
    assert report.seed == 0
    assert math.isfinite(report.heldout_sup_error)
    assert report.heldout_mean_abs <= report.heldout_sup_error


def test_train_deterministic():
    data = tiny_dataset()
    config = TrainConfig(epochs=20, widths=(8, 8), seed=5)
    net_a = init(1, (8, 8), seed=1)
    rep_a = train(net_a, data, config)
    net_b = init(1, (8, 8), seed=1)
    rep_b = train(net_b, data, config)
    assert rep_a.loss_curve == rep_b.loss_curve
    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(pa, pb)


def test_train_zero_epochs():
    data = tiny_dataset()
    net = init(1, (4, 4), seed=0)
    before = loss_mse(net, data.train_x, data.train_y)
    report = train(net, data, TrainConfig(epochs=0, widths=(4, 4)))
    assert report.loss_curve == []
    assert report.final_train_mse == pytest.approx(before, rel=1e-14)


def test_train_empty_heldout_gives_nan():
    data = tiny_dataset()
    data.heldout_x = np.zeros((0, 1))
    data.heldout_y = np.zeros(0)
    report = train(init(1, (4, 4), seed=0), data, TrainConfig(epochs=2, widths=(4, 4)))
    assert math.isnan(report.heldout_sup_error)
    assert math.isnan(report.heldout_mean_abs)


def test_train_empty_train_set():
    data = SimpleNamespace(
        train_x=np.zeros((0, 1)),
        train_y=np.zeros(0),
        heldout_x=np.zeros((0, 1)),
        heldout_y=np.zeros(0),
    )
    with pytest.raises(ArgumentError):
        train(init(1, (4, 4), seed=0), data, TrainConfig(epochs=1, widths=(4, 4)))


def test_train_divergence():
    # residuals of order 1e200 overflow the squared loss immediately
    data = tiny_dataset()
    data.train_y = np.full_like(data.train_y, 1e200)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        train(init(1, (4, 4), seed=0), data, TrainConfig(epochs=1, widths=(4, 4)))


def test_train_config_validation():
    with pytest.raises(ArgumentError):
        TrainConfig(epochs=-1)
    with pytest.raises(ArgumentError):
        TrainConfig(batch_size=0)
    with pytest.raises(ArgumentError):
        TrainConfig(lr_schedule="step")
    assert TrainConfig().lr_schedule == "cosine"
    # Adam's constants are fixed, not settings
    with pytest.raises(TypeError):
        TrainConfig(beta1=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", -1e-3),
        ("learning_rate", 0.0),
        ("learning_rate", math.inf),
        ("learning_rate", math.nan),
        ("seed", -1),
        ("epochs", 3.0),
        ("batch_size", 8.0),
        ("seed", 1.0),
        ("epochs", True),
        pytest.param("widths", (5,), id="widths-one"),
        pytest.param("widths", (5, 5, 5), id="widths-three"),
        pytest.param("widths", (2.5, 3), id="widths-float"),
        pytest.param("widths", (True, 4), id="widths-bool"),
    ],
)
def test_train_config_rejects_optimizer_settings(field, value):
    with pytest.raises(ArgumentError, match=field):
        TrainConfig(**{field: value})


def test_report_and_config_json():
    cfg = TrainConfig(epochs=5, widths=(4, 4))
    obj = cfg.to_json()
    assert obj["epochs"] == 5 and obj["widths"] == [4, 4]
    assert set(obj) == {"epochs", "batch_size", "learning_rate", "seed", "widths", "lr_schedule"}
    report = TrainReport(
        epochs=1,
        final_train_mse=0.5,
        heldout_sup_error=0.1,
        heldout_mean_abs=0.05,
        param_count=10,
        seed=0,
        loss_curve=[0.5],
    )
    assert report.to_json()["loss_curve"] == [0.5]


def reference_train(net, dataset, config):
    """Per-parameter Adam loop: the oracle the fused ``train`` must match bit for bit."""
    X = np.asarray(dataset.train_x, dtype=float)
    y = np.asarray(dataset.train_y, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = net.parameters()
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    step = 0
    curve = []
    for epoch in range(config.epochs):
        if config.lr_schedule == "cosine":
            lr = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        else:
            lr = config.learning_rate
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grads = gradient(net, X[idx], y[idx])
            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step
            for p, g, ms, vs in zip(params, grads, m_state, v_state):
                ms *= beta1
                ms += (1.0 - beta1) * g
                vs *= beta2
                vs += (1.0 - beta2) * (g * g)
                p -= lr * (ms / c1) / (np.sqrt(vs / c2) + eps)
        epoch_mse = loss_mse(net, X, y)
        if not math.isfinite(epoch_mse):
            raise DivergenceError(f"non-finite loss in epoch {epoch + 1}")
        curve.append(epoch_mse)
    resid = np.abs(forward_batch(net, dataset.heldout_x) - dataset.heldout_y)
    return curve, loss_mse(net, X, y), float(resid.max()), float(resid.mean())


def regression_dataset(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, dim))
    y = 0.3 * np.sin(2.0 * x.sum(axis=1)) + 0.1 * x[:, 0] ** 2
    cut = int(0.8 * n)
    return SimpleNamespace(
        train_x=x[:cut], train_y=y[:cut], heldout_x=x[cut:], heldout_y=y[cut:]
    )


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "n, dim, widths, batch_size, epochs, schedule",
    [
        (256, 1, (8, 8), 64, 6, "cosine"),
        (256, 1, (8, 8), 64, 6, "constant"),
        (63, 1, (6, 5), 16, 5, "cosine"),  # 50 training rows: the last batch has 2
        (120, 3, (32, 16), 32, 4, "constant"),
        (120, 3, (32, 16), 32, 0, "cosine"),
    ],
)
def test_fused_train_bit_identical_to_per_parameter_adam(
    n, dim, widths, batch_size, epochs, schedule
):
    data = regression_dataset(n, dim)
    config = TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=3e-3,
        seed=3,
        widths=widths,
        lr_schedule=schedule,
    )
    ref_net = init(dim, widths, seed=4)
    curve, final, sup, mean_abs = reference_train(ref_net, data, config)
    net = init(dim, widths, seed=4)
    held = net.parameters()
    report = train(net, data, config)
    assert all(p is q for p, q in zip(net.parameters(), held))
    for p, q in zip(held, ref_net.parameters()):
        assert p.shape == q.shape
        assert p.tobytes() == q.tobytes()
    assert hexes(report.loss_curve) == hexes(curve)
    assert hexes([report.final_train_mse]) == hexes([final])
    assert hexes([report.heldout_sup_error, report.heldout_mean_abs]) == hexes([sup, mean_abs])


def test_fused_train_divergence_leaves_reference_weights():
    # gradients and moments stay finite, so the weights move before the
    # squared residuals overflow the epoch loss
    data = regression_dataset(64, 2)
    data.train_y = np.full_like(data.train_y, 3e154)
    config = TrainConfig(epochs=3, batch_size=16, widths=(5, 4), seed=1)
    ref_net = init(2, (5, 4), seed=2)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        reference_train(ref_net, data, config)
    net = init(2, (5, 4), seed=2)
    held = net.parameters()
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 1"):
        train(net, data, config)
    assert all(p is q for p, q in zip(net.parameters(), held))
    assert not np.array_equal(held[2], init(2, (5, 4), seed=2).W2)
    for p, q in zip(held, ref_net.parameters()):
        assert p.tobytes() == q.tobytes()


def test_train_calls_module_gradient_once_per_minibatch(monkeypatch):
    calls = []
    original = rfl.nets.gradient

    def counting(net, X, y):
        calls.append(len(X))
        return original(net, X, y)

    monkeypatch.setattr(rfl.nets, "gradient", counting)
    data = regression_dataset(63, 1)  # 50 training rows
    train(init(1, (4, 4), seed=0), data, TrainConfig(epochs=3, batch_size=16, widths=(4, 4)))
    assert len(calls) == 3 * math.ceil(50 / 16)
    assert calls[:4] == [16, 16, 16, 2]


@pytest.mark.parametrize(
    "n, dim, widths, batch_size, epochs, schedule",
    [
        (256, 1, (8, 8), 64, 6, "cosine"),
        (63, 1, (6, 5), 16, 5, "constant"),
        (120, 3, (32, 16), 32, 1, "cosine"),
        (120, 3, (32, 16), 32, 0, "cosine"),
    ],
)
def test_train_without_loss_curve_matches_default(n, dim, widths, batch_size, epochs, schedule):
    data = regression_dataset(n, dim)
    config = TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=3e-3,
        seed=3,
        widths=widths,
        lr_schedule=schedule,
    )
    ref_net = init(dim, widths, seed=4)
    ref = train(ref_net, data, config)
    net = init(dim, widths, seed=4)
    report = train(net, data, config, loss_curve=False)
    assert report.loss_curve == []
    assert len(ref.loss_curve) == epochs
    for p, q in zip(net.parameters(), ref_net.parameters()):
        assert p.tobytes() == q.tobytes()
    assert hexes([report.final_train_mse]) == hexes([ref.final_train_mse])
    assert hexes([report.heldout_sup_error, report.heldout_mean_abs]) == hexes(
        [ref.heldout_sup_error, ref.heldout_mean_abs]
    )
    for name in ("epochs", "param_count", "seed"):
        assert getattr(report, name) == getattr(ref, name)


def test_train_without_loss_curve_skips_the_epoch_pass(monkeypatch):
    passes = []
    original = rfl.nets._forward_into

    def counting(net, X, H1, H2):
        passes.append(len(X))
        return original(net, X, H1, H2)

    monkeypatch.setattr(rfl.nets, "_forward_into", counting)
    data = regression_dataset(63, 1)  # 50 training rows, 13 held out
    config = TrainConfig(epochs=4, batch_size=16, widths=(4, 4))
    train(init(1, (4, 4), seed=0), data, config)
    full = passes.count(50)
    passes.clear()
    train(init(1, (4, 4), seed=0), data, config, loss_curve=False)
    # the default runs one full pass per epoch; without the curve only the last epoch does
    assert full == 4
    assert passes.count(50) == 1
    assert passes.count(13) == 1


def _divergence(net, data, config, **kw):
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        train(net, data, config, **kw)
    return str(info.value)


@pytest.mark.parametrize("case", ["nan_target", "huge_target", "learning_rate"])
def test_train_without_loss_curve_diverges_like_default(case):
    data = regression_dataset(64, 2)
    config = TrainConfig(epochs=3, batch_size=16, widths=(5, 4), seed=1)
    if case == "nan_target":
        data.train_y = data.train_y.copy()
        data.train_y[7] = np.nan
    elif case == "huge_target":
        data.train_y = np.full_like(data.train_y, 3e154)
    else:
        # the epoch-1 loss is finite (about 1e305); epoch 2 overflows
        config = TrainConfig(
            epochs=6,
            batch_size=8,
            widths=(5, 4),
            seed=1,
            learning_rate=2e153,
            lr_schedule="constant",
        )
    ref_net, net = init(2, (5, 4), seed=2), init(2, (5, 4), seed=2)
    message = _divergence(ref_net, data, config)
    assert _divergence(net, data, config, loss_curve=False) == message
    assert ("epoch 2 " in message) == (case == "learning_rate")
    for p, q in zip(net.parameters(), ref_net.parameters()):
        assert p.tobytes() == q.tobytes()


def test_loss_bound_never_passes_on_non_finite_values():
    abs_max = rfl.nets._abs_max
    assert abs_max(np.array([0.5, -3.0, 2.0])) == 3.0
    assert abs_max(np.zeros((0, 2))) == 0.0
    for values in ([1.0, math.nan], [math.nan, 1.0]):
        assert math.isnan(abs_max(np.array(values)))
    assert abs_max(np.array([-math.inf, 1.0])) == math.inf
    theta = np.ones(10)
    a = theta[-3:]
    assert rfl.nets._loss_is_finite(theta, a, 50, 3.0, 1.0)
    assert not rfl.nets._loss_is_finite(theta, a, 50, 3.0, math.nan)
    assert not rfl.nets._loss_is_finite(theta, a, 50, math.inf, 1.0)
    assert not rfl.nets._loss_is_finite(theta, a, 50, 1e300, 1.0)
    assert not rfl.nets._loss_is_finite(theta, a, 10**300, 3.0, 1.0)
    for bad in (math.nan, math.inf):
        theta[0] = bad
        assert not rfl.nets._loss_is_finite(theta, a, 50, 3.0, 1.0)
    theta[0] = 1.0
    theta[-1] = math.nan
    assert not rfl.nets._loss_is_finite(theta, a, 50, 3.0, 1.0)
