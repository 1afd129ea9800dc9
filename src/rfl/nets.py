"""Two-hidden-layer tanh networks: forward pass, backprop, training loop.

The network computes a^T tanh(W2 tanh(W1 x - b1) - b2); biases are
subtracted after the affine map, matching the convention of the width
schedule in :func:`theoretical_widths`.  Everything is plain numpy and
deterministic per seed; training is single threaded.

:func:`train` keeps the parameters, the gradient and both Adam moments in
one flat float64 buffer each; during training the network's five fields
are reshaped views of the parameter buffer, and on return (also after a
divergence) the trained values are copied back into the caller's arrays.
:func:`gradient` is still called once per minibatch and its result copied
into the gradient buffer.  Every Adam operation is elementwise and runs
in the same order as a per-parameter update, so one update of the flat
buffers is bit-identical to updating the five arrays one at a time.  The
per-epoch train loss runs the forward pass into two preallocated
activation buffers.  The loss curve is optional: without it, an epoch
runs that full-training-set pass only when a cheap bound cannot show the
loss is finite, so divergence is still caught in the same epoch, and the
last epoch always runs it for ``final_train_mse``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._report import Report
from .errors import (
    ArgumentError,
    DivergenceError,
    _check_nonnegative_int,
    _check_positive_int,
    _check_real,
)

DEFAULT_WIDTHS = (64, 64)
# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class WidthSchedule(NamedTuple):
    w1: int
    w2: int
    param_count_bound: int


def theoretical_widths(N: int, M: int) -> WidthSchedule:
    """Hidden widths sufficient for the constructive approximation result.

    For input dimension N >= 2 the widths are N(M-1) and
    3 ceil((N+1)/2) (5M)^N; one-dimensional inputs get (M-1, 6M).  The
    parameter bound counts weights and biases of the two hidden layers plus
    the outer weights exactly.  The second width is astronomical for even
    modest N, which is the point: it is metadata, not a training
    configuration.  A warning is issued when M <= 5 N^2, where the
    schedule's hypothesis fails.
    """
    N = _check_positive_int(N, "input dimension N")
    M = _check_positive_int(M, "M", 2)
    if M <= 5 * N * N:
        warnings.warn(
            f"width schedule assumes M > 5 N^2 (here M={M}, 5N^2={5 * N * N}); "
            "the returned widths are outside the schedule's hypothesis",
            stacklevel=2,
        )
    if N == 1:
        w1, w2 = M - 1, 6 * M
    else:
        w1 = N * (M - 1)
        w2 = 3 * ((N + 1 + 1) // 2) * (5 * M) ** N
    params = w1 * (N + 1) + w2 * (w1 + 1) + w2
    return WidthSchedule(w1, w2, params)


@dataclass
class TanhNetwork:
    """Parameter container for the two-hidden-layer tanh architecture."""

    input_dim: int
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    a: np.ndarray

    @property
    def widths(self) -> tuple[int, int]:
        return (self.W1.shape[0], self.W2.shape[0])

    @property
    def param_count(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size + self.a.size

    def parameters(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2, self.a]


def _check_widths(widths) -> tuple[int, int]:
    """The two hidden widths as ints; anything but two integers >= 1 raises."""
    if not (isinstance(widths, (tuple, list, np.ndarray)) and len(widths) == 2):
        raise ArgumentError(f"widths must be two integers >= 1, got {widths!r}")
    return tuple(_check_positive_int(w, "widths entry") for w in widths)


def init(input_dim: int, widths: tuple[int, int], seed: int) -> TanhNetwork:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    input_dim = _check_positive_int(input_dim, "input_dim")
    w1, w2 = _check_widths(widths)
    rng = np.random.default_rng(_check_nonnegative_int(seed, "seed"))

    def glorot(fan_out, fan_in):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    return TanhNetwork(
        input_dim=input_dim,
        W1=glorot(w1, input_dim),
        b1=np.zeros(w1),
        W2=glorot(w2, w1),
        b2=np.zeros(w2),
        a=glorot(1, w2)[0],
    )


def forward_batch(net: TanhNetwork, X: np.ndarray) -> np.ndarray:
    """Network outputs for an (n, input_dim) batch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != net.input_dim:
        raise ArgumentError(
            f"expected inputs with {net.input_dim} features, got {X.shape[1]}"
        )
    n = X.shape[0]
    return _forward_into(net, X, np.empty((n, net.widths[0])), np.empty((n, net.widths[1])))


def _forward_into(net: TanhNetwork, X: np.ndarray, H1: np.ndarray, H2: np.ndarray) -> np.ndarray:
    """Network outputs, with the hidden layers written into (n, w1) H1 and (n, w2) H2."""
    np.matmul(X, net.W1.T, out=H1)
    np.subtract(H1, net.b1, out=H1)
    np.tanh(H1, out=H1)
    np.matmul(H1, net.W2.T, out=H2)
    np.subtract(H2, net.b2, out=H2)
    np.tanh(H2, out=H2)
    return H2 @ net.a


def gradient(net: TanhNetwork, X, y) -> list[np.ndarray]:
    """Exact gradients of the half-mean-squared-error loss on a batch.

    The loss is 0.5 * mean((net(x) - y)^2); returns gradients in the
    order of :meth:`TanhNetwork.parameters`.  The forward pass is the one
    :func:`forward_batch` runs, with its hidden layers kept for backprop.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if X.shape[0] == 0:
        raise ArgumentError("gradient needs a nonempty batch")
    if X.shape[1] != net.input_dim:
        raise ArgumentError(f"expected inputs with {net.input_dim} features, got {X.shape[1]}")
    if y.shape != (X.shape[0],):
        raise ArgumentError(f"expected targets of shape ({X.shape[0]},), got {y.shape}")
    n = X.shape[0]
    H1 = np.empty((n, net.widths[0]))
    H2 = np.empty((n, net.widths[1]))
    e = (_forward_into(net, X, H1, H2) - y) / n
    ga = H2.T @ e
    d2 = (e[:, None] * net.a[None, :]) * (1.0 - H2 * H2)
    gb2 = -d2.sum(axis=0)
    gW2 = d2.T @ H1
    d1 = (d2 @ net.W2) * (1.0 - H1 * H1)
    gb1 = -d1.sum(axis=0)
    gW1 = d1.T @ X
    return [gW1, gb1, gW2, gb2, ga]


def loss_mse(net: TanhNetwork, X, y) -> float:
    """Plain mean squared error of the network on a batch."""
    pred = forward_batch(net, X)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    # a column of targets would broadcast against pred into an (n, n) residual
    if y.shape != pred.shape:
        raise ArgumentError(f"expected targets of shape {pred.shape}, got {y.shape}")
    resid = pred - y
    return float(np.mean(resid * resid))


@dataclass(frozen=True)
class TrainConfig(Report):
    """Training hyperparameters; defaults follow the package conventions.

    ``lr_schedule`` is either "constant" or "cosine" (decay to zero across
    the epoch budget); cosine is the default because it settles the final
    iterate instead of leaving it bouncing at the noise floor of the
    constant-rate optimizer.  Adam's constants are the module's
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    epochs: int = 400
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    widths: tuple[int, int] = DEFAULT_WIDTHS
    lr_schedule: str = "cosine"

    def __post_init__(self):
        object.__setattr__(self, "epochs", _check_nonnegative_int(self.epochs, "epochs"))
        object.__setattr__(self, "batch_size", _check_positive_int(self.batch_size, "batch_size"))
        object.__setattr__(self, "learning_rate", _check_real(self.learning_rate, "learning_rate"))
        object.__setattr__(self, "seed", _check_nonnegative_int(self.seed, "seed"))
        object.__setattr__(self, "widths", _check_widths(self.widths))
        if not self.learning_rate > 0.0:
            raise ArgumentError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ArgumentError(
                f"lr_schedule must be 'constant' or 'cosine', got {self.lr_schedule!r}"
            )


@dataclass(frozen=True)
class TrainReport(Report):
    """Outcome summary of one training run."""

    epochs: int
    final_train_mse: float
    heldout_sup_error: float
    heldout_mean_abs: float
    param_count: int
    seed: int
    loss_curve: list[float] = field(default_factory=list)


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _abs_max(v: np.ndarray) -> float:
    """max |v| without a temporary the size of ``v``: 0 if v is empty, NaN if v holds one."""
    return float(np.maximum(v.max(initial=0.0), -v.min(initial=0.0)))


def _loss_is_finite(
    theta: np.ndarray, a: np.ndarray, n: int, x_scale: float, y_max: float
) -> bool:
    """True when a bound shows the train MSE of the network in ``theta`` is finite.

    T = max|theta| bounds every weight and bias, so each pre-activation is
    at most ``x_scale`` T = (input_dim max|X| + w1 + 1) T in magnitude, and
    |tanh| <= 1 bounds each residual by |a|_1 + max|y|.  Below 1e300 none of
    them, nor the sum of the n squared residuals, can overflow.  A NaN or an
    inf anywhere makes a comparison false, so the bound never passes on one.
    """
    r = float(np.abs(a).sum()) + y_max
    return x_scale * _abs_max(theta) < 1e300 and n * r * r < 1e300


def train(
    net: TanhNetwork, dataset, config: TrainConfig, *, loss_curve: bool = True
) -> TrainReport:
    """Adaptive-moment gradient descent on half-MSE with bias correction.

    ``dataset`` must expose train_x, train_y, heldout_x, heldout_y arrays.
    The loss curve records the plain train MSE once per epoch.  A
    non-finite loss aborts with a divergence error carrying the epoch it
    happened in.  The network's own parameter arrays hold the trained
    values on return, also when training diverges.

    With ``loss_curve=False`` the report's curve is empty and an epoch skips
    the full-training-set forward pass whenever a bound on the weights,
    inputs and targets shows the loss is finite; the parameters, the
    ``final_train_mse`` and any :class:`DivergenceError` (its epoch and
    message) are the same as with the curve.
    """
    X = np.asarray(dataset.train_x, dtype=float)
    y = np.asarray(dataset.train_y, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise ArgumentError("training set is empty")
    rng = np.random.default_rng(config.seed)
    originals = net.parameters()
    shapes = [p.shape for p in originals]
    theta = np.concatenate([p.ravel() for p in originals])
    grad = np.empty_like(theta)
    grad_views = _views(grad, shapes)
    m_state = np.zeros_like(theta)
    v_state = np.zeros_like(theta)
    s1 = np.empty_like(theta)
    s2 = np.empty_like(theta)
    H1 = np.empty((n, net.widths[0]))
    H2 = np.empty((n, net.widths[1]))
    net.W1, net.b1, net.W2, net.b2, net.a = _views(theta, shapes)
    x_scale = net.input_dim * _abs_max(X) + net.widths[0] + 1.0
    y_max = _abs_max(y)
    step = 0
    curve: list[float] = []
    final_mse = None
    try:
        for epoch in range(config.epochs):
            if config.lr_schedule == "cosine":
                lr = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
            else:
                lr = config.learning_rate
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                for view, g in zip(grad_views, gradient(net, X[idx], y[idx])):
                    view[...] = g
                step += 1
                c1 = 1.0 - ADAM_BETA1**step
                c2 = 1.0 - ADAM_BETA2**step
                # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2
                m_state *= ADAM_BETA1
                np.multiply(grad, 1.0 - ADAM_BETA1, out=s1)
                m_state += s1
                v_state *= ADAM_BETA2
                np.multiply(grad, grad, out=s1)
                s1 *= 1.0 - ADAM_BETA2
                v_state += s1
                # theta -= lr (m/c1) / (sqrt(v/c2) + eps)
                np.divide(v_state, c2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += ADAM_EPS
                np.divide(m_state, c1, out=s2)
                s2 *= lr
                s2 /= s1
                theta -= s2
            if (
                loss_curve
                or epoch == config.epochs - 1
                or not _loss_is_finite(theta, net.a, n, x_scale, y_max)
            ):
                resid = _forward_into(net, X, H1, H2) - y
                final_mse = float(np.mean(resid * resid))
                if not math.isfinite(final_mse):
                    raise DivergenceError(
                        f"training loss became non-finite in epoch {epoch + 1} "
                        f"(lr={lr:.3e}, widths={net.widths})"
                    )
                if loss_curve:
                    curve.append(final_mse)
    finally:
        for p, trained in zip(originals, net.parameters()):
            p[...] = trained
        net.W1, net.b1, net.W2, net.b2, net.a = originals
    del H1, H2  # free the activation buffers before the held-out forward pass
    if final_mse is None:
        final_mse = loss_mse(net, X, y)
    hx = np.asarray(dataset.heldout_x, dtype=float)
    hy = np.asarray(dataset.heldout_y, dtype=float)
    if hx.shape[0] > 0:
        resid = np.abs(forward_batch(net, hx) - hy)
        sup_err = float(resid.max())
        mean_abs = float(resid.mean())
    else:
        sup_err = float("nan")
        mean_abs = float("nan")
    return TrainReport(
        epochs=config.epochs,
        final_train_mse=final_mse,
        heldout_sup_error=sup_err,
        heldout_mean_abs=mean_abs,
        param_count=net.param_count,
        seed=config.seed,
        loss_curve=curve,
    )
