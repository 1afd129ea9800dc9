"""Dataset generation, error decomposition, rate studies, trend experiments.

Every study returns a small dataclass that serializes to a JSON report plus
CSV tables; the ``Report`` mixin derives the JSON form from the dataclass
fields.  Table rows carry a (kernel, m, M, seed) provenance tuple and all
randomness flows from explicit seeds, so a rerun with the same config
reproduces the output files byte for byte.  :func:`error_decomposition`
takes the kernel, functional and grid from the :class:`Dataset` it splits;
it projects the samples with one Gram solve per block of rows and trains
without a loss curve, so its ``train_report.loss_curve`` is empty.
:func:`flm_experiment` draws the samples again for every grid size but
evaluates their targets once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._report import Report
from .errors import ArgumentError, DivergenceError, _check_nonnegative_int
from .functionals import TargetFunctional
from .geometry import PointSet, uniform_grid
from .kernels import GAUSSIAN, INVERSE_MULTIQUADRIC, SOBOLEV, Kernel, m_d_constant
from .nets import TrainConfig, TrainReport, forward_batch, init, theoretical_widths, train
from .rkhs import (
    DEFAULT_SAMPLE_CENTERS,
    _NORM_TARGET_RANGE,
    GramSystem,
    build_gram,
    power_function_sup,
    sample_unit_ball,
)
from .spectral import SpectralReport, check_eigen_lower_bound, holder_constant_G

_HOLDOUT_FRACTION = 0.2


def kernel_label(kernel: Kernel) -> str:
    """Compact deterministic one-token label for provenance columns."""
    if kernel.family == GAUSSIAN:
        return f"gaussian(sigma={kernel.sigma!r},d={kernel.dim})"
    if kernel.family == INVERSE_MULTIQUADRIC:
        return f"inverse_multiquadric(sigma={kernel.sigma!r},beta={kernel.beta!r},d={kernel.dim})"
    return f"sobolev(r={kernel.r!r},d={kernel.dim})"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled (node values, functional value) rows with an 80/20 split.

    Row i holds the values of one drawn function at the ``grid`` nodes and
    its functional value.  The first ``n_train`` rows are the training
    block; the remainder is held out.
    """

    kernel: Kernel
    functional: TargetFunctional
    grid: PointSet
    inputs: np.ndarray
    targets: np.ndarray
    n_train: int

    @property
    def train_x(self) -> np.ndarray:
        return self.inputs[: self.n_train]

    @property
    def train_y(self) -> np.ndarray:
        return self.targets[: self.n_train]

    @property
    def heldout_x(self) -> np.ndarray:
        return self.inputs[self.n_train :]

    @property
    def heldout_y(self) -> np.ndarray:
        return self.targets[self.n_train :]

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _unit_ball_draws(kernel: Kernel, n_samples: int, seed: int, n_centers: int):
    """Yield ``n_samples`` unit-ball functions drawn from one master seed.

    Each draw takes a child seed, then a norm target uniform on
    ``_NORM_TARGET_RANGE``, from the master generator, so the sequence of
    functions is a pure function of ``seed``.
    """
    _check_nonnegative_int(seed, "seed")
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        child = int(rng.integers(0, 2**63 - 1))
        target_norm = float(rng.uniform(*_NORM_TARGET_RANGE))
        yield sample_unit_ball(kernel, n_centers, target_norm, child)


def _count(value, name: str) -> int:
    """``value`` as an int; a bool or a non-integral number raises :class:`ArgumentError`."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer))
        or (isinstance(value, (float, np.floating)) and float(value).is_integer())
    ):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    return int(value)


def generate_dataset(
    kernel: Kernel,
    functional: TargetFunctional,
    m: int,
    n_samples: int,
    seed: int,
) -> Dataset:
    """Draw unit-ball samples and tabulate their node values and targets.

    Each sample combines ``DEFAULT_SAMPLE_CENTERS`` kernel centers and has
    a norm target uniform on [0.2, 1], so the ball is covered without
    numerically degenerate near-zero draws; per-sample seeds come from one
    master generator, making the whole dataset a pure function of ``seed``.
    The last 20% of the rows (rounded) are held out.
    """
    return _draw_dataset(kernel, functional, m, n_samples, seed, None)


def _draw_dataset(
    kernel: Kernel,
    functional: TargetFunctional,
    m: int,
    n_samples: int,
    seed: int,
    targets: np.ndarray | None,
) -> Dataset:
    """:func:`generate_dataset`, reusing ``targets`` when they are given.

    The targets depend only on the drawn functions, not on the grid, so a
    dataset of the same ``seed`` and ``n_samples`` on another grid can hand
    them over; the functions are still drawn, for their node values.
    """
    n_samples = _count(n_samples, "n_samples")
    if n_samples < 1:
        raise ArgumentError(f"n_samples must be a positive integer, got {n_samples!r}")
    grid = uniform_grid(_count(m, "m"), kernel.dim)
    inputs = np.empty((n_samples, len(grid)))
    computed = targets is None
    if computed:
        targets = np.empty(n_samples)
    for i, f in enumerate(_unit_ball_draws(kernel, n_samples, seed, DEFAULT_SAMPLE_CENTERS)):
        inputs[i] = f.eval_at(grid.points)
        if computed:
            targets[i] = functional.value(f)
    n_heldout = int(round(_HOLDOUT_FRACTION * n_samples))
    return Dataset(
        kernel=kernel,
        functional=functional,
        grid=grid,
        inputs=inputs,
        targets=targets,
        n_train=n_samples - n_heldout,
    )


@dataclass(frozen=True)
class DecompositionResult(Report):
    """Worst-case split of the total error into projection and network parts.

    term_I is the largest |F(f) - F(Pf)| over the samples, term_II the
    largest |F(Pf) - net(f at nodes)|, and total the largest end-to-end
    error; the triangle inequality total <= term_I + term_II is asserted at
    construction time by the producing routine.  ``system`` is the Gram
    system of the node grid, kept for callers that need more of it; it is
    not part of the JSON form.
    """

    term_I: float
    term_II: float
    total: float
    c_f: float
    power_sup: float
    train_report: TrainReport
    system: GramSystem = field(repr=False, compare=False, metadata={"json": False})


def error_decomposition(dataset: Dataset, train_config: TrainConfig) -> DecompositionResult:
    """Train a network on a dataset's targets and split its worst-case error.

    The kernel, the functional and the node grid all come from ``dataset``
    (see :func:`generate_dataset`).  The projection route F(Pf) solves
    with the Gram system of the node grid once per block of samples; the
    network is trained fresh from the config, without a loss curve, so
    ``train_report.loss_curve`` is empty.
    """
    kernel, functional = dataset.kernel, dataset.functional
    system = build_gram(kernel, dataset.grid)
    projected = functional._projected_values(system, dataset.inputs)
    net = init(len(system), train_config.widths, train_config.seed)
    report = train(net, dataset, train_config, loss_curve=False)
    preds = forward_batch(net, dataset.inputs)
    term_i = float(np.abs(dataset.targets - projected).max())
    term_ii = float(np.abs(projected - preds).max())
    total = float(np.abs(dataset.targets - preds).max())
    if not total <= term_i + term_ii + 1e-10:
        raise AssertionError(
            f"triangle inequality violated: {total} > {term_i} + {term_ii}"
        )
    return DecompositionResult(
        term_I=term_i,
        term_II=term_ii,
        total=total,
        c_f=functional.holder_constant(kernel),
        power_sup=power_function_sup(system),
        train_report=report,
        system=system,
    )


@dataclass(frozen=True)
class PowerRateStudy(Report):
    """Power-function sups across grid sizes with the family's decay fit."""

    kernel: Kernel
    m_list: list[int]
    sups: list[float]
    fit_kind: str
    slope: float
    intercept: float
    r_squared: float
    stderr: float
    ratios: list[float]
    ratios_strictly_decreasing: bool
    eval_resolution: int | None

    def table(self) -> tuple[list[str], list[list]]:
        header = ["kernel", "m", "M", "seed", "sup_power"]
        label = kernel_label(self.kernel)
        rows = [[label, m, "", "", sup] for m, sup in zip(self.m_list, self.sups)]
        return header, rows


def rate_study_power(
    kernel: Kernel, m_list, eval_resolution: int | None = None
) -> PowerRateStudy:
    """Fit the decay of the squared power-function sup across grid sizes.

    The interpolation-error bounds control the squared sup (it is the Schur
    complement that obeys the Hölder estimate), so the fit runs on
    log(sup^2); the table still reports the plain sup per m.  The abscissa
    depends on the family: log m for sobolev (polynomial decay), m for the
    inverse multiquadric (exponential decay), m log m for the gaussian
    (superexponential decay).  A nonnegative fitted slope means decay
    failed and raises.
    """
    from scipy.stats import linregress  # deferred: scipy.stats about doubles the import of rfl

    m_list = [_count(m, "m") for m in m_list]
    if eval_resolution is not None:
        eval_resolution = _count(eval_resolution, "eval_resolution")
    if len(m_list) < 4 or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ArgumentError("m_list must be strictly increasing with at least 4 entries")
    eval_set = uniform_grid(eval_resolution, kernel.dim) if eval_resolution is not None else None
    sups = [
        power_function_sup(build_gram(kernel, uniform_grid(m, kernel.dim)), eval_set)
        for m in m_list
    ]
    log_sup_sq = 2.0 * np.log(sups)
    if kernel.family == SOBOLEV:
        xs, fit_kind = np.log(m_list), "log_sup_sq_vs_log_m"
    elif kernel.family == INVERSE_MULTIQUADRIC:
        xs, fit_kind = np.asarray(m_list, dtype=float), "log_sup_sq_vs_m"
    else:
        marr = np.asarray(m_list, dtype=float)
        xs, fit_kind = marr * np.log(np.maximum(marr, 1.0 + 1e-12)), "log_sup_sq_vs_m_log_m"
    fit = linregress(xs, log_sup_sq)
    if not fit.slope < 0:
        raise DivergenceError(
            f"power-function sups failed to decay (fitted slope {fit.slope:.3g})"
        )
    ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    return PowerRateStudy(
        kernel=kernel,
        m_list=m_list,
        sups=[float(s) for s in sups],
        fit_kind=fit_kind,
        slope=float(fit.slope),
        intercept=float(fit.intercept),
        r_squared=float(fit.rvalue**2),
        stderr=float(fit.stderr),
        ratios=[float(r) for r in ratios],
        ratios_strictly_decreasing=bool(decreasing),
        eval_resolution=eval_resolution,
    )


@dataclass(frozen=True)
class EigenRateStudy(Report):
    """Spectral lower-bound reports across grid sizes."""

    kernel: Kernel
    d: int
    reports: list[SpectralReport]

    def table(self) -> tuple[list[str], list[list]]:
        header = ["kernel", "m", "d", "lambda_min", "m_gamma", "m_pow_d_gamma", "satisfied"]
        label = kernel_label(self.kernel)
        rows = [
            [
                label,
                r.m,
                r.d,
                r.lambda_min,
                r.bound_m_gamma,
                r.bound_m_pow_d_gamma,
                r.bound_satisfied,
            ]
            for r in self.reports
        ]
        return header, rows


def rate_study_eigen(kernel: Kernel, m_list) -> EigenRateStudy:
    """Smallest eigenvalue against the spectral bound for each grid size, in ``kernel.dim``."""
    m_list = [_count(m, "m") for m in m_list]
    reports = [check_eigen_lower_bound(kernel, m) for m in m_list]
    return EigenRateStudy(kernel=kernel, d=int(kernel.dim), reports=reports)


@dataclass(frozen=True)
class FlmRunRow(Report):
    """Result of one grid size inside the regression-map experiment."""

    m: int
    n_nodes: int
    term_I: float
    term_II: float
    total: float
    heldout_sup_error: float
    heldout_mean_abs: float
    power_sup: float
    c_f: float
    c_g: float
    jitter_used: float


# FlmRunRow fields written as columns of the flm table
_FLM_COLUMNS = (
    "term_I", "term_II", "total", "heldout_sup_error", "heldout_mean_abs", "power_sup", "c_f", "c_g"
)


@dataclass(frozen=True)
class FlmExperiment(Report):
    """Regression-map training across grid sizes with trend flags."""

    kernel: Kernel
    weight: str
    link: str
    m_list: list[int]
    n_samples: int
    train_config: TrainConfig
    rows: list[FlmRunRow]
    sup_trend_nonincreasing: bool

    def table(self) -> tuple[list[str], list[list]]:
        header = ["kernel", "m", "M", "seed", *_FLM_COLUMNS]
        label = kernel_label(self.kernel)
        seed = self.train_config.seed
        rows = [
            [label, r.m, "", seed, *(getattr(r, c) for c in _FLM_COLUMNS)] for r in self.rows
        ]
        return header, rows


TREND_BAND = 0.2


def flm_experiment(
    weight: str,
    link: str,
    kernel: Kernel,
    m_list,
    train_config: TrainConfig,
    n_samples: int = 4000,
) -> FlmExperiment:
    """Train the regression map at several grid sizes and track the trend.

    For each m a fresh dataset is drawn (same seed), a fresh network is
    trained with identical hyperparameters, and the error decomposition is
    recorded together with the regularity constants.  The trend flag is
    true when the held-out sup error never rises by more than the 20%
    noise band from one grid size to the next.
    """
    m_list = [_count(m, "m") for m in m_list]
    n_samples = _count(n_samples, "n_samples")
    functional = TargetFunctional(kind="gflm", beta=weight, link=link)
    rows: list[FlmRunRow] = []
    dataset = None
    for m in m_list:
        # every grid draws the same functions, so the first grid's targets serve all
        targets = None if dataset is None else dataset.targets
        dataset = _draw_dataset(kernel, functional, m, n_samples, train_config.seed, targets)
        dec = error_decomposition(dataset, train_config)
        system = dec.system
        c_g = holder_constant_G(system, functional.holder_exponent(), dec.c_f)
        rows.append(
            FlmRunRow(
                m=m,
                n_nodes=len(system),
                term_I=dec.term_I,
                term_II=dec.term_II,
                total=dec.total,
                heldout_sup_error=dec.train_report.heldout_sup_error,
                heldout_mean_abs=dec.train_report.heldout_mean_abs,
                power_sup=dec.power_sup,
                c_f=dec.c_f,
                c_g=c_g,
                jitter_used=system.jitter_used,
            )
        )
    sups = [r.heldout_sup_error for r in rows]
    trend = all(b <= a * (1.0 + TREND_BAND) for a, b in zip(sups, sups[1:]))
    return FlmExperiment(
        kernel=kernel,
        weight=weight,
        link=link,
        m_list=m_list,
        n_samples=n_samples,
        train_config=train_config,
        rows=rows,
        sup_trend_nonincreasing=bool(trend),
    )


THEOREM_FAMILIES = ("sobolev", "multiquadric", "gaussian")
_MAX_BOUND_DIGITS = 4300


def theorem_metadata(theorem: str, M: int, params: dict | None = None) -> dict:
    """Grid size, width schedule, and error-bound shape for one theorem.

    ``params`` supplies the constants the statements leave free: r, s, d,
    sigma, beta and the decay constant c (never given numerically; estimate
    it from a rate study fit).  The error-bound factor is evaluated with
    its outer constant set to 1 and is informational only.  Non-finite
    constants, a non-integer d, sigma, beta or c <= 0, a sobolev r <= d/2
    and formulas that overflow the float range raise :class:`ArgumentError`.
    """
    if theorem not in THEOREM_FAMILIES:
        raise ArgumentError(f"unknown theorem {theorem!r}; choose from {THEOREM_FAMILIES}")
    if not (isinstance(M, (int, np.integer)) and M >= 2):
        raise ArgumentError(f"M must be an integer >= 2, got {M!r}")
    p = {"r": 2.0, "s": 1.0, "d": 1, "sigma": 1.0, "beta": 1.0, "c": 1.0}
    p.update(params or {})
    for name, value in p.items():
        if not math.isfinite(value):
            raise ArgumentError(f"{name} must be finite, got {value!r}")
    if isinstance(p["d"], bool) or not (float(p["d"]).is_integer() and p["d"] >= 1):
        raise ArgumentError(f"d must be a positive integer, got {p['d']!r}")
    r, s, d, sigma, beta, c = (
        float(p["r"]),
        float(p["s"]),
        int(p["d"]),
        float(p["sigma"]),
        float(p["beta"]),
        float(p["c"]),
    )
    if not (0.0 < s <= 1.0):
        raise ArgumentError(f"s must lie in (0, 1], got {s}")
    if min(sigma, beta, c) <= 0.0:
        raise ArgumentError(f"sigma, beta and c must be positive, got {sigma}, {beta}, {c}")
    if theorem == "sobolev" and not r > d / 2.0:
        raise ArgumentError(f"sobolev order r={r} must exceed d/2={d / 2.0}")
    log_m = math.log(M)
    try:
        if theorem == "sobolev":
            m = math.ceil(M ** (1.0 / (2.0 * s * (2.0 * r - 1.0))))
            m_expr = "ceil(M^(1/(2 s (2r-1))))"
            exponent = (2.0 * r - d) / (2.0 * (2.0 * r - 1.0))
            factor = d ** (s * (r + 0.5)) * M ** (-exponent)
            bound_expr = "d^(s(r+1/2)) * M^(-(2r-d)/(2(2r-1)))"
        elif theorem == "multiquadric":
            md = m_d_constant(d)
            m = math.ceil(log_m / (4.0 * md * sigma * s + c * s / math.sqrt(d)))
            m_expr = "ceil(log(M) / (4 M_d sigma s + c s / sqrt(d)))"
            exponent = c / (4.0 * md * math.sqrt(d) * sigma + c)
            factor = log_m ** max(0.0, 2.0 * d - s * beta) * M ** (-exponent)
            bound_expr = "log(M)^max(0, 2d - s beta) * M^(-c/(4 M_d sqrt(d) sigma + c))"
        else:
            root = math.sqrt(c * c * s * s / d + 4.0 * sigma**2 * math.pi**2 * d * s * log_m)
            m = math.ceil(2.0 * log_m / (c * s / math.sqrt(d) + root))
            m_expr = (
                "ceil(2 log(M) / (c s / sqrt(d) + sqrt(c^2 s^2 / d + 4 sigma^2 pi^2 d s log(M))))"
            )
            inner = 0.5 * math.log(log_m) - math.log(c * s + sigma * math.pi * d * math.sqrt(s))
            exponent = inner / (2.0 * (1.0 + sigma * math.pi * d))
            factor = log_m**d * M ** (-exponent)
            bound_expr = (
                "log(M)^d * M^(-(1/(2(1+sigma pi d))) "
                "(log(log(M))/2 - log(c s + sigma pi d sqrt(s))))"
            )
    except OverflowError:
        raise ArgumentError(
            f"the {theorem} formulas overflow the float range at M={M}, r={r}, s={s}, "
            f"d={d}, sigma={sigma}, beta={beta}, c={c}"
        ) from None
    m = max(int(m), 1)
    n_inputs = (m + 1) ** d
    # the exact parameter bound is echoed in full and Python prints at most
    # 4300 digits; its factor (5M)^N alone has N log10(5M), so test that first
    too_long = ArgumentError(
        f"the parameter bound for m={m}, d={d} and M={M} exceeds {_MAX_BOUND_DIGITS} digits"
    )
    if n_inputs > _MAX_BOUND_DIGITS / math.log10(5 * M):
        raise too_long
    schedule = theoretical_widths(n_inputs, int(M))
    if schedule.param_count_bound >= 10**_MAX_BOUND_DIGITS:
        raise too_long
    return {
        "theorem": theorem,
        "M": int(M),
        "params": {"r": r, "s": s, "d": d, "sigma": sigma, "beta": beta, "c": c},
        "m": m,
        "m_expression": m_expr,
        "N": n_inputs,
        "widths": [schedule.w1, schedule.w2],
        "param_count_bound": schedule.param_count_bound,
        "param_count_bound_float": float(schedule.param_count_bound)
        if schedule.param_count_bound < 1e308
        else float("inf"),
        "error_bound_factor": factor,
        "error_bound_expression": bound_expr,
    }
