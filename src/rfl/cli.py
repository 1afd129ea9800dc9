"""Command line front end for the studies.

Subcommands: rates, eigen, project, train, flm, meta.  Each accepts an
optional JSON config file (``--config``) validated against a strict
schema that rejects unknown keys; individual flags, spelled in full (no
prefix abbreviations), override file values.
The flags, their merge into the config and the schemas all come from ``_OPTIONS``.
Outputs land under ``--out``, or ``$RFL_OUT_DIR/<command>``, or
``./rfl_out/<command>``: a ``report.json`` echoing the merged config less
``output_dir``, ``tables/*.csv``, and ``plots/*.svg`` when ``--plots`` is
given.  CSV files are byte-identical across reruns of the same config and seed.

Exit codes: 0 on success, 2 on configuration or argument errors, 3 on
numerical failures (singular Gram matrix, divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from ._svg import line_plot_svg
from .errors import (
    ArgumentError,
    ConfigError,
    DivergenceError,
    ResourceLimitError,
    SingularGramError,
    UnsupportedConfigurationError,
)
from .experiments import (
    THEOREM_FAMILIES,
    _unit_ball_draws,
    flm_experiment,
    generate_dataset,
    kernel_label,
    rate_study_eigen,
    rate_study_power,
    theorem_metadata,
)
from .functionals import FUNCTIONAL_KINDS, LINKS, ODE_RHS, BETAS, TargetFunctional
from .geometry import uniform_grid
from .kernels import FAMILIES, Kernel
from .nets import TrainConfig, init, train
from .rkhs import (
    DEFAULT_SAMPLE_CENTERS,
    _projected_at,
    build_gram,
    default_power_eval_set,
    power_function_sup,
    rkhs_norm,
)

_POS_INT = {"type": "integer", "minimum": 1}
_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NUM = {"type": "number"}
_M_LIST = {"type": "array", "items": _POS_INT, "minItems": 1}
_ARG_TYPES = {"integer": int, "number": float}
# meta's theorem constants (the ``params`` object), by flag name
_PARAMS = dict(r=_NUM, s=_POS_NUM, d=_POS_INT, sigma=_POS_NUM, beta=_POS_NUM, c=_POS_NUM)

_FUNCTIONAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": sorted(FUNCTIONAL_KINDS)},
        "beta": {"type": "string", "enum": sorted(BETAS)},
        "link": {"enum": sorted(LINKS)},
        "ode": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rhs": {"enum": sorted(ODE_RHS)},
                "a": {"type": "number"},
                "b": {"type": "number"},
                "h0": {"type": "number"},
                "steps": {"type": "integer", "minimum": 16},
            },
            "required": ["rhs", "a", "b", "h0", "steps"],
        },
        "quadrature_points": {"type": "integer", "minimum": 33},
    },
    "required": ["kind"],
}


def _int_list(arg: str) -> list[int]:
    """Argparse type of the comma separated integer flags, e.g. ``2,4,8``."""
    try:
        return [int(part) for part in arg.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma separated integers, got {arg!r}") from None


# config key -> (flag, argparse keywords, JSON schema).  A dotted key is a
# field of the ``kernel`` or ``params`` object.  The parser takes ``type``
# from an integer or number schema and ``choices`` from an enum schema.
_OPTIONS = {
    "seed": ("--seed", {"help": "master seed"}, {"type": "integer", "minimum": 0}),
    "output_dir": (
        "--out",
        {"help": "output directory (default $RFL_OUT_DIR/<command>)"},
        {"type": "string"},
    ),
    "threads": (
        "--threads",
        {"help": "worker threads; every command runs on one, so only 1 is accepted"},
        {**_POS_INT, "maximum": 1},
    ),
    "plots": (
        "--plots", {"action": "store_true", "help": "also write SVG plots"}, {"type": "boolean"}
    ),
    "kernel.family": ("--kernel", {"help": "kernel family"}, {"enum": sorted(FAMILIES)}),
    "kernel.sigma": ("--sigma", {"help": "kernel length-scale"}, _POS_NUM),
    "kernel.beta": ("--beta", {"help": "inverse multiquadric exponent"}, _POS_NUM),
    "kernel.r": ("--r", {"help": "sobolev smoothness order"}, _NUM),
    "kernel.dim": ("--d", {"help": "input dimension"}, _POS_INT),
    "m": ("--m", {"help": "grid size"}, _POS_INT),
    "m_list": ("--m-list", {"type": _int_list, "help": "comma separated grid sizes"}, _M_LIST),
    "eval_resolution": ("--eval-resolution", {}, _POS_INT),
    "n_samples": ("--n-samples", {}, _POS_INT),
    "n_centers": ("--n-centers", {}, _POS_INT),
    "functional": (
        "--functional",
        {"type": json.loads, "help": "functional config as inline JSON"},
        _FUNCTIONAL_SCHEMA,
    ),
    "weight": ("--weight", {"help": "integral weight name"}, {"enum": sorted(BETAS)}),
    "link": ("--link", {"help": "link function name"}, {"enum": sorted(LINKS)}),
    "widths": (
        "--widths",
        {"type": _int_list, "help": "two comma separated hidden widths, e.g. 64,64"},
        {"type": "array", "items": _POS_INT, "minItems": 2, "maxItems": 2},
    ),
    "epochs": ("--epochs", {}, _POS_INT),
    "batch_size": ("--batch-size", {}, _POS_INT),
    "learning_rate": ("--lr", {"help": "peak learning rate"}, _POS_NUM),
    "lr_schedule": ("--lr-schedule", {}, {"enum": ["constant", "cosine"]}),
    "theorem": ("--theorem", {}, {"enum": sorted(THEOREM_FAMILIES)}),
    "M": ("--M", {"help": "target width parameter"}, {"type": "integer", "minimum": 2}),
    # four of meta's constants share a flag name with a kernel field
    **{f"params.{name}": (f"--{name}", {}, schema) for name, schema in _PARAMS.items()},
}

_COMMON = ("seed", "output_dir", "threads", "plots")
_KERNEL = ("kernel.family", "kernel.sigma", "kernel.beta", "kernel.r", "kernel.dim")
_TRAINING = ("n_samples", "widths", "epochs", "batch_size", "learning_rate", "lr_schedule")

# command -> (help text, config keys besides _COMMON)
_COMMANDS = {
    "rates": ("power-function decay across grid sizes", _KERNEL + ("m_list", "eval_resolution")),
    "eigen": ("smallest eigenvalue vs spectral lower bound", _KERNEL + ("m_list",)),
    "project": (
        "projection error vs certified bound",
        _KERNEL + ("m", "n_samples", "n_centers", "eval_resolution"),
    ),
    "train": (
        "train one network on sampled functional values",
        _KERNEL + ("functional", "weight", "link", "m") + _TRAINING,
    ),
    "flm": (
        "regression-map study across grid sizes",
        _KERNEL + ("weight", "link", "m_list") + _TRAINING,
    ),
    "meta": (
        "width schedule and bound shape for one theorem",
        ("theorem", "M") + tuple(f"params.{name}" for name in _PARAMS),
    ),
}


def _command_schema(keys: tuple) -> dict:
    """Strict JSON schema of one command's config: unknown keys are errors."""
    props: dict = {}
    for key in _COMMON + keys:
        outer, _, name = key.rpartition(".")
        where = props
        if outer:
            nested = {"type": "object", "additionalProperties": False, "properties": {}}
            where = props.setdefault(outer, nested)["properties"]
        where[name] = _OPTIONS[key][2]
    if "kernel" in props:
        props["kernel"]["required"] = ["family"]
    return {"type": "object", "additionalProperties": False, "properties": props}


_COMMAND_SCHEMAS = {command: _command_schema(keys) for command, (_, keys) in _COMMANDS.items()}
_COMMAND_SCHEMAS["rates"]["properties"]["m_list"] = {**_M_LIST, "minItems": 4}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if hasattr(args, "config"):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    # a flag left off the command line is absent from args (SUPPRESS default)
    for key in _COMMON + _COMMANDS[args.command][1]:
        if not hasattr(args, key):
            continue
        outer, _, name = key.rpartition(".")
        where = cfg
        if outer:
            nested = cfg.get(outer) or {}
            if not isinstance(nested, dict):
                raise ConfigError(f"invalid {args.command} config at {outer}: not an object")
            where = cfg[outer] = dict(nested)
        where[name] = getattr(args, key)
    return cfg


@functools.cache
def _validator(command: str):
    """The schema validator of one command, built on its first use.

    ``jsonschema.validate`` would check the schema against its metaschema
    on every call; the tests check every schema once instead.
    """
    schema = _COMMAND_SCHEMAS[command]
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(cfg: dict, command: str) -> None:
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_validator(command).iter_errors(cfg))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "config"
        raise ConfigError(f"invalid {command} config at {where}: {exc.message}")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r} (flag --{key.replace('_', '-')})")
    return cfg[key]


def _kernel_from(cfg: dict) -> Kernel:
    if "kernel" not in cfg:
        raise ConfigError("a kernel is required (flag --kernel, or a 'kernel' config object)")
    return Kernel.from_json(cfg["kernel"])


def _train_config(cfg: dict) -> TrainConfig:
    kwargs = {f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig) if f.name in cfg}
    # the schema passes a config file's 3.0 as an integer
    kwargs.update({k: int(v) for k, v in kwargs.items() if k in ("epochs", "batch_size", "seed")})
    if "widths" in cfg:
        kwargs["widths"] = tuple(int(w) for w in cfg["widths"])
    return TrainConfig(**kwargs)


def _weight_link(cfg: dict) -> tuple[str, str]:
    """The gflm weight and link names of a config, defaulting to sin2pi and tanh."""
    return cfg.get("weight", "sin2pi"), cfg.get("link", "tanh")


def _functional_from(cfg: dict) -> TargetFunctional:
    if "functional" in cfg:
        return TargetFunctional.from_json(cfg["functional"])
    weight, link = _weight_link(cfg)
    return TargetFunctional(kind="gflm", beta=weight, link=link)


def _resolve_out(cfg: dict, command: str) -> Path:
    if cfg.get("output_dir"):
        return Path(cfg["output_dir"])
    root = os.environ.get("RFL_OUT_DIR")
    base = Path(root) if root else Path("rfl_out")
    return base / command


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _finite_json(value, path: str, non_finite: list):
    """Copy of a JSON payload with non-finite floats replaced by None.

    Each replaced value is recorded in ``non_finite`` with its key path,
    since strict JSON has no literal for NaN or infinity.
    """
    if isinstance(value, dict):
        return {k: _finite_json(v, f"{path}/{k}" if path else str(k), non_finite)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v, f"{path}/{i}", non_finite) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append({"path": path, "reason": f"non-finite value {value!r}"})
        return None
    return value


def _write_atomic(path: Path, text: str) -> None:
    """Write a file through a temporary sibling and a rename.

    A reader, or a run interrupted mid-write, sees either the previous file
    or the complete new one, never a truncated one.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_outputs(outdir: Path, payload: dict, tables: dict, plots: dict | None = None) -> None:
    """Write report.json, tables/*.csv and plots/*.svg under one directory.

    ``report.json`` is strict JSON: non-finite floats are written as null
    and listed under a top-level ``non_finite`` key with their key paths.
    Every file is replaced atomically.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    non_finite: list = []
    report = _finite_json(payload, "", non_finite)
    if non_finite:
        report["non_finite"] = non_finite
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomic(outdir / "report.json", text)
    if tables:
        tdir = outdir / "tables"
        tdir.mkdir(exist_ok=True)
        for name, (header, rows) in tables.items():
            lines = [",".join(header)]
            lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
            _write_atomic(tdir / f"{name}.csv", "\n".join(lines) + "\n")
    if plots:
        pdir = outdir / "plots"
        pdir.mkdir(exist_ok=True)
        for name, svg in plots.items():
            _write_atomic(pdir / f"{name}.svg", svg)


def _cmd_rates(cfg: dict):
    kernel = _kernel_from(cfg)
    m_list = _require(cfg, "m_list")
    study = rate_study_power(kernel, m_list, cfg.get("eval_resolution"))
    payload = {"command": "rates", "config": cfg, "study": study.to_json()}
    tables = {"rates": study.table()}
    series = [(kernel_label(kernel), [float(m) for m in study.m_list], study.sups)]
    plots = {"rates": (series, "power function sup vs grid size", "m", "sup")}
    return payload, tables, plots


def _cmd_eigen(cfg: dict):
    kernel = _kernel_from(cfg)
    m_list = _require(cfg, "m_list")
    study = rate_study_eigen(kernel, m_list)
    payload = {"command": "eigen", "config": cfg, "study": study.to_json()}
    tables = {"eigen": study.table()}
    ms = [float(r.m) for r in study.reports]
    series = [
        ("lambda_min", ms, [r.lambda_min for r in study.reports]),
        ("m_gamma", ms, [r.bound_m_gamma for r in study.reports]),
    ]
    plots = {"eigen": (series, "smallest eigenvalue vs lower bound", "m", "value")}
    return payload, tables, plots


def _cmd_project(cfg: dict):
    kernel = _kernel_from(cfg)
    m = int(_require(cfg, "m"))
    n_samples = int(cfg.get("n_samples", 100))
    n_centers = int(cfg.get("n_centers", DEFAULT_SAMPLE_CENTERS))
    seed = int(cfg.get("seed", 0))
    grid = uniform_grid(m, kernel.dim)
    system = build_gram(kernel, grid)
    if cfg.get("eval_resolution") is not None:
        eval_set = uniform_grid(int(cfg["eval_resolution"]), kernel.dim)
    else:
        eval_set = default_power_eval_set(grid)
    psup = power_function_sup(system, eval_set)
    label = kernel_label(kernel)
    rows = []
    max_ratio = 0.0
    draws = list(_unit_ball_draws(kernel, n_samples, seed, n_centers))
    node_values = np.array([f.eval_at(grid.points) for f in draws])
    projected = _projected_at(system, node_values, eval_set.points)
    for i, (f, pf) in enumerate(zip(draws, projected)):
        err = float(np.abs(f.eval_at(eval_set.points) - pf).max())
        norm = rkhs_norm(f)
        bound = norm * psup
        ratio = err / bound if bound > 0 else 0.0
        max_ratio = max(max_ratio, ratio)
        rows.append([label, m, "", seed, i, norm, err, bound, ratio])
    payload = {
        "command": "project",
        "config": cfg,
        "power_sup": psup,
        "max_ratio": max_ratio,
        "n_samples": n_samples,
    }
    header = ["kernel", "m", "M", "seed", "sample", "norm", "sup_error", "bound", "ratio"]
    tables = {"project": (header, rows)}
    xs = [float(r[4]) for r in rows]
    series = [("sup_error", xs, [r[6] for r in rows]), ("bound", xs, [r[7] for r in rows])]
    plots = {"project": (series, "projection error vs certified bound", "sample", "value")}
    return payload, tables, plots


def _cmd_train(cfg: dict):
    kernel = _kernel_from(cfg)
    functional = _functional_from(cfg)
    m = int(_require(cfg, "m"))
    n_samples = int(cfg.get("n_samples", 1000))
    config = _train_config(cfg)
    dataset = generate_dataset(kernel, functional, m, n_samples, config.seed)
    net = init(len(dataset.grid), config.widths, config.seed)
    report = train(net, dataset, config)
    payload = {
        "command": "train",
        "config": cfg,
        "functional": functional.to_json(),
        "train_report": report.to_json(),
    }
    label = kernel_label(kernel)
    header = ["kernel", "m", "M", "seed", "epoch", "train_mse"]
    rows = [
        [label, m, "", config.seed, epoch, mse] for epoch, mse in enumerate(report.loss_curve)
    ]
    tables = {"loss_curve": (header, rows)}
    xs = [float(e) for e in range(len(report.loss_curve))]
    series = [("train_mse", xs, list(report.loss_curve))]
    plots = {"loss_curve": (series, "training loss", "epoch", "mse")}
    return payload, tables, plots


def _cmd_flm(cfg: dict):
    kernel = _kernel_from(cfg)
    m_list = _require(cfg, "m_list")
    config = _train_config(cfg)
    experiment = flm_experiment(
        *_weight_link(cfg), kernel, m_list, config, int(cfg.get("n_samples", 4000))
    )
    payload = {"command": "flm", "config": cfg, "experiment": experiment.to_json()}
    tables = {"flm": experiment.table()}
    ms = [float(r.m) for r in experiment.rows]
    series = [
        ("heldout_sup", ms, [r.heldout_sup_error for r in experiment.rows]),
        ("term_I", ms, [r.term_I for r in experiment.rows]),
        ("term_II", ms, [r.term_II for r in experiment.rows]),
    ]
    plots = {"flm": (series, "regression map error vs grid size", "m", "error")}
    return payload, tables, plots


def _cmd_meta(cfg: dict):
    theorem = _require(cfg, "theorem")
    big_m = _require(cfg, "M")
    meta = theorem_metadata(theorem, int(big_m), cfg.get("params"))
    meta = dict(meta)
    # the exact bound can exceed the float range; echo it as a string
    meta["param_count_bound"] = str(meta["param_count_bound"])
    payload = {"command": "meta", "config": cfg, "metadata": meta}
    return payload, {}, {}


# command -> handler(cfg) returning (payload, tables, plots); ``plots`` maps a
# file name to the (series, title, xlabel, ylabel) arguments of line_plot_svg
_HANDLERS = {
    "rates": _cmd_rates,
    "eigen": _cmd_eigen,
    "project": _cmd_project,
    "train": _cmd_train,
    "flm": _cmd_flm,
    "meta": _cmd_meta,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``rfl`` parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="rfl",
        description="Studies of kernel interpolation and network training on node values.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, keys) in _COMMANDS.items():
        sp = sub.add_parser(
            command, help=help_text, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        sp.add_argument("--config", help="JSON config file; flags override its values")
        for key in _COMMON + keys:
            flag, kwargs, schema = _OPTIONS[key]
            if schema.get("type") in _ARG_TYPES:
                kwargs = {"type": _ARG_TYPES[schema["type"]], **kwargs}
            if "enum" in schema:
                kwargs = {"choices": schema["enum"], **kwargs}
            sp.add_argument(flag, dest=key, **kwargs)
    return parser


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
        _validate(cfg, args.command)
        # the report records the computation, not where it is written
        outdir = _resolve_out(cfg, args.command)
        cfg.pop("output_dir", None)
        payload, tables, plots = _HANDLERS[args.command](cfg)
        if not cfg.get("plots"):
            plots = {}
        svgs = {name: line_plot_svg(*spec) for name, spec in plots.items()}
        write_outputs(outdir, payload, tables, svgs)
        print(outdir)
        return 0
    except (ConfigError, ArgumentError, UnsupportedConfigurationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularGramError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
