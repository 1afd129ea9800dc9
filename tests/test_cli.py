"""Command line interface: exit codes, output layout, reproducibility."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

import rfl.cli
from rfl.cli import run
from rfl.errors import (
    ArgumentError,
    ConfigError,
    DivergenceError,
    ResourceLimitError,
    RflError,
    SingularGramError,
    UnsupportedConfigurationError,
)

GAUSS_FLAGS = ["--kernel", "gaussian", "--sigma", "1.0", "--d", "1"]


def read(path: Path) -> str:
    return path.read_text()


def test_no_command_exits_2():
    assert run([]) == 2


def test_help_exits_0():
    assert run(["--help"]) == 0


def test_unknown_flag_exits_2():
    assert run(["rates", "--frequency", "3"]) == 2


def test_rates_happy_path(tmp_path):
    out = tmp_path / "r"
    code = run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["command"] == "rates"
    assert report["config"]["m_list"] == [2, 4, 6, 8]
    assert report["study"]["slope"] < 0.0
    csv = read(out / "tables" / "rates.csv")
    lines = csv.strip().split("\n")
    assert lines[0] == "kernel,m,M,seed,sup_power"
    assert len(lines) == 5
    assert lines[1].startswith("gaussian(sigma=1.0,d=1),2,,,")
    assert not (out / "plots").exists()


def test_rates_plots(tmp_path):
    out = tmp_path / "rp"
    code = run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--plots", "--out", str(out)])
    assert code == 0
    svg = read(out / "plots" / "rates.svg")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_eigen_pinned_header_and_bool_cells(tmp_path):
    out = tmp_path / "e"
    code = run(
        ["eigen", "--kernel", "sobolev", "--r", "1.0", "--d", "1", "--m-list", "1,2,3", "--out", str(out)]
    )
    assert code == 0
    lines = read(out / "tables" / "eigen.csv").strip().split("\n")
    assert lines[0] == "kernel,m,d,lambda_min,m_gamma,m_pow_d_gamma,satisfied"
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.endswith(",true")
    assert ",2,1," in lines[2]


def test_rerun_byte_identical(tmp_path):
    out = tmp_path / "rr"
    args = ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--out", str(out)]
    assert run(args) == 0
    first_json = read(out / "report.json")
    first_csv = read(out / "tables" / "rates.csv")
    assert run(args) == 0
    assert read(out / "report.json") == first_json
    assert read(out / "tables" / "rates.csv") == first_csv


def test_commands_in_one_process_share_one_parser(tmp_path):
    # the parser is built once per process; a run in between leaves it as it was
    argv = ["eigen", "--kernel", "sobolev", "--r", "1", "--d", "1", "--m-list", "1,2,3"]
    assert run([*argv, "--out", str(tmp_path / "a")]) == 0
    assert run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--out", str(tmp_path / "r")]) == 0
    assert run([*argv, "--out", str(tmp_path / "b")]) == 0
    table = Path("tables", "eigen.csv")
    assert (tmp_path / "a" / table).read_bytes() == (tmp_path / "b" / table).read_bytes()
    assert rfl.cli._build_parser() is rfl.cli._build_parser()


def test_threads_do_not_change_tables(tmp_path):
    # perfbench passes --threads 1, the default; it changes no table
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--out", str(a)]) == 0
    assert run(
        ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--threads", "1", "--out", str(b)]
    ) == 0
    assert read(a / "tables" / "rates.csv") == read(b / "tables" / "rates.csv")


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RFL_OUT_DIR", str(tmp_path / "envroot"))
    code = run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8"])
    assert code == 0
    assert (tmp_path / "envroot" / "rates" / "report.json").exists()


def test_out_dir_cwd_fallback(tmp_path, monkeypatch):
    monkeypatch.delenv("RFL_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code = run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8"])
    assert code == 0
    assert (tmp_path / "rfl_out" / "rates" / "report.json").exists()


def test_config_file_and_flag_override(tmp_path):
    cfg = {
        "kernel": {"family": "gaussian", "sigma": 1.0, "dim": 1},
        "m_list": [2, 4, 6, 8],
        "output_dir": str(tmp_path / "from_file"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_file" / "report.json").exists()
    # flags win over file values
    assert run(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "report.json").exists()


def test_config_file_errors(tmp_path):
    assert run(["rates", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["rates", "--config", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert run(["rates", "--config", str(arr)]) == 2
    no_family = tmp_path / "no_family.json"
    no_family.write_text(json.dumps({"kernel": {"sigma": 1.0}, "m_list": [2, 4, 6, 8]}))
    assert run(["rates", "--config", str(no_family)]) == 2


def test_schema_rejections(tmp_path):
    # negative length-scale
    assert run(["rates", "--kernel", "gaussian", "--sigma", "-1", "--d", "1", "--m-list", "2,4,6,8"]) == 2
    # unknown config key
    extra = tmp_path / "extra.json"
    extra.write_text(
        json.dumps(
            {"kernel": {"family": "gaussian", "sigma": 1.0, "dim": 1}, "m_list": [2, 4, 6, 8], "bogus": 1}
        )
    )
    assert run(["rates", "--config", str(extra)]) == 2
    # m_list too short
    assert run(["rates", *GAUSS_FLAGS, "--m-list", "2,4", "--out", str(tmp_path / "x")]) == 2


def test_resource_limit_exits_2(tmp_path):
    code = run(["project", *GAUSS_FLAGS, "--m", "5000", "--out", str(tmp_path / "p")])
    assert code == 2


def test_unsupported_configuration_exits_2(tmp_path):
    code = run(
        ["meta", "--theorem", "multiquadric", "--M", "64", "--d", "5", "--out", str(tmp_path / "m")]
    )
    assert code == 2


DOCUMENTED_EXIT_CODES = {
    ConfigError: 2,
    ArgumentError: 2,
    UnsupportedConfigurationError: 2,
    ResourceLimitError: 2,
    SingularGramError: 3,
    DivergenceError: 3,
}


def _error_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_subclasses(sub)


def test_every_error_subclass_has_its_documented_exit_code(tmp_path, monkeypatch, capsys):
    subclasses = set(_error_subclasses(RflError))
    assert subclasses == set(DOCUMENTED_EXIT_CODES)
    for cls in subclasses:

        def handler(cfg, cls=cls):
            raise cls("raised from a patched handler")

        monkeypatch.setitem(rfl.cli._HANDLERS, "meta", handler)
        out = tmp_path / cls.__name__
        code = run(["meta", "--theorem", "sobolev", "--M", "64", "--out", str(out)])
        assert code == DOCUMENTED_EXIT_CODES[cls], cls.__name__
        assert "raised from a patched handler" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path):
    code = run(
        ["rates", "--kernel", "gaussian", "--sigma", "500", "--d", "1", "--m-list", "1,2,3,4", "--out", str(tmp_path / "f")]
    )
    assert code == 3


def test_extended_eigenvalue_keeps_its_double_past_50_digits(tmp_path):
    # the 50-digit eigensolve printed 1.1148483482089017e-52 here; 150 digits give this
    argv = ["eigen", "--kernel", "gaussian", "--sigma", "1", "--d", "1", "--m-list", "24"]
    assert run([*argv, "--out", str(tmp_path / "e")]) == 0
    row = read(tmp_path / "e" / "tables" / "eigen.csv").splitlines()[1]
    assert row.split(",")[-4] == "1.0754863207487035e-56"


def test_non_positive_extended_eigenvalue_exits_3(tmp_path, capsys):
    # sigma=1e12 at m=16 leaves the grid Gram positive only below 2^-1352, the precision cap
    argv = ["eigen", "--kernel", "gaussian", "--sigma", "1e12", "--d", "1", "--m-list", "8,16"]
    assert run([*argv, "--out", str(tmp_path / "e")]) == 3
    assert "at m=16 is not positive at 1352 bits" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_extended_eigensolve_without_convergence_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("rfl._exact._STEPS_PER_BIT", 0)
    argv = ["eigen", "--kernel", "sobolev", "--r", "1", "--d", "1", "--m-list", "2,3"]
    assert run([*argv, "--out", str(tmp_path / "e")]) == 3
    assert "at m=2: no convergence" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_extended_eigenvalue_past_the_precision_cap_exits_3(tmp_path, monkeypatch, capsys):
    # gaussian sigma=1 keeps a double at 50 digits up to m=12, not at m=16
    monkeypatch.setattr("rfl._exact._MAX_PREC", 169)
    argv = ["eigen", "--kernel", "gaussian", "--sigma", "1", "--d", "1", "--m-list", "12,16"]
    assert run([*argv, "--out", str(tmp_path / "e")]) == 3
    assert "at m=16 does not round to one double at 169 bits" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_report_does_not_depend_on_output_path(tmp_path):
    argv = ["eigen", "--kernel", "sobolev", "--r", "1", "--d", "1", "--m-list", "1,2,3"]
    short, long = tmp_path / "pass9", tmp_path / "pass10" / "a-longer-directory-name"
    assert run([*argv, "--out", str(short)]) == 0
    assert run([*argv, "--out", str(long)]) == 0
    for name in ("report.json", "tables/eigen.csv"):
        assert (short / name).read_bytes() == (long / name).read_bytes(), name
    assert "output_dir" not in json.loads(read(short / "report.json"))["config"]


def test_project_certified_bound(tmp_path):
    out = tmp_path / "proj"
    code = run(
        ["project", *GAUSS_FLAGS, "--m", "4", "--n-samples", "25", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["max_ratio"] <= 1.0 + 1e-6
    lines = read(out / "tables" / "project.csv").strip().split("\n")
    assert lines[0] == "kernel,m,M,seed,sample,norm,sup_error,bound,ratio"
    assert len(lines) == 26


def test_train_loss_curve(tmp_path):
    out = tmp_path / "tr"
    code = run(
        [
            "train",
            *GAUSS_FLAGS,
            "--m", "2",
            "--weight", "sin2pi",
            "--link", "tanh",
            "--n-samples", "30",
            "--epochs", "4",
            "--widths", "8,8",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["train_report"]["epochs"] == 4
    assert report["functional"]["kind"] == "gflm"
    lines = read(out / "tables" / "loss_curve.csv").strip().split("\n")
    assert lines[0] == "kernel,m,M,seed,epoch,train_mse"
    assert len(lines) == 5


def test_train_inline_functional_json(tmp_path):
    out = tmp_path / "trf"
    code = run(
        [
            "train",
            *GAUSS_FLAGS,
            "--m", "2",
            "--functional", json.dumps({"kind": "l2_energy"}),
            "--n-samples", "30",
            "--epochs", "2",
            "--widths", "8,8",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["functional"]["kind"] == "l2_energy"


def test_flm_smoke(tmp_path):
    out = tmp_path / "flm"
    code = run(
        [
            "flm",
            *GAUSS_FLAGS,
            "--m-list", "1,2",
            "--n-samples", "20",
            "--epochs", "2",
            "--widths", "8,8",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert len(report["experiment"]["rows"]) == 2
    lines = read(out / "tables" / "flm.csv").strip().split("\n")
    assert lines[0].startswith("kernel,m,M,seed,term_I,term_II,total")
    assert len(lines) == 3


def test_meta_no_tables(tmp_path):
    out = tmp_path / "meta"
    code = run(["meta", "--theorem", "sobolev", "--M", "64", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out / "report.json"))
    assert report["metadata"]["m"] == 2
    assert report["metadata"]["widths"] == [189, 196608000]
    assert isinstance(report["metadata"]["param_count_bound"], str)
    assert not (out / "tables").exists()


def _shape(value):
    """JSON type skeleton of a payload: nested key sets and value types."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        shapes = [_shape(v) for v in value]
        assert all(s == shapes[0] for s in shapes)
        return shapes[:1]
    return type(value).__name__


_KERNEL_SHAPE = {"dim": "int", "family": "str", "sigma": "float"}
_REPORT_SHAPES = [
    (
        ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8"],
        "study",
        {
            "kernel": _KERNEL_SHAPE,
            "m_list": ["int"],
            "sups": ["float"],
            "fit_kind": "str",
            "slope": "float",
            "intercept": "float",
            "r_squared": "float",
            "stderr": "float",
            "ratios": ["float"],
            "ratios_strictly_decreasing": "bool",
            "eval_resolution": "NoneType",
        },
    ),
    (
        ["eigen", *GAUSS_FLAGS, "--m-list", "1,2"],
        "study",
        {
            "kernel": _KERNEL_SHAPE,
            "d": "int",
            "reports": [
                {
                    "kernel": _KERNEL_SHAPE,
                    "m": "int",
                    "d": "int",
                    "lambda_min": "float",
                    "inv_op_norm": "float",
                    "bound_m_gamma": "float",
                    "bound_satisfied": "bool",
                    "bound_m_pow_d_gamma": "float",
                    "bound_m_pow_d_satisfied": "bool",
                    "jitter_used": "float",
                    "method": "str",
                }
            ],
        },
    ),
    (
        ["train", *GAUSS_FLAGS, "--m", "2", "--n-samples", "20", "--epochs", "2",
         "--widths", "4,4"],
        "train_report",
        {
            "epochs": "int",
            "final_train_mse": "float",
            "heldout_sup_error": "float",
            "heldout_mean_abs": "float",
            "param_count": "int",
            "seed": "int",
            "loss_curve": ["float"],
        },
    ),
    (
        ["flm", *GAUSS_FLAGS, "--m-list", "1,2", "--n-samples", "20", "--epochs", "1",
         "--widths", "4,4"],
        "experiment",
        {
            "kernel": _KERNEL_SHAPE,
            "weight": "str",
            "link": "str",
            "m_list": ["int"],
            "n_samples": "int",
            "train_config": {
                "epochs": "int",
                "batch_size": "int",
                "learning_rate": "float",
                "seed": "int",
                "widths": ["int"],
                "lr_schedule": "str",
            },
            "rows": [
                {
                    "m": "int",
                    "n_nodes": "int",
                    "term_I": "float",
                    "term_II": "float",
                    "total": "float",
                    "heldout_sup_error": "float",
                    "heldout_mean_abs": "float",
                    "power_sup": "float",
                    "c_f": "float",
                    "c_g": "float",
                    "jitter_used": "float",
                }
            ],
            "sup_trend_nonincreasing": "bool",
        },
    ),
]


@pytest.mark.parametrize(
    "argv, key, expected", _REPORT_SHAPES, ids=[argv[0] for argv, _, _ in _REPORT_SHAPES]
)
def test_report_json_shape(argv, key, expected, tmp_path):
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 0
    assert _shape(json.loads(read(out / "report.json"))[key]) == expected


@pytest.mark.parametrize(
    "command, table, base",
    [
        ("train", "loss_curve", {"m": 2}),
        ("flm", "flm", {"m_list": [1, 2]}),
    ],
)
@pytest.mark.parametrize("key, value", [("epochs", 2), ("batch_size", 4), ("seed", 1)])
def test_integral_float_train_setting_in_config_file_runs_as_its_int(
    command, table, base, key, value, tmp_path
):
    # jsonschema counts 2.0 as an integer; it used to reach TrainConfig and exit 2
    cfg = {"kernel": {"family": "gaussian"}, **base, "n_samples": 10, "epochs": 1,
           "widths": [4, 4]}
    csvs = []
    for name, number in (("int", value), ("float", float(value))):
        (tmp_path / f"{name}.json").write_text(json.dumps({**cfg, key: number}))
        out = tmp_path / name
        assert run([command, "--config", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
        csvs.append((out / "tables" / f"{table}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_train_single_sample_report_is_strict_json(tmp_path):
    # one sample leaves the held-out split empty, so its errors are NaN
    out = tmp_path / "one"
    code = run(
        ["train", *GAUSS_FLAGS, "--m", "2", "--n-samples", "1", "--epochs", "2",
         "--widths", "4,4", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(read(out / "report.json"), parse_constant=_reject_constant)
    assert report["train_report"]["heldout_sup_error"] is None
    assert report["train_report"]["heldout_mean_abs"] is None
    paths = {entry["path"] for entry in report["non_finite"]}
    assert paths == {"train_report/heldout_sup_error", "train_report/heldout_mean_abs"}
    assert all(entry["reason"] for entry in report["non_finite"])
    assert sorted(p.name for p in out.rglob("*")) == ["loss_curve.csv", "report.json", "tables"]


def test_finite_report_has_no_non_finite_key(tmp_path):
    out = tmp_path / "r"
    assert run(["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"), parse_constant=_reject_constant)
    assert "non_finite" not in report


# -- flag parsing, config merging and validation, without numerics ----------

KERNEL_ALL = ["--kernel", "inverse_multiquadric", "--sigma", "0.5", "--beta", "2", "--r", "1.5", "--d", "2"]
KERNEL_ALL_CFG = {"family": "inverse_multiquadric", "sigma": 0.5, "beta": 2.0, "r": 1.5, "dim": 2}
# every command runs on one thread and accepts only --threads 1
ONE_THREAD_ALL = ["--out", "{tmp}/o", "--seed", "7", "--threads", "1", "--plots"]
# the output directory is resolved first and left out of the echoed config
ONE_THREAD_ALL_CFG = {"seed": 7, "threads": 1, "plots": True}
TRAIN_ALL = ["--widths", "8,6", "--epochs", "3", "--batch-size", "5", "--lr", "0.01",
             "--lr-schedule", "constant", "--n-samples", "30"]
TRAIN_ALL_CFG = {"widths": [8, 6], "epochs": 3, "batch_size": 5, "learning_rate": 0.01,
                 "lr_schedule": "constant", "n_samples": 30}

# (argv, config file or None, expected report.json["config"]); "{cfg}" is the
# config file's path and "{tmp}" the test's temporary directory
MERGE_CASES = [
    (
        ["rates", *ONE_THREAD_ALL, *KERNEL_ALL, "--m-list", "2,4,,6,8", "--eval-resolution", "9"],
        None,
        {**ONE_THREAD_ALL_CFG, "kernel": KERNEL_ALL_CFG, "m_list": [2, 4, 6, 8], "eval_resolution": 9},
    ),
    (
        ["rates", "--config", "{cfg}", "--sigma", "3", "--m-list", "1,2,3,4,5"],
        {"kernel": {"family": "gaussian", "sigma": 1.0, "dim": 1}, "m_list": [2, 4, 6, 8], "seed": 3},
        {"kernel": {"family": "gaussian", "sigma": 3.0, "dim": 1}, "m_list": [1, 2, 3, 4, 5], "seed": 3},
    ),
    (
        ["eigen", *ONE_THREAD_ALL, *KERNEL_ALL, "--m-list", "1,2"],
        None,
        {**ONE_THREAD_ALL_CFG, "kernel": KERNEL_ALL_CFG, "m_list": [1, 2]},
    ),
    (
        ["eigen", "--config", "{cfg}"],
        {"kernel": {"family": "gaussian", "dim": 2}, "m_list": [1, 2]},
        {"kernel": {"family": "gaussian", "dim": 2}, "m_list": [1, 2]},
    ),
    (
        ["eigen", "--config", "{cfg}", "--d", "1", "--kernel", "sobolev", "--r", "1"],
        {"kernel": {"family": "gaussian", "sigma": 2.0, "dim": 2}, "m_list": [1, 2]},
        {"kernel": {"family": "sobolev", "sigma": 2.0, "dim": 1, "r": 1.0}, "m_list": [1, 2]},
    ),
    (
        ["project", *ONE_THREAD_ALL, *KERNEL_ALL, "--m", "3", "--n-samples", "4", "--n-centers", "5",
         "--eval-resolution", "6"],
        None,
        {**ONE_THREAD_ALL_CFG, "kernel": KERNEL_ALL_CFG, "m": 3, "n_samples": 4, "n_centers": 5,
         "eval_resolution": 6},
    ),
    (
        ["project", "--config", "{cfg}", "--seed", "0", "--out", "{tmp}/flag"],
        {"kernel": {"family": "gaussian"}, "m": 2, "seed": 9, "output_dir": "{tmp}/file",
         "plots": False},
        {"kernel": {"family": "gaussian"}, "m": 2, "seed": 0, "plots": False},
    ),
    (
        ["train", *ONE_THREAD_ALL, *KERNEL_ALL, *TRAIN_ALL, "--m", "2", "--weight", "one",
         "--link", "identity", "--functional", '{"kind": "l2_energy"}'],
        None,
        {**ONE_THREAD_ALL_CFG, **TRAIN_ALL_CFG, "kernel": KERNEL_ALL_CFG, "m": 2, "weight": "one",
         "link": "identity", "functional": {"kind": "l2_energy"}},
    ),
    (
        ["train", "--config", "{cfg}", "--functional", '{"kind": "gflm", "beta": "sin2pi"}',
         "--epochs", "9"],
        {"kernel": {"family": "gaussian"}, "m": 2, "functional": {"kind": "l2_energy"},
         "epochs": 1, "widths": [4, 4]},
        {"kernel": {"family": "gaussian"}, "m": 2, "functional": {"kind": "gflm", "beta": "sin2pi"},
         "epochs": 9, "widths": [4, 4]},
    ),
    (
        ["flm", *ONE_THREAD_ALL, *KERNEL_ALL, *TRAIN_ALL, "--m-list", "1,2", "--weight", "one",
         "--link", "identity"],
        None,
        {**ONE_THREAD_ALL_CFG, **TRAIN_ALL_CFG, "kernel": KERNEL_ALL_CFG, "m_list": [1, 2],
         "weight": "one", "link": "identity"},
    ),
    (
        ["flm", "--config", "{cfg}", "--lr", "0.5", "--widths", "2,3"],
        {"kernel": {"family": "gaussian"}, "m_list": [1], "learning_rate": 0.1, "widths": [4, 4]},
        {"kernel": {"family": "gaussian"}, "m_list": [1], "learning_rate": 0.5, "widths": [2, 3]},
    ),
    (
        ["meta", *ONE_THREAD_ALL, "--theorem", "gaussian", "--M", "64", "--r", "2.5", "--s", "0.5",
         "--d", "3", "--sigma", "0.25", "--beta", "1.5", "--c", "2"],
        None,
        {**ONE_THREAD_ALL_CFG, "theorem": "gaussian", "M": 64,
         "params": {"r": 2.5, "s": 0.5, "d": 3, "sigma": 0.25, "beta": 1.5, "c": 2.0}},
    ),
    (
        ["meta", "--config", "{cfg}", "--r", "3", "--M", "32"],
        {"theorem": "sobolev", "M": 64, "params": {"r": 2.0, "s": 0.5}},
        {"theorem": "sobolev", "M": 32, "params": {"r": 3.0, "s": 0.5}},
    ),
]


def _fill(value, tmp: Path):
    """Replace the ``{tmp}`` and ``{cfg}`` placeholders inside a case."""
    if isinstance(value, str):
        return value.replace("{tmp}", str(tmp)).replace("{cfg}", str(tmp / "cfg.json"))
    if isinstance(value, list):
        return [_fill(v, tmp) for v in value]
    if isinstance(value, dict):
        return {k: _fill(v, tmp) for k, v in value.items()}
    return value


def _echo_run(argv, tmp_path, monkeypatch, keep=()) -> int:
    """Run the CLI with every handler not in ``keep`` replaced by one that echoes its config."""
    monkeypatch.setenv("RFL_OUT_DIR", str(tmp_path / "env"))
    for command in set(rfl.cli._HANDLERS) - set(keep):
        monkeypatch.setitem(rfl.cli._HANDLERS, command, lambda cfg: ({"config": cfg}, {}, {}))
    return run(argv)


@pytest.mark.parametrize(
    "argv, file_cfg, expected",
    MERGE_CASES,
    ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(MERGE_CASES)],
)
def test_flags_and_config_file_merge_into_the_echoed_config(
    argv, file_cfg, expected, tmp_path, monkeypatch
):
    if file_cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(_fill(file_cfg, tmp_path)))
    expected = _fill(expected, tmp_path)
    argv = _fill(argv, tmp_path)
    assert _echo_run(argv, tmp_path, monkeypatch) == 0
    # --out wins over a file's output_dir, so the report is only found there
    flags = dict(zip(argv, argv[1:]))
    out = Path(flags.get("--out") or tmp_path / "env" / argv[0])
    config = json.loads(read(out / "report.json"))["config"]
    # compared as canonical JSON text, so 1 and 1.0 differ
    assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)


REJECTED_ARGVS = [
    ["rates", *GAUSS_FLAGS, "--m-list", "2,x,6,8"],
    ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,0"],
    ["rates", "--kernel", "laplace", "--m-list", "2,4,6,8"],
    ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--eval-resolution", "0"],
    ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--threads", "0"],
    ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--theorem", "gaussian"],
    ["eigen", "--kernel", "gaussian", "--d", "0", "--m-list", "1,2"],
    ["eigen", "--kernel", "gaussian", "--beta", "0", "--m-list", "1,2"],
    ["project", *GAUSS_FLAGS, "--m", "0"],
    ["project", *GAUSS_FLAGS, "--m", "2", "--n-centers", "1.5"],
    ["train", *GAUSS_FLAGS, "--m", "2", "--widths", "4,x"],
    ["train", *GAUSS_FLAGS, "--m", "2", "--widths", "4,4,4"],
    ["train", *GAUSS_FLAGS, "--m", "2", "--functional", "{not json"],
    ["train", *GAUSS_FLAGS, "--m", "2", "--functional", '{"kind": "nope"}'],
    ["train", *GAUSS_FLAGS, "--m", "2", "--lr", "0"],
    ["flm", *GAUSS_FLAGS, "--m-list", "1,2", "--lr-schedule", "linear"],
    ["flm", *GAUSS_FLAGS, "--m-list", "1,2", "--weight", "cos"],
    ["flm", *GAUSS_FLAGS, "--m-list", "1,2", "--batch-size", "0"],
    ["meta", "--theorem", "sobolev", "--M", "1"],
    ["meta", "--theorem", "sobolev", "--M", "64", "--s", "0"],
    ["meta", "--theorem", "sobolev", "--M", "64", "--kernel", "gaussian"],
    ["meta", "--theorem", "sobolev", "--M", "64", "--r", "0.5"],
    ["meta", "--theorem", "sobolev", "--M", "64", "--r", "nan"],
    ["meta", "--theorem", "gaussian", "--M", "64", "--sigma", "1e200"],
    ["meta", "--theorem", "sobolev", "--M", "1" + "0" * 400],
    ["meta", "--theorem", "sobolev", "--M", "64", "--r", "0.75", "--d", "2"],
    ["meta", "--theorem", "sobolev", "--M", "1" + "0" * 300],
    # every command runs on one thread and accepts just 1
    ["rates", *GAUSS_FLAGS, "--m-list", "2,4,6,8", "--threads", "2"],
    ["eigen", *GAUSS_FLAGS, "--m-list", "1,2", "--threads", "2"],
    ["project", *GAUSS_FLAGS, "--m", "3", "--threads", "2"],
    ["train", *GAUSS_FLAGS, "--m", "2", "--threads", "2"],
    ["flm", *GAUSS_FLAGS, "--m-list", "1,2", "--threads", "2"],
    ["meta", "--theorem", "gaussian", "--M", "100", "--threads", "2"],
    # a prefix of a flag is not that flag
    ["flm", "--kernel", "gaussian", "--m", "4"],
    ["rates", *GAUSS_FLAGS, "--m", "2,4,6,8"],
    # non-finite ODE settings pass the schema (json reads Infinity and NaN) and
    # are rejected when train builds the functional, not when the ODE diverges
    *[
        ["train", "--kernel", "gaussian", "--m", "4", "--n-samples", "20", "--epochs", "1",
         "--functional", '{"kind": "ode_map", "ode": {"rhs": "u", "a": 0, "b": %s, '
         '"h0": %s, "steps": 64}}' % bh]
        for bh in (("Infinity", "1"), ("1", "NaN"))
    ],
]


@pytest.mark.parametrize("argv", REJECTED_ARGVS, ids=" ".join)
def test_rejected_flags_exit_2(argv, tmp_path, monkeypatch):
    # meta's handler is plain arithmetic and checks its constants itself, and
    # train's builds its functional before any sampling or training
    assert _echo_run(argv, tmp_path, monkeypatch, keep=("meta", "train")) == 2
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("command", sorted(rfl.cli._HANDLERS))
def test_threads_above_one_in_a_config_file_exit_2(command, tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps({"threads": 2}))
    assert _echo_run([command, "--config", str(tmp_path / "cfg.json")], tmp_path, monkeypatch) == 2
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("command", sorted(rfl.cli._HANDLERS))
def test_subcommand_help_exits_0(command, capsys):
    assert run([command, "--help"]) == 0
    assert f"usage: rfl {command}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["project", *GAUSS_FLAGS, "--m", "3"],
        ["train", *GAUSS_FLAGS, "--m", "2", "--epochs", "1", "--widths", "4,4"],
        ["flm", *GAUSS_FLAGS, "--m-list", "1,2", "--epochs", "1", "--widths", "4,4"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2(argv, tmp_path):
    assert run([*argv, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "argv, file_cfg",
    [
        (["rates", "--kernel", "gaussian", "--sigma", "inf", "--m-list", "2,4,6,8"], None),
        (["rates", "--kernel", "sobolev", "--r", "nan", "--m-list", "2,4,6,8"], None),
        # Python's json reads the non-standard Infinity literal
        (["rates", "--config", "{cfg}"],
         '{"kernel": {"family": "sobolev", "r": Infinity}, "m_list": [2, 4, 6, 8]}'),
    ],
    ids=["sigma-inf", "r-nan", "config-r-Infinity"],
)
def test_non_finite_kernel_parameter_exits_2(argv, file_cfg, tmp_path):
    if file_cfg is not None:
        (tmp_path / "cfg.json").write_text(file_cfg)
    assert run([*_fill(argv, tmp_path), "--out", str(tmp_path / "o")]) == 2


def test_sobolev_order_past_the_cap_exits_2(tmp_path):
    # r = 200 exited 1 with an OverflowError from math.gamma
    argv = ["eigen", "--kernel", "sobolev", "--r", "200", "--d", "1", "--m-list", "2,3"]
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2


def test_flag_into_a_config_value_that_is_not_an_object_exits_2(tmp_path, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps({"kernel": 5, "m_list": [2, 4, 6, 8]}))
    argv = ["rates", "--config", str(tmp_path / "cfg.json"), "--sigma", "1"]
    assert _echo_run(argv, tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("command", sorted(rfl.cli._COMMAND_SCHEMAS))
def test_command_schema_is_valid_against_its_metaschema(command):
    schema = rfl.cli._COMMAND_SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("command", sorted(rfl.cli._COMMAND_SCHEMAS))
def test_command_schema_holds_exactly_the_options_of_its_flags(command):
    # a key patched into one schema by hand would have no flag
    keys = rfl.cli._COMMON + rfl.cli._COMMANDS[command][1]
    want: dict = {}
    for key in keys:
        outer, _, name = key.rpartition(".")
        want.setdefault(outer, set()).add(name)
    props = rfl.cli._COMMAND_SCHEMAS[command]["properties"]
    assert set(props) == want.pop("") | set(want)
    for outer, names in want.items():
        assert set(props[outer]["properties"]) == names


def test_eigen_config_with_a_top_level_d_exits_2(tmp_path, monkeypatch):
    # d belongs to the kernel: --d sets kernel.dim, and a top-level d is an unknown key
    cfg = {"kernel": {"family": "gaussian", "dim": 2}, "m_list": [1, 2], "d": 2}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert _echo_run(["eigen", "--config", str(tmp_path / "cfg.json")], tmp_path, monkeypatch) == 2
    assert not (tmp_path / "env").exists()


BAD_CONFIGS = [
    ("rates", {"kernel": {"family": "gaussian", "sigma": -1.0, "dim": 1}, "m_list": [2, 4, 6, 8]}),
    ("rates", {"kernel": {"family": "gaussian"}, "m_list": [2, 4]}),
    ("rates", {"kernel": {"family": "gaussian"}, "m_list": [2, 4, 6, 8], "bogus": 1}),
    ("flm", {"kernel": {"sigma": 1.0}, "m_list": [2], "threads": 2}),
    ("train", {"kernel": {"family": "gaussian"}, "m": 0, "epochs": "x", "widths": [1, 2, 3]}),
    ("eigen", {"kernel": {"family": "gaussian"}, "m_list": ["a"], "d": 0}),
]


@pytest.mark.parametrize("command, cfg", BAD_CONFIGS)
def test_cached_validator_reports_the_error_jsonschema_validate_raises(command, cfg):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, rfl.cli._COMMAND_SCHEMAS[command])
    where = "/".join(str(p) for p in expected.value.absolute_path) or "config"
    with pytest.raises(ConfigError) as got:
        rfl.cli._validate(cfg, command)
    assert str(got.value) == f"invalid {command} config at {where}: {expected.value.message}"


def test_cli_runs_do_not_check_the_metaschema(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_schema called during a run")

    rfl.cli._validator.cache_clear()
    monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", refuse)
    argv = ["eigen", *GAUSS_FLAGS, "--m-list", "1,2", "--out", str(tmp_path / "e")]
    assert run(argv) == 0
    assert run(argv) == 0
    assert rfl.cli._validator("eigen") is rfl.cli._validator("eigen")
    assert rfl.cli._validator.cache_info().misses == 1
