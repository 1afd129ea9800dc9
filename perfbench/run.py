"""Benchmark for ``rfl``: study workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src``).
``all`` runs the workloads listed in ``BENCHMARK.json`` (``eigen_sweep``,
``certify``, ``flm_train``); ``project_2d`` runs only by name, because
on a 2-core shared host its runs are too noisy for the time budget the
listed workloads leave (see ``workloads.Project2d``).

Every pass of a workload runs in its own fresh process
(``perfbench/worker.py``) as a closed loop: one caller, ``--threads 1``,
BLAS at its default thread count.  Passes repeat while another one
still ends within ``--seconds`` (at least ``MIN_PASSES``); the reported
figures are medians over passes.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (the workload's calls after set-up), ``setup_s`` (importing
``rfl`` and ``rfl.cli`` and building the inputs in a fresh process; the
median of at least ``MIN_SETUPS`` processes, the first of which runs
before the passes), ``peak_rss_mb`` (the pass process's maximum resident
memory) and ``cert_rel_err_max`` (the largest relative deviation of the
workload's certified numbers from ``reference.json``).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``BENCHMARK.json``, with the trace overhead, after checking the call
counts each config fixes; the results file holds every layer metric
the tracer computes.  The share of checked units that failed
(``failed_frac``) is the ``failed``/``attempted`` pair of the result
line; output digests are compared across the passes of one invocation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with the machine and provenance block is written under
``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("eigen_sweep", "certify", "flm_train", "project_2d")
MIN_PASSES = 2
MIN_SETUPS = 3
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A pass could not run or produced no result."""


def _worker(workload: str, seed: int, mode: str, out: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} pass of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["rfl_file"]).resolve() != (ROOT / "src" / "rfl" / "__init__.py").resolve():
        raise BenchError(f"rfl was imported from {result['rfl_file']}, not from this checkout")
    return result


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one workload and reduce them to metrics and checks."""
    runs = OUT / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(runs, ignore_errors=True)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    modes = ["pass", "traced"] if trace else ["pass"]
    # a set-up-only process first warms the file cache and counts as one set-up sample
    setups = [_worker(workload, seed, "setup", runs / "setup", deadline)["setup_s"]]
    passes: list[dict] = []
    first = time.monotonic()
    while True:
        for mode in modes:
            result = _worker(workload, seed, mode, runs / f"pass{len(passes)}", deadline)
            result["mode"] = mode
            passes.append(result)
        # stop once another round would end past --seconds
        now = time.monotonic()
        per_pass = (now - first) / len(passes)
        if len(passes) >= MIN_PASSES and now - start + per_pass * len(modes) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(_worker(workload, seed, "setup", runs / "setup", deadline)["setup_s"])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = [p["digest"] for p in passes]
    mismatched = sum(d != digests[0] for d in digests[1:])
    attempted += len(digests) - 1
    failed += mismatched
    checks = {"digest_mismatches": mismatched}

    plain = [p for p in passes if p["mode"] == "pass"]
    metrics = {
        "wall_s": _median(plain, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "cert_rel_err_max": max(p["cert_rel_err_max"] for p in passes),
    }
    extra = {}
    if workload == "eigen_sweep":
        extra["lambda_rel_err_max"] = max(p.get("lambda_rel_err_max", 1.0) for p in passes)
    if trace:
        traced = [p for p in passes if p["mode"] == "traced"]
        layers = {}
        for key in traced[0]["layers"]:
            values = [p["layers"][key] for p in traced]
            counted = not key.endswith((".s", "_s", "frac"))
            if counted and len(set(values)) > 1:
                checks.setdefault("unsteady_counts", []).append(key)
                failed += 1
            layers[key] = statistics.median(values)
        traced_wall = _median(traced, "wall_s")
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        layers["trace.bindings"] = traced[0]["bindings"]
        missing = [p["missing_calls"] for p in traced if p["missing_calls"]]
        checks["completeness"] = {"ok": not missing, "missing": missing}
        attempted += len(traced)
        failed += len(missing)
        metrics = layers
        extra["shares_of_traced_wall"] = {
            k: v / traced_wall for k, v in layers.items() if k.endswith(".s") and v > 0
        }
    extra["failed_frac"] = failed / attempted
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "checks": checks,
        "passes": passes,
        "setup_samples": setups,
        "elapsed_s": time.monotonic() - start,
    }


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath", "jsonschema"):
        versions[pkg] = importlib.metadata.version(pkg)
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": _blas_threads()},
        },
        "versions": versions,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rfl" / "__init__.py").is_file():
        print(f"error: no rfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    layer_map = json.loads((HERE / "layer_map.json").read_text()) if args.trace else {}

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = provenance(args.seed)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    combined = {}
    for res in results:
        missing = set(units) - set(res["metrics"])
        if missing:
            print(f"error: {res['workload']} did not report {sorted(missing)}", file=sys.stderr)
            return 1
        res["provenance"] = prov
        res["moves"] = layer_map
        path = OUT / "results" / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        print(f"# {res['workload']}: {len(res['passes'])} passes, "
              f"{len(res['setup_samples'])} set-ups, {res['elapsed_s']:.1f} s -> {path.relative_to(ROOT)}")
        for name in units:
            value = res["metrics"][name]
            print(f"{res['workload']:<12} {name:<42} {value:>14.6g} {units[name]}")
            combined[f"{res['workload']}.{name}"] = {"value": value, "unit": units[name]}
        for name, value in res["extra"].items():
            if not isinstance(value, dict):
                print(f"{res['workload']:<12} {name:<42} {value:>14.6g} ratio")
        shares = sorted(res["extra"].get("shares_of_traced_wall", {}).items(), key=lambda kv: -kv[1])
        if shares:
            print(f"# {res['workload']}: largest shares of traced wall_s: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares[:4]))
        if not res["correct"]:
            errors = [p["error"] for p in res["passes"] if "error" in p]
            print(f"# {res['workload']}: checks failed: {res['checks']}", *errors[:1], sep="\n")
    if len(results) == 1:
        metrics = {k.split(".", 1)[1]: v for k, v in combined.items()}
    else:
        metrics = combined
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
