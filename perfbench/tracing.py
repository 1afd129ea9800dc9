"""Benchmark-side tracing of calls into the ``rfl`` modules.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper in *every* ``rfl.*`` namespace that holds it (the
package and several modules re-bind functions by name, e.g.
``experiments`` imports ``train`` and ``build_gram``), and wraps
``Kernel.pairwise`` and ``TargetFunctional.value`` at class level.  Spans
(name, start, end, parent) and a few per-call attributes are kept in
memory; ``layer_metrics`` reduces them to the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "kernels",
    "geometry",
    "rkhs",
    "_exact",
    "spectral",
    "functionals",
    "nets",
    "experiments",
    "cli",
)
GEOMETRY_FUNCS = ("uniform_grid", "halton_points", "fill_distance")


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Work counts recorded on a span, computed from arguments and result."""
    if name == "kernels.pairwise":
        return {"entries": result.size}
    if name == "nets.gradient":
        return {"rows": len(args[1])}
    if name in ("_exact.schur_values", "rkhs.power_values", "rkhs.default_power_eval_set"):
        return {"points": len(result)}
    if name == "rkhs.power_function_sup":
        # None means the default set, counted on the nested default_power_eval_set span
        pts = args[1] if len(args) > 1 else kwargs.get("eval_set")
        return {"points": None if pts is None else len(pts)}
    if name == "rkhs.build_gram":
        return {"jittered": int(result.jitter_used > 0.0)}
    if name == "spectral.lambda_min_accurate":
        return {"extended": int(result[1] == "extended")}
    if name == "cli.write_outputs":
        return {"bytes": sum(p.stat().st_size for p in Path(args[0]).rglob("*") if p.is_file())}
    return None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, start, end, parent_index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.bindings = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            spans[idx][4] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced layers everywhere they are bound."""
        import rfl.cli  # noqa: F401  (loads every module that re-binds names)
        from rfl.functionals import TargetFunctional
        from rfl.kernels import Kernel

        modules = {n: m for n, m in sys.modules.items() if n == "rfl" or n.startswith("rfl.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"rfl.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self.bindings += 1
        Kernel.pairwise = self.wrap("kernels.pairwise", Kernel.pairwise)
        TargetFunctional.value = self.wrap("functionals.value", TargetFunctional.value)
        self.bindings += 2

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, attrs)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list]) -> dict:
    """Reduce spans to the per-layer metrics (times in seconds)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def outer(name):
        # spans of ``name`` not nested inside another span of the same name
        return [i for i in by_name.get(name, []) if all(spans[a][0] != name for a in ancestors(i))]

    def calls(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(dur[i] for i in outer(name))

    def self_time(name):
        return sum(dur[i] - child[i] for i in by_name.get(name, []))

    def attr_sum(name, key):
        return sum((spans[i][4] or {}).get(key) or 0 for i in by_name.get(name, []))

    def frac(num, den):
        return num / den if den else 0.0

    # points that reached the extended path from inside a power-function call
    power = ("rkhs.power_values", "rkhs.power_function_sup")
    escalated = sum(
        spans[i][4]["points"]
        for i in by_name.get("_exact.schur_values", [])
        if any(spans[a][0] in power for a in ancestors(i))
    )
    power_points = attr_sum("rkhs.power_values", "points")
    for i in by_name.get("rkhs.power_function_sup", []):
        pts = spans[i][4]["points"]
        if pts is None:
            pts = sum(
                spans[c][4]["points"]
                for c in by_name.get("rkhs.default_power_eval_set", [])
                if spans[c][3] == i
            )
        power_points += pts
    wasted = sum(
        dur[c]
        for i in by_name.get("spectral.lambda_min_accurate", [])
        if spans[i][4] and spans[i][4]["extended"]
        for c in by_name.get("spectral.smallest_eigenvalue", [])
        if spans[c][3] == i
    )
    geometry = [f"geometry.{f}" for f in GEOMETRY_FUNCS]
    geometry_s = sum(
        dur[i]
        for name in geometry
        for i in by_name.get(name, [])
        if all(spans[a][0] not in geometry for a in ancestors(i))
    )
    lam = "spectral.lambda_min_accurate"
    return {
        "spectral.smallest_eigenvalue.calls": calls("spectral.smallest_eigenvalue"),
        "spectral.smallest_eigenvalue.s": total("spectral.smallest_eigenvalue"),
        "spectral.lambda_min_accurate.calls": calls(lam),
        "spectral.extended_frac": frac(attr_sum(lam, "extended"), calls(lam)),
        "spectral.jacobi_wasted_s": wasted,
        "spectral.check_eigen_lower_bound.calls": calls("spectral.check_eigen_lower_bound"),
        "spectral.holder_constant_G.s": total("spectral.holder_constant_G"),
        "exact.grid_lambda_min.calls": calls("_exact.grid_lambda_min"),
        "exact.grid_lambda_min.s": total("_exact.grid_lambda_min"),
        "exact.schur_values.calls": calls("_exact.schur_values"),
        "exact.schur_values.points": attr_sum("_exact.schur_values", "points"),
        "exact.schur_values.s": total("_exact.schur_values"),
        "rkhs.escalated_frac": frac(escalated, power_points),
        "rkhs.build_gram.calls": calls("rkhs.build_gram"),
        "rkhs.build_gram.s": total("rkhs.build_gram"),
        "rkhs.build_gram.jittered": attr_sum("rkhs.build_gram", "jittered"),
        "rkhs.power_values.calls": calls("rkhs.power_values"),
        "rkhs.power_values.points": attr_sum("rkhs.power_values", "points"),
        "rkhs.power_values.s": total("rkhs.power_values"),
        "rkhs.power_function_sup.calls": calls("rkhs.power_function_sup"),
        "rkhs.power_function_sup.s": total("rkhs.power_function_sup"),
        "rkhs.sup_error.calls": calls("rkhs.sup_error"),
        "rkhs.sup_error.s": total("rkhs.sup_error"),
        "rkhs.sample_unit_ball.calls": calls("rkhs.sample_unit_ball"),
        "rkhs.sample_unit_ball.s": total("rkhs.sample_unit_ball"),
        "rkhs.project.calls": calls("rkhs.project"),
        "rkhs.project.s": total("rkhs.project"),
        "nets.gradient.calls": calls("nets.gradient"),
        "nets.gradient.rows": attr_sum("nets.gradient", "rows"),
        "nets.gradient.s": total("nets.gradient"),
        "nets.forward_batch.calls": calls("nets.forward_batch"),
        "nets.forward_batch.s": total("nets.forward_batch"),
        "nets.loss_mse.calls": calls("nets.loss_mse"),
        "nets.loss_mse.s": total("nets.loss_mse"),
        "nets.train.s": total("nets.train"),
        "nets.train.self_s": self_time("nets.train"),
        "kernels.pairwise.calls": calls("kernels.pairwise"),
        "kernels.pairwise.entries": attr_sum("kernels.pairwise", "entries"),
        "kernels.pairwise.s": total("kernels.pairwise"),
        "functionals.value.calls": calls("functionals.value"),
        "functionals.value.s": total("functionals.value"),
        "geometry.s": geometry_s,
        "experiments.generate_dataset.s": total("experiments.generate_dataset"),
        "experiments.generate_dataset.self_s": self_time("experiments.generate_dataset"),
        "experiments.error_decomposition.self_s": self_time("experiments.error_decomposition"),
        "experiments.flm_experiment.self_s": self_time("experiments.flm_experiment"),
        "experiments.rate_study_eigen.self_s": self_time("experiments.rate_study_eigen"),
        "cli.run.self_s": self_time("cli.run"),
        "cli.write_outputs.s": total("cli.write_outputs"),
        "cli.write_outputs.bytes": attr_sum("cli.write_outputs", "bytes"),
        "trace.spans": n,
    }

