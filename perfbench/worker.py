"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|traced|setup --out DIR

``setup_s`` runs from before ``import rfl`` to the end of input
construction.  In ``setup`` mode the worker stops there.  Otherwise it
times the workload's calls (``wall_s``), records the process's peak
resident memory, and then checks the outputs against the stored
reference (a workload that raises counts as one failed unit).
``traced`` mode wraps the ``rfl`` modules first and adds the
per-layer metrics and the span file.  ``rfl`` must be importable from
the checkout's ``src`` (the caller sets ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    import rfl
    import rfl.cli  # noqa: F401
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "rfl_file": rfl.__file__}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            result["bindings"] = tracer.bindings
        t0 = time.perf_counter()
        try:
            workload.run()
            error = None
        except Exception:  # a raising workload is a failed check, reported like any other
            error = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            reference = json.loads((HERE / "reference.json").read_text())
            result.update(workload.check(reference))
        else:
            result.update(attempted=1, failed=1, cert_rel_err_max=1.0, digest="", error=error)
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans)
            result["layers"] = layers
            result["missing_calls"] = {
                key: [layers[key], want]
                for key, want in workloads.EXPECTED_CALLS[args.workload].items()
                if layers[key] != want
            }
            tracer.dump(args.out / "spans.jsonl")
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
