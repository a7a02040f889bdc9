"""Child process of the benchmark: set up, hand-shake, run one workload.

Set-up is what every user of the package pays in a fresh interpreter:
``import limrod`` and ``load_params`` + ``validate`` of a parameter file.
The child prints ``READY`` as soon as that is done, so the parent can time
start-to-ready.  It then times the scalar reference loop of ``workloads``
and prints ``SCALE <nominal / measured>``, which takes the set-up time to a
fixed host speed as the operations' times are.  With ``--setup-only`` it
exits there.  Otherwise it runs the workload and prints one
``RESULT <json>`` line.

Run it from the root of the repository with ``src`` on ``PYTHONPATH``;
``run.py`` does that.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import limrod

ROOT = Path.cwd()
SCALE_REFERENCES = 25


def main() -> int:
    t0 = time.perf_counter()
    params = limrod.load_params(ROOT / "params" / "demo.json")
    load_params_s = time.perf_counter() - t0
    limrod.validate(params)
    print("READY", flush=True)
    import workloads

    reference, nominal = workloads.REFERENCES["scalar"]
    measured = statistics.median(reference() for _ in range(SCALE_REFERENCES))
    print(f"SCALE {nominal / measured!r}", flush=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args()
    if args.setup_only:
        return 0

    import tracing

    files, paths = workloads.load_params_files(ROOT)
    tracer = tracing.Tracer() if args.trace else None
    ctx = {"params_files": files, "params_paths": paths, "workdir": args.workdir, "tracer": tracer}
    run = workloads.run_workload(args.workload, args.seed, args.seconds, ctx)
    run["setup_load_params"] = [load_params_s]
    if tracer is not None:
        run["per_layer"] = tracing.layer_metrics(tracer, run, workloads.BATCH_ROWS)
        tracer.write(args.workdir.parent / f"trace-{args.workload}-seed{args.seed}.json")
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
