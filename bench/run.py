"""limrod benchmark: one workload, one run, every metric checked and printed.

Usage, from the root of the repository:

    python3 bench/run.py --workload state_check --seed 1 --seconds 15 --trace 0

The workloads, metrics, units and bounds are listed in BENCHMARK.json; the
inputs, operations and checks are in ``workloads.py``.  Each workload runs
in a fresh child interpreter (``child.py``) that is one process with one
thread; nothing runs concurrently, so the loop is closed with one client.

The end-to-end metrics are the same on every workload:

    setup_s      start-to-ready of a child (import limrod, load_params,
                 validate), scaled to a fixed host speed by the child's
                 ``SCALE``: the median over three set-up-only children and
                 the workload child itself, after one discarded warm-up start
    peak_rss_mb  the workload child's peak resident set
    op_s         seconds per operation of the workload: the mean over the
                 run's inputs of each input's median time, scaled to a
                 fixed host speed (see ``workloads.op_seconds`` and
                 ``workloads.REFERENCES``).  The run also prints the figure
                 users know the workload by (``FIGURES``), from op_s, and
                 the median and tail percentile of the operations' wall
                 times.

With ``--trace 1`` the set-up children run under ``-X importtime`` and the
workload child records spans; the run then reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the operations checked: every input of the run once.
``correct`` is false when any failure is not one of the program's known
defects (``workloads.known_defect``); those are still counted in ``failed``.
Exit status 0 means a result was printed; 2 means the program to measure is
missing, 1 that the workload child failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0

# operation kind -> the figure users know it by: (name, unit, from seconds per op)
FIGURES = {
    "pipeline": ("pipeline_s", "s", lambda s: s),
    "forward_batch": ("forward_rows_per_s", "rows/s", lambda s: BATCH_ROWS / s),
    "chain.closed_form": ("evals_per_s.closed_form", "1/s", lambda s: 1.0 / s),
    "chain.quadrature": ("evals_per_s.quadrature", "1/s", lambda s: 1.0 / s),
    "sweep": ("sweep_s", "s", lambda s: s),
    "reconstruct": ("reconstruct_s", "s", lambda s: s),
}
BATCH_ROWS = 1 << 20  # workloads.BATCH_ROWS; run.py does not import the package
IMPORT_PACKAGES = {"setup.import_numpy_s": "numpy", "setup.import_scipy_s": "scipy"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_child(argv: list, root: Path, importtime=None) -> tuple:
    """Start a child and wait for READY and SCALE; returns (process, seconds
    to ready, scale to the fixed host speed).  With ``importtime`` (an open
    file) the child runs under -X importtime."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *flags, str(HERE / "child.py"), *argv],
        cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=importtime, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    scale = proc.stdout.readline().split()
    if line.strip() != "READY" or len(scale) != 2 or scale[0] != "SCALE":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child did not get ready: {line!r}")
    return proc, ready, float(scale[1])


def import_times(stderr: str) -> dict:
    """From ``-X importtime`` output: the cumulative import of limrod, and
    for numpy and scipy the self time of every module of the package."""
    out = {"setup.import_limrod_s": 0.0, **{name: 0.0 for name in IMPORT_PACKAGES}}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, module = (field.strip() for field in line[12:].split("|"))
        if not self_us.isdigit():
            continue
        if module == "limrod":
            out["setup.import_limrod_s"] = int(cumulative_us) * 1e-6
        for name, package in IMPORT_PACKAGES.items():
            if module == package or module.startswith(package + "."):
                out[name] += int(self_us) * 1e-6
    return out


def measure_setup(root: Path, workdir: Path, traced: bool) -> tuple:
    """Set-up seconds of the set-up-only children, raw and scaled, and their
    import breakdowns."""
    times, breakdowns = [], []
    log = workdir / "importtime.txt"
    for i in range(SETUP_RUNS + 1):
        with open(log, "w", encoding="utf-8") as stderr:
            proc, ready, scale = start_child(["--setup-only"], root, stderr if traced else None)
            proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited with {proc.returncode}")
        if i > 0:  # the first start compiles bytecode in a fresh checkout
            times.append((ready, ready * scale))
            if traced:
                breakdowns.append(import_times(log.read_text(encoding="utf-8")))
    return times, breakdowns


def run_workload(root: Path, args, workdir: Path) -> tuple:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    proc, ready, scale = start_child(argv, root)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not stdout.startswith("RESULT "):
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    return json.loads(stdout[len("RESULT "):]), (ready, ready * scale)


def tail_percentile(values: list) -> str:
    """The highest percentile with ten samples beyond it on the slow side;
    empty below twenty samples."""
    n = len(values)
    if n < 20:
        return ""
    return f", p{100 * (1 - 10 / n):.3g} {sorted(values)[-11]:.6g}"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    missing = [p for p in ("src/limrod/__init__.py", "params/demo.json", "params/dna.json")
               if not (root / p).is_file()]
    if missing or not spec_path.is_file():
        print(f"error: run from the repository root; missing {missing or ['BENCHMARK.json']}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, breakdowns = measure_setup(root, workdir, bool(args.trace))
        run, ready = run_workload(root, args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times.append(ready)

    print(f"workload {args.workload} seed {args.seed}: inputs sha256 {run['inputs_digest']}")
    print(f"attempted {run['attempted']}, failed {run['failed']}, "
          f"failed_ratio {run['failed'] / run['attempted']:.6g} 1")
    for key, count in sorted(run["failures"].items()):
        print(f"  failure {key}: {count}")
    for key in run["unexpected"]:
        print(f"  unexpected failure {key}")

    if args.trace:
        values = dict(run["per_layer"])
        for name in ("setup.import_limrod_s", *IMPORT_PACKAGES):
            values[name] = statistics.median(b[name] for b in breakdowns)
        metrics_spec = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(t for _, t in setup_times), "op_s": run["op_s"],
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics_spec = spec["end_to_end"]
        figure, unit, convert = FIGURES[run["kind"]]
        print(f"{figure} = {convert(run['op_s']):.6g} {unit}  (from op_s)")

    operations = [t for item in run["samples"] for t in item]
    metrics = {}
    for m in metrics_spec:
        name, unit = m["name"], m["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        detail = ""
        if name == "op_s":
            detail = (f"  (mean over {len(run['samples'])} inputs; wall time of"
                      f" {len(operations)} operations: median"
                      f" {statistics.median(operations):.6g}{tail_percentile(operations)})")
        elif name == "setup_s":
            detail = (f"  (median of {len(setup_times)}; wall time: median"
                      f" {statistics.median(t for t, _ in setup_times):.6g})")
        print(f"metric {name} = {value:.6g} {unit}{detail}")
    result = {
        "correct": not run["unexpected"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
