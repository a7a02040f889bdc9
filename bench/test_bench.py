"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# one input per workload, so a whole checked run takes a few seconds
TINY = {
    "tiny_pipeline": ("pipeline", 1),
    "tiny_closed_form": ("chain.closed_form", 1),
    "tiny_quadrature": ("chain.quadrature", 1),
}


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_run(monkeypatch, workdir, workload, seed, tracer=None):
    for name, spec in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    files, paths = workloads.load_params_files(ROOT)
    ctx = {"params_files": files, "params_paths": paths, "workdir": workdir, "tracer": tracer}
    return workloads.run_workload(workload, seed, 0.0, ctx)


def run_benchmark(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_fixed_seed_gives_identical_inputs(workload):
    files, _ = workloads.load_params_files(ROOT)
    first = workloads.inputs_digest(workloads.make_pool(workload, 7, files))
    again = workloads.inputs_digest(workloads.make_pool(workload, 7, files))
    other = workloads.inputs_digest(workloads.make_pool(workload, 8, files))
    assert first == again != other
    if workload == "constitutive_batch":
        rows = [workloads.batch_loads(workloads.make_pool(workload, 7, files)[0])
                for _ in range(2)]
        assert rows[0].tobytes() == rows[1].tobytes()


def test_fixed_seed_gives_identical_failure_counts(monkeypatch, workdir):
    first = tiny_run(monkeypatch, workdir, "tiny_quadrature", seed=3)
    again = tiny_run(monkeypatch, workdir, "tiny_quadrature", seed=3)
    assert first["attempted"] == again["attempted"] == workloads.CHAIN_BLOCK
    assert first["failed"] > 0  # the known quadrature defects show
    assert first["failures"] == again["failures"]
    assert first["inputs_digest"] == again["inputs_digest"]
    assert not first["unexpected"]


def test_op_seconds_is_the_mean_of_input_medians():
    assert workloads.op_seconds([[3.0, 1.0, 2.0], [4.0], []]) == 3.0
    assert workloads.op_seconds([[], []]) == 0.0


def test_known_defects_are_bounded_in_size():
    assert workloads.known_defect("fenchel", 7.0, 1e-5)
    assert not workloads.known_defect("fenchel", 7.0, 1e-2)
    assert not workloads.known_defect("fenchel", 2.0, 1e-5)
    assert workloads.known_defect("round_trip", 4.0, 1.5)
    assert not workloads.known_defect("round_trip", 4.0, 1e3)
    assert not workloads.known_defect("round_trip", 1.5, 1.5)
    assert workloads.known_balance_defect(85.0, 3.0)
    assert not workloads.known_balance_defect(85.0, 1e3)
    assert not workloads.known_balance_defect(2.0, 3.0)


def test_wrong_outputs_are_counted(monkeypatch, workdir):
    clean = {w: tiny_run(monkeypatch, workdir, w, seed=3)
             for w in ("tiny_pipeline", "tiny_closed_form")}
    assert not any(run["unexpected"] for run in clean.values())

    inverse = workloads.LIB_CALLS["inverse"]

    def wrong_inverse(params, strains):
        loads = inverse[0](params, strains)
        return workloads.lr.Loads.from_array(loads.as_array() * (1.0 + 1e-6))

    main = workloads.cli.main

    def wrong_exit_code(argv):
        code = main(argv)
        return 1 if argv[0] == "check" else code

    monkeypatch.setitem(workloads.LIB_CALLS, "inverse", (wrong_inverse, *inverse[1:]))
    monkeypatch.setattr(workloads.cli, "main", wrong_exit_code)

    broken = tiny_run(monkeypatch, workdir, "tiny_pipeline", seed=3)
    assert broken["failures"] == {"pipeline/check": 1}
    assert broken["unexpected"] == ["pipeline/check"]

    tracer = tracing.Tracer()
    broken = tiny_run(monkeypatch, workdir, "tiny_closed_form", seed=3, tracer=tracer)
    assert broken["failures"]["chain.closed_form/round_trip"] >= 1
    assert "chain.closed_form/round_trip" in broken["unexpected"]
    ratio = tracing.layer_metrics(tracer, broken, workloads.BATCH_ROWS)["failed_ratio"]
    assert ratio == broken["failed"] / broken["attempted"]
    base = clean["tiny_closed_form"]
    assert ratio > base["failed"] / base["attempted"]


def test_pipeline_spans_cover_the_traced_pipeline(monkeypatch, workdir):
    tracer = tracing.Tracer()
    run = tiny_run(monkeypatch, workdir, "tiny_pipeline", seed=3, tracer=tracer)
    metrics = tracing.layer_metrics(tracer, run, workloads.BATCH_ROWS)
    assert [len(t) for t in run["samples"]] == [1]  # one traced pass, one untraced
    assert run["traced_op_s"] > 0.0 and run["op_s"] > 0.0
    assert metrics["cli.calls"] == 2
    assert metrics["trace.span_coverage"] >= 0.9
    assert metrics["kinematics.csv_bytes"] > 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = run_benchmark("--workload", "constitutive_closed_form", "--seed", "1",
                         "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            printed[name] = rest.split()[1]
    assert printed == expected
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert any(line.startswith("evals_per_s.closed_form = ") for line in lines)


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_benchmark("--workload", "state_check", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
