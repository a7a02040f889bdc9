"""Spans recorded around the benchmark's calls into each limrod module.

A span is ``[name, start_ns, end_ns, parent_index, count]``; ``count`` is
the work a call did (samples built, points swept, rows mapped) where that
varies.  Spans stay in memory and are written once, when the run ends.
Spans come only from the benchmark's own files: library calls are wrapped
where the benchmark makes them, and ``patched_cli`` swaps in wrappers for
the module attributes ``limrod.cli`` looks up at call time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from limrod import equilibrium, kinematics, material

BATCH_BYTES_PER_ROW = 96  # six float64 loads read, six float64 strains written

_CONSTRUCTORS = (
    "trivial_tensile_state", "sheared_tensile_state", "pure_twist_state", "helical_state"
)
CLI_LOOKUPS = [
    (material, "load_params", "material.load_params", None),
    *((equilibrium, name, "equilibrium.construct", lambda st: len(st.configuration.s))
      for name in _CONSTRUCTORS),
    (equilibrium, "state_from_configuration", "equilibrium.recover", None),
    (equilibrium, "check_balance", "equilibrium.balance", None),
    (kinematics, "write_configuration_csv", "kinematics.csv_write", None),
    (kinematics, "read_configuration_csv", "kinematics.csv_read", None),
]

# span time per operation: metric name -> span name
OP_SPANS = {
    "equilibrium.construct_s": "equilibrium.construct",
    "equilibrium.recover_s": "equilibrium.recover",
    "equilibrium.balance_s": "equilibrium.balance",
    "kinematics.csv_write_s": "kinematics.csv_write",
    "kinematics.csv_read_s": "kinematics.csv_read",
}

# spans timed per call: metric name -> (span name, scale to the unit)
CALL_SPANS = {
    "equilibrium.branch_sweep_s": ("equilibrium.branch_sweep", 1.0),
    "equilibrium.sheared_angle_us": ("equilibrium.sheared_angle", 1e6),
    "kinematics.reconstruct_s": ("kinematics.reconstruct", 1.0),
    "constitutive.forward_us": ("constitutive.forward", 1e6),
    "constitutive.inverse_us": ("constitutive.inverse", 1e6),
    "constitutive.hessian_us": ("constitutive.hessian", 1e6),
    **{
        f"constitutive.{fn}_us.{cls}": (f"constitutive.{fn}.{cls}", 1e6)
        for fn in ("stored_energy", "complementary_energy")
        for cls in ("closed_form", "quadrature")
    },
}

CHECK_KINDS = ("q_bound", "round_trip", "fenchel", "hessian", "exception", "batch")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.csv_bytes: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record[4] = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched_cli(self):
        """Trace the module functions ``limrod.cli`` calls, then restore them."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in CLI_LOOKUPS]
        for (module, attr, original), (_, _, name, count) in zip(saved, CLI_LOOKUPS):
            setattr(module, attr, self.wrap(name, original, count))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, run: dict, batch_rows: int) -> dict:
    """Per-layer metrics of a traced run, from its spans and its accounting."""
    spans = tracer.spans
    seconds = [(end - start) * 1e-9 for _, start, end, _, _ in spans]
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        children[parent].append(i)
    by_name = defaultdict(list)
    for i, record in enumerate(spans):
        by_name[record[0]].append(i)

    # an "op" span is one timed operation; its layer spans are its children,
    # or for a pipeline the children of its cli.main spans
    per_op = {metric: [] for metric in OP_SPANS}
    cli_self, coverage = [], []
    for op in by_name["op"]:
        layer_time = 0.0
        totals = defaultdict(float)
        mains = [c for c in children[op] if spans[c][0] == "cli.main"]
        layers = [g for m in mains for g in children[m]]
        layers += [c for c in children[op] if spans[c][0] != "cli.main"]
        for child in layers:
            layer_time += seconds[child]
            totals[spans[child][0]] += seconds[child]
        if mains:
            cli_self.append(sum(seconds[m] for m in mains) - layer_time)
        coverage.append(layer_time / seconds[op])
        for metric, name in OP_SPANS.items():
            per_op[metric].append(totals[name])

    def counts(name):
        return [spans[i][4] for i in by_name[name]]

    construct = by_name["equilibrium.construct"]
    samples_built = sum(counts("equilibrium.construct"))
    batch = [seconds[i] for i in by_name["constitutive.forward_batch"]]
    failures = defaultdict(int)
    for key, count in run["failures"].items():
        kind, failure = key.split("/", 1)
        failures[_failure_metric(kind, failure)] += count

    load_params = [seconds[i] for i in by_name["material.load_params"]]
    metrics = {
        # the child's own set-up call, and the CLI's calls in a pipeline
        "material.load_params_s": _median([*run.get("setup_load_params", ()), *load_params]),
        "cli.calls": len(by_name["cli.main"]),
        "cli.self_s": _median(cli_self),
        "cli.failures": failures["cli.failures"],
        "equilibrium.construct_ns_per_sample":
            sum(seconds[i] for i in construct) * 1e9 / max(samples_built, 1),
        "equilibrium.branch_points": _median(counts("equilibrium.branch_sweep")),
        "equilibrium.failures": failures["equilibrium.failures"],
        "kinematics.csv_bytes": _median(tracer.csv_bytes),
        "kinematics.reconstruct_steps": _median(counts("kinematics.reconstruct")),
        "kinematics.failures": failures["kinematics.failures"],
        "constitutive.forward_batch_ns_per_row": _median(batch) * 1e9 / batch_rows,
        "constitutive.forward_batch_bytes": batch_rows * BATCH_BYTES_PER_ROW if batch else 0,
        "constitutive.integration_warnings": run["integration_warnings"],
        "failed_ratio": run["failed"] / max(run["attempted"], 1),
        "trace.overhead_s": run["traced_op_s"] - run["op_s"],
        "trace.span_coverage": _median(coverage),
    }
    for metric, values in per_op.items():
        metrics[metric] = _median(values)
    for metric, (name, scale) in CALL_SPANS.items():
        metrics[metric] = _median([seconds[i] for i in by_name[name]]) * scale
    for check in CHECK_KINDS:
        metrics[f"constitutive.check_failures.{check}"] = failures[f"constitutive.{check}"]
    return metrics


def _failure_metric(kind: str, failure: str) -> str:
    """The per-layer failure counter a failed operation belongs to."""
    layer = {"pipeline": "cli", "sweep": "equilibrium", "reconstruct": "kinematics"}.get(kind)
    if layer:
        return f"{layer}.failures"
    if ":" in failure:
        return "constitutive.exception"
    if failure.startswith("batch"):
        return "constitutive.batch"
    return f"constitutive.{failure}"
