"""Seeded inputs, timed operations and output checks of the limrod benchmark.

Each workload runs one kind of operation, the way one kind of user calls
the package, and nothing else:

    state_check               ``limrod state`` then ``limrod check`` at
                              h = 1e-4, in process through ``limrod.cli.main``
    constitutive_batch        ``strains_from_loads_batch`` on 2^20 load rows
    constitutive_closed_form  forward -> inverse -> W -> W* -> Hessian per
    constitutive_quadrature     state, p in {1, 2} and p in {1.5, 3, 4, 7}
    branch_sweep              ``branch_sweep`` over [0, 3 N_thresh] with 601
                              thrusts, then one ``sheared_angle`` at a seeded
                              thrust
    branch_reconstruct        a sheared or helical state at h = 1e-3 and
                              ``reconstruct`` of its closed-form strain field

One timing sample is one operation: one pipeline, one batch call, one
sweep, one reconstruct; for the scalar chain, the time per state of a
block of states.

Inputs come only from the seed.  A workload has a fixed pool of inputs
that the run cycles through; the first pass over the pool is checked and
counted, later passes only add timing samples.  A run therefore attempts
the same operations, and fails the same ones, for a given seed however
fast the machine is.

The run's time per operation (``op_seconds``) is the mean over the pool of
the median time of each input.  The mean over a whole pool, whose make-up
the seed does not change (every family, every p, a fixed mix of branches),
keeps the cost of the inputs drawn out of the figure.

Other guests of the host slow the same code by up to two times, for a
fraction of a second to minutes at a time.  So each operation, and each
of the two CLI calls of a pipeline, is timed between runs of a fixed
reference loop (``REFERENCES``) and its time is scaled by the loop's nominal time over its measured time: the
operation's seconds at the speed at which the loop takes its nominal
time.  The loops call no limrod code, so a faster program lowers the
figure in proportion.  A nominal time is about the loop's fastest time on
a 2-vCPU Xeon VM, so on such a host without contention the figure reads
as wall seconds.  The batch map streams arrays far bigger than a core's
caches and is slowed by the contention much less than interpreted code,
so it has a loop of its own that streams an array the size of its load
rows.  That array (48 MiB) is made only in the batch workload and counts
in its peak memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import statistics
import time
import warnings
from pathlib import Path

import numpy as np

import limrod as lr
from limrod import cli

BATCH_ROWS = 1 << 20
P_CLASSES = {"closed_form": (1.0, 2.0), "quadrature": (1.5, 3.0, 4.0, 7.0)}
FAMILIES = ("trivial", "sheared", "twist", "helix", "bend")

# workload -> (kind of operation, number of distinct inputs).  Pools are
# sized so that a 15 s run repeats every input at least twice.
WORKLOADS = {
    "state_check": ("pipeline", len(FAMILIES)),
    "constitutive_batch": ("forward_batch", 6),
    "constitutive_closed_form": ("chain.closed_form", 32),
    "constitutive_quadrature": ("chain.quadrature", 16),
    "branch_sweep": ("sweep", 40),
    "branch_reconstruct": ("reconstruct", 8),
}

CHAIN_BLOCK = 100  # states per timed block of the scalar chain

# Failures that the benchmark counts but that do not make a run incorrect,
# because they are documented defects of the program at the time the
# benchmark was defined.  Each is known only on the inputs it is known to
# fail on and only up to the size of miss seen then; a larger miss is an
# unexpected failure.
KNOWN_MISS = {
    # Fenchel residual / (1 + |work|); worst seen 6.4e-5, at p = 7, over
    # the quadrature pools of seeds 1-39
    "fenchel": 2e-4,
    # round-trip error / the check's tolerance; worst seen 1.06, at p = 4
    # and p = 7, over the same states
    "round_trip": 10.0,
    # balance residual / check's bound; worst seen about 10
    "balance": 100.0,
}


def known_defect(failure: str, p: float, miss: float = 0.0) -> bool:
    if failure == "stored_energy:ZeroDivisionError":
        # _stored_tail evaluates 0.0 ** (1 - p/2) when Q^{p/2} rounds to zero
        return p > 2.0
    if failure == "fenchel":
        # the adaptive quadrature for p not in {1, 2} misses its 1e-12 tolerance
        return p not in P_CLASSES["closed_form"] and miss <= KNOWN_MISS["fenchel"]
    if failure == "round_trip":
        # inward projection margin and the naive sum for Q next to the limit
        return p >= 3.0 and miss <= KNOWN_MISS["round_trip"]
    return False


def known_balance_defect(amplification: float, miss: float) -> bool:
    """At h = 1e-4 rounding in the recovered strains, amplified by the
    inverse map and differenced twice, outgrows check's h^2-scaled bound."""
    return amplification >= 40.0 and miss <= KNOWN_MISS["balance"]


_EPS = math.ulp(1.0)


# ---------------------------------------------------------------------------
# materials and loads


def random_material(rng: np.random.Generator, p: float, bifurcating: bool = False):
    """Random admissible parameter set, iota != 0 in nine cases out of ten.

    With ``bifurcating`` the eta/zeta ranges favour the sheared branch, and
    the caller rejection-samples on ``shear_threshold``.
    """
    alpha, beta = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
    if bifurcating:
        zeta, eta = 10.0 ** rng.uniform(-0.5, 0.3), 10.0 ** rng.uniform(-0.3, 0.7)
        gamma = 1.0
    else:
        zeta, eta = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
        gamma = 10.0 ** rng.uniform(-1.0, 1.0)
    chiral = rng.uniform() < 0.9
    iota = rng.uniform(-1.0, 1.0) * math.sqrt(0.95) * beta * eta if chiral else 0.0
    return lr.MaterialParams(
        alpha=float(alpha), beta=float(beta), gamma=float(gamma), zeta=float(zeta),
        eta=float(eta), iota=float(iota), p=float(p),
    )


def bifurcating_material(rng: np.random.Generator):
    """Rejection-sample a material until ``shear_threshold`` is a number."""
    while True:
        params = random_material(rng, float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0])), True)
        thresh = lr.shear_threshold(params)
        if not isinstance(thresh, lr.NoBifurcation):
            return params, thresh


def form_matrices(params) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of Q on (u, v - e3) and of its dual Q* on loads."""
    det = params.twist_stretch_det
    strain = np.diag([params.alpha**2, params.alpha**2, params.beta**2,
                      params.zeta**2, params.zeta**2, params.eta**2])
    strain[2, 5] = strain[5, 2] = params.iota
    load = np.diag([params.alpha**-2, params.alpha**-2, params.eta**2 / det,
                    params.zeta**-2, params.zeta**-2, params.beta**2 / det])
    load[2, 5] = load[5, 2] = -params.iota / det
    return strain, load


def loads_on_shell(rng: np.random.Generator, params, qstar: np.ndarray) -> np.ndarray:
    """Load rows in uniformly random directions with Q* equal to ``qstar``."""
    direction = rng.standard_normal((len(qstar), 6))
    form = np.einsum("ni,ij,nj->n", direction, form_matrices(params)[1], direction)
    return direction * np.sqrt(qstar / form)[:, None]


def _stratified_log(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n log-uniform values in [10^lo, 10^hi], one per equal-width stratum."""
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return 10.0 ** (lo + (hi - lo) * u)


# ---------------------------------------------------------------------------
# input pools


def _pipeline_item(rng: np.random.Generator, params_files: dict, family: str) -> dict:
    # dna has no bifurcation, so the sheared family uses demo only
    name = "demo" if family == "sheared" else str(rng.choice(["demo", "dna"]))
    psi0 = rng.uniform(0.0, 2.0 * math.pi)
    couple = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.5, 0.5))
    if family == "trivial":
        args = {"--n-thrust": rng.uniform(-4.0, 4.0)}
    elif family == "sheared":
        thresh = lr.shear_threshold(params_files["demo"])
        args = {"--n-thrust": thresh * rng.uniform(1.02, 3.0)}
    elif family == "twist":
        args = {"--m3": couple, "--theta": rng.uniform(0.0, 0.5 * math.pi)}
    elif family == "helix":
        args = {"--m1": couple, "--theta": rng.uniform(0.15, 0.5 * math.pi - 0.05)}
    else:
        args = {"--m1": couple}
    argv = ["--family", family, "--psi0", repr(float(psi0)), "--grid-h", "1e-4"]
    for flag, value in args.items():
        argv += [flag, repr(float(value))]
    return {"params": name, "argv": argv}


def _chain_block(rng: np.random.Generator, params_files: dict, p_class: str) -> list:
    """One block of (params, loads) states: p cycles through the class and
    Q*/gamma^2 is stratified log-uniform over [1e-6, 1e12]."""
    n = CHAIN_BLOCK
    ps = P_CLASSES[p_class]
    qstar = _stratified_log(rng, n, -6.0, 12.0)
    states = []
    for i in range(n):
        p = ps[i % len(ps)]
        pick = rng.uniform()
        if pick < 0.1:
            params = dataclasses.replace(params_files["demo"], p=p)
        elif pick < 0.2:
            params = dataclasses.replace(params_files["dna"], p=p)
        else:
            params = random_material(rng, p)
        row = loads_on_shell(rng, params, np.array([qstar[i] * params.gamma**2]))[0]
        states.append((params, lr.Loads.from_array(row)))
    return states


def _batch_item(rng: np.random.Generator, p: float) -> dict:
    """A material and the seed of its 2^20 load rows; ``batch_loads`` makes
    the rows when the item runs, so only one batch is in memory at a time."""
    return {"params": random_material(rng, p), "rows_seed": int(rng.integers(2**63))}


def batch_loads(item: dict) -> np.ndarray:
    rng = np.random.default_rng(item["rows_seed"])
    qstar = item["params"].gamma ** 2 * _stratified_log(rng, BATCH_ROWS, -6.0, 12.0)
    return loads_on_shell(rng, item["params"], qstar)


def _sweep_item(rng: np.random.Generator) -> dict:
    params, thresh = bifurcating_material(rng)
    return {"params": params, "thresh": thresh, "probe_n": thresh * rng.uniform(1.01, 3.0)}


def _reconstruct_item(rng: np.random.Generator, index: int) -> dict:
    params, thresh = bifurcating_material(rng)
    if index % 2 == 0:
        return {"params": params, "family": "sheared",
                "thrust": thresh * rng.uniform(1.05, 3.0), "psi0": rng.uniform(0.0, 6.0)}
    return {"params": params, "family": "helix",
            "couple": float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 0.3)),
            "theta": rng.uniform(0.3, 0.5 * math.pi), "psi0": rng.uniform(0.0, 6.0)}


def make_pool(workload: str, seed: int, params_files: dict) -> list:
    """Every input of a run, from the seed alone."""
    kind, size = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    if kind == "pipeline":
        # every family once per pass, in a seeded order
        return [_pipeline_item(rng, params_files, str(family))
                for family in rng.permutation(FAMILIES)[:size]]
    if kind == "forward_batch":
        ps = (1.0, 1.5, 2.0, 3.0, 4.0, 7.0)
        return [_batch_item(rng, ps[i % len(ps)]) for i in range(size)]
    if kind.startswith("chain."):
        return [_chain_block(rng, params_files, kind[6:]) for _ in range(size)]
    if kind == "sweep":
        return [_sweep_item(rng) for _ in range(size)]
    return [_reconstruct_item(rng, i) for i in range(size)]


def inputs_digest(pool: list) -> str:
    """SHA-256 over a canonical byte encoding of every input; a batch's
    rows enter through the seed ``batch_loads`` makes them from."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(repr((obj.dtype.str, obj.shape)).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj):
            feed([type(obj).__name__, dataclasses.astuple(obj)])
        elif isinstance(obj, dict):
            for key in sorted(obj):
                feed(key)
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for x in obj:
                feed(x)
            h.update(b"]")
        elif isinstance(obj, float):
            h.update(obj.hex().encode())
        else:
            h.update(repr(obj).encode())

    feed(pool)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# operations: each takes (input, context, library calls, tracer or None) and
# returns (the seconds of each timed part of one operation, outputs); a
# tracer gets one "op" span per operation.  Between two parts an operation
# calls ctx["between_parts"](), which times the reference loop there.


def _samples(state) -> int:
    return len(state.configuration.s)


# key: (function, span name, work count of a result)
LIB_CALLS = {
    "forward": (lr.strains_from_loads, "constitutive.forward", None),
    "inverse": (lr.loads_from_strains, "constitutive.inverse", None),
    "hessian": (lr.stored_energy_hessian, "constitutive.hessian", None),
    "forward_batch": (lr.strains_from_loads_batch, "constitutive.forward_batch", len),
    "branch_sweep": (lr.branch_sweep, "equilibrium.branch_sweep", lambda r: len(r[0])),
    "sheared_angle": (lr.sheared_angle, "equilibrium.sheared_angle", None),
    "sheared_state": (lr.sheared_tensile_state, "equilibrium.construct", _samples),
    "helical_state": (lr.helical_state, "equilibrium.construct", _samples),
    "reconstruct": (lr.reconstruct, "kinematics.reconstruct", lambda c: len(c.s) - 1),
}
for _cls in P_CLASSES:
    LIB_CALLS[f"stored_energy.{_cls}"] = (
        lr.stored_energy, f"constitutive.stored_energy.{_cls}", None)
    LIB_CALLS[f"complementary_energy.{_cls}"] = (
        lr.complementary_energy, f"constitutive.complementary_energy.{_cls}", None)


def library_calls(tracer) -> dict:
    """The public calls the library operations make; each is wrapped in a
    span when tracing, and called directly otherwise."""
    if tracer is None:
        return {key: fn for key, (fn, _, _) in LIB_CALLS.items()}
    return {key: tracer.wrap(name, fn, count) for key, (fn, name, count) in LIB_CALLS.items()}


def _op_span(tracer):
    return tracer.span("op") if tracer else contextlib.nullcontext()


def run_pipeline(item: dict, ctx: dict, lib: dict, tracer):
    """state -> check through cli.main; CLI output is captured."""
    csv = ctx["workdir"] / "state.csv"
    params = ctx["params_paths"][item["params"]]
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        with tracer.patched_cli() if tracer else contextlib.nullcontext():
            with _op_span(tracer):
                t0 = time.perf_counter()
                state_code = main(["state", params, *item["argv"], "--out", str(csv)])
                state_s = time.perf_counter() - t0
                ctx["between_parts"]()
                t0 = time.perf_counter()
                codes = (state_code, main(["check", str(csv), params]))
                check_s = time.perf_counter() - t0
    if tracer:
        tracer.csv_bytes.append(csv.stat().st_size)
    return [state_s, check_s], {
        "codes": codes,
        "stdout": out.getvalue(),
        "sidecar": csv.with_suffix(".json").read_text(encoding="utf-8"),
    }


def run_forward_batch(item: dict, ctx: dict, lib: dict, tracer):
    loads = batch_loads(item)
    t0 = time.perf_counter()
    with _op_span(tracer):
        strains = lib["forward_batch"](item["params"], loads)
    elapsed = time.perf_counter() - t0
    return [elapsed], {"loads": loads, "strains": strains}


def run_chain(block: list, ctx: dict, lib: dict, tracer):
    p_class = "closed_form" if block[0][0].p in P_CLASSES["closed_form"] else "quadrature"
    fwd, inv, hess = lib["forward"], lib["inverse"], lib["hessian"]
    energy = lib[f"stored_energy.{p_class}"]
    coenergy = lib[f"complementary_energy.{p_class}"]
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        with _op_span(tracer):
            for params, loads in block:
                step = "forward"
                try:
                    strains = fwd(params, loads)
                    step = "inverse"
                    back = inv(params, strains)
                    step = "stored_energy"
                    w = energy(params, strains)
                    step = "complementary_energy"
                    w_star = coenergy(params, loads)
                    step = "hessian"
                    results.append((strains, back, w, w_star, hess(params, strains)))
                except Exception as exc:  # any exception is one failed operation
                    results.append(f"{step}:{type(exc).__name__}")
        elapsed = time.perf_counter() - t0
    n_warn = sum(w.category.__name__ == "IntegrationWarning" for w in caught)
    return [elapsed / len(block)], {"results": results, "integration_warnings": n_warn}


def run_sweep(item: dict, ctx: dict, lib: dict, tracer):
    params, thresh = item["params"], item["thresh"]
    t0 = time.perf_counter()
    with _op_span(tracer):
        points, verdict = lib["branch_sweep"](params, 0.0, 3.0 * thresh, 601)
    elapsed = time.perf_counter() - t0
    theta = lib["sheared_angle"](params, item["probe_n"])
    return [elapsed], {"points": points, "verdict": verdict, "theta": theta}


def closed_form_state(item: dict, lib: dict):
    """The item's equilibrium state at h = 1e-3 and its strain field s -> Strains."""
    params = item["params"]
    if item["family"] == "sheared":
        state = lib["sheared_state"](params, item["thrust"], psi0=item["psi0"], grid_h=1e-3)
        d = state.descriptor
        theta, u3, v3 = d["theta"], d["strains"]["u3"], d["strains"]["v3"]
        amp = d["strains"]["v_shear_amplitude"]

        def field(s):
            psi = u3 * s + item["psi0"]
            return lr.strains_from_euler(
                lr.EulerAngles(0.0, theta, psi), (0.0, 0.0, u3),
                (-amp * math.cos(psi), amp * math.sin(psi), v3),
            )
    else:
        state = lib["helical_state"](
            params, item["couple"], theta=item["theta"], psi0=item["psi0"], grid_h=1e-3
        )
        d = state.descriptor
        theta, dphi, dpsi, v3 = d["theta"], d["phi_rate"], d["psi_rate"], d["strains"]["v3"]

        def field(s):
            angles = lr.EulerAngles(dphi * s, theta, dpsi * s + item["psi0"])
            return lr.strains_from_euler(angles, (dphi, 0.0, dpsi), (0.0, 0.0, v3))

    return state, field


def run_reconstruct(item: dict, ctx: dict, lib: dict, tracer):
    state, field = closed_form_state(item, lib)
    cfg = state.configuration
    t0 = time.perf_counter()
    with _op_span(tracer):
        rebuilt = lib["reconstruct"](field, cfg.points[0], cfg.frame(0), 1e-3)
    elapsed = time.perf_counter() - t0
    return [elapsed], {"state": state, "rebuilt": rebuilt}


RUNNERS = {
    "pipeline": run_pipeline,
    "forward_batch": run_forward_batch,
    "chain.closed_form": run_chain,
    "chain.quadrature": run_chain,
    "sweep": run_sweep,
    "reconstruct": run_reconstruct,
}


# ---------------------------------------------------------------------------
# output checks: each returns one (failure, known defect) pair per failed operation


def check_pipeline(item: dict, out: dict) -> list:
    family = item["argv"][1]
    try:
        descriptor = json.loads(out["sidecar"])
    except json.JSONDecodeError:
        return [("sidecar", False)]
    # bend is the theta = pi/2 helix and says so in its descriptor
    if out["codes"][0] != 0 or descriptor.get("family") != family.replace("bend", "helix"):
        return [("state", False)]
    if out["codes"][1] == 0 and "balance check: pass" in out["stdout"]:
        return []
    if out["codes"][1] == 1 and "balance check: FAIL" in out["stdout"]:
        report = dict(line.split(" = ", 1) for line in out["stdout"].splitlines()
                      if " = " in line)
        residual = max(float(report["force residual"]), float(report["couple residual"]))
        miss = residual / float(report["bound"])
        return [("balance", known_balance_defect(_amplification(descriptor), miss))]
    return [("check", False)]


def _amplification(descriptor: dict) -> float:
    """1/(1 - Q^{p/2}) = 1 + Q*^{p/2} of a state's loads (normalized gauge)."""
    params = lr.MaterialParams(**descriptor["params"])
    qstar = lr.load_quad_form(params, lr.Loads.from_array(descriptor["loads0"]))
    return 1.0 + qstar ** (0.5 * params.p)


def check_forward_batch(item: dict, out: dict) -> list:
    params, loads, strains = item["params"], out["loads"], out["strains"]
    if strains.shape != (BATCH_ROWS, 6) or not np.isfinite(strains).all():
        return [("batch_shape", False)]
    # in chunks, so the check adds little to the run's peak memory
    form = form_matrices(params)[0]
    for start in range(0, BATCH_ROWS, 1 << 16):
        dev = strains[start:start + (1 << 16)] - np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        if not (np.einsum("ni,ij,nj->n", dev, form, dev) < 1.0).all():
            return [("q_bound", False)]
    # a strided sample of rows must agree with the scalar map
    for i in range(0, BATCH_ROWS, BATCH_ROWS // 64):
        scalar = lr.strains_from_loads(params, lr.Loads.from_array(loads[i]))
        if np.abs(scalar.as_array() - strains[i]).max() > 1e-12:
            return [("batch_vs_scalar", False)]
    return []


def chain_failure(params, loads, result) -> tuple[str, float] | None:
    """First check one chain state fails, with the size of its miss
    relative to the check's tolerance, or None."""
    if isinstance(result, str):
        return result, math.inf
    strains, back, w, w_star, hessian = result
    if not lr.strain_quad_form(params, strains) < 1.0:
        return "q_bound", math.inf
    qstar = lr.load_quad_form(params, loads)
    l_vec = loads.as_array()
    # conditioning floor: the inverse amplifies strain rounding by
    # 1/(1 - Q^{p/2}) = 1 + Q*^{p/2}/gamma^p.  v3 = 1 + (v3 - 1) is stored
    # to an absolute ulp however small the deviation, which moves the loads
    # by the reference Hessian gamma M times ulp(v3); that term dominates
    # at small loads.
    floor = 1e3 * _EPS * (1.0 + qstar ** (0.5 * params.p) / params.gamma**params.p)
    v3_rounding = 4.0 * math.ulp(strains.v3) * params.gamma * np.abs(
        form_matrices(params)[0][:, 5]).max()
    tolerance = floor * np.abs(l_vec).max() + v3_rounding
    error = np.abs(back.as_array() - l_vec).max()
    if not error <= tolerance:
        return "round_trip", error / tolerance
    dev = strains.as_array()
    dev[5] -= 1.0
    work = float(l_vec @ dev)
    residual = abs(w + w_star - work) / (1.0 + abs(work))
    if not residual <= 1e-11:
        return "fenchel", residual
    if not np.array_equal(hessian, hessian.T):
        return "hessian", math.inf
    try:
        np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError:
        return "hessian", math.inf
    return None


def check_chain(block: list, out: dict) -> list:
    failures = []
    for (params, loads), result in zip(block, out["results"]):
        found = chain_failure(params, loads, result)
        if found is not None:
            failure, miss = found
            failures.append((failure, known_defect(failure, params.p, miss)))
    return failures


def check_sweep(item: dict, out: dict) -> list:
    points, thresh = out["points"], item["thresh"]
    sheared = [pt for pt in points if pt.branch == "sheared"]
    thetas = np.array([pt.theta for pt in sheared])
    expected = sum(pt.N > thresh for pt in points if pt.branch == "trivial")
    ok = (
        out["verdict"] == thresh
        and len(points) == 601 + expected
        and len(sheared) == expected > 0
        and ((thetas > 0.0) & (thetas < 0.5 * math.pi)).all()
        and (np.diff(thetas) > 0.0).all()
    )
    # the probe angle lies between the sweep angles that bracket its thrust
    ns = np.array([pt.N for pt in sheared])
    i = int(np.searchsorted(ns, item["probe_n"]))
    if ok and 0 < i < len(ns):
        ok = thetas[i - 1] <= out["theta"] <= thetas[i]
    return [] if ok else [("sweep", False)]


def check_reconstruct(item: dict, out: dict) -> list:
    ref, got = out["state"].configuration, out["rebuilt"]
    dirs = got.directors
    gram = np.einsum("nij,nkj->nik", dirs, dirs) - np.eye(3)
    ok = (
        got.points.shape == ref.points.shape
        and np.abs(got.points - ref.points).max() <= 1e-8
        and np.abs(dirs - ref.directors).max() <= 1e-8
        and np.abs(gram).max() <= 1e-10
    )
    return [] if ok else [("reconstruct", False)]


CHECKS = {
    "pipeline": check_pipeline,
    "forward_batch": check_forward_batch,
    "chain.closed_form": check_chain,
    "chain.quadrature": check_chain,
    "sweep": check_sweep,
    "reconstruct": check_reconstruct,
}


# ---------------------------------------------------------------------------
# the run


def run_workload(workload: str, seed: int, seconds: float, ctx: dict) -> dict:
    """Closed loop, one client: run the pool's inputs in turn until the
    deadline, and at least one whole pass.  With a tracer, passes alternate
    traced and untraced and at least two are made, so both kinds of sample
    cover the same inputs."""
    kind = WORKLOADS[workload][0]
    pool = make_pool(workload, seed, ctx["params_files"])
    tracer = ctx["tracer"]
    libs = {False: library_calls(None), True: library_calls(tracer)}
    # wall seconds, and seconds scaled to the reference speed, per input
    samples = {traced: [[] for _ in pool] for traced in (False, True)}
    scaled = {traced: [[] for _ in pool] for traced in (False, True)}
    failures: dict[str, int] = {}
    unexpected: set[str] = set()
    attempted = warnings_seen = done = 0
    passes = 2 if tracer else 1
    reference, nominal = REFERENCES["stream" if kind == "forward_batch" else "scalar"]
    deadline = time.perf_counter() + seconds
    while done < passes * len(pool) or time.perf_counter() < deadline:
        index = done % len(pool)
        item = pool[index]
        first = done < len(pool)
        traced = tracer is not None and (done // len(pool)) % 2 == 0
        refs = [reference()]
        ctx["between_parts"] = lambda refs=refs: refs.append(reference())
        try:
            parts, out = RUNNERS[kind](item, ctx, libs[traced], tracer if traced else None)
        except Exception as exc:  # a crashed operation is a failed one
            parts, out = [], None
            found = [(f"crash:{type(exc).__name__}", False)]
        refs.append(reference())
        if parts:
            samples[traced][index].append(sum(parts))
            scaled[traced][index].append(sum(
                t * 2.0 * nominal / (refs[k] + refs[k + 1]) for k, t in enumerate(parts)))
        if out is not None:
            found = CHECKS[kind](item, out) if first else []
        done += 1
        if first:
            attempted += len(item) if kind.startswith("chain.") else 1  # one per state
            warnings_seen += out["integration_warnings"] if out and "results" in out else 0
            for failure, known in found:
                key = f"{kind}/{failure}"
                failures[key] = failures.get(key, 0) + 1
                if not known:
                    unexpected.add(key)
        out = None  # a batch's rows are not kept while the next one is made
    return {
        "kind": kind,
        "samples": samples[False],
        "op_s": op_seconds(scaled[False]),
        "traced_op_s": op_seconds(scaled[True]),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "unexpected": sorted(unexpected),
        "integration_warnings": warnings_seen,
        "inputs_digest": inputs_digest(pool),
    }


def op_seconds(item_samples: list) -> float:
    """Mean over the inputs of each input's median time; 0 without samples."""
    medians = [statistics.median(values) for values in item_samples if values]
    return sum(medians) / len(medians) if medians else 0.0


_REF_AXIS = np.array([0.3, -0.2, 0.9])


def scalar_reference_seconds() -> float:
    """Time of a fixed loop of the mix the package's scalar code runs:
    interpreted arithmetic, math calls and numpy on 3-vectors."""
    t0 = time.perf_counter()
    d = np.ones(3)
    for i in range(150):
        d = np.cross(_REF_AXIS, d) + math.sin(1e-3 * i)
        d = d / math.sqrt(float(d @ d))
    return time.perf_counter() - t0


@functools.cache
def _stream_array() -> np.ndarray:
    return np.ones((BATCH_ROWS, 6))


def stream_reference_seconds() -> float:
    """Time of two in-place passes over an array the size of a batch's
    load rows."""
    rows = _stream_array()
    t0 = time.perf_counter()
    np.multiply(rows, 1.0, out=rows)
    np.add(rows, 0.0, out=rows)
    return time.perf_counter() - t0


# name -> (reference loop, its nominal seconds: about its fastest time on
# a 2-vCPU Xeon VM)
REFERENCES = {
    "scalar": (scalar_reference_seconds, 4e-3),
    "stream": (stream_reference_seconds, 1.3e-2),
}


def load_params_files(root: Path) -> tuple[dict, dict]:
    """The shipped parameter files, parsed and by path (for the CLI)."""
    paths = {name: str(root / "params" / f"{name}.json") for name in ("demo", "dna")}
    files = {name: lr.validate(lr.load_params(path)) for name, path in paths.items()}
    return files, paths
