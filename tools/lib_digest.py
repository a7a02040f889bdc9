"""Digest the results of the ``limrod`` library functions on seeded inputs.

Calls each library function below on a fixed, seeded set of materials and
inputs and prints one line per function:

    <sha256>  <label>

A function's digest covers, case by case, its arguments and either its
result (floats by ``repr``, which round-trips exactly, arrays by the
SHA-256 of their bytes) or the type and message of the exception it
raised, together with any warning it emitted. Two checkouts that print
the same line compute the same bits for that function on these inputs.

The functions are the forward and inverse maps (scalar and batch), the
stored and complementary energies, the stored-energy Hessian,
``strain_bounds``, ``shear_factors`` and ``reduced_residual``, the four
state constructors (trivial, sheared, twist, helix), the branch
quantities (``shear_threshold``, ``sheared_angle``, ``sheared_angle_p2``,
``sheared_angle_limit``, ``thrust_strain_limits``), ``branch_sweep``,
``write_configuration_csv`` and ``reconstruct``. The materials are
``params/demo.json``, ``params/dna.json``, gamma = 1e200 sets for p in
{1, 2, 3}, gamma = the float64 maximum sets for p in {1, 2}, random sets
with p in {1, 2} or drawn from [0.25, 8], chiral in nine cases out of ten
and with gamma from 1e-3 to 1e3 or, one in ten, beyond 1e10 or below
1e-10, and rejection-sampled sets with a sheared branch. Loads run from
subnormal to the float64 maximum, zeros included; strains reach Q up to
1 - 1e-12. ``shear_factors`` and ``reduced_residual`` also get NaN and
infinite loads and an infinite thrust; ``sheared_angle`` and
``sheared_tensile_state`` get NaN and infinite thrusts on every
bifurcating set. On demo, ``branch_sweep`` gets NaN and infinite bounds
and finite bounds whose span overflows, and ``helical_state`` angles
outside (0, pi/2], NaN and infinite ones included. ``branch_sweep wide``
runs 601 thrusts over [0, 3 N_thresh] and over [N_thresh (1 + 1e-12),
1e300] on demo and a chiral variant (iota = 0.3) with p in {1, 1.5, 2, 3,
4, 7}, with no generator draw. Inadmissible sets and
out-of-domain inputs record their errors. ``write_configuration_csv`` is
digested by the SHA-256 of the bytes it writes for crafted configurations
(an all -0.0 column, a column mixing 0.0 and -0.0, columns constant but
in their last row, at 2 samples and at one less than, equal to and one
more than the writer's chunk) and for one coarse state of each family,
with no draw from the generator. ``forward range`` digests both forward
maps on crafted materials at the edges of the float range (gamma from
1e-200 to 1e300 with p up to 100, alpha = 1e-100) and loads that are zero,
subnormal, tiny or at the float64 maximum, also with no generator draw.
``forward units`` digests both forward maps under a change of the unit of
length: demo, dna and a chiral p = 3 set with alpha, beta, iota and
ref_length scaled by 2^k, k in {-40, -20, 0, 20, 40}, on loads from
unsaturated to Q* = 1e300 whose couples are scaled by the same 2^k; and on
p = 2 sets with alpha from 1e3 to 1e100 under the couple sqrt(99) alpha
(Q = 0.99). No generator draw either. ``load gate`` digests the
functions that bring loads into range before F (both forward maps,
``complementary_energy`` and ``shear_factors``) on NaN, infinite and
float64-maximum loads, on sets whose alpha, beta or zeta is 1e-160 or
1e-155, and on W* at p in {0.75, 0.9} with gamma in {1e-200, 1e-300} under
the tension 2e130; no generator draw. ``beta kernel`` digests the
incomplete-beta kernel ``constitutive._incomplete_beta`` itself, at
a = 2/p, b = 1 - 1/p for p in {0.05, 1/3, 0.5, 0.75, 1.5, 3, 4, 7, 100}
(p = 1/3 and 1/2 reach the series' log terms, b + k = 0), on complements
z from 0 and 1e-300 up to 1 and NaN, across the switch between its two
branches; no generator draw either. ``reconstruct`` is digested by the
SHA-256 of the points and directors it builds from three constant and
three varying seeded strain fields, from seeded start points and frames,
at grid_h 1e-2 and 1e-3, drawn from a generator of its own.

Run it from the repository root with the package to test on the path, and
compare two checkouts with diff:

    PYTHONPATH=src python tools/lib_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/lib_digest.py > old.txt
    diff old.txt new.txt

``--show LABEL`` prints the case records of the functions whose label
contains LABEL instead of digests; diffing two such outputs lists the
cases that differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import limrod as lr

ROOT = Path(__file__).resolve().parent.parent
GRID_H = 0.05  # constructor grids: 21 samples
FLOAT_MAX = sys.float_info.max
SEED = 7  # both checkouts must draw the same inputs
NAN, INF = math.nan, math.inf
NONFINITE_LOADS = [
    lr.Loads(NAN, 0.0, 0.0, 0.0, 0.0, 1.0),
    lr.Loads(0.0, 0.0, 0.0, 0.0, 0.0, INF),
    lr.Loads(0.0, 0.0, -INF, 0.0, 0.0, 1.0),
]


def fmt(value) -> str:
    """Exact, compact text of a result."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:16]
        return f"array{value.shape}:{digest}"
    if isinstance(value, (lr.Strains, lr.Loads, lr.MaterialParams)):
        return repr(value)
    if isinstance(value, lr.EquilibriumState):
        cfg = value.configuration
        parts = [fmt(cfg.s), fmt(cfg.points), fmt(cfg.directors), fmt(value.loads)]
        return " ".join(parts) + " " + repr(sorted(value.descriptor.items()))
    if isinstance(value, tuple):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(fmt(v) for v in value) + "]"
    return repr(value)


def call(fn, *args) -> tuple[str, object]:
    """(record, result or None) of one call: its result or exception, and
    its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
            text = fmt(result)
        except Exception as exc:  # an exception is part of the behaviour
            result, text = None, f"raised {type(exc).__name__}: {exc}"
    for w in caught:
        text += f" [warning {w.category.__name__}: {w.message}]"
    return text, result


def random_material(rng: np.random.Generator, p: float | None = None) -> lr.MaterialParams:
    alpha, beta, zeta, eta = (float(x) for x in 10.0 ** rng.uniform(-0.5, 0.5, size=4))
    if p is None:
        p = float(rng.choice([1.0, 2.0, round(float(rng.uniform(0.25, 8.0)), 3)]))
    pick = rng.uniform()
    exponent = rng.uniform(10.0, 300.0) if pick < 0.05 else (
        -rng.uniform(10.0, 300.0) if pick < 0.1 else rng.uniform(-3.0, 3.0))
    iota = float(rng.uniform(-0.95, 0.95)) * beta * eta if rng.uniform() < 0.9 else 0.0
    ref = 1.0 if rng.uniform() < 0.5 else float(10.0 ** rng.uniform(-1.0, 1.0))
    return lr.MaterialParams(alpha, beta, float(10.0**exponent), zeta, eta, iota, p, ref)


def bifurcating_material(rng: np.random.Generator) -> tuple[lr.MaterialParams, float]:
    while True:
        alpha, beta = (float(x) for x in 10.0 ** rng.uniform(-0.5, 0.5, size=2))
        zeta, eta = float(10.0 ** rng.uniform(-0.5, 0.3)), float(10.0 ** rng.uniform(-0.3, 0.7))
        iota = float(rng.uniform(-0.5, 0.5)) * beta * eta if rng.uniform() < 0.9 else 0.0
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
        params = lr.MaterialParams(alpha, beta, 1.0, zeta, eta, iota, p)
        thresh = lr.shear_threshold(params)
        if not isinstance(thresh, lr.NoBifurcation):
            return params, thresh


def load_rows(rng: np.random.Generator) -> np.ndarray:
    """Load rows from subnormal to the float maximum, zeros included."""
    rows = []
    for lo, hi in ((-3.0, 3.0), (-12.0, -4.0), (100.0, 300.0), (-320.0, -300.0)):
        row = np.sign(rng.uniform(-1.0, 1.0, 6)) * 10.0 ** rng.uniform(lo, hi, 6)
        row[rng.uniform(size=6) < 0.3] = 0.0
        rows.append(row)
    rows.append([0.0, 0.0, 0.0, 0.0, 0.0, 1e-8])
    rows.append([0.0, 0.0, 0.0, 0.0, 0.0, 1e-5])
    rows.append([0.0, 0.0, float(rng.uniform(-2.0, 2.0)), 0.0, 0.0, 0.0])
    rows.append([FLOAT_MAX, -FLOAT_MAX, 0.0, 0.0, FLOAT_MAX, 0.0])
    rows.append([0.0] * 6)
    return np.array(rows, dtype=float)


def strain_rows(rng: np.random.Generator, params: lr.MaterialParams, forward) -> list:
    """The forward map's outputs, and random deviations scaled to Q from
    1e-16 to 1 - 1e-12 and just beyond 1."""
    out = [st for st in forward if isinstance(st, lr.Strains)]
    try:
        targets = [1e-16, 1e-6, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-12, 1.5]
        for target in targets:
            dev = rng.normal(size=6)
            dev[rng.uniform(size=6) < 0.3] = 0.0
            dev[2] = dev[2] or 1.0
            st = lr.Strains.from_array([*dev[:5], 1.0 + dev[5]])
            scale = math.sqrt(target / lr.strain_quad_form(params, st))
            out.append(lr.Strains.from_array([*(dev[:5] * scale), 1.0 + dev[5] * scale]))
    except lr.RodModelError:  # inadmissible set: the maps record the error
        out.append(lr.Strains(0.01, 0.0, -0.02, 0.0, 0.03, 1.01))
    return out


def materials(rng: np.random.Generator) -> list:
    params_files = [lr.load_params(ROOT / "params" / f"{name}.json") for name in ("demo", "dna")]
    huge_gamma = [lr.MaterialParams(1.0, 1.0, 1e200, 1.0, 1.0, 0.0, p) for p in (1.0, 2.0, 3.0)]
    chiral_huge = [lr.MaterialParams(1.3, 0.8, 1e200, 0.7, 2.0, 0.5, p) for p in (1.0, 2.0)]
    inadmissible = [
        lr.MaterialParams(-1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0),
        lr.MaterialParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0),
        lr.MaterialParams(1.0, 1.0, math.nan, 1.0, 1.0, 0.0, 1.0),
        lr.MaterialParams(1.0, 1.0, 1.0, 1.0, 1.0, math.inf, 1.5),
    ]
    randoms = [random_material(rng) for _ in range(1000)]
    max_gamma = [lr.MaterialParams(1.0, 1.0, FLOAT_MAX, 1.0, 1.0, 0.0, p) for p in (1.0, 2.0)]
    return params_files + huge_gamma + chiral_huge + inadmissible + randoms + max_gamma


def add_branch_quantities(add, params: lr.MaterialParams, thrusts: list) -> None:
    """The threshold, the closed-form and limit angles and the trivial
    branch's limits: no draw from the generator, so the other cases see
    the same inputs as without them."""
    add("shear_threshold", lr.shear_threshold, params)
    add("sheared_angle_limit", lr.sheared_angle_limit, params)
    add("thrust_strain_limits", lr.thrust_strain_limits, params)
    for thrust in thrusts:
        add("sheared_angle_p2", lr.sheared_angle_p2, params, thrust)


def add_reduced_residuals(add, params, loads, thrust, couple, theta, psi0) -> None:
    """reduced_residual on loads turned into the {e_k} basis, on NaN and
    infinite loads, and on an infinite thrust, with or without infinite
    force components; rates and v3 come from the drawn values."""
    angles = lr.EulerAngles(0.5 * couple, theta, psi0)
    rates, load_rates, v3 = (couple, 0.5 * theta, psi0), (0.1 * couple, -0.2, 0.3), 1.0 + 1e-3 * thrust
    cases = [lr.frame_loads(ld, angles, thrust) for ld in [loads] + NONFINITE_LOADS]
    cases.append(lr.frame_loads(loads, angles, INF))
    cases.append(lr.FrameLoads(0.5, -0.25, couple, -thrust * math.sin(theta), 0.0,
                               thrust * math.cos(theta), INF))
    for fl in cases:
        add("reduced_residual", lr.reduced_residual, params, angles, rates, fl, load_rates, v3)


def add_demo_domain_edges(add) -> None:
    """branch_sweep on bounds that are not finite or whose span overflows,
    and helical_state at angles outside (0, pi/2]; demo only, no draw."""
    demo = lr.load_params(ROOT / "params" / "demo.json")
    for n_min, n_max in ((NAN, 2.0), (0.0, NAN), (-INF, 2.0), (0.0, INF), (-1e308, 1e308),
                         (-FLOAT_MAX, FLOAT_MAX), (-5e-324, 5e-324)):
        add("branch_sweep", lr.branch_sweep, demo, n_min, n_max, 3)
    for theta in (NAN, INF, -INF, 0.0, -0.1, 2.0):
        add("helical_state", lr.helical_state, demo, 1.0, theta, 0.0, GRID_H)


WIDE_SWEEP_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 4.0, 7.0)


def add_wide_sweeps(add) -> None:
    """branch_sweep with 601 thrusts over [0, 3 thresh], the bench's grid,
    and over [thresh (1 + 1e-12), 1e300], on demo and its chiral variant
    (iota = 0.3) at each exponent above; no draw."""
    demo = lr.load_params(ROOT / "params" / "demo.json")
    for iota in (0.0, 0.3):
        for p in WIDE_SWEEP_EXPONENTS:
            params = dataclasses.replace(demo, iota=iota, p=p)
            thresh = lr.shear_threshold(params)
            for n_min, n_max in ((0.0, 3.0 * thresh), (thresh * (1.0 + 1e-12), 1e300)):
                add("branch_sweep wide", lr.branch_sweep, params, n_min, n_max, 601)


def crafted_configuration(n: int) -> lr.Configuration:
    """n samples whose columns hold the cases a writer that skips repeated
    values could get wrong: rx all -0.0, ry alternating 0.0 and -0.0, rz
    and the d1/d2 components constant but in the last row (a rotation
    about g3 by +0.0 and -0.0 alternately, then by 0.3), d3y all -0.0."""
    s = np.linspace(0.0, 1.0, n)
    signed_zeros = np.where(np.arange(n) % 2 == 1, -0.0, 0.0)
    turn = signed_zeros.copy()
    turn[-1] = 0.3
    rz = np.full(n, 0.1)
    rz[-1] = 5e-324
    points = np.stack([np.full(n, -0.0), signed_zeros, rz], axis=1)
    c, sn, zero = np.cos(turn), np.sin(turn), np.zeros(n)
    d3 = np.stack([zero, np.full(n, -0.0), np.ones(n)], axis=1)
    dirs = np.stack([np.stack([c, sn, zero], 1), np.stack([-sn, c, zero], 1), d3], axis=1)
    return lr.Configuration(s=s, points=points, directors=dirs)


def csv_configurations() -> list:
    """(label, configuration) pairs for the writer digest; no generator draw."""
    chunk = lr.kinematics._CSV_CHUNK
    cases = [(f"crafted n={n}", crafted_configuration(n)) for n in (2, chunk - 1, chunk, chunk + 1)]
    demo = lr.load_params(ROOT / "params" / "demo.json")
    states = [
        ("trivial", lr.trivial_tensile_state(demo, 2.0, 0.7, GRID_H)),
        ("sheared", lr.sheared_tensile_state(demo, 2.0, 0.7, GRID_H)),
        ("twist", lr.pure_twist_state(demo, 1.5, 0.3, 0.7, GRID_H)),
        ("helix", lr.helical_state(demo, 1.5, 0.4, 0.7, GRID_H)),
        ("bend", lr.helical_state(demo, 1.5, 0.5 * math.pi, 0.7, GRID_H)),
    ]
    return cases + [(f"{name} state", state.configuration) for name, state in states]


FORWARD_RANGE_MATERIALS = [
    lr.MaterialParams(1.0, 1.0, 1e-200, 1.0, 2.0, 0.0, 2.0),
    lr.MaterialParams(1.3, 0.8, 1e-200, 0.7, 2.0, 0.5, 2.0),
    lr.MaterialParams(1.0, 1.0, 1e-10, 1.0, 2.0, 0.0, 100.0),
    lr.MaterialParams(1.0, 1.0, 1e16, 1.0, 2.0, 0.0, 20.0),
    lr.MaterialParams(1.3, 0.8, 1e300, 0.7, 2.0, 0.5, 3.0),
    lr.MaterialParams(1e-100, 1.0, 1.0, 1.0, 2.0, 0.0, 4.0),
    lr.MaterialParams(1e-100, 1.0, 1e-200, 1.0, 2.0, 0.0, 2.0),
]
FORWARD_RANGE_LOADS = np.array([
    [0.0] * 6,
    [5e-324, 0.0, -5e-324, 0.0, 1e-310, 0.0],
    [1e-170, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.3, -1.2, 0.7, 2.0, -0.4, 1.5],
    [0.0, 0.0, 0.0, 0.0, 0.0, FLOAT_MAX],
    [FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, -FLOAT_MAX],
])


def add_forward_range(add) -> None:
    """Both forward maps on the crafted materials and loads above."""
    for params in FORWARD_RANGE_MATERIALS:
        for row in FORWARD_RANGE_LOADS:
            add("forward range", lr.strains_from_loads, params, lr.Loads.from_array(row))
        add("forward range", lr.strains_from_loads_batch, params, FORWARD_RANGE_LOADS)


UNIT_EXPONENTS = (-40, -20, 0, 20, 40)
UNIT_DIRECTIONS = np.array([
    [0.3, -0.2, 0.1, 0.05, -0.1, 0.2],
    [0.0, 0.0, 1.0, 0.0, 0.0, -0.5],
    [-1.0, 0.5, -0.25, 0.75, 0.0, 1.0],
])
UNIT_QSTARS = (1e-6, 0.5, 1e6, 1e30, 1e300)


def unit_scaled(params: lr.MaterialParams, k: int) -> lr.MaterialParams:
    """The set with its lengths (alpha, beta, iota, ref_length) times 2^k."""
    c = 2.0**k
    return lr.MaterialParams(params.alpha * c, params.beta * c, params.gamma, params.zeta,
                             params.eta, params.iota * c, params.p, params.ref_length * c)


def add_forward_units(add) -> None:
    """Both forward maps on the unit-scaled sets and the large-alpha probes."""
    bases = [lr.load_params(ROOT / "params" / f"{name}.json") for name in ("demo", "dna")]
    bases.append(lr.MaterialParams(1.3, 0.8, 1.0, 0.7, 2.0, 0.5, 3.0))
    for base in bases:
        rows = np.array([
            d * math.sqrt(target / lr.load_quad_form(base, lr.Loads.from_array(d)))
            for d in UNIT_DIRECTIONS for target in UNIT_QSTARS
        ])
        for k in UNIT_EXPONENTS:
            params, scaled = unit_scaled(base, k), rows.copy()
            scaled[:, :3] *= 2.0**k  # couples carry one length
            for row in scaled:
                add("forward units", lr.strains_from_loads, params, lr.Loads.from_array(row))
            add("forward units", lr.strains_from_loads_batch, params, scaled)
    for alpha in (1e3, 1e6, 1e8, 1e100):
        params = lr.MaterialParams(alpha, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0)
        row = np.array([[math.sqrt(99.0) * alpha, 0.0, 0.0, 0.0, 0.0, 0.0]])
        add("forward units", lr.strains_from_loads, params, lr.Loads.from_array(row[0]))
        add("forward units", lr.strains_from_loads_batch, params, row)


LOAD_GATE_MATERIALS = [lr.MaterialParams(1.3, 0.8, 1.0, 0.7, 2.0, 0.5, 3.0)] + [
    lr.MaterialParams(*(weight if i == slot else x for i, x in enumerate((1.0, 1.0, 1.0, 1.0))),
                      2.0, 0.0, 2.0)
    for slot in (0, 1, 3) for weight in (1e-160, 1e-155)
] + [lr.MaterialParams(1.0, 1.0, g, 1.0, 2.0, 0.0, p) for p in (0.75, 0.9) for g in (1e-200, 1e-300)]
LOAD_GATE_LOADS = np.array([
    [0.0] * 6,
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 2e130],
    [0.0, 0.0, 0.0, 0.0, 0.0, -FLOAT_MAX],
    [FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, -FLOAT_MAX],
])


def add_load_gate(add) -> None:
    """The gated functions on the crafted materials and loads above, and on
    the non-finite loads, which the batch map gets one row at a time."""
    for params in LOAD_GATE_MATERIALS:
        for ld in [lr.Loads.from_array(row) for row in LOAD_GATE_LOADS] + NONFINITE_LOADS:
            for fn in (lr.strains_from_loads, lr.complementary_energy, lr.shear_factors):
                add("load gate", fn, params, ld)
            add("load gate", lr.strains_from_loads_batch, params, ld.as_array()[None])
        add("load gate", lr.strains_from_loads_batch, params, LOAD_GATE_LOADS)


BETA_EXPONENTS = (0.05, 1.0 / 3.0, 0.5, 0.75, 1.5, 3.0, 4.0, 7.0, 100.0)
BETA_COMPLEMENTS = [0.0, 5e-324] + [10.0**-e for e in (300, 200, 100, 50, 30, 20, 16, 12, 9, 6, 4, 3, 2)] + [
    j / 20.0 for j in range(1, 20)
] + [1.0 - 1e-12, 1.0, NAN]


def add_beta_kernel(add) -> None:
    """The incomplete-beta kernel at x = 1 - z, given x^a, on the grid above."""
    for p in BETA_EXPONENTS:
        a, b = 2.0 / p, 1.0 - 1.0 / p
        for z in BETA_COMPLEMENTS:
            add("beta kernel", lr.constitutive._incomplete_beta, a, b, (1.0 - z) ** a, z)


RECONSTRUCT_GRIDS = (1e-2, 1e-3)


def reconstruct_fields(rng: np.random.Generator) -> list:
    """(label, strain field, start point, start frame) for three constant
    and three varying fields, each component of the varying ones
    a + b sin(w s + c)."""
    cases = []
    for kind in ("constant", "constant", "constant", "varying", "varying", "varying"):
        start = [float(x) for x in rng.uniform(-1.0, 1.0, 3)]
        angles = lr.EulerAngles(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, math.pi)),
                                float(rng.uniform(-3.0, 3.0)))
        coeffs = rng.uniform(-3.0, 3.0, (6, 4)) * ([1.0], [1.0], [1.0], [0.2], [0.2], [0.2])
        coeffs[5, 0] += 1.0  # v3 about 1
        if kind == "constant":
            strains = lr.Strains.from_array(coeffs[:, 0])
            field, label = (lambda s, strains=strains: strains), repr(strains)
        else:
            a, b, w, c = (col.tolist() for col in coeffs.T)
            field = lambda s, a=a, b=b, w=w, c=c: lr.Strains(
                *(a[i] + b[i] * math.sin(w[i] * s + c[i]) for i in range(6))
            )
            label = f"(a, b, w, c) = {coeffs.tolist()!r}"
        label = f"{kind} {label} from {start!r}, {angles!r}"
        cases.append((label, field, start, lr.directors_from_euler(angles)))
    return cases


def configuration_sha256(config: lr.Configuration) -> str:
    return hashlib.sha256(config.points.tobytes() + config.directors.tobytes()).hexdigest()


def csv_sha256(config: lr.Configuration) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.csv"
        lr.write_configuration_csv(config, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_records() -> dict[str, list[str]]:
    rng = np.random.default_rng(SEED)
    rec: dict[str, list[str]] = {}

    def add(label: str, fn, *args) -> object:
        text, result = call(fn, *args)
        rec.setdefault(label, []).append(f"{fmt(args)} -> {text}")
        return result

    for params in materials(rng):
        rows = load_rows(rng)
        loads = [lr.Loads.from_array(row) for row in rows]
        forward = [add("strains_from_loads", lr.strains_from_loads, params, ld) for ld in loads]
        # numpy scalars in, floats out
        add("strains_from_loads", lr.strains_from_loads, params, lr.Loads(*rows[0]))
        add("strains_from_loads_batch", lr.strains_from_loads_batch, params, rows)
        for ld in loads:
            add("complementary_energy", lr.complementary_energy, params, ld)
        strains = strain_rows(rng, params, forward)
        for st in strains:
            add("loads_from_strains", lr.loads_from_strains, params, st)
            add("stored_energy", lr.stored_energy, params, st)
            add("stored_energy_hessian", lr.stored_energy_hessian, params, st)
        inside = [st for st in strains if isinstance(st, lr.Strains)]
        add("loads_from_strains_batch", lr.loads_from_strains_batch, params,
            np.array([[st.u1, st.u2, st.u3, st.v1, st.v2, st.v3] for st in inside]))

        signs = np.sign(rng.uniform(-1.0, 1.0, 2))
        thrust, couple = (float(x) for x in signs * 10.0 ** rng.uniform(-3.0, 3.0, 2))
        theta, psi0 = float(rng.uniform(0.01, 0.5 * math.pi)), float(rng.uniform(-3.0, 3.0))
        add("trivial_tensile_state", lr.trivial_tensile_state, params, thrust, psi0, GRID_H)
        add_branch_quantities(add, params, [thrust])
        add("strain_bounds", lr.strain_bounds, params)
        for ld in loads + NONFINITE_LOADS:
            add("shear_factors", lr.shear_factors, params, ld)
        add_reduced_residuals(add, params, loads[0], thrust, couple, theta, psi0)
        add("pure_twist_state", lr.pure_twist_state, params, couple, theta, psi0, GRID_H)
        for m1 in (couple, 1e200, 5e-324, -1e-310):
            add("helical_state", lr.helical_state, params, m1, theta, psi0, GRID_H)

    for _ in range(150):
        params, thresh = bifurcating_material(rng)
        thrusts = [thresh * (1.0 + float(x)) for x in 10.0 ** rng.uniform(-6.0, 2.0, 3)]
        add_branch_quantities(add, params, thrusts + [1e200, 0.5 * thresh, INF, NAN])
        for thrust in thrusts + [1e200, 0.5 * thresh]:
            add("sheared_angle", lr.sheared_angle, params, thrust)
            add("sheared_tensile_state", lr.sheared_tensile_state, params, thrust,
                float(rng.uniform(-3.0, 3.0)), GRID_H)
        for thrust in (NAN, INF, -INF):  # no draw: the other cases keep their inputs
            add("sheared_angle", lr.sheared_angle, params, thrust)
            add("sheared_tensile_state", lr.sheared_tensile_state, params, thrust, 0.0, GRID_H)
        add("branch_sweep", lr.branch_sweep, params, -thresh, 3.0 * thresh, 21)

    add_demo_domain_edges(add)
    add_wide_sweeps(add)

    add_forward_range(add)
    add_forward_units(add)
    add_load_gate(add)
    add_beta_kernel(add)
    for label, config in csv_configurations():
        rec.setdefault("write_configuration_csv", []).append(f"{label} -> {call(csv_sha256, config)[0]}")
    for label, field, start, frame in reconstruct_fields(np.random.default_rng(SEED)):
        for grid_h in RECONSTRUCT_GRIDS:
            text = call(lambda: configuration_sha256(lr.reconstruct(field, start, frame, grid_h)))[0]
            rec.setdefault("reconstruct", []).append(f"{label} at {grid_h!r} -> {text}")
    return rec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--show", metavar="LABEL", help="print case records of matching functions")
    args = parser.parse_args()
    for label, lines in digest_records().items():
        if args.show is None:
            body = "\n".join(lines).encode("utf-8")
            print(f"{hashlib.sha256(body).hexdigest()}  {label} ({len(lines)} cases)")
        elif args.show in label:
            print(f"== {label}")
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
