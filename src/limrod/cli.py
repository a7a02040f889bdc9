"""Command-line front end.

Subcommands: validate, eval, branch, state, check.  Exit codes: 0 success,
1 domain error (inadmissible parameters, strain out of range, thrust below
threshold, failed residual check), 2 I/O or parse error.  All numeric
output uses 17 significant digits so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import equilibrium, kinematics, material
from .constitutive import (
    Loads,
    Strains,
    load_quad_form,
    loads_from_strains,
    strain_quad_form,
    strains_from_loads,
)
from .errors import RodModelError

_FAMILIES = ("trivial", "sheared", "twist", "helix", "bend")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_and_validate(path: str) -> material.MaterialParams:
    params = material.load_params(path)
    return material.validate(params)


def cmd_validate(args: argparse.Namespace) -> int:
    params = material.load_params(args.params)
    for name in ("alpha", "beta", "gamma", "zeta", "eta", "iota", "p", "ref_length"):
        print(f"{name} = {_fmt(getattr(params, name))}")
    try:
        material.validate(params)
    except RodModelError as exc:
        print(f"invalid: {type(exc).__name__}: {exc}")
        return 1
    print("valid: yes")
    moduli = params.derived_moduli()
    print(f"bending modulus = {_fmt(moduli.bending)}")
    print(f"twisting modulus = {_fmt(moduli.twisting)}")
    print(f"shearing modulus = {_fmt(moduli.shearing)}")
    print(f"dilatational modulus = {_fmt(moduli.dilatational)}")
    print(f"twist-stretch modulus = {_fmt(moduli.twist_stretch)}")
    weak = material.orientation_weak_ok(params)
    print(f"orientation_weak_ok = {str(weak).lower()}")
    bound = material.orientation_strong_bound(params)
    print(f"orientation_strong radius bound = {_fmt(bound)}")
    thresh = equilibrium.shear_threshold(params)
    if isinstance(thresh, equilibrium.NoBifurcation):
        print(f"no bifurcation: {thresh}")
    else:
        print(f"N_thresh = {_fmt(thresh)}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params = _load_and_validate(args.params)
    c = args.components
    if args.direction == "forward":
        loads = Loads(*c)
        st = strains_from_loads(params, loads)
        print(f"Qstar = {_fmt(load_quad_form(params, loads))}")
        for name in ("u1", "u2", "u3", "v1", "v2", "v3"):
            print(f"{name} = {_fmt(getattr(st, name))}")
    else:
        st = Strains(*c)
        loads = loads_from_strains(params, st)
        print(f"Q = {_fmt(strain_quad_form(params, st))}")
        for name in ("m1", "m2", "m3", "n1", "n2", "n3"):
            print(f"{name} = {_fmt(getattr(loads, name))}")
    return 0


def cmd_branch(args: argparse.Namespace) -> int:
    params = _load_and_validate(args.params)
    finite = math.isfinite(args.n_min) and math.isfinite(args.n_max)  # else branch_sweep names the bound
    if finite and not (args.n_min < args.n_max and args.count >= 2):
        print("error: need --n-min < --n-max and --count >= 2", file=sys.stderr)
        return 1
    points, thresh = equilibrium.branch_sweep(params, args.n_min, args.n_max, args.count)
    verdict = thresh if isinstance(thresh, equilibrium.NoBifurcation) else None
    if args.format == "csv":
        equilibrium.write_branch_csv(args.out, points, no_bifurcation=verdict)
    else:
        payload = {
            "no_bifurcation": str(verdict) if verdict is not None else None,
            "points": [equilibrium._branch_row(pt) for pt in points],
        }
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


def cmd_state(args: argparse.Namespace) -> int:
    params = _load_and_validate(args.params)
    if not 0.0 < args.grid_h <= 0.1:
        print("error: --grid-h must lie in (0, 0.1]", file=sys.stderr)
        return 1
    if args.family == "helix" and not 0.0 < args.theta <= 0.5 * math.pi:
        print("error: helix family needs --theta in (0, pi/2]", file=sys.stderr)
        return 1
    kwargs = {"psi0": args.psi0, "grid_h": args.grid_h}
    if args.family == "trivial":
        state = equilibrium.trivial_tensile_state(params, args.n_thrust, **kwargs)
    elif args.family == "sheared":
        state = equilibrium.sheared_tensile_state(params, args.n_thrust, **kwargs)
    elif args.family == "twist":
        state = equilibrium.pure_twist_state(params, args.m3, theta=args.theta, **kwargs)
    elif args.family == "helix":
        state = equilibrium.helical_state(params, args.m1, theta=args.theta, **kwargs)
    else:  # bend: the theta = pi/2 helix, a circle in pure bending
        state = equilibrium.helical_state(params, args.m1, theta=0.5 * math.pi, **kwargs)
    out = Path(args.out)
    kinematics.write_configuration_csv(state.configuration, out)
    sidecar = out.with_suffix(".json")
    sidecar.write_text(
        json.dumps(state.descriptor, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out} and {sidecar}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    params = _load_and_validate(args.params)
    config = kinematics.read_configuration_csv(args.state_csv)
    state = equilibrium.state_from_configuration(params, config)
    report = equilibrium.check_balance(state)
    load_scale = float(abs(state.loads).max())
    bound = 1e-6 * (1.0 + load_scale) * (report.h / 1e-4) ** 2
    print(f"h = {_fmt(report.h)}")
    print(f"force residual = {_fmt(report.force_residual)}")
    print(f"couple residual = {_fmt(report.couple_residual)}")
    print(f"bound = {_fmt(bound)}")
    ok = report.force_residual < bound and report.couple_residual < bound
    print(f"balance check: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limrod",
        description="Strain-limiting Cosserat rod model: constitutive maps and "
        "closed-form equilibrium states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a parameter file and report moduli")
    p_val.add_argument("params", help="parameter JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("eval", help="evaluate the forward or inverse constitutive map")
    p_eval.add_argument("params")
    p_eval.add_argument("direction", choices=("forward", "inverse"))
    p_eval.add_argument(
        "components",
        nargs=6,
        type=float,
        metavar="C",
        help="six components: m1 m2 m3 n1 n2 n3 (forward) or u1 u2 u3 v1 v2 v3 (inverse)",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_br = sub.add_parser("branch", help="sweep the tensile equilibrium branches to CSV")
    p_br.add_argument("params")
    p_br.add_argument("--n-min", type=float, required=True)
    p_br.add_argument("--n-max", type=float, required=True)
    p_br.add_argument("--count", type=int, default=101)
    p_br.add_argument("--out", required=True)
    p_br.add_argument("--format", choices=("csv", "json"), default="csv")
    p_br.set_defaults(func=cmd_branch)

    p_st = sub.add_parser("state", help="export a closed-form equilibrium state")
    p_st.add_argument("params")
    p_st.add_argument("--family", choices=_FAMILIES, required=True)
    p_st.add_argument("--n-thrust", type=float, default=0.0, help="end thrust N (trivial/sheared)")
    p_st.add_argument("--m3", type=float, default=0.0, help="twisting couple (twist family)")
    p_st.add_argument("--m1", type=float, default=0.0, help="transverse couple (helix/bend)")
    p_st.add_argument("--theta", type=float, default=0.0, help="tilt angle in radians")
    p_st.add_argument("--psi0", type=float, default=0.0, help="initial cross-section phase")
    p_st.add_argument("--grid-h", type=float, default=1e-3)
    p_st.add_argument("--out", required=True, help="output CSV path (JSON sidecar alongside)")
    p_st.set_defaults(func=cmd_state)

    p_ck = sub.add_parser("check", help="verify balance residuals of a configuration CSV")
    p_ck.add_argument("state_csv")
    p_ck.add_argument("params")
    p_ck.set_defaults(func=cmd_check)
    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _negative_numbers_as_values(argv: list[str]) -> list[str]:
    """argparse reads a token such as -1e300 or -inf as an option flag. No
    option of this CLI looks like a number, so such a token is always a
    value: after an option it is attached as --option=value, and as a
    positional it gets a leading space, which float() ignores and which
    no option flag starts with."""
    out: list[str] = []
    for token in argv:
        if token.startswith("-") and _is_number(token):
            if out and out[-1].startswith("--") and "=" not in out[-1]:
                out[-1] += "=" + token
                continue
            token = " " + token
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_negative_numbers_as_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except RodModelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
