"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they go.
Randomized sweeps use fixed seeds, so runs are reproducible.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import limrod as lr
from limrod.cli import main as cli_main

from conftest import (
    load_form_matrix,
    random_loads,
    random_params,
    random_strains,
    strain_form_matrix,
)

P_GRID = (1.0, 2.0, 3.0, 4.0)

# demo constants frozen from their defining closed forms, cross-checked by
# bisection on the monotone branch function (see tests/test_equilibrium.py)
DEMO = lr.MaterialParams(alpha=1, beta=1, gamma=1, zeta=1, eta=2, iota=0, p=2)
THRESH = 4.0 / math.sqrt(5.0)
THETA_AT_2 = 0.2199879773954588
THETA_LIMIT = 0.5097396788315068


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({name}): PASS")


def rel_err(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(got - expected).max() / (1.0 + np.abs(expected).max()))


def test_criterion_1_strain_limiting_bounds():
    """10^5 random (params, loads) with magnitudes log-uniform in [1e-3, 1e8]:
    every forward output stays strictly inside Q < 1 and all four bounds."""
    with criterion(1, "strain-limiting bounds"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        per_set = 100
        for _ in range(1000):
            params = random_params(rng)
            mags = 10.0 ** rng.uniform(-3, 8, size=per_set)
            directions = rng.standard_normal((per_set, 6))
            m = load_form_matrix(params)
            qdir = np.einsum("ni,ij,nj->n", directions, m, directions)
            loads = directions * (mags / np.sqrt(qdir))[:, None]
            out = lr.strains_from_loads_batch(params, loads)
            bounds = lr.strain_bounds(params)
            assert np.all(np.hypot(out[:, 0], out[:, 1]) < bounds.flexure)
            assert np.all(np.abs(out[:, 2]) < bounds.twist)
            assert np.all(np.hypot(out[:, 3], out[:, 4]) < bounds.shear)
            assert np.all(np.abs(out[:, 5] - 1.0) < bounds.dilatation)
            for row in out:
                q = lr.strain_quad_form(params, lr.Strains(*row))
                assert q < 1.0
        elapsed = time.perf_counter() - start
        print(f"  10^5 samples in {elapsed:.2f} s")
        assert elapsed < 10.0


def test_criterion_2_round_trip_inversion():
    """forward(inverse(.)) on strain states with Q <= 1-1e-6 and
    inverse(forward(.)) on load states with Q* <= 1e6, both to 1e-10.

    The loads-side direction is conditioning-limited near the cap: the
    intermediate strains are float64, and the inverse map amplifies their
    half-ulp rounding by 1/(1 - Q^{p/2}), which reaches ~1e6 at the cap for
    p = 2 and far more for p > 2. The floor is what six float64 strains can
    carry: on this test's seed-202 load stream, the correctly rounded
    strains mapped back by a 50-digit inverse are off by up to 9.0e-15,
    9.6e-11, 6.6e-8 and 7.1e-5 for p = 1, 2, 3 and 4. So no implementation
    meets 1e-10 for p >= 3, and at p = 2 the floor is within 4 % of it; the
    assertion keeps the stated tolerance.
    """
    with criterion(2, "round-trip inversion"):
        rng = np.random.default_rng(202)
        worst_fwd_inv = 0.0
        for _ in range(10_000):
            p = float(rng.choice(P_GRID))
            params = random_params(rng, p=p)
            gap = 10.0 ** rng.uniform(-6, 0)
            st = random_strains(rng, params, q_target=1.0 - gap)
            back = lr.strains_from_loads(params, lr.loads_from_strains(params, st))
            worst_fwd_inv = max(worst_fwd_inv, rel_err(back.as_array(), st.as_array()))
        print(f"  forward(inverse(.)) worst relative error: {worst_fwd_inv:.3e}")

        worst_inv_fwd = 0.0
        for _ in range(10_000):
            p = float(rng.choice(P_GRID))
            params = random_params(rng, p=p)
            qstar = 10.0 ** rng.uniform(-6, 6)
            loads = random_loads(rng, params, qstar_target=qstar)
            back = lr.loads_from_strains(params, lr.strains_from_loads(params, loads))
            worst_inv_fwd = max(worst_inv_fwd, rel_err(back.as_array(), loads.as_array()))
        print(f"  inverse(forward(.)) worst relative error: {worst_inv_fwd:.3e}")

        assert worst_fwd_inv < 1e-10
        assert worst_inv_fwd < 1e-10


def test_criterion_3_energy_gradients():
    """Central differences of the complementary energy reproduce the forward
    map, and of the stored energy the inverse map, to 1e-6 at step 1e-5 on
    10^3 interior states covering p in {1, 2, 3, 4}."""
    with criterion(3, "energy gradients"):
        rng = np.random.default_rng(303)
        step = 1e-5
        for i in range(1000):
            p = P_GRID[i % 4]
            params = random_params(rng, p=p)

            loads = random_loads(rng, params, qstar_target=rng.uniform(0.05, 10.0))
            base = loads.as_array()
            grad = np.empty(6)
            for j in range(6):
                hi, lo = base.copy(), base.copy()
                hi[j] += step
                lo[j] -= step
                grad[j] = (
                    lr.complementary_energy(params, lr.Loads(*hi))
                    - lr.complementary_energy(params, lr.Loads(*lo))
                ) / (2 * step)
            expected = lr.strains_from_loads(params, loads).as_array()
            expected[5] -= 1.0
            assert rel_err(grad, expected) < 1e-6

            st = random_strains(rng, params, q_target=rng.uniform(0.02, 0.9))
            base = st.as_array()
            for j in range(6):
                hi, lo = base.copy(), base.copy()
                hi[j] += step
                lo[j] -= step
                grad[j] = (
                    lr.stored_energy(params, lr.Strains(*hi))
                    - lr.stored_energy(params, lr.Strains(*lo))
                ) / (2 * step)
            expected = lr.loads_from_strains(params, st).as_array()
            assert rel_err(grad, expected) < 1e-6


def test_criterion_4_hessian():
    """On 10^3 states with Q < 1-1e-3: the Hessian is symmetric positive
    definite, matches finite differences of the inverse map to 1e-6, and
    satisfies the saturating-form quadratic identity to 1e-10.

    The FD oracle uses a fourth-order Richardson stencil with component
    steps scaled by the local form gradient; a plain second-order stencil's
    truncation error exceeds 1e-6 once Q sits near the 1-1e-3 cap.
    """
    with criterion(4, "hessian definiteness and identity"):
        rng = np.random.default_rng(404)
        for i in range(1000):
            p = P_GRID[i % 4]
            params = random_params(rng, p=p)
            st = random_strains(rng, params, q_target=rng.uniform(0.0, 1.0 - 1e-3))
            h = lr.stored_energy_hessian(params, st)
            scale = np.abs(h).max()
            assert np.abs(h - h.T).max() <= 1e-12 * max(1.0, scale)
            assert np.linalg.eigvalsh(h).min() > 0.0

            base = st.as_array()
            m = strain_form_matrix(params)
            dev = base.copy()
            dev[5] -= 1.0
            grad_q = 2.0 * np.abs(m @ dev) + np.abs(np.diag(m))
            fd = np.empty((6, 6))
            for j in range(6):
                step = 1e-5 / (1.0 + grad_q[j])

                def ev(delta, j=j):
                    x = base.copy()
                    x[j] += delta
                    return lr.loads_from_strains(params, lr.Strains(*x)).as_array()

                fd[:, j] = (
                    8.0 * (ev(step) - ev(-step)) - (ev(2 * step) - ev(-2 * step))
                ) / (12.0 * step)
            assert np.abs(h - fd).max() < 1e-6 * max(1.0, scale)

            q = lr.strain_quad_form(params, st)
            s = 1.0 - q ** (0.5 * p)
            m = strain_form_matrix(params)
            dev = st.as_array()
            dev[5] -= 1.0
            w = m @ dev
            z = rng.standard_normal(6)
            lhs = s ** (1.0 / p + 1.0) * (z @ h @ z)
            rhs = params.gamma * (s * (z @ m @ z) + q ** (0.5 * p - 1.0) * (w @ z) ** 2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_criterion_5_symmetry():
    """Hemitropy and flip symmetry of W and Q to 1e-12; the reflected action
    is a symmetry exactly when the twist-stretch coupling vanishes."""
    with criterion(5, "transverse symmetry"):
        rng = np.random.default_rng(505)
        for _ in range(500):
            params = random_params(rng)
            st = random_strains(rng, params, q_target=rng.uniform(0.0, 0.95))
            q0 = lr.strain_quad_form(params, st)
            w0 = lr.stored_energy(params, st)
            rot = lr.symmetry_transform(st, "rotation", rng.uniform(0, 2 * math.pi))
            flip = lr.symmetry_transform(st, "flip")
            for other in (rot, flip):
                assert abs(lr.strain_quad_form(params, other) - q0) <= 1e-12 * (1 + q0)
                assert abs(lr.stored_energy(params, other) - w0) <= 1e-12 * (1 + abs(w0))

        for _ in range(300):
            params = random_params(rng, coupling=0.0)  # iota = 0
            st = random_strains(rng, params, q_target=rng.uniform(0.0, 0.95))
            refl = lr.symmetry_transform(st, "flip_reflect")
            w0 = lr.stored_energy(params, st)
            assert abs(lr.stored_energy(params, refl) - w0) <= 1e-12 * (1 + abs(w0))

        witness_params = lr.MaterialParams(1, 1, 1, 1, 2, 1, 2)
        witness = lr.Strains(0, 0, 0.3, 0, 0, 1.2)  # u3 * (v3 - 1) != 0
        refl = lr.symmetry_transform(witness, "flip_reflect")
        assert abs(
            lr.stored_energy(witness_params, refl) - lr.stored_energy(witness_params, witness)
        ) > 1e-3


def test_criterion_6_bifurcation_threshold():
    """Threshold 4/sqrt(5) to 1e-12; the sheared angle at N = 2 and its
    large-thrust limit match their closed forms to 1e-6; the angle collapses
    continuously at the threshold."""
    with criterion(6, "bifurcation threshold and angle"):
        thresh = lr.shear_threshold(DEMO)
        assert not isinstance(thresh, lr.NoBifurcation)
        assert abs(thresh - THRESH) < 1e-12

        theta2 = lr.sheared_angle(DEMO, 2.0)
        assert abs(theta2 - lr.sheared_angle_p2(DEMO, 2.0)) < 1e-12
        assert abs(theta2 - THETA_AT_2) < 1e-6

        assert abs(lr.sheared_angle_limit(DEMO) - THETA_LIMIT) < 1e-12
        assert abs(lr.sheared_angle(DEMO, 1e8) - THETA_LIMIT) < 1e-6

        assert lr.sheared_angle(DEMO, THRESH * (1 + 1e-8)) < 1e-3


def test_criterion_7_sheared_branch():
    """On the sheared branch the dilatation deviation is exactly the moduli
    constant 1/3, independent of thrust, and the branch identity linking the
    saturating factor to the tilt holds to 1e-10 along the branch."""
    with criterion(7, "sheared-branch dilatation and identity"):
        det = DEMO.twist_stretch_det  # 4
        ratio = det / (DEMO.beta**2 * DEMO.zeta**2)  # 4
        k = 1.0 / (ratio - 1.0)
        for thrust in np.geomspace(THRESH * 1.0001, 1e6, 40):
            thrust = float(thrust)
            state = lr.sheared_tensile_state(DEMO, thrust, grid_h=0.05)
            assert abs(state.descriptor["strains"]["v3"] - 1.0 - 1.0 / 3.0) < 1e-12
            theta = state.descriptor["theta"]
            qstar = thrust**2 * (
                math.sin(theta) ** 2 / DEMO.zeta**2 + DEMO.beta**2 * math.cos(theta) ** 2 / det
            )
            lhs = (1.0 + qstar ** (DEMO.p / 2)) ** (-1.0 / DEMO.p)
            rhs = det / (DEMO.beta**2 * thrust * math.cos(theta)) * k
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_criterion_8_poynting_and_chirality_signs():
    """Twist couples change rod length with sign(-iota*M3); tension twists a
    chiral rod with sign(-iota*N); the saturation limits for
    (beta, eta, iota) = (1, 2, -1) are reached at |M3| = 1e9."""
    with criterion(8, "poynting and chirality signs"):
        rng = np.random.default_rng(808)
        for _ in range(200):
            params = random_params(rng)
            if params.iota == 0.0:
                continue
            mag = 10.0 ** rng.uniform(-2, 2)
            sign = float(rng.choice([-1.0, 1.0]))
            twist_state = lr.pure_twist_state(params, sign * mag, grid_h=0.1)
            dv3 = twist_state.descriptor["strains"]["v3"] - 1.0
            assert math.copysign(1, dv3) == math.copysign(1, -params.iota * sign * mag)
            tense_state = lr.trivial_tensile_state(params, sign * mag, grid_h=0.1)
            u3 = tense_state.descriptor["strains"]["u3"]
            assert math.copysign(1, u3) == -math.copysign(1, params.iota * sign * mag)

        params = lr.MaterialParams(1, 1, 1, 1, 2, -1, 2)
        for sign in (1.0, -1.0):
            st = lr.pure_twist_state(params, sign * 1e9, grid_h=0.1).descriptor["strains"]
            assert abs(st["u3"] - sign * 2 / math.sqrt(3)) < 1e-6
            assert abs((st["v3"] - 1.0) - sign / (2 * math.sqrt(3))) < 1e-6


def test_criterion_9_equilibrium_residuals():
    """Geometry-only verification: reconstruct loads constitutively from each
    exported family's sampled configuration and check both balance laws,
    with second-order convergence under grid halving where the residual is
    above the rounding floor. Helix radius/pitch and the pure-bending circle
    radius are verified geometrically on integrator output."""
    with criterion(9, "equilibrium residuals and geometry"):
        chiral = lr.MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 2.0)
        iso = lr.MaterialParams(1, 1, 1, 1, 1, 0, 2)
        families = {
            "trivial": lambda h: lr.trivial_tensile_state(chiral, 2.0, grid_h=h),
            "sheared": lambda h: lr.sheared_tensile_state(DEMO, 2.0, grid_h=h),
            "twist": lambda h: lr.pure_twist_state(chiral, 1.3, theta=0.6, grid_h=h),
            "helix": lambda h: lr.helical_state(chiral, 1.2, theta=0.9, grid_h=h),
            "bend": lambda h: lr.helical_state(iso, 1.0, theta=0.5 * math.pi, grid_h=h),
        }
        grids = (1e-3, 5e-4, 2.5e-4)
        residuals: dict[str, list[float]] = {}
        for name, build in families.items():
            residuals[name] = []
            for h in grids:
                state = build(h)
                params = lr.MaterialParams(**state.descriptor["params"])
                derived = lr.state_from_configuration(params, state.configuration)
                rep = lr.check_balance(derived)
                load_scale = float(np.abs(derived.loads).max())
                bound = 1e-6 * (1.0 + load_scale) * (rep.h / 1e-4) ** 2
                res = max(rep.force_residual, rep.couple_residual)
                assert res < bound, f"{name}: residual {res} above bound {bound} at h={h}"
                residuals[name].append(res)

        # The straight/screw-symmetric families produce s-independent stencil
        # errors, so their residuals are pure verification-pipeline rounding
        # noise; they calibrate the floor against which the curved families'
        # convergence orders are measurable.
        noise = [max(residuals[k][i] for k in ("trivial", "sheared", "twist")) for i in range(3)]
        print("  pipeline noise floor per grid:", " ".join(f"{x:.2e}" for x in noise))
        for name in ("helix", "bend"):
            seq = residuals[name]
            assert seq[0] > 8 * noise[0], f"{name}: no measurable signal at h=1e-3"
            checked = 0
            for k in range(2):
                if seq[k] >= 8 * noise[k] and seq[k + 1] >= 4 * noise[k + 1]:
                    order = math.log2(seq[k] / seq[k + 1])
                    assert order >= 1.9, f"{name}: order {order} on halving {k + 1}"
                    checked += 1
            assert checked >= 1
            print(f"  {name}: residuals " + " ".join(f"{x:.2e}" for x in seq)
                  + f" ({checked} signal-dominated halvings at order >= 1.9)")

        # helix radius and pitch, measured on the order-4 Magnus integrator's
        # output (the psi-rotating strains of this chiral helix are not constant)
        state = lr.helical_state(chiral, 1.2, theta=0.9, grid_h=1e-2)
        radius = state.descriptor["helix_radius"]
        pitch_rate = state.descriptor["helix_pitch_rate"]
        dpsi = state.descriptor["psi_rate"]
        amp = state.descriptor["strains"]["u_flexure_amplitude"]
        u3 = state.descriptor["strains"]["u3"]
        v3 = state.descriptor["strains"]["v3"]

        def field(s):
            psi = dpsi * s
            return lr.Strains(amp * math.cos(psi), -amp * math.sin(psi), u3, 0.0, 0.0, v3)

        cfg = lr.reconstruct(field, np.zeros(3), state.configuration.frame(0), grid_h=1e-4)
        axis_center = np.array([0.0, radius])
        dist = np.linalg.norm(cfg.points[:, :2] - axis_center, axis=1)
        assert np.abs(dist - abs(radius)).max() < 1e-6
        assert np.abs(cfg.points[:, 2] - pitch_rate * cfg.s).max() < 1e-6

        # pure-bending circle of radius sqrt(2) for alpha = 1, p = 2, M1 = 1
        circle = lr.helical_state(iso, 1.0, theta=0.5 * math.pi, grid_h=1e-3)
        center = np.array([0.0, circle.descriptor["helix_radius"], 0.0])
        radii = np.linalg.norm(circle.configuration.points - center, axis=1)
        assert np.abs(radii - math.sqrt(2)).max() < 1e-8


def test_criterion_10_orientation_predicates():
    """10^3 parameter sets passing the weak predicate keep v3 > 0 on 10^4
    random loads each; sets passing the strong predicate also keep
    v3 > a * |flexure| at every sampled state."""
    with criterion(10, "orientation preservation"):
        rng = np.random.default_rng(1010)
        per_set = 10_000
        strong_hits = 0
        for _ in range(1000):
            beta = float(10.0 ** rng.uniform(-0.5, 0.5))
            t = float(rng.uniform(0.0, 2.0))
            r = float(rng.uniform(1.05, 2.5))
            params = lr.MaterialParams(
                alpha=float(10.0 ** rng.uniform(-0.5, 0.5)),
                beta=beta,
                gamma=1.0,
                zeta=float(10.0 ** rng.uniform(-0.5, 0.5)),
                eta=math.sqrt(1.0 + t * t) * r,
                iota=t * beta * float(rng.choice([-1.0, 1.0])),
                p=float(rng.choice(P_GRID)),
            )
            assert lr.orientation_weak_ok(params)
            mags = 10.0 ** rng.uniform(-3, 8, size=per_set)
            directions = rng.standard_normal((per_set, 6))
            m = load_form_matrix(params)
            qdir = np.einsum("ni,ij,nj->n", directions, m, directions)
            loads = directions * (mags / np.sqrt(qdir))[:, None]
            out = lr.strains_from_loads_batch(params, loads)
            assert np.all(out[:, 5] > 0.0)

            bound = params.alpha * (1.0 - params.beta / math.sqrt(params.twist_stretch_det))
            a = 0.8 * bound
            if a > 0.0 and lr.orientation_strong_ok(params, a):
                strong_hits += 1
                flexure = np.hypot(out[:, 0], out[:, 1])
                assert np.all(out[:, 5] > a * flexure)
        assert strong_hits > 100
        print(f"  strong-predicate sets exercised: {strong_hits}")


def test_criterion_11_cli_pipeline(tmp_path):
    """state -> check exits 0 for all five families, and both output files
    are byte-identical across repeated runs."""
    with criterion(11, "CLI state/check pipeline"):
        params_path = tmp_path / "demo.json"
        params_path.write_text(
            json.dumps(
                {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "zeta": 1.0,
                 "eta": 2.0, "iota": 0.0, "p": 2.0}
            )
        )
        family_args = {
            "trivial": ["--n-thrust", "1.5"],
            "sheared": ["--n-thrust", "2.0"],
            "twist": ["--m3", "1.0", "--theta", "0.4"],
            "helix": ["--m1", "1.0", "--theta", "0.9"],
            "bend": ["--m1", "1.0"],
        }
        for family, extra in family_args.items():
            blobs = []
            for run in (1, 2):
                out = tmp_path / f"{family}_{run}.csv"
                argv = ["state", str(params_path), "--family", family,
                        "--grid-h", "0.001", "--out", str(out), *extra]
                assert cli_main(argv) == 0
                assert cli_main(["check", str(out), str(params_path)]) == 0
                blobs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
            assert blobs[0] == blobs[1], f"{family}: outputs not byte-stable"
