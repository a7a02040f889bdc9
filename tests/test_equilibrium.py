import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from limrod import (
    AngleOutOfRange,
    BelowThreshold,
    BranchPoint,
    DegenerateCouple,
    EquilibriumState,
    EulerAngles,
    FrameLoads,
    LoadOutOfRange,
    Loads,
    MaterialParams,
    NoBifurcation,
    NoBifurcationError,
    StrainOutOfRange,
    Strains,
    branch_sweep,
    check_balance,
    helical_state,
    load_params,
    loads_from_strains,
    pure_twist_state,
    reduced_residual,
    sheared_angle,
    sheared_angle_limit,
    sheared_angle_p2,
    sheared_tensile_state,
    shear_threshold,
    state_from_configuration,
    strain_quad_form,
    strains_from_loads,
    thrust_strain_limits,
    trivial_tensile_state,
    write_branch_csv,
)
from limrod.constitutive import _factor
from limrod.equilibrium import _HALVES, _bisect_float, _branch, _branch_fn, _sheared_tilt
from limrod.material import _constants, nondimensionalize

from conftest import random_params

# oracle-frozen values for the demo set (beta=1, iota=0, eta=2, zeta=1, p=2):
# closed form cross-checked by bisection on the monotone branch function
THRESH = 4.0 / math.sqrt(5.0)  # 1.7888543819998317
THETA_AT_2 = 0.2199879773954588
THETA_LIMIT = 0.5097396788315068  # arccos(4/sqrt(21))


# normalised sets (gamma = 1, unit reference length) for the saturated helices
HELIX_SETS = {
    "demo": MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0),
    "dna": nondimensionalize(load_params(Path(__file__).parents[1] / "params" / "dna.json")),
    "chiral p=3": MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.3, 3.0),
}


# sets whose plain threshold formula, (ratio - 1)^p, or whose branch function's
# N^-p or Q*^{p/2} leaves the float range: zeta^2 from 1e-100 to 1e-300
TINY_ZETA_SETS = [
    MaterialParams(1.0, 1.0, 1.0, zeta, 1.0, iota, p)
    for zeta, p in ((1e-100, 2.0), (1e-100, 7.0), (1e-50, 7.0), (1e-150, 1.5))
    for iota in (0.0, 0.3)
]


def mp_branch(params):
    """(threshold, k, branch function of (N, x)) of a normalised set at
    50 digits, from the closed forms."""
    b, z, e, i, p = map(mpmath.mpf, (params.beta, params.zeta, params.eta, params.iota, params.p))
    b2, z2, det = b * b, z * z, b * b * e * e - i * i
    ratio = det / (b2 * z2)
    thresh = ((ratio - 1) ** p * (b2 / det) ** p - (b / mpmath.sqrt(det)) ** p) ** (-1 / p)

    def f(thrust, x):
        g = (1 - x * x) / z2 + b2 * x * x / det
        return (mpmath.mpf(thrust) ** -p + g ** (p / 2)) ** (-1 / p) * b2 * x / det

    return thresh, 1 / (ratio - 1), f


def mp_sheared_angle(params, thrust):
    with mpmath.workdps(50):
        _, k, f = mp_branch(params)
        return float(mpmath.acos(mpmath.findroot(lambda x: f(thrust, x) - k, (0, 1), solver="anderson")))


def bifurcating_params(rng, max_tries=200):
    """Random admissible set passing both sheared-branch conditions."""
    for _ in range(max_tries):
        beta, zeta = 10.0 ** rng.uniform(-0.3, 0.3, size=2)
        eta = zeta * rng.uniform(1.5, 3.0)
        iota = rng.uniform(-0.5, 0.5) * beta * math.sqrt(eta**2 - zeta**2)
        params = MaterialParams(
            alpha=float(10.0 ** rng.uniform(-0.3, 0.3)),
            beta=float(beta),
            gamma=1.0,
            zeta=float(zeta),
            eta=float(eta),
            iota=float(iota),
            p=float(rng.choice((1.0, 2.0, 3.0, 4.0))),
        )
        if not isinstance(shear_threshold(params), NoBifurcation):
            return params
    raise RuntimeError("could not sample a bifurcating parameter set")


STRAINS0, LOADS0 = Strains.reference(), Loads.zero()


@pytest.mark.parametrize("build, message", [
    (lambda p: BranchPoint(2.0, 0.0, STRAINS0, LOADS0, "sheared"), r"need theta in \(0, pi/2\)"),
    (lambda p: BranchPoint(2.0, math.pi / 2, STRAINS0, LOADS0, "sheared"), r"need theta in \(0, pi/2\)"),
    (lambda p: BranchPoint(2.0, math.nan, STRAINS0, LOADS0, "sheared"), r"need theta in \(0, pi/2\)"),
    (lambda p: BranchPoint(2.0, 0.0, STRAINS0, LOADS0, "twisted"), "^unknown branch 'twisted'$"),
    (lambda p: EquilibriumState(trivial_tensile_state(p, 1.0, grid_h=0.1).configuration,
                                np.zeros((10, 6)), {}), r"^loads array must be \(n_samples, 6\)$"),
    (lambda p: trivial_tensile_state(p, 1.0, grid_h=0.5), r"^grid_h must lie in \(0, 0.1\], got 0.5$"),
    (lambda p: helical_state(p, 1.0, theta=0.5, grid_h=0.0), r"^grid_h must lie in \(0, 0.1\], got 0.0$"),
    (lambda p: pure_twist_state(p, 1.0, grid_h=math.nan), r"^grid_h must lie in \(0, 0.1\], got nan$"),
])
def test_malformed_records_and_grids_raise(demo_params, build, message):
    with pytest.raises(ValueError, match=message):
        build(demo_params)


class TestShearThreshold:
    def test_demo_value(self, demo_params):
        thresh = shear_threshold(demo_params)
        assert thresh == pytest.approx(THRESH, abs=1e-14)

    def test_no_bifurcation_positivity(self):
        # eta^2 = zeta^2 + iota^2/beta^2 exactly: strict inequality fails
        verdict = shear_threshold(MaterialParams(1, 1, 1, 1, 1, 0, 2))
        assert isinstance(verdict, NoBifurcation)
        assert verdict.condition == "dilatation-positivity"

    def test_no_bifurcation_limit(self):
        verdict = shear_threshold(MaterialParams(1, 1, 1, 1, 1.2, 0, 2))
        assert isinstance(verdict, NoBifurcation)
        assert verdict.condition == "dilatation-limit"

    @pytest.mark.parametrize("params", TINY_ZETA_SETS, ids=repr)
    def test_power_beyond_float_range(self, params):
        # (ratio - 1)^p once raised a raw OverflowError; the threshold is a
        # normal float, about zeta^2
        with mpmath.workdps(50):
            want = float(mp_branch(params)[0])
        assert shear_threshold(params) == pytest.approx(want, rel=4e-16)

    @pytest.mark.parametrize("params, bifurcates", [
        # zeta > 1: (ratio - 1)^p overflows although X = (ratio - 1) beta^2/det
        # lies at or below Y = beta/sqrt(det), so X^p - Y^p <= 0
        (MaterialParams(1, 1, 1, 2, 4, 0, 1000), False),
        (MaterialParams(1, 1, 1, 100, 4472.136, 0, 100), False),
        (MaterialParams(1, 1, 1, 100, 4472.136, 0.3, 100), False),
        # and where X > Y the scaled form holds
        (MaterialParams(1, 1, 1, 2, 1e4, 0, 100), True),
        (MaterialParams(1, 1, 1, 2, 1e4, 0.3, 300), True),
    ], ids=repr)
    def test_large_power_beyond_float_range(self, params, bifurcates):
        with mpmath.workdps(50):
            b, z, e, i, p = map(mpmath.mpf, (params.beta, params.zeta, params.eta, params.iota, params.p))
            det = b * b * e * e - i * i
            gap = ((det / (b * b * z * z) - 1) * b * b / det) ** p - (b / mpmath.sqrt(det)) ** p
            assert (gap > 0) == bifurcates
            want = float(mp_branch(params)[0]) if bifurcates else None
        verdict = shear_threshold(params)
        if bifurcates:
            assert verdict == pytest.approx(want, rel=4e-16)
        else:
            assert isinstance(verdict, NoBifurcation)
            assert verdict.condition == "dilatation-limit"
            assert "<= Y =" in verdict.detail


class TestShearedAngle:
    def test_matches_closed_form_at_2(self, demo_params):
        assert sheared_angle(demo_params, 2.0) == pytest.approx(THETA_AT_2, abs=1e-9)
        assert sheared_angle_p2(demo_params, 2.0) == pytest.approx(THETA_AT_2, abs=1e-13)

    def test_bisection_agrees_with_closed_form_on_grid(self, demo_params):
        for thrust in np.geomspace(THRESH * 1.001, 1e6, 25):
            a = sheared_angle(demo_params, float(thrust))
            b = sheared_angle_p2(demo_params, float(thrust))
            assert abs(a - b) < 1e-12

    def test_continuity_at_threshold(self, demo_params):
        assert sheared_angle(demo_params, THRESH * (1 + 1e-8)) < 1e-3
        a6 = sheared_angle(demo_params, THRESH * (1 + 1e-6))
        a7 = sheared_angle(demo_params, THRESH * (1 + 1e-7))
        assert a7 < a6 < 1e-2

    def test_limit_angle(self, demo_params):
        assert sheared_angle_limit(demo_params) == pytest.approx(THETA_LIMIT, abs=1e-14)
        assert sheared_angle(demo_params, 1e8) == pytest.approx(THETA_LIMIT, abs=1e-6)

    def test_below_threshold_raises(self, demo_params):
        with pytest.raises(BelowThreshold):
            sheared_angle(demo_params, THRESH)
        with pytest.raises(NoBifurcationError):
            sheared_angle(MaterialParams(1, 1, 1, 1, 1, 0, 2), 5.0)

    def test_branch_function_monotone(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            params = bifurcating_params(rng)
            thresh = shear_threshold(params)
            thrust = thresh * rng.uniform(1.1, 10.0)
            xs = np.linspace(0.0, 1.0, 101)
            vals = [_branch_fn(_constants(params), thrust**-params.p, float(x)) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_random_sets_continuity_and_monotone_growth(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            params = bifurcating_params(rng)
            thresh = shear_threshold(params)
            assert sheared_angle(params, thresh * (1 + 1e-6)) < 1e-2
            limit = sheared_angle_limit(params)
            angles = [
                sheared_angle(params, thresh * f) for f in (1.01, 1.2, 2.0, 10.0, 1e4)
            ]
            assert all(b > a for a, b in zip(angles, angles[1:]))
            assert all(0.0 < a < limit + 1e-12 for a in angles)


class TestArrayBisection:
    """_sheared_tilt on an array of thrusts, as branch_sweep calls it, against
    the same function on each thrust as a float."""

    @pytest.mark.parametrize("iota", [0.0, 0.3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.0])
    def test_equals_float_calls_bit_for_bit(self, p, iota):
        params = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, iota, p)
        branch = _branch(params)
        near = branch.thresh * (1.0 + np.geomspace(1e-12, 1e-1, 12))
        thrusts = np.concatenate([near, np.geomspace(1.2 * branch.thresh, 1e300, 40)])
        got = _sheared_tilt(branch, thrusts)
        want = [_sheared_tilt(branch, thrust) for thrust in thrusts.tolist()]
        assert got.tolist() == want
        assert want == [sheared_angle(params, thrust) for thrust in thrusts.tolist()]
        assert all(0.0 < a <= b for a, b in zip(want, want[1:]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", TINY_ZETA_SETS, ids=repr)
    def test_powers_beyond_float_range(self, params):
        # N^-p or Q*^{p/2} once raised a raw OverflowError: the float call
        # bisects the scaled factor, the array goes one thrust at a time
        branch = _branch(params)
        thrusts = [branch.thresh * f for f in (1.5, 3.0, 1e10)] + [1.0, 1e300]
        got = _sheared_tilt(branch, np.array(thrusts)).tolist()
        assert got == [sheared_angle(params, thrust) for thrust in thrusts]
        # numpy scalars, whose powers overflow to inf, and 0-d arrays alike
        assert got == [sheared_angle(params, np.float64(thrust)) for thrust in thrusts]
        assert got == [sheared_angle(params, np.array(thrust)) for thrust in thrusts]
        for thrust, theta in zip(thrusts, got):
            assert theta == pytest.approx(mp_sheared_angle(params, thrust), abs=1e-14)
        state = sheared_tensile_state(params, 2.0 * branch.thresh, grid_h=0.1)
        assert state.descriptor["identity_residual"] < 1e-14

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
    def test_float_loop_evaluates_branch_fn(self, p):
        # _bisect_float writes _branch_fn out; at every midpoint it visits,
        # its Q* = g must be _branch_fn's bit for bit (no unit constants)
        params = MaterialParams(0.8, 1.3, 1.0, 0.7, 1.9, 0.3, p)
        branch = _branch(params)
        for thrust in (1.5 * branch.thresh, 40.0 * branch.thresh):
            gp, seen, want = thrust**-p, [], []
            root = _bisect_float(gp, lambda p, gp, g: seen.append(g) or _factor(p, gp, g), branch.c, branch.k)
            lo = root - 0.5 * _HALVES[-1]  # a sum of halves: the midpoints follow exactly
            for half in _HALVES:
                _branch_fn(branch.c, gp, math.floor(lo / (2 * half)) * (2 * half) + half,
                           lambda p, gp, g: want.append(g) or _factor(p, gp, g))
            assert seen == want and len(seen) == 47
            assert math.acos(root) == sheared_angle(params, thrust)

    def test_empty(self, demo_params):
        # a sweep that lies wholly below the threshold
        assert _sheared_tilt(_branch(demo_params), np.array([])).shape == (0,)
        points, _ = branch_sweep(demo_params, 0.0, 1.0, 5)
        assert [pt.branch for pt in points] == ["trivial"] * 5

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.0])
    def test_infinite_thrust_keeps_the_limit_angle(self, p):
        params = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.3, p)
        branch = _branch(params)
        assert sheared_angle(params, math.inf) == pytest.approx(sheared_angle_limit(params), abs=1e-13)
        assert _sheared_tilt(branch, np.array([math.inf])).tolist() == [sheared_angle(params, math.inf)]


class TestTrivialBranch:
    def test_unloaded_is_reference(self, demo_params):
        state = trivial_tensile_state(demo_params, 0.0, grid_h=0.01)
        st = state.descriptor["strains"]
        assert st["u3"] == 0.0 and st["v3"] == 1.0
        np.testing.assert_allclose(state.configuration.points[-1], [0, 0, 1], atol=1e-15)

    def test_achiral_rod_does_not_twist(self, demo_params):
        state = trivial_tensile_state(demo_params, 3.7, grid_h=0.01)
        assert state.descriptor["strains"]["u3"] == 0.0

    def test_matches_forward_map(self):
        params = MaterialParams(1, 1, 1, 1, 1, 0, 2)
        state = trivial_tensile_state(params, math.sqrt(3), grid_h=0.01)
        assert state.descriptor["strains"]["v3"] == pytest.approx(
            1 + math.sqrt(3) / 2, rel=1e-14
        )

    def test_closed_form_factor(self):
        # independent route: the printed thrust-response factor
        rng = np.random.default_rng(53)
        for _ in range(50):
            params = random_params(rng)
            thrust = float(rng.uniform(-20, 20))
            det = params.twist_stretch_det
            factor = (1 + params.beta**params.p * abs(thrust) ** params.p / det ** (params.p / 2)) ** (
                -1 / params.p
            )
            st = strains_from_loads(params, Loads(0, 0, 0, 0, 0, thrust))
            assert st.u3 == pytest.approx(factor * -params.iota * thrust / det, rel=1e-12, abs=1e-15)
            assert st.v3 - 1 == pytest.approx(
                factor * params.beta**2 * thrust / det, rel=1e-12, abs=1e-15
            )

    def test_chirality_sign_law(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            params = random_params(rng)
            if params.iota == 0.0:
                continue
            thrust = float(rng.uniform(0.1, 50) * rng.choice([-1, 1]))
            u3 = trivial_tensile_state(params, thrust, grid_h=0.1).descriptor["strains"]["u3"]
            assert math.copysign(1, u3) == -math.copysign(1, params.iota * thrust)

    def test_limiting_strains(self):
        params = MaterialParams(1, 1, 1, 1, 2, 1, 2)
        lim = thrust_strain_limits(params)
        assert lim.stretch_tension == pytest.approx(1 / math.sqrt(3), rel=1e-15)
        assert lim.u3_tension == pytest.approx(-1 / math.sqrt(3), rel=1e-15)
        st = trivial_tensile_state(params, 1e9, grid_h=0.1).descriptor["strains"]
        assert st["v3"] - 1 == pytest.approx(lim.stretch_tension, abs=1e-6)
        assert st["u3"] == pytest.approx(lim.u3_tension, abs=1e-6)
        st = trivial_tensile_state(params, -1e9, grid_h=0.1).descriptor["strains"]
        assert st["v3"] - 1 == pytest.approx(lim.stretch_compression, abs=1e-6)

    def test_achiral_limits_are_zero_twist(self, demo_params):
        lim = thrust_strain_limits(demo_params)
        assert lim.u3_tension == 0.0 and lim.u3_compression == 0.0

    def test_balance(self, demo_params):
        state = trivial_tensile_state(demo_params, 2.5, grid_h=1e-3)
        rep = check_balance(state)
        assert rep.force_residual < 1e-11 and rep.couple_residual < 1e-11


class TestShearedBranch:
    def test_dilatation_constant_along_branch(self, demo_params):
        # eta/zeta = 1e5: v3 - 1 = k near 1e-10, and a projection margin of
        # 1.4e-4 in the forward map, whose saturated strains it rescales
        wide = MaterialParams(1, 1, 1, 1, 1e5, 0, 2)
        for params, k in ((demo_params, 1 / 3), (wide, 1 / (1e10 - 1))):
            for thrust in (1.8, 2.0, 5.0, 100.0, 1e6):
                state = sheared_tensile_state(params, thrust, grid_h=0.01)
                assert state.descriptor["strains"]["v3"] - 1 == pytest.approx(k, abs=1e-12)
                assert state.descriptor["strains"]["u3"] == 0.0
                assert state.descriptor["identity_residual"] < 1e-12

    def test_shear_amplitude_at_2(self, demo_params):
        state = sheared_tensile_state(demo_params, 2.0, grid_h=0.01)
        amp = state.descriptor["strains"]["v_shear_amplitude"]
        assert amp == pytest.approx((1 / 3) * 4 * math.tan(THETA_AT_2), rel=1e-9)

    def test_chiral_branch_twist(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            params = bifurcating_params(rng)
            if params.iota == 0.0:
                continue
            thresh = shear_threshold(params)
            state = sheared_tensile_state(params, thresh * 2, grid_h=0.1)
            k = state.descriptor["strains"]["v3"] - 1
            assert state.descriptor["strains"]["u3"] == pytest.approx(
                -params.iota * k / params.beta**2, rel=1e-12
            )

    def test_loads_and_strains_consistent(self, demo_params):
        # inverse map on the stored strains must reproduce the stored loads
        state = sheared_tensile_state(demo_params, 2.0, grid_h=0.01)
        cfg = state.configuration
        theta = state.descriptor["theta"]
        amp = state.descriptor["strains"]["v_shear_amplitude"]
        u3 = state.descriptor["strains"]["u3"]
        v3 = state.descriptor["strains"]["v3"]
        for i in (0, len(cfg.s) // 2, len(cfg.s) - 1):
            psi = u3 * cfg.s[i]
            st = Strains(0.0, 0.0, u3, -amp * math.cos(psi), amp * math.sin(psi), v3)
            back = loads_from_strains(demo_params, st)
            np.testing.assert_allclose(
                back.as_array(), state.loads[i], rtol=1e-10, atol=1e-10
            )

    def test_below_threshold(self, demo_params):
        with pytest.raises(BelowThreshold):
            sheared_tensile_state(demo_params, 1.0)

    def test_balance(self, demo_params):
        state = sheared_tensile_state(demo_params, 2.0, grid_h=1e-3)
        rep = check_balance(state)
        assert rep.force_residual < 1e-10 and rep.couple_residual < 1e-10


class TestPureTwist:
    def test_unloaded_reference(self, demo_params):
        state = pure_twist_state(demo_params, 0.0, grid_h=0.01)
        assert state.descriptor["strains"] == {"u3": 0.0, "v3": 1.0}

    def test_known_values(self):
        params = MaterialParams(1, 1, 1, 1, 2, -1, 2)
        state = pure_twist_state(params, 1.0, grid_h=0.01)
        f = (7 / 3) ** -0.5
        assert state.descriptor["strains"]["u3"] == pytest.approx(f * 4 / 3, rel=1e-12)
        assert state.descriptor["strains"]["v3"] - 1 == pytest.approx(f / 3, rel=1e-11)

    def test_poynting_sign_law(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            params = random_params(rng)
            couple = float(rng.uniform(0.1, 30) * rng.choice([-1, 1]))
            if params.iota * couple == 0.0:
                continue
            v3 = pure_twist_state(params, couple, grid_h=0.1).descriptor["strains"]["v3"]
            assert math.copysign(1, v3 - 1) == math.copysign(1, -params.iota * couple)

    def test_limiting_strains(self):
        params = MaterialParams(1, 1, 1, 1, 2, -1, 2)
        st = pure_twist_state(params, 1e9, theta=0.5, grid_h=0.1).descriptor["strains"]
        assert st["u3"] == pytest.approx(2 / math.sqrt(3), abs=1e-6)
        assert st["v3"] - 1 == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-6)
        st = pure_twist_state(params, -1e9, theta=0.5, grid_h=0.1).descriptor["strains"]
        assert st["u3"] == pytest.approx(-2 / math.sqrt(3), abs=1e-6)
        assert st["v3"] - 1 == pytest.approx(-1 / (2 * math.sqrt(3)), abs=1e-6)

    def test_tilted_axis_geometry_and_balance(self):
        params = MaterialParams(1, 1, 1, 1, 2, -1, 2)
        theta = 0.7
        state = pure_twist_state(params, 1.3, theta=theta, grid_h=1e-3)
        d3 = np.array([math.sin(theta), 0.0, math.cos(theta)])
        assert np.abs(state.configuration.directors[:, 2] - d3).max() < 1e-14
        rep = check_balance(state)
        assert rep.force_residual < 1e-11 and rep.couple_residual < 1e-11


class TestHelicalFamily:
    def test_requires_transverse_couple(self, demo_params):
        with pytest.raises(DegenerateCouple):
            helical_state(demo_params, 0.0, theta=0.5)
        with pytest.raises(ValueError):
            helical_state(demo_params, 1.0, theta=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])  # dphi is -1e-323, or underflows to -0
    @pytest.mark.parametrize("couple", [5e-324, -1e-310])
    def test_subnormal_couple(self, demo_params, alpha, couple):
        # the radius v3 sin(theta)/phi' overflowed: a numpy RuntimeWarning and
        # a ValueError (or ZeroDivisionError) from the non-finite centerline
        params = MaterialParams(alpha, 1, 1, 1, 2, 0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCouple, match=f"^bend couple M1 = {couple!r} is too"):
                helical_state(params, couple, theta=0.5, grid_h=0.05)
            state = helical_state(params, 1e-300, theta=0.5, grid_h=0.05)
        radius = state.descriptor["helix_radius"]
        assert radius == pytest.approx(-math.sin(0.5) ** 2 * alpha**2 * 1e300, rel=1e-12)

    def test_circle_radius_and_curvature(self):
        params = MaterialParams(1, 1, 1, 1, 1, 0, 2)
        state = helical_state(params, 1.0, theta=math.pi / 2, grid_h=1e-3)
        assert abs(state.descriptor["helix_radius"]) == pytest.approx(math.sqrt(2), rel=1e-12)
        assert state.descriptor["strains"]["u_flexure_amplitude"] == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )
        assert state.descriptor["strains"]["u3"] == pytest.approx(0.0, abs=1e-15)
        assert state.descriptor["strains"]["v3"] == pytest.approx(1.0, abs=1e-15)
        # center of the arc sits at r0 + radius * g2
        center = np.array([0.0, state.descriptor["helix_radius"], 0.0])
        dist = np.linalg.norm(state.configuration.points - center, axis=1)
        np.testing.assert_allclose(dist, math.sqrt(2), rtol=1e-12)

    def test_flexural_saturation(self):
        params = MaterialParams(1, 1, 1, 1, 1, 0, 2)
        state = helical_state(params, 1e9, theta=math.pi / 2, grid_h=0.1)
        amp = state.descriptor["strains"]["u_flexure_amplitude"]
        assert amp == pytest.approx(1.0, abs=1e-6)  # curvature -> 1/alpha

    def test_helix_geometry(self):
        params = MaterialParams(1.1, 0.9, 1, 1.2, 2.0, 0.4, 2)
        theta = 0.8
        state = helical_state(params, 1.5, theta=theta, grid_h=1e-3)
        radius = state.descriptor["helix_radius"]
        pitch_rate = state.descriptor["helix_pitch_rate"]
        center0 = np.array([0.0, radius, 0.0])
        perp = state.configuration.points[:, :2] - center0[:2]
        np.testing.assert_allclose(np.linalg.norm(perp, axis=1), abs(radius), rtol=1e-12)
        np.testing.assert_allclose(
            state.configuration.points[:, 2], pitch_rate * state.configuration.s, atol=1e-14
        )

    def test_balance(self):
        params = MaterialParams(1.1, 0.9, 1, 1.2, 2.0, 0.4, 2)
        state = helical_state(params, 1.5, theta=0.8, grid_h=1e-3)
        rep = check_balance(state)
        assert rep.force_residual == 0.0
        assert rep.couple_residual < 1e-11


class TestReducedResidualOnFamilies:
    """The six reduced equilibrium equations vanish on every closed-form
    family, evaluated with analytic angle/load derivatives."""

    def assert_zero(self, params, state, thrust, m_frame, dm_frame, angle_fn, rate_fn):
        cfg = state.configuration
        v3 = state.descriptor["strains"]["v3"]
        for i in (1, len(cfg.s) // 3, len(cfg.s) - 2):
            s = float(cfg.s[i])
            angles = EulerAngles(*angle_fn(s))
            sth, cth = math.sin(angles.theta), math.cos(angles.theta)
            fl = FrameLoads(
                M1=m_frame[0], M2=m_frame[1], M3=m_frame[2],
                N1=-thrust * sth, N2=0.0, N3=thrust * cth, N=thrust,
            )
            res = reduced_residual(params, angles, rate_fn(s), fl, dm_frame, v3)
            assert np.abs(res).max() < 1e-9

    def test_trivial(self, demo_params):
        thrust = 2.5
        state = trivial_tensile_state(demo_params, thrust, grid_h=0.05)
        u3 = state.descriptor["strains"]["u3"]
        self.assert_zero(
            demo_params, state, thrust,
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
            lambda s: (0.0, 0.0, u3 * s), lambda s: (0.0, 0.0, u3),
        )

    def test_sheared(self, demo_params):
        thrust = 2.0
        state = sheared_tensile_state(demo_params, thrust, grid_h=0.05)
        theta = state.descriptor["theta"]
        u3 = state.descriptor["strains"]["u3"]
        self.assert_zero(
            demo_params, state, thrust,
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
            lambda s: (0.0, theta, u3 * s), lambda s: (0.0, 0.0, u3),
        )

    def test_pure_twist(self):
        params = MaterialParams(1, 1, 1, 1, 2, -1, 2)
        state = pure_twist_state(params, 1.3, theta=0.6, grid_h=0.05)
        u3 = state.descriptor["strains"]["u3"]
        self.assert_zero(
            params, state, 0.0,
            (0.0, 0.0, 1.3), (0.0, 0.0, 0.0),
            lambda s: (0.0, 0.6, u3 * s), lambda s: (0.0, 0.0, u3),
        )

    def test_helix(self):
        params = MaterialParams(1.1, 0.9, 1, 1.2, 2.0, 0.4, 2)
        theta = 0.8
        m1 = 1.5
        state = helical_state(params, m1, theta=theta, grid_h=0.05)
        dphi = state.descriptor["phi_rate"]
        dpsi = state.descriptor["psi_rate"]
        m3 = state.descriptor["twist_couple"]
        self.assert_zero(
            params, state, 0.0,
            (m1, 0.0, m3), (0.0, 0.0, 0.0),
            lambda s: (dphi * s, theta, dpsi * s), lambda s: (dphi, 0.0, dpsi),
        )


class TestPhaseOffset:
    def test_psi0_states_stay_balanced(self, demo_params):
        chiral = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 2.0)
        states = [
            trivial_tensile_state(chiral, 2.0, psi0=1.1, grid_h=1e-3),
            sheared_tensile_state(demo_params, 2.0, psi0=-0.7, grid_h=1e-3),
            pure_twist_state(chiral, 1.3, theta=0.6, psi0=2.2, grid_h=1e-3),
            helical_state(chiral, 1.2, theta=0.9, psi0=0.4, grid_h=1e-3),
        ]
        for state in states:
            rep = check_balance(state)
            assert max(rep.force_residual, rep.couple_residual) < 1e-10

    def test_psi0_rotates_the_start_section(self, demo_params):
        base = sheared_tensile_state(demo_params, 2.0, grid_h=0.05)
        spun = sheared_tensile_state(demo_params, 2.0, psi0=math.pi / 2, grid_h=0.05)
        d1_base = base.configuration.directors[0, 0]
        d2_spun = spun.configuration.directors[0, 1]
        np.testing.assert_allclose(d2_spun, -d1_base, atol=1e-15)


class TestReducedResidualNumericRates:
    def test_helix_with_sampled_derivatives(self):
        # derivatives taken from the sampled angle/load fields instead of the
        # closed forms: residuals drop to the stencil's O(h^2) level
        from limrod.kinematics import _derivative

        params = MaterialParams(1.1, 0.9, 1, 1.2, 2.0, 0.4, 2)
        theta, m1 = 0.8, 1.5
        worst = {}
        for h in (2e-3, 1e-3):
            state = helical_state(params, m1, theta=theta, grid_h=h)
            cfg = state.configuration
            dphi = state.descriptor["phi_rate"]
            dpsi = state.descriptor["psi_rate"]
            m3 = state.descriptor["twist_couple"]
            v3 = state.descriptor["strains"]["v3"]
            phi = dphi * cfg.s
            psi = dpsi * cfg.s
            # the angle fields are sampled; their derivatives come from stencils
            phi_s = _derivative(phi, cfg.h)
            psi_s = _derivative(psi, cfg.h)
            m_frame = np.zeros((len(cfg.s), 3))
            m_frame[:, 0] = m1
            m_frame[:, 2] = m3
            dm = _derivative(m_frame, cfg.h)
            worst[h] = 0.0
            for i in range(1, len(cfg.s) - 1, max(1, len(cfg.s) // 20)):
                res = reduced_residual(
                    params,
                    EulerAngles(float(phi[i]), theta, float(psi[i])),
                    (float(phi_s[i]), 0.0, float(psi_s[i])),
                    FrameLoads(m1, 0.0, m3, 0.0, 0.0, 0.0, 0.0),
                    (float(dm[i, 0]), float(dm[i, 1]), float(dm[i, 2])),
                    v3,
                )
                worst[h] = max(worst[h], float(np.abs(res).max()))
        # linear fields differentiate exactly, so this sits near rounding;
        # it must certainly stay within an O(h^2) envelope
        assert worst[2e-3] < 1e-9 and worst[1e-3] < 1e-9


class TestGeometryPipeline:
    def test_darboux_recovers_circle_curvature(self):
        # pure-bending circle: the frame-field curvature matches the
        # closed-form flexural amplitude to O(h^2)
        from limrod import darboux_components

        params = MaterialParams(1, 1, 1, 1, 1, 0, 2)
        errs = []
        for h in (2e-3, 1e-3):
            state = helical_state(params, 1.0, theta=math.pi / 2, grid_h=h)
            u = darboux_components(state.configuration.directors, state.configuration.h)
            curvature = np.hypot(u[1:-1, 0], u[1:-1, 1])
            errs.append(np.abs(curvature - 1 / math.sqrt(2)).max())
        assert errs[0] < 1e-6
        assert errs[0] / errs[1] > 3.3

    def test_helix_residual_second_order(self):
        params = MaterialParams(1.0, 1.0, 1, 1.0, 2.0, 0.5, 2)
        residuals = []
        for h in (4e-3, 2e-3, 1e-3):
            state = helical_state(params, 1.2, theta=0.9, grid_h=h)
            derived = state_from_configuration(params, state.configuration)
            rep = check_balance(derived)
            residuals.append(max(rep.force_residual, rep.couple_residual))
        order1 = math.log2(residuals[0] / residuals[1])
        order2 = math.log2(residuals[1] / residuals[2])
        assert order1 > 1.9 and order2 > 1.9

    def test_reconstructed_loads_match_exact(self, demo_params):
        state = sheared_tensile_state(demo_params, 2.0, grid_h=1e-3)
        derived = state_from_configuration(demo_params, state.configuration)
        interior = slice(2, -2)
        assert np.abs(derived.loads[interior] - state.loads[interior]).max() < 1e-4

    def test_recovered_loads_equal_scalar_map_per_sample(self):
        from limrod import darboux_components
        from limrod.kinematics import _derivative

        params = MaterialParams(1.0, 1.0, 1, 1.0, 2.0, 0.5, 3)
        cfg = helical_state(params, 2.0, theta=0.4, psi0=0.7, grid_h=2e-3).configuration
        derived = state_from_configuration(params, cfg)
        u = darboux_components(cfg.directors, cfg.h)
        v = np.einsum("ni,nki->nk", _derivative(cfg.points, cfg.h), cfg.directors)
        for i in range(len(cfg.s)):
            st = Strains(*u[i], *v[i])
            assert derived.loads[i].tobytes() == loads_from_strains(params, st).as_array().tobytes()

    def test_impossible_geometry_raises(self, demo_params):
        state = trivial_tensile_state(demo_params, 1.0, grid_h=0.01)
        cfg = state.configuration
        stretched = type(cfg)(s=cfg.s, points=cfg.points * 3.0, directors=cfg.directors)
        with pytest.raises(StrainOutOfRange, match=r"^Q\(u, v\) = .* >= 1$"):
            state_from_configuration(demo_params, stretched)


class TestNonFiniteInputs:
    """States never carry NaN: each constructor raises a RodModelError."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_helix_bend_couple(self, demo_params, value):
        with pytest.raises(LoadOutOfRange, match="^bend couple M1 = "):
            helical_state(demo_params, value, theta=0.5, grid_h=0.01)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 0.0, -0.1, 2.0])
    def test_helix_theta_outside_chart(self, demo_params, theta):
        # once a plain ValueError; AngleOutOfRange is one too
        with pytest.raises(AngleOutOfRange, match=rf"^theta must lie in \(0, pi/2\], got {theta!r}$"):
            helical_state(demo_params, 1.0, theta=theta, grid_h=0.01)

    def test_trivial_thrust(self, demo_params):
        with pytest.raises(LoadOutOfRange):
            trivial_tensile_state(demo_params, math.nan, grid_h=0.01)

    def test_twist_couple(self, demo_params):
        with pytest.raises(LoadOutOfRange):
            pure_twist_state(demo_params, math.nan, grid_h=0.01)

    @pytest.mark.parametrize("fn", [
        sheared_angle,
        sheared_angle_p2,
        lambda p, thrust: sheared_tensile_state(p, thrust, grid_h=0.01),
    ], ids=["angle", "angle_p2", "state"])
    def test_sheared_nan_thrust(self, demo_params, fn):
        # once BelowThreshold: "thrust nan <= threshold ..."
        with pytest.raises(LoadOutOfRange, match="^thrust N = nan is not a number$"):
            fn(demo_params, math.nan)

    @pytest.mark.filterwarnings("error")
    def test_sheared_infinite_thrust(self, demo_params):
        # the angle has its limit, but the loads are not finite; the state
        # once warned of inf * sin(psi0) first and named a NaN shear force
        assert sheared_angle(demo_params, math.inf) == pytest.approx(THETA_LIMIT, abs=1e-13)
        with pytest.raises(LoadOutOfRange, match=r"^loads are not all finite: .*n1=-inf, n2=0\.0, n3=inf\)$"):
            sheared_tensile_state(demo_params, math.inf, grid_h=0.01)

    @pytest.mark.parametrize("build", [
        lambda p: trivial_tensile_state(p, 1.0, psi0=math.nan, grid_h=0.01),
        lambda p: pure_twist_state(p, 1.0, theta=0.3, psi0=math.nan, grid_h=0.01),
        lambda p: sheared_tensile_state(p, 2.0, psi0=math.nan, grid_h=0.01),
        lambda p: helical_state(p, 1.0, theta=0.5, psi0=math.nan, grid_h=0.01),
    ])
    def test_phase(self, demo_params, build):
        # once NonOrthonormalFrame or LoadOutOfRange, from the NaN frames
        with pytest.raises(AngleOutOfRange, match="^psi0 must be finite, got nan"):
            build(demo_params)

    @pytest.mark.parametrize("theta", [-0.1, 3.5, math.nan])
    def test_twist_theta_outside_chart(self, demo_params, theta):
        with pytest.raises(ValueError, match="theta must lie in"):
            pure_twist_state(demo_params, 1.0, theta=theta, grid_h=0.01)

    @pytest.mark.parametrize("psi0", [math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        lambda p, psi0: trivial_tensile_state(p, 1.0, psi0=psi0, grid_h=0.01),
        lambda p, psi0: sheared_tensile_state(p, 2.0, psi0=psi0, grid_h=0.01),
        lambda p, psi0: pure_twist_state(p, 1.0, theta=0.3, psi0=psi0, grid_h=0.01),
        lambda p, psi0: helical_state(p, 1.0, theta=0.5, psi0=psi0, grid_h=0.01),
    ], ids=["trivial", "sheared", "twist", "helix"])
    def test_infinite_phase(self, demo_params, build, psi0):
        # once libm's "math domain error" from the sine of the phase
        with pytest.raises(AngleOutOfRange, match="^psi0 must be finite"):
            build(demo_params, psi0)

    @pytest.mark.parametrize("loads, message", [
        (FrameLoads(math.nan, 0.0, 0.2, -0.5, 0.0, 1.9, 2.0), "^loads are not all finite: "),
        (FrameLoads(0.3, 0.0, 0.2, -math.inf, 0.0, math.inf, math.inf), "^loads are not all finite: "),
        (FrameLoads(0.3, 0.0, 0.2, -0.5, 0.0, 1.9, math.inf), "^thrust N = inf is not finite"),
    ], ids=["nan-couple", "infinite-thrust", "infinite-N-only"])
    def test_reduced_residual(self, demo_params, loads, message):
        # these once gave NaN residuals, silently
        angles = EulerAngles(0.0, 0.3, 0.1)
        with pytest.raises(LoadOutOfRange, match=message):
            reduced_residual(demo_params, angles, (0.1, 0.0, 0.2), loads, (0.0, 0.0, 0.0), 1.01)

    @pytest.mark.parametrize("rates, load_rates, v3, error, message", [
        ((math.nan, 0.0, 0.2), (0.0, 0.0, 0.0), 1.01, AngleOutOfRange, "^angle rate dphi must be finite, got nan"),
        ((0.1, 0.0, -math.inf), (0.0, 0.0, 0.0), 1.01, AngleOutOfRange, "^angle rate dpsi must be finite, got -inf"),
        ((0.1, 0.0, 0.2), (0.0, math.nan, 0.0), 1.01, LoadOutOfRange, "^load rate dM2 must be finite, got nan"),
        ((0.1, 0.0, 0.2), (0.0, 0.0, 0.0), math.nan, StrainOutOfRange, "^strain v3 must be finite, got nan"),
        ((0.1, 0.0, 0.2), (0.0, 0.0, 0.0), math.inf, StrainOutOfRange, "^strain v3 must be finite, got inf"),
    ], ids=["nan-phi-rate", "infinite-psi-rate", "nan-load-rate", "nan-v3", "infinite-v3"])
    def test_reduced_residual_rates_and_v3(self, demo_params, rates, load_rates, v3, error, message):
        # a NaN angle rate or v3 once gave NaN residuals, silently
        angles = EulerAngles(0.0, 0.3, 0.1)
        loads = FrameLoads(0.3, 0.0, 0.2, -0.5, 0.0, 1.9, 2.0)
        with pytest.raises(error, match=message):
            reduced_residual(demo_params, angles, rates, loads, load_rates, v3)


class TestLoadsBeyondOverflow:
    """Saturating loads, up to those whose Q*^{p/2} overflows, which once
    raised a raw OverflowError."""

    @pytest.mark.parametrize("theta", [0.19, 0.5, 0.9, math.pi / 2])
    @pytest.mark.parametrize("couple", [
        1e10, 1e50, 1e150, 1e200, -1e10, -1e50, -1e150, -1e200, -1e300,
    ])
    @pytest.mark.parametrize("name", ["demo", "dna", "chiral p=3"])
    def test_helix(self, name, couple, theta):
        params = HELIX_SETS[name]
        state = helical_state(params, couple, theta=theta, grid_h=0.01)
        strains = state.descriptor["strains"]
        # deep in saturation: the strains of a large finite-Q* couple, up to
        # the forward map's inward projection (about 1e-13 here)
        near = helical_state(params, math.copysign(1e150, couple), theta=theta, grid_h=0.01)
        for key, value in near.descriptor["strains"].items():
            assert strains[key] == pytest.approx(value, rel=1e-12, abs=1e-15)
        # the forward map's strains, so inside its margin and the inverse map's
        # domain: a hand-derived factor once left such helices at Q >= 1
        st = Strains(strains["u_flexure_amplitude"], 0.0, strains["u3"], 0.0, 0.0, strains["v3"])
        assert st == strains_from_loads(params, Loads.from_array(state.descriptor["loads0"]))
        assert strain_quad_form(params, st) <= 1.0 - _constants(params).margin
        loads_from_strains(params, st)

    def test_helix_infinite_twist_couple(self, demo_params):
        # M3 = -M1 cot(theta) overflows
        with pytest.raises(LoadOutOfRange, match="^loads are not all finite"):
            helical_state(demo_params, 1e200, theta=1e-200, grid_h=0.01)

    @pytest.mark.parametrize("thrust", [1e200, 1.7976931348623157e308])
    def test_sheared(self, demo_params, thrust):
        state = sheared_tensile_state(demo_params, thrust, grid_h=0.01)
        assert state.descriptor["identity_residual"] < 1e-12
        assert state.descriptor["theta"] == pytest.approx(
            sheared_angle_limit(demo_params), rel=1e-12
        )

    @pytest.mark.parametrize("thrust", [1e200, 1e300])
    def test_reduced_residual_of_sheared_state(self, demo_params, thrust):
        # N^2 overflowed as a float power; the shear factor's Q* overflows too
        state = sheared_tensile_state(demo_params, thrust, grid_h=0.01)
        theta, u3 = state.descriptor["theta"], state.descriptor["strains"]["u3"]
        sth, cth = math.sin(theta), math.cos(theta)
        fl = FrameLoads(0.0, 0.0, 0.0, -thrust * sth, 0.0, thrust * cth, thrust)
        res = reduced_residual(
            demo_params, EulerAngles(0.0, theta, 0.0), (0.0, 0.0, u3), fl, (0.0, 0.0, 0.0),
            state.descriptor["strains"]["v3"],
        )
        assert np.isfinite(res).all()
        assert np.abs(res).max() <= 1e-12 * thrust


class TestBodyLoads:
    def test_body_force_enters_force_residual(self, demo_params):
        state = trivial_tensile_state(demo_params, 0.0, grid_h=0.01)
        rep = check_balance(state, body_force=lambda s: np.array([0.0, 0.0, 0.25]))
        assert rep.force_residual == pytest.approx(0.25, abs=1e-12)
        assert rep.couple_residual < 1e-12

    def test_body_couple_enters_couple_residual(self, demo_params):
        state = trivial_tensile_state(demo_params, 0.0, grid_h=0.01)
        rep = check_balance(state, body_couple=lambda s: np.array([0.1 * s, 0.0, 0.0]))
        assert rep.force_residual < 1e-12
        # residual is sampled on the interior, so max |l| is at s just below 1
        assert rep.couple_residual == pytest.approx(0.1 * 0.98, abs=1e-3)


class TestDescriptorWireFormat:
    def test_endpoint_arrays_are_flat_sixes(self, demo_params):
        state = sheared_tensile_state(demo_params, 2.0, grid_h=0.05)
        assert len(state.descriptor["loads0"]) == 6
        assert len(state.descriptor["strains0"]) == 6
        np.testing.assert_allclose(state.descriptor["loads0"], state.loads[0], rtol=1e-15)
        back = strains_from_loads(demo_params, Loads.from_array(state.descriptor["loads0"]))
        np.testing.assert_allclose(state.descriptor["strains0"], back.as_array(), rtol=1e-15)

    def test_closed_form_requires_p2(self):
        params = MaterialParams(1, 1, 1, 1, 2, 0, 3)
        with pytest.raises(ValueError):
            sheared_angle_p2(params, 5.0)

    def test_shear_factors_survive_giant_loads(self, demo_params):
        from limrod import shear_factors

        u_fac, v_fac = shear_factors(demo_params, Loads(0, 0, 0, 0, 0, 1e120))
        assert 0.0 < u_fac < 1e-100 and math.isfinite(u_fac)
        assert 0.0 < v_fac < 1e-100 and math.isfinite(v_fac)


class TestBranchSweep:
    def test_rows_and_ordering(self, demo_params):
        points, thresh = branch_sweep(demo_params, 0.0, 3.0, 7)
        assert not isinstance(thresh, NoBifurcation)
        trivial = [pt for pt in points if pt.branch == "trivial"]
        sheared = [pt for pt in points if pt.branch == "sheared"]
        assert len(trivial) == 7
        assert all(pt.N > thresh for pt in sheared)
        assert points == sorted(points, key=lambda pt: (pt.N, pt.branch))

    def test_sweep_without_bifurcation(self, tmp_path):
        params = MaterialParams(1, 1, 1, 1, 1, 0, 2)
        points, verdict = branch_sweep(params, 0.0, 3.0, 3)
        assert isinstance(verdict, NoBifurcation)
        assert all(pt.branch == "trivial" for pt in points)
        out = tmp_path / "sweep.csv"
        write_branch_csv(out, points, no_bifurcation=verdict)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# no bifurcation: dilatation-positivity")
        assert lines[1] == "N,theta,u3,v3,v_shear_amplitude,branch"
        assert len(lines) == 5

    def test_branch_point_consistency(self, demo_params):
        points, _ = branch_sweep(demo_params, 0.0, 3.0, 13)
        for pt in points:
            back = loads_from_strains(demo_params, pt.strains)
            scale = 1.0 + np.abs(pt.loads.as_array()).max()
            assert np.abs(back.as_array() - pt.loads.as_array()).max() < 1e-10 * scale

    def test_sheared_rows_equal_the_public_functions(self, demo_params):
        # the sweep reads the same branch record as the public functions, so
        # its sheared rows equal theirs bit for bit
        rng = np.random.default_rng(53)
        chiral = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.3, 1.5)
        for params in [demo_params, chiral] + [bifurcating_params(rng) for _ in range(3)]:
            points, thresh = branch_sweep(params, 0.0, 3.0 * shear_threshold(params), 31)
            assert thresh == shear_threshold(params)
            sheared = [pt for pt in points if pt.branch == "sheared"]
            assert len(sheared) >= 20
            for pt in sheared:
                assert pt.theta == sheared_angle(params, pt.N)
                want = sheared_tensile_state(params, pt.N, grid_h=0.1).descriptor["strains"]
                got = {"u3": pt.strains.u3, "v3": pt.strains.v3, "v_shear_amplitude": -pt.strains.v1}
                assert got == want and pt.strains.v2 == 0.0

    def test_achiral_sheared_twist_is_positive_zero(self, demo_params, tmp_path):
        # -iota k / beta^2 was -0.0, so the CSV wrote -0 in the sheared rows
        points, _ = branch_sweep(demo_params, 0.0, 3.0, 7)
        assert {math.copysign(1.0, pt.strains.u3) for pt in points} == {1.0}
        state = sheared_tensile_state(demo_params, 2.0, grid_h=0.1)
        assert math.copysign(1.0, state.descriptor["strains"]["u3"]) == 1.0
        write_branch_csv(tmp_path / "b.csv", points)
        assert "-0," not in (tmp_path / "b.csv").read_text()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_min, n_max, name", [
        (math.nan, 2.0, "n_min"), (0.0, math.nan, "n_max"), (math.nan, math.nan, "n_min"),
        (-math.inf, 2.0, "n_min"), (0.0, math.inf, "n_max"), (math.inf, -math.inf, "n_min"),
    ])
    def test_non_finite_bound(self, demo_params, n_min, n_max, name):
        # once "need n_min < n_max, got nan >= 2.0", or numpy's invalid-value
        # warning and then a LoadOutOfRange naming n3=nan
        with pytest.raises(LoadOutOfRange, match=f"^sweep bound {name} must be finite, got "):
            branch_sweep(demo_params, n_min, n_max, 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bound, count", [(1e308, 3), (1.7976931348623157e308, 601)])
    def test_span_that_overflows(self, demo_params, bound, count):
        # n_max - n_min overflowed: a warning, then a LoadOutOfRange at NaN thrusts
        points, _ = branch_sweep(demo_params, -bound, bound, count)
        grid = [pt.N for pt in points if pt.branch == "trivial"]
        assert grid == (2.0 * np.linspace(-0.5 * bound, 0.5 * bound, count)).tolist()
        assert grid[0] == -bound and grid[-1] == bound and grid[count // 2] == 0.0
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("n_min, n_max, count", [
        (-5e-324, 5e-324, 3), (0.0, 3.0, 31), (-1e-300, 1e300, 7), (-8.9e307, 8.9e307, 11),
    ])
    def test_finite_span_grid_is_linspace(self, demo_params, n_min, n_max, count):
        points, _ = branch_sweep(demo_params, n_min, n_max, count)
        grid = [pt.N for pt in points if pt.branch == "trivial"]
        assert grid == np.linspace(n_min, n_max, count).tolist()

    def test_invalid_inputs(self, demo_params):
        with pytest.raises(ValueError):
            branch_sweep(demo_params, 3.0, 0.0, 5)
        with pytest.raises(ValueError):
            branch_sweep(demo_params, 0.0, 3.0, 1)
        with pytest.raises(ValueError):
            BranchPoint(2.0, 0.4, Strains.reference(), Loads.zero(), "trivial")
