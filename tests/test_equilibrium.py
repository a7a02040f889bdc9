import copy
import dataclasses
import math
import pickle
import warnings
from pathlib import Path

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
    complementary_energy,
    helical_state,
    load_params,
    loads_from_strains,
    pure_twist_state,
    reduced_residual,
    sheared_angle,
    sheared_angle_limit,
    sheared_angle_p2,
    sheared_tensile_state,
    shear_factors,
    shear_threshold,
    state_from_configuration,
    strain_quad_form,
    strains_from_loads,
    strains_from_loads_batch,
    thrust_strain_limits,
    trivial_tensile_state,
    write_branch_csv,
)
from limrod.equilibrium import _branch, _reduced_norm, _reduced_root, _sheared_rows, _thrust_term
from limrod.material import _constants, nondimensionalize

import oracle
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
# N^-p or Q*^{p/2} leaves the float range: zeta^2 from 1e-100 to 1e-300, and
# subnormal (1e-310) with beta^2 zeta^2 normal
TINY_ZETA_SETS = [
    MaterialParams(1.0, 1.0, 1.0, zeta, 1.0, iota, p)
    for zeta, p in ((1e-100, 2.0), (1e-100, 7.0), (1e-50, 7.0), (1e-150, 1.5))
    for iota in (0.0, 0.3)
] + [MaterialParams(1.0, 100.0, 1.0, 1e-155, 1e-3, 0.0, 2.0), MaterialParams(1.0, 1e100, 1.0, 1e-155, 1.0, 0.0, 2.0)]

# sets where the threshold once lost digits: N^-p large but finite (zeta from
# 1e-100 to 1e-20), det/(beta^2 zeta^2) overflowing (zeta = 1e-150,
# eta = 5e6), and a subnormal beta^2 (beta = 1e-160)
THRESHOLD_EDGE_SETS = [
    MaterialParams(1.0, 1.0, 1.0, zeta, 1.0, 0.0, p)
    for zeta, p in ((1e-100, 1.5), (1e-50, 3.0), (1e-20, 1.5), (1e-20, 3.0), (1e-20, 7.0))
] + [MaterialParams(1.0, 1.0, 1.0, 1e-150, 5e6, 0.0, 2.0), MaterialParams(1.0, 1e-160, 1.0, 1.0, 2.0, 0.0, 2.0)]


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

    @pytest.mark.parametrize("params", TINY_ZETA_SETS + THRESHOLD_EDGE_SETS, ids=repr)
    def test_power_beyond_float_range(self, params):
        # (ratio - 1)^p once raised a raw OverflowError; the threshold is a
        # normal float, about zeta^2 (abs=0: approx's default 1e-12 would
        # pass any threshold this small)
        assert shear_threshold(params) == pytest.approx(oracle.branch(params)[0], rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("beta, zeta, iota", [
        (1e-100, 1e-100, 0.0), (1e-80, 1e-80, 0.0), (1e-100, 1e-100, 3e-101), (1e-60, 1e-100, 0.0),
    ])
    def test_beta_zeta_product_below_normal(self, beta, zeta, iota, p):
        # beta^2 zeta^2 is 0 or subnormal: ratio = det/(beta^2 zeta^2) once
        # raised a raw ZeroDivisionError, or lost digits (9.99988867e-161 at 1e-80)
        params = MaterialParams(1.0, beta, 1.0, zeta, 2.0, iota, p)
        assert shear_threshold(params) == pytest.approx(oracle.branch(params)[0], rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("beta, zeta, iota", [
        (1e-80, 1e-80, 0.0), (1e-90, 1e-90, 0.0), (1e-100, 1e-100, 3e-101), (1e-60, 1e-100, 0.0),
        (1e-160, 1.0, 0.0),
    ])
    def test_angle_below_normal_matches_mpmath(self, beta, zeta, iota):
        # beta^2 zeta^2 is 0 or subnormal: the angle once came out 8.43e-8
        # where 50-digit mpmath gives pi/3 (at 1e-90), and then raised
        # BranchUnderflow; the reduced equation never reads beta^2 zeta^2
        params = MaterialParams(1.0, beta, 1.0, zeta, 2.0, iota, 2.0)
        thresh = shear_threshold(params)
        for thrust in (1.5 * thresh, 2.0 * thresh, 1e3 * thresh, math.inf):
            want = oracle.cos_p2(params, thrust)
            assert abs(math.cos(sheared_angle(params, thrust)) - want) <= 4e-16, thrust
        state = sheared_tensile_state(params, 2.0 * thresh, grid_h=0.1)
        assert state.descriptor["identity_residual"] < 1e-14
        points, _ = branch_sweep(params, 0.0, 4.0 * thresh, 5)
        sheared = [pt for pt in points if pt.branch == "sheared"]
        assert [pt.theta for pt in sheared] == [sheared_angle(params, pt.N) for pt in sheared]
        assert len(sheared) == 3
        points, _ = branch_sweep(params, 0.0, thresh, 3)  # no sheared thrust, no angle
        assert [pt.branch for pt in points] == ["trivial"] * 3

    @pytest.mark.parametrize("scale", [1.0, 4.0, 1e10])
    def test_angle_just_above_normal_matches_mpmath(self, scale):
        # beta^2 zeta^2 = 2^-1022 scale: the smallest products the angle takes
        params = MaterialParams(1.0, 2.0**-256, 1.0, scale**0.5 * 2.0**-255, 2.0, 0.0, 2.0)
        thrust = 2.0 * shear_threshold(params)
        assert sheared_angle(params, thrust) == pytest.approx(oracle.sheared_angle(params, thrust), abs=1e-14)

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
        want = oracle.branch(params)[0]
        assert (want is not None) == bifurcates
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

    @pytest.mark.parametrize("params", [
        MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0),
        MaterialParams(0.8895393463967457, 1.0232317510318143, 1.0, 1.1615233365135196, 3.111239905681986,
                       -0.15490800805271226, 2.0),
    ], ids=["demo", "chiral"])
    def test_closed_form_at_the_first_float_above_the_threshold(self, params):
        # the plain arccos of the closed form's cos(theta) gave 0 on demo and
        # failed on the chiral set, whose cos(theta) rounds above 1
        thrust = math.nextafter(shear_threshold(params), math.inf)
        theta = sheared_angle_p2(params, thrust)
        assert 0.0 < theta < 0.5 * math.pi
        assert theta == sheared_angle(params, thrust) == 2.0**-26  # arccos(1 - 2^-53)

    def test_limit_angle(self, demo_params):
        assert sheared_angle_limit(demo_params) == pytest.approx(THETA_LIMIT, abs=1e-14)
        assert sheared_angle(demo_params, 1e8) == pytest.approx(THETA_LIMIT, abs=1e-6)

    def test_below_threshold_raises(self, demo_params):
        with pytest.raises(BelowThreshold):
            sheared_angle(demo_params, THRESH)
        with pytest.raises(NoBifurcationError):
            sheared_angle(MaterialParams(1, 1, 1, 1, 1, 0, 2), 5.0)

    def test_reduced_function_monotone(self):
        # h(x) = x - ||(s, t(x))||_p, whose root is cos(theta)
        rng = np.random.default_rng(43)
        for _ in range(50):
            params = bifurcating_params(rng)
            branch = _branch(params)
            thrust = branch.thresh * rng.uniform(1.1, 10.0)
            xs = np.linspace(0.0, 1.0, 101)
            h = xs - _reduced_norm(branch, np.full(101, _thrust_term(branch, thrust)), xs)[0]
            assert (np.diff(h) > 0.0).all() and h[0] < 0.0 < h[-1]

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


def sweep_angles(branch, thrusts):
    """The angles branch_sweep forms at an array of sheared thrusts: one
    _reduced_root call, the roots through _sheared_rows."""
    thrusts = np.asarray(thrusts, dtype=float)
    return _sheared_rows(branch, thrusts, _reduced_root(branch, thrusts))[0].tolist()


class TestArrayBisection:
    """The Newton loop on an array of thrusts, as branch_sweep runs it,
    against sheared_angle on each thrust as a float."""

    @pytest.mark.parametrize("iota", [0.0, 0.3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.0])
    def test_equals_float_calls_bit_for_bit(self, p, iota):
        params = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, iota, p)
        branch = _branch(params)
        near = branch.thresh * (1.0 + np.geomspace(1e-12, 1e-1, 12))
        thrusts = np.concatenate([near, np.geomspace(1.2 * branch.thresh, 1e300, 40)])
        want = [sheared_angle(params, thrust) for thrust in thrusts.tolist()]
        assert sweep_angles(branch, thrusts) == want
        assert all(0.0 < a <= b for a, b in zip(want, want[1:]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", TINY_ZETA_SETS, ids=repr)
    def test_powers_beyond_float_range(self, params):
        # N^-p or Q*^{p/2} once raised a raw OverflowError: the float call
        # bisects the scaled factor, the array goes one thrust at a time
        branch = _branch(params)
        thrusts = [branch.thresh * f for f in (1.5, 3.0, 1e10)] + [1.0, 1e300]
        got = sweep_angles(branch, thrusts)
        assert got == [sheared_angle(params, thrust) for thrust in thrusts]
        # numpy scalars, whose powers overflow to inf, and 0-d arrays alike
        assert got == [sheared_angle(params, np.float64(thrust)) for thrust in thrusts]
        assert got == [sheared_angle(params, np.array(thrust)) for thrust in thrusts]
        for thrust, theta in zip(thrusts, got):
            assert theta == pytest.approx(oracle.sheared_angle(params, thrust), abs=1e-14)
            if params.p == 2.0:  # the closed form: N^-2 once raised a raw OverflowError
                closed = sheared_angle_p2(params, thrust)
                assert math.cos(closed) == pytest.approx(math.cos(theta), abs=1e-14)
                assert closed < 0.5 * math.pi  # arccos(cos theta) once rounded to pi/2 itself
        limit = sheared_angle_limit(params)
        assert limit == sheared_angle(params, math.inf) and limit < 0.5 * math.pi
        state = sheared_tensile_state(params, 2.0 * branch.thresh, grid_h=0.1)
        assert state.descriptor["identity_residual"] < 1e-14
        # cos(theta) about zeta near 1e300: theta is clamped below the float pi/2
        points, _ = branch_sweep(params, 0.0, 1e300, 7)
        assert [pt.theta for pt in points if pt.branch == "sheared"] == [
            sheared_angle(params, pt.N) for pt in points if pt.branch == "sheared"]
        # x = cos(theta) about zeta/a from N of order 1: the strains once came
        # from the clamped theta, a shear amplitude of 3.53e15 at zeta = 1e-100;
        # Q is within the margin of 1 there, so the amplitude is projected
        points, _ = branch_sweep(params, 0.0, 1.0, 5)
        sheared = [pt for pt in points if pt.branch == "sheared"]
        assert len(sheared) == 4
        margin = _constants(params).margin
        for pt in sheared:
            want = oracle.shear_amplitude(params, pt.N, margin)
            assert -pt.strains.v1 == pytest.approx(want, rel=4e-16, abs=0.0)
        if params.zeta >= 1e-150:
            state = sheared_tensile_state(params, 1.0, grid_h=0.1)
            assert state.descriptor["strains"]["v_shear_amplitude"] == -sheared[-1].strains.v1
            assert state.descriptor["identity_residual"] < 1e-14
        else:  # Q* = n1^2/zeta^2 of the end loads overflows, and the load gate refuses
            with pytest.raises(LoadOutOfRange, match=r"^loads map to strains whose Q\(u, v\) is not finite"):
                sheared_tensile_state(params, 1.0, grid_h=0.1)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 100.0])
    def test_float_and_any_array_give_the_same_bits(self, p):
        # each thrust is frozen once it converges, and N = inf from the start,
        # so its angle cannot depend on the thrusts that share its array,
        # their number or their order
        params = MaterialParams(0.8, 1.3, 1.0, 0.7, 1.9, 0.3, p)
        branch = _branch(params)
        thrusts = np.concatenate([
            branch.thresh * np.concatenate([1.0 + np.geomspace(1e-12, 1.0, 7), np.geomspace(3.0, 1e200, 9)]),
            [math.inf, math.nextafter(branch.thresh, math.inf)],
        ])
        want = [sheared_angle(params, thrust) for thrust in thrusts.tolist()]
        rng = np.random.default_rng(71)
        for picked in (np.arange(len(thrusts)), rng.permutation(len(thrusts)), rng.choice(len(thrusts), 5),
                       np.repeat(np.arange(3), 4)):
            assert sweep_angles(branch, thrusts[picked]) == [want[i] for i in picked]
        for i, thrust in enumerate(thrusts.tolist()):
            assert sweep_angles(branch, [thrust]) == [want[i]]

    def test_empty(self, demo_params):
        # a sweep that lies wholly below the threshold
        assert _reduced_root(_branch(demo_params), np.array([])).shape == (0,)
        points, _ = branch_sweep(demo_params, 0.0, 1.0, 5)
        assert [pt.branch for pt in points] == ["trivial"] * 5

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.0])
    @pytest.mark.parametrize("base", [(1.0, 1.0, 1.0, 1.0, 2.0, 0.3), (0.8, 1.3, 1.0, 0.5, 1.9, 0.0)],
                             ids=["chiral", "achiral"])
    def test_infinite_thrust_keeps_the_limit_angle(self, base, p):
        # the second set's Newton steps once moved the limit by an ulp
        params = MaterialParams(*base, p)
        branch = _branch(params)
        assert sheared_angle(params, math.inf) == sheared_angle_limit(params)
        assert sweep_angles(branch, [math.inf]) == [sheared_angle(params, math.inf)]


REDUCED_EXPONENTS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 12.0, 100.0]


def reduced_grid_thrusts(thresh):
    """Thrusts from N_c (1 + 1e-12) to 1e300, and inf."""
    near = thresh * (1.0 + np.geomspace(1e-12, 1e-2, 6))
    return np.concatenate([near, np.geomspace(1.1 * thresh, 1e300, 10), [math.inf]]).tolist()


class TestReducedEquation:
    """The Newton root of the reduced branch equation against 50-digit
    mpmath, and the saturating-factor identity it stands for."""

    @pytest.mark.parametrize("iota", [0.0, 0.3])
    @pytest.mark.parametrize("p", REDUCED_EXPONENTS)
    def test_cos_matches_mpmath(self, p, iota):
        params = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, iota, p)
        thrusts = reduced_grid_thrusts(shear_threshold(params))
        got = _reduced_root(_branch(params), np.array(thrusts))
        for thrust, x in zip(thrusts, got):
            assert abs(x - oracle.sheared_cos(params, thrust)) <= 1e-15, thrust

    @pytest.mark.parametrize("iota", [0.0, 0.3])
    @pytest.mark.parametrize("p", REDUCED_EXPONENTS)
    def test_factor_identity(self, p, iota):
        # criterion 7's form: F at the branch loads N (-sin(theta), 0, cos(theta))
        # equals det k/(beta^2 N cos(theta)), F from the library's shear_factors
        params = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, iota, p)
        det, k = params.twist_stretch_det, _branch(params).k
        for thrust in reduced_grid_thrusts(shear_threshold(params))[:-1]:
            theta = sheared_angle(params, thrust)
            loads = Loads(0.0, 0.0, 0.0, -thrust * math.sin(theta), 0.0, thrust * math.cos(theta))
            f = shear_factors(params, loads)[1] * params.zeta**2
            assert abs(f * params.beta**2 * thrust * math.cos(theta) / (det * k) - 1.0) <= 1e-13, thrust


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
        # 1.4e-4 in the forward map, whose saturated strains it rescales.
        # Demo at p = 4 from N = 1e4 and at p = 2 from 1e8: Q of the closed
        # form is within the margin of 1, and rounded to 1 + 2.2e-16 at p = 4,
        # which the inverse map refused; the shear amplitude alone is projected
        wide = MaterialParams(1, 1, 1, 1, 1e5, 0, 2)
        quartic = dataclasses.replace(demo_params, p=4.0)
        for params, k in ((demo_params, 1 / 3), (wide, 1 / (1e10 - 1)), (quartic, 1 / 3)):
            for thrust in (1.8, 2.0, 5.0, 100.0, 1e4, 1e5, 1e6, 1e8):
                state = sheared_tensile_state(params, thrust, grid_h=0.01)
                st = state.descriptor["strains"]
                assert st["v3"] - 1 == pytest.approx(k, abs=1e-12)
                assert st["u3"] == 0.0
                assert state.descriptor["identity_residual"] < 1e-12
                strains = Strains(0.0, 0.0, st["u3"], -st["v_shear_amplitude"], 0.0, st["v3"])
                assert strain_quad_form(params, strains) <= 1.0 - _constants(params).margin
                loads_from_strains(params, strains)

    def test_dilatation_alone_within_the_margin_of_the_limit(self):
        # eta 1e-15 above the golden ratio: Q of the dilatation alone, r^2,
        # lies within two margins of 1, so no shear amplitude reaches the
        # projection's Q = 1 - 2 margin; it projects to 0, not to the square
        # root of a negative number
        params = MaterialParams(1, 1, 1, 1, (1 + math.sqrt(5)) / 2 + 1e-15, 0, 2)
        thresh = shear_threshold(params)
        for thrust in (2.0 * thresh, 1e300):
            st = sheared_tensile_state(params, thrust, grid_h=0.1).descriptor["strains"]
            strains = Strains(0.0, 0.0, st["u3"], -st["v_shear_amplitude"], 0.0, st["v3"])
            assert strain_quad_form(params, strains) < 1.0
            loads_from_strains(params, strains)

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


class TestBranchEnergy:
    """H = W*(m, n) + n3 of the director loads is the first integral whose
    negative is the potential energy per unit length under a dead end
    thrust. At N = N_c (1 + eps) the sheared branch has the larger H, so the
    lower energy, by a gap of order eps^2: a supercritical pitchfork. The
    gap keeps about 1e-16 H / eps^2 of relative accuracy, so eps stops at
    1e-4."""

    EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)

    @staticmethod
    def first_integral(params, state):
        loads = Loads.from_array(state.descriptor["loads0"])
        return complementary_energy(params, loads) + loads.n3

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.0])
    @pytest.mark.parametrize("iota", [0.0, 0.3, -0.5])
    def test_sheared_branch_lies_lower_by_order_eps_squared(self, demo_params, iota, p):
        params = dataclasses.replace(demo_params, iota=iota, p=p)
        thresh = shear_threshold(params)
        ratios = []
        for eps in self.EPSILONS:
            thrust = thresh * (1.0 + eps)
            gap = (self.first_integral(params, sheared_tensile_state(params, thrust, grid_h=0.1))
                   - self.first_integral(params, trivial_tensile_state(params, thrust, grid_h=0.1)))
            assert gap > 0.0, eps
            ratios.append(gap / eps**2)
        # gap / eps^2 settles: each step is smaller than the one before
        steps = np.abs(np.diff(ratios))
        assert (steps[1:] < steps[:-1]).all(), ratios


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


class TestBranchPointValue:
    """BranchPoint is a five-field tuple that equals only its own type and
    checks its branch and theta however it is made."""

    VALUES = (2.0, 0.4, Strains.reference(), Loads.zero(), "sheared")

    def test_equal_only_to_own_type(self):
        pt = BranchPoint(*self.VALUES)
        assert pt == BranchPoint(*self.VALUES) and not pt != BranchPoint(*self.VALUES)
        assert pt != self.VALUES and self.VALUES != pt and not pt == self.VALUES
        assert pt != pt._replace(N=3.0)

    def test_equal_instances_hash_equal(self):
        assert hash(BranchPoint(*self.VALUES)) == hash(BranchPoint(*self.VALUES)) == hash(self.VALUES)
        assert len({BranchPoint(*self.VALUES), BranchPoint(*self.VALUES), self.VALUES}) == 2

    def test_immutable_and_in_field_order(self):
        pt = BranchPoint(*self.VALUES)
        for name in BranchPoint._fields:
            with pytest.raises(AttributeError):
                setattr(pt, name, 0.5)
        assert BranchPoint._fields == ("N", "theta", "strains", "loads", "branch")
        assert tuple(pt) == self.VALUES and pt._asdict() == dict(zip(BranchPoint._fields, self.VALUES))
        assert BranchPoint(**pt._asdict()) == pt
        assert repr(pt) == (
            "BranchPoint(N=2.0, theta=0.4, strains=Strains(u1=0.0, u2=0.0, u3=0.0, v1=0.0, v2=0.0, v3=1.0), "
            "loads=Loads(m1=0.0, m2=0.0, m3=0.0, n1=0.0, n2=0.0, n3=0.0), branch='sheared')"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_every_protocol_and_copy(self, protocol):
        pt = BranchPoint(*self.VALUES)
        for back in (pickle.loads(pickle.dumps(pt, protocol)), copy.copy(pt), copy.deepcopy(pt)):
            assert type(back) is BranchPoint and back == pt

    @pytest.mark.parametrize("theta, branch, message", [
        (0.0, "sheared", r"need theta in \(0, pi/2\)"),
        (math.pi / 2, "sheared", r"need theta in \(0, pi/2\)"),
        (math.nan, "sheared", r"need theta in \(0, pi/2\)"),
        (0.4, "trivial", "^trivial branch points have theta = 0$"),
        (math.nan, "trivial", "^trivial branch points have theta = 0$"),
        (0.0, "twisted", "^unknown branch 'twisted'$"),
    ])
    def test_checked_on_every_path(self, theta, branch, message):
        good = BranchPoint(*self.VALUES)
        bad = tuple.__new__(BranchPoint, (2.0, theta, *self.VALUES[2:4], branch))  # skips the check
        paths = [
            lambda: BranchPoint(2.0, theta, *self.VALUES[2:4], branch),
            lambda: BranchPoint(N=2.0, theta=theta, strains=self.VALUES[2], loads=self.VALUES[3], branch=branch),
            lambda: BranchPoint._make([2.0, theta, *self.VALUES[2:4], branch]),
            lambda: good._replace(theta=theta, branch=branch),
            *(lambda proto=proto: pickle.loads(pickle.dumps(bad, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)),
            lambda: copy.copy(bad),
            lambda: copy.deepcopy(bad),
        ]
        for make in paths:
            with pytest.raises(ValueError, match=message):
                make()

    def test_make_and_replace_keep_their_contract(self):
        assert BranchPoint._make(iter(self.VALUES)) == BranchPoint(*self.VALUES)
        trivial = BranchPoint(*self.VALUES)._replace(theta=0.0, branch="trivial")
        assert trivial == BranchPoint(2.0, 0.0, *self.VALUES[2:4], "trivial")
        with pytest.raises(ValueError, match="unexpected field names"):
            BranchPoint(*self.VALUES)._replace(psi=1.0)


class TestBranchSweep:
    # the second grid repeats each of its 8 thrusts, all above the
    # threshold: a tied thrust lists its sheared rows, then its trivial ones
    @pytest.mark.parametrize("n_min, n_max, count, distinct", [
        (0.0, 3.0, 7, 7), (1e300, 1e300 * (1 + 1e-15), 601, 8),
    ])
    def test_rows_and_ordering(self, demo_params, n_min, n_max, count, distinct):
        points, thresh = branch_sweep(demo_params, n_min, n_max, count)
        assert not isinstance(thresh, NoBifurcation)
        trivial = [pt for pt in points if pt.branch == "trivial"]
        sheared = [pt for pt in points if pt.branch == "sheared"]
        assert len(trivial) == count and len({pt.N for pt in trivial}) == distinct
        assert all(pt.N > thresh for pt in sheared)
        assert points == sorted(points, key=lambda pt: (pt.N, pt.branch))
        states = {n: sheared_tensile_state(demo_params, n, grid_h=0.1).descriptor for n in {pt.N for pt in sheared}}
        for pt in sheared:
            state = states[pt.N]
            assert state["theta"] == pt.theta and state["loads0"][3::2] == [pt.loads.n1, pt.loads.n3]
            assert state["strains"] == {"u3": pt.strains.u3, "v3": pt.strains.v3, "v_shear_amplitude": -pt.strains.v1}

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

    def test_trivial_rows_equal_the_batch_map(self, demo_params):
        # one batch call on the (0, 0, 0, 0, 0, N) rows, bit for bit; the
        # scalar map's powers round differently, by a few ulps
        chiral = MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.3, 1.5)
        for params in (demo_params, chiral):
            points, _ = branch_sweep(params, -1e6, 1e6, 61)
            trivial = [pt for pt in points if pt.branch == "trivial"]
            got = np.array([pt.strains for pt in trivial])
            assert got.tolist() == strains_from_loads_batch(params, np.array([pt.loads for pt in trivial])).tolist()
            want = np.array([strains_from_loads(params, pt.loads) for pt in trivial])
            np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)

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
