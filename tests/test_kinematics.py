import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limrod import (
    AngleOutOfRange,
    Configuration,
    EulerAngles,
    Frame,
    LoadOutOfRange,
    Loads,
    MaterialParams,
    NonOrthonormalFrame,
    Strains,
    darboux_components,
    directors_from_euler,
    frame_loads,
    helical_state,
    pure_twist_state,
    read_configuration_csv,
    reconstruct,
    shear_factors,
    sheared_tensile_state,
    strains_from_euler,
    strains_from_loads,
    trivial_tensile_state,
    write_configuration_csv,
)
from limrod.kinematics import (
    CSV_HEADER,
    _CSV_CHUNK,
    _euler_directors,
    _gauss_samples,
    _magnus_generators,
    _se3_exp,
)

from conftest import MALFORMED_CSV_KINDS, malformed_csv_variants

G1, G2, G3 = np.eye(3)


def reference_directors(phi, theta, psi) -> np.ndarray:
    """The per-sample Euler -> directors chart, one scalar frame at a time."""
    frames = []
    for ph, ps in zip(phi, psi):
        sphi, cphi = math.sin(ph), math.cos(ph)
        sth, cth = math.sin(theta), math.cos(theta)
        spsi, cpsi = math.sin(ps), math.cos(ps)
        d3 = np.array([sth * cphi, sth * sphi, cth])
        e2 = np.array([-sphi, cphi, 0.0])
        e1 = np.array([cth * cphi, cth * sphi, -sth])
        frames.append(np.vstack([cpsi * e1 + spsi * e2, -spsi * e1 + cpsi * e2, d3]))
    return np.stack(frames)


def bit_equal(a, b) -> bool:
    """Equal bit for bit, so -0.0 differs from 0.0 (the CSV prints "-0")."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_csv(config) -> bytes:
    """Configuration CSV bytes written one f-string at a time."""
    lines = [CSV_HEADER]
    for i in range(len(config.s)):
        row = [config.s[i], *config.points[i], *config.directors[i].ravel()]
        lines.append(",".join(f"{x:.17g}" for x in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def signed_zero_config(n: int) -> Configuration:
    """Columns that a writer comparing values rather than bits gets wrong:
    rx all -0.0; ry, d2x and d3y alternating 0.0 and -0.0; rz and the
    d1/d2 components constant but in the last row."""
    zeros = np.where(np.arange(n) % 2 == 1, -0.0, 0.0)
    turn = zeros.copy()
    turn[-1] = 0.3
    rz = np.full(n, 0.1)
    rz[-1] = 5e-324
    points = np.stack([np.full(n, -0.0), zeros, rz], axis=1)
    dirs = _euler_directors(turn, 0.0, np.zeros(n))
    return Configuration(s=np.linspace(0.0, 1.0, n), points=points, directors=dirs)


angles = st.floats(-1e4, 1e4, allow_nan=False)
thetas = st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi]), st.floats(0.0, math.pi))


class TestDirectorsFromEuler:
    def test_identity_frame(self):
        f = directors_from_euler(EulerAngles(0.0, 0.0, 0.0))
        np.testing.assert_allclose(f.matrix(), np.eye(3), atol=1e-15)

    def test_quarter_turn(self):
        f = directors_from_euler(EulerAngles(0.0, math.pi / 2, 0.0))
        np.testing.assert_allclose(f.d3, G1, atol=1e-15)
        np.testing.assert_allclose(f.d1, -G3, atol=1e-15)
        np.testing.assert_allclose(f.d2, G2, atol=1e-15)

    def test_tilted_family(self):
        # phi = 0: d3 = sin(theta) g1 + cos(theta) g3 and d1, d2 rotate by psi
        theta, psi = 0.7, 1.3
        f = directors_from_euler(EulerAngles(0.0, theta, psi))
        np.testing.assert_allclose(
            f.d3, [math.sin(theta), 0.0, math.cos(theta)], atol=1e-15
        )
        expected_d1 = [
            math.cos(theta) * math.cos(psi),
            math.sin(psi),
            -math.sin(theta) * math.cos(psi),
        ]
        expected_d2 = [
            -math.cos(theta) * math.sin(psi),
            math.cos(psi),
            math.sin(theta) * math.sin(psi),
        ]
        np.testing.assert_allclose(f.d1, expected_d1, atol=1e-15)
        np.testing.assert_allclose(f.d2, expected_d2, atol=1e-15)

    def test_orthonormal_for_random_angles(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            f = directors_from_euler(
                EulerAngles(rng.uniform(-10, 10), rng.uniform(0, math.pi), rng.uniform(-10, 10))
            )
            m = f.matrix()
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
            assert np.abs(np.cross(f.d1, f.d2) - f.d3).max() < 1e-12

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            EulerAngles(0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            EulerAngles(0.0, 3.2, 0.0)

    def test_frame_rejects_nonorthonormal(self):
        with pytest.raises(NonOrthonormalFrame):
            Frame(d1=np.array([1.0, 0, 0]), d2=np.array([1.0, 0, 0]), d3=np.array([0, 0, 1.0]))
        with pytest.raises(NonOrthonormalFrame):
            # left-handed
            Frame(d1=G1, d2=G2, d3=-G3)


class TestEulerKernel:
    """The array chart against the per-sample loop, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(angles, angles), min_size=1, max_size=40), thetas)
    def test_array_kernel_matches_loop(self, pairs, theta):
        phi, psi = (np.array(v) for v in zip(*pairs))
        assert bit_equal(_euler_directors(phi, theta, psi), reference_directors(phi, theta, psi))

    @settings(max_examples=200, deadline=None)
    @given(angles, thetas, angles)
    def test_frame_wrapper_matches_loop(self, phi, theta, psi):
        frame = directors_from_euler(EulerAngles(phi, theta, psi))
        assert bit_equal(frame.matrix(), reference_directors([phi], theta, [psi])[0])

    def test_signed_zeros_kept(self):
        # theta = 0 and phi = 0 give -0.0 entries that the CSV prints as "-0"
        out = _euler_directors(np.zeros(3), 0.0, np.array([0.0, 2.0, -2.0]))
        assert np.signbit(out).any()
        assert bit_equal(out, reference_directors(np.zeros(3), 0.0, [0.0, 2.0, -2.0]))

    @pytest.mark.parametrize("theta", [-0.1, 3.2, math.nan])
    def test_theta_range_enforced(self, theta):
        with pytest.raises(ValueError, match="theta must lie in"):
            _euler_directors(np.zeros(2), theta, np.zeros(2))

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.7, -2.5])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi])
    def test_constant_arrays_match_loop(self, value, theta):
        # one libm call for a constant array: the test is on bits, so -0.0
        # keeps sin(-0.0) = -0.0 and a +0.0/-0.0 mix is not constant
        n = 5
        const = np.full(n, value)
        mixed = np.where(np.arange(n) % 2 == 1, -value, value)
        for phi, psi in ((const, const), (const, mixed), (mixed, const), (mixed, mixed)):
            assert bit_equal(_euler_directors(phi, theta, psi), reference_directors(phi, theta, psi))

    @pytest.mark.parametrize("name, angles", [
        ("phi", EulerAngles(math.nan, 0.3, 0.0)),
        ("psi", EulerAngles(0.0, 0.5, math.nan)),
        ("phi", EulerAngles(math.inf, 0.3, 0.0)),
        ("psi", EulerAngles(0.0, 0.3, -math.inf)),
    ])
    def test_nonfinite_phase_names_the_angle(self, name, angles):
        # NaN once failed as NonOrthonormalFrame and inf as libm's "math
        # domain error", neither naming the angle
        with pytest.raises(AngleOutOfRange, match=f"^angle {name} must be finite"):
            directors_from_euler(angles)

    def test_nan_angles_fail_validation(self):
        dirs = _euler_directors(np.zeros(3), 0.5, np.array([0.0, math.nan, 0.0]))
        with pytest.raises(NonOrthonormalFrame):
            Configuration(s=np.linspace(0, 1, 3), points=np.zeros((3, 3)), directors=dirs)
        with pytest.raises(NonOrthonormalFrame):
            darboux_components(dirs, 0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: Frame(d1=np.zeros(2), d2=G2, d3=G3), "^d1 must be a 3-vector$"),
    (lambda: Frame(d1=G1, d2=G2, d3=np.eye(3)), "^d3 must be a 3-vector$"),
    (lambda: darboux_components(np.tile(np.eye(3), (2, 1, 1)), 0.5), "^need at least three frame"),
    (lambda: darboux_components(np.zeros((4, 3, 2)), 0.5), "^need at least three frame"),
    (lambda: darboux_components(np.zeros((4, 9)), 0.5), "^need at least three frame"),
])
def test_malformed_frames_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestDarboux:
    def test_constant_frame(self):
        frames = np.tile(np.eye(3), (9, 1, 1))
        u = darboux_components(frames, h=0.125)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)

    def test_uniform_twist_rate(self):
        omega = 2.4
        errs = []
        for h in (1e-2, 5e-3):
            s = np.arange(0.0, 1.0 + h / 2, h)
            frames = np.stack(
                [directors_from_euler(EulerAngles(0.0, 0.0, omega * si)).matrix() for si in s]
            )
            u = darboux_components(frames, h)
            errs.append(np.abs(u - [0.0, 0.0, omega]).max())
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] > 3.3  # second order

    def test_nonorthonormal_rejected(self):
        frames = np.tile(np.eye(3), (5, 1, 1))
        frames[2, 0, 0] = 1.1
        with pytest.raises(NonOrthonormalFrame):
            darboux_components(frames, 0.25)

    def test_matches_euler_strain_relations_along_path(self):
        # smooth angle path: darboux components agree with the closed-form
        # strain-angle relations to O(h^2)
        def angles(s):
            return 0.7 * s, 0.9 + 0.3 * math.sin(s), 1.2 * s + 0.1

        def rates(s):
            return 0.7, 0.3 * math.cos(s), 1.2

        errs = []
        for h in (2e-3, 1e-3):
            s = np.arange(0.0, 1.0 + h / 2, h)
            frames = np.stack(
                [directors_from_euler(EulerAngles(*angles(si))).matrix() for si in s]
            )
            u = darboux_components(frames, h)
            worst = 0.0
            for i in range(1, len(s) - 1):
                st = strains_from_euler(
                    EulerAngles(*angles(s[i])), rates(s[i]), (0.0, 0.0, 1.0)
                )
                worst = max(worst, np.abs(u[i] - [st.u1, st.u2, st.u3]).max())
            errs.append(worst)
        assert errs[0] < 1e-4
        assert errs[0] / errs[1] > 3.3


class TestStrainsFromEuler:
    def test_static_angles(self):
        st = strains_from_euler(EulerAngles(0.3, 0.8, -0.2), (0, 0, 0), (0, 0, 1))
        assert (st.u1, st.u2, st.u3) == (0.0, 0.0, 0.0)

    def test_pure_twist_rate(self):
        st = strains_from_euler(EulerAngles(0.0, 0.0, 0.0), (0, 0, 2.5), (0, 0, 1))
        assert (st.u1, st.u2, st.u3) == (0.0, 0.0, 2.5)

    def test_equatorial_precession(self):
        st = strains_from_euler(EulerAngles(0.0, math.pi / 2, 0.0), (1.5, 0, 0), (0, 0, 1))
        assert st.u1 == pytest.approx(-1.5, rel=1e-15)
        assert st.u2 == pytest.approx(0.0, abs=1e-15)
        assert st.u3 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("what, angles, rates", [
        ("angle psi", EulerAngles(0.0, 0.3, math.nan), (0.1, 0.0, 0.2)),
        ("angle psi", EulerAngles(0.0, 0.3, math.inf), (0.1, 0.0, 0.2)),
        ("angle rate dphi", EulerAngles(0.0, 0.3, 0.1), (math.nan, 0.0, 0.2)),
        ("angle rate dphi", EulerAngles(0.0, 0.0, 0.1), (math.inf, 0.0, 0.2)),
        ("angle rate dtheta", EulerAngles(0.0, 0.3, 0.0), (0.1, -math.inf, 0.2)),
        ("angle rate dpsi", EulerAngles(0.0, 0.3, 0.1), (0.1, 0.0, math.nan)),
    ])
    def test_nonfinite_input_names_it(self, what, angles, rates):
        # NaN strains came back without a warning, and libm's "math domain
        # error" for an infinite psi
        with pytest.raises(AngleOutOfRange, match=f"^{what} must be finite"):
            strains_from_euler(angles, rates, (0.0, 0.0, 1.01))

    def test_overflowing_rates_raise(self):
        # finite rates whose products overflow gave u3 = inf without an error
        with pytest.raises(AngleOutOfRange, match=r"^at angle rates \(1e\+308, 1e\+308, 1e\+308\), strain u3 must be finite, got inf"):
            strains_from_euler(EulerAngles(0.0, 0.3, 0.1), (1e308, 1e308, 1e308), (0.0, 0.0, 1.01))
        # strains that only sum beyond the float range are finite, and stay
        st = strains_from_euler(EulerAngles(0.0, 0.0, 0.0), (0.0, 1e308, 1e308), (0.0, 0.0, 1.01))
        assert (st.u2, st.u3) == (1e308, 1e308)


class TestFrameLoads:
    def test_zero_psi_passthrough(self):
        fl = frame_loads(Loads(1, 2, 3, 0, 0, 0), EulerAngles(0, 0.4, 0.0), thrust=0.0)
        assert (fl.M1, fl.M2, fl.M3) == (1.0, 2.0, 3.0)

    def test_quarter_psi_rotation(self):
        fl = frame_loads(Loads(1, 0, 0, 0, 0, 0), EulerAngles(0, 0.4, math.pi / 2), thrust=0.0)
        assert fl.M1 == pytest.approx(0.0, abs=1e-15)
        assert fl.M2 == pytest.approx(1.0, rel=1e-15)

    def test_thrust_components(self):
        fl = frame_loads(Loads.zero(), EulerAngles(0, math.pi / 3, 0.0), thrust=2.0)
        assert fl.N1 == pytest.approx(-math.sqrt(3), rel=1e-15)
        assert fl.N2 == 0.0
        assert fl.N3 == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("psi", [math.nan, math.inf, -math.inf])
    def test_nonfinite_psi_names_it(self, psi):
        with pytest.raises(AngleOutOfRange, match="^angle psi must be finite"):
            frame_loads(Loads(0.3, 0, 0.2, 0, 0, 0), EulerAngles(0.0, 0.3, psi), 2.0)

    def test_nonfinite_loads_pass_through(self):
        # reduced_residual checks those
        fl = frame_loads(Loads(math.nan, 0, 0.2, 0, 0, 0), EulerAngles(0.0, 0.3, 0.1), math.inf)
        assert math.isnan(fl.M1) and fl.N == math.inf


class TestShearFactors:
    def test_unloaded_unit_constants(self):
        u_fac, v_fac = shear_factors(
            MaterialParams(1, 1, 1, 1, 1, 0, 2), Loads.zero()
        )
        assert (u_fac, v_fac) == (1.0, 1.0)

    def test_known_form_value(self):
        # Q* = 3 with alpha = 1, zeta = 2 -> (1/2, 1/8)
        params = MaterialParams(alpha=1, beta=1, gamma=1, zeta=2, eta=1, iota=0, p=2)
        u_fac, v_fac = shear_factors(params, Loads(0, 0, 0, 0, 0, math.sqrt(3)))
        assert u_fac == pytest.approx(0.5, rel=1e-14)
        assert v_fac == pytest.approx(0.125, rel=1e-14)

    def test_consistent_with_forward_map(self):
        # scales from 1e160 up make Q* overflow (inf, or inf - inf = NaN
        # for a chiral set), while the forward map and sqrt(Q*) stay finite
        from conftest import random_params

        rng = np.random.default_rng(41)
        for _ in range(100):
            params = random_params(rng)
            base = rng.standard_normal(6)
            for scale in (1.0, 1e160, 1e200, 1e300):
                loads = Loads(*(base * scale).tolist())
                u_fac, v_fac = shear_factors(params, loads)
                st = strains_from_loads(params, loads)
                assert u_fac * loads.m1 == pytest.approx(st.u1, rel=1e-12, abs=1e-15)
                assert v_fac * loads.n2 == pytest.approx(st.v2, rel=1e-12, abs=1e-15)

    def test_where_qstar_overflows(self):
        demo = MaterialParams(alpha=1, beta=1, gamma=1, zeta=1, eta=2, iota=0, p=2)
        # Q* = n3^2 beta^2/det = 1e400/4, so F = 1/sqrt(Q*) = 2e-200
        for factor in shear_factors(demo, Loads(0, 0, 0, 0, 0, 1e200)):
            assert factor == pytest.approx(2e-200, rel=1e-15)
        # Q* = 2.5e199 is finite, Q*^{p/2} is not
        p4 = MaterialParams(alpha=1, beta=1, gamma=1, zeta=1, eta=2, iota=0, p=4)
        for factor in shear_factors(p4, Loads(0, 0, 0, 0, 0, 1e100)):
            assert factor == pytest.approx(2e-100, rel=1e-15)
        # chiral: eta^2 m3^2 + n3^2 - 2 iota m3 n3 is inf - inf in floats
        chiral = MaterialParams(alpha=1, beta=1, gamma=1, zeta=1, eta=2, iota=0.5, p=2)
        with mpmath.workdps(30):
            x = mpmath.mpf(1e200)
            qstar = (4 * x**2 + x**2 - 2 * 0.5 * x * x) / (4 - mpmath.mpf(0.5) ** 2)
            f = (1 + qstar) ** -0.5
        for factor in shear_factors(chiral, Loads(0, 0, 1e200, 0, 0, 1e200)):
            assert factor == pytest.approx(float(f), rel=1e-14)


    @pytest.mark.parametrize("loads", [
        Loads.from_array([math.nan, 0, 0, 0, 0, 1]),
        Loads.from_array([0, 0, 0, 0, 0, math.inf]),
        Loads.from_array([0, 0, -math.inf, 0, 0, 1]),
    ])
    def test_nonfinite_loads_raise(self, loads):
        # these once returned (nan, nan), silently
        params = MaterialParams(1, 1, 1, 1, 2, 0, 2)
        with pytest.raises(LoadOutOfRange, match=rf"^loads are not all finite: {re.escape(str(loads))}$"):
            shear_factors(params, loads)


class TestReconstruct:
    def straight(self, s):
        return Strains.reference()

    def test_straight_rod(self):
        cfg = reconstruct(self.straight, np.zeros(3), Frame(G1, G2, G3), grid_h=0.01)
        np.testing.assert_allclose(cfg.points[:, 2], cfg.s, atol=1e-13)
        np.testing.assert_allclose(cfg.points[:, :2], 0.0, atol=1e-13)
        np.testing.assert_allclose(cfg.directors[-1], np.eye(3), atol=1e-13)

    def test_uniform_twist_analytic(self):
        c = 3.1

        def field(s):
            return Strains(0, 0, c, 0, 0, 1)

        # a constant field has a constant Magnus generator: exact steps
        for h in (0.02, 0.01):
            cfg = reconstruct(field, np.zeros(3), Frame(G1, G2, G3), grid_h=h)
            worst = 0.0
            for i, si in enumerate(cfg.s):
                expected = directors_from_euler(EulerAngles(0.0, 0.0, c * si)).matrix()
                worst = max(worst, np.abs(cfg.directors[i] - expected).max())
            np.testing.assert_allclose(cfg.points[-1], [0, 0, 1], atol=1e-12)
            assert worst <= 1e-13

    def test_fourth_order_on_varying_field(self):
        def field(s):
            return Strains(
                0.5 * math.sin(3 * s), 0.4 * math.cos(2 * s), 0.8, 0.05, -0.02, 1.1
            )

        start = Frame(G1, G2, G3)
        ref = reconstruct(field, np.zeros(3), start, grid_h=1.0 / 1280)
        errs = []
        for n in (20, 40):
            cfg = reconstruct(field, np.zeros(3), start, grid_h=1.0 / n)
            k = 1280 // n
            errs.append(max(np.abs(cfg.points - ref.points[::k]).max(),
                            np.abs(cfg.directors - ref.directors[::k]).max()))
        assert errs[0] < 1e-7
        assert errs[0] / errs[1] > 11.0  # fourth order

    def test_helical_state_rebuilt_exactly(self):
        # an achiral rod with eta^2 = det/alpha^2 has psi' = 0 (to rounding),
        # so its helix has constant strains: exact even at h = 0.1
        state = helical_state(
            MaterialParams(1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 2.0), 1.2, theta=0.9, grid_h=0.1
        )
        d = state.descriptor
        amp, u3, v3 = (d["strains"][k] for k in ("u_flexure_amplitude", "u3", "v3"))

        def field(s):
            psi = d["psi_rate"] * s
            return Strains(amp * math.cos(psi), -amp * math.sin(psi), u3, 0.0, 0.0, v3)

        cfg = state.configuration
        rebuilt = reconstruct(field, cfg.points[0], cfg.frame(0), grid_h=0.1)
        assert np.abs(rebuilt.points - cfg.points).max() <= 1e-13
        assert np.abs(rebuilt.directors - cfg.directors).max() <= 1e-13

    @staticmethod
    def serial_reconstruct(field, start_point, start_frame, n):
        """The same Magnus steps, composed one at a time: R_{i+1} = R_i E_i."""
        dirs = np.empty((n + 1, 3, 3))
        dirs[0] = start_frame.matrix()
        s_grid = np.linspace(0.0, 1.0, n + 1)
        vt = _se3_exp(*_magnus_generators(_gauss_samples(field, s_grid)), out=dirs[1:])
        points = np.empty((n + 1, 3))
        points[0] = start_point
        for i in range(n):
            points[i + 1] = points[i] + vt[i] @ dirs[i]
            dirs[i + 1] = dirs[i + 1] @ dirs[i]
        return points, dirs

    @pytest.mark.parametrize("n", [2, 3, 7, 1000])
    def test_scan_matches_serial_product(self, n):
        def field(s):
            return Strains(0.3 + math.sin(3 * s), 2 * math.cos(s), 1.5 * s, 0.1 * s, -0.2,
                           1.0 + 0.05 * math.sin(5 * s))

        start = directors_from_euler(EulerAngles(0.4, 1.1, -0.7))
        cfg = reconstruct(field, [0.1, -0.2, 0.3], start, grid_h=1.0 / n)
        points, dirs = self.serial_reconstruct(field, [0.1, -0.2, 0.3], start, n)
        assert np.abs(cfg.points - points).max() <= 1e-13
        assert np.abs(cfg.directors - dirs).max() <= 1e-13

    @pytest.mark.parametrize("field", [
        Strains(0.0, 0.0, 3.1, 0.0, 0.0, 1.0),
        Strains(0.9, 0.0, 0.6, 0.0, 0.0, 1.05),
    ], ids=["twist", "helix"])
    def test_rounding_drift_after_1e4_steps(self, field):
        # a constant field turns the frame about u at the rate |u|; the
        # measured drift was 3.3e-13 (twist) and 3.9e-13 (helix) from the
        # exact frames, and 6.5e-13 and 8.7e-13 from orthonormality
        cfg = reconstruct(lambda s: field, np.zeros(3), Frame(G1, G2, G3), grid_h=1e-4)
        u = np.array([field.u1, field.u2, field.u3])
        rate = math.hypot(*u)
        k = np.cross(np.eye(3), u / rate)  # rows e_i x k: the matrix k^ of the unit axis
        exact = np.stack([np.eye(3) - math.sin(rate * s) * k + (1.0 - math.cos(rate * s)) * k @ k
                          for s in cfg.s.tolist()])
        gram = np.einsum("nij,nkj->nik", cfg.directors, cfg.directors)
        assert np.abs(cfg.directors - exact).max() <= 1e-12
        assert np.abs(gram - np.eye(3)).max() <= 2e-12

    def test_frames_stay_orthonormal(self):
        def field(s):
            return Strains(
                0.5 * math.sin(3 * s), 0.4 * math.cos(2 * s), 0.8, 0.05, -0.02, 1.1
            )

        cfg = reconstruct(field, np.zeros(3), Frame(G1, G2, G3), grid_h=1e-3)
        gram = np.einsum("nij,nkj->nik", cfg.directors, cfg.directors)
        assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_darboux_recovers_strain_field(self):
        def field(s):
            return Strains(
                0.6 * math.sin(2 * s), 0.3 * math.cos(s), 0.5 + 0.2 * s, 0.0, 0.0, 1.0
            )

        errs = []
        for h in (2e-3, 1e-3):
            cfg = reconstruct(field, np.zeros(3), Frame(G1, G2, G3), grid_h=h)
            u = darboux_components(cfg.directors, cfg.h)
            worst = 0.0
            for i in range(1, len(cfg.s) - 1):
                st = field(cfg.s[i])
                worst = max(worst, np.abs(u[i] - [st.u1, st.u2, st.u3]).max())
            errs.append(worst)
        assert errs[0] < 1e-5
        assert errs[0] / errs[1] > 3.3

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            reconstruct(self.straight, np.zeros(3), Frame(G1, G2, G3), grid_h=0.0)


class TestConfigurationCsv:
    def make_config(self):
        def field(s):
            return Strains(0.2, -0.1, 0.9, 0.01, 0.0, 1.05)

        return reconstruct(field, np.array([0.1, -0.2, 0.0]), Frame(G1, G2, G3), grid_h=0.05)

    def test_round_trip_is_exact(self, tmp_path):
        cfg = self.make_config()
        path = tmp_path / "cfg.csv"
        write_configuration_csv(cfg, path)
        back = read_configuration_csv(path)
        np.testing.assert_array_equal(back.s, cfg.s)
        np.testing.assert_array_equal(back.points, cfg.points)
        np.testing.assert_array_equal(back.directors, cfg.directors)

    def test_byte_stable(self, tmp_path):
        cfg = self.make_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_configuration_csv(cfg, a)
        write_configuration_csv(cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_inputs(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            read_configuration_csv(path)
        cfg = self.make_config()
        good = tmp_path / "good.csv"
        write_configuration_csv(cfg, good)
        truncated = tmp_path / "trunc.csv"
        lines = good.read_text().splitlines()
        truncated.write_text("\n".join(lines[:3])[:-7] + "\n")
        with pytest.raises(ValueError):
            read_configuration_csv(truncated)

    def make_wide_config(self, n=2 * _CSV_CHUNK + 7):
        rng = np.random.default_rng(3)
        s = np.linspace(0.0, 1.0, n)
        points = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-300, 300, (n, 3))
        points[:6, 0] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2.2250738585072014e-308]
        points[_CSV_CHUNK - 1 : _CSV_CHUNK + 1] = -0.0
        dirs = _euler_directors(rng.uniform(-7, 7, n), 0.0, rng.uniform(-7, 7, n))
        return Configuration(s=s, points=points, directors=dirs)

    def test_writer_matches_reference_bytes(self, tmp_path):
        # 17-digit values, signed zeros, the subnormal minimum and the float
        # maximum, across chunk boundaries
        cfg = self.make_wide_config()
        path = tmp_path / "wide.csv"
        write_configuration_csv(cfg, path)
        assert path.read_bytes() == reference_csv(cfg)
        assert b",-0," in path.read_bytes()

    @pytest.mark.parametrize("n", [2, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1])
    def test_constant_columns_match_reference_bytes(self, tmp_path, n):
        # constant columns are formatted once, into the row template
        cfg = signed_zero_config(n)
        path = tmp_path / "zeros.csv"
        write_configuration_csv(cfg, path)
        data = path.read_bytes()
        assert data == reference_csv(cfg)
        rows = [line.split(b",") for line in data.splitlines()[1:]]
        assert [row[1] for row in rows] == [b"-0"] * n
        assert [row[2] for row in rows[:2]] == [b"0", b"-0"]

    @pytest.mark.parametrize("build", [
        lambda p: trivial_tensile_state(p, 2.0, psi0=0.7, grid_h=0.05),
        lambda p: sheared_tensile_state(p, 2.0, psi0=0.7, grid_h=0.05),
        lambda p: pure_twist_state(p, 1.5, theta=0.3, psi0=0.7, grid_h=0.05),
        lambda p: helical_state(p, 1.5, theta=0.4, psi0=0.7, grid_h=0.05),
        lambda p: helical_state(p, 1.5, theta=0.5 * math.pi, psi0=0.7, grid_h=0.05),
        lambda p: trivial_tensile_state(p, -0.0, psi0=-0.0, grid_h=0.05),
    ], ids=["trivial", "sheared", "twist", "helix", "bend", "unloaded"])
    def test_family_states_match_reference_bytes(self, tmp_path, demo_params, build):
        cfg = build(demo_params).configuration
        path = tmp_path / "state.csv"
        write_configuration_csv(cfg, path)
        assert path.read_bytes() == reference_csv(cfg)

    def test_wide_round_trip_is_exact(self, tmp_path):
        cfg = self.make_wide_config()
        path = tmp_path / "wide.csv"
        write_configuration_csv(cfg, path)
        back = read_configuration_csv(path)
        for name in ("s", "points", "directors"):
            assert bit_equal(getattr(back, name), getattr(cfg, name))

    @pytest.mark.parametrize("kind", MALFORMED_CSV_KINDS)
    def test_reader_names_the_bad_line(self, tmp_path, kind):
        good = tmp_path / "good.csv"
        write_configuration_csv(self.make_config(), good)
        text, match = malformed_csv_variants(good.read_text())[kind]
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_configuration_csv(bad)

    @pytest.mark.parametrize(
        "edit",
        [lambda t: t + "\n\n", lambda t: t.replace("\n", "\r\n"), lambda t: t.rstrip("\n"),
         lambda t: "\n" + t],
        ids=["trailing blank lines", "crlf", "no final newline", "leading blank line"],
    )
    def test_reader_accepts_benign_layouts(self, tmp_path, edit):
        cfg = self.make_config()
        good = tmp_path / "good.csv"
        write_configuration_csv(cfg, good)
        odd = tmp_path / "odd.csv"
        odd.write_bytes(edit(good.read_text()).encode("utf-8"))
        back = read_configuration_csv(odd)
        assert np.array_equal(back.points, cfg.points)
        assert np.array_equal(back.directors, cfg.directors)

    @pytest.mark.parametrize("field", ["s", "points"])
    def test_configuration_rejects_non_finite_samples(self, field):
        arrays = {"s": np.linspace(0, 1, 4), "points": np.zeros((4, 3)),
                  "directors": np.tile(np.eye(3), (4, 1, 1))}
        arrays[field] = arrays[field].copy()
        arrays[field][2] = math.nan
        with pytest.raises(ValueError):
            Configuration(**arrays)

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ({"points": np.zeros((3, 3))}, "inconsistent sample array shapes"),
            ({"directors": np.tile(np.eye(3), (4, 1, 1))[:, :2]}, "inconsistent sample array shapes"),
            ({"s": np.zeros(1), "points": np.zeros((1, 3)), "directors": np.eye(3)[None]},
             "need at least two samples"),
            ({"s": np.array([0.0, 2.0, 1.0, 3.0]) / 3.0}, "arclength parameter must be strictly increasing"),
        ],
        ids=["points", "directors", "one sample", "s decreases"],
    )
    def test_configuration_rejects_malformed_samples(self, arrays, message):
        arrays = {"s": np.linspace(0, 1, 4), "points": np.zeros((4, 3)),
                  "directors": np.tile(np.eye(3), (4, 1, 1)), **arrays}
        with pytest.raises(ValueError, match=f"^{message}$"):
            Configuration(**arrays)

    def test_validation_catches_nonuniform_grid(self):
        s = np.array([0.0, 0.3, 1.0])
        pts = np.zeros((3, 3))
        dirs = np.tile(np.eye(3), (3, 1, 1))
        with pytest.raises(ValueError):
            Configuration(s=s, points=pts, directors=dirs)
