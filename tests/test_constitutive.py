import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate

import limrod
from limrod import (
    DefinitenessViolation,
    LoadOutOfRange,
    Loads,
    MaterialParams,
    StrainOutOfRange,
    Strains,
    complementary_energy,
    load_params,
    load_quad_form,
    loads_from_strains,
    loads_from_strains_batch,
    stored_energy,
    stored_energy_hessian,
    strain_bounds,
    strain_quad_form,
    strains_from_loads,
    strains_from_loads_batch,
    symmetry_transform,
)
from limrod.constitutive import (
    _BATCH_BLOCK,
    _EPS,
    _beta_cf,
    _beta_memo,
    _incomplete_beta,
    _load_form,
    _strain_form,
)
from limrod.material import _constants

from conftest import (
    P_GRID,
    load_form_matrix,
    random_loads,
    random_params,
    random_strains,
    strain_form_matrix,
)


def mk(alpha=1.0, beta=1.0, gamma=1.0, zeta=1.0, eta=1.0, iota=0.0, p=2.0):
    return MaterialParams(alpha, beta, gamma, zeta, eta, iota, p)


REF = Strains.reference()


class TestValueClasses:
    """Strains and Loads are six-field tuples that equal only their own type."""

    VALUES = (0.1, -0.0, 2.5, -3.0, 1e300, 1.0)

    def test_equal_only_to_own_type(self):
        st, ld = Strains(*self.VALUES), Loads(*self.VALUES)
        assert st == Strains(*self.VALUES) and ld == Loads(*self.VALUES)
        assert st != ld and not st == ld
        assert st != self.VALUES and self.VALUES != st and not self.VALUES == st
        assert ld != self.VALUES and not ld == self.VALUES

    def test_equal_instances_hash_equal(self):
        assert hash(Strains(*self.VALUES)) == hash(Strains(*self.VALUES))
        assert hash(Loads(*self.VALUES)) == hash(Loads(*self.VALUES))
        assert len({Strains(*self.VALUES), Strains(*self.VALUES), Loads(*self.VALUES)}) == 2

    @pytest.mark.parametrize("cls", [Strains, Loads])
    def test_immutable(self, cls):
        value = cls(*self.VALUES)
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], 7.0)
        assert value == cls(*self.VALUES)

    def test_unpacks_in_field_order(self):
        u1, u2, u3, v1, v2, v3 = Strains(*self.VALUES)
        assert (u1, u2, u3, v1, v2, v3) == self.VALUES
        m1, m2, m3, n1, n2, n3 = Loads(*self.VALUES)
        assert (m1, m2, m3, n1, n2, n3) == self.VALUES
        assert Strains._fields == ("u1", "u2", "u3", "v1", "v2", "v3")
        assert Loads._fields == ("m1", "m2", "m3", "n1", "n2", "n3")

    @pytest.mark.parametrize("values", [(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6.0), VALUES])
    def test_as_array_dtype(self, values):
        for cls in (Strains, Loads):
            got = cls(*values).as_array()
            assert got.dtype == np.array(list(values)).dtype and got.tolist() == list(values)

    def test_pickle_round_trip_and_repr(self):
        for value in (Strains(*self.VALUES), Loads(*self.VALUES)):
            back = pickle.loads(pickle.dumps(value))
            assert type(back) is type(value) and back == value
        assert repr(Strains(0.1, -0.0, 1e300, math.nan, -math.inf, 1)) == (
            "Strains(u1=0.1, u2=-0.0, u3=1e+300, v1=nan, v2=-inf, v3=1)"
        )
        assert repr(Loads.zero()) == "Loads(m1=0.0, m2=0.0, m3=0.0, n1=0.0, n2=0.0, n3=0.0)"


class TestQuadraticForms:
    def test_reference_is_zero(self):
        assert strain_quad_form(mk(eta=2.0, iota=0.5), REF) == 0.0

    def test_single_term(self):
        assert strain_quad_form(mk(), Strains(1, 0, 0, 0, 0, 1)) == 1.0

    def test_coupled_term(self):
        params = mk(eta=2.0, iota=1.0)
        q = strain_quad_form(params, Strains(0, 0, 1, 0, 0, 2))
        assert q == pytest.approx(7.0, rel=1e-15)  # 1 + 4 + 2

    def test_dual_zero(self):
        assert load_quad_form(mk(eta=2.0, iota=-1.0), Loads.zero()) == 0.0

    def test_dual_single_term(self):
        q = load_quad_form(mk(), Loads(0, 0, 0, 0, 0, math.sqrt(3)))
        assert q == pytest.approx(3.0, rel=1e-15)

    def test_dual_coupled_term(self):
        q = load_quad_form(mk(eta=2.0, iota=-1.0), Loads(0, 0, 1, 0, 0, 1))
        assert q == pytest.approx(7.0 / 3.0, rel=1e-15)  # (4 + 1 + 2)/3

    def test_forms_are_duals(self):
        # Q on the forward image equals Q* scaled by the squared factor:
        # the form matrices are mutual inverses.
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = random_params(rng)
            m = strain_form_matrix(params) @ load_form_matrix(params)
            assert np.abs(m - np.eye(6)).max() < 1e-10


class TestForwardMap:
    def test_unloaded_reference(self):
        st = strains_from_loads(mk(eta=2.0, iota=0.5), Loads.zero())
        assert st == Strains(0, 0, 0, 0, 0, 1.0)

    def test_pure_tension(self):
        st = strains_from_loads(mk(), Loads(0, 0, 0, 0, 0, math.sqrt(3)))
        assert st.v3 == pytest.approx(1 + math.sqrt(3) / 2, rel=1e-14)
        assert (st.u1, st.u2, st.u3, st.v1, st.v2) == (0, 0, 0, 0, 0)

    def test_coupled_twist(self):
        st = strains_from_loads(mk(eta=2.0, iota=-1.0), Loads(0, 0, 1, 0, 0, 0))
        f = (7.0 / 3.0) ** -0.5
        assert st.u3 == pytest.approx(f * 4.0 / 3.0, rel=1e-14)
        assert st.v3 - 1 == pytest.approx(f / 3.0, rel=1e-13)

    def test_strain_limiting_at_extreme_loads(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            params = random_params(rng)
            mag = 10.0 ** rng.uniform(-3, 8)
            loads = random_loads(rng, params, qstar_target=mag**2)
            st = strains_from_loads(params, loads)
            q = strain_quad_form(params, st)
            assert q < 1.0
            b = strain_bounds(params)
            assert math.hypot(st.u1, st.u2) < b.flexure
            assert abs(st.u3) < b.twist
            assert math.hypot(st.v1, st.v2) < b.shear
            assert abs(st.v3 - 1.0) < b.dilatation

    def test_overflow_guard(self):
        # totality up to the edge of the float range, per the power-of-two
        # prescaling of the load components
        params = mk(eta=2.0, iota=0.5, p=4.0)
        for mag in (1e100, 1e200, 1e307):
            st = strains_from_loads(params, Loads(mag, -mag / 3, mag / 2, 0.0, mag, -mag))
            assert all(math.isfinite(x) for x in st.as_array())
            q = strain_quad_form(params, st)
            assert 1.0 - 1e-11 < q < 1.0  # deep saturation, still interior

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = random_params(rng)
            arr = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-2, 6)
            out = strains_from_loads_batch(params, arr)
            for row_in, row_out in zip(arr, out):
                st = strains_from_loads(params, Loads(*row_in))
                np.testing.assert_allclose(row_out, st.as_array(), rtol=1e-12, atol=1e-13)

    def test_batch_overflow_guard(self):
        params = mk(eta=2.0, p=4.0)
        out = strains_from_loads_batch(params, np.array([[0, 0, 0, 0, 0, 1e250], [0, 0, 0, 0, 0, 1.0]]))
        assert np.isfinite(out).all()
        assert out[0, 5] - 1 == pytest.approx(0.5, rel=1e-10)  # beta/sqrt(det) = 1/2


def unblocked_forward_batch(params, loads):
    """The batch forward map as whole-array passes, with the inward
    projection re-evaluated over every row: the reference that the blocked
    map must equal bit for bit on finite rows below 2^1023."""
    loads = np.asarray(loads, dtype=float)
    p = params.p
    det = params.twist_stretch_det
    c = np.maximum(1.0, np.abs(loads).max(axis=1))
    _, exponents = np.frexp(c)
    c = np.ldexp(1.0, np.where(c > 1.0, exponents, 0))
    m1, m2, m3, n1, n2, n3 = (loads / c[:, None]).T
    qs = _load_form(_constants(params), m1, m2, m3, n1, n2, n3)
    f = ((params.gamma / c) ** p + qs ** (0.5 * p)) ** (-1.0 / p)
    dev = np.empty_like(loads)
    dev[:, 0] = f * m1 / params.alpha**2
    dev[:, 1] = f * m2 / params.alpha**2
    dev[:, 2] = f * (params.eta**2 * m3 - params.iota * n3) / det
    dev[:, 3] = f * n1 / params.zeta**2
    dev[:, 4] = f * n2 / params.zeta**2
    dev[:, 5] = f * (-params.iota * m3 + params.beta**2 * n3) / det
    margin = _constants(params).margin
    for _ in range(4):
        dv3 = (1.0 + dev[:, 5]) - 1.0
        q = _strain_form(
            _constants(params), dev[:, 0], dev[:, 1], dev[:, 2], dev[:, 3], dev[:, 4], dv3
        )
        saturated = q > 1.0 - margin
        if not saturated.any():
            break
        scale = np.sqrt((1.0 - 2.0 * margin) / q[saturated])
        dev[saturated] *= scale[:, None]
    dev[:, 5] += 1.0
    return dev


P_BATCH = (1.0, 1.5, 2.0, 3.0, 4.0, 7.0)
B = _BATCH_BLOCK


class TestForwardBatchBlocks:
    """The blocked batch map against the unblocked reference, bit for bit
    (int64 views, so -0.0 != 0.0), and its range up to the float64 maximum."""

    @staticmethod
    def load_rows(rng, n):
        loads = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(n, 1))
        zeros = rng.random((n, 6)) < 0.05
        loads[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
        # saturated rows, Q* up to about 1e300, in the first and the last block
        for block in {0, (n - 1) // B} if n else ():
            lo, hi = block * B, min(n, block * B + B)
            rows = np.unique([lo, hi - 1, *rng.integers(lo, hi, size=20)])
            loads[rows] *= 10.0 ** rng.uniform(20.0, 150.0, size=(len(rows), 1))
        return loads

    @settings(max_examples=60, deadline=None)
    @given(
        p=hst.sampled_from(P_BATCH),
        n=hst.sampled_from((0, 1, B - 1, B, B + 1, 3 * B + 17)),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_equals_unblocked_bit_for_bit(self, p, n, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, p=p, normalized=False)
        loads = self.load_rows(rng, n)
        want = unblocked_forward_batch(params, loads)
        got = strains_from_loads_batch(params, loads)
        assert got.shape == (n, 6)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if n:  # the projection fired in the first and the last row
            dev = got[[0, -1]] - [0, 0, 0, 0, 0, 1]
            q = _strain_form(_constants(params), *dev.T)
            assert (q < 1.0).all() and (q > 1.0 - 4.0 * _constants(params).margin).all()

    @pytest.mark.parametrize("p", P_BATCH)
    def test_total_up_to_float_max(self, p):
        params = mk(eta=2.0, iota=0.5, zeta=0.7, p=p)
        rows = [[sys.float_info.max] * 6, [sys.float_info.max, -sys.float_info.max] * 3]
        for slot in range(6):
            for value in (sys.float_info.max, -sys.float_info.max, 2.0**1023):
                row = [0.3, -0.2, 0.5, 0.1, 0.0, 1.25]
                row[slot] = value
                rows.append(row)
        batch = strains_from_loads_batch(params, rows)
        for row, got in zip(rows, batch):
            for strains in (strains_from_loads(params, Loads(*row)), Strains(*got)):
                assert all(map(math.isfinite, strains.as_array())), row
                assert strain_quad_form(params, strains) < 1.0, row

    def test_shape_checked(self):
        for bad in (np.zeros((3, 5)), np.zeros(6), np.zeros((2, 3, 6))):
            with pytest.raises(ValueError, match=r"^loads must have shape \(n, 6\), got "):
                strains_from_loads_batch(mk(), bad)


def reference_dev(prm, row):
    """Strain deviation (u, v - e3) of the forward map in 40 digits, before
    any projection."""
    with mpmath.workdps(40):
        m1, m2, m3, n1, n2, n3 = map(mpmath.mpf, row)
        a2, b2, z2, e2 = (mpmath.mpf(x) ** 2 for x in (prm.alpha, prm.beta, prm.zeta, prm.eta))
        det = b2 * e2 - mpmath.mpf(prm.iota) ** 2
        qstar = (m1**2 + m2**2) / a2 + (n1**2 + n2**2) / z2 + (
            e2 * m3**2 + b2 * n3**2 - 2 * prm.iota * m3 * n3
        ) / det
        f = (mpmath.mpf(prm.gamma) ** prm.p + qstar ** (prm.p / 2)) ** (-1 / mpmath.mpf(prm.p))
        dev = [m1 / a2, m2 / a2, (e2 * m3 - prm.iota * n3) / det, n1 / z2, n2 / z2,
               (-prm.iota * m3 + b2 * n3) / det]
        return np.array([float(f * x) for x in dev])


class TestGammaPowerOverflow:
    """gamma^p beyond the float range, which ``validate`` accepts (gamma =
    1e16 with p = 20): the scalar map once raised OverflowError, and the
    batch map returned u = 0 with a RuntimeWarning."""

    PARAMS = mk(gamma=1e16, eta=2.0, iota=0.5, p=20.0)
    ROWS = [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.3, -0.2, 0.5, 0.1, 0.0, 1.25],
        [0.0, 0.0, 1e10, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1e20],
        [1e300, 0.0, 0.0, 0.0, 0.0, -1e300],
    ]
    FITS = [False, False, True, True, True]  # (gamma k)^p finite at the loads' own scale k

    def test_scalar_against_mpmath(self):
        for row in self.ROWS:
            dev = strains_from_loads(self.PARAMS, Loads(*row)).as_array() - [0, 0, 0, 0, 0, 1]
            ref = reference_dev(self.PARAMS, row)
            # saturated rows carry the inward projection, about 1e-13 here
            np.testing.assert_allclose(dev[:5], ref[:5], rtol=1e-12, atol=1e-300)
            assert abs(dev[5] - ref[5]) <= 2.3e-16 + 1e-12 * abs(ref[5])  # v3 = 1 + (v3 - 1)

    def test_batch_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = strains_from_loads_batch(self.PARAMS, self.ROWS)
        for row, got in zip(self.ROWS, out):
            st = strains_from_loads(self.PARAMS, Loads(*row))
            np.testing.assert_allclose(got, st.as_array(), rtol=1e-12, atol=1e-300)
        # rows whose (gamma k)^p fits keep the bits of the plain formula
        with np.errstate(over="ignore"):
            want = unblocked_forward_batch(self.PARAMS, self.ROWS)
        assert np.array_equal(out[self.FITS].view(np.int64), want[self.FITS].view(np.int64))

    def test_complementary_energy(self):
        # Q* = n3^2 beta^2/det is far below gamma^2, so W* = Q*/(2 gamma) to
        # first order
        w = complementary_energy(self.PARAMS, Loads(0, 0, 0, 0, 0, 1))
        assert w == pytest.approx(1.0 / 3.75 / 2e16, rel=1e-15)


class TestForwardRange:
    """Both forward maps where a power of F leaves the float range or its
    sum turns subnormal: gamma tiny or huge for its exponent, alpha =
    1e-100, and loads that are zero, subnormal, tiny or at the float
    maximum. The scalar map once raised ZeroDivisionError where gamma^p
    underflowed, the batch map returned NaN rows there, both gave u1 = 0
    where Q*^{p/2} overflowed at alpha = 1e-100 and p = 4, and both lost
    digits where Q* or the sum of F's powers was subnormal."""

    MATERIALS = [
        mk(gamma=1e-200, eta=2.0),
        mk(1.3, 0.8, 1e-200, 0.7, 2.0, 0.5),
        mk(gamma=1e-10, eta=2.0, p=100.0),
        mk(gamma=1e16, eta=2.0, p=20.0),
        mk(1.3, 0.8, 1e300, 0.7, 2.0, 0.5, 3.0),
        mk(alpha=1e-100, eta=2.0, p=4.0),
        mk(alpha=1e-100, gamma=1e-200, eta=2.0),
        mk(gamma=1e-80, eta=2.0, p=4.0),
        mk(gamma=1e-158, eta=2.0, iota=0.5),
    ]
    MAX = sys.float_info.max
    ROWS = [
        [0.0] * 6,
        [5e-324, 0.0, -5e-324, 0.0, 1e-310, 0.0],
        [1e-170, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1e-100, 0.0, 0.0, 0.0, 0.0],
        [2e-158, 0.0, 1e-158, -3e-158, 0.0, 1e-159],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.3, -1.2, 0.7, 2.0, -0.4, 1.5],
        [0.0, 0.0, 0.0, 0.0, 0.0, MAX],
        [MAX, -MAX, MAX, -MAX, MAX, -MAX],
    ]

    @pytest.mark.parametrize("params", MATERIALS, ids=lambda prm: f"a{prm.alpha:g}-g{prm.gamma:g}-p{prm.p:g}")
    def test_against_mpmath(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = strains_from_loads_batch(params, self.ROWS)
            for row, got in zip(self.ROWS, batch):
                st = strains_from_loads(params, Loads(*row))
                # numpy's powers may round apart from libm's by an ulp
                np.testing.assert_allclose(got, st.as_array(), rtol=1e-15, atol=1e-300)
                assert strain_quad_form(params, st) < 1.0
                dev, ref = st.as_array() - [0, 0, 0, 0, 0, 1], reference_dev(params, row)
                tol = 1e-12 * np.abs(ref).max()  # saturated rows carry the projection
                assert np.abs(dev[:5] - ref[:5]).max() <= tol, row
                assert abs(dev[5] - ref[5]) <= 2.3e-16 + tol, row  # v3 = 1 + (v3 - 1)

    def test_matches_shear_factors(self):
        params, loads = mk(alpha=1e-100, eta=2.0, p=4.0), Loads(1.0, 0, 0, 0, 0, 0)
        u_factor = limrod.shear_factors(params, loads)[0]
        assert strains_from_loads(params, loads).u1 == pytest.approx(u_factor, rel=1e-12)

    def test_unbounded_form_raises(self):
        # the true u1 is about 1e155 with Q < 1, but u1 * u1 overflows in Q
        params = mk(alpha=1e-155, eta=2.0)
        message = r"^loads map to strains whose Q\(u, v\) is not finite: Loads\(m1=1e-05, m2=0.0, "
        with pytest.raises(LoadOutOfRange, match=message):
            strains_from_loads(params, Loads(1e-5, 0, 0, 0, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LoadOutOfRange, match=message):
                strains_from_loads_batch(params, [[0.0] * 6, [1e-5, 0, 0, 0, 0, 0], [1e-6] * 6])


    @pytest.mark.parametrize("params, row", [
        (mk(alpha=1e-160, eta=2.0), [1.0, 0, 0, 0, 0, 0]),
        (mk(alpha=1e-155, eta=2.0), [1.0, 0, 0, 0, 0, 0]),
        (mk(beta=1e-160, eta=2.0), [0, 0, 1.0, 0, 0, 0]),
        (mk(zeta=1e-155, eta=2.0), [0, 0, 0, -1.0, 0, 0]),
    ], ids=("alpha-1e-160", "alpha-1e-155", "beta-1e-160", "zeta-1e-155"))
    def test_overflowing_load_form_raises(self, params, row):
        # Q* of the prescaled loads overflows: the maps returned zero strains
        # at alpha = 1e-160, shear_factors (0, 0), and the batch map warned
        message = r"^loads map to strains whose Q\(u, v\) is not finite: Loads\("
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (strains_from_loads, complementary_energy, limrod.shear_factors):
                with pytest.raises(LoadOutOfRange, match=message) as scalar:
                    fn(params, Loads(*row))
            with pytest.raises(LoadOutOfRange) as batch:
                strains_from_loads_batch(params, [[0.0] * 6, row, [1e-6] * 6])
        assert str(batch.value) == str(scalar.value)


PARAMS_DIR = Path(__file__).parents[1] / "params"


class TestLengthUnit:
    """A change of the unit of length scales alpha, beta, iota, ref_length
    and the couples by 2^k, and the curvatures by 2^-k; the shear and
    dilatation strains stay. The inward projection's margin once grew with
    alpha^2, beta^2 and |iota|, so that a large unit moved saturated states
    by up to 0.7 relative, and made the margin exceed 1/2, where both maps
    raised, even on zero loads."""

    BASES = [
        load_params(PARAMS_DIR / "demo.json"),
        load_params(PARAMS_DIR / "dna.json"),
        mk(1.3, 0.8, 1.0, 0.7, 2.0, 0.5, 3.0),
    ]
    DIRECTIONS = [[0.3, -0.2, 0.1, 0.05, -0.1, 0.2], [0, 0, 1.0, 0, 0, -0.5], [-1.0, 0.5, -0.25, 0.75, 0, 1.0]]
    QSTARS = (1e-6, 0.5, 1e6, 1e30, 1e300)  # unsaturated to deep saturation

    @pytest.mark.parametrize("base", BASES, ids=("demo", "dna", "chiral-p3"))
    def test_strains_scale_with_the_unit(self, base):
        rows = np.array([
            np.array(d) * math.sqrt(t / load_quad_form(base, Loads.from_array(d)))
            for d in self.DIRECTIONS for t in self.QSTARS
        ])
        want = strains_from_loads_batch(base, rows) - [0, 0, 0, 0, 0, 1]
        for k in range(-40, 41):
            c = 2.0**k
            params = MaterialParams(base.alpha * c, base.beta * c, base.gamma, base.zeta,
                                    base.eta, base.iota * c, base.p, base.ref_length * c)
            loads = rows * [c, c, c, 1, 1, 1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = strains_from_loads_batch(params, loads)
                scalar = [strains_from_loads(params, Loads.from_array(r)).as_array() for r in loads]
            for got in (batch, np.array(scalar)):
                dev = got - [0, 0, 0, 0, 0, 1]
                assert (_strain_form(_constants(params), *dev.T) < 1.0).all(), k
                err = np.abs(dev * [c, c, c, 1, 1, 1] - want).max(axis=1)
                assert (err <= 1e-14 * np.abs(want).max(axis=1)).all(), k

    @pytest.mark.parametrize("alpha", [1e3, 1e6, 1e8, 1e100])
    def test_large_alpha_against_mpmath(self, alpha):
        # Q = 0.99 lies below the projection band: the map is F times the loads
        params, row = mk(alpha=alpha, eta=2.0), [math.sqrt(99.0) * alpha, 0, 0, 0, 0, 0]
        ref = reference_dev(params, row)
        for got in (strains_from_loads(params, Loads(*row)).as_array(),
                    strains_from_loads_batch(params, [row])[0]):
            dev = got - [0, 0, 0, 0, 0, 1]
            assert np.abs(dev - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("params", [mk(eta=1e7), mk(eta=2.0, iota=2.0 * (1.0 - 1e-14))],
                             ids=("eta-1e7", "iota-near-beta-eta"))
    def test_margin_of_a_half_is_refused(self, params):
        # 1 - 2 margin <= 0 leaves the rescale no target: the batch map gave
        # NaN rows, zero loads included, and the scalar map a bare ValueError
        for call in (lambda: strains_from_loads(params, Loads.zero()),
                     lambda: strains_from_loads_batch(params, np.zeros((2, 6)))):
            with pytest.raises(DefinitenessViolation, match="projection margin"):
                call()

    def test_wide_material_sweep(self):
        # form weights up to 1e8 (the margin once reached 1/2 at about 1e7),
        # gamma over the float range and loads up to Q* of 1e600, zeros first
        rng = np.random.default_rng(5)
        for _ in range(4000):
            p = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 20.0]))
            alpha, beta = (float(x) for x in 10.0 ** rng.uniform(-3.0, 8.0, 2))
            zeta, eta = float(10.0 ** rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-1.0, 1.5))
            iota = float(rng.uniform(-0.95, 0.95)) * beta * eta
            params = MaterialParams(alpha, beta, float(10.0 ** rng.uniform(-300.0, 300.0)), zeta, eta, iota, p)
            scale = 10.0 ** rng.uniform(-5.0, 300.0, size=(8, 1)) * [alpha, alpha, beta, zeta, zeta, eta]
            rows = rng.normal(size=(8, 6)) * scale
            rows[0] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = strains_from_loads_batch(params, rows)
                scalar = [strains_from_loads(params, Loads.from_array(r)).as_array() for r in rows]
            for got in (batch, np.array(scalar)):
                assert (_strain_form(_constants(params), *(got - [0, 0, 0, 0, 0, 1]).T) < 1.0).all(), params


class TestInverseMap:
    def test_reference_unloaded(self):
        assert loads_from_strains(mk(eta=2.0, iota=0.5), REF) == Loads.zero()

    def test_round_trip_of_tension_example(self):
        loads = loads_from_strains(mk(), Strains(0, 0, 0, 0, 0, 1 + math.sqrt(3) / 2))
        assert loads.n3 == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_pure_twist(self):
        loads = loads_from_strains(mk(eta=2.0), Strains(0, 0, 0.5, 0, 0, 1))
        assert loads.m3 == pytest.approx(0.5 / math.sqrt(0.75), rel=1e-14)

    def test_raises_at_unit_form(self):
        with pytest.raises(StrainOutOfRange):
            loads_from_strains(mk(), Strains(1, 0, 0, 0, 0, 1))
        with pytest.raises(StrainOutOfRange):
            loads_from_strains(mk(), Strains(2, 0, 0, 0, 0, 1))

    @pytest.mark.parametrize("p", P_GRID)
    def test_round_trips(self, p):
        # The loads-side sweep stays at Q* <= 1e3: the recovered loads carry
        # the half-ulp rounding of the intermediate strains amplified by
        # 1/(1 - Q^{p/2}), so near saturation the identity is limited by
        # conditioning, not implementation (see the acceptance suite).
        rng = np.random.default_rng(int(p * 100))
        for _ in range(200):
            params = random_params(rng, p=p)
            st = random_strains(rng, params, q_target=rng.uniform(0, 1.0 - 1e-6))
            back = strains_from_loads(params, loads_from_strains(params, st))
            scale = 1.0 + np.abs(st.as_array()).max()
            assert np.abs(back.as_array() - st.as_array()).max() < 1e-10 * scale

            loads = random_loads(rng, params, qstar_target=rng.uniform(0, 1e4 ** (2.0 / p)))
            back_l = loads_from_strains(params, strains_from_loads(params, loads))
            scale = 1.0 + np.abs(loads.as_array()).max()
            assert np.abs(back_l.as_array() - loads.as_array()).max() < 1e-10 * scale


class TestInverseBatch:
    """``loads_from_strains_batch`` against the scalar map, bit for bit."""

    @staticmethod
    def strain_rows(rng, params, n):
        rows = [Strains.reference().as_array()]
        for i in range(n):
            if i % 3 == 0:
                q = 1.0 - 1e-12 * rng.uniform(0.05, 1.0)  # right at the boundary
            else:
                q = rng.uniform(0.0, 1.0)
            rows.append(random_strains(rng, params, q).as_array())
        return np.array(rows)

    @pytest.mark.parametrize("p", (*P_GRID, 1.5, 7.0))
    def test_rows_equal_scalar_map(self, p):
        rng = np.random.default_rng(int(p * 10) + 1)
        for _ in range(10):
            params = random_params(rng, p=p, normalized=False)
            rows = self.strain_rows(rng, params, 60)
            q = np.array([strain_quad_form(params, Strains(*r)) for r in rows])
            assert q.max() < 1.0 and (1.0 - q < 1e-12).sum() >= 20
            batch = loads_from_strains_batch(params, rows)
            for row, got in zip(rows, batch):
                want = loads_from_strains(params, Strains(*row)).as_array()
                assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included

    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_repeated_q_and_signed_zero_rows(self, p):
        # G is evaluated once per distinct Q bit pattern and gathered: rows
        # that repeat, rows that are sign flips of each other (the same Q),
        # and +0.0/-0.0 rows must still come out as the scalar map's
        rng = np.random.default_rng(int(p) + 40)
        params = random_params(rng, p=p, normalized=False)
        base = [random_strains(rng, params, q).as_array() for q in (0.2, 0.9, 1.0 - 1e-12)]
        flips = [np.concatenate([-b[:5], [2.0 - b[5]]]) for b in base]
        zeros = [[0.0] * 5 + [1.0], [-0.0] * 5 + [1.0], [0.0, -0.0, 0.0, -0.0, 0.0, 1.0]]
        rows = np.array([base[i % 3] for i in range(20)] + flips + zeros + base[::-1])
        rows = rows[rng.permutation(len(rows))]
        batch = loads_from_strains_batch(params, rows)
        for row, got in zip(rows, batch):
            want = loads_from_strains(params, Strains(*row)).as_array()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [[0.0, 0, 0, 0, 0, 1.6], [2.0, 0, 0, 0, 0, 1], [math.nan] * 6])
    def test_first_bad_row_raises_scalar_message(self, bad):
        params = mk(eta=2.0)
        rows = np.tile(Strains(0.1, 0, 0.2, 0, 0.05, 1.1).as_array(), (12, 1))
        rows[7] = bad
        rows[9] = [5.0, 0, 0, 0, 0, 1]  # a later bad row is not the one reported
        with pytest.raises(StrainOutOfRange) as scalar:
            loads_from_strains(params, Strains(*bad))
        with pytest.raises(StrainOutOfRange) as batch:
            loads_from_strains_batch(params, rows)
        assert str(batch.value) == str(scalar.value)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            loads_from_strains_batch(mk(), np.zeros((3, 5)))

    def test_exported(self):
        assert limrod.loads_from_strains_batch is loads_from_strains_batch


class TestNonFiniteLoads:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(6))
    def test_forward_map_rejects(self, index, value):
        comps = [0.3, -0.2, 0.5, 0.1, 0.0, 1.25]
        comps[index] = value
        name = ("m1", "m2", "m3", "n1", "n2", "n3")[index]
        # one gate: W* raised "sqrt Q*(m, n) = nan is not finite" instead
        for fn in (strains_from_loads, complementary_energy, limrod.shear_factors):
            with pytest.raises(LoadOutOfRange, match=f"^loads are not all finite: Loads\\(.*{name}={value!r}"):
                fn(mk(eta=2.0), Loads(*comps))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("row", [0, B + 3])
    def test_batch_raises_scalar_message_for_first_bad_row(self, row, index, value):
        params = mk(eta=2.0)
        rows = np.tile([0.3, -0.2, 0.5, 0.1, 0.0, 1.25], (2 * B + 5, 1))
        rows[row, index] = value
        rows[row + 7] = math.nan  # a later bad row is not the one reported
        with pytest.raises(LoadOutOfRange) as scalar:
            strains_from_loads(params, Loads(*rows[row]))
        with pytest.raises(LoadOutOfRange) as batch:
            strains_from_loads_batch(params, rows)
        assert str(batch.value) == str(scalar.value)


class TestEnergies:
    def test_reference_values_are_zero(self):
        params = mk(eta=2.0, iota=0.5, p=3.0)
        assert stored_energy(params, REF) == 0.0
        assert complementary_energy(params, Loads.zero()) == 0.0

    def test_closed_form_p2(self):
        # Q = 3/4 -> W = 1 - sqrt(1/4) = 1/2
        st = Strains(0, 0, 0, 0, 0, 1 + math.sqrt(3) / 2)
        assert stored_energy(mk(), st) == pytest.approx(0.5, rel=1e-12)
        # Q* = 3 -> W* = 2 - 1 = 1
        loads = Loads(0, 0, 0, 0, 0, math.sqrt(3))
        assert complementary_energy(mk(), loads) == pytest.approx(1.0, rel=1e-12)

    def test_p1_against_quadrature_oracle(self):
        # independent oracle: raw quadrature of the defining integrals
        params = mk(p=1.0)
        st = Strains(0, 0, 0.5, 0, 0, 1)  # Q = 1/4
        oracle, _ = integrate.quad(lambda t: 1.0 / (1.0 - math.sqrt(t)), 0.0, 0.25, epsabs=1e-14)
        assert stored_energy(params, st) == pytest.approx(0.5 * oracle, abs=1e-12)
        assert stored_energy(params, st) == pytest.approx(0.1931471805599453, abs=1e-13)
        loads = Loads(0, 0, 2.0, 0, 0, 0)  # Q* = 4
        oracle, _ = integrate.quad(lambda t: 1.0 / (1.0 + math.sqrt(t)), 0.0, 4.0, epsabs=1e-14)
        assert complementary_energy(params, loads) == pytest.approx(0.5 * oracle, abs=1e-12)

    def test_general_p_against_frozen_quadrature(self):
        # values frozen from 40-digit quadrature of the defining integrals
        st_h = Strains(0, 0, math.sqrt(0.5), 0, 0, 1)  # Q = 1/2
        assert stored_energy(mk(p=3.0), st_h) == pytest.approx(0.26397662450904272585, abs=1e-12)
        st_n = Strains(0, 0, math.sqrt(0.9), 0, 0, 1)  # Q = 0.9
        assert stored_energy(mk(p=4.0), st_n) == pytest.approx(0.4988352233397047164, abs=1e-12)
        assert complementary_energy(mk(p=4.0), Loads(0, 0, 1, 0, 0, 0)) == pytest.approx(
            0.46874487537346810563, abs=1e-12
        )
        assert complementary_energy(mk(p=3.0), Loads(0, 0, math.sqrt(5), 0, 0, 0)) == pytest.approx(
            1.5841756596521905799, abs=1e-12
        )

    def test_near_boundary_tail(self):
        # frozen from 40-digit quadrature: the sliver next to the strain
        # limit keeps full accuracy however close Q sits to 1
        cases = [
            (3.0, 1.0 - 1e-9, 0.68446275079437715295),
            (4.0, 1.0 - 1e-12, 0.59907011680719849355),
            (1.5, 1.0 - 1e-6, 1.7484675447356954188),
        ]
        for p, q, expected in cases:
            st = Strains(0, 0, math.sqrt(q), 0, 0, 1)
            assert stored_energy(mk(p=p), st) == pytest.approx(expected, abs=1e-12)

    def test_stored_energy_raises_outside_domain(self):
        with pytest.raises(StrainOutOfRange):
            stored_energy(mk(p=3.0), Strains(1, 0, 0, 0, 0, 1))

    @pytest.mark.parametrize("p", P_GRID)
    def test_gradients_match_maps(self, p):
        rng = np.random.default_rng(int(41 * p))
        h = 1e-5
        for _ in range(25):
            params = random_params(rng, p=p)
            # complementary energy gradient = forward map (v3 shifted by -1)
            loads = random_loads(rng, params, qstar_target=rng.uniform(0.1, 10.0))
            grad = np.empty(6)
            base = loads.as_array()
            for i in range(6):
                hi, lo = base.copy(), base.copy()
                hi[i] += h
                lo[i] -= h
                grad[i] = (
                    complementary_energy(params, Loads(*hi))
                    - complementary_energy(params, Loads(*lo))
                ) / (2 * h)
            st = strains_from_loads(params, loads)
            expected = st.as_array()
            expected[5] -= 1.0
            scale = 1.0 + np.abs(expected).max()
            assert np.abs(grad - expected).max() < 1e-6 * scale

            # stored energy gradient = inverse map
            strains = random_strains(rng, params, q_target=rng.uniform(0.05, 0.9))
            base = strains.as_array()
            for i in range(6):
                hi, lo = base.copy(), base.copy()
                hi[i] += h
                lo[i] -= h
                grad[i] = (
                    stored_energy(params, Strains(*hi)) - stored_energy(params, Strains(*lo))
                ) / (2 * h)
            expected = loads_from_strains(params, strains).as_array()
            scale = 1.0 + np.abs(expected).max()
            assert np.abs(grad - expected).max() < 1e-6 * scale


class TestBetaEnergies:
    """Energies for every p from the incomplete-beta reduction, against
    40-digit mpmath references evaluated at the exact float Q and Q*."""

    P_OFF_GRID = (0.25, 0.5, 0.7, 0.9, 1.5, 3.0, 4.0, 7.0, 12.0, 100.0)
    Q_GRID = [10.0**e for e in range(-12, 0)] + [0.5, 0.9, 0.99] + [
        1.0 - 10.0**-e for e in range(3, 13)
    ]
    QSTAR_GRID = [10.0**e for e in range(-12, 301, 8)] + [2.0, 1e300]

    @staticmethod
    def ref_stored(q, p, gamma=1.0):
        with mpmath.workdps(40):
            q, p = mpmath.mpf(q), mpmath.mpf(p)
            return gamma * mpmath.betainc(2 / p, 1 - 1 / p, 0, q ** (p / 2)) / p

    @staticmethod
    def ref_complementary(qstar, p, gamma=1.0):
        # 1 - Q^{p/2} = (gamma F)^p falls to about (gamma^2/Q*)^{p/2}; for
        # p < 1, where B diverges at 1, carry that many more digits. For
        # p > 1, Q^{p/2} may round to 1, where B is finite.
        extra = p / 2 * math.log10(qstar / gamma**2) if p < 1 and qstar > gamma**2 else 0
        with mpmath.workdps(40 + int(extra)):
            qs, p = mpmath.mpf(qstar), mpmath.mpf(p)
            f = (mpmath.mpf(gamma) ** p + qs ** (p / 2)) ** (-1 / p)
            x = min(mpmath.mpf(1), (f * f * qs) ** (p / 2))
            return f * qs - gamma * mpmath.betainc(2 / p, 1 - 1 / p, 0, x) / p

    @pytest.mark.parametrize("p", P_OFF_GRID)
    def test_stored_against_mpmath(self, p):
        params = mk(gamma=2.5, p=p)
        for q in self.Q_GRID:
            st = Strains(0, 0, math.sqrt(q), 0, 0, 1)
            ref = self.ref_stored(strain_quad_form(params, st), p, 2.5)
            assert abs(stored_energy(params, st) - ref) <= 1e-13 * ref, (p, q)

    @pytest.mark.parametrize("p", P_OFF_GRID)
    def test_complementary_against_mpmath(self, p):
        params = mk(gamma=2.5, p=p)
        for qstar in self.QSTAR_GRID:
            loads = Loads(0, 0, 0, 0, 0, math.sqrt(qstar))
            ref = self.ref_complementary(load_quad_form(params, loads), p, 2.5)
            assert abs(complementary_energy(params, loads) - ref) <= 1e-13 * ref, (p, qstar)

    def test_complementary_against_defining_integral(self):
        # independent of the Legendre identity that both the code and the
        # reference above rely on
        for p, qstar in ((0.7, 3.0), (3.0, 50.0), (7.0, 0.2)):
            with mpmath.workdps(40):
                direct = mpmath.quad(
                    lambda t: (1 + t ** (mpmath.mpf(p) / 2)) ** (-1 / mpmath.mpf(p)) / 2,
                    [0, 1, qstar],
                )
            value = complementary_energy(mk(p=p), Loads(0, 0, 0, 0, 0, math.sqrt(qstar)))
            assert abs(value - direct) <= 1e-13 * direct

    def test_small_strain_p7_state(self):
        # 1 - Q^{p/2} rounds to 1 here; the quadrature sliver rule used to
        # raise ZeroDivisionError on it
        params = replace(load_params(Path(__file__).parents[1] / "params" / "demo.json"), p=7.0, iota=0.3)
        loads = Loads(1.6e-3, 1.3e-3, -8e-4, -2.2e-3, -2.4e-4, -4.7e-4)
        st = strains_from_loads(params, loads)
        ref = self.ref_stored(strain_quad_form(params, st), 7.0)
        assert abs(stored_energy(params, st) - ref) <= 1e-13 * ref
        work = float(np.dot(loads.as_array(), st.as_array() - [0, 0, 0, 0, 0, 1]))
        fenchel = stored_energy(params, st) + complementary_energy(params, loads) - work
        assert abs(fenchel) <= 1e-13 * work

    @pytest.mark.parametrize("p", (1.5, 3.0, 7.0))
    def test_complementary_finite_at_huge_loads(self, p):
        assert complementary_energy(mk(p=p), Loads(0, 0, 0, 0, 0, 1e150)) == pytest.approx(
            1e150, rel=1e-15
        )

    @pytest.mark.parametrize("p", (1 / 3, 0.5, 0.75, 0.9))
    @pytest.mark.parametrize("gamma", (1e-200, 1e-300))
    def test_complementary_where_gamma_f_underflows(self, gamma, p):
        # gamma F = 1e-330 or 1e-430 underflows, and 1 - Q^{p/2} = (gamma F)^p
        # with it: W* hung at p <= 1/2 and returned -inf above
        params, loads = mk(gamma=gamma, eta=2.0, p=p), Loads(0, 0, 0, 0, 0, 2e130)
        with mpmath.workdps(40):
            qs, p, g = mpmath.mpf(load_quad_form(params, loads)), mpmath.mpf(p), mpmath.mpf(gamma)
            f = (g**p + qs ** (p / 2)) ** (-1 / p)
            s, a, b = (g * f) ** p, 2 / p, 1 - 1 / p
            # W = (gamma/p) B_x(a, b) at x = 1 - s, with B_x = x^a (1 - x)^b
            # F(a + b, 1; a + 1; x)/a (DLMF 8.17.8): no digits lost to 1 - s
            w = g / p * (1 - s) ** a * s**b * mpmath.hyp2f1(a + b, 1, a + 1, 1 - s) / a
            ref = f * qs - w
        assert abs(complementary_energy(params, loads) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("gamma", (1e200, sys.float_info.max))
    @pytest.mark.parametrize("p", (3.0, 4.0))
    @pytest.mark.parametrize("m1", (1.0, 3.0))
    def test_complementary_where_f2_qstar_underflows(self, gamma, p, m1):
        # Q = F^2 Q* ~ Q*/gamma^2 underflows: W(F^2 Q*) came out 0, and W*
        # = F Q* - W twice the true value; at gamma = max, m1 = 1, W* is subnormal
        params, loads = mk(gamma=gamma, p=p), Loads(m1, 0, 0, 0, 0, 0)
        with mpmath.workdps(50):  # on [0, 1], so that quad's absolute tolerance is relative
            g, qstar = mpmath.mpf(gamma), mpmath.mpf(m1) ** 2
            shape = mpmath.quad(lambda u: (1 + (qstar * u / g**2) ** (p / 2)) ** (-1 / p), [0, 1])
            ref = qstar / (2 * g) * shape
        assert abs(complementary_energy(params, loads) - ref) <= 1e-15 * ref + 5e-324

    def test_beta_series_is_bounded(self):
        # a NaN complement once kept the series loop from its stop test forever
        _beta_memo.cache_clear()
        for _ in range(2):  # the head alone, then with rows
            with pytest.raises(ArithmeticError, match="series did not converge"):
                _incomplete_beta(4.0, -1.0, 1.0, math.nan)
        rows = []
        with pytest.raises(ArithmeticError, match="series did not converge"):
            unmemoised_incomplete_beta(4.0, -1.0, 1.0, math.nan, rows)
        assert _beta_memo(4.0, -1.0)[1] == rows and len(rows) == 500

    def test_nan_strains_raise(self):
        st = Strains(math.nan, 0, 0, 0, 0, 1)
        for fn in (loads_from_strains, stored_energy, stored_energy_hessian):
            with pytest.raises(StrainOutOfRange):
                fn(mk(p=3.0), st)

    @pytest.mark.parametrize("p", (2.0, 3.0))
    def test_nonfinite_load_form_raises(self, p):
        with pytest.raises(LoadOutOfRange):
            complementary_energy(mk(p=p), Loads(math.nan, 0, 0, 0, 0, 0))
        with pytest.raises(LoadOutOfRange):  # sqrt(Q*), and so W*, overflows
            complementary_energy(mk(p=p), Loads(*[sys.float_info.max] * 6))

    @pytest.mark.parametrize("p", (1.0, 2.0, 1.5, 3.0, 7.0))
    def test_complementary_where_qstar_overflows(self, p):
        # Q* is inf, or NaN from inf - inf in the coupled term; sqrt(Q*) is finite
        cases = [(mk(gamma=2.5, p=p), Loads(0, 0, 0, 0, 0, n3)) for n3 in (1e160, 1e250, 1e300)]
        cases.append((mk(gamma=2.5, eta=2.0, iota=0.5, p=p), Loads(0, 0, 1e200, 0, 0, 1e200)))
        for params, loads in cases:
            assert not load_quad_form(params, loads) < math.inf
            with mpmath.workdps(40):
                m3, n3 = mpmath.mpf(loads.m3), mpmath.mpf(loads.n3)
                qstar = (params.eta**2 * m3**2 + n3**2 - 2 * params.iota * m3 * n3) / (
                    params.eta**2 - mpmath.mpf(params.iota) ** 2
                )
                if p == 1.0:  # B(x; 2, 0) diverges at x = 1, which x rounds to
                    ref = mpmath.sqrt(qstar) - 2.5 * mpmath.log1p(mpmath.sqrt(qstar) / 2.5)
                else:
                    ref = self.ref_complementary(qstar, p, 2.5)
            assert abs(complementary_energy(params, loads) - ref) <= 1e-13 * ref, (p, loads)

    @pytest.mark.parametrize("p", (1.0, 2.0))
    @pytest.mark.parametrize("gamma", (1.0, 1e200, sys.float_info.max))
    @pytest.mark.parametrize("n3", (1e-8, 1e-5, 0.7, 3e4))
    def test_closed_forms_against_defining_integral(self, p, gamma, n3):
        # sqrt(g^2 + Q*) - g (p = 2) and rt - g log1p(rt/g) (p = 1) cancel
        # where Q* << g^2: p = 2 once returned 0.0 at n3 = 1e-8, and raised
        # OverflowError from g**2 at gamma = 1e200; hypot(g, rt) + g overflowed
        # at gamma = max, where loads near 1e149 keep W* ~ Q*/(2 gamma) normal
        params = mk(gamma=gamma, p=p)
        loads = Loads(0, 0, 0, 0, 0, n3 * 1e149 if gamma > 1e300 else n3)
        with mpmath.workdps(50):  # on [0, 1], so that quad's absolute tolerance is relative
            g, qstar = mpmath.mpf(gamma), mpmath.mpf(load_quad_form(params, loads))
            shape = mpmath.quad(lambda u: (1 + (qstar * u / g**2) ** (p / 2)) ** (-1 / p), [0, 1])
            ref = qstar / (2 * g) * shape
        assert abs(complementary_energy(params, loads) - ref) <= 2e-16 * ref

    @pytest.mark.parametrize("p", (1.0, 2.0))
    @pytest.mark.parametrize("u3", (1e-9, 1e-8, 1e-6, 0.45))
    def test_stored_closed_forms_against_defining_integral(self, p, u3):
        # g (1 - sqrt(1 - Q)) (p = 2) and g (-rt - log1p(-rt)) (p = 1) cancel
        # at small Q: p = 2 returned 0.0 at u3 = 1e-9 and was 122 % off at
        # 1e-8; p = 1 was 1.5e-7 off at 1e-9. 0.45 is the series next to its cutoff.
        params, st = mk(p=p), Strains(0, 0, u3, 0, 0, 1)
        with mpmath.workdps(50):  # on [0, 1], so that quad's absolute tolerance is relative
            q = mpmath.mpf(strain_quad_form(params, st))
            ref = q / 2 * mpmath.quad(lambda t: (1 - (q * t) ** (p / 2)) ** (-1 / p), [0, 1])
        assert abs(stored_energy(params, st) - ref) <= 4e-16 * ref

    @pytest.mark.parametrize("delta", (1e-6, 1e-9, 1e-12))
    def test_stored_p1_next_to_the_cap(self, delta):
        # -rt - log1p(-rt) took 1 - rt from the rounded rt: 1.6e-12 off at
        # delta = 1e-6 and 1.2e-11 at 1e-9; the docstring claims 1e-14
        params, st = mk(p=1.0), Strains(0, 0, math.sqrt(1.0 - delta), 0, 0, 1)
        with mpmath.workdps(50):
            rt = mpmath.sqrt(mpmath.mpf(strain_quad_form(params, st)))
            ref = -rt - mpmath.log(1 - rt)
        assert abs(stored_energy(params, st) - ref) <= 1e-14 * ref

    def test_p1_where_load_over_gamma_overflows(self):
        # rt/g overflows at unit scale: g log1p(rt/g) was inf and W* -inf
        loads = Loads(sys.float_info.max, 0, 0, 0, 0, 0)
        value = complementary_energy(mk(gamma=1e-3, p=1.0), loads)
        assert value == pytest.approx(sys.float_info.max, rel=1e-15)

    def test_p1_where_gamma_k_underflows(self):
        # at the loads' scale k = 2^-665, g = gamma k underflows to 0 and
        # rt/g once divided by zero; W* = rt - gamma log(1 + rt/gamma)
        params, loads = mk(gamma=1e-200, eta=2.0, p=1.0), Loads(0, 0, 0, 0, 0, 1e200)
        with mpmath.workdps(40):
            rt = mpmath.mpf(1e200) / 2  # n3 beta/sqrt(det), det = 4
            gamma = mpmath.mpf(1e-200)
            ref = rt - gamma * mpmath.log1p(rt / gamma)
        assert abs(complementary_energy(params, loads) - ref) <= 1e-15 * ref

    def test_import_loads_no_scipy(self):
        code = "import sys, limrod; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = dict(os.environ, PYTHONPATH=str(Path(limrod.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


def unmemoised_incomplete_beta(a, b, xa, z, rows=None):
    """The incomplete-beta kernel computing everything anew on each call:
    the reference that the memoised kernel must equal bit for bit. Appends
    the rows (k > a, b + k, z0^(b + k), coefficient) of the terms it sums
    to ``rows``."""
    x = 1.0 - z
    x0 = min(0.9, max(0.5, (a + 1.0) / (a + b + 2.0)))
    if x <= x0:
        return xa * z**b / (a * _beta_cf(a, b, x))
    z0 = 1.0 - x0
    log_ratio = math.log(z0 / z) if z > 0.0 else math.inf
    total, coef = x0**a * z0**b / (a * _beta_cf(a, b, x0)), 1.0
    for k in range(500):
        e = b + k
        if rows is not None:
            rows.append((k > a, e, z0**e, coef))
        term = coef * (log_ratio if e == 0.0 else z0**e * -math.expm1(-e * log_ratio) / e)
        total += term
        if k > a and abs(term) <= _EPS * total:
            return total
        coef *= (k + 1.0 - a) / (k + 1.0)
    raise ArithmeticError(f"incomplete beta series did not converge at a={a!r}, b={b!r}, z={z!r}")


def beta_outcome(fn, a, b, z):
    """The kernel's result as exact text (hex, so -0.0 and NaN are told
    apart), or the type and message of what it raised."""
    try:
        return fn(a, b, (1.0 - z) ** a, z).hex()
    except ArithmeticError as exc:  # OverflowError included
        return f"{type(exc).__name__}: {exc}"


class TestBetaKernelMemo:
    """The incomplete-beta kernel with its per-exponent memo against the
    kernel that computes everything anew, bit for bit; the memo's rows are
    built lazily, bounded in number and safe to grow from two threads."""

    # 1/3 and 1/2 reach the e = b + k = 0 log rows; 0.05 and 0.5 raise
    # OverflowError or ArithmeticError near z = 0
    P_MEMO = (0.05, 1.0 / 3.0, 0.5, 0.75, 1.5, 3.0, 4.0, 7.0, 100.0)
    Z_GRID = [10.0**-e for e in (300, 200, 100, 50, 30, 20, 16, 12, 9, 6, 4, 3, 2)] + [
        j / 20.0 for j in range(1, 20)
    ] + [0.0, 5e-324, 1.0]

    @staticmethod
    def fresh(p):
        """(a, b) of an exponent, with the memo emptied."""
        _beta_memo.cache_clear()
        return 2.0 / p, 1.0 - 1.0 / p

    @pytest.mark.parametrize("p", P_MEMO)
    @pytest.mark.parametrize("order", ("rising", "falling"))
    def test_equals_unmemoised_bit_for_bit(self, p, order):
        a, b = self.fresh(p)
        zs = self.Z_GRID if order == "rising" else self.Z_GRID[::-1]
        for z in zs:
            want = beta_outcome(unmemoised_incomplete_beta, a, b, z)
            # the first series call at p, the one that adds rows, a warm one
            for _ in range(3):
                assert beta_outcome(_incomplete_beta, a, b, z) == want, (p, z)

    def test_fresh_exponent_builds_only_the_rows_it_uses(self):
        a, b = self.fresh(2.7)  # z0 = 0.484
        used = {}
        for z in (0.48, 0.05, 0.3, 1e-3):  # 38, 39, 40 and 39 terms
            used[z] = []
            unmemoised_incomplete_beta(a, b, 1.0, z, used[z])
        _incomplete_beta(a, b, 1.0, 0.48)
        head, rows, coef = _beta_memo(a, b)  # the first series call: B_{x0} alone
        assert head is not None and rows == [] and coef == 1.0
        for z in (0.48, 0.05, 0.3):  # each adds the rows it reaches, no more
            _incomplete_beta(a, b, 1.0, z)
            assert _beta_memo(a, b)[1] == used[z]
        _incomplete_beta(a, b, 1.0, 1e-3)
        assert _beta_memo(a, b)[1] == used[0.3]
        assert [len(used[z]) for z in used] == [38, 39, 40, 39]

    def test_memo_is_bounded(self):
        _beta_memo.cache_clear()
        for j in range(600):
            p = 1.05 + j / 100.0
            a, b = 2.0 / p, 1.0 - 1.0 / p
            for _ in range(2):
                _incomplete_beta(a, b, 1.0, 0.01)
        info = _beta_memo.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize <= 512

    def test_threads_grow_one_set_of_rows(self):
        # threads that extend the rows of one exponent at once, each to its
        # own depth, leave rows equal to those of one thread, each built once
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for p in (1.5, 2.7, 4.0, 7.0):
                a, b = self.fresh(p)
                _incomplete_beta(a, b, 1.0, 0.05)  # the head, no rows
                zs = (1e-300, 1e-12, 1e-6, 1e-3, 0.02, 0.05)
                want = {z: beta_outcome(unmemoised_incomplete_beta, a, b, z) for z in zs}
                got, start = {}, threading.Barrier(len(zs), timeout=30)

                def run(z):
                    start.wait()
                    got[z] = [beta_outcome(_incomplete_beta, a, b, z) for _ in range(3)]

                threads = [threading.Thread(target=run, args=(z,)) for z in zs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert got == {z: [w] * 3 for z, w in want.items()}
                rows = []
                unmemoised_incomplete_beta(a, b, 1.0, 1e-300, rows)
                assert _beta_memo(a, b)[1] == rows
        finally:
            sys.setswitchinterval(switch)


class TestStrainBounds:
    def test_example_tuple(self):
        b = strain_bounds(mk(eta=2.0))
        assert tuple(b) == (1.0, 1.0, 1.0, 0.5)

    def test_decoupled_limits(self):
        b = strain_bounds(mk(beta=2.0, eta=4.0, iota=0.0))
        assert b.twist == pytest.approx(1 / 2.0)
        assert b.dilatation == pytest.approx(1 / 4.0)

    def test_coupled_values(self):
        b = strain_bounds(mk(eta=2.0, iota=1.0))
        assert b.twist == pytest.approx(2 / math.sqrt(3), rel=1e-15)
        assert b.dilatation == pytest.approx(1 / math.sqrt(3), rel=1e-15)


class TestSymmetry:
    def test_rotation_zero_is_identity(self):
        st = Strains(0.1, -0.2, 0.3, 0.05, 0.02, 1.1)
        out = symmetry_transform(st, "rotation", 0.0)
        np.testing.assert_allclose(out.as_array(), st.as_array(), rtol=0, atol=1e-15)

    def test_flip_action(self):
        out = symmetry_transform(Strains(1, 2, 3, 0, 0, 1), "flip")
        assert (out.u1, out.u2, out.u3) == (1.0, -2.0, 3.0)

    def test_quarter_turn(self):
        out = symmetry_transform(Strains(1, 0, 0, 0, 0, 1), "rotation", math.pi / 2)
        np.testing.assert_allclose(
            out.as_array(), [0, -1, 0, 0, 0, 1], rtol=0, atol=1e-15
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="^unknown symmetry kind 'reflect'$"):
            symmetry_transform(REF, "reflect")

    def test_hemitropy_and_flip_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            params = random_params(rng)
            st = random_strains(rng, params, q_target=rng.uniform(0, 0.95))
            w = stored_energy(params, st)
            q = strain_quad_form(params, st)
            rot = symmetry_transform(st, "rotation", rng.uniform(0, 2 * math.pi))
            flip = symmetry_transform(st, "flip")
            for other in (rot, flip):
                assert abs(strain_quad_form(params, other) - q) < 1e-12 * (1 + q)
                assert abs(stored_energy(params, other) - w) < 1e-12 * (1 + abs(w))

    def test_isotropy_iff_no_coupling(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            params = random_params(rng, coupling=0.0)  # iota = 0
            st = random_strains(rng, params, q_target=rng.uniform(0, 0.95))
            out = symmetry_transform(st, "flip_reflect")
            assert abs(
                stored_energy(params, out) - stored_energy(params, st)
            ) < 1e-12 * (1 + abs(stored_energy(params, st)))
        # explicit witness with u3*(v3-1) != 0 for iota != 0
        params = mk(eta=2.0, iota=1.0)
        st = Strains(0, 0, 0.3, 0, 0, 1.2)
        out = symmetry_transform(st, "flip_reflect")
        assert abs(stored_energy(params, out) - stored_energy(params, st)) > 1e-3

    def test_monotone_diagonal(self):
        # positive definiteness => strictly positive diagonal stiffnesses
        from limrod import stored_energy_hessian

        rng = np.random.default_rng(31)
        for _ in range(100):
            params = random_params(rng)
            st = random_strains(rng, params, q_target=rng.uniform(0, 0.99))
            diag = np.diag(stored_energy_hessian(params, st))
            assert (diag > 0).all()
