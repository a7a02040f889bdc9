"""Stored-energy Hessian: entrywise oracle, finite differences, definiteness."""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from limrod import (
    MaterialParams,
    StrainOutOfRange,
    Strains,
    loads_from_strains,
    stored_energy_hessian,
    strain_quad_form,
)
from limrod.constitutive import _one_minus_qp

from conftest import P_GRID, mk, random_params, random_strains, strain_form_matrix


def hessian_entrywise(params: MaterialParams, strains: Strains) -> np.ndarray:
    """Independent oracle: each second derivative written out explicitly
    from differentiating the inverse map, block by block."""
    q = strain_quad_form(params, strains)
    p = params.p
    s = 1.0 - q ** (0.5 * p)
    c = s ** (-1.0 / p - 1.0)
    r = q ** (0.5 * p - 1.0)
    a2, b2, z2, e2 = params.alpha**2, params.beta**2, params.zeta**2, params.eta**2
    u = [strains.u1, strains.u2]
    v = [strains.v1, strains.v2]
    dv3 = strains.v3 - 1.0
    w3 = b2 * strains.u3 + params.iota * dv3
    w6 = params.iota * strains.u3 + e2 * dv3
    h = np.empty((6, 6))
    for mu in range(2):
        for nu in range(2):
            h[mu, nu] = c * ((s * a2 if mu == nu else 0.0) + r * (a2 * u[mu]) * (a2 * u[nu]))
            h[3 + mu, 3 + nu] = c * ((s * z2 if mu == nu else 0.0) + r * (z2 * v[mu]) * (z2 * v[nu]))
            h[mu, 3 + nu] = h[3 + nu, mu] = c * r * (a2 * u[mu]) * (z2 * v[nu])
        h[mu, 2] = h[2, mu] = c * r * a2 * u[mu] * w3
        h[mu, 5] = h[5, mu] = c * r * a2 * u[mu] * w6
        h[3 + mu, 2] = h[2, 3 + mu] = c * r * w3 * z2 * v[mu]
        h[3 + mu, 5] = h[5, 3 + mu] = c * r * z2 * v[mu] * w6
    h[2, 2] = c * (s * b2 + r * w3 * w3)
    h[5, 5] = c * (s * e2 + r * w6 * w6)
    h[2, 5] = h[5, 2] = c * (s * params.iota + r * w3 * w6)
    return params.gamma * h


class TestReferenceState:
    def test_identity_for_unit_decoupled_constants(self):
        h = stored_energy_hessian(mk(), Strains.reference())
        np.testing.assert_allclose(h, np.eye(6), rtol=0, atol=0)

    def test_coupled_block(self):
        h = stored_energy_hessian(mk(eta=2.0, iota=0.5), Strains.reference())
        expected = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 4.0])
        expected[2, 5] = expected[5, 2] = 0.5
        np.testing.assert_allclose(h, expected, rtol=0, atol=0)

    def test_small_q_uses_the_limit(self):
        # for p < 2 the naive factor Q^{p/2-1} blows up; the limit is exact
        params = mk(p=1.0, eta=2.0, iota=0.5)
        h = stored_energy_hessian(params, Strains(1e-9, 0, 0, 0, 0, 1.0))
        assert np.isfinite(h).all()
        np.testing.assert_allclose(h, stored_energy_hessian(params, Strains.reference()), atol=1e-8)


class TestAgainstOracles:
    @pytest.mark.parametrize("p", P_GRID)
    def test_entrywise_formulas(self, p):
        rng = np.random.default_rng(int(61 * p))
        for _ in range(50):
            params = random_params(rng, p=p, normalized=False)
            st = random_strains(rng, params, q_target=rng.uniform(1e-6, 0.99))
            h = stored_energy_hessian(params, st)
            np.testing.assert_allclose(h, hessian_entrywise(params, st), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("p", P_GRID)
    def test_finite_differences_of_inverse_map(self, p):
        rng = np.random.default_rng(int(67 * p))
        step = 1e-5
        for _ in range(20):
            params = random_params(rng, p=p)
            st = random_strains(rng, params, q_target=rng.uniform(0.05, 0.9))
            h = stored_energy_hessian(params, st)
            base = st.as_array()
            fd = np.empty((6, 6))
            for j in range(6):
                hi, lo = base.copy(), base.copy()
                hi[j] += step
                lo[j] -= step
                fd[:, j] = (
                    loads_from_strains(params, Strains(*hi)).as_array()
                    - loads_from_strains(params, Strains(*lo)).as_array()
                ) / (2 * step)
            scale = np.abs(h).max()
            assert np.abs(h - fd).max() < 1e-6 * scale

    def test_quadratic_form_identity(self):
        # (1 - Q^{p/2})^{1/p+1} z.Hz == gamma [(1 - Q^{p/2}) Q(z) + Q^{p/2-1} (w.z)^2]
        rng = np.random.default_rng(71)
        for _ in range(300):
            params = random_params(rng, p=float(rng.choice(P_GRID)), normalized=False)
            st = random_strains(rng, params, q_target=rng.uniform(1e-4, 0.99))
            q = strain_quad_form(params, st)
            p = params.p
            s = 1.0 - q ** (0.5 * p)
            m = strain_form_matrix(params)
            dev = st.as_array()
            dev[5] -= 1.0
            w = m @ dev
            z = rng.standard_normal(6)
            lhs = s ** (1.0 / p + 1.0) * (z @ stored_energy_hessian(params, st) @ z)
            rhs = params.gamma * (s * (z @ m @ z) + q ** (0.5 * p - 1.0) * (w @ z) ** 2)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestDefiniteness:
    def test_symmetric_and_positive_definite(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            params = random_params(rng)
            st = random_strains(rng, params, q_target=rng.uniform(0, 1 - 1e-3))
            h = stored_energy_hessian(params, st)
            assert np.abs(h - h.T).max() < 1e-12 * max(1.0, np.abs(h).max())
            assert np.linalg.eigvalsh(h).min() > 0.0

    def test_raises_outside_domain(self):
        with pytest.raises(StrainOutOfRange):
            stored_energy_hessian(mk(), Strains(0, 0, 1.0, 0, 0, 1))


class TestOverflowingFactor:
    """Where an entry of the Hessian would overflow, it raises
    StrainOutOfRange naming the strains, rather than returning inf, or NaN
    from inf times the zeros of M, with only a numpy warning."""

    ROOT = 0.36602540378443865  # (sqrt(3) - 1)/2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", (1.0, 2.0))
    def test_gamma_at_float_max(self, p):
        params = mk(gamma=sys.float_info.max, p=p)
        st = Strains(self.ROOT, -self.ROOT, 0, 0, self.ROOT, 1.0)
        with pytest.raises(StrainOutOfRange, match=re.escape(f"overflows at {st}")):
            stored_energy_hessian(params, st)
        # the reference-state limit gamma M stays finite
        assert np.isfinite(stored_energy_hessian(params, Strains.reference())).all()

    @pytest.mark.filterwarnings("error")
    def test_power_overflows_next_to_the_cap(self):
        # s ~ 2.5e-17 at p = 0.05: s^-21 overflows in the power itself
        st = Strains(0, 0, math.sqrt(1.0 - 1e-15), 0, 0, 1.0)
        with pytest.raises(StrainOutOfRange, match="overflows at Strains"):
            stored_energy_hessian(mk(p=0.05), st)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_finite_factor_times_a_form_weight_above_one(self, p):
        # gamma s^(-1/p-1) ~ 1e308 is finite, but times alpha^2 = 4 it is not;
        # Q = 4e-6 takes the general branch, the reference state the limit;
        # strains held as numpy scalars must raise too, not warn
        params = mk(alpha=2.0, gamma=1e308, p=p)
        for st in (Strains.reference(), Strains(1e-3, 0, 0, 0, 0, 1.0),
                   Strains(*np.array([1e-3, 0, 0, 0, 0, 1.0]))):
            with pytest.raises(StrainOutOfRange, match=re.escape(f"overflows at {st}")):
                stored_energy_hessian(params, st)
        # at alpha = 1 the same entries, about 1.002e308, are finite
        h = stored_energy_hessian(mk(gamma=1e308, p=p), Strains(1e-3, 0, 0, 0, 0, 1.0))
        assert np.isfinite(h).all()

    @pytest.mark.filterwarnings("error")
    def test_raises_at_most_a_factor_two_early(self):
        # gamma set so that the largest entry is f times the float maximum:
        # f = 1.1 overflows and must raise; at f = 0.4 the bound, at most
        # twice the largest entry, is finite, so only a factor
        # gamma s^(-1/p-1) that overflows by itself may raise
        rng, tried = np.random.default_rng(79), 0
        for _ in range(200):
            params = random_params(rng, p=float(rng.uniform(0.5, 5.0)))
            q_target = float(rng.choice([0.01, 0.5, 0.99, 1 - 1e-9]))
            st = Strains(*random_strains(rng, params, q_target).as_array().tolist())  # floats
            top = float(np.abs(stored_energy_hessian(params, st)).max())
            if not 1.1 * (sys.float_info.max / top) < math.inf:  # gamma itself would overflow
                continue
            with pytest.raises(StrainOutOfRange, match="overflows at Strains"):
                stored_energy_hessian(replace(params, gamma=1.1 * (sys.float_info.max / top)), st)
            low = replace(params, gamma=0.4 * (sys.float_info.max / top))
            s = _one_minus_qp(strain_quad_form(params, st), params.p)
            if low.gamma * s ** (-1.0 / params.p - 1.0) < math.inf:
                assert np.isfinite(stored_energy_hessian(low, st)).all()
                tried += 1
            else:
                with pytest.raises(StrainOutOfRange, match="overflows at Strains"):
                    stored_energy_hessian(low, st)
        assert tried > 100

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
    def test_large_gamma_stays_finite_where_the_factor_does(self, p):
        st = Strains(0.3, 0, 0, 0, 0.2, 1.1)
        h = stored_energy_hessian(mk(gamma=1e300, p=p), st)
        assert np.isfinite(h).all()
        np.testing.assert_allclose(h, 1e300 * stored_energy_hessian(mk(p=p), st), rtol=1e-15, atol=0)
