import copy
import json
import math
import pickle
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from limrod import (
    DefinitenessViolation,
    Loads,
    MaterialParams,
    NonPositiveParameter,
    Strains,
    complementary_energy,
    load_params,
    loads_from_strains,
    nondimensionalize,
    orientation_strong_ok,
    orientation_weak_ok,
    shear_factors,
    stored_energy_hessian,
    strain_bounds,
    strains_from_loads,
    validate,
)
from limrod.material import _constants

from conftest import mk, random_params


class TestValidate:
    def test_accepts_admissible_set(self):
        params = mk(eta=2.0, iota=0.5)
        assert validate(params) is params  # 1*4 - 0.25 > 0

    def test_rejects_indefinite_coupling(self):
        with pytest.raises(DefinitenessViolation):
            validate(mk(eta=1.0, iota=1.5))  # 1 - 2.25 < 0

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter) as exc:
            validate(mk(beta=-1.0, eta=2.0))
        assert exc.value.name == "beta"

    def test_rejects_nonfinite_iota(self):
        with pytest.raises(NonPositiveParameter):
            validate(mk(iota=math.nan))

    @pytest.mark.parametrize("name", ["alpha", "beta", "zeta", "eta"])
    @pytest.mark.parametrize("value", [1e160, 1e-163])
    def test_rejects_a_weight_squaring_outside_the_float_range(self, name, value):
        # alpha**2 once raised a bare OverflowError, and a square of 0 made
        # every forward call divide by zero
        message = f"material parameter '{name}' must have a nonzero, finite square, got {value!r}"
        with pytest.raises(NonPositiveParameter, match=f"^{re.escape(message)}$"):
            validate(replace(mk(eta=2.0), **{name: value}))

    def test_rejects_an_iota_squaring_to_inf(self):
        with pytest.raises(NonPositiveParameter, match=r"^material parameter 'iota' must have a finite square"):
            validate(mk(eta=2.0, iota=1e160))

    def test_rejects_an_overflowing_determinant(self):
        # beta^2 eta^2 = inf was accepted as > 0
        with pytest.raises(DefinitenessViolation, match=r"^beta\^2\*eta\^2 - iota\^2 = inf must be finite$"):
            validate(mk(beta=1e100, eta=1e100))

    def test_accepts_exactly_the_inequality_set(self):
        rng = np.random.default_rng(7)
        checked_invalid = 0
        for _ in range(500):
            vals = 10.0 ** rng.uniform(-1, 1, size=6)
            iota = rng.uniform(-3.0, 3.0)
            params = MaterialParams(
                alpha=vals[0], beta=vals[1], gamma=vals[2],
                zeta=vals[3], eta=vals[4], iota=iota, p=vals[5],
            )
            ok = params.beta**2 * params.eta**2 - iota**2 > 0
            if ok:
                assert validate(params) is params
            else:
                checked_invalid += 1
                with pytest.raises(DefinitenessViolation):
                    validate(params)
        assert checked_invalid > 20


class TestConstantsMemo:
    """Each parameter set's validated constants are computed once and kept
    in the instance; the contract is that nothing else about the instance
    changes."""

    LOADS = Loads(0.3, -0.2, 0.5, 0.1, 0.0, 1.25)
    NONPOSITIVE = "material parameter '{}' must be > 0, got {!r}"

    @pytest.mark.parametrize("bad, error, message", [
        (dict(alpha=-1.0), NonPositiveParameter, NONPOSITIVE.format("alpha", -1.0)),
        (dict(gamma=math.nan), NonPositiveParameter, NONPOSITIVE.format("gamma", math.nan)),
        (dict(iota=math.inf), NonPositiveParameter, NONPOSITIVE.format("iota", math.inf)),
        (dict(iota=1.5), DefinitenessViolation, "beta^2*eta^2 - iota^2 = -1.25 must be > 0"),
    ])
    def test_inadmissible_set_raises_on_every_call(self, bad, error, message):
        params = mk(**bad)  # constructs without error
        calls = [
            lambda: validate(params),
            lambda: strains_from_loads(params, self.LOADS),
            lambda: complementary_energy(params, self.LOADS),
            lambda: loads_from_strains(params, Strains.reference()),
            lambda: stored_energy_hessian(params, Strains.reference()),
            lambda: strain_bounds(params),
        ]
        for _ in range(2):
            for call in calls:
                with pytest.raises(error) as exc:
                    call()
                assert str(exc.value) == message
        assert "_constants" not in vars(params)

    def test_record_holds_the_checked_constants(self):
        params = mk(alpha=2.0, beta=3.0, gamma=5.0, zeta=0.5, eta=2.0, iota=-0.4, p=1.5)
        c = _constants(params)
        assert c is _constants(params) and vars(params)["_constants"] is c
        assert (c.p, c.gamma, c.iota) == (1.5, 5.0, -0.4)
        assert (c.a2, c.b2, c.z2, c.e2) == (4.0, 9.0, 0.25, 4.0)
        assert c.det == params.twist_stretch_det
        assert 0.0 < c.margin < 1e-12
        with pytest.raises(AttributeError):  # the record cannot be changed in place
            c.gamma = 1.0

    def test_dataclass_behaviour_unchanged(self):
        used, fresh = mk(eta=2.0, iota=0.5), mk(eta=2.0, iota=0.5)
        before = pickle.dumps(used)
        strains_from_loads(used, self.LOADS)
        assert "_constants" in vars(used) and "_constants" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and asdict(used) == asdict(fresh)
        assert pickle.dumps(used) == before == pickle.dumps(fresh)

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_build_their_own_record(self, clone):
        params = mk(eta=2.0, iota=0.5, p=3.0)
        want = strains_from_loads(params, self.LOADS)
        twin = clone(params)
        assert twin == params and "_constants" not in vars(twin)
        assert strains_from_loads(twin, self.LOADS) == want
        assert _constants(twin) == _constants(params)

    def test_replace_gets_a_fresh_record(self):
        params = mk(eta=2.0, iota=0.5)
        validate(params)
        other = replace(params, gamma=2.0, iota=-0.5)
        assert "_constants" not in vars(other)
        assert (_constants(other).gamma, _constants(other).iota) == (2.0, -0.5)
        assert strains_from_loads(other, self.LOADS) == strains_from_loads(
            mk(eta=2.0, iota=-0.5, gamma=2.0), self.LOADS
        )
        bad = replace(params, eta=0.25)  # det = 1/16 - 1/4 < 0
        with pytest.raises(DefinitenessViolation):
            strains_from_loads(bad, self.LOADS)

    def test_normalised_twin_is_kept(self):
        params = mk(alpha=2.0, gamma=5.0, eta=2.0, iota=0.5, ref_length=2.0)
        before = pickle.dumps(params)
        twin = nondimensionalize(params)
        assert nondimensionalize(params) is twin and vars(params)["_normalized"] is twin
        assert twin == mk(alpha=1.0, beta=0.5, eta=2.0, iota=0.25)
        assert _constants(twin) == _constants(mk(alpha=1.0, beta=0.5, eta=2.0, iota=0.25))
        assert pickle.dumps(params) == before  # neither the twin nor a record is pickled
        assert "_normalized" not in vars(copy.deepcopy(params))
        assert shear_factors(params, self.LOADS) == shear_factors(copy.copy(params), self.LOADS)

    def test_inadmissible_twin_raises_on_every_call(self):
        params = mk(alpha=1e-160, ref_length=1e300)  # admissible, but alpha/L underflows to 0
        for _ in range(2):
            with pytest.raises(NonPositiveParameter, match="'alpha' must be > 0, got 0.0"):
                shear_factors(params, self.LOADS)
        assert "_constants" not in vars(nondimensionalize(params))

    def test_returned_arrays_are_not_shared(self):
        params = mk(gamma=2.0, eta=2.0, iota=0.5)
        for st in (Strains.reference(), Strains(0.1, 0.0, 0.2, 0.0, 0.1, 1.1)):
            first = stored_energy_hessian(params, st)
            want = first.copy()
            first[:] = np.nan
            assert np.array_equal(stored_energy_hessian(params, st), want)


class TestNondimensionalize:
    def test_scales_lengths_and_force(self):
        out = nondimensionalize(mk(alpha=2.0, gamma=5.0, eta=2.0, ref_length=2.0))
        assert (out.alpha, out.gamma, out.ref_length) == (1.0, 1.0, 1.0)
        assert (out.beta, out.zeta, out.eta, out.p) == (0.5, 1.0, 2.0, 2.0)

    def test_identity_on_normalized(self):
        params = mk(eta=2.0)
        assert nondimensionalize(params) is params

    def test_signed_length_scaling(self):
        out = nondimensionalize(mk(alpha=3.0, beta=6.0, iota=-3.0, gamma=2.0, eta=2.0, ref_length=3.0))
        assert (out.alpha, out.beta, out.iota, out.ref_length, out.gamma) == (1.0, 2.0, -1.0, 1.0, 1.0)

    def test_idempotent_and_ratio_preserving(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_params(rng, normalized=False)
            out = nondimensionalize(params)
            assert out.is_normalized
            assert nondimensionalize(out) is out
            for a, b in [(out.alpha, params.alpha), (out.beta, params.beta), (out.iota, params.iota)]:
                assert a == pytest.approx(b / params.ref_length, rel=1e-15, abs=1e-15)
            assert (out.zeta, out.eta, out.p) == (params.zeta, params.eta, params.p)


class TestOrientationPredicates:
    def test_weak_true(self):
        assert orientation_weak_ok(mk(eta=2.0, iota=0.5))  # 1.25 < 4

    def test_weak_boundary_false(self):
        assert not orientation_weak_ok(mk(eta=1.0, iota=0.0))  # 1 < 1 fails

    def test_weak_false(self):
        assert not orientation_weak_ok(mk(beta=2.0, eta=1.0, iota=1.0))

    def test_strong_true_and_false(self):
        params = mk(eta=2.0)  # bound = 1 - 1/2 = 0.5
        assert orientation_strong_ok(params, 0.4)
        assert not orientation_strong_ok(params, 0.6)

    def test_strong_fails_when_weak_fails(self):
        params = mk(beta=2.0, eta=1.0, iota=1.0)
        assert not orientation_weak_ok(params)
        for a in (1e-6, 0.1, 10.0):
            assert not orientation_strong_ok(params, a)

    @pytest.mark.parametrize("radius", [0.0, -0.1, math.nan])
    def test_strong_rejects_a_nonpositive_radius(self, radius):
        with pytest.raises(ValueError, match="^cross_section_radius must be > 0, got "):
            orientation_strong_ok(mk(eta=2.0), radius)

    def test_strong_implies_weak(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(500):
            params = random_params(rng)
            a = 10.0 ** rng.uniform(-3, 0)
            if orientation_strong_ok(params, a):
                hits += 1
                assert orientation_weak_ok(params)
        assert hits > 10


class TestDerivedModuli:
    def test_values(self):
        m = mk(alpha=2.0, beta=3.0, gamma=5.0, zeta=0.5, eta=2.0, iota=-0.4).derived_moduli()
        assert m.bending == 20.0
        assert m.twisting == 45.0
        assert m.shearing == 1.25
        assert m.dilatational == 20.0
        assert m.twist_stretch == -2.0


class TestParameterFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "zeta": 1.0,
            "eta": 2.0, "iota": 0.5, "p": 2.0,
        }))
        params = load_params(path)
        assert params.ref_length == 1.0
        assert params.eta == 2.0
        validate(params)

    @pytest.mark.parametrize(
        "value, error",
        [
            ("NaN", "must be finite, got nan"),
            ("-Infinity", "must be finite, got -inf"),
            ("1e999", "must be finite, got inf"),  # json reads an overflowing number as inf
            ("true", "must be a number, got True"),
            ('"2"', "must be a number, got '2'"),
        ],
    )
    def test_rejects_non_numbers(self, tmp_path, value, error):
        path = tmp_path / "p.json"
        path.write_text(f'{{"alpha": {value}, "beta": 1, "gamma": 1, "zeta": 1, "eta": 2, "iota": 0, "p": 2}}')
        with pytest.raises(ValueError, match=f"^parameter 'alpha' {re.escape(error)}$"):
            load_params(path)

    def test_rejects_top_level_array(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 1, 1, 1, 2, 0, 2]")
        with pytest.raises(ValueError, match="^parameter file must contain a JSON object$"):
            load_params(path)

    def test_rejects_unknown_and_missing_keys(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"alpha": 1, "beta": 1, "gamma": 1, "zeta": 1, "eta": 2, "iota": 0, "p": 2, "bogus": 3}')
        with pytest.raises(ValueError, match="unknown"):
            load_params(path)
        path.write_text('{"alpha": 1}')
        with pytest.raises(ValueError, match="missing"):
            load_params(path)

    def test_bad_values_parse_but_fail_validation(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"alpha": 1, "beta": 1, "gamma": 1, "zeta": 1, "eta": 1, "iota": 1.5, "p": 2}')
        params = load_params(path)
        with pytest.raises(DefinitenessViolation):
            validate(params)
