"""Material constants of the strain-limiting rod model.

The model is specified by seven constants plus a reference length:

    alpha, beta   bending / twisting coefficients        [length]
    gamma         overall force scale                    [force]
    zeta, eta     shearing / dilatational coefficients   [dimensionless]
    iota          twist-stretch coupling (chirality)     [signed length]
    p             limiting exponent                      [dimensionless]
    ref_length    reference (undeformed) rod length L    [length]

To leading order in the strains the constitutive response is linear with
moduli gamma*alpha^2 (bending), gamma*beta^2 (twisting), gamma*zeta^2
(shearing), gamma*eta^2 (dilatational) and gamma*iota (twist-stretch).
The sign of iota selects the handedness of the rod: iota > 0 models a
right-handed rod that unwinds under tension.

Admissibility requires all constants positive (iota may have either sign)
together with beta^2*eta^2 - iota^2 > 0, which makes the coupled
twist/stretch block of the strain quadratic form positive definite.

The closed-form equilibrium families are all written in the normalized
gauge ref_length = 1, gamma = 1; ``nondimensionalize`` rescales an
arbitrary parameter set into that gauge.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

from .errors import DefinitenessViolation, NonPositiveParameter

__all__ = [
    "MaterialParams",
    "DerivedModuli",
    "validate",
    "nondimensionalize",
    "orientation_weak_ok",
    "orientation_strong_bound",
    "orientation_strong_ok",
    "load_params",
]

_POSITIVE_FIELDS = ("alpha", "beta", "gamma", "zeta", "eta", "p", "ref_length")
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class MaterialParams:
    alpha: float
    beta: float
    gamma: float
    zeta: float
    eta: float
    iota: float
    p: float
    ref_length: float = 1.0

    @property
    def twist_stretch_det(self) -> float:
        """Determinant beta^2*eta^2 - iota^2 of the twist/stretch block."""
        return self.beta**2 * self.eta**2 - self.iota**2

    @property
    def is_normalized(self) -> bool:
        return self.ref_length == 1.0 and self.gamma == 1.0

    def derived_moduli(self) -> "DerivedModuli":
        """Small-strain moduli implied by the constants."""
        g = self.gamma
        return DerivedModuli(
            bending=g * self.alpha**2,
            twisting=g * self.beta**2,
            shearing=g * self.zeta**2,
            dilatational=g * self.eta**2,
            twist_stretch=g * self.iota,
        )

    def __getstate__(self) -> dict:
        # pickles and copies carry the fields only, not the memoised record or
        # normalised twin: each builds its own, never one from another version
        return {name: value for name, value in self.__dict__.items() if name[0] != "_"}


@dataclass(frozen=True)
class DerivedModuli:
    """Leading-order material moduli (force times appropriate length powers)."""

    bending: float
    twisting: float
    shearing: float
    dilatational: float
    twist_stretch: float


# a parameter set's validated constants as the kernels read them: squares,
# det = beta^2 eta^2 - iota^2, the forward map's projection margin and the
# load gate's largest up-scale exponent
_Constants = namedtuple("_Constants", "p gamma iota a2 b2 z2 e2 det margin up")


def _constants(params: MaterialParams) -> _Constants:
    """The set's constants, checked and computed on first use and kept in
    the instance's ``__dict__``; an inadmissible set raises here on every
    call, and nothing is kept for it."""
    record = params.__dict__.get("_constants")
    if record is not None:
        return record
    for name in _POSITIVE_FIELDS:
        value = getattr(params, name)
        if not (math.isfinite(value) and value > 0.0):
            raise NonPositiveParameter(name, value)
        if name in ("alpha", "beta", "zeta", "eta") and not 0.0 < value * value < math.inf:
            raise NonPositiveParameter(name, value, "must have a nonzero, finite square")
    if not math.isfinite(params.iota):
        raise NonPositiveParameter("iota", params.iota)
    if not math.isfinite(params.iota * params.iota):
        raise NonPositiveParameter("iota", params.iota, "must have a finite square")
    det = params.twist_stretch_det
    if not 0.0 < det < math.inf:
        raise DefinitenessViolation(
            f"beta^2*eta^2 - iota^2 = {det!r} must be " + ("> 0" if det < math.inf else "finite")
        )
    a2, b2, z2, e2 = params.alpha**2, params.beta**2, params.zeta**2, params.eta**2
    # The forward maps rescale a state with Q above 1 - margin once, to
    # 1 - 2 margin, so the margin bounds the wobble of Q re-evaluated on the
    # stored state: Q's relative rounding (the 1), and storing v3 = 1 + dv,
    # which moves Q by eps grad. No length unit enters; eta^2 is spare.
    root = math.sqrt(det)
    b_dil = params.beta / root
    grad = (e2 * b_dil + abs(params.iota) * (params.eta / root)) * (1.0 + b_dil)
    margin = 64.0 * _EPS * (1.0 + e2 + grad)
    if not margin < 0.5:  # else the rescale's target 1 - 2 margin is <= 0
        raise DefinitenessViolation(f"projection margin {margin!r} must be < 1/2")
    # The load gate scales loads by at most 2^up, so that loads below 1 in
    # magnitude keep gamma 2^up and Q* (at most 8 times the largest inverse
    # form weight, 1/a2, 1/z2, e2/det or b2/det) below 2^1024. The weights
    # are bounded by binary exponents, since one may itself overflow; up is
    # 0 where gamma or a weight leaves no room.
    e = math.frexp
    weight = max(2 - e(a2)[1], 2 - e(z2)[1], 1 + e(max(b2, e2))[1] - e(det)[1])
    up = min(max(1021 - max(weight, e(params.gamma)[1]), 0), 1023)
    record = _Constants(params.p, params.gamma, params.iota, a2, b2, z2, e2, det, margin, up)
    params.__dict__["_constants"] = record
    return record


def validate(params: MaterialParams) -> MaterialParams:
    """Check admissibility and return the parameter set unchanged.

    Raises NonPositiveParameter if any of alpha, beta, gamma, zeta, eta, p,
    ref_length fails strict positivity, alpha, beta, zeta or eta squares to
    0 or inf, or iota^2 is not finite; DefinitenessViolation if det =
    beta^2*eta^2 - iota^2 is <= 0 or inf, or if the forward maps' projection
    margin is >= 1/2 (eta >~ 5.9e6, or iota within ~1e-13 of +-beta*eta).

    The first check that passes memoises the set's derived constants in the
    instance's ``__dict__`` for every kernel to read; fields, ==, hash, repr,
    asdict and pickles are unaffected, copies and ``replace`` build their
    own, and an inadmissible set memoises nothing and raises on every call.
    """
    _constants(params)
    return params


def nondimensionalize(params: MaterialParams) -> MaterialParams:
    """Rescale to the gauge ref_length = 1, gamma = 1.

    Lengths (alpha, beta, iota) are divided by ref_length; gamma by itself.
    zeta, eta and p are dimensionless and unchanged. Idempotent. The
    rescaled set is built once per instance and kept in its ``__dict__``,
    as the constants are, so that it memoises its own record.
    """
    validate(params)
    if params.is_normalized:
        return params
    twin = params.__dict__.get("_normalized")
    if twin is None:
        L = params.ref_length  # fields alpha, beta, gamma, zeta, eta, iota, p
        twin = params.__dict__["_normalized"] = MaterialParams(
            params.alpha / L, params.beta / L, 1.0, params.zeta, params.eta, params.iota / L, params.p
        )
    return twin


def orientation_weak_ok(params: MaterialParams) -> bool:
    """True iff the dilatation stays positive for every admissible load.

    The bound on |v3 - 1| is beta/sqrt(beta^2*eta^2 - iota^2); the rod can
    never invert its tangent orientation when that bound is below one,
    i.e. when 1 + iota^2/beta^2 < eta^2.
    """
    validate(params)
    return 1.0 + params.iota**2 / params.beta**2 < params.eta**2


def orientation_strong_bound(params: MaterialParams) -> float:
    """Radius bound alpha * (1 - beta/sqrt(beta^2*eta^2 - iota^2)) of the
    strong orientation predicate; nonpositive whenever the weak one fails."""
    validate(params)
    return params.alpha * (1.0 - params.beta / math.sqrt(params.twist_stretch_det))


def orientation_strong_ok(params: MaterialParams, cross_section_radius: float) -> bool:
    """True iff a circular cross section of the given radius cannot locally
    self-penetrate at any admissible strain state: iff it is below
    ``orientation_strong_bound``."""
    bound = orientation_strong_bound(params)
    if not cross_section_radius > 0.0:
        raise ValueError(f"cross_section_radius must be > 0, got {cross_section_radius!r}")
    return cross_section_radius < bound


def load_params(path: str | Path) -> MaterialParams:
    """Read a parameter JSON file.

    Expected keys: alpha, beta, gamma, zeta, eta, iota, p and optionally
    ref_length (default 1.0). Values must be finite numbers (not NaN, 1e999
    or true); those and unknown keys raise ValueError. The returned set is
    *not* validated for admissibility; call ``validate`` for that.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("parameter file must contain a JSON object")
    required = {"alpha", "beta", "gamma", "zeta", "eta", "iota", "p"}
    allowed = required | {"ref_length"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = required - set(raw)
    if missing:
        raise ValueError(f"missing parameter keys: {sorted(missing)}")
    values: dict[str, float] = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"parameter {key!r} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"parameter {key!r} must be finite, got {value!r}")
        values[key] = float(value)
    values.setdefault("ref_length", 1.0)
    return MaterialParams(**values)
