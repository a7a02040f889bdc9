"""Constitutive core: exact maps between loads and strains.

State variables, always ordered (u1, u2, u3, v1, v2, v3):

    u1, u2  flexural strains            [1/length]
    u3      torsional strain (twist)    [1/length]
    v1, v2  shear strains               [dimensionless]
    v3      dilatation strain           [dimensionless, reference value 1]

and the work-conjugate loads (m1, m2, m3, n1, n2, n3): bending couples,
twisting couple, shear forces, tension, all in the director frame.

Two positive-definite quadratic forms drive everything.  On strain
deviations (u, v - e3):

    Q  = alpha^2 (u1^2 + u2^2) + beta^2 u3^2 + zeta^2 (v1^2 + v2^2)
         + eta^2 (v3 - 1)^2 + 2 iota u3 (v3 - 1)

and its convex dual on loads:

    Q* = (m1^2 + m2^2)/alpha^2 + (n1^2 + n2^2)/zeta^2
         + [eta^2 m3^2 + beta^2 n3^2 - 2 iota m3 n3] / (beta^2 eta^2 - iota^2)

The forward map scales the Q*-gradient by the saturating factor
F = (gamma^p + Q*^{p/2})^{-1/p}; it is total on all finite loads and its
output always satisfies Q < 1, which caps every strain component at a
finite bound no matter how large the loads grow.  The inverse map scales
the Q-gradient by G = gamma (1 - Q^{p/2})^{-1/p} and is defined only on
Q < 1.  Both derive from potentials (stored / complementary energy), so
the 6x6 stored-energy Hessian is symmetric, and it is positive definite
throughout the admissible range.

On the wire, Strains and Loads are flat JSON arrays of six numbers in the
field order above (``as_array``/``from_array``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import LoadOutOfRange, StrainOutOfRange
from .material import MaterialParams, validate

__all__ = [
    "Strains",
    "Loads",
    "StrainBounds",
    "strain_quad_form",
    "load_quad_form",
    "strains_from_loads",
    "strains_from_loads_batch",
    "loads_from_strains",
    "loads_from_strains_batch",
    "stored_energy",
    "complementary_energy",
    "stored_energy_hessian",
    "strain_bounds",
    "symmetry_transform",
]

_EPS = math.ulp(1.0)
_BATCH_BLOCK = 8192  # rows per pass of the batch forward map


@dataclass(frozen=True)
class Strains:
    u1: float
    u2: float
    u3: float
    v1: float
    v2: float
    v3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3, self.v1, self.v2, self.v3])

    @classmethod
    def from_array(cls, a: Iterable[float]) -> "Strains":
        u1, u2, u3, v1, v2, v3 = (float(x) for x in a)
        return cls(u1, u2, u3, v1, v2, v3)

    @classmethod
    def reference(cls) -> "Strains":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Loads:
    m1: float
    m2: float
    m3: float
    n1: float
    n2: float
    n3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3, self.n1, self.n2, self.n3])

    @classmethod
    def from_array(cls, a: Iterable[float]) -> "Loads":
        m1, m2, m3, n1, n2, n3 = (float(x) for x in a)
        return cls(m1, m2, m3, n1, n2, n3)

    @classmethod
    def zero(cls) -> "Loads":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class StrainBounds(tuple):
    """Open upper bounds on (u1^2+u2^2)^{1/2}, |u3|, (v1^2+v2^2)^{1/2}, |v3-1|."""

    __slots__ = ()

    def __new__(cls, flexure, twist, shear, dilatation):
        return super().__new__(cls, (flexure, twist, shear, dilatation))

    flexure = property(lambda self: self[0])
    twist = property(lambda self: self[1])
    shear = property(lambda self: self[2])
    dilatation = property(lambda self: self[3])


def _strain_form(params: MaterialParams, u1, u2, u3, v1, v2, dv3):
    # shared by the scalar/batch paths so both see bit-identical values
    return (
        params.alpha**2 * (u1 * u1 + u2 * u2)
        + params.beta**2 * (u3 * u3)
        + params.zeta**2 * (v1 * v1 + v2 * v2)
        + params.eta**2 * (dv3 * dv3)
        + 2.0 * params.iota * u3 * dv3
    )


def _load_form(params: MaterialParams, m1, m2, m3, n1, n2, n3):
    det = params.twist_stretch_det
    return (
        (m1 * m1 + m2 * m2) / params.alpha**2
        + (n1 * n1 + n2 * n2) / params.zeta**2
        + (params.eta**2 * (m3 * m3) + params.beta**2 * (n3 * n3) - 2.0 * params.iota * m3 * n3)
        / det
    )


def strain_quad_form(params: MaterialParams, strains: Strains) -> float:
    """Quadratic form Q on the strain deviation from the reference state."""
    validate(params)
    return _strain_form(
        params, strains.u1, strains.u2, strains.u3, strains.v1, strains.v2, strains.v3 - 1.0
    )


def load_quad_form(params: MaterialParams, loads: Loads) -> float:
    """Dual quadratic form Q* on the loads; overflows to inf (rather than
    raising) for load magnitudes beyond roughly 1e150."""
    validate(params)
    return _load_form(params, loads.m1, loads.m2, loads.m3, loads.n1, loads.n2, loads.n3)


def _one_minus_qp(q: float, p: float) -> float:
    """1 - Q^{p/2}, evaluated without cancellation loss near Q = 1."""
    if q <= 0.0:
        return 1.0
    if q > 0.5:
        return -math.expm1(0.5 * p * math.log(q))
    return 1.0 - q ** (0.5 * p)


def _inverse_factor(params: MaterialParams, q: float) -> float:
    """G = gamma (1 - Q^{p/2})^{-1/p} of the inverse map, in ``math`` floats
    for the scalar and the batch path alike."""
    return params.gamma * _one_minus_qp(q, params.p) ** (-1.0 / params.p)


def _strain_domain_error(q: float) -> StrainOutOfRange:
    return StrainOutOfRange(f"Q(u, v) = {q!r}" + (" >= 1" if q >= 1.0 else ""))


def _domain_q(params: MaterialParams, strains: Strains) -> float:
    """Q of a strain state, which must lie in the domain Q < 1 (NaN does not)."""
    q = strain_quad_form(params, strains)
    if not q < 1.0:
        raise _strain_domain_error(q)
    return q


def _interior_margin(params: MaterialParams) -> float:
    """Width of the boundary band inside which forward-map outputs get
    projected inward. Must dominate the float wobble of re-evaluating Q on
    the stored state, which scales with the form weights and the size of
    the limiting bounds."""
    root = math.sqrt(params.twist_stretch_det)
    b_dil = params.beta / root
    b_twist = params.eta / root
    grad = (params.eta**2 * b_dil + abs(params.iota) * b_twist) * (1.0 + b_dil)
    weight = max(
        params.alpha**2, params.beta**2, params.zeta**2, params.eta**2, abs(params.iota)
    )
    return 64.0 * _EPS * (1.0 + weight + grad)


def _nonfinite_loads(values) -> LoadOutOfRange:
    return LoadOutOfRange(f"loads are not all finite: {Loads.from_array(values)}")


def _pow2_scale(values) -> float:
    """2^-e, with e the binary exponent of max |value| when that exceeds 1,
    else 1. Every scaled value then lies below 1 in magnitude, up to the
    float64 maximum; the power of two is exact, and so is the product save
    for underflow, which is the correct limit."""
    c = max(map(abs, values))
    return math.ldexp(1.0, -math.frexp(c)[1]) if c > 1.0 else 1.0


def _factor(p: float, gp, qstar):
    """The saturating factor F = (gamma^p + Q*^{p/2})^{-1/p} of the forward
    map from gp = gamma^p, on floats or arrays: the one place F is written.
    The sheared branch function calls it with gp = N^-p (gamma = 1/N)."""
    return (gp + qstar ** (0.5 * p)) ** (-1.0 / p)


def _saturating_factor(p: float, g, qstar):
    """F at gamma = g, or 0 (F's limit at Q* = inf, the sign to prescale)
    where a power leaves the float range. ``qstar`` may be a function that
    forms Q*, so that a float ``**`` overflowing there is caught too."""
    try:
        return _factor(p, g**p, qstar() if callable(qstar) else qstar)
    except OverflowError:  # a float power; numpy's inf makes F 0 by itself
        return 0.0


def _scaled_factor(p: float, g, qstar: float) -> float:
    """F(g, Q*) = c F(c g, c^2 Q*), evaluated at the power of two c that
    brings max(g, sqrt(Q*)) into [1/2, 1): there F's powers see operands of
    order 1, so F keeps full accuracy, and none of them can overflow."""
    c = math.ldexp(1.0, -math.frexp(max(g, math.sqrt(qstar)))[1])
    return _factor(p, (g * c) ** p, qstar * c * c) * c


def _load_scale(params: MaterialParams, loads: Loads):
    """(Q*, k): Q* of the loads times k^2 for a power of two k, 1 where Q* is
    finite. Where it overflows (inf, or inf - inf = NaN) the loads are
    prescaled, so that sqrt(Q*)/k stays finite wherever sqrt(Q*) is."""
    qstar = _load_form(params, loads.m1, loads.m2, loads.m3, loads.n1, loads.n2, loads.n3)
    if qstar < math.inf:
        return qstar, 1.0
    values = (loads.m1, loads.m2, loads.m3, loads.n1, loads.n2, loads.n3)
    k = _pow2_scale(values)
    return _load_form(params, *(x * k for x in values)), k


def strains_from_loads(params: MaterialParams, loads: Loads) -> Strains:
    """Forward constitutive map; total on all finite loads.

    With F = (gamma^p + Q*^{p/2})^{-1/p} and det = beta^2 eta^2 - iota^2:

        u_mu   = F m_mu / alpha^2
        u3     = F (eta^2 m3 - iota n3) / det
        v_mu   = F n_mu / zeta^2
        v3 - 1 = F (-iota m3 + beta^2 n3) / det

    Loads and gamma are prescaled by an exact power of two k, so Q*^{p/2}
    never overflows, up to the float64 maximum in every component; where
    (gamma k)^p would, gamma joins the scale. The output satisfies
    Q(u, v) < 1 with every component strictly inside its limiting bound,
    at float level: deep in saturation, where rounding alone would park
    the state on the boundary, the deviation is projected inward by a few
    parts in 1e15. Raises LoadOutOfRange for a NaN or infinite component.
    """
    validate(params)
    values = (loads.m1, loads.m2, loads.m3, loads.n1, loads.n2, loads.n3)
    if not all(map(math.isfinite, values)):
        raise _nonfinite_loads(values)
    k = _pow2_scale(values)
    m1, m2, m3, n1, n2, n3 = values
    m1, m2, m3, n1, n2, n3 = m1 * k, m2 * k, m3 * k, n1 * k, n2 * k, n3 * k
    qstar = _load_form(params, m1, m2, m3, n1, n2, n3)
    f = _saturating_factor(params.p, params.gamma * k, qstar)
    if not f > 0.0:  # (gamma k)^p overflowed: gamma joins the scale
        k = _pow2_scale((params.gamma, *values))
        m1, m2, m3, n1, n2, n3 = (x * k for x in values)
        qstar = _load_form(params, m1, m2, m3, n1, n2, n3)
        f = _saturating_factor(params.p, params.gamma * k, qstar)
    dev = _forward_dev(params, f, m1, m2, m3, n1, n2, n3)
    margin = _interior_margin(params)
    for _ in range(4):
        dv3 = (1.0 + dev[5]) - 1.0
        q = _strain_form(params, dev[0], dev[1], dev[2], dev[3], dev[4], dv3)
        if q <= 1.0 - margin:
            break
        dev *= math.sqrt((1.0 - 2.0 * margin) / q)
    return Strains(
        u1=float(dev[0]),
        u2=float(dev[1]),
        u3=float(dev[2]),
        v1=float(dev[3]),
        v2=float(dev[4]),
        v3=float(1.0 + dev[5]),
    )


def _forward_dev(params: MaterialParams, f, m1, m2, m3, n1, n2, n3) -> np.ndarray:
    """Strain deviation (u, v - e3) of loads scaled by a power of two, with
    f the saturating factor at that scale. Floats give shape (6,), arrays
    of n rows (6, n)."""
    det = params.twist_stretch_det
    return np.array(
        [
            f * m1 / params.alpha**2,
            f * m2 / params.alpha**2,
            f * (params.eta**2 * m3 - params.iota * n3) / det,
            f * n1 / params.zeta**2,
            f * n2 / params.zeta**2,
            f * (-params.iota * m3 + params.beta**2 * n3) / det,
        ]
    )


def _project_inward(params: MaterialParams, dev: np.ndarray) -> None:
    """The scalar map's inward projection on the columns of ``dev`` (6, n):
    Q once over all columns, then re-evaluated and rescaled on the
    saturated columns only, up to four times."""
    margin = _interior_margin(params)
    sub, rows = dev, None
    for _ in range(4):
        q = _strain_form(params, *sub[:5], (1.0 + sub[5]) - 1.0)
        hit = np.flatnonzero(q > 1.0 - margin)
        if not hit.size:
            return
        rows = hit if rows is None else rows[hit]
        sub = sub[:, hit] * np.sqrt((1.0 - 2.0 * margin) / q[hit])
        dev[:, rows] = sub


def strains_from_loads_batch(params: MaterialParams, loads: np.ndarray) -> np.ndarray:
    """Vectorized forward map for load sweeps.

    ``loads`` has shape (n, 6) with columns (m1, m2, m3, n1, n2, n3); the
    result has shape (n, 6) with columns (u1, u2, u3, v1, v2, v3).
    Matches ``strains_from_loads`` row by row up to a few ulps (vectorized
    powers round differently from libm); total up to the float64 maximum.

    Rows are mapped ``_BATCH_BLOCK`` at a time, column by column, so each
    block's temporaries stay in cache; the inward projection re-evaluates
    only the saturated rows. Per row the arithmetic is that of a single
    whole-array pass, so the output equals that pass bit for bit (the
    tests keep it as the reference). Raises ValueError for any other
    shape, and LoadOutOfRange, with the scalar map's message, for the
    first row with a NaN or infinite component.
    """
    validate(params)
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != 6:
        raise ValueError(f"loads must have shape (n, 6), got {loads.shape}")
    out = np.empty(loads.shape)
    p, gamma = params.p, params.gamma
    for start in range(0, len(loads), _BATCH_BLOCK):
        cols = loads[start : start + _BATCH_BLOCK].T
        c = np.abs(cols[0])
        for col in cols[1:]:
            np.maximum(c, np.abs(col), out=c)
        finite = c < math.inf  # NaN propagates through np.maximum
        if not finite.all():
            raise _nonfinite_loads(loads[start + int(finite.argmin())])
        k = np.ldexp(1.0, -np.where(c > 1.0, np.frexp(c)[1], 0))  # _pow2_scale per row
        scaled = cols * k
        with np.errstate(over="ignore"):  # only a (gamma k)^p, rescaled below
            f = _saturating_factor(p, gamma * k, _load_form(params, *scaled))
        if not (f > 0.0).all():  # rows whose (gamma k)^p overflowed: gamma joins the scale
            over = np.flatnonzero(~(f > 0.0))
            k = np.ldexp(1.0, -np.frexp(np.maximum(c[over], gamma))[1])
            scaled[:, over] = cols[:, over] * k
            f[over] = _saturating_factor(p, gamma * k, _load_form(params, *scaled[:, over]))
        dev = _forward_dev(params, f, *scaled)
        _project_inward(params, dev)
        dev[5] += 1.0
        out[start : start + len(c)] = dev.T
    return out


def loads_from_strains(params: MaterialParams, strains: Strains) -> Loads:
    """Inverse constitutive map, defined on Q(u, v) < 1.

    With G = gamma (1 - Q^{p/2})^{-1/p}:

        m_mu = G alpha^2 u_mu
        m3   = G (beta^2 u3 + iota (v3 - 1))
        n_mu = G zeta^2 v_mu
        n3   = G (iota u3 + eta^2 (v3 - 1))
    """
    q = _domain_q(params, strains)
    G = _inverse_factor(params, q)
    dv3 = strains.v3 - 1.0
    return Loads(
        m1=G * params.alpha**2 * strains.u1,
        m2=G * params.alpha**2 * strains.u2,
        m3=G * (params.beta**2 * strains.u3 + params.iota * dv3),
        n1=G * params.zeta**2 * strains.v1,
        n2=G * params.zeta**2 * strains.v2,
        n3=G * (params.iota * strains.u3 + params.eta**2 * dv3),
    )


def loads_from_strains_batch(params: MaterialParams, strains: np.ndarray) -> np.ndarray:
    """Vectorized inverse map for sampled strain fields.

    ``strains`` has shape (n, 6) with columns (u1, u2, u3, v1, v2, v3); the
    result has shape (n, 6) with columns (m1, m2, m3, n1, n2, n3). Bit for
    bit equal to ``loads_from_strains`` row by row: Q is the same array
    arithmetic, and G comes from the scalar path's ``math`` helper one row
    at a time (numpy's vector log, expm1 and power round differently).
    Raises StrainOutOfRange, with the scalar message, for the first row
    outside Q < 1.
    """
    validate(params)
    strains = np.asarray(strains, dtype=float)
    if strains.ndim != 2 or strains.shape[1] != 6:
        raise ValueError(f"strains must have shape (n, 6), got {strains.shape}")
    u1, u2, u3, v1, v2, v3 = strains.T
    dv3 = v3 - 1.0
    q = _strain_form(params, u1, u2, u3, v1, v2, dv3)
    outside = ~(q < 1.0)
    if outside.any():
        raise _strain_domain_error(float(q[outside.argmax()]))
    G = np.fromiter((_inverse_factor(params, x) for x in q.tolist()), float, len(q))
    loads = np.empty_like(strains)
    loads[:, 0] = G * params.alpha**2 * u1
    loads[:, 1] = G * params.alpha**2 * u2
    loads[:, 2] = G * (params.beta**2 * u3 + params.iota * dv3)
    loads[:, 3] = G * params.zeta**2 * v1
    loads[:, 4] = G * params.zeta**2 * v2
    loads[:, 5] = G * (params.iota * u3 + params.eta**2 * dv3)
    return loads


def _beta_cf(a: float, b: float, x: float) -> float:
    """g with B_x(a, b) = x^a (1 - x)^b / (a g): DLMF 8.17.22 by modified Lentz."""
    c, d, g = 1.0, 0.0, 1.0
    for m in range(1, 500):
        for num in (
            -(a + m - 1.0) * (a + b + m - 1.0) * x / ((a + 2 * m - 2.0) * (a + 2 * m - 1.0)),
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
        ):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            g *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return g
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a!r}, b={b!r}, x={x!r}")


def _incomplete_beta(a: float, b: float, xa: float, z: float) -> float:
    """B_x(a, b) = integral_0^x t^{a-1} (1 - t)^{b-1} dt at x = 1 - z, given the
    exact complement z and xa = x^a (so nothing cancels near x = 1 or
    underflows at large a). The continued fraction up to x0 = (a + 1)/(a + b + 2)
    clamped to [1/2, 9/10]; beyond, B_{x0} plus integral_z^{z0} of the binomial
    series of (1 - t)^{a-1} times t^{b-1}, term by term (a log where b + k = 0),
    so b <= 0, where B_x diverges at x = 1, needs no Gamma-function poles."""
    x = 1.0 - z
    x0 = min(0.9, max(0.5, (a + 1.0) / (a + b + 2.0)))
    if x <= x0:
        return xa * z**b / (a * _beta_cf(a, b, x))
    z0 = 1.0 - x0
    log_ratio = math.log(z0 / z) if z > 0.0 else math.inf
    total, coef, k = x0**a * z0**b / (a * _beta_cf(a, b, x0)), 1.0, 0
    while True:
        e = b + k
        # (z0^e - z^e)/e, free of cancellation for e near 0
        term = coef * (log_ratio if e == 0.0 else z0**e * -math.expm1(-e * log_ratio) / e)
        total += term
        if k > a and abs(term) <= _EPS * total:
            return total
        coef *= (k + 1.0 - a) / (k + 1.0)
        k += 1


def _stored_beta(params: MaterialParams, q: float, s: float) -> float:
    """W = (gamma/p) B(Q^{p/2}; 2/p, 1 - 1/p), given Q and s = 1 - Q^{p/2}."""
    p = params.p
    return params.gamma / p * _incomplete_beta(2.0 / p, 1.0 - 1.0 / p, q, s)


def stored_energy(params: MaterialParams, strains: Strains) -> float:
    """Stored energy W = (gamma/2) * integral_0^Q (1 - t^{p/2})^{-1/p} dt.

    Zero at the reference state; its strain gradient is ``loads_from_strains``.
    Closed forms for p = 1 and p = 2; otherwise the exact reduction
    W = (gamma/p) B(Q^{p/2}; 2/p, 1 - 1/p) to an incomplete beta function.
    Against 40-digit mpmath the relative error is below 1e-14 for p in
    [0.25, 100] (1e-13 down to p = 0.05) and Q up to 1 - 1e-12.
    """
    q = _domain_q(params, strains)
    if q == 0.0:
        return 0.0
    g, p = params.gamma, params.p
    if p == 2.0:
        return g * (1.0 - math.sqrt(1.0 - q))
    if p == 1.0:
        rt = math.sqrt(q)
        return g * (-rt - math.log1p(-rt))
    return _stored_beta(params, q, _one_minus_qp(q, p))


def complementary_energy(params: MaterialParams, loads: Loads) -> float:
    """Complementary energy W* = (1/2) * integral_0^{Q*} (gamma^p + t^{p/2})^{-1/p} dt.

    Its load gradient reproduces the forward map (with the v3 slot shifted
    by -1). Closed forms for p = 1 and p = 2; otherwise the Legendre identity
    W* = F Q* - W(F^2 Q*), with 1 - Q^{p/2} = (gamma F)^p passed to W exactly.
    Against 40-digit mpmath the relative error is below 1e-14 for p in
    [0.05, 100] and Q* up to 1e300. The formulas run at the power-of-two
    scale k of ``_load_scale``, W*(gamma, Q*) = W*(k gamma, k^2 Q*)/k, so W*
    is finite wherever sqrt(Q*) is, and F comes from ``_scaled_factor``.
    Raises LoadOutOfRange if sqrt(Q*) is NaN or infinite.
    """
    validate(params)
    qstar, k = _load_scale(params, loads)
    rt = math.sqrt(qstar)
    if not rt / k < math.inf:
        raise LoadOutOfRange(f"sqrt Q*(m, n) = {rt / k!r} is not finite")
    if qstar == 0.0:
        return 0.0
    g, p = params.gamma * k, params.p
    if p == 2.0:
        return (math.sqrt(g**2 + qstar) - g) / k
    if p == 1.0:
        return (rt - g * math.log1p(rt / g)) / k
    f = _scaled_factor(p, g, qstar)
    work = f * qstar
    return work / k - _stored_beta(params, work * f, (g * f) ** p)


def _form_matrix(params: MaterialParams) -> np.ndarray:
    """Constant symmetric matrix of Q as a form on (u, v - e3)."""
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = params.alpha**2
    m[2, 2] = params.beta**2
    m[3, 3] = m[4, 4] = params.zeta**2
    m[5, 5] = params.eta**2
    m[2, 5] = m[5, 2] = params.iota
    return m


def stored_energy_hessian(params: MaterialParams, strains: Strains) -> np.ndarray:
    """6x6 Hessian of W in the order (u1, u2, u3, v1, v2, v3).

    With s = 1 - Q^{p/2}, M the constant form matrix of Q and
    w = M (u, v - e3):

        D^2 W = gamma * s^{-1/p-1} * (s M + Q^{p/2-1} w w^T)

    Symmetric, and positive definite on Q < 1. As Q -> 0 the rank-one term
    vanishes (for any p > 0), so the reference-state value is gamma * M;
    that limit is returned exactly for Q < 1e-14.
    """
    q = _domain_q(params, strains)
    m = _form_matrix(params)
    if q < 1e-14:
        return params.gamma * m
    p = params.p
    dev = strains.as_array()
    dev[5] -= 1.0
    w = m @ dev
    s = _one_minus_qp(q, p)
    return params.gamma * s ** (-1.0 / p - 1.0) * (s * m + q ** (0.5 * p - 1.0) * np.outer(w, w))


def strain_bounds(params: MaterialParams) -> StrainBounds:
    """Open bounds that forward-map outputs can approach but never attain."""
    validate(params)
    root = math.sqrt(params.twist_stretch_det)
    return StrainBounds(
        flexure=1.0 / params.alpha,
        twist=params.eta / root,
        shear=1.0 / params.zeta,
        dilatation=params.beta / root,
    )


def symmetry_transform(strains: Strains, kind: str, angle: float = 0.0) -> Strains:
    """Apply a transverse symmetry action to a strain state.

    The group acts on the strain deviation (u, v - e3):

        kind="rotation"      rotate both u and the deviation by ``angle``
                             about the rod axis (energy-invariant always)
        kind="flip"          (u1, -u2, u3), (v1, -v2, v3)
                             (energy-invariant always)
        kind="flip_reflect"  (u1, -u2, u3), deviation (-v1, v2, -(v3-1));
                             energy-invariant iff iota == 0

    For "rotation" and "flip" the action on the deviation coincides with
    the action on the raw tangent components, because both matrices fix e3.
    """
    u = np.array([strains.u1, strains.u2, strains.u3])
    dv = np.array([strains.v1, strains.v2, strains.v3 - 1.0])
    if kind == "rotation":
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        u, dv = rot @ u, rot @ dv
    elif kind == "flip":
        flip = np.array([1.0, -1.0, 1.0])
        u, dv = flip * u, flip * dv
    elif kind == "flip_reflect":
        u = np.array([1.0, -1.0, 1.0]) * u
        dv = np.array([-1.0, 1.0, -1.0]) * dv
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    return Strains(
        float(u[0]), float(u[1]), float(u[2]), float(dv[0]), float(dv[1]), float(1.0 + dv[2])
    )
