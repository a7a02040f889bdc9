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
import sys
import threading
from functools import lru_cache
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import LoadOutOfRange, StrainOutOfRange
from .material import MaterialParams, _constants, _Constants

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
_NONFINITE, _UNBOUNDED = "are not all finite", "map to strains whose Q(u, v) is not finite"
_TINY = sys.float_info.min  # below it a float has lost digits to underflow
_TINY_ROOT = math.sqrt(_TINY)  # 2^-511: a load below it has a subnormal square


class Strains(NamedTuple):
    u1: float
    u2: float
    u3: float
    v1: float
    v2: float
    v3: float

    def as_array(self) -> np.ndarray:
        return np.array(self)

    @classmethod
    def from_array(cls, a: Iterable[float]):
        x1, x2, x3, x4, x5, x6 = (float(x) for x in a)
        return cls(x1, x2, x3, x4, x5, x6)

    def __eq__(self, other) -> bool:  # never equal to Loads or a plain tuple
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def reference(cls) -> "Strains":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


class Loads(NamedTuple):
    m1: float
    m2: float
    m3: float
    n1: float
    n2: float
    n3: float

    # the wire form and the type-strict equality of Strains
    as_array, from_array = Strains.as_array, vars(Strains)["from_array"]
    __eq__, __ne__, __hash__ = Strains.__eq__, Strains.__ne__, tuple.__hash__

    @classmethod
    def zero(cls) -> "Loads":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class StrainBounds(NamedTuple):
    """Open upper bounds on (u1^2+u2^2)^{1/2}, |u3|, (v1^2+v2^2)^{1/2}, |v3-1|."""

    flexure: float
    twist: float
    shear: float
    dilatation: float


def _strain_form(c: _Constants, u1, u2, u3, v1, v2, dv3):
    """Q on the deviation (u, v - e3), on floats or arrays alike: the scalar
    and the batch maps share it, so both see the same bits."""
    return (
        c.a2 * (u1 * u1 + u2 * u2)
        + c.b2 * (u3 * u3)
        + c.z2 * (v1 * v1 + v2 * v2)
        + c.e2 * (dv3 * dv3)
        + 2.0 * c.iota * u3 * dv3
    )


def _form_apply(c: _Constants, s, u1, u2, u3, v1, v2, dv3):
    """s M (u, v - e3), M the form matrix of Q, on floats or arrays: both
    inverse maps (s = G) and the Hessian's gradient (s = 1, exact) share it."""
    return (
        s * c.a2 * u1, s * c.a2 * u2, s * (c.b2 * u3 + c.iota * dv3),
        s * c.z2 * v1, s * c.z2 * v2, s * (c.iota * u3 + c.e2 * dv3),
    )


def _load_form(c: _Constants, m1, m2, m3, n1, n2, n3):
    return (
        (m1 * m1 + m2 * m2) / c.a2
        + (n1 * n1 + n2 * n2) / c.z2
        + (c.e2 * (m3 * m3) + c.b2 * (n3 * n3) - 2.0 * c.iota * m3 * n3) / c.det
    )


def strain_quad_form(params: MaterialParams, strains: Strains) -> float:
    """Quadratic form Q on the strain deviation from the reference state."""
    return _strain_form(
        _constants(params),
        strains.u1, strains.u2, strains.u3, strains.v1, strains.v2, strains.v3 - 1.0,
    )


def load_quad_form(params: MaterialParams, loads: Loads) -> float:
    """Dual quadratic form Q* on the loads; overflows to inf (rather than
    raising) for load magnitudes beyond roughly 1e150."""
    c = _constants(params)
    return _load_form(c, loads.m1, loads.m2, loads.m3, loads.n1, loads.n2, loads.n3)


def _one_minus_qp(q: float, p: float) -> float:
    """1 - Q^{p/2}, evaluated without cancellation loss near Q = 1."""
    if q <= 0.0:
        return 1.0
    if q > 0.5:
        return -math.expm1(0.5 * p * math.log(q))
    return 1.0 - q ** (0.5 * p)


def _inverse_factor(gamma: float, p: float, q: float) -> float:
    """G = gamma (1 - Q^{p/2})^{-1/p} of the inverse map, in ``math`` floats
    for the scalar and the batch path alike. It takes gamma and p as floats,
    which the batch path reads from the record once rather than per row."""
    return gamma * _one_minus_qp(q, p) ** (-1.0 / p)


def _strain_domain_error(q: float) -> StrainOutOfRange:
    return StrainOutOfRange(f"Q(u, v) = {q!r}" + (" >= 1" if q >= 1.0 else ""))


def _domain_q(c: _Constants, strains: Strains) -> float:
    """Q of a strain state, which must lie in the domain Q < 1 (NaN does not)."""
    q = _strain_form(
        c, strains.u1, strains.u2, strains.u3, strains.v1, strains.v2, strains.v3 - 1.0
    )
    if not q < 1.0:
        raise _strain_domain_error(q)
    return q


def _load_error(values, why: str = _NONFINITE) -> LoadOutOfRange:
    return LoadOutOfRange(f"loads {why}: {Loads.from_array(values)}")


def _factor(p: float, gp, qstar):
    """The saturating factor F = (gamma^p + Q*^{p/2})^{-1/p} of the forward
    map from gp = gamma^p, on floats or arrays: the one place F is written.
    The sheared branch function calls it with gp = N^-p (gamma = 1/N)."""
    return (gp + qstar ** (0.5 * p)) ** (-1.0 / p)


def _saturating_factor(p: float, g, qstar):
    """F at gamma = g, on floats or arrays: the plain ``_factor`` where its
    powers and their sum are normal floats, else ``_scaled_factor``, so F
    keeps full accuracy for every g and Q*. 0, F's limit, only where Q* is
    inf. The forward maps are its consumers. On arrays the caller silences
    numpy's range warnings."""
    if isinstance(g, np.ndarray):
        s = g**p + qstar ** (0.5 * p)
        f = s ** (-1.0 / p)
        if not (s.min() >= _TINY and 0.0 < f.min() and f.max() < math.inf):  # the rows out of range
            out = np.flatnonzero(~((s >= _TINY) & (f > 0.0) & (f < math.inf)))
            f[out] = _scaled_factor(p, g[out], qstar[out])
        return f
    f = 0.0
    try:
        s = g**p + qstar ** (0.5 * p)
        if s >= _TINY:  # _factor's sum and power, so those inputs keep its bits
            f = s ** (-1.0 / p)
    except OverflowError:  # a power beyond the float range
        pass
    return f if f > 0.0 else _scaled_factor(p, g, qstar)


def _scaled_factor(p: float, g, qstar, k: float = 1.0):
    """F(g k, Q*) = c F(c g k, c^2 Q*), evaluated at the power of two c that
    brings max(g k, sqrt(Q*)) into [1/2, 1): there F's powers see operands
    of order 1, so F keeps full accuracy, and none of them can overflow.
    g (k c) keeps the digits of a gamma scaled by a power of two k where
    g k alone would underflow. On floats or arrays."""
    if isinstance(g, np.ndarray):
        c = np.ldexp(1.0, -np.frexp(np.maximum(g * k, np.sqrt(qstar)))[1])
    else:
        c = math.ldexp(1.0, -math.frexp(max(g * k, math.sqrt(qstar)))[1])
    return _factor(p, (g * (k * c)) ** p, qstar * c * c) * c


def _load_gate(c: _Constants, loads: Loads) -> tuple:
    """(k, top, scaled loads, Q*), the range gate of every scalar kernel
    that takes loads: top = max |component|, k = 2^-e with e the binary
    exponent of top where top > 1, else 1, so the scaled loads lie below 1
    in magnitude up to the float64 maximum (the power of two is exact), and
    Q* of the scaled loads. Raises LoadOutOfRange for a NaN or infinite
    component, and where Q* overflows (a form weight below about 1e-154)."""
    values = m1, m2, m3, n1, n2, n3 = loads.m1, loads.m2, loads.m3, loads.n1, loads.n2, loads.n3
    if not math.isfinite(m1 + m2 + m3 + n1 + n2 + n3) and not all(map(math.isfinite, values)):
        raise _load_error(values)  # a sum of finite loads may overflow
    top = max(abs(m1), abs(m2), abs(m3), abs(n1), abs(n2), abs(n3))
    k = math.ldexp(1.0, -math.frexp(top)[1]) if top > 1.0 else 1.0
    scaled = m1 * k, m2 * k, m3 * k, n1 * k, n2 * k, n3 * k
    qstar = _load_form(c, *scaled)
    if not qstar < math.inf:
        raise _load_error(values, _UNBOUNDED)
    return k, top, scaled, qstar


def strains_from_loads(params: MaterialParams, loads: Loads) -> Strains:
    """Forward constitutive map; total on all finite loads.

    With F = (gamma^p + Q*^{p/2})^{-1/p} and det = beta^2 eta^2 - iota^2:

        u_mu   = F m_mu / alpha^2
        u3     = F (eta^2 m3 - iota n3) / det
        v_mu   = F n_mu / zeta^2
        v3 - 1 = F (-iota m3 + beta^2 n3) / det

    ``_load_gate`` prescales the loads by a power of two, and F comes from
    ``_saturating_factor``; loads whose squares or Q* would lose digits to
    underflow go to the batch map, which scales them up. So the map is
    total for every gamma and all loads up to the float64 maximum, and
    keeps its accuracy down to subnormal loads. The output satisfies
    Q(u, v) < 1 with every component strictly inside its limiting bound:
    where Q of the stored state exceeds 1 - margin, the deviation is
    rescaled once, to Q = 1 - 2 margin. The margin (``material._constants``)
    bounds the rounding of that Q and has no length unit, so a change of
    unit scales the strains as it scales the loads; it is 1.1e-13 on demo.
    Raises LoadOutOfRange where the gate does, and where Q of the strains
    is not finite (u1 u1 overflows in Q at alpha <~ 1e-154).
    """
    c = _constants(params)
    k, top, scaled, qstar = _load_gate(c, loads)
    if 0.0 < top <= 1.0 and (qstar < _TINY or top < _TINY_ROOT):  # digits lost to underflow
        return Strains.from_array(strains_from_loads_batch(params, [scaled])[0])
    f = _saturating_factor(c.p, c.gamma * k, qstar)
    u1, u2, u3, v1, v2, dv = _forward_dev(c, f, *scaled)
    q = _strain_form(c, u1, u2, u3, v1, v2, (1.0 + dv) - 1.0)  # on the stored state
    if not q <= 1.0 - c.margin:  # the inward projection: one rescale
        if not q < math.inf:
            raise _load_error(loads.as_array(), _UNBOUNDED)
        r = math.sqrt((1.0 - 2.0 * c.margin) / q)
        u1, u2, u3, v1, v2, dv = u1 * r, u2 * r, u3 * r, v1 * r, v2 * r, dv * r
    # float(): loads given as numpy scalars still give float strains
    return Strains(float(u1), float(u2), float(u3), float(v1), float(v2), float(1.0 + dv))


def _forward_dev(c: _Constants, f, m1, m2, m3, n1, n2, n3) -> tuple:
    """The six components of the strain deviation (u, v - e3) of loads
    scaled by a power of two, with f the saturating factor at that scale:
    floats, or arrays of n rows."""
    return (
        f * m1 / c.a2,
        f * m2 / c.a2,
        f * (c.e2 * m3 - c.iota * n3) / c.det,
        f * n1 / c.z2,
        f * n2 / c.z2,
        f * (-c.iota * m3 + c.b2 * n3) / c.det,
    )


def strains_from_loads_batch(params: MaterialParams, loads: np.ndarray) -> np.ndarray:
    """Vectorized forward map for load sweeps.

    ``loads`` has shape (n, 6) with columns (m1, m2, m3, n1, n2, n3); the
    result has shape (n, 6) with columns (u1, u2, u3, v1, v2, v3).
    Matches ``strains_from_loads`` row by row up to a few ulps (vectorized
    powers round differently from libm); total up to the float64 maximum.
    Rows whose squares or Q* would lose digits to underflow are scaled up
    by a power of two u: F = u F(u gamma, u^2 Q*) from ``_scaled_factor``,
    and the deviation of the scaled loads is divided by u last, so it is
    rounded once. The scalar map hands such rows here.

    Rows are mapped ``_BATCH_BLOCK`` at a time, column by column, so each
    block's temporaries stay in cache, with the scalar map's inward
    projection: Q once per block, and one rescale of each saturated row.
    Per row the arithmetic is that of a single whole-array pass, bit for bit.
    Raises ValueError for any other shape, and the scalar map's
    LoadOutOfRange for a block's first row that ``_load_gate`` refuses,
    with the gate's message, else its first row whose Q is not finite.
    """
    c = _constants(params)
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != 6:
        raise ValueError(f"loads must have shape (n, 6), got {loads.shape}")
    out = np.empty(loads.shape)
    p, gamma = c.p, c.gamma
    # the largest up-scale 2^cap keeping gamma and every strain bound times it finite
    cap = max(1021 - math.frexp(min(max(gamma, *strain_bounds(params), 1.0), sys.float_info.max))[1], 0)
    for start in range(0, len(loads), _BATCH_BLOCK):
        cols = loads[start : start + _BATCH_BLOCK].T
        top = np.abs(cols[0])
        for col in cols[1:]:
            np.maximum(top, np.abs(col), out=top)
        k = np.ldexp(1.0, -np.where(top > 1.0, np.frexp(top)[1], 0))  # _load_gate's k per row
        scaled = cols * k
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # redone, or raises
            g, qstar = gamma * k, _load_form(c, *scaled)
            if not qstar.max() < math.inf:  # _load_gate's refusals; a non-finite load makes one
                i = int((qstar < math.inf).argmin())
                raise _load_error(cols[:, i], _UNBOUNDED if top[i] < math.inf else _NONFINITE)
            up, u, f_up = slice(0), 1.0, 1.0  # no row scaled up
            if qstar.min() < _TINY or top.min() < _TINY_ROOT:  # the rows of the scalar map's test
                up = np.flatnonzero(((qstar < _TINY) | (top < _TINY_ROOT)) & (top > 0.0) & (top <= 1.0))
                # up to a largest magnitude in [2^-33, 2^-32): normal squares, and Q*
                # finite for every form weight up to 1/5e-324
                u = np.ldexp(1.0, np.clip(-32 - np.frexp(top[up])[1], 0, cap))
                scaled[:, up] = cols[:, up] * u
                g[up], qstar[up] = gamma * u, _load_form(c, *scaled[:, up])
                f_up = _scaled_factor(p, g[up], qstar[up]) * u  # F = u F(u gamma, u^2 Q*)
            f = _saturating_factor(p, g, qstar)
            f[up] = f_up
            dev = np.array(_forward_dev(c, f, *scaled))
            dev[:, up] /= u  # the deviation of the scaled loads, rounded once
            q = _strain_form(c, *dev[:5], (1.0 + dev[5]) - 1.0)  # the scalar map's projection
            hit = np.flatnonzero(~(q <= 1.0 - c.margin))  # NaN included
            q = q[hit]
            if not (q < math.inf).all():
                raise _load_error(cols[:, hit[(q < math.inf).argmin()]], _UNBOUNDED)
            dev[:, hit] *= np.sqrt((1.0 - 2.0 * c.margin) / q)
        dev[5] += 1.0
        out[start : start + len(top)] = dev.T
    return out


def loads_from_strains(params: MaterialParams, strains: Strains) -> Loads:
    """Inverse constitutive map, defined on Q(u, v) < 1.

    With G = gamma (1 - Q^{p/2})^{-1/p}:

        m_mu = G alpha^2 u_mu
        m3   = G (beta^2 u3 + iota (v3 - 1))
        n_mu = G zeta^2 v_mu
        n3   = G (iota u3 + eta^2 (v3 - 1))
    """
    c = _constants(params)
    G = _inverse_factor(c.gamma, c.p, _domain_q(c, strains))
    return Loads(*_form_apply(
        c, G, strains.u1, strains.u2, strains.u3, strains.v1, strains.v2, strains.v3 - 1.0
    ))


def loads_from_strains_batch(params: MaterialParams, strains: np.ndarray) -> np.ndarray:
    """Vectorized inverse map for sampled strain fields.

    ``strains`` has shape (n, 6) with columns (u1, u2, u3, v1, v2, v3); the
    result has shape (n, 6) with columns (m1, m2, m3, n1, n2, n3). Bit for
    bit equal to ``loads_from_strains`` row by row: Q is the same array
    arithmetic, and G comes from the scalar path's ``math`` helper
    (numpy's vector log, expm1 and power round differently), called once
    per distinct bit pattern of Q and gathered back to the rows: a
    straight state's rows share a handful of Q values.
    Raises StrainOutOfRange, with the scalar message, for the first row
    outside Q < 1.
    """
    c = _constants(params)
    strains = np.asarray(strains, dtype=float)
    if strains.ndim != 2 or strains.shape[1] != 6:
        raise ValueError(f"strains must have shape (n, 6), got {strains.shape}")
    u1, u2, u3, v1, v2, v3 = strains.T
    dv3 = v3 - 1.0
    q = _strain_form(c, u1, u2, u3, v1, v2, dv3)
    outside = ~(q < 1.0)
    if outside.any():
        raise _strain_domain_error(float(q[outside.argmax()]))
    gamma, p = c.gamma, c.p
    distinct, rows = np.unique(q.view(np.int64), return_inverse=True)
    G = np.fromiter(
        (_inverse_factor(gamma, p, x) for x in distinct.view(float).tolist()), float, len(distinct)
    )[rows]
    return np.stack(_form_apply(c, G, u1, u2, u3, v1, v2, dv3), axis=1)


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


_BETA_LOCK = threading.Lock()  # rows grow under it, so none is built twice or skipped


@lru_cache(maxsize=256)  # the last 256 exponents, a few KiB each
def _beta_memo(a: float, b: float) -> list:
    """[head, rows, coef] of the series branch of ``_incomplete_beta`` at
    (a, b): B_{x0}(a, b), None until the first series call; a list with one
    row (k > a, e = b + k, z0^e, binomial coefficient) per term built; and
    the binomial coefficient of the next term."""
    return [None, [], 1.0]


def _beta_rows(memo: list, a: float, b: float, z0: float):
    """The series rows past those in ``memo``, up to the 500th, each added
    to it as it is made."""
    rows = memo[1]
    for k in range(len(rows), 500):
        e = b + k
        rows.append((k > a, e, z0**e, memo[2]))
        memo[2] *= (k + 1.0 - a) / (k + 1.0)
        yield rows[-1]


def _incomplete_beta(a: float, b: float, xa: float, z: float) -> float:
    """B_x(a, b) = integral_0^x t^{a-1} (1 - t)^{b-1} dt at x = 1 - z, given the
    exact complement z and xa = x^a (so nothing cancels near x = 1 or
    underflows at large a). The continued fraction up to x0 = (a + 1)/(a + b + 2)
    clamped to [1/2, 9/10]; beyond, B_{x0} plus integral_z^{z0} of the binomial
    series of (1 - t)^{a-1} times t^{b-1}, term by term (a log where b + k = 0),
    so b <= 0, where B_x diverges at x = 1, needs no Gamma-function poles.
    What depends on (a, b) alone, B_{x0} and each term's b + k, z0^{b+k}
    and binomial coefficient, is computed once (``_beta_memo``). The first
    series call at (a, b) computes B_{x0} and sums its terms as it makes
    them, so an exponent met once builds no rows; each later call reads
    the rows built and adds those it reaches beyond them, and no more. A
    call is left with expm1 and the same products and sums, in the same
    order, so its bits are those of computing everything anew."""
    x = 1.0 - z
    x0 = min(0.9, max(0.5, (a + 1.0) / (a + b + 2.0)))
    if x <= x0:
        return xa * z**b / (a * _beta_cf(a, b, x))
    z0 = 1.0 - x0
    log_ratio = math.log(z0 / z) if z > 0.0 else math.inf
    memo = _beta_memo(a, b)
    if memo[0] is None:  # the first series call at (a, b): B_{x0}, and no rows
        total, coef = x0**a * z0**b / (a * _beta_cf(a, b, x0)), 1.0
        memo[0] = total
        for k in range(500):
            e = b + k
            # (z0^e - z^e)/e, free of cancellation for e near 0
            term = coef * (log_ratio if e == 0.0 else z0**e * -math.expm1(-e * log_ratio) / e)
            total += term
            if k > a and abs(term) <= _EPS * total:
                return total
            coef *= (k + 1.0 - a) / (k + 1.0)
    else:  # the same terms from the rows built, and those it reaches beyond
        total = memo[0]
        with _BETA_LOCK:
            for past_a, e, z0e, coef in chain(memo[1], _beta_rows(memo, a, b, z0)):
                term = coef * (log_ratio if e == 0.0 else z0e * -math.expm1(-e * log_ratio) / e)
                total += term
                if past_a and abs(term) <= _EPS * total:
                    return total
    raise ArithmeticError(f"incomplete beta series did not converge at a={a!r}, b={b!r}, z={z!r}")


def _log1p_series(x: float) -> float:
    """s(x) with x - log(1 + x) = x s(x)/(2 + x), free of cancellation for
    |x| <= 1/2: s = x - 2 y^2 S, the series in y = x/(2 + x) with
    S = sum_j y^2j/(2j + 3) and y^2 <= 1/9."""
    y2, total, term, d = (x / (2.0 + x)) ** 2, 0.0, 1.0, 3.0
    while term > _EPS:
        total, term, d = total + term / d, term * y2, d + 2.0
    return x - 2.0 * y2 * total


def _stored_beta(c: _Constants, q: float, s: float) -> float:
    """W = (gamma/p) B(Q^{p/2}; 2/p, 1 - 1/p), given Q and s = 1 - Q^{p/2}."""
    p = c.p
    return c.gamma / p * _incomplete_beta(2.0 / p, 1.0 - 1.0 / p, q, s)


def stored_energy(params: MaterialParams, strains: Strains) -> float:
    """Stored energy W = (gamma/2) * integral_0^Q (1 - t^{p/2})^{-1/p} dt.

    Zero at the reference state; its strain gradient is ``loads_from_strains``.
    Closed forms for p = 2, gamma Q/(1 + sqrt(1 - Q)), and p = 1,
    gamma (x - log(1 + x)) at x = -sqrt(Q), both free of cancellation at
    small Q; for p = 1 above sqrt(Q) = 1/2, log(1 + x) is taken as
    log((1 - Q)/(1 + sqrt(Q))), so that near the cap it sees the exact
    1 - Q rather than 1 minus the rounded sqrt(Q); otherwise the exact reduction
    W = (gamma/p) B(Q^{p/2}; 2/p, 1 - 1/p) to an incomplete beta function.
    Against 40-digit mpmath the relative error is below 1e-14 for p in
    [0.25, 100] (1e-13 down to p = 0.05) and Q up to 1 - 1e-12.
    """
    c = _constants(params)
    q = _domain_q(c, strains)
    if q == 0.0:
        return 0.0
    g, p = c.gamma, c.p
    if p == 2.0:
        return g * q / (1.0 + math.sqrt(1.0 - q))
    if p == 1.0:
        rt = math.sqrt(q)
        if rt > 0.5:  # log(1 - rt) from 1 - Q, exact near the cap, not the rounded rt
            return g * (-rt - math.log((1.0 - q) / (1.0 + rt)))
        return g * -rt * _log1p_series(-rt) / (2.0 - rt)
    return _stored_beta(c, q, _one_minus_qp(q, p))


def complementary_energy(params: MaterialParams, loads: Loads) -> float:
    """Complementary energy W* = (1/2) * integral_0^{Q*} (gamma^p + t^{p/2})^{-1/p} dt.

    Its load gradient reproduces the forward map (with the v3 slot shifted
    by -1). Closed forms for p = 1 and p = 2, free of cancellation where
    Q* << gamma^2 (within 2e-16 of 50-digit mpmath there); otherwise the
    Legendre identity W* = F Q* - W(F^2 Q*), with 1 - Q^{p/2} = (gamma F)^p
    passed to W exactly. Against 40-digit mpmath the relative error is
    below 1e-14 for p in [0.05, 100] and Q* up to 1e300. The formulas run
    at the power-of-two scale k of ``_load_gate``, W*(gamma, Q*) =
    W*(k gamma, k^2 Q*)/k, so W* is finite wherever sqrt(Q*) is, and F
    comes from ``_scaled_factor``. For p < 1, W ~ W* (gamma F)^p/(1 - p)
    is below an ulp where (gamma F)^p < eps (1 - p), and is left out. Where
    Q = F^2 Q* is subnormal (gamma >~ 1e150), the kernel gets gamma Q as
    (gamma F)(F Q*), which keeps its digits.
    Raises LoadOutOfRange where the gate does, or sqrt(Q*) overflows.
    """
    c = _constants(params)
    k, _, _, qstar = _load_gate(c, loads)
    rt = math.sqrt(qstar)
    if not rt / k < math.inf:
        raise LoadOutOfRange(f"sqrt Q*(m, n) = {rt / k!r} is not finite")
    if qstar == 0.0:
        return 0.0
    g, p = c.gamma * k, c.p
    if p == 2.0:  # sqrt(g^2 + Q*) - g, which cancels where Q* << g^2; halved,
        # so that the sum stays finite for g up to the float maximum
        return qstar / (math.hypot(0.5 * g, 0.5 * rt) + 0.5 * g) * 0.5 / k
    if p == 1.0:  # rt - g log(1 + x), x = rt/g, which cancels below x = 1/2
        x = rt / g if g else math.inf  # g = gamma k may underflow
        if x > 0.5:  # where x overflows, g log(1 + x) is below an ulp of rt
            return (rt - g * math.log1p(x) if x < math.inf else rt) / k
        # there g x s(x)/(2 + x) = rt s(x)/(2 + x)
        return rt * _log1p_series(x) / (2.0 + x) / k
    f = _scaled_factor(p, c.gamma, qstar, k)
    work = f * qstar
    gf = g * f if g >= _TINY else c.gamma * (f * k)  # gamma F, where g may underflow
    s = gf**p
    if s < _EPS * (1.0 - p):  # p < 1: W/W* ~ s/(1 - p) is below an ulp, and B_x may overflow
        return work / k
    q = work * f
    if q < _TINY:  # Q = F^2 Q* loses digits, and B_x = x^a z^b/(a g) is linear in x^a = Q:
        # hand the kernel gamma Q as (gamma F)(F Q*), whose digits it keeps
        return work / k - _incomplete_beta(2.0 / p, 1.0 - 1.0 / p, gf * (work / k), s) / p
    return work / k - _stored_beta(c, q, s)


def _form_matrix(c: _Constants) -> np.ndarray:
    """Constant symmetric matrix of Q as a form on (u, v - e3), built anew."""
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = c.a2
    m[2, 2] = c.b2
    m[3, 3] = m[4, 4] = c.z2
    m[5, 5] = c.e2
    m[2, 5] = m[5, 2] = c.iota
    return m


def stored_energy_hessian(params: MaterialParams, strains: Strains) -> np.ndarray:
    """6x6 Hessian of W in the order (u1, u2, u3, v1, v2, v3).

    With s = 1 - Q^{p/2}, M the constant form matrix of Q and
    w = M (u, v - e3):

        D^2 W = gamma * s^{-1/p-1} * (s M + Q^{p/2-1} w w^T)

    Symmetric, and positive definite on Q < 1. As Q -> 0 the rank-one term
    vanishes (for any p > 0), so the reference-state value is gamma * M;
    that limit is returned exactly for Q < 1e-14. Raises StrainOutOfRange,
    naming the strains, where an entry could overflow (gamma near the
    float64 maximum, or Q next to 1): where the factor gamma s^{-1/p-1}
    is not finite, or its product with s max M + Q^{p/2-1} max|w|^2,
    which bounds every entry and is at most twice the largest.
    """
    c = _constants(params)
    q = float(_domain_q(c, strains))  # a float: numpy-scalar strains overflow without a warning
    m = _form_matrix(c)
    bound = max(c.a2, c.b2, c.z2, c.e2)  # max |M|: |iota| < sqrt(b2 e2)
    if q < 1e-14:
        scale, h = c.gamma, m
    else:
        p = c.p
        w = _form_apply(
            c, 1.0, strains.u1, strains.u2, strains.u3, strains.v1, strains.v2, strains.v3 - 1.0
        )
        s, r = _one_minus_qp(q, p), q ** (0.5 * p - 1.0)
        try:
            scale = c.gamma * s ** (-1.0 / p - 1.0)
        except OverflowError:  # the power itself
            scale = math.inf
        # |w_i|^2 <= M_ii Q, so no entry exceeds (s + Q^{p/2}) max M = max M,
        # up to rounding; only near overflow is the tighter bound worth its cost
        if not scale * (2.0 * bound) < math.inf:
            wmax = float(max(map(abs, w)))
            bound = s * bound + r * (wmax * wmax)  # rounded as the entries are, so never below one
        w = np.array(w)
        h = s * m + r * (w[:, None] * w)
    if not scale * bound < math.inf:  # an infinite scale would turn the zeros of M into NaN
        raise StrainOutOfRange(f"the Hessian overflows at {strains}")
    return scale * h


def strain_bounds(params: MaterialParams) -> StrainBounds:
    """Open bounds that forward-map outputs can approach but never attain."""
    root = math.sqrt(_constants(params).det)
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
