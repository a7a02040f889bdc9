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
import os
import sys
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from ._lazy import lazy_numpy
from .errors import LoadOutOfRange, StrainOutOfRange
from .material import MaterialParams, _constants, _Constants

np = lazy_numpy(globals())  # numpy itself from the first array call

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
_BATCH_BLOCK = 16384  # rows per pass of the batch forward map
_NONFINITE, _UNBOUNDED = "are not all finite", "map to strains whose Q(u, v) is not finite"
_TINY = sys.float_info.min  # below it a float has lost digits to underflow


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


def _checked_tuple(cls: type, new: Callable) -> None:
    """Route every way of making the named tuple ``cls`` (call, ``_make``,
    ``_replace``, pickle, copy) through ``new(cls, *fields)``, which checks
    the fields and returns ``tuple.__new__(cls, fields)``, and give it the
    type-strict equality of Strains. NamedTuple forbids ``__new__`` and
    ``_make`` in a class body, so they are set here."""
    cls.__new__ = staticmethod(new)
    cls._make = classmethod(lambda c, iterable: c(*iterable))
    cls.__reduce__ = lambda self: (type(self), tuple(self))
    cls.__eq__, cls.__ne__, cls.__hash__ = Strains.__eq__, Strains.__ne__, tuple.__hash__


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


# Q* of loads below 1 in magnitude, as the load gate scales them, is at most
# 8 times the largest inverse weight, 1/a2, 1/z2, e2/det or b2/det; from that
# bound material._constants sets up = 0, no up-scale, where it leaves no room
# below 2^1024, so a change of these weights must change up there.
def _load_form(c: _Constants, m1, m2, m3, n1, n2, n3):
    return (
        (m1 * m1 + m2 * m2) / c.a2
        + (n1 * n1 + n2 * n2) / c.z2
        + (c.e2 * (m3 * m3) + c.b2 * (n3 * n3) - 2.0 * c.iota * m3 * n3) / c.det
    )


def _rescaled_form(form, c: _Constants, values) -> float:
    """form(c, *values) for finite values whose plain sum is NaN, inf - inf in
    the chiral term: the form of the values times the power of two k that
    brings the largest below 1, as ``_load_gate`` scales, divided by k twice,
    so that it overflows to inf where the plain terms did."""
    k = math.ldexp(1.0, -math.frexp(max(map(abs, values)))[1])
    return form(c, *(x * k for x in values)) / k / k


def strain_quad_form(params: MaterialParams, strains: Strains) -> float:
    """Quadratic form Q on the strain deviation from the reference state;
    overflows to inf for finite strains beyond roughly 1e150. Raises
    StrainOutOfRange for a NaN or infinite component."""
    c = _constants(params)
    dev = strains.u1, strains.u2, strains.u3, strains.v1, strains.v2, strains.v3 - 1.0
    q = _strain_form(c, *dev)
    if not q < math.inf and not all(map(math.isfinite, strains)):
        raise _strain_error(strains)
    return q if q == q else _rescaled_form(_strain_form, c, dev)


def load_quad_form(params: MaterialParams, loads: Loads) -> float:
    """Dual quadratic form Q* on the loads; overflows to inf (rather than
    raising) for finite load magnitudes beyond roughly 1e150. Raises
    LoadOutOfRange for a NaN or infinite component."""
    c = _constants(params)
    qstar = _load_form(c, *loads)
    if not qstar < math.inf and not all(map(math.isfinite, loads)):
        raise _load_error(loads)
    return qstar if qstar == qstar else _rescaled_form(_load_form, c, loads)


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


def _strain_error(values) -> StrainOutOfRange:
    return StrainOutOfRange(f"strains {_NONFINITE}: {Strains.from_array(values)}")


def _saturation(p: float, r, g) -> tuple:
    """(F, t^p): the saturating factor F = (g^p + r^p)^{-1/p} of the forward
    map at sqrt(Q*) = r and gamma = g, in polar form, on a float r (numpy
    scalars included) or an array r, the one place F is written. With
    s = r/g, t = min(s, 1/s) and d = (1 + t^p)^{-1/p}, F = d/max(r, g), so
    tau = F r = min(s, 1) d, gamma F = F g = min(1/s, 1) d, and the
    complement 1 - Q^{p/2} = (gamma F)^p = 1/(1 + s^p) is t^p/(1 + t^p)
    where s > 1, else 1/(1 + t^p), with no subtraction. Both powers see
    operands in [0, 2], so none overflows for any r and g, not both 0.
    The float test leaves a scalar call numpy-free."""
    if isinstance(r, float):
        lo, hi = (r, g) if r < g else (g, r)
    else:
        lo, hi = np.minimum(r, g), np.maximum(r, g)
    tp = (lo / hi) ** p
    return (1.0 + tp) ** (-1.0 / p) / hi, tp


def _load_gate(c: _Constants, loads: Loads) -> tuple:
    """(k, scaled loads, Q*), the range gate of every scalar kernel that
    takes loads: k = 2^-e, e the binary exponent of the largest |component|,
    capped at 2^up (``material._constants``), so the scaled loads lie below
    1 in magnitude and an up-scale keeps gamma k and Q* finite (the power of
    two is exact); and Q* of the scaled loads. Raises LoadOutOfRange for a
    NaN or infinite component, and where Q* overflows (a form weight below
    about 1e-154)."""
    m1, m2, m3, n1, n2, n3 = values = loads
    if not math.isfinite(m1 + m2 + m3 + n1 + n2 + n3) and not all(map(math.isfinite, values)):
        raise _load_error(values)  # a sum of finite loads may overflow
    e = -math.frexp(max(abs(m1), abs(m2), abs(m3), abs(n1), abs(n2), abs(n3)))[1]
    k = math.ldexp(1.0, e if e < c.up else c.up)
    scaled = m1 * k, m2 * k, m3 * k, n1 * k, n2 * k, n3 * k
    qstar = _load_form(c, *scaled)
    if not qstar < math.inf:
        raise _load_error(values, _UNBOUNDED)
    return k, scaled, qstar


def strains_from_loads(params: MaterialParams, loads: Loads) -> Strains:
    """Forward constitutive map; total on all finite loads.

    With F = (gamma^p + Q*^{p/2})^{-1/p} and det = beta^2 eta^2 - iota^2:

        u_mu   = F m_mu / alpha^2
        u3     = F (eta^2 m3 - iota n3) / det
        v_mu   = F n_mu / zeta^2
        v3 - 1 = F (-iota m3 + beta^2 n3) / det

    at the power-of-two scale of ``_load_gate``, with F from
    ``_saturation``; so the map is total for every gamma and all loads up
    to the float64 maximum, down to subnormal loads. The output satisfies
    Q(u, v) < 1 with every component strictly inside its limiting bound:
    where Q of the stored state exceeds 1 - margin, the deviation is
    rescaled once, to Q = 1 - 2 margin. The margin (``material._constants``)
    bounds the rounding of that Q and has no length unit, so a change of
    unit scales the strains as it scales the loads; it is 1.1e-13 on demo.
    Raises LoadOutOfRange where the gate does, and where Q of the strains
    is not finite (u1 u1 overflows in Q at alpha <~ 1e-154).
    """
    c = _constants(params)
    k, scaled, qstar = _load_gate(c, loads)
    r = math.sqrt(qstar)
    rho = r or 1.0  # Q* = 0 leaves the loads as they are
    tau = _saturation(c.p, r, c.gamma * k)[0] * rho
    u1, u2, u3, v1, v2, dv = _forward_dev(c, tau, rho, *scaled)
    q = _strain_form(c, u1, u2, u3, v1, v2, (1.0 + dv) - 1.0)  # on the stored state
    if not q <= 1.0 - c.margin:  # the inward projection: one rescale
        if not q < math.inf:
            raise _load_error(loads.as_array(), _UNBOUNDED)
        r = math.sqrt((1.0 - 2.0 * c.margin) / q)
        u1, u2, u3, v1, v2, dv = u1 * r, u2 * r, u3 * r, v1 * r, v2 * r, dv * r
    # float(): loads given as numpy scalars still give float strains
    return Strains(float(u1), float(u2), float(u3), float(v1), float(v2), float(1.0 + dv))


def _forward_dev(c: _Constants, tau, rho, m1, m2, m3, n1, n2, n3) -> tuple:
    """The strain deviation (u, v - e3) = tau M (L/rho) of scaled loads L,
    rho = sqrt(Q*) of theirs (or 1 where Q* = 0), on floats or arrays of n
    rows. Q(M L/rho) = 1, so each component of M L/rho lies within its strain
    bound, and tau <= 1: neither product leaves the float range."""
    m3, n3 = m3 / rho, n3 / rho
    return (
        tau * (m1 / rho / c.a2),
        tau * (m2 / rho / c.a2),
        tau * ((c.e2 * m3 - c.iota * n3) / c.det),
        tau * (n1 / rho / c.z2),
        tau * (n2 / rho / c.z2),
        tau * ((-c.iota * m3 + c.b2 * n3) / c.det),
    )


def strains_from_loads_batch(params: MaterialParams, loads: np.ndarray) -> np.ndarray:
    """Vectorized forward map for load sweeps.

    ``loads`` has shape (n, 6) with columns (m1, m2, m3, n1, n2, n3); the
    result has shape (n, 6) with columns (u1, u2, u3, v1, v2, v3).
    Matches ``strains_from_loads`` row by row up to a few ulps (vectorized
    powers round differently from libm): the same gate scale k per row and
    the same ``_saturation``, so it is total up to the float64 maximum.

    Rows are mapped ``_BATCH_BLOCK`` at a time, column by column, so each
    block's temporaries stay in cache, with the scalar map's inward
    projection: Q once per block, and one rescale of each saturated row.
    Per row the arithmetic is that of a single whole-array pass, bit for bit.
    Where there is more than one block and the process may run on more than
    one CPU, a thread pool maps the blocks, one worker per CPU up to one per
    block (numpy leaves the interpreter lock in its loops); the bits do not
    depend on the number of workers.
    Raises ValueError for any other shape, and the scalar map's
    LoadOutOfRange for the first block, in row order, that fails: for its
    first row that ``_load_gate`` refuses, with the gate's message, else its
    first row whose Q is not finite.
    """
    c = _constants(params)
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != 6:
        raise ValueError(f"loads must have shape (n, 6), got {loads.shape}")
    out = np.empty(loads.shape)

    def block(start: int) -> None:  # each call writes its own rows of out
        cols = np.ascontiguousarray(loads[start : start + _BATCH_BLOCK].T)  # each column in one run
        rows = out[start : start + cols.shape[1]]
        for j, col in enumerate(_forward_block(c, cols)):
            rows[:, j] = col

    starts = range(0, len(loads), _BATCH_BLOCK)
    workers = min(_cpus(), len(starts))
    if workers < 2:
        for start in starts:
            block(start)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(block, starts))  # in block order, so the first failing block raises
    return out


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _forward_block(c: _Constants, cols: np.ndarray) -> list:
    """The batch forward map on one block of loads, given as its six
    columns: the six columns of the strains. numpy keeps an error state
    per thread, so the block sets its own."""
    top = np.abs(cols).max(axis=0)
    k = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], c.up))  # _load_gate's k per row
    scaled = cols * k
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # redone, or raises
        qstar = _load_form(c, *scaled)
        if not qstar.max() < math.inf:  # _load_gate's refusals; a non-finite load makes one
            i = int((qstar < math.inf).argmin())
            raise _load_error(cols[:, i], _UNBOUNDED if top[i] < math.inf else _NONFINITE)
        r = np.sqrt(qstar)
        rho = r + (qstar == 0.0)  # the scalar map's r or 1
        tau = _saturation(c.p, r, c.gamma * k)[0] * rho
        dev = list(_forward_dev(c, tau, rho, *scaled))  # six columns, not copied into one array
        q = _strain_form(c, *dev[:5], (1.0 + dev[5]) - 1.0)  # the scalar map's projection
        hit = np.flatnonzero(~(q <= 1.0 - c.margin))  # NaN included
        q = q[hit]
        if not (q < math.inf).all():
            raise _load_error(cols[:, hit[(q < math.inf).argmin()]], _UNBOUNDED)
        scale = np.sqrt((1.0 - 2.0 * c.margin) / q)
        for col in dev:
            col[hit] *= scale
    dev[5] += 1.0
    return dev


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


@lru_cache(maxsize=256)  # the last 256 exponents, two numbers each
def _beta_memo(a: float, b: float, x0: float) -> tuple[float, int]:
    """(K, j) of the series branch of ``_incomplete_beta`` at (a, b), whose
    switch is x0 = 1 - z0: j is the term with |b + j| < 1/4, -1 if none,
    and K = B_{x0}(a, b) + sum over k != j of c_k z0^{b+k}. K is NaN where
    that sum does not converge within 500 terms, so that every call raises."""
    z0 = 1.0 - x0
    j = round(-b)
    if j < 0 or abs(b + j) >= 0.25:
        j = -1
    total, coef = x0**a * z0**b / (a * _beta_cf(a, b, x0)), 1.0
    for k in range(500):
        if k != j:
            term = coef * z0 ** (b + k) / (b + k)
            total += term
            if k > a and abs(term) <= _EPS * abs(total):
                return total, j
        coef *= (k + 1.0 - a) / (k + 1.0)
    return math.nan, j


def _incomplete_beta(a: float, b: float, xa: float, z: float, xa_exp: int = 0) -> float:
    """B_x(a, b) = integral_0^x t^{a-1} (1 - t)^{b-1} dt at x = 1 - z, given the
    exact complement z and xa = x^a (so nothing cancels near x = 1 or
    underflows at large a). The continued fraction up to x0 = (a + 1)/(a + b + 2)
    clamped to [1/2, 9/10]; beyond, the binomial series of (1 - t)^{a-1}
    integrated term by term from x0, split as in DLMF 8.17.4:
    B_x = K - sum_k c_k z^{b+k}, with c_k = coef_k/(b + k) and K, which
    depends on (a, b) alone, computed once (``_beta_memo``). The sum
    converges like z^k, in about three terms where the strain limit is
    near. The term j with b + j near 0, where c_j z0^{b+j} and c_j z^{b+j}
    would cancel, stays out of K and keeps the difference form
    coef_j (z0^e - z^e)/e, a log where e = 0. So b <= 0, where B_x diverges
    at x = 1, needs no Gamma-function poles. Against 80-digit mpmath the
    relative error is below 4e-15 for p = 2/a in [0.25, 10] and 8e-15 up
    to p = 100, for z from 1e-300 up.

    Where z^b alone leaves the float range, the fraction forms x^a z^b at
    a power-of-two scale, as it does where x^a = xa 2^xa_exp comes with an
    exponent (x^a below the float range; the series does not read x^a),
    and raises OverflowError where xa is 0 or the product overflows; the
    series sums at the scale of z^b, and raises where B_x overflows."""
    x = 1.0 - z
    x0 = min(0.9, max(0.5, (a + 1.0) / (a + b + 2.0)))
    if x <= x0:
        if not xa_exp:
            try:
                return xa * z**b / (a * _beta_cf(a, b, x))
            except OverflowError:  # z^b alone
                if not xa:
                    raise
        m, ez = _binary_power(z, b)
        mx, ex = math.frexp(xa)  # x^a = mx 2^{ex + xa_exp}
        return math.ldexp(mx * m / (a * _beta_cf(a, b, x)), ex + xa_exp + ez)
    total, j = _beta_memo(a, b, x0)
    coef, scale = 1.0, 0
    # z^{b+k}; B_1 diverges for b <= 0
    try:
        zk = math.pow(z, b) if z or b > 0.0 else math.inf
    except OverflowError:
        zk, scale = _binary_power(z, b)
        total = math.ldexp(total, -scale)
    for k in range(500):
        e = b + k
        if k != j:
            term = coef * zk / e
        elif scale:  # c_j (z0^e - z^e)/e, below 1e84 c_j, is under an ulp of this sum
            term = 0.0
        else:  # (z0^e - z^e)/e, by expm1 where z^e is near z0^e
            z0 = 1.0 - x0
            log_ratio = math.log(z0 / z) if z > 0.0 else math.inf
            if e == 0.0:
                term = -coef * log_ratio
            elif abs(e * log_ratio) < 1.0:
                term = -coef * z0**e * -math.expm1(-e * log_ratio) / e
            else:
                term = -coef * (z0**e - zk) / e
        total -= term
        if k > a and abs(term) <= _EPS * abs(total):
            return math.ldexp(total, scale) if scale else total  # OverflowError where B_x is not finite
        coef *= (k + 1.0 - a) / (k + 1.0)
        zk *= z
    raise ArithmeticError(f"incomplete beta series did not converge at a={a!r}, b={b!r}, z={z!r}")


def _binary_power(z: float, b: float) -> tuple[float, int]:
    """(m, e) with z^b = m 2^e and m in [2^-n, 1) for z > 0, where z^b may
    leave the float range: z^{b/n}, in range, to the n-th power, its binary
    exponent kept apart; n = 2 unless |b log2 z| > 2000."""
    n = 2
    while abs(b * math.log2(z)) > 1000.0 * n:
        n *= 2
    m, e = math.frexp(z ** (b / n))
    return m**n, n * e


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
    Against the 50-digit incomplete beta at the float p (gamma = 2.5, Q from
    1e-12 to 1 - 1e-12) the relative error is below 1e-14 for p in
    [0.25, 100], at worst 3.9e-15. Below p = 0.25 the rounding of
    b = 1 - 1/p shows through z^b: 8.7e-15 at p = 0.2, 1.8e-14 at 0.1 and
    3.7e-14 at 0.05. Raises StrainOutOfRange, naming the
    strains, where W exceeds the float64 range (gamma near the float64
    maximum, or Q next to 1 at small p), or where B does: for gamma < p,
    W may still be finite there. Where the power z^b of the series alone
    overflows, z = 1 - Q^{p/2} and b = 1 - 1/p, the series runs at a
    power-of-two scale.
    """
    c = _constants(params)
    q = _domain_q(c, strains)
    try:
        w = _stored_energy(c, q)
    except OverflowError:
        raise StrainOutOfRange(f"the stored energy's series overflows at {strains}") from None
    if not w < math.inf:
        raise StrainOutOfRange(f"the stored energy overflows at {strains}")
    return w


def _stored_energy(c: _Constants, q: float) -> float:
    """``stored_energy`` at Q, which may come out infinite or raise OverflowError."""
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
    Legendre identity W* = F Q* - W(Q), Q = tau^2, with tau and the exact
    complement 1 - Q^{p/2} from ``_saturation``. Against 80-digit mpmath
    the relative error is below 5e-15 for p in [0.05, 100] and Q* up to
    1e300. The formulas run at the power-of-two scale k of ``_load_gate``,
    W*(gamma, Q*) = W*(k gamma, k^2 Q*)/k, so W* is finite wherever
    sqrt(Q*) is and keeps its digits at subnormal loads. For p < 1,
    W ~ W* (gamma F)^p/(1 - p) is below an ulp where (gamma F)^p < eps (1 - p),
    and is left out. Where Q is subnormal (gamma >~ 1e150), the kernel gets
    gamma Q as (gamma F)(F Q*), which keeps its digits; where F is too
    (p << 1), or gamma Q underflows, gamma F, and W* = F Q* (1 - B/p) with
    F Q* formed unscaled; gamma F goes by its binary exponent where it is
    subnormal. Raises LoadOutOfRange where the gate does, or sqrt(Q*) overflows.
    """
    c = _constants(params)
    k, _, qstar = _load_gate(c, loads)
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
    f, tp = _saturation(p, rt, g)
    work = f * qstar  # F Q* = tau sqrt(Q*)
    s = (tp if rt > g else 1.0) / (1.0 + tp)  # 1 - Q^{p/2}
    if s < _EPS * (1.0 - p):  # p < 1: W/W* ~ s/(1 - p) is below an ulp, and B_x may overflow
        return work / k
    q = work * f
    if q < _TINY:  # Q = tau^2 loses digits, and B_x = x^a z^b/(a g) is linear in x^a = Q:
        # hand the kernel gamma Q as (gamma F)(F Q*), whose digits it keeps
        a, b = 2.0 / p, 1.0 - 1.0 / p
        gq = f * g * (work / k)
        if f >= _TINY and gq >= _TINY:
            return work / k - _incomplete_beta(a, b, gq, s) / p
        # F or gamma Q too: F Q*/k = d (r/k)(r/h) with h = max(r, g), d = F h, and the
        # kernel, linear in gamma Q, gets gamma F = d g/h alone and scales by F Q*/k
        d, hi = (1.0 + tp) ** (-1.0 / p), max(rt, g)
        gf = d * (g / hi)
        if gf >= _TINY:
            beta = _incomplete_beta(a, b, gf, s)
        else:  # gamma F as well: it goes by its binary exponent
            (md, ed), (mh, eh) = math.frexp(d), math.frexp(g / hi)
            beta = _incomplete_beta(a, b, md * mh, s, ed + eh)
        return d * (rt / k) * (rt / hi) * (1.0 - beta / p)
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
    u1, u2, u3, v1, v2, v3 = map(float, strains)
    dv3 = v3 - 1.0
    if kind == "rotation":
        c, s = math.cos(angle), math.sin(angle)
        u1, u2, v1, v2 = c * u1 + s * u2, c * u2 - s * u1, c * v1 + s * v2, c * v2 - s * v1
    elif kind == "flip":
        u2, v2 = -u2, -v2
    elif kind == "flip_reflect":
        u2, v1, dv3 = -u2, -v1, -dv3
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    return Strains(u1, u2, u3, v1, v2, 1.0 + dv3)
