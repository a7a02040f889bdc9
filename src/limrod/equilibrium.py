"""Closed-form equilibrium families and balance-law verification.

All constructors work in the normalized gauge (reference length 1, force
scale 1); parameter sets are renormalized on entry and the load arguments
(thrust N, couples M3, M1) are understood in those units.

Families under a terminal thrust n(1) = N g3 (zero body loads):

  * trivial tensile branch: straight centerline along g3, constant twist
    and stretch; exists for every N.  A chiral rod (iota != 0) twists
    under pure tension, with sign(u3) = -sign(iota * N).
  * sheared branch: for materials satisfying two moduli inequalities there
    is a threshold thrust above which a second family exists, tilted by a
    unique angle theta(N) in (0, pi/2), with shear strains oscillating
    along the rod at the twist rate.  The branch bifurcates from the
    trivial one at the threshold and theta(N) increases toward a finite
    limit angle as N grows.

Families under isolated end couples (N = 0):

  * pure twist: constant d3, straight centerline along d3.  For a chiral
    rod the couple changes the rod length (Poynting effect), elongating it
    when sign(-iota * M3) > 0.
  * helical family (M2 = 0, M1 != 0, M3 = -M1 cot(theta)): the centerline
    is a helix of signed radius v3 sin(theta)/phi' and axial advance rate
    v3 cos(theta); at theta = pi/2 it degenerates to a circle traversed in
    a state of pure bending.

The theta in (pi/2, pi) and theta = pi variants of the thrust families are
mirror images of these: reflect N -> -N and theta -> pi - theta rather
than separate constructors.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from ._lazy import lazy_numpy
from .constitutive import _TINY, Loads, Strains, _checked_tuple, _load_gate, loads_from_strains_batch
from .constitutive import strains_from_loads, strains_from_loads_batch
from .errors import (
    AngleOutOfRange,
    BelowThreshold,
    DegenerateCouple,
    LoadOutOfRange,
    NoBifurcationError,
)
from .kinematics import Configuration, _check_finite, _darboux, _derivative, _euler_directors, _libm
from .material import MaterialParams, _constants, nondimensionalize

np = lazy_numpy(globals())  # numpy itself from the first array call

__all__ = [
    "NoBifurcation",
    "BranchPoint",
    "EquilibriumState",
    "BalanceReport",
    "ThrustLimits",
    "shear_threshold",
    "sheared_angle",
    "sheared_angle_p2",
    "sheared_angle_limit",
    "thrust_strain_limits",
    "trivial_tensile_state",
    "sheared_tensile_state",
    "pure_twist_state",
    "helical_state",
    "check_balance",
    "state_from_configuration",
    "branch_sweep",
    "write_branch_csv",
    "BRANCH_CSV_HEADER",
]

BRANCH_CSV_HEADER = "N,theta,u3,v3,v_shear_amplitude,branch"
_SHEARED_THETA = "sheared branch points need theta in (0, pi/2)"


@dataclass(frozen=True)
class NoBifurcation:
    """Verdict that the material admits no sheared tensile branch."""

    condition: str
    detail: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.detail}"


@dataclass(frozen=True)
class ThrustLimits:
    """Limiting strains on the trivial branch as the thrust grows unbounded."""

    u3_tension: float
    u3_compression: float
    stretch_tension: float
    stretch_compression: float


class BranchPoint(NamedTuple):
    """One point (at s = 0, psi0 = 0) of a tensile equilibrium branch: a
    tuple that equals only its own type and checks its branch and theta
    however it is made (call, ``_make``, ``_replace``, pickle, copy)."""

    N: float
    theta: float
    strains: Strains
    loads: Loads
    branch: str


def _new_point(cls, N: float, theta: float, strains: Strains, loads: Loads, branch: str) -> BranchPoint:
    if branch == "trivial" and theta != 0.0:
        raise ValueError("trivial branch points have theta = 0")
    if branch == "sheared" and not 0.0 < theta < 0.5 * math.pi:
        raise ValueError(_SHEARED_THETA)
    if branch not in ("trivial", "sheared"):
        raise ValueError(f"unknown branch {branch!r}")
    return tuple.__new__(cls, (N, theta, strains, loads, branch))


_checked_tuple(BranchPoint, _new_point)


@dataclass(frozen=True)
class EquilibriumState:
    """Sampled configuration plus director-frame loads and a descriptor.

    ``loads`` has shape (n, 6) with columns (m1, m2, m3, n1, n2, n3); the
    descriptor records the family, its inputs, and derived constants.
    """

    configuration: Configuration
    loads: np.ndarray
    descriptor: dict

    def __post_init__(self):
        loads = np.asarray(self.loads, dtype=float).copy()
        if loads.shape != (len(self.configuration.s), 6):
            raise ValueError("loads array must be (n_samples, 6)")
        loads.setflags(write=False)
        object.__setattr__(self, "loads", loads)

    def spatial_loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Contact force and couple as fixed-basis vectors per sample."""
        dirs = self.configuration.directors
        m = np.einsum("nk,nki->ni", self.loads[:, :3], dirs)
        n = np.einsum("nk,nki->ni", self.loads[:, 3:], dirs)
        return n, m


@dataclass(frozen=True)
class BalanceReport:
    """Max-norm residuals of the two balance laws on a sampled state."""

    force_residual: float
    couple_residual: float
    h: float


# ---------------------------------------------------------------------------
# bifurcation threshold and sheared angle


# A normalised set's sheared branch: what does not depend on N. With
# Y = beta/sqrt(det) = 1/sqrt(eta^2 - (iota/beta)^2), q = (zeta Y)^2 and
# a = 1 - q, the branch equation F(1/N, Q*) beta^2 x/det = v3 - 1 at
# x = cos(theta) reduces to x = ||(s, t)||_p with s = zeta^2/(a N) and
# t = (zeta/a) sqrt(1 - a x^2). thresh is the threshold thrust or the
# NoBifurcation verdict, and k = v3 - 1 = q/a (NaN, as zeta and a, where
# there is no branch). The sheared strains have Q = (t/x)^2, so their
# complement 1 - Q^{p/2} is (s/x)^p: edge is the s/x below which
# Q > 1 - margin, and cap the shear amplitude at Q = 1 - 2 margin,
# sqrt(1 - 2 margin - r^2)/zeta, r^2 being Q of the twist and dilatation.
_Branch = namedtuple("_Branch", "c thresh zeta a k edge cap", defaults=(math.nan,) * 5)
# the root's clamp: 1 - 2^-53 is the largest float below 1, and the root,
# about zeta/a at a large N, lies above the smallest normal float, since
# zeta^2 > 0. theta, reported as a float, is clamped below the float pi/2.
_X_MIN, _X_MAX = _TINY, 1.0 - 2.0**-53
_THETA_MAX = math.nextafter(0.5 * math.pi, 0.0)
_NEWTON_TOL = 2.0**-48  # a thrust stops once its Newton step is below this times x
_NEWTON_STEPS = 100  # a cap that bisection alone would meet; Newton takes 4-5


def _branch(params: MaterialParams) -> _Branch:
    """The set's branch record, from its normalised twin. Each product with
    zeta^2 is formed from zeta, which keeps its digits where zeta^2 is
    subnormal."""
    pn = nondimensionalize(params)
    c, zeta, p = _constants(pn), pn.zeta, pn.p
    zy = zeta / math.sqrt(pn.eta**2 - (pn.iota / pn.beta) ** 2)  # zeta Y
    q = zy * zy
    b2z2 = c.b2 * c.z2  # the verdicts print ratio = 1/q as det/(beta^2 zeta^2)
    ratio = c.det / b2z2 if b2z2 >= _TINY else (c.det / c.b2) / c.z2
    if not q < 1.0:
        return _Branch(c, NoBifurcation(
            condition="dilatation-positivity",
            detail=(
                "sheared-branch dilatation is not positive: requires "
                f"eta^2 > zeta^2 + iota^2/beta^2 (ratio = {ratio!r})"
            ),
        ))
    a = 1.0 - q
    r = zeta * (zy / a)
    if not r < 1.0:  # r = Y/X, X = (ratio - 1) beta^2/det: printed as X^p - Y^p
        x, y = (ratio - 1.0) * (c.b2 / c.det), pn.beta / math.sqrt(c.det)
        try:
            gap = f"gap = {(ratio - 1.0) ** p * (c.b2 / c.det) ** p - y**p!r}"
        except OverflowError:
            gap = f"X = {x!r} <= Y = {y!r}"
        return _Branch(c, NoBifurcation(
            condition="dilatation-limit",
            detail=(
                "sheared-branch dilatation would exceed its limiting value: "
                f"requires 1/(ratio - 1) < beta/sqrt(det) ({gap})"
            ),
        ))
    edge = (-math.expm1(0.5 * p * math.log1p(-c.margin))) ** (1.0 / p)
    cap = math.sqrt(max(1.0 - 2.0 * c.margin - r * r, 0.0)) / zeta
    return _Branch(c, zeta * (zeta / (a * (1.0 - r**p) ** (1.0 / p))), zeta, a, q / a, edge, cap)


def shear_threshold(params: MaterialParams) -> float | NoBifurcation:
    """Threshold thrust for the shearing bifurcation, or a NoBifurcation
    verdict naming the failed material condition.

    With Y = beta/sqrt(det), q = (zeta Y)^2 and a = 1 - q, it requires
    (a) q < 1, that is eta^2 > zeta^2 + iota^2/beta^2, so the sheared
    dilatation is positive, and (b) r = zeta^2 Y/a < 1, so that dilatation
    stays below its limiting value; then N_c = zeta^2/(a (1 - r^p)^{1/p}),
    where x = cos(theta) = 1 solves the reduced branch equation (``_Branch``).
    """
    return _branch(params).thresh


def _sheared_branch(params: MaterialParams, thrust: float | None = None) -> _Branch:
    """The branch record of a set that has a sheared branch, lying below
    ``thrust`` when one is given: else NoBifurcationError, BelowThreshold, or
    LoadOutOfRange for a NaN thrust."""
    branch = _branch(params)
    if isinstance(branch.thresh, NoBifurcation):
        raise NoBifurcationError(str(branch.thresh))
    if thrust is not None and not thrust > branch.thresh:
        if thrust <= branch.thresh:
            raise BelowThreshold(f"thrust {thrust!r} <= threshold {branch.thresh!r}")
        raise LoadOutOfRange(f"thrust N = {thrust!r} is not a number")
    return branch


def _thrust_term(branch: _Branch, thrust):
    """s = zeta^2/(a N) on a float or an array: below 1 above N_c, 0 at inf."""
    return branch.zeta * (branch.zeta / branch.a / thrust)


def _angle_cos(branch: _Branch, s):
    """cos(theta) at p = 2 from s = zeta^2/(a N), on a float or an array:
    ||(s, t0)||_2/sqrt(1 + zeta t0) with t0 = zeta/a. At s = 0 (N = inf) it
    is the limit for every p, as x = t there. The 2-norm is taken as
    max(s, t0) sqrt(1 + (min/max)^2), so no square overflows."""
    t0 = branch.zeta / branch.a
    top = np.maximum(s, t0)
    low = np.minimum(s, t0) / top
    return top * np.sqrt(1.0 + low * low) / np.sqrt(1.0 + branch.zeta * t0)


def _reduced_norm(branch: _Branch, s: np.ndarray, x: np.ndarray) -> tuple:
    """(n, w) element by element: n = ||(s, t)||_p with
    t = (zeta/a) sqrt(1 - a x^2), the reduced equation's right side, and
    w = t^p/n^p, which its slope needs. n is taken as m ||(s, t)/m||_p with
    m = max(s, t), so its two powers, libm's, see operands in [0, 1]."""
    p, a = branch.c.p, branch.a
    t = branch.zeta / a * np.sqrt(1.0 - a * x * x)
    top = np.maximum(s, t)
    low = _libm(pow, np.minimum(s, t) / top, p)  # the larger term's power is 1
    tail = 1.0 + low
    return top * _libm(pow, tail, 1.0 / p), np.where(t >= s, 1.0, low) / tail


def _reduced_root(branch: _Branch, thrust: np.ndarray) -> np.ndarray:
    """The root x = cos(theta) of h(x) = x - ||(s, t)||_p at each thrust of
    a 1-D array by safeguarded Newton: h rises strictly on [0, 1], from
    below 0 to above 0 for N > N_c, with slope 1 + w n a x/(1 - a x^2).
    The loop starts from the p = 2 closed form, exact at p = 2 and at
    N = inf, clamps each step to [_X_MIN, _X_MAX] and bisects the bracket
    [lo, hi] that the signs of h keep where a step would still leave it.
    A mask freezes a thrust once its step is below 2^-48 x, and N = inf
    (s = 0) from the start, so it gets the same bits alone or in any array."""
    a = branch.a
    s = _thrust_term(branch, thrust)
    x = np.clip(_angle_cos(branch, s), _X_MIN, _X_MAX)
    lo, hi = np.full_like(x, _X_MIN), np.full_like(x, _X_MAX)
    live = s > 0.0
    for _ in range(_NEWTON_STEPS):
        if not live.any():
            break
        n, w = _reduced_norm(branch, s, x)
        h = x - n
        lo, hi = np.where(h < 0.0, x, lo), np.where(h > 0.0, x, hi)
        new = np.clip(x - h / (1.0 + w * n * (a * x / (1.0 - a * x * x))), _X_MIN, _X_MAX)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        x, live = np.where(live, new, x), live & (np.abs(new - x) > _NEWTON_TOL * new)
    return x


def _sheared_rows(branch: _Branch, thrust: np.ndarray, x: np.ndarray) -> tuple:
    """(theta, strain rows, load rows) of the sheared branch at s = 0,
    psi0 = 0, thrusts N and x = cos(theta(N)): theta = acos(x) by libm,
    clamped below the float pi/2 and checked as BranchPoint checks it, the
    strains (0, 0, -iota k/beta^2, -tan(theta)/a, 0, 1 + k), k = q/a, and
    the loads (0, 0, 0, -N sin(theta), 0, N x), from x with sin(theta) =
    sqrt((1 - x)(1 + x)) so that they keep their digits where theta is
    clamped. Where Q of the strains lies within the margin of 1 (s/x at
    most ``edge``), rounding can carry it to 1, so the shear amplitude
    alone is projected to ``cap``, as the forward map projects its strains,
    and v3 = 1 + k stays exact. The sweep, the state and the angle (an
    array of one) read it."""
    theta = np.minimum(_libm(math.acos, x), _THETA_MAX)
    if not ((0.0 < theta) & (theta < 0.5 * math.pi)).all():
        raise ValueError(_SHEARED_THETA)
    c, k = branch.c, branch.k
    sin = np.sqrt((1.0 - x) * (1.0 + x))
    near = _thrust_term(branch, thrust) / x <= branch.edge  # Q within the margin of 1
    strains, loads = np.zeros((2, len(x), 6))
    strains[:, 2], strains[:, 5] = 0.0 - c.iota * k / c.b2, 1.0 + k
    strains[:, 3] = -np.where(near, branch.cap, sin / x / branch.a)
    loads[:, 3], loads[:, 5] = -thrust * sin, thrust * x
    return theta, strains, loads


def sheared_angle(params: MaterialParams, thrust: float) -> float:
    """Tilt angle theta(N) in (0, pi/2) of the sheared branch at thrust N.

    x = cos(theta) is the root of the reduced branch equation
    x = ||(zeta^2/(a N), (zeta/a) sqrt(1 - a x^2))||_p (``_Branch``), found
    by safeguarded Newton from its p = 2 closed form; within 1e-15 of
    50-digit mpmath in cos(theta) for p from 0.5 to 100. Raises
    BelowThreshold for N <= threshold, LoadOutOfRange for a NaN N and
    NoBifurcationError when the material admits no sheared branch at all.
    An infinite N gives ``sheared_angle_limit`` bit for bit.
    """
    branch, thrusts = _sheared_branch(params, thrust), np.array([float(thrust)])
    return _sheared_rows(branch, thrusts, _reduced_root(branch, thrusts))[0].item()


def sheared_angle_p2(params: MaterialParams, thrust: float) -> float:
    """Closed-form sheared angle, valid only for exponent p = 2:

        cos theta = ||(s, t0)||_2/sqrt(1 + zeta t0),
        s = zeta^2/(a N), t0 = zeta/a,

    the root of the reduced branch equation at p = 2, clamped as the
    Newton loop clamps it; ``_sheared_rows`` forms theta, as every angle.
    """
    pn = nondimensionalize(params)
    if pn.p != 2.0:
        raise ValueError("closed form requires p = 2")
    branch, thrusts = _sheared_branch(pn, thrust), np.array([float(thrust)])
    x = np.clip(_angle_cos(branch, _thrust_term(branch, thrusts)), _X_MIN, _X_MAX)
    return _sheared_rows(branch, thrusts, x)[0].item()


def sheared_angle_limit(params: MaterialParams) -> float:
    """Limit of the sheared angle as the thrust grows unbounded, the same
    for every p: arccos{ t0/sqrt(1 + zeta t0) }, t0 = zeta/a: ``sheared_angle`` at N = inf."""
    return sheared_angle(params, math.inf)


def thrust_strain_limits(params: MaterialParams) -> ThrustLimits:
    """Limiting twist and stretch deviation on the trivial branch as
    N -> +inf / -inf."""
    pn = nondimensionalize(params)
    root = math.sqrt(pn.twist_stretch_det)
    return ThrustLimits(
        u3_tension=-pn.iota / (pn.beta * root),
        u3_compression=pn.iota / (pn.beta * root),
        stretch_tension=pn.beta / root,
        stretch_compression=-pn.beta / root,
    )


# ---------------------------------------------------------------------------
# state constructors


def _family_state(
    pn: MaterialParams, grid_h: float, theta: float, psi0: float, rates: tuple[float, float],
    e_loads: tuple[float, ...], centerline: Callable, **descriptor,
) -> EquilibriumState:
    """A family's sampled state around its closed form: directors at the
    Euler angles (phi' s, theta, psi' s + psi0), rates = (phi', psi'),
    points ``centerline(s, phi)``, and the loads e_loads = (M1, M3, N1, N3)
    held in the {e_k} basis (M2 = N2 = 0), M1 and N1 turned by psi into
    director-frame columns (a zero one leaves them +0). The descriptor
    gains the keys every family shares: theta, psi0, grid_h, phi0, the
    params, and the loads and strains at s = 0 as flat six-number arrays."""
    if not 0.0 < grid_h <= 0.1:
        raise ValueError(f"grid_h must lie in (0, 0.1], got {grid_h!r}")
    n = max(2, round(1.0 / grid_h))
    s = np.linspace(0.0, 1.0, n + 1)
    if not math.isfinite(psi0):  # no frame: libm's sine fails on inf, returns NaN
        raise AngleOutOfRange(f"psi0 must be finite, got {psi0!r}")
    m1, m3, n1, n3 = e_loads
    _load_gate(_constants(pn), Loads(m1, 0.0, m3, n1, 0.0, n3))  # before inf * sin(psi) is NaN
    phi, psi = rates[0] * s, rates[1] * s + psi0
    frames = _euler_directors(phi, theta, psi)
    loads = np.zeros((len(s), 6))
    loads[:, 2], loads[:, 5] = m3, n3
    for col, value in ((0, m1), (3, n1)):
        if value:
            loads[:, col] = value * np.cos(psi)
            loads[:, col + 1] = -value * np.sin(psi)
    loads0 = Loads(*loads[0])
    descriptor.update(
        theta=theta, psi0=psi0, grid_h=grid_h,
        loads0=loads0.as_array().tolist(),
        strains0=strains_from_loads(pn, loads0).as_array().tolist(),
        phi0=0.0,
        params=asdict(pn),
    )
    configuration = Configuration(s=s, points=centerline(s, phi), directors=frames)
    return EquilibriumState(configuration, loads, descriptor)


def trivial_tensile_state(
    params: MaterialParams,
    thrust: float,
    psi0: float = 0.0,
    grid_h: float = 1e-3,
) -> EquilibriumState:
    """Straight tensile/compressive state: theta = 0, d3 = g3, n = N g3.

    The strains are constant, given by the forward map at pure tension;
    the directors spin about g3 at the constitutive twist rate u3.
    """
    pn = nondimensionalize(params)
    st = strains_from_loads(pn, Loads(0.0, 0.0, 0.0, 0.0, 0.0, thrust))
    return _family_state(
        pn, grid_h, 0.0, psi0, (0.0, st.u3), (0.0, 0.0, 0.0, thrust),
        lambda s, phi: np.outer(s, (0.0, 0.0, st.v3)),
        family="trivial", thrust=thrust, strains={"u3": st.u3, "v3": st.v3},
    )


def sheared_tensile_state(
    params: MaterialParams,
    thrust: float,
    psi0: float = 0.0,
    grid_h: float = 1e-3,
) -> EquilibriumState:
    """Sheared tensile state at thrust N > threshold, tilted by theta(N).

    Twist and dilatation are N-independent constants of the material:
    v3 - 1 = k = q/a and u3 = -iota k/beta^2, with q = (zeta Y)^2,
    Y = beta/sqrt(det) and a = 1 - q; the shear strains oscillate along
    the rod with amplitude tan(theta)/a at phase u3 s + psi0, projected
    to Q = 1 - 2 margin where Q lies within the forward map's margin of 1
    (``_sheared_rows``), so that the inverse map takes the strains. The
    centerline stays parallel to g3, at the stretch v3/cos(theta) =
    1/(a cos(theta)), while d3 tilts by theta. The
    descriptor's identity_residual is |x - n|/n at x = cos(theta), the
    reduced branch equation x = n = ||(s, t)||_p (``_Branch``), where x/n is
    the saturating factor at the branch loads over its closed form
    det k/(beta^2 N x). Past 1e-8 it raises ArithmeticError. A NaN or
    infinite N raises LoadOutOfRange, as does the load gate where Q* of
    the thrust overflows (zeta below about 1e-154 at N of order 1).
    """
    pn = nondimensionalize(params)
    branch, thrusts = _sheared_branch(pn, thrust), np.array([float(thrust)])
    x = _reduced_root(branch, thrusts)
    theta, strains, loads = _sheared_rows(branch, thrusts, x)
    (u3, v1, v3), (n1, n3) = strains[0, [2, 3, 5]].tolist(), loads[0, [3, 5]].tolist()
    cth, n = x.item(), _reduced_norm(branch, _thrust_term(branch, thrusts), x)[0].item()
    identity_residual = abs(cth - n) / n
    if identity_residual > 1e-8:
        raise ArithmeticError(
            f"sheared-branch identity violated: residual {identity_residual!r}"
        )
    return _family_state(
        pn, grid_h, theta.item(), psi0, (0.0, u3), (0.0, 0.0, n1, n3),
        lambda s, phi: np.outer(s, (0.0, 0.0, v3 / cth)),
        family="sheared", thrust=thrust, identity_residual=identity_residual,
        strains={"u3": u3, "v3": v3, "v_shear_amplitude": -v1},
    )


def pure_twist_state(
    params: MaterialParams,
    twist_couple: float,
    theta: float = 0.0,
    psi0: float = 0.0,
    grid_h: float = 1e-3,
) -> EquilibriumState:
    """Isolated twisting couple m = M3 d3 with zero contact force.

    d3 = sin(theta) g1 + cos(theta) g3 is constant (theta is free since
    n = 0; default 0), the centerline runs along d3 and the cross sections
    spin at the constitutive twist rate. A chiral rod changes length:
    sign(v3 - 1) = sign(-iota * M3), the Poynting effect.
    """
    pn = nondimensionalize(params)
    st = strains_from_loads(pn, Loads(0.0, 0.0, twist_couple, 0.0, 0.0, 0.0))
    d3 = np.array([math.sin(theta), 0.0, math.cos(theta)])
    return _family_state(
        pn, grid_h, theta, psi0, (0.0, st.u3), (0.0, twist_couple, 0.0, 0.0),
        lambda s, phi: st.v3 * np.outer(s, d3),
        family="twist", twist_couple=twist_couple, strains={"u3": st.u3, "v3": st.v3},
    )


def helical_state(
    params: MaterialParams,
    bend_couple: float,
    theta: float,
    psi0: float = 0.0,
    grid_h: float = 1e-3,
) -> EquilibriumState:
    """Helical family under the constant couple M1 e1 + M3 e3 with
    M3 = -M1 cot(theta) (which keeps the couple spatially constant), n = 0.

    The strains u1 (the flexure amplitude), u3 and v3 are the forward map's
    at the psi = 0 loads (M1, 0, M3, 0, 0, 0), and phi' = -u1/sin(theta).
    The centerline is a right-handed helix of signed radius
    a = v3 sin(theta)/phi' and axial rate b = v3 cos(theta); at
    theta = pi/2 the couple is M1 e1 alone and the centerline closes into
    a circle of radius |a| traversed in pure bending (u3 = 0, v3 = 1 for
    an achiral rod). Raises DegenerateCouple for M1 = 0, or for an M1 so
    small that the radius overflows, LoadOutOfRange where M3 does, and
    AngleOutOfRange for theta outside (0, pi/2], NaN included.
    """
    pn = nondimensionalize(params)
    if not math.isfinite(bend_couple):
        raise LoadOutOfRange(f"bend couple M1 = {bend_couple!r} is not finite")
    if bend_couple == 0.0:
        raise DegenerateCouple("helical family needs M1 != 0; use pure_twist_state")
    if not 0.0 < theta <= 0.5 * math.pi:
        raise AngleOutOfRange(f"theta must lie in (0, pi/2], got {theta!r}")
    sth, cth = math.sin(theta), math.cos(theta)
    m3 = -bend_couple * (0.0 if theta == 0.5 * math.pi else cth / sth)
    st = strains_from_loads(pn, Loads(bend_couple, 0.0, m3, 0.0, 0.0, 0.0))
    amplitude, u3, v3 = st.u1, st.u3, st.v3
    dphi = -amplitude / sth
    dpsi = u3 - cth * dphi
    radius = v3 * sth / dphi if dphi else math.inf
    if not abs(radius) < math.inf:
        raise DegenerateCouple(f"bend couple M1 = {bend_couple!r} is too small: radius overflows")
    pitch_rate = v3 * cth
    return _family_state(
        pn, grid_h, theta, psi0, (dphi, dpsi), (bend_couple, m3, 0.0, 0.0),
        lambda s, phi: np.column_stack(
            [radius * np.sin(phi), radius * (1.0 - np.cos(phi)), pitch_rate * s]
        ),
        family="helix", bend_couple=bend_couple, twist_couple=m3,
        strains={"u3": u3, "v3": v3, "u_flexure_amplitude": amplitude},
        phi_rate=dphi, psi_rate=dpsi, helix_radius=radius, helix_pitch_rate=pitch_rate,
        pitch_per_turn=2.0 * math.pi * abs(pitch_rate / dphi),
    )


# ---------------------------------------------------------------------------
# balance verification


def check_balance(state: EquilibriumState) -> BalanceReport:
    """Max-norm residuals of n' = 0 and m' + r' x n = 0, the balance laws
    of a rod held by end loads alone.

    Derivatives are central differences; residuals are evaluated only at
    samples whose full difference stencils stay clear of the one-sided
    endpoint stencils (i.e. samples 2..n-3), so the report converges at
    second order for smooth fields.
    """
    cfg = state.configuration
    h = cfg.h
    if len(cfg.s) < 5:
        raise ValueError("need at least five samples to evaluate residuals")
    n_vec, m_vec = state.spatial_loads()
    dn, dm, dr = (_derivative(x, h)[2:-2] for x in (n_vec, m_vec, cfg.points))
    force_max = float(np.abs(dn).max())
    couple_max = float(np.abs(dm + np.cross(dr, n_vec[2:-2])).max())
    return BalanceReport(force_residual=force_max, couple_residual=couple_max, h=h)


def state_from_configuration(params: MaterialParams, config: Configuration) -> EquilibriumState:
    """Recover an equilibrium state from bare geometry.

    Strains come from difference stencils (tangent components in the
    director frame plus the Darboux components) as one (n, 6) array, and
    ``loads_from_strains_batch`` maps them to loads in one call, bit for
    bit as the scalar inverse map would row by row. Raises
    StrainOutOfRange, naming Q of the first bad sample, if the geometry is
    constitutively impossible. The frames are not checked again: the
    Configuration checked them when it was built. The derived loads carry
    the O(h^2) discretization error of the stencils.
    """
    pn = nondimensionalize(params)
    h = config.h
    dr = _derivative(config.points, h)
    v = np.einsum("ni,nki->nk", dr, config.directors)
    u = _darboux(config.directors, h)
    loads = loads_from_strains_batch(pn, np.concatenate([u, v], axis=1))
    descriptor = {
        "family": "reconstructed",
        "grid_h": h,
        "params": asdict(pn),
    }
    return EquilibriumState(configuration=config, loads=loads, descriptor=descriptor)


# ---------------------------------------------------------------------------
# branch sweep


def branch_sweep(
    params: MaterialParams,
    n_min: float,
    n_max: float,
    count: int,
) -> tuple[list[BranchPoint], float | NoBifurcation]:
    """Sample both tensile branches over a uniform thrust grid.

    Returns the points sorted by (N, branch), a stable sort, together with
    the threshold verdict; sheared points appear only for thrusts strictly
    above the threshold. The trivial points' strains come from one
    ``strains_from_loads_batch`` call on the loads (0, 0, 0, 0, 0, N), so
    they may differ from ``strains_from_loads`` by a few ulps. One Newton
    loop solves the reduced branch equation at all sheared thrusts at once,
    and its angles are bit for bit those of ``sheared_angle``. A NaN or infinite
    bound raises LoadOutOfRange naming it, and n_min >= n_max or count < 2 a
    ValueError. A span n_max - n_min that overflows is gridded at half scale
    and doubled, exactly; else np.linspace.
    """
    pn = nondimensionalize(params)
    _check_finite("sweep bound", LoadOutOfRange, n_min=n_min, n_max=n_max)
    if not n_min < n_max:
        raise ValueError(f"need n_min < n_max, got {n_min!r} >= {n_max!r}")
    if count < 2:
        raise ValueError(f"need at least 2 sweep points, got {count!r}")
    branch = _branch(pn)
    scale = 1.0 if n_max - n_min < math.inf else 2.0
    grid = scale * np.linspace(n_min / scale, n_max / scale, count)
    loads = np.column_stack([np.zeros((count, 5)), grid])  # the loads (0, 0, 0, 0, 0, N)
    # one row per point: N, theta, the strains and the loads
    table = np.column_stack([grid, np.zeros(count), strains_from_loads_batch(pn, loads), loads])
    if not isinstance(branch.thresh, NoBifurcation):
        sheared = grid[grid > branch.thresh]
        tilt, strains, loads = _sheared_rows(branch, sheared, _reduced_root(branch, sheared))
        table = np.concatenate([table, np.column_stack([sheared, tilt, strains, loads])])
    code = table[:, 1] == 0.0  # the branch: sheared 0 and trivial 1, as the names sort
    order = np.lexsort((code, table[:, 0]))  # stable, so tied rows keep their order
    thrust, theta, *columns = _columns(table[order])
    del table  # so that it does not add to the peak while the points are made
    new, names = tuple.__new__, ("sheared", "trivial")
    return [
        new(BranchPoint, (n, t, new(Strains, st), new(Loads, ld), names[b]))
        for n, t, st, ld, b in zip(thrust, theta, zip(*columns[:6]), zip(*columns[6:]), code[order].tolist())
    ], branch.thresh


def _columns(rows: np.ndarray) -> list:
    """The columns of a 2-D float array as floats, one float repeated for a
    column whose elements share one bit pattern (0.0 and -0.0 differ)."""
    bits = rows.view(np.int64)
    same = (bits == bits[0]).all(axis=0).tolist()
    return [itertools.repeat(col[0].item()) if one else col.tolist() for col, one in zip(rows.T, same)]


def write_branch_csv(
    path: str | Path,
    points: list[BranchPoint],
    no_bifurcation: NoBifurcation | None = None,
) -> None:
    """Emit a branch sweep as CSV (17 significant digits, byte-stable) with
    one ``%.17g`` row template over all points, the bytes of ``f"{x:.17g}"``."""
    head = [] if no_bifurcation is None else [f"# no bifurcation: {no_bifurcation}"]
    cells = tuple(itertools.chain.from_iterable(map(_branch_row, points)))
    body = ("%.17g,%.17g,%.17g,%.17g,%.17g,%s\n" * len(points)) % cells
    Path(path).write_text("\n".join(head + [BRANCH_CSV_HEADER, body]), encoding="utf-8")


def _branch_row(pt: BranchPoint) -> tuple:
    """A row of the diagram, in the order of the columns BRANCH_CSV_HEADER
    names: the CSV and the JSON table both write it."""
    st = pt.strains
    return pt.N, pt.theta, st.u3, st.v3, math.hypot(st.v1, st.v2), pt.branch
