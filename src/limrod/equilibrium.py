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

import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import partial
from itertools import count, takewhile
from pathlib import Path
from typing import Callable

import numpy as np

from .constitutive import Loads, Strains, _factor, _load_gate, _scaled_factor
from .constitutive import loads_from_strains_batch, strains_from_loads
from .errors import (
    AngleOutOfRange,
    BelowThreshold,
    DegenerateCouple,
    LoadOutOfRange,
    NoBifurcationError,
)
from .kinematics import Configuration, _check_finite, _derivative, _euler_directors, _libm, darboux_components
from .material import MaterialParams, _constants, _Constants, nondimensionalize

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

_BISECT_TOL = 1e-14


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


@dataclass(frozen=True)
class BranchPoint:
    """One point (at s = 0, psi0 = 0) of a tensile equilibrium branch."""

    N: float
    theta: float
    strains: Strains
    loads: Loads
    branch: str

    def __post_init__(self):
        if self.branch == "trivial":
            if self.theta != 0.0:
                raise ValueError("trivial branch points have theta = 0")
        elif self.branch == "sheared":
            if not 0.0 < self.theta < 0.5 * math.pi:
                raise ValueError("sheared branch points need theta in (0, pi/2)")
        else:
            raise ValueError(f"unknown branch {self.branch!r}")


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


# A normalised set's sheared branch: what does not depend on N, built once
# from the set's record. thresh is the threshold thrust or the NoBifurcation
# verdict, ratio = det/(beta^2 zeta^2), and k = v3 - 1 = 1/(ratio - 1) is also
# the bisection's target; k is NaN where there is no branch.
_Branch = namedtuple("_Branch", "c thresh ratio k", defaults=(math.nan,))


def _branch(params: MaterialParams) -> _Branch:
    """The set's branch record, built from its normalised twin on first use
    and kept in the instance's ``__dict__``, as its constants are: a later
    call on the same instance is one lookup."""
    record = params.__dict__.get("_branch")
    if record is None:
        record = params.__dict__["_branch"] = _new_branch(nondimensionalize(params))
    return record


def _new_branch(pn: MaterialParams) -> _Branch:
    c = _constants(pn)
    det, ratio = c.det, c.det / (c.b2 * c.z2)
    if not ratio > 1.0:
        return _Branch(c, NoBifurcation(
            condition="dilatation-positivity",
            detail=(
                "sheared-branch dilatation is not positive: requires "
                f"eta^2 > zeta^2 + iota^2/beta^2 (ratio = {ratio!r})"
            ),
        ), ratio)
    # N^-p = X^p - Y^p with X = (ratio - 1) beta^2/det and Y = beta/sqrt(det)
    x, y = (ratio - 1.0) * (c.b2 / det), pn.beta / math.sqrt(det)
    try:
        inv_np = (ratio - 1.0) ** pn.p * (c.b2 / det) ** pn.p - y**pn.p
    except OverflowError:  # a power beyond the float range
        inv_np = math.inf
    if not (inv_np > 0.0 and (inv_np < math.inf or y < x)):  # X^p > Y^p iff X > Y
        gap = f"gap = {inv_np!r}" if inv_np != math.inf else f"X = {x!r} <= Y = {y!r}"
        return _Branch(c, NoBifurcation(
            condition="dilatation-limit",
            detail=(
                "sheared-branch dilatation would exceed its limiting value: "
                f"requires 1/(ratio - 1) < beta/sqrt(det) ({gap})"
            ),
        ), ratio)
    if inv_np < math.inf:
        thresh = inv_np ** (-1.0 / pn.p)
    else:  # N = (1 - (Y/X)^p)^{-1/p} / X, whose powers stay in range as Y < X
        thresh = (1.0 - (y / x) ** pn.p) ** (-1.0 / pn.p) / x
    return _Branch(c, thresh, ratio, 1.0 / (ratio - 1.0))


def shear_threshold(params: MaterialParams) -> float | NoBifurcation:
    """Threshold thrust for the shearing bifurcation, or a NoBifurcation
    verdict naming the failed material condition.

    Requires (a) eta^2 > zeta^2 + iota^2/beta^2, so the sheared dilatation
    is positive, and (b) that dilatation staying strictly below its
    limiting value; then

        N^-p = (ratio - 1)^p (beta^2/det)^p - (beta^2/det)^{p/2}

    with det = beta^2 eta^2 - iota^2 and ratio = det/(beta^2 zeta^2); where
    that overflows (a tiny zeta), it is evaluated scaled by its first term.
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


def _branch_fn(c: _Constants, gp, x, factor=_factor):
    """Monotone function f_N(cos theta) whose unique root gives the sheared
    angle; strictly increasing on [0, 1]: F at gamma = 1/N, Q* = g, times x.
    F is ``factor(p, gp, g)``: ``_factor`` with gp = N^-p on floats,
    ``_libm_factor`` on arrays, or ``_scaled_factor`` with gp = 1/N."""
    g = (1.0 - x * x) / c.z2 + c.b2 * x * x / c.det
    return factor(c.p, gp, g) * c.b2 * x / c.det


def _plain_or_scaled(thrust: float, p: float, use: Callable, *args):
    """use(gp, factor, *args) for a float N, with F in its plain form,
    gp = N^-p and ``_factor``; where a power of that leaves the float range
    (N^-p for a tiny N, or Q*^{p/2} for a tiny zeta), with F scaled,
    gp = 1/N and ``_scaled_factor``."""
    thrust = float(thrust)  # a numpy scalar's power overflows to inf, not OverflowError
    try:
        return use(thrust**-p, _factor, *args)
    except (OverflowError, ZeroDivisionError):
        return use(1.0 / thrust, _scaled_factor, *args)


class _LibmPowers(np.ndarray):
    """A float array whose ``**`` is libm's pow, element by element, as on a
    float: numpy's power may round otherwise."""

    def __pow__(self, e):
        return _libm(pow, self.view(np.ndarray), e).view(_LibmPowers)


def _libm_factor(p: float, gp: np.ndarray, qstar: np.ndarray) -> np.ndarray:
    """``_factor`` on arrays, each power taken as on a float."""
    return _factor(p, gp, qstar.view(_LibmPowers)).view(np.ndarray)


def _sheared_tilt(branch: _Branch, thrust):
    """theta(N), by bisection on cos(theta) in [0, 1] for f_N(cos theta) = k,
    on a float N or, element by element, on an array of them. On an array
    the + - * / steps run in numpy, in the float code's order, and the
    powers and the final acos in libm, so each angle has the bits of the
    float call; an array holding an N whose plain F leaves the float range
    goes one N at a time."""
    c, k = branch.c, branch.k
    if isinstance(thrust, np.ndarray) and thrust.ndim:
        try:
            x = _bisect(c, _libm(pow, thrust, -c.p), k)
        except (OverflowError, ZeroDivisionError):
            return np.array([_sheared_tilt(branch, n) for n in thrust.tolist()])
        return _libm(math.acos, x)
    return math.acos(_plain_or_scaled(thrust, c.p, _bisect_float, c, k))


# The half-widths of the bisection's steps: its bracket is exactly 2^-j wide
# after j halvings, and it halves while the width exceeds _BISECT_TOL.
_HALVES = tuple(takewhile(lambda h: h + h > _BISECT_TOL, (2.0**-j for j in count(1))))


def _bisect(c: _Constants, gp: np.ndarray, k: float) -> np.ndarray:
    """The roots x of f_N(x) = k in [0, 1], by bisection element by element,
    for gp = N^-p. Every N takes the same steps, 47 (2^-47 <= 1e-14 <
    2^-46), so the loop carries the bracket's lower end alone: lo + half is
    exactly the midpoint of ``_bisect_float``."""
    lo = np.zeros(len(gp))
    for half in _HALVES:
        lo = lo + half * (_branch_fn(c, gp, lo + half, _libm_factor) < k)
    return lo + 0.5 * _HALVES[-1]


def _bisect_float(gp: float, factor: Callable, c: _Constants, k: float) -> float:
    """The root x of f_N(x) = k in [0, 1] by bisection, for one float N:
    ``_bisect``'s steps, with ``_branch_fn`` written out op for op. The
    array loop runs ``_branch_fn`` on arrays, which leaves CPython's float
    specialisations of its steps unused, so a float call through it right
    after a sweep ran markedly slower; this loop's steps see floats alone."""
    p, z2, b2, det = c.p, c.z2, c.b2, c.det
    lo = 0.0
    for half in _HALVES:
        x = lo + half
        g = (1.0 - x * x) / z2 + b2 * x * x / det
        if factor(p, gp, g) * b2 * x / det < k:
            lo = x
    return lo + 0.5 * _HALVES[-1]


def _sheared_point(branch: _Branch, thrust: float, theta: float) -> BranchPoint:
    """The sheared branch at thrust N and tilt theta = theta(N), s = 0 and
    psi0 = 0: the closed-form strains (0, 0, -iota k/beta^2,
    -k ratio tan(theta), 0, 1 + k), the twist +0 for an achiral set as on
    the trivial branch, and the thrust in the director frame,
    (0, 0, 0, -N sin(theta), 0, N cos(theta)). The one place the branch's
    point is formed."""
    c, k = branch.c, branch.k
    strains = Strains(0.0, 0.0, 0.0 - c.iota * k / c.b2, -(k * branch.ratio * math.tan(theta)), 0.0, 1.0 + k)
    loads = Loads(0.0, 0.0, 0.0, -thrust * math.sin(theta), 0.0, thrust * math.cos(theta))
    return BranchPoint(thrust, theta, strains, loads, "sheared")


def sheared_angle(params: MaterialParams, thrust: float) -> float:
    """Tilt angle theta(N) in (0, pi/2) of the sheared branch at thrust N.

    Found by bisection on cos(theta) to absolute tolerance 1e-14; the
    bracket [0, 1] is guaranteed by monotonicity of the branch function.
    Raises BelowThreshold for N <= threshold, LoadOutOfRange for a NaN N
    and NoBifurcationError when the material admits no sheared branch at
    all. An infinite N gives the limit angle.
    """
    return _sheared_tilt(_sheared_branch(params, thrust), thrust)


def _angle_factor(c: _Constants) -> float:
    """[A^2 + A]^{-1/2} with A = 1/zeta^2 - beta^2/det."""
    a = 1.0 / c.z2 - c.b2 / c.det
    return (a * a + a) ** -0.5


def sheared_angle_p2(params: MaterialParams, thrust: float) -> float:
    """Closed-form sheared angle, valid only for exponent p = 2:

        cos theta = [A^2 + A]^{-1/2} (1/N^2 + 1/zeta^2)^{1/2},
        A = 1/zeta^2 - beta^2/det.
    """
    pn = nondimensionalize(params)
    if pn.p != 2.0:
        raise ValueError("closed form requires p = 2")
    factor = _angle_factor(_sheared_branch(pn, thrust).c)
    return math.acos(factor * math.sqrt(thrust**-2 + pn.zeta**-2))


def sheared_angle_limit(params: MaterialParams) -> float:
    """Limit of the sheared angle as the thrust grows unbounded:
    arccos{ [A^2 + A]^{-1/2} / zeta } with A = 1/zeta^2 - beta^2/det."""
    pn = nondimensionalize(params)
    return math.acos(_angle_factor(_sheared_branch(pn).c) / pn.zeta)


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
    v3 - 1 = 1/(ratio - 1) and u3 = -iota (v3 - 1)/beta^2; the shear
    strains oscillate along the rod with amplitude
    (v3 - 1) * ratio * tan(theta) at phase u3 s + psi0. The centerline
    stays parallel to g3 while d3 tilts by theta. The descriptor's
    identity_residual is |f_N(cos theta) - k|/k: the saturating factor at
    the branch loads against its closed form det k/(beta^2 N cos(theta)),
    scaled by gamma = 1/N so that its Q* cannot overflow. Past 1e-8 it
    raises ArithmeticError. A NaN or infinite N raises LoadOutOfRange.
    """
    pn = nondimensionalize(params)
    branch = _sheared_branch(pn, thrust)
    pt = _sheared_point(branch, thrust, _sheared_tilt(branch, thrust))
    st, sth, cth = pt.strains, math.sin(pt.theta), math.cos(pt.theta)
    f = _plain_or_scaled(thrust, branch.c.p, lambda gp, factor: _branch_fn(branch.c, gp, cth, factor))
    identity_residual = abs(f - branch.k) / branch.k
    if identity_residual > 1e-8:
        raise ArithmeticError(
            f"sheared-branch identity violated: residual {identity_residual!r}"
        )
    return _family_state(
        pn, grid_h, pt.theta, psi0, (0.0, st.u3), (0.0, 0.0, pt.loads.n1, pt.loads.n3),
        lambda s, phi: np.outer(s, (0.0, 0.0, -st.v1 * sth + st.v3 * cth)),
        family="sheared", thrust=thrust, identity_residual=identity_residual,
        strains={"u3": st.u3, "v3": st.v3, "v_shear_amplitude": -st.v1},
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


def check_balance(
    state: EquilibriumState,
    body_force: Callable[[float], np.ndarray] | None = None,
    body_couple: Callable[[float], np.ndarray] | None = None,
) -> BalanceReport:
    """Max-norm residuals of n' + f = 0 and m' + r' x n + l = 0.

    Derivatives are central differences; residuals are evaluated only at
    samples whose full difference stencils stay clear of the one-sided
    endpoint stencils (i.e. samples 2..n-2), so the report converges at
    second order for smooth fields. Body loads default to zero.
    """
    cfg = state.configuration
    h = cfg.h
    if len(cfg.s) < 5:
        raise ValueError("need at least five samples to evaluate residuals")
    n_vec, m_vec = state.spatial_loads()
    dn = _derivative(n_vec, h)[1:-1]
    dm = _derivative(m_vec, h)[1:-1]
    dr = _derivative(cfg.points, h)[1:-1]
    s_mid = cfg.s[1:-1]
    f = np.zeros_like(dn)
    l = np.zeros_like(dm)
    if body_force is not None:
        f = np.array([body_force(float(si)) for si in s_mid], dtype=float)
    if body_couple is not None:
        l = np.array([body_couple(float(si)) for si in s_mid], dtype=float)
    force_res = dn + f
    couple_res = dm + np.cross(dr, n_vec[1:-1]) + l
    # trim samples whose stencil touches the one-sided endpoint values
    force_max = float(np.abs(force_res[1:-1]).max())
    couple_max = float(np.abs(couple_res[1:-1]).max())
    return BalanceReport(force_residual=force_max, couple_residual=couple_max, h=h)


def state_from_configuration(params: MaterialParams, config: Configuration) -> EquilibriumState:
    """Recover an equilibrium state from bare geometry.

    Strains come from difference stencils (tangent components in the
    director frame plus the Darboux components) as one (n, 6) array, and
    ``loads_from_strains_batch`` maps them to loads in one call, bit for
    bit as the scalar inverse map would row by row. Raises
    StrainOutOfRange, naming Q of the first bad sample, if the geometry is
    constitutively impossible. The derived loads carry the O(h^2)
    discretization error of the stencils.
    """
    pn = nondimensionalize(params)
    h = config.h
    dr = _derivative(config.points, h)
    v = np.einsum("ni,nki->nk", dr, config.directors)
    u = darboux_components(config.directors, h)
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

    Returns the points sorted by (N, branch) together with the threshold
    verdict; sheared points appear only for thrusts strictly above the
    threshold. One bisection runs over all of those thrusts at once, and its
    angles are bit for bit those of ``sheared_angle``. A NaN or infinite
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
    points: list[BranchPoint] = []
    scale = 1.0 if n_max - n_min < math.inf else 2.0
    grid = scale * np.linspace(n_min / scale, n_max / scale, count)
    for thrust in grid.tolist():
        loads = Loads(0.0, 0.0, 0.0, 0.0, 0.0, thrust)
        points.append(BranchPoint(thrust, 0.0, strains_from_loads(pn, loads), loads, "trivial"))
    if not isinstance(branch.thresh, NoBifurcation):
        sheared = grid[grid > branch.thresh]
        thetas = _sheared_tilt(branch, sheared).tolist()
        points += map(partial(_sheared_point, branch), sheared.tolist(), thetas)
    points.sort(key=lambda pt: (pt.N, pt.branch))
    return points, branch.thresh


def write_branch_csv(
    path: str | Path,
    points: list[BranchPoint],
    no_bifurcation: NoBifurcation | None = None,
) -> None:
    """Emit a branch sweep as CSV (17 significant digits, byte-stable)."""
    lines = []
    if no_bifurcation is not None:
        lines.append(f"# no bifurcation: {no_bifurcation}")
    lines.append(BRANCH_CSV_HEADER)
    for pt in points:
        row = _branch_row(pt).values()
        lines.append(",".join(x if isinstance(x, str) else f"{x:.17g}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _branch_row(pt: BranchPoint) -> dict:
    """A row of the diagram, keyed by the columns BRANCH_CSV_HEADER names,
    in its order: the CSV and the JSON table both write it."""
    amplitude = math.hypot(pt.strains.v1, pt.strains.v2)
    values = (pt.N, pt.theta, pt.strains.u3, pt.strains.v3, amplitude, pt.branch)
    return dict(zip(BRANCH_CSV_HEADER.split(","), values))
