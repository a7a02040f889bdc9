"""Director-frame kinematics and Euler-angle parameterization.

A configuration is a centerline r(s), s in [0, 1], with an attached
right-handed orthonormal director frame {d1, d2, d3}.  The Darboux vector
u drives the frame, d_k' = u x d_k, and the tangent expands as
r' = v_k d_k; the components of u and v in the director frame are the six
geometric strains.

Frames are the primary representation here.  Euler angles (phi, theta,
psi) are a chart over them,

    d3 = sin(theta) (cos(phi) g1 + sin(phi) g2) + cos(theta) g3,

with the auxiliary basis e3 = d3, e2 = -sin(phi) g1 + cos(phi) g2,
e1 = e2 x e3, and d1, d2 rotated from e1, e2 by psi.  The chart is
degenerate at theta in {0, pi} where only psi + phi (resp. psi - phi) is
meaningful; by convention phi = 0 there.

The reduced equilibrium system expresses the balance of couples in the
{e_k} basis for a terminal thrust N g3; ``reduced_residual`` evaluates its
six left-hand sides, which vanish identically on an exact solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from ._lazy import lazy_numpy
from .constitutive import Loads, Strains, _checked_tuple, _load_gate, _saturation
from .errors import AngleOutOfRange, LoadOutOfRange, NonOrthonormalFrame, StrainOutOfRange
from .material import MaterialParams, _constants, nondimensionalize

np = lazy_numpy(globals())  # numpy itself from the first array call

__all__ = [
    "EulerAngles",
    "Frame",
    "Configuration",
    "FrameLoads",
    "directors_from_euler",
    "darboux_components",
    "strains_from_euler",
    "frame_loads",
    "shear_factors",
    "reduced_residual",
    "reconstruct",
    "write_configuration_csv",
    "read_configuration_csv",
    "CSV_HEADER",
]

_ORTHO_TOL = 1e-8

CSV_HEADER = "s,rx,ry,rz,d1x,d1y,d1z,d2x,d2y,d2z,d3x,d3y,d3z"
_CSV_CHUNK = 1024  # rows formatted per write


class EulerAngles(NamedTuple):
    """Angles (phi, theta, psi) in radians; theta restricted to [0, pi].
    An immutable tuple that equals only its own type; every way of making
    one (call, ``_make``, ``_replace``, pickle, copy) checks theta."""

    phi: float
    theta: float
    psi: float


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= math.pi:
        raise AngleOutOfRange(f"theta must lie in [0, pi], got {theta!r}")


def _new_angles(cls, phi: float, theta: float, psi: float) -> EulerAngles:
    _check_theta(theta)
    return tuple.__new__(cls, (phi, theta, psi))


_checked_tuple(EulerAngles, _new_angles)


def _check_finite(what: str, error: type = AngleOutOfRange, **values: float) -> None:
    """Raise ``error`` naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{what} {name} must be finite, got {value!r}")


def _cross(a, b) -> list:
    """a x b of vectors given as component rows, by the arithmetic of ``np.cross``."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _check_frames(dirs: np.ndarray, not_orthonormal: str, not_right_handed: str = "") -> None:
    """Raise NonOrthonormalFrame, with the message given, if a frame of
    ``dirs`` (n, 3, 3) fails orthonormality or, where a message for it is
    given, right-handedness. Each test is one max over component columns,
    written "not <=" so that a NaN anywhere fails it."""
    d1, d2, d3 = (dirs[:, k].T for k in range(3))
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    gram = [dot(d1, d1) - 1.0, dot(d2, d2) - 1.0, dot(d3, d3) - 1.0,
            dot(d1, d2), dot(d1, d3), dot(d2, d3)]
    if not np.abs(gram).max() <= _ORTHO_TOL:
        raise NonOrthonormalFrame(not_orthonormal)
    if not_right_handed and not np.abs(np.subtract(_cross(d1, d2), d3)).max() <= _ORTHO_TOL:
        raise NonOrthonormalFrame(not_right_handed)


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal director triple in the fixed basis."""

    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def __post_init__(self):
        for name in ("d1", "d2", "d3"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        _check_frames(self.matrix()[None], "directors are not orthonormal",
                      "frame is not right-handed")

    def matrix(self) -> np.ndarray:
        """Rows d1, d2, d3."""
        return np.vstack([self.d1, self.d2, self.d3])


def _libm(fn: Callable[..., float], x: np.ndarray, *args: float) -> np.ndarray:
    """``fn`` from ``math``, or the builtin ``pow``, over a 1-D float array,
    with ``args`` as its further arguments. numpy's vector loops may round
    differently from libm, so this keeps array and scalar callers bit-equal.
    An array whose elements share one bit pattern (a phase with zero rate)
    takes one call; the test is on bits, so 0.0 and -0.0 differ."""
    if len(x) > 1:
        bits = x.view(np.int64)
        if (bits == bits[0]).all():
            return np.full(len(x), fn(x[0].item(), *args))
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, len(x))


def _euler_directors(phi: np.ndarray, theta: float, psi: np.ndarray) -> np.ndarray:
    """Directors at the angles (phi[i], theta, psi[i]): shape (n, 3, 3),
    ``out[i, k]`` = d_{k+1}. The only copy of the chart's formula."""
    _check_theta(theta)
    sphi, cphi = _libm(math.sin, phi), _libm(math.cos, phi)
    spsi, cpsi = _libm(math.sin, psi)[:, None], _libm(math.cos, psi)[:, None]
    sth, cth = math.sin(theta), math.cos(theta)
    d3 = np.stack([sth * cphi, sth * sphi, np.full_like(cphi, cth)], axis=1)
    e2 = np.stack([-sphi, cphi, np.zeros_like(cphi)], axis=1)
    e1 = np.stack([cth * cphi, cth * sphi, np.full_like(cphi, -sth)], axis=1)
    return np.stack([cpsi * e1 + spsi * e2, -spsi * e1 + cpsi * e2, d3], axis=1)


def directors_from_euler(angles: EulerAngles) -> Frame:
    """Director frame of an Euler-angle triple. Raises AngleOutOfRange for
    a NaN or infinite phi or psi."""
    _check_finite("angle", phi=angles.phi, psi=angles.psi)
    d = _euler_directors(np.array([angles.phi]), angles.theta, np.array([angles.psi]))[0]
    return Frame(d1=d[0], d2=d[1], d3=d[2])


@dataclass(frozen=True)
class Configuration:
    """Uniformly sampled configuration: s grid, centerline points, directors.

    ``directors[i, k]`` is d_{k+1} at sample i. Every frame is checked
    here, once: NonOrthonormalFrame if one is not orthonormal or not
    right-handed. Arrays are frozen after validation and safe to share.
    """

    s: np.ndarray
    points: np.ndarray
    directors: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        dirs = np.asarray(self.directors, dtype=float)
        n = s.shape[0]
        if n < 2 or s.ndim != 1:
            raise ValueError("need at least two samples")
        if pts.shape != (n, 3) or dirs.shape != (n, 3, 3):
            raise ValueError("inconsistent sample array shapes")
        if not (np.isfinite(s).all() and np.isfinite(pts).all()):
            raise ValueError("arclength and centerline samples must be finite")
        # every tolerance test is written "not <=" so that NaN fails it
        if not (abs(s[0]) <= 1e-9 and abs(s[-1] - 1.0) <= 1e-9):
            raise ValueError("arclength parameter must run from 0 to 1")
        steps = np.diff(s)
        if not steps.min() > 0.0:
            raise ValueError("arclength parameter must be strictly increasing")
        h = 1.0 / (n - 1)
        if not np.abs(steps - h).max() <= 1e-9 * max(1.0, h):
            raise ValueError("samples must be uniformly spaced")
        _check_frames(dirs, "a sampled frame is not orthonormal",
                      "a sampled frame is not right-handed")
        for name, arr in (("s", s), ("points", pts), ("directors", dirs)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def h(self) -> float:
        return 1.0 / (len(self.s) - 1)

    def frame(self, i: int) -> Frame:
        d = self.directors[i]
        return Frame(d1=d[0], d2=d[1], d3=d[2])


@dataclass(frozen=True)
class FrameLoads:
    """Couple and force components in the auxiliary {e_k} basis, plus the
    end-thrust magnitude N (so N1 = -N sin(theta), N2 = 0, N3 = N cos(theta)
    for the terminal-thrust load family)."""

    M1: float
    M2: float
    M3: float
    N1: float
    N2: float
    N3: float
    N: float


def _derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/ds along axis 0: central interior, one-sided ends."""
    if len(values) < 3:
        raise ValueError(f"difference stencils need at least three samples, got {len(values)}")
    d = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=d[1:-1])  # in place: no temporaries
    d[1:-1] /= 2.0 * h
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def darboux_components(frames: np.ndarray, h: float) -> np.ndarray:
    """Darboux vector components (u . d_k) of frames sampled (n, 3, 3).

    Uses u = (1/2) sum_k d_k x d_k' with second-order difference stencils,
    so the result carries an O(h^2) discretization error. Returns shape
    (n, 3). Checks every frame: NonOrthonormalFrame if one fails the tolerance.
    """
    dirs = np.asarray(frames, dtype=float)
    if dirs.ndim != 3 or dirs.shape[1:] != (3, 3) or dirs.shape[0] < 3:
        raise ValueError("need at least three frame samples of shape (3, 3)")
    _check_frames(dirs, "frame samples are not orthonormal")
    return _darboux(dirs, h)


def _darboux(dirs: np.ndarray, h: float) -> np.ndarray:
    """``darboux_components`` of frames already checked. The sum over k of
    d_k x d_k' runs in k order, as ``np.cross(dirs, rates).sum(axis=1)``."""
    rates = _derivative(dirs, h)
    c1, c2, c3 = (_cross(dirs[:, k].T, rates[:, k].T) for k in range(3))
    u = 0.5 * np.stack([a + b + c for a, b, c in zip(c1, c2, c3)], axis=1)
    return np.einsum("ni,nki->nk", u, dirs)


def strains_from_euler(
    angles: EulerAngles,
    angle_rates: tuple[float, float, float],
    tangent_components: tuple[float, float, float],
) -> Strains:
    """Strains of an Euler-angle path.

    ``angle_rates`` are (phi', theta', psi'); the tangent components
    (v1, v2, v3) pass through unchanged:

        u1 = theta' sin(psi) - phi' sin(theta) cos(psi)
        u2 = theta' cos(psi) + phi' sin(theta) sin(psi)
        u3 = psi' + phi' cos(theta)

    Raises AngleOutOfRange for a NaN or infinite psi or angle rate, and
    for finite rates whose strains overflow.
    """
    _, theta, psi = angles
    dphi, dtheta, dpsi = angle_rates
    sth = math.sin(theta)
    try:
        spsi, cpsi = math.sin(psi), math.cos(psi)
    except ValueError:  # psi infinite, named below
        spsi = cpsi = math.nan
    u1 = dtheta * spsi - dphi * sth * cpsi
    u2 = dtheta * cpsi + dphi * sth * spsi
    u3 = dpsi + dphi * math.cos(theta)
    if not math.isfinite(u1 + u2 + u3):  # a non-finite input or an overflow makes one so
        _check_finite("angle", psi=psi)
        _check_finite("angle rate", dphi=dphi, dtheta=dtheta, dpsi=dpsi)
        _check_finite(f"at angle rates {(dphi, dtheta, dpsi)!r}, strain", u1=u1, u2=u2, u3=u3)
    v1, v2, v3 = tangent_components
    return tuple.__new__(Strains, (u1, u2, u3, v1, v2, v3))  # Strains(...) less its Python __new__


def frame_loads(loads: Loads, angles: EulerAngles, thrust: float) -> FrameLoads:
    """Re-express director-frame couples in the {e_k} basis and attach the
    terminal-thrust force components. Raises AngleOutOfRange for a NaN or
    infinite psi; non-finite loads pass through."""
    _check_finite("angle", psi=angles.psi)
    spsi, cpsi = math.sin(angles.psi), math.cos(angles.psi)
    sth, cth = math.sin(angles.theta), math.cos(angles.theta)
    return FrameLoads(
        M1=loads.m1 * cpsi - loads.m2 * spsi,
        M2=loads.m1 * spsi + loads.m2 * cpsi,
        M3=loads.m3,
        N1=-thrust * sth,
        N2=0.0,
        N3=thrust * cth,
        N=thrust,
    )


def shear_factors(params: MaterialParams, loads: Loads) -> tuple[float, float]:
    """Scalar factors (u_factor, v_factor) in the normalized gauge such that
    u_mu = u_factor * m_mu and v_mu = v_factor * n_mu: the forward map's
    ``_saturation`` F over alpha^2 and zeta^2, positive and finite, at the
    scale of ``_load_gate``. Raises LoadOutOfRange, with the forward map's
    messages, where the gate does: a NaN or infinite component, or Q*
    overflowing."""
    c = _constants(nondimensionalize(params))
    k, _, qstar = _load_gate(c, loads)
    f = _saturation(c.p, math.sqrt(qstar), k)[0] * k
    return f / c.a2, f / c.z2


def reduced_residual(
    params: MaterialParams,
    angles: EulerAngles,
    angle_rates: tuple[float, float, float],
    loads: FrameLoads,
    load_rates: tuple[float, float, float],
    v3: float,
) -> np.ndarray:
    """Six residuals of the reduced equilibrium system, zero at a solution.

    ``angle_rates`` = (phi', theta', psi'); ``load_rates`` = (M1', M2', M3').
    Works in the normalized gauge (params are renormalized on entry):

        r1 = sin(theta) phi' + u M1
        r2 = theta' + u M2
        r3 = psi' + cos(theta) phi' - u3
        r4 = M1' - M2 cos(theta) phi' + theta' M3
        r5 = M2' + (M1 cos(theta) + M3 sin(theta)) phi'
             - N v3 sin(theta) + N^2 v cos(theta) sin(theta)
        r6 = M3'

    where u, v are the shear factors and u3 the constitutive twist of the
    load state. Raises LoadOutOfRange for a NaN or infinite load component,
    as ``shear_factors`` does, thrust N or load rate; AngleOutOfRange for a
    NaN or infinite angle rate; StrainOutOfRange for a NaN or infinite v3.
    """
    pn = nondimensionalize(params)
    c = _constants(pn)
    dphi, dtheta, dpsi = angle_rates
    dM1, dM2, dM3 = load_rates
    _check_finite("angle rate", dphi=dphi, dtheta=dtheta, dpsi=dpsi)
    _check_finite("load rate", LoadOutOfRange, dM1=dM1, dM2=dM2, dM3=dM3)
    _check_finite("strain", StrainOutOfRange, v3=v3)
    sth, cth = math.sin(angles.theta), math.cos(angles.theta)
    # Q* only involves psi-rotation invariants, so the {e_k} components can
    # stand in for director components directly.
    director_loads = Loads(loads.M1, loads.M2, loads.M3, loads.N1, loads.N2, loads.N3)
    u_fac, v_fac = shear_factors(pn, director_loads)
    if not math.isfinite(loads.N):
        raise LoadOutOfRange(f"thrust N = {loads.N!r} is not finite")
    f = u_fac * c.a2
    u3 = f * (c.e2 * loads.M3 - c.iota * loads.N * cth) / c.det
    return np.array(
        [
            sth * dphi + u_fac * loads.M1,
            dtheta + u_fac * loads.M2,
            dpsi + cth * dphi - u3,
            dM1 - loads.M2 * cth * dphi + dtheta * loads.M3,
            dM2
            + (loads.M1 * cth + loads.M3 * sth) * dphi
            - loads.N * v3 * sth
            + loads.N * v_fac * loads.N * cth * sth,
            dM3,
        ]
    )


_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)  # Gauss nodes of a unit step


def _gauss_samples(strain_field: Callable[[float], Strains], s_grid: np.ndarray) -> np.ndarray:
    """The field at the two Gauss points of each step, sampled once in
    increasing s: shape (n, 4, 3), rows u1, v1, u2, v2."""
    n = len(s_grid) - 1
    nodes = (s_grid[:-1, None] + np.divide(_GAUSS, n)).ravel()
    samples = itertools.chain.from_iterable(map(strain_field, nodes.tolist()))
    return np.fromiter(samples, float, 12 * n).reshape(n, 4, 3)


def _magnus_generators(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation parts (w, t) of each step's order-4 Magnus
    generator (h/2)(xi1 + xi2) - (sqrt(3) h^2/12) [xi2, xi1], with the
    bracket [xa, xb] = (ua x ub, ua x vb - ub x va). This commutator sign is
    the one for right multiplication, g' = g xi."""
    h = 1.0 / len(xi)
    u1, v1, u2, v2 = xi.transpose(1, 0, 2)
    k = math.sqrt(3.0) * h * h / 12.0
    w = 0.5 * h * (u1 + u2) - k * np.cross(u2, u1)
    return w, 0.5 * h * (v1 + v2) - k * (np.cross(u2, v1) - np.cross(u1, v2))


def _se3_exp(w: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp of each se(3) element (w, t) in closed form: writes the rotation,
    transposed, E^T = cos(x) I - a w^ + b w w^T into ``out`` and returns
    the translation V t = t + b w x t + c w x (w x t), with x = |w|,
    a = sin(x)/x, b = (1 - cos x)/x^2 and c = (x - sin x)/x^3 (Taylor
    series below x = 1e-4)."""
    theta = np.sqrt(np.einsum("ni,ni->n", w, w))
    small, x2 = theta < 1e-4, theta * theta
    x = np.where(small, 1.0, theta)  # keeps the closed forms off 0/0
    a = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(x) / x)
    b = np.where(small, 0.5 - x2 / 24.0 + x2 * x2 / 720.0, 2.0 * (np.sin(0.5 * x) / x) ** 2)
    c = np.where(small, 1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0, (x - np.sin(x)) / x**3)
    np.multiply(b[:, None, None] * w[:, :, None], w[:, None, :], out=out)
    out[:, [0, 1, 2], [0, 1, 2]] += np.cos(theta)[:, None]
    out[:, [2, 0, 1], [1, 2, 0]] -= a[:, None] * w  # w^[2, 1] = w1, ...
    out[:, [1, 2, 0], [2, 0, 1]] += a[:, None] * w
    wt = np.cross(w, t)
    return t + b[:, None] * wt + c[:, None] * np.cross(w, wt)


def reconstruct(
    strain_field: Callable[[float], Strains],
    start_point: np.ndarray | Sequence[float],
    start_frame: Frame,
    grid_h: float,
) -> Configuration:
    """Integrate a strain field into a configuration on [0, 1].

    r' = v_k d_k and d_k' = u x d_k are the linear ODE g' = g xi(s) on
    SE(3), with g = (R, r), R = [d1 d2 d3] and xi = (u, v); each step is
    the order-4 Magnus step g <- g exp(Omega). The global error is O(h^4),
    and a constant strain field (the trivial and twist families, a helix
    with psi' = 0) comes out exact up to rounding. A prefix scan composes
    the steps' rotations in ceil(log2 n) batched products, with no
    re-orthonormalization: on a constant twist and a constant helix field,
    rounding moved the frames 7.6e-14 and 3.5e-14 from the exact ones after
    10^3 steps, 3.3e-13 and 3.9e-13 after 10^4. The field is called
    2 round(1/grid_h) times, in increasing s, before the first step. The
    step count is round(1/grid_h), so the effective spacing may differ
    slightly from ``grid_h`` when it does not divide 1.
    """
    if not 0.0 < grid_h <= 0.5:
        raise ValueError(f"grid_h must lie in (0, 0.5], got {grid_h!r}")
    n = max(2, round(1.0 / grid_h))
    s_grid = np.linspace(0.0, 1.0, n + 1)

    # each exp lands in the output: E^T in dirs (rows, so a step maps them
    # by E^T) and V t in points
    points = np.empty((n + 1, 3))
    points[0] = start_point
    dirs = np.empty((n + 1, 3, 3))
    dirs[0] = start_frame.matrix()
    points[1:] = _se3_exp(*_magnus_generators(_gauss_samples(strain_field, s_grid)), out=dirs[1:])
    steps, shift = dirs[1:], 1  # the rows obey D_{i+1} = E_i^T D_i, so an inclusive
    while shift < n:  # Hillis-Steele scan makes steps[i] = E_i^T ... E_0^T
        steps[shift:] = steps[shift:] @ steps[:-shift]
        shift *= 2
    np.matmul(steps, dirs[0], out=steps)
    points[1:] = np.einsum("nk,nki->ni", points[1:], dirs[:-1])  # R (V t)
    np.cumsum(points, axis=0, out=points)  # r <- r + R (V t)
    return Configuration(s=s_grid, points=points, directors=dirs)


def write_configuration_csv(config: Configuration, path: str | Path) -> None:
    """Write samples as CSV, 17 significant digits (byte-stable, round-trip safe).

    One row per sample: s, the centerline point, then d1, d2, d3. Rows are
    formatted ``_CSV_CHUNK`` at a time with ``%.17g`` on Python floats,
    which gives the same bytes as ``f"{x:.17g}"``, and written through one
    open handle, so the whole file never sits in memory. A column whose
    values all share the bits of its first (the straight families repeat
    most of theirs) is formatted once, into the row template; the test is
    on bits because 0.0 and -0.0 compare equal but print as 0 and -0.
    """
    n = len(config.s)
    data = np.column_stack([config.s, config.points, config.directors.reshape(n, 9)])
    bits = data.view(np.int64)
    varies = (bits != bits[0]).any(axis=0)
    row = ",".join(
        "%.17g" if vary else f"{x:.17g}" for vary, x in zip(varies, data[0].tolist())
    ) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, n, _CSV_CHUNK):
            chunk = data[start : start + _CSV_CHUNK, varies]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_configuration_csv(path: str | Path) -> Configuration:
    """Parse a configuration CSV; raises ValueError on malformed input.

    Blank lines may precede the header or trail the last row; every other
    line after the header has 13 finite numbers, and there are at least two.
    A well-formed file goes through numpy's C parser in one pass. Any file
    that parser does not accept as is is read again line by line, which
    either accepts it too or raises a ValueError naming the first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        data = _load_samples(fh)
        if data is None:
            fh.seek(0)
            data = _parse_samples(fh)
    return Configuration(
        s=data[:, 0],
        points=data[:, 1:4],
        directors=data[:, 4:13].reshape(-1, 3, 3),
    )


def _load_samples(fh) -> np.ndarray | None:
    """The sample rows of a well-formed file, or None if any doubt remains."""
    if fh.readline() != CSV_HEADER + "\n":
        return None
    lines = itertools.takewhile(str.strip, fh)  # stops at the first blank line
    first = next(lines, None)
    if first is None:  # loadtxt would warn about an empty input
        return None
    try:
        data = np.loadtxt(
            itertools.chain((first,), lines), delimiter=",", comments=None, ndmin=2
        )
    except ValueError:
        return None
    if any(map(str.strip, fh)):  # a row after a blank line
        return None
    if data.shape[0] < 2 or data.shape[1] != 13 or not np.isfinite(data).all():
        return None
    return data


def _parse_samples(fh) -> np.ndarray:
    """Line-by-line parse that names the first bad line."""
    rows: list[list[float]] = []
    header = False
    blank = None  # first blank line since the last row
    for ln, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            blank = blank or ln
            continue
        if not header:
            if line.strip() != CSV_HEADER:
                break
            header, blank = True, None
            continue
        if blank is not None:  # a blank line between rows: one empty column
            raise ValueError(f"line {blank}: expected 13 columns, got 1")
        parts = line.split(",")
        if len(parts) != 13:
            raise ValueError(f"line {ln}: expected 13 columns, got {len(parts)}")
        try:
            vals = [float(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"line {ln}: non-finite value")
        rows.append(vals)
    if not header:
        raise ValueError("bad or missing configuration CSV header")
    if len(rows) < 2:
        raise ValueError("configuration CSV needs at least two samples")
    return np.array(rows)
