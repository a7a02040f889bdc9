"""The high-precision references that every accuracy test reads. Each
function sets its own precision: DPS digits, or more where its inputs need
them. Energies and cos(theta) come back as mpf, not rounded to floats."""

import mpmath
import numpy as np

DPS = 50


def _moduli(params):
    """alpha^2, beta^2, zeta^2, eta^2, iota, det = beta^2 eta^2 - iota^2."""
    a2, b2, z2, e2 = (mpmath.mpf(x) ** 2 for x in (params.alpha, params.beta, params.zeta, params.eta))
    i = mpmath.mpf(params.iota)
    return a2, b2, z2, e2, i, b2 * e2 - i * i


def load_form(params, loads):
    """Q*(m, n) of six loads (m1, m2, m3, n1, n2, n3)."""
    with mpmath.workdps(DPS):
        m1, m2, m3, n1, n2, n3 = map(mpmath.mpf, loads)
        a2, b2, z2, e2, i, det = _moduli(params)
        return (m1**2 + m2**2) / a2 + (n1**2 + n2**2) / z2 + (e2 * m3**2 + b2 * n3**2 - 2 * i * m3 * n3) / det


def saturating_factor(params, loads):
    """F = (gamma^p + Q*^{p/2})^{-1/p}."""
    with mpmath.workdps(DPS):
        p = mpmath.mpf(params.p)
        return (mpmath.mpf(params.gamma) ** p + load_form(params, loads) ** (p / 2)) ** (-1 / p)


def forward_dev(params, loads):
    """Strain deviation (u, v - e3) of the forward map, F times the loads
    through the inverse form, before any projection; as floats."""
    with mpmath.workdps(DPS):
        m1, m2, m3, n1, n2, n3 = map(mpmath.mpf, loads)
        a2, b2, z2, e2, i, det = _moduli(params)
        f = saturating_factor(params, loads)
        dev = [m1 / a2, m2 / a2, (e2 * m3 - i * n3) / det, n1 / z2, n2 / z2, (b2 * n3 - i * m3) / det]
        return np.array([float(f * x) for x in dev])


def _beta(a, b, xs):
    """B_x(a, b) at x = 1 - s to the caller's digits, where xs() gives (x, s)
    at the current precision. x carries log10(1/s) more digits where the part
    of B_x that s sets, of relative size s^|b|, is not below that. For b > 0,
    betainc: B_x is finite at x = 1. At b = 0 and a = 2 (p = 1),
    B_x = log(1/s) - x. Otherwise DLMF 8.17.8, x^a s^b F(a + b, 1; a + 1; x)/a,
    takes s^b, by which B_x diverges for b < 0, from s itself."""
    dps, lost = mpmath.mp.dps, -mpmath.log10(xs()[1])
    with mpmath.workdps(dps + (int(lost) if 0 < abs(b) * lost < dps else 0)):
        x, s = xs()
        if b > 0:
            return mpmath.betainc(a, b, 0, x)
        if b == 0 and a == 2:
            return -mpmath.log(s) - x
        return x**a * s**b * mpmath.hyp2f1(a + b, 1, a + 1, x) / a


def stored_energy(q, p, gamma=1.0):
    """W(Q) = (gamma/p) B_x(2/p, 1 - 1/p) at x = Q^{p/2}, at the exact Q."""
    with mpmath.workdps(DPS):
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        return gamma * _beta(2 / p, 1 - 1 / p, lambda: (q ** (p / 2), -mpmath.expm1(p / 2 * mpmath.log(q)))) / p


def complementary_energy(qstar, p, gamma=1.0):
    """W*(Q*) = F Q* - W(F^2 Q*) at the exact Q*, with 1 - Q^{p/2} taken as
    (gamma F)^p, which falls to about (gamma^2/Q*)^{p/2}."""
    with mpmath.workdps(DPS):
        qs, p, g = map(mpmath.mpf, (qstar, p, gamma))
        f = lambda: (g**p + qs ** (p / 2)) ** (-1 / p)
        xs = lambda: (min(1, (f() ** 2 * qs) ** (p / 2)), (g * f()) ** p)
        return f() * qs - g * _beta(2 / p, 1 - 1 / p, xs) / p


def stored_energy_quad(q, p, gamma=1.0):
    """W(Q) = (gamma Q/2) int_0^1 (1 - (Q t)^{p/2})^{-1/p} dt, the defining
    integral by quadrature: independent of the incomplete-beta reduction.
    On [0, 1], so that quad's absolute tolerance is relative."""
    with mpmath.workdps(DPS):
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        return gamma * q / 2 * mpmath.quad(lambda t: (1 - (q * t) ** (p / 2)) ** (-1 / p), [0, 1])


def complementary_energy_quad(qstar, p, gamma=1.0):
    """W*(Q*) = (Q*/(2 gamma)) int_0^1 (1 + (Q* u/gamma^2)^{p/2})^{-1/p} du,
    likewise; independent of the Legendre identity W* = F Q* - W(F^2 Q*)."""
    with mpmath.workdps(DPS):
        qs, p, g = map(mpmath.mpf, (qstar, p, gamma))
        return qs / (2 * g) * mpmath.quad(lambda u: (1 + (qs * u / g**2) ** (p / 2)) ** (-1 / p), [0, 1])


def beta_reference(a, b, z):
    """B_x(a, b) at x = 1 - z to 80 digits."""
    with mpmath.workdps(80):
        z = mpmath.mpf(z)
        return _beta(a, b, lambda: (1 - z, z))


def branch(params):
    """(N_c, k, f(N, x)) of a normalised set: N_c = (X^p - Y^p)^{-1/p} with
    X = (ratio - 1) beta^2/det, Y = beta/sqrt(det), as a float or None where
    X^p <= Y^p; the branch function f at the caller's precision."""
    with mpmath.workdps(DPS):
        _, b2, z2, _, _, det = _moduli(params)
        p = mpmath.mpf(params.p)
        ratio = det / (b2 * z2)
        gap = ((ratio - 1) * b2 / det) ** p - (b2 / det) ** (p / 2)

        def f(thrust, x):
            g = (1 - x * x) / z2 + b2 * x * x / det
            return (mpmath.mpf(thrust) ** -p + g ** (p / 2)) ** (-1 / p) * b2 * x / det

        return (float(gap ** (-1 / p)) if gap > 0 else None), 1 / (ratio - 1), f


def sheared_cos(params, thrust):
    """cos(theta), the root in (0, 1) of the branch equation f(N, x) = k."""
    with mpmath.workdps(DPS):
        _, k, f = branch(params)
        return mpmath.findroot(lambda x: f(thrust, x) - k, (0, 1), solver="anderson")


def sheared_angle(params, thrust):
    """theta as a float."""
    with mpmath.workdps(DPS):
        return float(mpmath.acos(sheared_cos(params, thrust)))


def _shear_a(params):
    """a = 1 - (zeta Y)^2 with Y = 1/sqrt(eta^2 - (iota/beta)^2)."""
    b, z, e, i = map(mpmath.mpf, (params.beta, params.zeta, params.eta, params.iota))
    return 1 - z * z / (e * e - (i / b) ** 2)


def cos_p2(params, thrust):
    """cos(theta) at p = 2 as a float, from the closed form
    cos^2 = zeta^2 (1 + zeta^2/N^2)/(a (a + zeta^2)); N = inf gives the limit."""
    with mpmath.workdps(DPS):
        z2, a = mpmath.mpf(params.zeta) ** 2, _shear_a(params)
        return float(mpmath.sqrt(z2 * (1 + z2 / mpmath.mpf(thrust) ** 2) / (a * (a + z2))))


def shear_amplitude(params, thrust, margin=0.0):
    """tan(theta)/a as a float, x = cos(theta) = zeta y/a from the root y of
    the reduced branch equation y = ||(zeta/N, sqrt(1 - a x^2))||_p; where
    Q of the branch strains exceeds 1 - margin, the amplitude that gives
    Q = 1 - 2 margin, with the twist and dilatation held."""
    with mpmath.workdps(DPS):
        z, p, a = mpmath.mpf(params.zeta), mpmath.mpf(params.p), _shear_a(params)
        y = mpmath.findroot(lambda y: y - ((z / thrust) ** p + (1 - a * (z * y / a) ** 2) ** (p / 2)) ** (1 / p), 1)
        x = z * y / a
        amplitude = mpmath.sqrt(1 - x * x) / (x * a)
        held = (z * z / a) ** 2 / (mpmath.mpf(params.eta) ** 2 - (mpmath.mpf(params.iota) / params.beta) ** 2)
        if 1 - held - (z * amplitude) ** 2 < margin:
            amplitude = mpmath.sqrt(1 - 2 * mpmath.mpf(margin) - held) / z
        return float(amplitude)
