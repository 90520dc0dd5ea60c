"""High-precision reference of the closed forms, for tests.

It builds the covariance matrices from the same double inputs and evaluates
the textbook forms (det through ``mp.det``, the unrationalized differences)
at ``DPS`` digits, enough to absorb every cancellation of e^{8r}-sized terms
at r <= 89 and still keep more than 80.  It checks roundoff; the Fock oracle
checks the derivations.
"""

from types import SimpleNamespace

import mpmath

from cvgauss import DstsParams, TwoModeStsParams

mp = mpmath.mp
mpf = mpmath.mpf

#: working digits of the reference: 8 r / ln 10 <= 310 digits cancel in the
#: two-mode det(V + V') at r = 89, which leaves more than 80
DPS = 420


def mp_cov1(p: DstsParams):
    """y R diag(e^{2r}, e^{-2r}) R^T, R the rotation by phi/2."""
    y = mpf(p.nbar) + mpf(0.5)
    e = mp.exp(2 * mpf(p.r))
    c, s = mp.cos(mpf(p.phi) / 2), mp.sin(mpf(p.phi) / 2)
    rot = mp.matrix([[c, -s], [s, c]])
    return y * rot * mp.diag([e, 1 / e]) * rot.T


def mp_cov_sts(p: TwoModeStsParams):
    y1, y2 = mpf(p.nbar1) + mpf(0.5), mpf(p.nbar2) + mpf(0.5)
    ch, sh = mp.cosh(mpf(p.r)), mp.sinh(mpf(p.r))
    n1, n2 = y1 * ch ** 2 + y2 * sh ** 2, y2 * ch ** 2 + y1 * sh ** 2
    g = (y1 + y2) * sh * ch
    c, s = g * mp.cos(mpf(p.phi)), g * mp.sin(mpf(p.phi))
    return mp.matrix([[n1, 0, c, s], [0, n1, s, -c], [c, s, n2, 0], [s, -c, 0, n2]])


def mp_fidelity_cov1(v1, v2, d=(0, 0)):
    """exp(-dv.(V1 + V2)^(-1).dv) / (sqrt(Delta + Lambda) - sqrt(Lambda))."""
    delta = mp.det(v1 + v2)
    lam = 4 * (mp.det(v1) - mpf(0.25)) * (mp.det(v2) - mpf(0.25))
    dv = mp.matrix([mpf(d[0]), mpf(d[1])])
    expo = (dv.T * mp.inverse(v1 + v2) * dv)[0]
    return mp.exp(-expo) / (mp.sqrt(delta + lam) - mp.sqrt(lam))


def mp_fidelity_one_mode(p1: DstsParams, p2: DstsParams):
    with mp.workdps(DPS):
        d = (mpf(p1.alpha.real) - mpf(p2.alpha.real), mpf(p1.alpha.imag) - mpf(p2.alpha.imag))
        return mp_fidelity_cov1(mp_cov1(p1), mp_cov1(p2), d)


def mp_fidelity_two_mode(p1: TwoModeStsParams, p2: TwoModeStsParams):
    with mp.workdps(DPS):
        det = mp.det(mp_cov_sts(p1) + mp_cov_sts(p2))
        n1, n2, m1, m2 = (mpf(v) for v in (p1.nbar1, p1.nbar2, p2.nbar1, p2.nbar2))
        s = mp.sqrt(n1 * m1 * (n2 + 1) * (m2 + 1)) + mp.sqrt(n2 * m2 * (n1 + 1) * (m1 + 1))
        return (mp.sqrt(mp.sqrt(det) + s * s) - s) ** -2


def mp_teleport_fidelity(x: float, y: float, z: float):
    with mp.workdps(DPS):
        x, y, z = mpf(x), mpf(y), mpf(z)
        e = x + mp.sqrt(x * x - 1)
        v_in = mp.diag([y * e, y / e])
        return mp_fidelity_cov1(v_in, v_in + z * mp.eye(2))


def mp_teleport_map(p: DstsParams, z: float):
    """(nbar_out, r_out) of V_in + z I from its determinant and eigenvalues."""
    with mp.workdps(DPS):
        v = mp_cov1(p) + mpf(z) * mp.eye(2)
        det, tr = mp.det(v), v[0, 0] + v[1, 1]
        y_out = mp.sqrt(det)
        top = (tr + mp.sqrt(tr * tr - 4 * det)) / 2
        return y_out - mpf(0.5), mp.log(top / y_out) / 2


def rel_err(value: float, ref) -> float:
    """Relative error, or the absolute one where the reference is zero up to
    its own roundoff."""
    return float(abs((mpf(value) - ref) / ref) if abs(ref) > 1e-60 else abs(value))


def mp_nonclassicality_threshold(nbar):
    """r_c = ln(2 nbar + 1) / 2."""
    return mp.log(2 * nbar + 1) / 2


def mp_degree_q0(nbar, r):
    """1 - sqrt(sech(r - r_c)) past the threshold r_c."""
    gap = r - mp_nonclassicality_threshold(nbar)
    return 1 - mp.sqrt(1 / mp.cosh(gap)) if gap > 0 else mpf(0)


def mp_separability_threshold(nbar1: float, nbar2: float):
    """asinh sqrt(nbar1 nbar2/(nbar1 + nbar2 + 1)), which cancels nowhere: the
    textbook acosh sqrt((nbar1 + 1)(nbar2 + 1)/(nbar1 + nbar2 + 1)) reads 0
    at DPS digits once nbar1 nbar2 falls below about 1e-420."""
    with mp.workdps(DPS):
        n1, n2 = mpf(nbar1), mpf(nbar2)
        return mp.asinh(mp.sqrt(n1 * n2 / (n1 + n2 + 1)))


def mp_resource_noise(p: TwoModeStsParams):
    """(nbar1 + nbar2 + 1)(cosh 2r - cos phi sinh 2r), the unrationalized form."""
    with mp.workdps(DPS):
        r, phi = mpf(p.r), mpf(p.phi)
        return (mpf(p.nbar1) + mpf(p.nbar2) + 1) * (mp.cosh(2 * r) - mp.cos(phi) * mp.sinh(2 * r))


def mp_degree_e0(p: TwoModeStsParams):
    """1 - sech(r - r_s) past the threshold r_s, the textbook form."""
    with mp.workdps(DPS):
        gap = mpf(p.r) - mp_separability_threshold(p.nbar1, p.nbar2)
        return 1 - 1 / mp.cosh(gap) if gap > 0 else mpf(0)


# The closest classical and separable states: with g = r - r_c (one mode) or
# g = r - r_s (STS) and V the input covariance, V' = V - (V_g - I/2), V_g the
# squeezed vacuum of squeeze g at the input's angle (for STS the two-mode
# squeezed vacuum); phi and alpha are kept.  Each map returns the state's
# fields at DPS digits, which mp_cov1 and mp_cov_sts read as they are.

def mp_closest_classical(p: DstsParams):
    """P' = nbar (nbar + 1) e^{2g} with e^{2g} = e^{2r}/(2 nbar + 1), then
    y' = sqrt(1/4 + P'), nbar' = P'/(y' + 1/2) and 4 r' = log1p(4 P')."""
    with mp.workdps(DPS):
        nbar = mpf(p.nbar)
        big_p = nbar * (nbar + 1) * mp.exp(2 * mpf(p.r)) / (2 * nbar + 1)
        y = mp.sqrt(mpf(0.25) + big_p)
        return SimpleNamespace(nbar=big_p / (y + mpf(0.5)), r=mp.log1p(4 * big_p) / 4,
                               phi=p.phi, alpha=p.alpha)


def mp_closest_separable(p: TwoModeStsParams):
    """With N = nbar1 + nbar2 + 1 and d = |nbar1 - nbar2|: 4 r' = log1p((B - A)/A)
    for A = N e^{-2r} - expm1(-2g) and B - A = 2[(nbar1 + nbar2) sinh 2r
    + 2 cosh(2r - r_s) sinh r_s]; with s = sinh^2 r' and w = sqrt(d^2 + sinh^2 2r'),
    the smaller occupancy is (2s - d + w)/2, or 2s(1 + d)/(w + d - 2s) for
    2s < d, and the larger one d more, so nbar1' - nbar2' = nbar1 - nbar2."""
    with mp.workdps(DPS):
        n1, n2, r = mpf(p.nbar1), mpf(p.nbar2), mpf(p.r)
        rs = mp_separability_threshold(p.nbar1, p.nbar2)
        a = (n1 + n2 + 1) * mp.exp(-2 * r) - mp.expm1(-2 * (r - rs))
        b_minus_a = 2 * ((n1 + n2) * mp.sinh(2 * r) + 2 * mp.cosh(2 * r - rs) * mp.sinh(rs))
        r_new = mp.log1p(b_minus_a / a) / 4
        d, s = abs(n1 - n2), mp.sinh(r_new) ** 2
        w = mp.sqrt(d * d + mp.sinh(2 * r_new) ** 2)
        small = (2 * s - d + w) / 2 if 2 * s >= d else 2 * s * (1 + d) / (w + d - 2 * s)
        big = small + d
        return SimpleNamespace(nbar1=big if n1 >= n2 else small, nbar2=small if n1 >= n2 else big,
                               r=r_new, phi=p.phi)
