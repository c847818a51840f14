import math

import numpy as np
import pytest
from scipy.integrate import quad

from nahmschmid import elliptic
from nahmschmid.elliptic import complete_K, jacobi


def test_complete_K_degenerate():
    assert abs(complete_K(0.0) - math.pi / 2) < 1e-15


def test_complete_K_against_quadrature():
    # independent oracle: direct numerical quadrature of the defining integral
    for kappa in (0.3, 0.8, 0.95):
        ref, _ = quad(
            lambda th: 1.0 / math.sqrt(1.0 - (kappa * math.sin(th)) ** 2),
            0.0,
            math.pi / 2,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert abs(complete_K(kappa) - ref) < 1e-12


def test_complete_K_monotone():
    assert complete_K(0.99) > complete_K(0.5) > complete_K(0.0)


def test_complete_K_domain():
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            complete_K(bad)


def test_jacobi_at_zero():
    for kappa in (0.0, 0.4, 0.9, 1.0):
        sn, cn, dn = jacobi(0.0, kappa)
        assert (sn, cn, dn) == (0.0, 1.0, 1.0)


def test_jacobi_boundary_modulus():
    for u in (-2.0, 0.3, 5.0):
        sn, cn, dn = jacobi(u, 1.0)
        assert abs(sn - math.tanh(u)) < 1e-14
        assert abs(cn - 1.0 / math.cosh(u)) < 1e-14
        assert abs(dn - 1.0 / math.cosh(u)) < 1e-14


@pytest.mark.parametrize("u", [0.0, 5.0, -5.0, 800.0, -800.0])
def test_jacobi_boundary_modulus_large_argument(u):
    # sech is evaluated from e^{-|u|}, so it underflows to 0 instead of
    # overflowing cosh once |u| passes ~710
    sn, cn, dn = jacobi(u, 1.0)
    assert sn == pytest.approx(math.tanh(u), abs=1e-15)
    assert cn == dn
    expected = 1.0 / math.cosh(u) if abs(u) < 700 else 0.0
    assert cn == pytest.approx(expected, rel=1e-15, abs=1e-300)
    assert abs(sn * sn + cn * cn - 1.0) < 1e-15


def test_jacobi_trigonometric_limit():
    for u in (-1.0, 0.2, 2.5):
        sn, cn, dn = jacobi(u, 0.0)
        assert abs(sn - math.sin(u)) < 1e-14
        assert abs(cn - math.cos(u)) < 1e-14
        assert abs(dn - 1.0) < 1e-14


def test_jacobi_periodicity():
    kappa = 0.8
    K = complete_K(kappa)
    for u in (-3.2, 0.0, 0.7, 2.9):
        a = jacobi(u, kappa)
        b = jacobi(u + 4 * K, kappa)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_jacobi_parity(rng):
    for _ in range(50):
        u = rng.uniform(-10, 10)
        kappa = rng.uniform(0, 0.999)
        sn_p, cn_p, dn_p = jacobi(u, kappa)
        sn_m, cn_m, dn_m = jacobi(-u, kappa)
        assert abs(sn_p + sn_m) < 1e-12
        assert abs(cn_p - cn_m) < 1e-12
        assert abs(dn_p - dn_m) < 1e-12


def test_jacobi_pythagorean_identities(rng):
    for _ in range(1000):
        u = rng.uniform(-20, 20)
        kappa = rng.uniform(0, 1)
        sn, cn, dn = jacobi(u, kappa)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + (kappa * sn) ** 2 - 1.0) < 1e-12


def test_jacobi_derivative_identities(rng):
    # sn' = cn dn, cn' = -sn dn, dn' = -kappa^2 sn cn vs centered differences
    h = 1e-4
    for _ in range(200):
        u = rng.uniform(-5, 5)
        kappa = rng.uniform(0, 0.99)
        sn, cn, dn = jacobi(u, kappa)
        plus = jacobi(u + h, kappa)
        minus = jacobi(u - h, kappa)
        d_num = [(p - m) / (2 * h) for p, m in zip(plus, minus)]
        assert abs(d_num[0] - cn * dn) < 1e-6
        assert abs(d_num[1] + sn * dn) < 1e-6
        assert abs(d_num[2] + kappa * kappa * sn * cn) < 1e-6


def test_jacobi_against_scipy(rng):
    # cross-library oracle
    from scipy.special import ellipj

    for _ in range(300):
        u = rng.uniform(-30, 30)
        kappa = rng.uniform(0, 0.995)
        sn, cn, dn = jacobi(u, kappa)
        s, c, d, _ = ellipj(u, kappa * kappa)
        assert max(abs(sn - s), abs(cn - c), abs(dn - d)) < 1e-12


def test_jacobi_modulus_domain():
    with pytest.raises(ValueError):
        jacobi(0.5, 1.2)


def test_jacobi_and_K_against_mpmath():
    # independent oracle: mpmath's ellipfun and ellipk at 40 digits, at the
    # exact parameter m = kappa^2 of the double kappa.  The AGM forms kappa'
    # from (1 - kappa)(1 + kappa), never rounding kappa^2, so K keeps full
    # precision near kappa = 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for kappa in (0.0, 0.3, 0.8, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0):
            m = mpmath.mpf(kappa) ** 2
            args = [0.0, 0.37, -2.1, 40.0, -800.0, 1e4]
            if kappa < 1.0:
                K = complete_K(kappa)
                K_ref = mpmath.ellipk(m)
                assert abs(K - K_ref) <= 1e-14 * K_ref
                args += [s * j * K for j in range(1, 5) for s in (1.0, -1.0)]
                args.append(K * (1.0 + 1e-9))
            for u in args:
                got = jacobi(u, kappa)
                ref = [mpmath.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn")]
                err = max(abs(g - r) for g, r in zip(got, ref))
                assert err < 1e-10, (kappa, u, float(err))


def _jacobi_reference(u, kappa):
    # the descent without cached constants: the Landen ladder is walked
    # from a_N, c_N down, dividing c_n / a_n at every step
    if kappa == 1.0:
        e = math.exp(-abs(u))
        sech = 2.0 * e / (1.0 + e * e)
        return math.tanh(u), sech, sech
    K, ladder = complete_K(kappa), elliptic._agm_scheme(kappa)
    v = math.fmod(u, 4.0 * K)
    if v < 0.0:
        v += 4.0 * K
    sign_sn, sign_cn = 1.0, 1.0
    if v >= 2.0 * K:
        v -= 2.0 * K
        sign_sn, sign_cn = -sign_sn, -sign_cn
    if v > K:
        v = 2.0 * K - v
        sign_cn = -sign_cn
    N = len(ladder) - 1
    phi = (2.0**N) * ladder[N][0] * v
    for n in range(N, 0, -1):
        a_n, c_n = ladder[n]
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, c_n / a_n * math.sin(phi)))))
    sn = math.sin(phi)
    dn = math.sqrt(max(1.0 - (kappa * sn) ** 2, 0.0))
    return sign_sn * sn, sign_cn * math.cos(phi), dn


def test_jacobi_bitwise_equals_uncached_descent():
    rng = np.random.default_rng(11)
    for kappa in (0.0, 0.3, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12, 1.0):
        K = complete_K(kappa) if kappa < 1.0 else 1.0
        multiples = [j * K for j in range(-8, 9)]
        us = [0.0, -0.0, math.nan, *multiples, *rng.uniform(-30.0, 30.0, 200)]
        for u in map(float, us):
            got, ref = jacobi(u, kappa), _jacobi_reference(u, kappa)
            # tuples of floats compare by value; the sign of zero by repr
            assert repr(got) == repr(ref), (u, kappa)
