import numpy as np
import pytest
from numpy.testing import assert_allclose

from nahmschmid.elliptic import jacobi
from nahmschmid.flow import (
    SolverConfig,
    Trajectory,
    gauge_apply,
    integrate,
    su2_closed_form,
    su2_closed_form_trajectory,
)
from nahmschmid.liealg import exp_unitary, inner, random_antihermitian, su2_basis
from nahmschmid.spectral import (
    LaxPolynomial,
    char_poly,
    conserved_C_from_trace,
    curve_path,
    isospectral_drift,
    lax_from_quadruple,
    lax_residual,
)

E1, E2, E3 = su2_basis()


def random_quadruple(n, rng):
    return np.array([random_antihermitian(n, rng) for _ in range(4)])


def nonsolution_trajectory():
    t = np.linspace(0.0, 1.0, 201)
    S = np.zeros((201, 4, 2, 2), dtype=complex)
    S[:, 1] = np.cos(3 * t)[:, None, None] * E1
    S[:, 2] = np.sin(2 * t)[:, None, None] * E2
    S[:, 3] = (0.5 + t)[:, None, None] * E3
    return Trajectory(0.0, 1.0, S)


def test_lax_zero():
    L = lax_from_quadruple(np.zeros((4, 2, 2)))
    assert np.max(np.abs(L.at(1.3 + 0.4j))) == 0.0
    assert np.max(np.abs(L.plus_at(2.0))) == 0.0


def test_lax_su2_example_matrix():
    # entrywise formula for the standard su(2) solutions
    a, b, kappa = 1.2, 0.4, 0.75
    q = su2_closed_form(a, b, kappa, 0.6)
    sn, cn, dn = jacobi(a * 0.6 + b, kappa)
    f1, f2, f3 = a * kappa * sn, a * kappa * cn, -a * dn
    L = lax_from_quadruple(q)
    for z in (0.0, 1.0, -1.0, 0.3 + 0.2j, 2j):
        expected = 0.5 * np.array(
            [
                [-2 * f1 * z, f2 * (1 - z**2) - f3 * (1 + z**2)],
                [f2 * (z**2 - 1) - f3 * (1 + z**2), 2 * f1 * z],
            ]
        )
        assert_allclose(L.at(z), expected, atol=1e-14)


def test_lax_coefficients_and_reality(rng):
    for _ in range(100):
        q = random_quadruple(3, rng)
        L = lax_from_quadruple(q)
        assert_allclose(L.L0, q[2] + 1j * q[3], atol=1e-14)
        assert_allclose(L.L1, 2j * q[1], atol=1e-14)
        assert_allclose(L.L2, -q[2] + 1j * q[3], atol=1e-14)
        assert L.reality_defect() < 1e-10
        # T(zeta) = zeta^2 T(1/conj(zeta))* identity at a sample point
        z = 0.7 + 0.4j
        lhs = L.at(z)
        rhs = z**2 * L.at(1.0 / np.conj(z)).conj().T
        assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("m", [3, 11])
def test_reality_defect_of_a_stacked_path_is_the_per_sample_maximum(rng, m):
    # lax_from_quadruple of a sample stack: the adjoint swaps the matrix
    # axes only, never the time axis
    traj = integrate(random_quadruple(3, rng), (0.0, 1.0), SolverConfig(steps=m - 1))
    L = lax_from_quadruple(traj.samples)
    per_sample = [lax_from_quadruple(q).reality_defect() for q in traj.samples]
    assert L.reality_defect() == max(per_sample) == 0.0
    off = L.L2.copy()
    off[m // 2, 0, 1] += 0.25
    broken = LaxPolynomial(L.L0, L.L1, off, L.M0, L.M1)
    assert broken.reality_defect() == 0.25


def test_lax_residual_zero_and_solution(elliptic_traj_b):
    zero = Trajectory(0.0, 1.0, np.zeros((101, 4, 2, 2), dtype=complex))
    assert lax_residual(zero) == 0.0
    assert lax_residual(elliptic_traj_b) < 1e-6


def test_lax_residual_with_gauge_T0(rng, elliptic_traj_b):
    # the Lax form holds for the full equations, T0 included
    X = random_antihermitian(2, rng, traceless=True)
    t = elliptic_traj_b.times
    u = np.array([exp_unitary(m) for m in np.sin(np.pi * t)[:, None, None] * X])
    gauged = gauge_apply(u, elliptic_traj_b)
    assert np.max(np.abs(gauged.samples[:, 0])) > 1e-2
    assert lax_residual(gauged) < 1e-5


def test_lax_residual_negative_control():
    assert lax_residual(nonsolution_trajectory()) > 0.1


def test_char_poly_zero():
    curve = char_poly(lax_from_quadruple(np.zeros((4, 3, 3))))
    assert curve.n == 3
    for k, p in enumerate(curve.coefficients, start=1):
        assert p.shape == (2 * k + 1,)
        assert np.max(np.abs(p)) < 1e-14


def test_char_poly_elliptic_formula():
    a, kappa = 1.0, 0.8
    q = su2_closed_form(a, 0.0, kappa, 0.37)
    curve = char_poly(lax_from_quadruple(q))
    p1, p2 = curve.coefficients
    assert np.max(np.abs(p1)) < 1e-12  # traceless
    expected = np.array(
        [
            (a**2 / 4) * (kappa**2 - 1),
            0.0,
            -(a**2 / 2) * (1 + kappa**2),
            0.0,
            (a**2 / 4) * (kappa**2 - 1),
        ]
    )
    assert_allclose(p2, expected, atol=1e-12)


def test_char_poly_reality_constraint(rng):
    for _ in range(100):
        q = random_quadruple(3, rng)
        curve = char_poly(lax_from_quadruple(q))
        assert curve.reality_defect() < 1e-8


def test_char_poly_against_pointwise_determinant(rng):
    # brute-force oracle: evaluate det(eta - T(zeta)) directly at random
    # points and compare with the interpolated coefficients
    for n in (2, 3):
        q = random_quadruple(n, rng)
        L = lax_from_quadruple(q)
        curve = char_poly(L)
        for _ in range(20):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            eta = rng.standard_normal() + 1j * rng.standard_normal()
            direct = np.linalg.det(eta * np.eye(n) - L.at(z))
            poly = eta**n
            for k, p in enumerate(curve.coefficients, start=1):
                poly = poly + eta ** (n - k) * np.polyval(p[::-1], z)
            assert abs(direct - poly) < 1e-8 * max(1.0, abs(direct))


def reference_char_poly(L):
    # one np.poly per interpolation node, then the inverse DFT
    m = 2 * L.n + 1
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    vals = np.array([np.poly(L.at(z))[1:] for z in nodes])
    coeffs = (nodes[:, None] ** np.arange(m)).conj().T @ vals / m
    return np.concatenate([coeffs[: 2 * k + 1, k - 1] for k in range(1, L.n + 1)])


@pytest.mark.parametrize("n", range(1, 7))
def test_char_poly_matches_per_node_reference(rng, n):
    def cmat():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    for _ in range(5):
        for L in (lax_from_quadruple(random_quadruple(n, rng)),
                  LaxPolynomial(cmat(), cmat(), cmat(), cmat(), cmat())):
            ref = reference_char_poly(L)
            got = char_poly(L).flat()
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_isospectral_drift_solution_and_control(elliptic_traj_b):
    assert isospectral_drift(elliptic_traj_b) < 1e-8
    assert isospectral_drift(nonsolution_trajectory()) > 0.1


def test_isospectral_drift_scales_as_h4():
    init = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    drifts = {}
    for steps in (25, 50, 100):
        traj = integrate(init, (0.0, 1.0), SolverConfig(steps=steps))
        drifts[steps] = isospectral_drift(traj)
    for coarse, fine in ((25, 50), (50, 100)):
        ratio = drifts[coarse] / drifts[fine]
        assert 11.0 < ratio < 23.0  # 4th order: ~16x per halving


def test_curve_gauge_invariance(rng, elliptic_traj_b):
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    t = elliptic_traj_b.times
    u = np.array(
        [
            exp_unitary(m)
            for m in np.sin(np.pi * t)[:, None, None] * X
            + np.sin(2 * np.pi * t)[:, None, None] * Y
        ]
    )
    gauged = gauge_apply(u, elliptic_traj_b)
    c0 = curve_path(elliptic_traj_b)
    c1 = curve_path(gauged)
    assert np.max(np.abs(c0 - c1)) < 1e-8


def test_conserved_C_zero_and_elliptic():
    assert conserved_C_from_trace(lax_from_quadruple(np.zeros((4, 2, 2)))) == 0.0
    a, kappa = 1.0, 0.8
    q = su2_closed_form(a, 0.0, kappa, 0.23)
    C = conserved_C_from_trace(lax_from_quadruple(q))
    assert abs(C - a**2 * (1 + kappa**2)) < 1e-12


def test_conserved_C_matches_inner_product(rng):
    for _ in range(100):
        q = random_quadruple(2, rng)
        C_trace = conserved_C_from_trace(lax_from_quadruple(q))
        C_inner = (
            2 * inner(q[1], q[1]) + inner(q[2], q[2]) + inner(q[3], q[3])
        )
        assert abs(C_trace - C_inner) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 8])
def test_irrep_spectral_curve_is_the_su2_curve_scaled_by_weights(spin_images, n):
    # T_j = f_j rho(e_j) for the irreducible rho: su(2) -> su(n), with the
    # profiles f_j of the su(2) closed form.  T(zeta) is linear in the T_j,
    # so T(zeta) = rho(X(zeta)) for the su(2) data's X(zeta) in sl(2, C);
    # where X(zeta) has eigenvalues +-mu, T(zeta) has mu (n - 1 - 2k) for
    # k = 0 ... n - 1, the weights of spin (n - 1)/2
    roots = [np.exp(2j * np.pi * k / m) for m in (5, 7, 2 * n + 1) for k in range(m)]
    zetas = roots + [0.0, 0.5, 2.0, 0.3 + 0.8j, -1.7j]
    weights = n - 1 - 2 * np.arange(n)
    for t in (0.0, 0.37, 1.0):
        su2 = su2_closed_form(2.0, 0.3, 0.9, t)
        f = inner(np.array(su2_basis()), su2[1:])
        irrep = np.zeros((4, n, n), dtype=complex)
        irrep[1:] = f[:, None, None] * spin_images(n)
        small, large = lax_from_quadruple(su2), lax_from_quadruple(irrep)
        for zeta in zetas:
            mu = np.linalg.eigvals(small.at(zeta))[0]
            expected = mu * weights
            got = np.linalg.eigvals(large.at(zeta))
            # the weights are distinct and mu != 0 here, so nearest values pair up
            gap = np.abs(got[:, None] - expected[None, :])
            assert abs(mu) > 0.1
            assert np.max(gap.min(axis=0)) <= 1e-12 * np.max(np.abs(expected))
            assert np.max(gap.min(axis=1)) <= 1e-12 * np.max(np.abs(expected))
