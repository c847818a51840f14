import numpy as np
import pytest
from numpy.testing import assert_allclose

from nahmschmid.flow import SolverConfig, integrate, su2_closed_form
from nahmschmid.liealg import random_antihermitian, su2_basis
from nahmschmid.positive import (
    NotFactorizableError,
    ab_flow_rhs,
    ab_trace_invariant,
    circle_pencil,
    factorize_triple,
    integrate_ab,
    norm_bound_check,
    positivity_report,
    reconstruct,
    rosenblatt_factorize,
)

E1, E2, E3 = su2_basis()
SQ3 = np.sqrt(3.0)


def random_positive_triple(rng, margin=0.3):
    """Random u(2) triple made positive by a central shift of T1."""
    T1s = random_antihermitian(2, rng, traceless=True)
    T2 = random_antihermitian(2, rng, traceless=True)
    T3 = random_antihermitian(2, rng, traceless=True)
    beta_norm = np.linalg.norm(T2 + 1j * T3, 2)
    mu = 2.0 * np.linalg.norm(T1s, 2) + 2.0 * beta_norm + margin
    return T1s - 0.5j * mu * np.eye(2), T2, T3


# ---------------------------------------------------------------------------
# positivity

def test_positivity_scalar():
    # n = 1: H(theta) = 2 + cos(theta), minimum 1
    T1 = np.array([[-1j]])
    T2 = np.array([[0.5]])
    T3 = np.zeros((1, 1))
    rep = positivity_report(T1, T2, T3)
    assert rep.min_eig == pytest.approx(1.0, abs=1e-3)
    assert rep.sampled_positive and rep.certified


def test_positivity_traceless_never_positive(rng):
    for _ in range(20):
        T1 = random_antihermitian(2, rng, traceless=True)
        T2 = random_antihermitian(2, rng, traceless=True)
        T3 = random_antihermitian(2, rng, traceless=True)
        rep = positivity_report(T1, T2, T3)
        assert rep.min_eig <= 1e-12


def test_positivity_central_shift():
    q = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    for mu in (3.0, 6.0):
        rep = positivity_report(q[1] - 0.5j * mu * np.eye(2), q[2], q[3])
        assert rep.sampled_positive
    # eigenvalues shift by exactly 2 mu relative to the traceless pencil
    rep0 = positivity_report(q[1], q[2], q[3])
    rep1 = positivity_report(q[1] - 1.5j * np.eye(2), q[2], q[3])
    assert rep1.min_eig == pytest.approx(rep0.min_eig + 3.0, abs=1e-10)


def test_circle_pencil_hermitian(rng):
    T1, T2, T3 = random_positive_triple(rng)
    H = circle_pencil(T1, T2, T3, 0.73)
    assert np.max(np.abs(H - H.conj().T)) < 1e-14


def test_circle_pencil_stack_matches_single_angles(rng):
    # an array of angles gives the stack of pencils, bit for bit, and the
    # report's minimum is the minimum over per-angle eigensolves
    for n in (1, 2, 4):
        T1, T2, T3 = (random_antihermitian(n, rng) for _ in range(3))
        thetas = 2.0 * np.pi * np.arange(64) / 64
        stack = circle_pencil(T1, T2, T3, thetas)
        assert stack.shape == (64, n, n)
        for k, th in enumerate(thetas):
            assert np.array_equal(stack[k], circle_pencil(T1, T2, T3, th))
        single = min(float(np.linalg.eigvalsh(H)[0]) for H in stack)
        assert positivity_report(T1, T2, T3).min_eig == single


# ---------------------------------------------------------------------------
# factorization

def test_factorize_scalar_pure_linear():
    # T(z) = 2z: A = 0, B = sqrt(2)
    pair = rosenblatt_factorize(np.zeros((1, 1)), 2.0 * np.eye(1), np.zeros((1, 1)))
    assert abs(pair.A[0, 0]) < 1e-12
    assert pair.B[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_factorize_scalar_reference_values():
    # T(z) = 0.5 + 2z + 0.5 z^2 with AB = 1/2, A^2 + B^2 = 2, B > A > 0
    pair = rosenblatt_factorize(0.5 * np.eye(1), 2.0 * np.eye(1), 0.5 * np.eye(1))
    assert abs(pair.A[0, 0] - (SQ3 - 1) / 2) < 1e-12
    assert abs(pair.B[0, 0] - (SQ3 + 1) / 2) < 1e-12
    # right-factor root -B/A = -(2 + sqrt(3)) sits outside the disk
    assert pair.root_margin == pytest.approx(1.0 + SQ3, abs=1e-10)


def test_factorize_random_positive(rng):
    worst = 0.0
    for _ in range(50):
        T1, T2, T3 = random_positive_triple(rng)
        pair = factorize_triple(T1, T2, T3)
        # B Hermitian positive definite
        assert np.max(np.abs(pair.B - pair.B.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(pair.B)) > 0
        assert pair.root_margin > 0
        beta = T2 + 1j * T3
        zetas = list(np.exp(2j * np.pi * np.arange(16) / 16)) + [0.0, 2.0]
        for z in zetas:
            Tz = beta + 2j * T1 * z + beta.conj().T * z**2
            worst = max(worst, np.max(np.abs(pair.polynomial_at(z) - Tz)))
    assert worst < 1e-8


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
def test_factorize_scalar_near_circle(delta):
    # T(z) = 0.5 + (1 + delta) z + 0.5 z^2 has roots -(1 + delta) +- sqrt(delta (2 + delta)),
    # a pair closing in on -1 as delta -> 0; the outer one sets the margin
    L0, L1 = 0.5 * np.eye(1), (1.0 + delta) * np.eye(1)
    pair = rosenblatt_factorize(L0, L1, L0)
    worst = max(
        abs(pair.polynomial_at(z)[0, 0] - (0.5 + (1.0 + delta) * z + 0.5 * z * z))
        for z in list(np.exp(2j * np.pi * np.arange(16) / 16)) + [0.0, 2.0]
    )
    assert worst < 1e-12
    assert abs(pair.root_margin - (delta + np.sqrt(delta * (2.0 + delta)))) < 1e-10


@pytest.mark.parametrize("delta", [0.0, -1e-6])
def test_factorize_rejects_nonpositive_between_samples(delta):
    # H(theta) = 1 + delta + cos(theta - pi/64) has its minimum delta at
    # theta = pi + pi/64, halfway between two of the 64 samples, which all
    # read at least 1 + delta - cos(pi/64) > 0
    beta = 0.5 * np.exp(1j * np.pi / 64) * np.eye(1)
    T1 = -0.5j * (1.0 + delta) * np.eye(1)
    rep = positivity_report(T1, 0.5 * (beta - beta.conj()), -0.5j * (beta + beta.conj()))
    assert rep.sampled_positive and not rep.certified
    with pytest.raises(NotFactorizableError):
        rosenblatt_factorize(beta, (1.0 + delta) * np.eye(1), beta.conj())


def test_factorize_rejects_nonpositive_u2_between_samples(rng):
    # shifted so that the minimum over 4096 angles, an upper bound for the
    # true minimum, is -1e-6; cyclic reduction must then refuse, since its
    # Q_k lose positive definiteness when T(z)/z is not positive
    thetas = 2.0 * np.pi * np.arange(4096) / 4096
    tested = 0
    for _ in range(20):
        T1s, T2, T3 = (random_antihermitian(2, rng) for _ in range(3))
        fine = float(np.min(np.linalg.eigvalsh(circle_pencil(T1s, T2, T3, thetas))[:, 0]))
        T1 = T1s + 0.5j * (fine + 1e-6) * np.eye(2)
        if positivity_report(T1, T2, T3).sampled_positive:
            tested += 1
            with pytest.raises(NotFactorizableError, match="lost positive definiteness"):
                factorize_triple(T1, T2, T3)
    assert tested >= 15


def test_factorize_roots_match_determinant_roots(rng):
    # independent oracle: the right-factor roots -1/mu (mu the eigenvalues
    # of B^{-1} A*) are the roots of det T(z) outside the closed disk
    for _ in range(10):
        T1, T2, T3 = random_positive_triple(rng)
        pair = factorize_triple(T1, T2, T3)
        beta = T2 + 1j * T3
        # entries of T(z) as coefficient arrays, highest power first
        L = (beta, 2j * T1, beta.conj().T)
        entry = [[np.array([L[2][r, c], L[1][r, c], L[0][r, c]]) for c in range(2)]
                 for r in range(2)]
        det = np.polysub(np.polymul(entry[0][0], entry[1][1]),
                         np.polymul(entry[0][1], entry[1][0]))
        outside = np.sort_complex([z for z in np.roots(det) if abs(z) > 1.0])
        mu = np.linalg.eigvals(np.linalg.solve(pair.B, pair.A.conj().T))
        roots = np.sort_complex(-1.0 / mu)
        assert len(outside) == 2
        assert np.max(np.abs(roots - outside)) < 1e-9
        assert pair.root_margin == pytest.approx(np.min(np.abs(outside)) - 1.0, abs=1e-9)


def test_factorize_rejects_nonpositive():
    with pytest.raises(NotFactorizableError):
        factorize_triple(0.4 * E1, 0.3 * E2, 0.1 * E3)


def test_factorize_rejects_wrong_twist():
    with pytest.raises(NotFactorizableError):
        rosenblatt_factorize(np.eye(1), 1j * np.eye(1), np.eye(1))


# ---------------------------------------------------------------------------
# the factor flow

def test_ab_rhs_stationary_diagonal():
    A = np.diag([1.0, 0.5]).astype(complex)
    dA, dB = ab_flow_rhs(A, A.copy())
    assert np.max(np.abs(dA)) == 0.0 and np.max(np.abs(dB)) == 0.0


def test_ab_rhs_swap_symmetry(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dA, dB = ab_flow_rhs(A, B)
    dB_swapped, dA_swapped = ab_flow_rhs(B, A)
    assert_allclose(dA, dA_swapped, atol=1e-14)
    assert_allclose(dB, dB_swapped, atol=1e-14)


def test_ab_rhs_trace_invariant_derivative(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dA, dB = ab_flow_rhs(A, B)
    d_trace = np.trace(
        dA @ A.conj().T + A @ dA.conj().T + dB.conj().T @ B + B.conj().T @ dB
    )
    assert abs(d_trace) < 1e-12


def test_ab_rhs_shape_mismatch():
    with pytest.raises(ValueError):
        ab_flow_rhs(np.eye(2), np.eye(3))


def test_integrate_ab_stationary():
    A = np.diag([0.7, 1.1]).astype(complex)
    Apath, Bpath = integrate_ab(A, A.copy(), (0.0, 1.0), steps=100)
    assert np.max(np.abs(Apath - A)) < 1e-12
    assert np.max(np.abs(Bpath - A)) < 1e-12


@pytest.fixture(scope="module")
def ab_round_trip():
    q = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    T1 = q[1] - 1.5j * np.eye(2)
    pair = factorize_triple(T1, q[2], q[3])
    Apath, Bpath = integrate_ab(pair.A, pair.B, (0.0, 1.0), steps=2000)
    init = np.array([np.zeros((2, 2))] + [T1, q[2], q[3]], dtype=complex)
    direct = integrate(init, (0.0, 1.0), SolverConfig(steps=2000))
    return Apath, Bpath, direct


def test_ab_flow_reconstruction_matches_direct(ab_round_trip):
    Apath, Bpath, direct = ab_round_trip
    R1, R2, R3 = reconstruct(Apath, Bpath)
    dist = max(
        np.max(np.abs(R1 - direct.samples[:, 1])),
        np.max(np.abs(R2 - direct.samples[:, 2])),
        np.max(np.abs(R3 - direct.samples[:, 3])),
    )
    assert dist < 1e-6


def test_ab_flow_trace_drift(ab_round_trip):
    Apath, Bpath, _ = ab_round_trip
    tr = ab_trace_invariant(Apath, Bpath)
    assert np.max(np.abs(tr - tr[0])) < 1e-10


def test_ab_flow_preserves_positivity(ab_round_trip):
    Apath, Bpath, _ = ab_round_trip
    R1, R2, R3 = reconstruct(Apath, Bpath)
    for k in range(0, len(Apath), 250):
        rep = positivity_report(R1[k], R2[k], R3[k], samples=32)
        assert rep.sampled_positive


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_A_zero(rng):
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    T1, T2, T3 = reconstruct(np.zeros((2, 2)), B)
    assert np.max(np.abs(T2)) < 1e-14 and np.max(np.abs(T3)) < 1e-14
    assert_allclose(T1, -0.5j * B.conj().T @ B, atol=1e-14)


def test_reconstruct_scalar_reference():
    A = np.array([[(SQ3 - 1) / 2]])
    B = np.array([[(SQ3 + 1) / 2]])
    T1, T2, T3 = reconstruct(A, B)
    assert T1[0, 0] == pytest.approx(-1j, abs=1e-12)
    assert (T2 + 1j * T3)[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_factorize_reconstruct_round_trip(rng):
    for _ in range(25):
        T1, T2, T3 = random_positive_triple(rng)
        pair = factorize_triple(T1, T2, T3)
        R1, R2, R3 = reconstruct(pair.A, pair.B)
        assert np.max(np.abs(R1 - T1)) < 1e-8
        assert np.max(np.abs(R2 - T2)) < 1e-8
        assert np.max(np.abs(R3 - T3)) < 1e-8


# ---------------------------------------------------------------------------
# norm bound

def test_norm_bound_beta_zero():
    lhs, rhs, holds = norm_bound_check(E1, np.zeros((2, 2)), np.zeros((2, 2)))
    assert lhs == 0.0 and holds


def test_norm_bound_scalar():
    lhs, rhs, holds = norm_bound_check(
        np.array([[-1j]]), np.array([[0.5]]), np.zeros((1, 1))
    )
    assert lhs == pytest.approx(0.5) and rhs == pytest.approx(2.0) and holds


def test_norm_bound_random_positive(rng):
    for _ in range(100):
        T1, T2, T3 = random_positive_triple(rng)
        _, _, holds = norm_bound_check(T1, T2, T3)
        assert holds
