import numpy as np
import pytest
from numpy.testing import assert_allclose

from nahmschmid import flow, liealg
from nahmschmid.liealg import (
    AdjointBasis,
    ad_matrix,
    basis_for,
    bracket,
    coordinates,
    double_bracket_matrix,
    exp_unitary,
    from_coordinates,
    inner,
    is_antihermitian,
    orthonormal_basis,
    project_antihermitian,
    random_antihermitian,
    su2_basis,
)

from helpers import is_unitary, random_unitary, su2_from_components
from rk4_reference import assert_same_bits


def test_bracket_antisymmetry_and_closure(rng):
    X = random_antihermitian(3, rng)
    Y = random_antihermitian(3, rng)
    assert_allclose(bracket(X, X), np.zeros((3, 3)), atol=1e-14)
    assert_allclose(bracket(X, Y), -bracket(Y, X), atol=1e-14)
    assert is_antihermitian(bracket(X, Y), tol=1e-12)


def test_bracket_su2_table():
    e1, e2, e3 = su2_basis()
    assert_allclose(bracket(e1, e2), e3, atol=1e-15)
    assert_allclose(bracket(e2, e3), e1, atol=1e-15)
    assert_allclose(bracket(e3, e1), e2, atol=1e-15)


def test_bracket_jacobi_identity(rng):
    for _ in range(20):
        X, Y, Z = (random_antihermitian(4, rng) for _ in range(3))
        J = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) + bracket(Z, bracket(X, Y))
        assert np.max(np.abs(J)) < 1e-12


def test_bracket_dimension_mismatch():
    with pytest.raises(liealg.DimensionMismatchError):
        bracket(np.eye(2), np.eye(3))


def test_inner_su2_orthonormal():
    e1, e2, e3 = su2_basis()
    for i, a in enumerate((e1, e2, e3)):
        for j, b in enumerate((e1, e2, e3)):
            assert_allclose(inner(a, b), 1.0 if i == j else 0.0, atol=1e-15)


def test_inner_zero_and_scale():
    e1, _, _ = su2_basis()
    assert inner(np.zeros((2, 2)), e1) == 0.0


def test_inner_ad_invariance(rng):
    # |<uXu*, uYu*> - <X, Y>| < 1e-10 over 100 random draws, n <= 4
    for _ in range(100):
        n = int(rng.integers(2, 5))
        u = random_unitary(n, rng)
        X = random_antihermitian(n, rng)
        Y = random_antihermitian(n, rng)
        lhs = inner(u @ X @ u.conj().T, u @ Y @ u.conj().T)
        assert abs(lhs - inner(X, Y)) < 1e-10


def test_inner_infinitesimal_invariance(rng):
    for _ in range(50):
        X = random_antihermitian(3, rng)
        Y = random_antihermitian(3, rng)
        assert abs(inner(X, bracket(X, Y))) < 1e-10


def test_exp_unitary_identity_and_inverse():
    e1, _, _ = su2_basis()
    assert_allclose(exp_unitary(np.zeros((2, 2))), np.eye(2), atol=1e-15)
    u = exp_unitary(np.pi * e1)
    assert_allclose(u @ exp_unitary(-np.pi * e1), np.eye(2), atol=1e-14)


def test_exp_unitary_diagonal():
    e1, _, _ = su2_basis()
    for t in (0.3, -1.7, 2.9):
        expected = np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])
        assert_allclose(exp_unitary(t * e1), expected, atol=1e-14)


def test_exp_unitary_is_unitary(rng):
    for _ in range(20):
        X = random_antihermitian(5, rng)
        assert is_unitary(exp_unitary(X), tol=1e-10)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (1, 4), (5, 3), (4, 8)])
def test_exp_unitary_on_stacks_equals_per_matrix_calls(m, n):
    # a stack of m matrices, m = n included, where the eigenvalues must
    # scale the columns of each matrix's own V; one matrix keeps the bits of
    # the single-matrix form V diag(exp(-i w)) V*
    rng = np.random.default_rng([31, m, n])
    X = np.array([random_antihermitian(n, rng) for _ in range(m)])
    got = exp_unitary(X)
    for k in range(m):
        assert_same_bits(got[k], exp_unitary(X[k]))
        w, V = np.linalg.eigh(1j * X[k])
        assert_same_bits(exp_unitary(X[k]), (V * np.exp(-1j * w)) @ V.conj().T)
    assert_same_bits(exp_unitary(X.reshape(1, m, n, n))[0], got)


def test_su2_from_components():
    e1, e2, e3 = su2_basis()
    z = su2_from_components(0.0, 0.0, 0.0)
    assert all(np.max(np.abs(m)) == 0.0 for m in z)
    T1, T2, T3 = su2_from_components(1.0, 0.0, 0.0)
    assert_allclose(T1, e1)
    assert np.max(np.abs(T2)) == 0.0 and np.max(np.abs(T3)) == 0.0
    f = (0.7, -1.3, 0.4)
    for Ti, fi in zip(su2_from_components(*f), f):
        assert_allclose(inner(Ti, Ti), fi**2, atol=1e-14)


def test_project_antihermitian(rng):
    G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = project_antihermitian(G)
    assert is_antihermitian(X, tol=1e-14)
    assert_allclose(project_antihermitian(X), X, atol=1e-15)


def _projection_cases():
    rng = np.random.default_rng(23)
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    # su(2) closed-form states carry exact zeros; rounding-sized Hermitian
    # parts as an RK4 step leaves them
    su2 = flow.su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 4).samples[:, 1:]
    su2 = su2 + 1e-17 * (1.0 + 1j) * (su2 != 0)
    big = rng.standard_normal((6, 4, 8)) + 1j * rng.standard_normal((6, 4, 8))
    return {"stack": stack, "su2_zeros": su2, "strided": big[::2, :, ::2]}


@pytest.mark.parametrize("case", ["stack", "su2_zeros", "strided"])
def test_project_antihermitian_out_bitwise_equals_the_former_form(case):
    X = _projection_cases()[case]
    ref = 0.5 * (X - X.conj().swapaxes(-1, -2))  # the former body
    before = X.copy()
    got = project_antihermitian(X)
    assert got is not X and np.array_equal(X, before)
    assert_same_bits(got, ref)
    # in place: the conjugate is a copy taken before the write
    assert project_antihermitian(X, out=X) is X
    assert_same_bits(X, ref)


@pytest.mark.parametrize("n,traceless", [(2, False), (2, True), (3, False), (3, True)])
def test_orthonormal_basis(n, traceless):
    basis = orthonormal_basis(n, traceless=traceless)
    d = n * n - 1 if traceless else n * n
    assert basis.shape == (d, n, n)
    G = np.array([[inner(a, b) for b in basis] for a in basis])
    assert_allclose(G, np.eye(d), atol=1e-12)
    for b in basis:
        assert is_antihermitian(b, tol=1e-12)
        if traceless:
            assert abs(np.trace(b)) < 1e-12


def test_basis_for_takes_u1_at_n_1():
    # su(1) = {0} has no basis: 1x1 data, traceless or not, is taken in u(1)
    for X in (np.zeros((3, 1, 1)), np.full((3, 1, 1), 0.5j)):
        assert np.array_equal(basis_for(X), orthonormal_basis(1))
    assert basis_for(np.zeros((3, 2, 2))).shape == (3, 2, 2)


def test_coordinates_round_trip(rng):
    basis = orthonormal_basis(3)
    X = random_antihermitian(3, rng)
    c = coordinates(X, basis)
    assert_allclose(from_coordinates(c, basis), X, atol=1e-12)


def test_ad_matrix_skew(rng):
    basis = orthonormal_basis(3)
    X = random_antihermitian(3, rng)
    A = ad_matrix(X, AdjointBasis(basis))
    assert_allclose(A, -A.T, atol=1e-12)
    # ad acts correctly in coordinates
    Y = random_antihermitian(3, rng)
    assert_allclose(A @ coordinates(Y, basis), coordinates(bracket(X, Y), basis), atol=1e-12)


@pytest.mark.parametrize("n, traceless", [(2, True), (3, False), (4, True)])
def test_double_bracket_matrix(rng, n, traceless):
    basis = orthonormal_basis(n, traceless=traceless)
    T = np.array([random_antihermitian(n, rng) for _ in range(3)])
    signs = (-1.0, 1.0, 2.0)
    D = double_bracket_matrix(T, signs, AdjointBasis(basis))
    assert_allclose(D, D.T, atol=1e-12)
    ads = ad_matrix(T, AdjointBasis(basis))
    assert_allclose(D, sum(s * A @ A for s, A in zip(signs, ads)), atol=1e-12)
    # the operator it represents, applied in coordinates
    Y = random_antihermitian(n, rng, traceless=traceless)
    direct = sum(s * bracket(Tk, bracket(Tk, Y)) for s, Tk in zip(signs, T))
    assert_allclose(D @ coordinates(Y, basis), coordinates(direct, basis), atol=1e-12)


def test_adjoint_layer_batches_over_leading_axes(rng):
    basis = AdjointBasis(orthonormal_basis(3))
    T = np.array([[random_antihermitian(3, rng) for _ in range(2)] for _ in range(4)])
    batched = double_bracket_matrix(T.reshape(2, 2, 2, 3, 3), (1.0, -1.0), basis)
    ads = ad_matrix(T, basis)
    for i in range(4):
        single = double_bracket_matrix(T[i], (1.0, -1.0), basis)
        assert_allclose(batched.reshape(4, 9, 9)[i], single, atol=1e-13)
        for k in range(2):
            assert_allclose(ads[i, k], ad_matrix(T[i, k], basis), atol=1e-13)


def _double_bracket_reference(T, signs, basis):
    # the same expansion out of place: images in the (..., n, d, n) layout,
    # a new array for every term and for the scaled T b T, and a contiguous
    # copy for the coordinate GEMM
    d, n = basis.shape[0], basis.shape[-1]
    cat = basis.transpose(1, 0, 2).reshape(n, d * n)

    def times_basis(X):
        return (X.reshape(-1, n) @ cat).reshape(X.shape[:-1] + (d, n))

    def basis_times(X):
        prod = (basis.reshape(d * n, n) @ X).reshape(X.shape[:-2] + (d, n, n))
        return prod.swapaxes(-3, -2)

    signs = np.asarray(signs, dtype=float)
    Q = np.sum(signs[:, None, None] * (T @ T), axis=-3)
    images = times_basis(Q) + basis_times(Q)
    for k, s in enumerate(signs):
        Tk = T[..., k, :, :]
        TbT = times_basis(Tk).reshape(Tk.shape[:-2] + (n * d, n)) @ Tk
        images -= (2.0 * s) * TbT.reshape(images.shape)
    bt = basis.swapaxes(-1, -2)
    P = -liealg.INNER_SCALE * np.stack([bt.real, -bt.imag], axis=-1).reshape(d, -1)
    Yc = np.ascontiguousarray(images.swapaxes(-3, -2))
    A = (Yc.view(np.float64).reshape(-1, P.shape[1]) @ P.T).reshape(Yc.shape[:-2] + (d,))
    return np.ascontiguousarray(A.swapaxes(-1, -2))


@pytest.mark.parametrize("n, traceless, many", [
    (2, True, 40), (4, True, 40), (5, True, 40), (4, False, 40), (8, True, 40), (16, True, 13),
])
def test_double_bracket_matrix_bitwise_equals_expansion(n, traceless, many):
    # summing in place changes no operation on any element, so every chunk
    # of times gives the bits of the reference on the same chunk
    rng = np.random.default_rng([7, n, traceless])
    basis = orthonormal_basis(n, traceless=traceless)
    T = np.array([[random_antihermitian(n, rng, traceless=traceless) for _ in range(3)]
                  for _ in range(many)])
    for chunk in (T[0], T[:1], T[1:3], T[3:6], T[6:13], T):
        D = double_bracket_matrix(chunk, (-1.0, 1.0, 1.0), AdjointBasis(basis))
        ref = _double_bracket_reference(chunk, (-1.0, 1.0, 1.0), basis)
        assert D.dtype == ref.dtype and D.shape == ref.shape
        assert np.array_equal(D.view(np.uint64), ref.view(np.uint64))
