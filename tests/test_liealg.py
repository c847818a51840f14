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


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("r, m", [(1, 1), (2, 3), (4, 4), (5, 2)])
def test_right_real_multiplies_float_views(rng, lead, r, m):
    # the float view of Z X is (float view of Z) @ R(X), for stacked and
    # non-square X, to a few ulps of numpy's complex product
    X = rng.standard_normal(lead + (r, m)) + 1j * rng.standard_normal(lead + (r, m))
    Z = rng.standard_normal(lead + (6, r)) + 1j * rng.standard_normal(lead + (6, r))
    R = liealg._right_real(X)
    assert R.shape == lead + (2 * r, 2 * m) and R.dtype == np.float64
    got = (np.ascontiguousarray(Z).view(np.float64) @ R).view(complex)
    assert_allclose(got, Z @ X, rtol=0, atol=8 * np.finfo(float).eps * np.max(np.abs(Z @ X)))
    # a last axis that is not contiguous is read through a copy
    assert np.array_equal(liealg._right_real(X.swapaxes(-1, -2).copy().swapaxes(-1, -2)), R)


@pytest.mark.parametrize("n, traceless", [(2, True), (3, False), (4, True), (8, True), (16, True)])
def test_double_bracket_matrix(rng, n, traceless):
    # one triple, and a stack of four times
    basis = orthonormal_basis(n, traceless=traceless)
    signs = (-1.0, 1.0, 2.0)
    for lead in ((), (4,)):
        T = random_antihermitian_stack(lead + (3,), n, rng)
        D = double_bracket_matrix(T, signs, AdjointBasis(basis))
        assert D.shape == lead + (basis.shape[0],) * 2
        assert_allclose(D, D.swapaxes(-1, -2), atol=1e-12)
        ads = ad_matrix(T, AdjointBasis(basis))
        squares = sum(s * ads[..., k, :, :] @ ads[..., k, :, :] for k, s in enumerate(signs))
        assert_allclose(D, squares, atol=1e-12)
        # the operator it represents, applied in coordinates
        for i in np.ndindex(lead):
            Y = random_antihermitian(n, rng, traceless=traceless)
            direct = sum(s * bracket(Tk, bracket(Tk, Y)) for s, Tk in zip(signs, T[i]))
            assert_allclose(D[i] @ coordinates(Y, basis), coordinates(direct, basis), atol=1e-12)


def random_antihermitian_stack(shape, n, rng, traceless=False):
    return np.array([random_antihermitian(n, rng, traceless=traceless)
                     for _ in range(int(np.prod(shape)))]).reshape(shape + (n, n))


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


def _right_real_reference(X):
    # the 2 x 2 real blocks [[Re x, Im x], [-Im x, Re x]], assembled by stacking
    top = np.stack([X.real, X.imag], axis=-1)
    bottom = np.stack([-X.imag, X.real], axis=-1)
    r, m = X.shape[-2:]
    return np.stack([top, bottom], axis=-3).reshape(X.shape[:-2] + (2 * r, 2 * m))


def _double_bracket_reference(T, signs, basis):
    # the same expansion out of place: every complex product a real product
    # on float views, a new array for every term, the images summed in the
    # (..., n, d, n) layout, and a contiguous copy for the coordinate map
    d, n = basis.shape[0], basis.shape[-1]
    lead = T.shape[:-3]

    def floats(X):
        return np.ascontiguousarray(X).view(np.float64)

    right = _right_real_reference(basis.transpose(1, 0, 2).reshape(n, d * n))
    left = floats(basis.reshape(d * n, n))

    def times_basis(X):  # X b_i in the (..., n d, 2n) float layout
        return (floats(X).reshape(-1, 2 * n) @ right).reshape(X.shape[:-2] + (n * d, 2 * n))

    Q = images = None
    for k, s in enumerate(signs):
        Tk = T[..., k, :, :]
        R = s * _right_real_reference(Tk)
        TR, TbT = floats(Tk) @ R, times_basis(Tk) @ (-2.0 * R)
        Q = TR if Q is None else Q + TR
        images = TbT if images is None else images + TbT
    Q = Q.view(complex)
    images = (images + times_basis(Q)).view(complex).reshape(lead + (n, d, n))
    bQ = (left @ _right_real_reference(Q)).view(complex).reshape(lead + (d, n, n))
    Y = np.ascontiguousarray(bQ + images.swapaxes(-3, -2))
    bt = basis.swapaxes(-1, -2)
    P = -liealg.INNER_SCALE * np.stack([bt.real, -bt.imag], axis=-1).reshape(d, -1)
    return np.matmul(P, floats(Y).reshape(lead + P.shape).swapaxes(-1, -2))


@pytest.mark.parametrize("n, traceless, many", [
    (2, True, 40), (4, True, 40), (5, True, 40), (4, False, 40), (8, True, 40), (16, True, 13),
])
def test_double_bracket_matrix_bitwise_equals_expansion(n, traceless, many):
    # summing in place changes no operation on any element, so every chunk
    # of times gives the bits of the reference on the same chunk
    rng = np.random.default_rng([7, n, traceless])
    basis = orthonormal_basis(n, traceless=traceless)
    T = random_antihermitian_stack((many, 3), n, rng, traceless=traceless)
    for chunk in (T[0], T[:1], T[1:3], T[3:6], T[6:13], T):
        D = double_bracket_matrix(chunk, (-1.0, 1.0, 1.0), AdjointBasis(basis))
        assert_same_bits(D, _double_bracket_reference(chunk, (-1.0, 1.0, 1.0), basis))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_double_bracket_matrix_of_a_time_does_not_depend_on_its_chunk(n):
    # every product is taken per time, or folded over rows with the
    # reduction unchanged, so cutting a stack of 40 times into chunks of any
    # size gives each time the bits it has in the whole stack
    rng = np.random.default_rng([11, n])
    basis = AdjointBasis(orthonormal_basis(n, traceless=True))
    T = random_antihermitian_stack((40, 3), n, rng, traceless=True)
    whole = double_bracket_matrix(T, (-1.0, 1.0, 1.0), basis)
    for size in range(1, 41):
        parts = [double_bracket_matrix(T[lo : lo + size], (-1.0, 1.0, 1.0), basis)
                 for lo in range(0, 40, size)]
        assert_same_bits(np.concatenate(parts), whole)
