"""Dense complex-matrix kernel for the Lie algebras u(n) and su(n).

Elements of the algebra are plain complex n x n numpy arrays that are
anti-Hermitian (X* = -X).  The module provides the commutator, the
Ad-invariant inner product <X,Y> = -2 Re tr(XY) (a fixed normalisation,
the constant INNER_SCALE), the exponential map into U(n), the standard
su(2) basis with [e1,e2] = e3 (cyclically), and a random element
generator.  Everything downstream (flows, shooting, spectral curves) is
built on these few primitives.  The adjoint layer
(`ad_matrix`, `double_bracket_matrix`) turns brackets with fixed elements
into real d x d matrices in an orthonormal basis, batched over leading
axes; degeneracy shooting and the stability operator both use it, each
with one `AdjointBasis` that holds the basis's GEMM operands.
"""

import numpy as np

# Normalisation of the invariant inner product, the one place it is set.
# Scale 2 makes the standard su(2) basis below orthonormal, makes the
# conserved quantity C = 2|T1|^2 + |T2|^2 + |T3|^2 coincide with the zeta^2
# trace coefficient of the Lax polynomial, and is the normalisation in which
# the degeneracy bound 2 sup(|T2|^2 + |T3|^2) < pi^2 holds.
INNER_SCALE = 2.0

ANTIHERM_TOL = 1e-12
TRACELESS_TOL = 1e-10  # largest |tr X| of a matrix taken to lie in su(n)


class DimensionMismatchError(ValueError):
    """Raised when two algebra elements of different size are combined."""


def project_antihermitian(X, out=None):
    """Orthogonal projection onto anti-Hermitian matrices, X -> (X - X*)/2.

    Applied after floating-point constructions that should land in the
    algebra, so that accumulated rounding never leaks Hermitian parts.
    Works on stacks (..., n, n).  The result is written to `out` when
    given, which may be X itself (the RK4 loop projects each new state in
    its row), and returned; without it a new array is returned.  X* is a
    conjugate copy taken before anything is written, never a view of X.
    """
    X = np.asarray(X, dtype=complex)
    D = np.subtract(X, X.conj().swapaxes(-1, -2), out=out)
    return np.multiply(0.5, D, out=D)


def is_antihermitian(X, tol=ANTIHERM_TOL):
    X = np.asarray(X, dtype=complex)
    return bool(np.max(np.abs(X + X.conj().swapaxes(-1, -2))) <= tol)


def bracket(X, Y):
    """Commutator [X, Y] = XY - YX.

    Anti-Hermitian inputs give an anti-Hermitian result, so the bracket
    closes on the algebra.  Works on stacks of matrices (leading axes
    broadcast).
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape[-1] != Y.shape[-1] or X.shape[-2] != Y.shape[-2]:
        raise DimensionMismatchError(
            f"incompatible matrix shapes {X.shape} and {Y.shape}"
        )
    return X @ Y - Y @ X


def inner(X, Y):
    """Ad-invariant inner product <X, Y> = -INNER_SCALE * Re tr(XY).

    Positive definite on anti-Hermitian matrices; the su(2) basis
    (e1, e2, e3) is orthonormal.
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape[-1] != Y.shape[-2]:
        raise DimensionMismatchError(
            f"incompatible matrix shapes {X.shape} and {Y.shape}"
        )
    tr = np.einsum("...ij,...ji->...", X, Y)
    return -INNER_SCALE * np.real(tr)


def norm(X):
    """Norm induced by :func:`inner`."""
    return np.sqrt(np.maximum(inner(X, X), 0.0))


def exp_unitary(X):
    """Exponential map u(n) -> U(n) via Hermitian eigendecomposition.

    iX is Hermitian, so exp(X) = V diag(exp(-i w)) V* with iX = V w V*.
    This keeps the result unitary to rounding, unlike scaling-and-squaring.
    Works on stacks (..., n, n).
    """
    X = np.asarray(X, dtype=complex)
    w, V = np.linalg.eigh(1j * X)
    return (V * np.exp(-1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def su2_basis():
    """Standard basis (e1, e2, e3) of su(2) with [ei, ej] = ek cyclically."""
    e1 = 0.5 * np.array([[1j, 0.0], [0.0, -1j]])
    e2 = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    e3 = 0.5 * np.array([[0.0, 1j], [1j, 0.0]])
    return e1, e2, e3


def random_antihermitian(n, rng, traceless=False):
    """Random anti-Hermitian matrix with Gaussian entries.

    With traceless=True the result lies in su(n).
    """
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = project_antihermitian(G)
    if traceless:
        X = X - (np.trace(X) / n) * np.eye(n)
    return X


def orthonormal_basis(n, traceless=False):
    """Orthonormal basis of u(n) (or su(n)) for the invariant inner product.

    Returns an array of shape (d, n, n) with d = n^2, or n^2 - 1 in the
    traceless case.  Diagonal directions i*E_kk (combined tracelessly for
    su(n)) come first, then the off-diagonal real and imaginary pairs.
    """
    basis = []
    if traceless:
        # diagonal, traceless: i*(E_kk - E_{k+1,k+1}) style ladder
        for k in range(n - 1):
            D = np.zeros((n, n), dtype=complex)
            D[: k + 1, : k + 1] = np.eye(k + 1) * 1j
            D[k + 1, k + 1] = -1j * (k + 1)
            basis.append(D)
    else:
        for k in range(n):
            D = np.zeros((n, n), dtype=complex)
            D[k, k] = 1j
            basis.append(D)
    for k in range(n):
        for l in range(k + 1, n):
            A = np.zeros((n, n), dtype=complex)
            A[k, l], A[l, k] = 1.0, -1.0
            basis.append(A)
            S = np.zeros((n, n), dtype=complex)
            S[k, l], S[l, k] = 1j, 1j
            basis.append(S)
    out = np.array(basis)
    norms = np.sqrt(inner(out, out))
    return out / norms[:, None, None]


def basis_for(X):
    """Orthonormal basis of su(n) if the stack X (..., n, n) is traceless, else of
    u(n); of u(1) for n = 1, since su(1) = {0} has no basis."""
    X = np.asarray(X, dtype=complex)
    traceless = X.shape[-1] > 1 and bool(
        np.max(np.abs(np.trace(X, axis1=-2, axis2=-1))) <= TRACELESS_TOL)
    return orthonormal_basis(X.shape[-1], traceless=traceless)


def coordinates(X, basis):
    """Coordinates of X in an orthonormal basis (shape (d, n, n))."""
    return inner(basis, np.asarray(X, dtype=complex)[None, :, :])


def from_coordinates(c, basis):
    """Inverse of :func:`coordinates`."""
    return np.tensordot(np.asarray(c), basis, axes=(0, 0))


class AdjointBasis:
    """An orthonormal basis (d, n, n) with the two operands the adjoint layer
    multiplies by, built once: `right`, the (n, d n) concatenation of the
    b_i, and `coords`, the (d, 2n^2) matrix of the coordinate map.  Images of
    the basis under a linear map are (..., d, n, n) arrays, image i at
    [..., i, :, :]; X b_i for all i is one GEMM against `right`, in the
    (..., n, d, n) layout, which callers add through a swapaxes view."""

    def __init__(self, elements):
        d, n = elements.shape[0], elements.shape[-1]
        bt = elements.swapaxes(-1, -2)
        self.elements, self.right = elements, elements.transpose(1, 0, 2).reshape(n, d * n)
        self.coords = -INNER_SCALE * np.stack([bt.real, -bt.imag], axis=-1).reshape(d, -1)


def _times_basis(X, basis):
    """X b_i for every basis element, as (..., n, d, n)."""
    d, n = basis.elements.shape[0], basis.elements.shape[-1]
    flat = X.reshape(-1, n) @ basis.right
    return flat.reshape(X.shape[:-1] + (d, n))


def _basis_times(X, basis):
    """b_i X for every basis element, as (..., d, n, n)."""
    d, n = basis.elements.shape[0], basis.elements.shape[-1]
    return (basis.elements.reshape(d * n, n) @ X).reshape(X.shape[:-2] + (d, n, n))


def _coordinates_of_images(Y, basis):
    """Real (..., d, d) matrix whose column i holds the coordinates of Y's image i.

    The coordinate map Y -> <b_j, Y> = -INNER_SCALE * Re tr(b_j Y) is one
    real GEMM between the interleaved (re, im) entries of Y and the
    (d, 2n^2) matrix basis.coords.  A C-contiguous Y is read in place.
    """
    P = basis.coords
    Yc = np.ascontiguousarray(Y)
    flat = Yc.view(np.float64).reshape(-1, P.shape[1])
    A = (flat @ P.T).reshape(Yc.shape[:-2] + (P.shape[0],))
    return np.ascontiguousarray(A.swapaxes(-1, -2))


def ad_matrix(X, basis):
    """Matrix of ad(X) = [X, .] in the orthonormal AdjointBasis `basis`.

    The result is real and skew-symmetric, which is exactly the invariance
    of the inner product in infinitesimal form.  Leading axes of X are
    batch axes: X of shape (..., n, n) gives (..., d, d).
    """
    X = np.asarray(X, dtype=complex)
    images = _times_basis(X, basis).swapaxes(-3, -2) - _basis_times(X, basis)
    return _coordinates_of_images(images, basis)


def double_bracket_matrix(T, signs, basis):
    """Matrix of x -> sum_k signs[k] [T_k, [T_k, x]] in the AdjointBasis `basis`.

    T has shape (..., K, n, n) and signs length K; leading axes are batch
    axes of the (..., d, d) result.  Each double bracket is expanded as
    T^2 x + x T^2 - 2 T x T, so the K terms cost O(K d n^3) and a single
    d x 2n^2 x d GEMM maps the sum to coordinates, where squaring ad
    matrices would take K GEMMs of d x d x d.  For anti-Hermitian T_k the
    result is symmetric (ad T_k is skew).

    Three complex (..., d, n, n) arrays are alive at a time: the images,
    summed in place, one X b_i product and the buffer that each T_k b_i T_k
    is written into and scaled in.
    """
    T = np.asarray(T, dtype=complex)
    signs = np.asarray(signs, dtype=float)
    n, d = T.shape[-1], basis.elements.shape[0]
    Q = np.sum(signs[:, None, None] * (T @ T), axis=-3)
    images = _basis_times(Q, basis)
    images += _times_basis(Q, basis).swapaxes(-3, -2)
    TbT = np.empty(Q.shape[:-2] + (n * d, n), dtype=complex)
    for k, s in enumerate(signs):
        Tk = T[..., k, :, :]
        np.matmul(_times_basis(Tk, basis).reshape(TbT.shape), Tk, out=TbT)
        TbT *= 2.0 * s
        images -= TbT.reshape(Q.shape[:-2] + (n, d, n)).swapaxes(-3, -2)
    return _coordinates_of_images(images, basis)
