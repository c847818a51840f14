"""Lax pair, spectral curve and isospectral diagnostics.

A triple enters through the quadratic matrix polynomial

    T(zeta) = beta - zeta (alpha + alpha*) + zeta^2 beta*
            = (T2 + i T3) + 2 i T1 zeta + (-T2 + i T3) zeta^2,

and the equations take the Lax form dT(zeta)/dt = [T(zeta), T+(zeta)] with
T+(zeta) = alpha - zeta beta*.  The characteristic polynomial
det(eta - T(zeta)) is constant in t; its coefficients c_{k,j} (of
eta^{n-k} zeta^j) satisfy the reality constraint c_{k,j} = conj(c_{k,2k-j})
coming from T(zeta) = zeta^2 T(1/conj(zeta))*.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import grids
from .liealg import bracket
from .flow import complex_coords

DEFAULT_ZETAS = (0.0, 1.0, -1.0, 1j, -1j, 2.0)


@dataclass(frozen=True)
class LaxPolynomial:
    """Coefficients of T(zeta) = L0 + L1 z + L2 z^2 and T+(zeta) = M0 + M1 z."""

    L0: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    M0: np.ndarray
    M1: np.ndarray

    @property
    def n(self):
        return self.L0.shape[-1]

    def at(self, zeta):
        """Evaluate T(zeta)."""
        return self.L0 + zeta * self.L1 + zeta * zeta * self.L2

    def plus_at(self, zeta):
        """Evaluate T+(zeta)."""
        return self.M0 + zeta * self.M1

    def reality_defect(self):
        """Max violation of L2 = L0* and L1 = L1* (zero for algebra data).

        Coefficients stacked over samples give the maximum over the samples.
        """
        adj = lambda M: M.conj().swapaxes(-1, -2)
        d1 = np.max(np.abs(self.L2 - adj(self.L0)))
        d2 = np.max(np.abs(self.L1 - adj(self.L1)))
        return float(max(d1, d2))


def lax_from_quadruple(T):
    """Lax polynomial of a quadruple; T0 enters only through T+."""
    T = np.asarray(T, dtype=complex)
    alpha, beta = complex_coords(T)
    ah = alpha.conj().swapaxes(-1, -2)
    bh = beta.conj().swapaxes(-1, -2)
    return LaxPolynomial(L0=beta, L1=-(alpha + ah), L2=bh, M0=alpha, M1=-bh)


def lax_residual(traj):
    """Sup over grid nodes and DEFAULT_ZETAS of |dT(zeta)/dt - [T, T+]|.

    Vanishes to O(h^4) on solutions and is O(1) on generic non-solutions,
    which makes it a cheap integrability check.
    """
    lax = lax_from_quadruple(traj.samples)
    dL0, dL1, dL2 = (grids.derivative(L, traj.h) for L in (lax.L0, lax.L1, lax.L2))
    worst = 0.0
    for z in DEFAULT_ZETAS:
        R = dL0 + z * dL1 + z * z * dL2 - bracket(lax.at(z), lax.plus_at(z))
        worst = max(worst, float(np.max(np.abs(R))))
    return worst


@dataclass(frozen=True)
class SpectralCurve:
    """Coefficients of det(eta - T(zeta)) = eta^n + sum_k p_k(zeta) eta^{n-k}.

    coefficients[k-1][j] is c_{k,j} for j = 0..2k, so p_k has degree <= 2k.
    """

    n: int
    coefficients: tuple

    def reality_defect(self):
        """Max violation of c_{k,j} = conj(c_{k,2k-j})."""
        worst = 0.0
        for p in self.coefficients:
            worst = max(worst, float(np.max(np.abs(p - p[::-1].conj()))))
        return worst

    def flat(self):
        """All coefficients as one complex vector (for drift comparisons)."""
        return np.concatenate(self.coefficients)

    def as_dict(self):
        return {
            "n": self.n,
            "coefficients": [
                [k + 1, j, float(c.real), float(c.imag)]
                for k, p in enumerate(self.coefficients)
                for j, c in enumerate(p)
            ],
        }


@functools.lru_cache(maxsize=64)
def _unity_nodes(n):
    """The 2n+1 roots of unity and the conjugate transpose of their powers.

    c_j = (1/m) sum_m conj(node^j) p(node) inverts the Vandermonde matrix on
    the roots of unity.  Every caller gets the same arrays, so both are
    read-only.
    """
    m = 2 * n + 1
    nodes = np.exp(2j * np.pi * np.arange(m) / m)
    powers_h = (nodes[:, None] ** np.arange(m)[None, :]).conj().T
    nodes.flags.writeable = False
    powers_h.flags.writeable = False
    return nodes, powers_h


def char_poly(L):
    """Spectral curve of a Lax polynomial by evaluation-interpolation.

    det(eta - T(zeta)) is sampled at the 2n+1 roots of unity in zeta and
    the zeta-coefficients are recovered with the inverse discrete Fourier
    matrix, which is exact to rounding for polynomials of degree <= 2n.
    All nodes share one batched eigvals; the eta-coefficients are expanded
    from the eigenvalues as np.poly does, one root at a time.
    """
    n = L.n
    m = 2 * n + 1
    nodes, powers_h = _unity_nodes(n)
    roots = np.linalg.eigvals(L.at(nodes[:, None, None]))  # (m, n)
    # det(eta - A) = eta^n + c_1 eta^{n-1} + ... + c_n; multiply in (eta - r_k)
    c = np.zeros((m, n + 1), dtype=complex)
    c[:, 0] = 1.0
    for k in range(n):
        c[:, 1 : k + 2] -= roots[:, k : k + 1] * c[:, : k + 1]
    vals = c[:, 1:]  # (m, n)
    coeffs = (powers_h @ vals) / m  # (m, n), row j = zeta^j coefficient
    ps = tuple(coeffs[: 2 * k + 1, k - 1].copy() for k in range(1, n + 1))
    return SpectralCurve(n=n, coefficients=ps)


def curve_path(traj):
    """Spectral-curve coefficients along a trajectory, shape (steps+1, ncoef).

    The Lax polynomial is formed once for the whole path; each sample's
    curve is one :func:`char_poly` call.
    """
    lax = lax_from_quadruple(traj.samples)
    parts = zip(lax.L0, lax.L1, lax.L2, lax.M0, lax.M1)
    return np.array([char_poly(LaxPolynomial(*p)).flat() for p in parts])


def isospectral_drift(traj):
    """Max over time and coefficients of |c_{k,j}(t) - c_{k,j}(0)|."""
    path = curve_path(traj)
    return float(np.max(np.abs(path - path[0])))


def conserved_C_from_trace(L):
    """The zeta^2 coefficient of tr T(zeta)^2 as a conserved quantity.

    Returns tr(2 L0 L2 + L1^2), which equals C = 2|T1|^2 + |T2|^2 + |T3|^2
    in the inner product of :mod:`liealg` (scale 2).
    """
    val = np.trace(2.0 * L.L0 @ L.L2 + L.L1 @ L.L1)
    return float(val.real)
