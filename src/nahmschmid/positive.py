"""Positive triples, spectral factorization and the A-B flow.

A triple (T1, T2, T3) in u(n) is positive when the Hermitian pencil

    H(theta) = beta e^{-i theta} + 2 i T1 + beta* e^{i theta},
    beta = T2 + i T3,

is positive definite for every theta, i.e. T(zeta)/zeta > 0 on the unit
circle.  Such quadratic matrix polynomials factor as

    T(zeta) = (A + B* zeta)(B + A* zeta)

with det(B + A* zeta) != 0 on the closed unit disk, uniquely once B is
Hermitian positive definite.  Then P = B^2 is the maximal Hermitian
solution of P + L0 P^{-1} L0* = L1, with L0 = beta and L1 = 2i T1 (Engwerda,
Ran & Rijkeboer, Linear Algebra Appl. 186, 1993), which cyclic reduction
reaches quadratically (Meini, Math. Comp. 71, 2002).  The factorization
intertwines the reduced flow with the first-order system

    A' = (B*BA - ABB*)/2,   B' = (A*AB - BAA*)/2,

from which the triple is recovered via T1 = -(i/2)(AA* + B*B) and
T2 + i T3 = AB.
"""

from dataclasses import dataclass

import numpy as np

from . import grids
from .liealg import project_antihermitian
from .serialize import matrix_to_pairs

_CIRCLE_TOL = 1e-9  # a root this close to the unit circle refuses the factorization
_NORM_BOUND_TOL = 1e-10  # rounding slack of the norm-bound comparison
_CR_TOL = 1e-15  # cyclic reduction stops once max|C| <= _CR_TOL max|L1|
_CR_MAX_ITER = 60  # more steps than any root margin above _CIRCLE_TOL needs


class NotFactorizableError(ValueError):
    """Input fails the positivity precondition of the factorization."""


@dataclass(frozen=True)
class PositivityReport:
    """Sampled positivity certificate for H(theta) on the circle.

    min_eig is the smallest eigenvalue over the theta samples; margin
    subtracts the worst possible eigenvalue motion between samples
    (|dH/dtheta| <= 2|beta|, so half a sample spacing times that).  With
    margin > 0 positivity holds everywhere, not just at the samples.
    """

    min_eig: float
    samples: int
    margin: float
    sampled_positive: bool
    certified: bool

    def as_dict(self):
        return {
            "min_eig": self.min_eig,
            "samples": self.samples,
            "margin": self.margin,
            "sampled_positive": self.sampled_positive,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class FactorPair:
    """Factor matrices (A, B) with B Hermitian positive definite."""

    A: np.ndarray
    B: np.ndarray
    root_margin: float  # min |root| - 1 over the right-factor roots

    def right_factor_at(self, zeta):
        return self.B + zeta * self.A.conj().T

    def left_factor_at(self, zeta):
        return self.A + zeta * self.B.conj().T

    def polynomial_at(self, zeta):
        return self.left_factor_at(zeta) @ self.right_factor_at(zeta)

    def as_dict(self):
        margin = self.root_margin if np.isfinite(self.root_margin) else None
        return {
            "A": matrix_to_pairs(self.A),
            "B": matrix_to_pairs(self.B),
            "root_margin": margin,  # None when all roots sit at infinity
        }


def circle_pencil(T1, T2, T3, theta):
    """H(theta) = beta e^{-i theta} + 2 i T1 + beta* e^{i theta}, Hermitian.

    An array of theta gives the stack of pencils, shape theta.shape + (n, n).
    """
    beta = np.asarray(T2, dtype=complex) + 1j * np.asarray(T3, dtype=complex)
    z = np.exp(1j * np.asarray(theta))[..., None, None]
    H = beta / z + 2j * np.asarray(T1, dtype=complex) + beta.conj().T * z
    return 0.5 * (H + H.conj().swapaxes(-1, -2))


def positivity_report(T1, T2, T3, samples=64):
    """Sample the circle pencil and report the positivity certificate."""
    beta = np.asarray(T2, dtype=complex) + 1j * np.asarray(T3, dtype=complex)
    thetas = 2.0 * np.pi * np.arange(samples) / samples
    min_eig = float(np.min(np.linalg.eigvalsh(circle_pencil(T1, T2, T3, thetas))[:, 0]))
    lip = 2.0 * float(np.linalg.norm(beta, 2))
    margin = min_eig - (np.pi / samples) * lip
    return PositivityReport(
        min_eig=min_eig,
        samples=samples,
        margin=float(margin),
        sampled_positive=bool(min_eig > 0.0),
        certified=bool(margin > 0.0),
    )


def rosenblatt_factorize(L0, L1, L2):
    """Factor a positive T(zeta) = L0 + L1 z + L2 z^2 as (A + B*z)(B + A*z).

    With B Hermitian, L0 = AB and L1 = AA* + B^2: P = B^2 solves
    P + L0 P^{-1} L0* = L1, and the right-factor roots -1/mu, mu the
    eigenvalues of N = P^{-1} L2 = B^{-1} A*, lie outside the closed disk
    for the maximal solution.  Cyclic reduction squares the coupling C each
    step (C ~ rho(N)^(2^k)).  Its phi_k(z) = Q_k - C_k*/z - C_k z start at
    T(-z)/(-z) and phi_{k+1}(z^2)^{-1} averages phi_k(+-z)^{-1}, so positive
    input keeps every Q_k (the circle mean of phi_k) positive definite.
    B = sqrt(P) is the Hermitian-positive gauge of (A, B) -> (A g^{-1}, g B).
    """
    L0 = np.asarray(L0, dtype=complex)
    L1 = np.asarray(L1, dtype=complex)
    L2 = np.asarray(L2, dtype=complex)
    if np.max(np.abs(L2 - L0.conj().T)) > 1e-8 or np.max(np.abs(L1 - L1.conj().T)) > 1e-8:
        raise NotFactorizableError("coefficients lack the reality twist L2 = L0*, L1 = L1*")

    T1 = project_antihermitian(-0.5j * L1)
    beta = L0
    T2 = 0.5 * (beta - beta.conj().T)
    T3 = -0.5j * (beta + beta.conj().T)
    report = positivity_report(T1, T2, T3)
    if not report.sampled_positive:
        raise NotFactorizableError(
            f"pencil is not positive on the circle (min eigenvalue {report.min_eig:.3e})"
        )

    C, Q, P = L2, L1, L1
    for _ in range(_CR_MAX_ITER):
        if np.max(np.abs(C)) <= _CR_TOL * np.max(np.abs(L1)):
            break
        Ch = C.conj().T
        try:
            np.linalg.cholesky(Q)  # only tests that Q is positive definite
            QiC, QiCh = np.split(np.linalg.solve(Q, np.concatenate([C, Ch], axis=1)), 2, axis=1)
        except np.linalg.LinAlgError:
            raise NotFactorizableError("cyclic reduction lost positive definiteness") from None
        P = P - Ch @ QiC
        Q = Q - C @ QiCh - Ch @ QiC
        C = C @ QiC
    else:
        raise NotFactorizableError(f"cyclic reduction did not converge in {_CR_MAX_ITER} steps")

    w, V = np.linalg.eigh(P)
    if w[0] <= 0.0:
        raise NotFactorizableError(f"square of the right factor is not positive ({w[0]:.3e})")
    B = (V * np.sqrt(w)) @ V.conj().T
    Binv = (V / np.sqrt(w)) @ V.conj().T
    A = L0 @ Binv

    mu = np.linalg.eigvals(Binv @ A.conj().T)  # of N; the right-factor roots are -1/mu
    margin = float(np.min(1.0 / np.abs(mu[np.abs(mu) > 0]))) - 1.0 if np.any(mu != 0) else np.inf
    if margin < _CIRCLE_TOL:
        raise NotFactorizableError("right-factor root within tolerance of the unit circle")
    pair = FactorPair(A=A, B=B, root_margin=margin)

    # consistency of the construction: residual at a spread of sample points
    worst = 0.0
    for z in (0.0, 1.0, -1.0, 1j, 2.0):
        Tz = L0 + z * L1 + z * z * L2
        worst = max(worst, float(np.max(np.abs(pair.polynomial_at(z) - Tz))))
    if worst > 1e-6 * max(1.0, float(np.max(np.abs(L1)))):
        raise NotFactorizableError(f"factorization residual too large ({worst:.3e})")
    return pair


def factorize_triple(T1, T2, T3):
    """Rosenblatt factorization straight from a positive triple."""
    beta = np.asarray(T2, dtype=complex) + 1j * np.asarray(T3, dtype=complex)
    L1 = 2j * np.asarray(T1, dtype=complex)
    return rosenblatt_factorize(beta, L1, beta.conj().T)


def ab_flow_rhs(A, B):
    """Right-hand side of the factor flow."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise ValueError(f"factor shapes differ: {A.shape} vs {B.shape}")
    Ah, Bh = A.conj().swapaxes(-1, -2), B.conj().swapaxes(-1, -2)
    dA = 0.5 * (Bh @ B @ A - A @ B @ Bh)
    dB = 0.5 * (Ah @ A @ B - B @ A @ Ah)
    return dA, dB


def integrate_ab(A0, B0, t_span=(0.0, 1.0), steps=2000):
    """Integrate the factor flow; returns paths of shape (steps+1, n, n)."""
    Y0 = np.stack([np.asarray(A0, dtype=complex), np.asarray(B0, dtype=complex)])
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / steps

    def f(t, Y):
        dA, dB = ab_flow_rhs(Y[0], Y[1])
        return np.stack([dA, dB])

    path = grids.rk4(f, Y0, t0, h, steps)
    return path[:, 0], path[:, 1]


def reconstruct(A, B):
    """Triple from factor data: T1 = -(i/2)(AA* + B*B), T2 + i T3 = AB.

    Splitting AB into anti-Hermitian T2, T3 forces T2 = (AB - (AB)*)/2 and
    T3 = -(i/2)(AB + (AB)*); works on paths as well as single matrices.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    Ah, Bh = A.conj().swapaxes(-1, -2), B.conj().swapaxes(-1, -2)
    T1 = project_antihermitian(-0.5j * (A @ Ah + Bh @ B))
    AB = A @ B
    ABh = AB.conj().swapaxes(-1, -2)
    T2 = 0.5 * (AB - ABh)
    T3 = -0.5j * (AB + ABh)
    return T1, T2, T3


def ab_trace_invariant(A, B):
    """tr(AA* + B*B), conserved along the factor flow."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    Ah, Bh = A.conj().swapaxes(-1, -2), B.conj().swapaxes(-1, -2)
    return np.real(np.trace(A @ Ah + Bh @ B, axis1=-2, axis2=-1))


def norm_bound_check(T1, T2, T3):
    """Spectral-norm bound |T2 + i T3| <= 2 |T1| valid on the positive set.

    Returns (lhs, rhs, holds).  The operator norm is the right one here:
    the bound rests on submultiplicativity and |A|^2 = |AA*|.
    """
    beta = np.asarray(T2, dtype=complex) + 1j * np.asarray(T3, dtype=complex)
    lhs = float(np.linalg.norm(beta, 2))
    rhs = 2.0 * float(np.linalg.norm(np.asarray(T1, dtype=complex), 2))
    return lhs, rhs, bool(lhs <= rhs + _NORM_BOUND_TOL)
