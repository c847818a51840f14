"""The paper's reduction: the Nahm-Schmid equations are the anti-self-dual
Yang-Mills equations in split signature, reduced by three translations.

A connection A = sum_mu T_mu(t) dx^mu on R^4, with coordinates
(t, x1, x2, x3) and no dependence on x, has the curvature
F_{0i} = T_i' + [T0, T_i] and F_{ij} = [T_i, T_j].  The Hodge star is built
here generically, from the Levi-Civita symbol and a diagonal metric g:

    (*F)_{rs} = 1/2 eps_{mnrs} g^{mm} g^{nn} F_{mn}.

F + *F = 0 for g = diag(+, +, -, -), and for -g, which has the same star,
is the package's system; the Euclidean metric (Nahm's equations) and
(+, -, +, -) give other sign patterns.  Nothing here reads the package's
sign conventions, so a sign slip in the flow shows as a residual that no
oracle derived from the same equations would see.  The degeneracy operator
is likewise the gauge Laplacian sum_mu g^{mu mu} D_mu D_mu of the same
connection, D_mu = d_mu + ad(T_mu), on x-independent fields.
"""

import itertools

import numpy as np
import pytest

from nahmschmid import degeneracy, grids
from nahmschmid.flow import SolverConfig, Trajectory, integrate, rhs_full
from nahmschmid.liealg import random_antihermitian

SPLIT = np.array([1.0, 1.0, -1.0, -1.0])
WRONG_METRICS = {"euclidean": np.ones(4), "alternating": np.array([1.0, -1.0, 1.0, -1.0])}

# eps[m, n, r, s], the sign of the permutation (m, n, r, s) of (0, 1, 2, 3)
EPS = np.zeros((4, 4, 4, 4))
for _p in itertools.permutations(range(4)):
    EPS[_p] = np.linalg.det(np.eye(4)[list(_p)])


def _curvature(T, Td):
    """F_{mu nu} as (..., 4, 4, n, n) from T (..., 4, n, n) and Td = (T1', T2', T3')."""
    F = np.zeros(T.shape[:-3] + (4, 4) + T.shape[-2:], dtype=complex)
    for mu, nu in itertools.combinations(range(4), 2):
        Tm, Tn = T[..., mu, :, :], T[..., nu, :, :]
        F_mn = Tm @ Tn - Tn @ Tm
        if mu == 0:
            F_mn = F_mn + Td[..., nu - 1, :, :]
        F[..., mu, nu, :, :], F[..., nu, mu, :, :] = F_mn, -F_mn
    return F


def _asd_defect(F, g):
    """max|F + *F| / max|F| for the diagonal metric g."""
    ginv = 1.0 / g
    star = 0.5 * np.einsum("mnrs,m,n,...mnij->...rsij", EPS, ginv, ginv, F)
    return np.max(np.abs(F + star)) / np.max(np.abs(F))


@pytest.fixture
def quad():
    # u(3) data, T0 of Frobenius norm 1.5 and T1..T3 of norm 0.5
    rng = np.random.default_rng(23)
    X = np.array([random_antihermitian(3, rng) for _ in range(4)])
    X /= np.linalg.norm(X, axis=(1, 2), keepdims=True)
    return np.array([1.5, 0.5, 0.5, 0.5])[:, None, None] * X


def test_the_equations_are_asd_in_split_signature(quad):
    F = _curvature(quad, np.array(rhs_full(quad)))
    for g in (SPLIT, -SPLIT):
        assert _asd_defect(F, g) <= 1e-12
    for g in WRONG_METRICS.values():
        assert _asd_defect(F, g) > 0.1


def test_integrated_solution_is_asd_to_the_stencil_floor(quad):
    # T' from the 4th-order stencil of the samples, so the defect is the
    # stencil's error at 400 steps, not rounding
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=400))
    S = traj.samples
    F = _curvature(S, grids.derivative(S[:, 1:], traj.h))
    for g in (SPLIT, -SPLIT):
        assert _asd_defect(F, g) <= 1e-8
    for g in WRONG_METRICS.values():
        assert _asd_defect(F, g) > 0.1


# matrix polynomials in t: coefficient arrays (k, n, n), lowest order first

def _poly_bracket(P, Q):
    out = np.zeros((len(P) + len(Q) - 1,) + P.shape[1:], dtype=complex)
    for i, p in enumerate(P):
        out[i : i + len(Q)] += p @ Q - Q @ p
    return out


def _poly_add(P, Q):
    out = np.zeros((max(len(P), len(Q)),) + P.shape[1:], dtype=complex)
    out[: len(P)] += P
    out[: len(Q)] += Q
    return out


def _covariant(T, mu, P):
    # D_mu P = d_mu P + [T_mu, P]; only d_0 = d/dt acts on x-independent fields
    out = _poly_bracket(T[mu], P)
    if mu == 0:
        out = _poly_add(out, P[1:] * np.arange(1, len(P))[:, None, None])
    return out


def _gauge_laplacian(T, xi, g):
    out = np.zeros((1,) + xi.shape[1:], dtype=complex)
    for mu in range(4):
        out = _poly_add(out, _covariant(T, mu, _covariant(T, mu, xi)) / g[mu])
    return out


def _at(P, t):
    return np.tensordot(t[:, None] ** np.arange(len(P)), P, axes=(1, 0))


def test_degeneracy_operator_is_the_gauge_laplacian():
    # cubic paths T_mu(t) and xi(t), on which the 4th-order stencils of
    # delta_apply are exact up to rounding
    rng = np.random.default_rng(29)
    n, t = 3, np.linspace(0.0, 1.0, 41)
    T = np.array([[random_antihermitian(n, rng) for _ in range(4)] for _ in range(4)])
    xi = np.array([random_antihermitian(n, rng) for _ in range(4)])
    samples = np.stack([_at(T[mu], t) for mu in range(4)], axis=1)
    got = degeneracy.delta_apply(Trajectory(0.0, 1.0, samples), _at(xi, t))
    scale = np.max(np.abs(got))
    assert np.max(np.abs(got - _at(_gauge_laplacian(T, xi, SPLIT), t))) <= 1e-10 * scale
    for g in WRONG_METRICS.values():
        assert np.max(np.abs(got - _at(_gauge_laplacian(T, xi, g), t))) > 0.1 * scale
