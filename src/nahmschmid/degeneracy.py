"""Degeneracy-locus detection by Dirichlet boundary-value shooting.

A solution lies in the degeneracy locus exactly when the linear operator

    Delta_T(xi) = xi'' + [T0', xi] + 2 [T0, xi'] + [T0,[T0,xi]]
                  + [T1,[T1,xi]] - [T2,[T2,xi]] - [T3,[T3,xi]]

has a nontrivial kernel among paths with xi(0) = xi(1) = 0.  The kernel
test is realised by shooting: the columns of the shooting matrix are xi(1)
for the initial values xi(0) = 0, xi'(0) = basis vector, expressed in an
orthonormal basis of the algebra, and a (near-)singular matrix flags the
locus.  A sampled sup bound 2 sup_t (|T2|^2 + |T3|^2) < pi^2 certifies
nondegeneracy without shooting.

Shooting runs in real coordinates of the adjoint representation.  With
d = dim of the algebra, Delta_T xi = 0 becomes the real d x d system

    xi'' = M(t) xi + D(t) xi',
    M = -ad(T0') - ad(T0)^2 - ad(T1)^2 + ad(T2)^2 + ad(T3)^2,
    D = -2 ad(T0),

formed once per grid node and midpoint with
:func:`liealg.double_bracket_matrix` (the same layer `stability` builds its
operator from).  Propagating the fundamental matrix costs O(d^3) = O(n^6)
per step, against O(d n^3) = O(n^5) for applying complex double brackets
to all d directions; at the sizes shot here (n <= 16, no workload goes
further) the GEMM form is the faster one.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import grids
from .liealg import (
    ad_matrix,
    basis_for,
    bracket,
    double_bracket_matrix,
    inner,
    orthonormal_basis,
)

# verdict bands of sigma_min / sigma_max (see DegeneracyReport)
TOL_LOW = 1e-6
TOL_HIGH = 1e-3


@dataclass(frozen=True)
class DegeneracyReport:
    """Shooting matrix, its singular values and the resulting verdict.

    The verdict bands are relative to the spectral norm of the matrix:
    `degenerate` below TOL_LOW, `nondegenerate` above TOL_HIGH, and
    `inconclusive` in between (near-degenerate solutions occur along
    continuous families, so a single threshold would misreport).
    """

    shooting_matrix: np.ndarray
    singular_values: np.ndarray
    sigma_min: float
    determinant: float
    verdict: str

    def as_dict(self):
        return {
            "shooting_matrix": self.shooting_matrix.tolist(),
            "singular_values": self.singular_values.tolist(),
            "sigma_min": self.sigma_min,
            "determinant": self.determinant,
            "verdict": self.verdict,
            "tol_low": TOL_LOW,
            "tol_high": TOL_HIGH,
        }


def algebra_basis(traj, algebra=None):
    """Orthonormal basis used for shooting coordinates.

    Traceless trajectories live in su(n) (dimension n^2 - 1); anything else
    is treated as u(n)-valued.  Pass algebra="su" or "un" to override.
    """
    if algebra is None:
        return basis_for(traj.samples)
    if algebra not in ("su", "un"):
        raise ValueError("algebra must be 'su' or 'un'")
    return orthonormal_basis(traj.n, traceless=(algebra == "su"))


def delta_apply(traj, xi_path):
    """Apply the degeneracy operator to a path xi on the trajectory's grid.

    Derivatives of xi and of T0 use the same 4th-order stencils as the
    integrator.  Linear in xi; for T0 = 0 this is
    xi'' + (ad(T1)^2 - ad(T2)^2 - ad(T3)^2)(xi).
    """
    xi_path = np.asarray(xi_path, dtype=complex)
    S, h = traj.samples, traj.h
    if xi_path.shape != (S.shape[0], traj.n, traj.n):
        raise ValueError("xi path grid does not match the trajectory")
    xidd = grids.second_derivative(xi_path, h)
    xid = grids.derivative(xi_path, h)
    T0, T1, T2, T3 = S[:, 0], S[:, 1], S[:, 2], S[:, 3]
    T0d = grids.derivative(T0, h)
    out = xidd + bracket(T0d, xi_path) + 2.0 * bracket(T0, xid)
    out = out + bracket(T0, bracket(T0, xi_path))
    out = out + bracket(T1, bracket(T1, xi_path))
    out = out - bracket(T2, bracket(T2, xi_path))
    out = out - bracket(T3, bracket(T3, xi_path))
    return out


# M and D are formed for blocks of times whose (times, d, n, n) complex
# intermediates stay below this many entries: forming a whole n = 16 grid
# at once would hold several hundred MB of them
_FORM_BLOCK_ENTRIES = 1 << 19


def _operator_coefficients(C, has_T0, basis):
    """M (and D) at every time of C, in blocks of times to bound memory.

    C holds (T1, T2, T3) per time, or (T0, T1, T2, T3, T0') when has_T0.
    Returns (len(C), d, d), or (len(C), 2, d, d) stacking M and D.
    """
    d, n = basis.shape[0], basis.shape[-1]
    block = max(1, _FORM_BLOCK_ENTRIES // (d * n * n))
    out = np.empty((len(C),) + ((2,) if has_T0 else ()) + (d, d))
    for lo in range(0, len(C), block):
        c = C[lo : lo + block]
        if has_T0:
            ads = ad_matrix(c[:, (4, 0)], basis)
            dbl = double_bracket_matrix(c[:, :4], (-1.0, -1.0, 1.0, 1.0), basis)
            out[lo : lo + block, 0] = dbl - ads[:, 0]
            out[lo : lo + block, 1] = -2.0 * ads[:, 1]
        else:
            out[lo : lo + block] = double_bracket_matrix(c, (-1.0, 1.0, 1.0), basis)
    return out


def shooting_matrix(traj, algebra=None):
    """Map xi'(0) -> xi(1) for solutions of Delta_T xi = 0 with xi(0) = 0.

    In real coordinates of an orthonormal basis the equation is
    xi'' = M(t) xi + D(t) xi' with d x d matrices M and D (see the module
    docstring; D vanishes and is skipped when T0 = 0).  M and D are formed
    at the grid nodes and at the half-steps, where the trajectory comes
    from cubic interpolation of the samples; RK4 then propagates the real
    (2, d, d) fundamental matrix (xi, xi') from (0, identity).  Each step
    costs O(d^3), against O(n^5) for the bracket form.  The result is
    xi(1), so the zero trajectory gives the identity matrix.
    """
    basis = algebra_basis(traj, algebra)
    d = basis.shape[0]
    S, h = traj.samples, traj.h
    has_T0 = bool(np.max(np.abs(S[:, 0])) > 0)
    if has_T0:
        T0d = grids.derivative(S[:, 0], h)
        nodes = np.concatenate([S, T0d[:, None]], axis=1)  # (m, 5, n, n)
        rhs = lambda C, Y: np.array([Y[1], C[0] @ Y[0] + C[1] @ Y[1]])
    else:
        nodes = S[:, 1:]  # (m, 3, n, n)
        rhs = lambda C, Y: np.array([Y[1], C @ Y[0]])
    m = nodes.shape[0]
    coeff = _operator_coefficients(
        np.concatenate([nodes, grids.midpoints(nodes)]), has_T0, basis
    )
    Y0 = np.stack([np.zeros((d, d)), np.eye(d)])
    path = grids.rk4_sampled(rhs, coeff[:m], coeff[m:], Y0, h)
    return path[-1, 0]


def degeneracy_report(traj):
    """Run the shooting kernel test and classify the solution.

    sigma_min is compared against TOL_LOW/TOL_HIGH times the spectral norm
    of the shooting matrix; between the bands the verdict is
    `inconclusive`.
    """
    M = shooting_matrix(traj)
    sigma = np.linalg.svd(M, compute_uv=False)
    smin, smax = float(sigma[-1]), float(sigma[0])
    if smin < TOL_LOW * smax:
        verdict = "degenerate"
    elif smin > TOL_HIGH * smax:
        verdict = "nondegenerate"
    else:
        verdict = "inconclusive"
    return DegeneracyReport(
        shooting_matrix=M,
        singular_values=sigma,
        sigma_min=smin,
        determinant=float(np.linalg.det(M)),
        verdict=verdict,
    )


def pi_bound_precheck(traj):
    """Sufficient-condition bound: 2 sup_t (|T2|^2 + |T3|^2) against pi^2.

    Returns (bound_value, certified).  A certified solution is guaranteed
    outside the degeneracy locus; the criterion is one-sided, so an
    uncertified solution may still be nondegenerate.
    """
    S = traj.samples
    vals = inner(S[:, 2], S[:, 2]) + inner(S[:, 3], S[:, 3])
    bound = 2.0 * float(np.max(vals))
    return bound, bool(bound < math.pi**2)
