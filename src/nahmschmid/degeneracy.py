"""Degeneracy-locus detection by Dirichlet boundary-value shooting.

A solution lies in the degeneracy locus exactly when the linear operator

    Delta_T(xi) = xi'' + [T0', xi] + 2 [T0, xi'] + [T0,[T0,xi]]
                  + [T1,[T1,xi]] - [T2,[T2,xi]] - [T3,[T3,xi]]

has a nontrivial kernel among paths with xi(0) = xi(1) = 0.  The kernel
test is realised by shooting: the columns of the shooting matrix are xi(1)
for the initial values xi(0) = 0, xi'(0) = basis vector, expressed in an
orthonormal basis of the algebra, and a (near-)singular matrix flags the
locus.  A sampled sup bound 2 sup_t (|T2|^2 + |T3|^2) < pi^2 / L^2, on a
span of length L, certifies nondegeneracy without shooting.

Shooting runs in real coordinates of the adjoint representation, in the
gauge T0 = 0.  The operator is gauge-covariant, so a trajectory with
T0 != 0 is first moved there by :func:`flow.gauge_fix`; with
d = dim of the algebra, Delta_T xi = 0 then becomes the real d x d system

    xi'' = M(t) xi,    M = -ad(T1)^2 + ad(T2)^2 + ad(T3)^2,

formed once per grid node and midpoint with
:func:`liealg.double_bracket_matrix` against one `liealg.AdjointBasis` per
shooting (the layer `stability` builds its operator from).  Propagating
the fundamental matrix costs O(d^3) = O(n^6) per step, against
O(d n^3) = O(n^5) for applying complex double brackets to all d
directions; at the sizes shot here (n <= 16, no workload goes further) the
GEMM form is the faster one.  Forming and propagation are
streamed per block of steps (see _FORM_BLOCK_ENTRIES), so memory is
O(block d^2), independent of the step count.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import flow, grids
from .liealg import AdjointBasis, basis_for, bracket, double_bracket_matrix, inner

# verdict bands of sigma_min / sigma_max (see DegeneracyReport)
TOL_LOW = 1e-6
TOL_HIGH = 1e-3


@dataclass(frozen=True)
class DegeneracyReport:
    """Shooting matrix, its singular values and the resulting verdict.

    The verdict bands are relative to the spectral norm of the matrix:
    `degenerate` below TOL_LOW, `nondegenerate` above TOL_HIGH, and
    `inconclusive` in between (near-degenerate solutions occur along
    continuous families, so a single threshold would misreport).  For
    T0 != 0 the shooting matrix is expressed in the gauge T0 = 0 (see
    shooting_matrix); singular values, determinant and verdict do not
    depend on the gauge.
    """

    shooting_matrix: np.ndarray
    singular_values: np.ndarray
    sigma_min: float
    determinant: float
    verdict: str

    def as_dict(self):
        """JSON-ready dict for :func:`serialize.dumps`.

        The matrix and the singular values stay float ndarrays, which
        `dumps` writes as their nested lists would be written, so the dict
        must be rendered with `dumps`, not `json.dumps`.
        """
        return {
            "shooting_matrix": self.shooting_matrix,
            "singular_values": self.singular_values,
            "sigma_min": self.sigma_min,
            "determinant": self.determinant,
            "verdict": self.verdict,
            "tol_low": TOL_LOW,
            "tol_high": TOL_HIGH,
        }


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


# M is formed for blocks of steps whose (times, d, n, n) complex
# intermediates stay below this many entries (1 MB), or for single steps
# where one step exceeds it.  double_bracket_matrix keeps three of them
# alive: at most 3 MB for blocks of 7 steps at n = 8, and 6 MB for the
# single steps (2 forming times of 2 MB) at n = 16.  Forming a whole
# n = 16 grid at once would hold several hundred MB
_FORM_BLOCK_ENTRIES = 1 << 16


def shooting_matrix(traj):
    """Map xi'(0) -> xi(1) for solutions of Delta_T xi = 0 with xi(0) = 0.

    In real coordinates of an orthonormal basis the equation is
    xi'' = M(t) xi with the d x d matrix M of the module docstring.  M is
    formed at the grid nodes and at the half-steps, where the trajectory
    comes from cubic interpolation of the samples; RK4 then propagates the
    real (2, d, d) fundamental matrix (xi, xi') from (0, identity) through
    :func:`grids.rk4_sampled`, the stepper of xi'' = M xi, which builds each
    step's (2d, 2d) RK4 propagator from M and takes one BLAS product per
    step.  Each step costs O(d^3), against O(n^5) for the bracket form.
    The result is xi(1), so the zero trajectory gives the identity matrix.

    Forming and propagation are streamed over blocks of steps: each block
    forms M at its new nodes and midpoints in one call, steps the state
    across the block in one rk4_sampled call, and keeps only the last
    state and the M of the last node, which the next block starts from.
    Memory is O(block d^2), independent of the step count.

    A trajectory with T0 != 0 is shot after :func:`flow.gauge_fix`, so the
    matrix is expressed in the gauge T0 = 0: it is Ad(u(1)) times the map
    in the original gauge, for the gauge path u of gauge_fix.  Ad(u(1)) is
    orthogonal with determinant 1 (U(n) is connected), so singular values,
    determinant and verdict are those of the original gauge.  The su(n) or
    u(n) basis is chosen from the original samples, whose trace T0 may
    carry alone.
    """
    basis = AdjointBasis(basis_for(traj.samples))
    if np.max(np.abs(traj.samples[:, 0])) > 0:
        traj = flow.gauge_fix(traj)[0]
    d = basis.elements.shape[0]
    nodes = traj.samples[:, 1:]  # (m, 3, n, n)
    m = nodes.shape[0]
    if m < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    # a block of b steps forms at most b + 1 nodes and b midpoints
    block = max(1, (_FORM_BLOCK_ENTRIES // (d * traj.n**2) - 1) // 2)
    Y = np.stack([np.zeros((d, d)), np.eye(d)])
    # M at node lo, carried from the previous block: no row before the first
    C_lo = np.empty((0, d, d))
    for lo in range(0, m - 1, block):
        hi = min(lo + block, m - 1)
        # the cubic midpoints of steps lo..hi-1 read nodes lo-1..hi+1, or
        # the four nodes at an end of the grid
        w = max(min(lo - 1, m - 4), 0)
        with np.errstate(over="raise", invalid="raise"):  # raise, not warn, on overflow
            mids = grids.midpoints(nodes[w : max(hi + 2, w + 4)])[lo - w : hi - w]
            new = nodes[lo + len(C_lo) : hi + 1]
            C = double_bracket_matrix(np.concatenate([new, mids]), (-1.0, 1.0, 1.0), basis)
        C_nodes = np.concatenate([C_lo, C[: len(new)]])
        try:
            Y = grids.rk4_sampled(C_nodes, C[len(new) :], Y, traj.h)[-1]
        except FloatingPointError as exc:
            step = lo + exc.step  # rk4 numbers the steps of its block
            raise flow.NumericalFailure(f"state became non-finite at step {step}") from exc
        C_lo = C_nodes[-1:]
    return Y[0]


def degeneracy_report(traj):
    """Run the shooting kernel test and classify the solution.

    sigma_min is compared against TOL_LOW/TOL_HIGH times the spectral norm
    of the shooting matrix; between the bands the verdict is
    `inconclusive`.
    """
    M = shooting_matrix(traj)
    with np.errstate(over="raise", invalid="raise"):
        sigma = np.linalg.svd(M, compute_uv=False)
        det = float(np.linalg.det(M))
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
        determinant=det,
        verdict=verdict,
    )


def pi_bound_precheck(traj):
    """Sufficient-condition bound: 2 sup_t (|T2|^2 + |T3|^2) against pi^2 / L^2.

    Returns (bound_value, certified), certified when bound * L^2 < pi^2 for
    the span L = t_end - t_start: pi^2 / L^2 is the lowest Dirichlet
    eigenvalue of -d^2/dt^2 on the span (Wirtinger).  A certified solution
    is guaranteed outside the degeneracy locus; the criterion is one-sided,
    so an uncertified solution may still be nondegenerate.
    """
    S = traj.samples
    vals = inner(S[:, 2], S[:, 2]) + inner(S[:, 3], S[:, 3])
    bound = 2.0 * float(np.max(vals)) + 0.0  # 0.0, not -0.0, for zero T2 and T3
    span = traj.t_end - traj.t_start  # a product, which overflows to inf where ** raises
    return bound, bool(bound * span * span < math.pi**2)
