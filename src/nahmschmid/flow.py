"""Integration and symmetry analysis of the Nahm-Schmid flows.

The full equations for a quadruple (T0, T1, T2, T3) of anti-Hermitian
matrices are

    T1' + [T0, T1] = -[T2, T3],
    T2' + [T0, T2] =  [T3, T1],
    T3' + [T0, T3] =  [T1, T2],

and the reduced equations are the same system with T0 = 0.  This module
integrates both with fixed-step RK4, audits the conserved quantities,
implements the gauge action, gauge fixing and the monodromy map, the
SO(1,2) action, the explicit su(2) solutions in Jacobi elliptic functions,
the complex coordinates alpha = T0 - i T1, beta = T2 + i T3, and the
product splitting A_i = T0 +/- T2, B_i = T1 +/- T3.

A trajectory is stored as samples of shape (steps+1, 4, n, n) on a uniform
grid; quadruples are arrays of shape (4, n, n).
"""

from dataclasses import dataclass

import numpy as np

from . import elliptic, grids
from .liealg import (
    INNER_SCALE,
    bracket,
    exp_unitary,
    inner,
    norm,
    project_antihermitian,
    su2_basis,
)

_REDUCED_SIGNS = np.array([-1.0, 1.0, 1.0]).reshape(3, 1, 1)
# left and right factors of the products _rhs_stacked forms, as rows of
# (T1, T2, T3) and, in the second table, of (T1, T2, T3, T0)
_RHS_ROWS = np.array([[1, 2, 0, 2, 0, 1], [2, 0, 1, 1, 2, 0]])
_RHS_ROWS_T0 = np.concatenate([_RHS_ROWS, [[3, 3, 3, 0, 1, 2], [0, 1, 2, 3, 3, 3]]], axis=1)
_ETA = np.diag([1.0, -1.0, -1.0])
_LOG_BRANCH_TOL = 1e-8  # eigenvalues of gamma this close to -1 have no principal log
_CANONICAL_TOL = 1e-6  # of the Gram-pencil and fixed-axis tests of su2_canonicalize
# the flow is stepped in blocks of at most this many steps per grids.rk4
# call: a block's (steps+1, 3, n, n) complex samples take 3.2 MB at n = 16,
# so a consumer that keeps less than the samples runs in bounded memory
_STEP_BLOCK = 256


class NumericalFailure(RuntimeError):
    """A flow produced non-finite values (should not happen for valid data)."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step parameters shared by all flows: RK4 needs only the step count."""

    steps: int = 2000

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on a uniform grid over [t_start, t_end]."""

    t_start: float
    t_end: float
    samples: np.ndarray  # (steps+1, 4, n, n)

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 4 or s.shape[1] != 4 or s.shape[2] != s.shape[3]:
            raise ValueError(f"samples must have shape (m, 4, n, n), got {s.shape}")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def steps(self):
        return self.samples.shape[0] - 1

    @property
    def n(self):
        return self.samples.shape[-1]

    @property
    def h(self):
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end, self.steps + 1)

    def component(self, i):
        """Path of the i-th component, shape (steps+1, n, n)."""
        return self.samples[:, i]


def rhs_reduced(T1, T2, T3):
    """Right-hand side of the reduced equations: (-[T2,T3], [T3,T1], [T1,T2])."""
    return tuple(_rhs_stacked(np.stack([T1, T2, T3], dtype=complex)))


def rhs_full(T):
    """Right-hand side (T1', T2', T3') of the full equations at a quadruple.

    T0' is not determined by the equations (it is the gauge freedom), so
    only the three constrained derivatives are returned.
    """
    T = np.asarray(T, dtype=complex)
    return tuple(_rhs_stacked(T[1:], T[0]))


def _rhs_stacked(Y, T0=None):
    # Y = (T1, T2, T3) of shape (3, n, n).  One gather and one stacked matmul
    # form P = (T2T3, T3T1, T1T2 | T3T2, T1T3, T2T1), and with T0 also
    # (T0T1, T0T2, T0T3 | T1T0, T2T0, T3T0), in the order `bracket` forms
    # them.  The sign is a real multiply, not a negation: -1.0 * z and -z
    # differ in the sign of zero parts, and the multiply keeps the result
    # bitwise equal to the two-bracket form.
    if T0 is None:
        G = Y[_RHS_ROWS]
        P = G[0] @ G[1]
        return _REDUCED_SIGNS * (P[:3] - P[3:])
    G = np.concatenate((Y, T0[None]))[_RHS_ROWS_T0]
    P = G[0] @ G[1]
    return _REDUCED_SIGNS * (P[:3] - P[3:6]) - (P[6:9] - P[9:])


def integrate(T_init, t_span=(0.0, 1.0), config=None):
    """Integrate the Nahm-Schmid equations from an initial quadruple.

    T0 is held at its initial value; only (T1, T2, T3) are dynamical.
    Global existence makes a fixed-step scheme safe; accuracy is audited
    through :func:`conserved_report`.

    Parameters
    ----------
    T_init : array (4, n, n)
        Initial quadruple of anti-Hermitian matrices.
    t_span : (float, float)
        Integration interval.
    config : SolverConfig, optional

    Returns
    -------
    Trajectory
    """
    cfg = config or SolverConfig()
    T_init = np.asarray(T_init, dtype=complex)
    if T_init.ndim != 3 or T_init.shape[0] != 4:
        raise ValueError("initial data must be a quadruple of shape (4, n, n)")
    t0, t1 = float(t_span[0]), float(t_span[1])

    # each block of (T1, T2, T3) is written straight into the sample array
    samples = np.empty((cfg.steps + 1,) + T_init.shape, dtype=complex)
    samples[:, 0] = T_init[0]
    for _ in _flow_blocks(T_init, t0, (t1 - t0) / cfg.steps, cfg.steps, out=samples[:, 1:]):
        pass
    return Trajectory(t0, t1, samples)


def _flow_blocks(T_init, t0, h, steps, out=None):
    # Steps (T1, T2, T3) from the quadruple T_init by RK4 with step h and
    # yields (lo, Y) per block of at most _STEP_BLOCK steps: Y holds the
    # states at steps lo..hi, so consecutive blocks share a row.  Each block
    # starts from the last state of the previous one, so the states are
    # bitwise those of one rk4 call over all steps.  With `out`, a complex
    # (steps+1, 3, n, n) array or view, Y is the slice out[lo:hi+1].
    T0 = None if np.max(np.abs(T_init[0])) == 0.0 else T_init[0]
    f = lambda t, Y: _rhs_stacked(Y, T0)
    y = T_init[1:]
    for lo in range(0, steps, _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, steps)
        try:
            Y = grids.rk4(f, y, t0 + lo * h, h, hi - lo, project=project_antihermitian,
                          out=None if out is None else out[lo : hi + 1])
        except FloatingPointError as exc:
            # rk4 numbers the steps of its block; report the step of the run
            raise NumericalFailure(f"state became non-finite at step {lo + exc.step}") from exc
        y = Y[-1]
        yield lo, Y


# ---------------------------------------------------------------------------
# conserved quantities

CONSERVED_NAMES = ("n12", "n13", "ip12", "ip13", "ip23", "C")


@dataclass(frozen=True)
class ConservedReport:
    """Initial values and drifts of the conserved quantities.

    n12 = |T1|^2 + |T2|^2, n13 = |T1|^2 + |T3|^2, ip_ij = <Ti, Tj> and
    C = 2|T1|^2 + |T2|^2 + |T3|^2.  Drift is max_t |q(t) - q(0)|; the
    relative drift divides by |q(0)| when that is nonzero.  `as_dict`
    echoes the inner-product scale the values are measured in.
    """

    initial: dict
    drift: dict
    relative_drift: dict

    def as_dict(self):
        return {
            "scale": INNER_SCALE,
            "initial": dict(self.initial),
            "drift": dict(self.drift),
            "relative_drift": dict(self.relative_drift),
        }


def conserved_paths(traj):
    """Time series of the six conserved quantities, shape (steps+1, 6)."""
    S = traj.samples
    ips = {
        (i, j): inner(S[:, i], S[:, j])
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if i <= j
    }
    cols = [
        ips[(1, 1)] + ips[(2, 2)],
        ips[(1, 1)] + ips[(3, 3)],
        ips[(1, 2)],
        ips[(1, 3)],
        ips[(2, 3)],
        2.0 * ips[(1, 1)] + ips[(2, 2)] + ips[(3, 3)],
    ]
    return np.stack(cols, axis=1)


def conserved_report(traj):
    """Drift audit of the quantities conserved by the flow."""
    paths = conserved_paths(traj)
    initial = paths[0]
    drift = np.max(np.abs(paths - initial), axis=0)
    rel = np.where(np.abs(initial) > 0, drift / np.maximum(np.abs(initial), 1e-300), drift)
    return ConservedReport(
        initial=dict(zip(CONSERVED_NAMES, initial.tolist())),
        drift=dict(zip(CONSERVED_NAMES, drift.tolist())),
        relative_drift=dict(zip(CONSERVED_NAMES, rel.tolist())),
    )


def moment_maps(traj):
    """Residual paths (mu_I, mu_S, mu_T) of the equations along a trajectory.

    Each vanishes identically on solutions; finite-difference time
    derivatives make these O(h^4) diagnostics.  Shape (3, steps+1, n, n).
    """
    S, h = traj.samples, traj.h
    dT = grids.derivative(S, h)
    T0, T1, T2, T3 = S[:, 0], S[:, 1], S[:, 2], S[:, 3]
    mu_i = -dT[:, 1] - bracket(T0, T1) - bracket(T2, T3)
    mu_s = dT[:, 2] + bracket(T0, T2) - bracket(T3, T1)
    mu_t = dT[:, 3] + bracket(T0, T3) - bracket(T1, T2)
    return np.stack([mu_i, mu_s, mu_t])


def residual(traj):
    """Sup over the grid of the invariant norms of the moment-map residuals."""
    mm = moment_maps(traj)
    return float(np.max(norm(mm)))


# ---------------------------------------------------------------------------
# gauge action

def gauge_apply(u_path, traj):
    """Act by a gauge path: u.(T0, Ti) = (u T0 u* - u' u*, u Ti u*).

    u' is computed with the 4th-order stencils, so acting on a solution
    yields a solution up to O(h^4).  The grid of `u_path` must match the
    trajectory's.
    """
    u_path = np.asarray(u_path, dtype=complex)
    S = traj.samples
    if u_path.shape != (S.shape[0], traj.n, traj.n):
        raise ValueError("gauge path grid does not match the trajectory")
    uh = u_path.conj().swapaxes(-1, -2)
    udot = grids.derivative(u_path, traj.h)
    out = np.empty_like(S)
    out[:, 0] = project_antihermitian(u_path @ S[:, 0] @ uh - udot @ uh)
    for i in (1, 2, 3):
        out[:, i] = project_antihermitian(u_path @ S[:, i] @ uh)
    return Trajectory(traj.t_start, traj.t_end, out)


def _solve_gauge_ode(coeff_nodes, h):
    """Solve u' = -A u, u(0) = 1, with A sampled on the grid.

    This is the one gauge ODE: for anti-Hermitian A its conjugate transpose
    v = u* solves v' = v A, the right-multiplied form.  The path is
    re-unitarized after every step by the polar projection, so it stays on
    the group instead of drifting off it.
    """
    mids = grids.midpoints(coeff_nodes)
    n = coeff_nodes.shape[-1]
    return grids.rk4_sampled(
        lambda A, u: -(A @ u), coeff_nodes, mids, np.eye(n, dtype=complex), h,
        project=grids.unitarize,
    )


def gauge_fix(traj):
    """Gauge away T0: returns (trajectory with T0 = 0, gauge path u).

    u solves u' = u T0 with u(0) = 1, which transforms T0 to zero exactly;
    the returned trajectory carries a hard zero in that slot and the
    conjugated (T1, T2, T3).  u is the conjugate transpose of the solution
    of u0' = -T0 u0.
    """
    S = traj.samples
    uh = _solve_gauge_ode(S[:, 0], traj.h)
    u_path = uh.conj().swapaxes(-1, -2)
    out = np.empty_like(S)
    out[:, 0] = 0.0
    for i in (1, 2, 3):
        out[:, i] = project_antihermitian(u_path @ S[:, i] @ uh)
    return Trajectory(traj.t_start, traj.t_end, out), u_path


@dataclass(frozen=True)
class MonodromyData:
    """Boundary data (gamma, xi_i) of a solution plus the boundary moment maps.

    gamma = u0(1) for the unique u0 with u0' = -T0 u0, u0(0) = 1; the
    boundary moment maps are the pairs (-T1(0), T1(1)), (T2(0), -T2(1)),
    (T3(0), -T3(1)) for the action of G x G by boundary values.
    """

    gamma: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    boundary_mu_I: tuple
    boundary_mu_S: tuple
    boundary_mu_T: tuple


def monodromy(traj):
    """Monodromy map: a solution to (u0(1), T1(0), T2(0), T3(0))."""
    S = traj.samples
    u_path = _solve_gauge_ode(S[:, 0], traj.h)
    return MonodromyData(
        gamma=u_path[-1],
        xi1=S[0, 1],
        xi2=S[0, 2],
        xi3=S[0, 3],
        boundary_mu_I=(-S[0, 1], S[-1, 1]),
        boundary_mu_S=(S[0, 2], -S[-1, 2]),
        boundary_mu_T=(S[0, 3], -S[-1, 3]),
    )


def principal_log_unitary(gamma):
    """Principal logarithm of a unitary matrix, as an anti-Hermitian matrix.

    Fails for eigenvalues at -1 where the principal branch is undefined.
    """
    import scipy.linalg  # imported here so that importing the package loads no scipy

    gamma = np.asarray(gamma, dtype=complex)
    T, Q = scipy.linalg.schur(gamma, output="complex")
    lam = np.diagonal(T)
    if np.min(np.abs(lam + 1.0)) < _LOG_BRANCH_TOL:
        raise ValueError("gamma has an eigenvalue at -1; principal log undefined")
    log_lam = 1j * np.angle(lam)
    return project_antihermitian((Q * log_lam) @ Q.conj().T)


def from_boundary_data(gamma, xi1, xi2, xi3, config=None):
    """Inverse of the monodromy map.

    Integrates the reduced equations from (xi1, xi2, xi3) and applies the
    smooth gauge path u(t) = exp(t log gamma); any other choice with the
    same endpoints differs by a gauge transformation that fixes both ends,
    so this is a canonical representative.
    """
    cfg = config or SolverConfig()
    xi = np.array([np.zeros_like(np.asarray(xi1)), xi1, xi2, xi3], dtype=complex)
    traj = integrate(xi, (0.0, 1.0), cfg)
    xi_g = principal_log_unitary(gamma)
    u_path = np.array([exp_unitary(t * xi_g) for t in traj.times])
    return gauge_apply(u_path, traj)


# ---------------------------------------------------------------------------
# SO(1,2) action

def check_lorentz(A, tol=1e-10):
    """Validate A^T eta A = eta and det A = 1 for eta = diag(1,-1,-1)."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError("Lorentz element must be a real 3x3 matrix")
    if np.max(np.abs(A.T @ _ETA @ A - _ETA)) > tol:
        raise ValueError("matrix does not preserve the (1,2) form")
    if abs(np.linalg.det(A) - 1.0) > tol:
        raise ValueError("matrix must have determinant 1")
    return A


def lorentz_boost(s, axis=2):
    """Boost of rapidity s mixing the definite direction 1 with axis 2 or 3."""
    if axis not in (2, 3):
        raise ValueError("boost axis must be 2 or 3")
    A = np.eye(3)
    j = axis - 1
    A[0, 0] = A[j, j] = np.cosh(s)
    A[0, j] = A[j, 0] = np.sinh(s)
    return A


def lorentz_rotation(theta):
    """Rotation in the negative-definite (2,3)-plane."""
    A = np.eye(3)
    A[1, 1] = A[2, 2] = np.cos(theta)
    A[1, 2] = -np.sin(theta)
    A[2, 1] = np.sin(theta)
    return A


def lorentz_apply(A, traj):
    """Act on (T1, T2, T3) by A in SO(1,2); T0 is untouched."""
    A = check_lorentz(A)
    S = traj.samples.copy()
    S[:, 1:] = np.einsum("ij,mjab->miab", A, traj.samples[:, 1:])
    return Trajectory(traj.t_start, traj.t_end, S)


def gram_matrix(traj):
    """Gram matrix G_ij = <T_i, T_j> (i,j = 1..3), averaged over the grid.

    On solutions G is constant in t, so averaging only suppresses noise.
    """
    S = traj.samples[:, 1:]
    return inner(S[:, :, None], S[:, None, :]).mean(axis=0)


# ---------------------------------------------------------------------------
# explicit su(2) solutions

def su2_closed_form(a, b, kappa, t):
    """Closed-form su(2) quadruple at time t.

    T0 = 0 and T_j = f_j e_j with f1 = a k sn(at+b), f2 = a k cn(at+b),
    f3 = -a dn(at+b); modulus kappa in [0, 1] (kappa = 1 gives the
    hyperbolic solution).
    """
    sn, cn, dn = elliptic.jacobi(a * t + b, kappa)
    e1, e2, e3 = su2_basis()
    Z = np.zeros((2, 2), dtype=complex)
    return np.array([Z, a * kappa * sn * e1, a * kappa * cn * e2, -a * dn * e3])


def su2_closed_form_trajectory(a, b, kappa, t_span=(0.0, 1.0), steps=2000):
    """Trajectory built by sampling the closed form (an exact solution)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    times = np.linspace(t0, t1, steps + 1)
    # (steps+1, 3) rows (sn, cn, dn); the profiles scale the basis as in
    # su2_closed_form, with the same operations in the same order.  Python
    # floats give the same arguments as numpy scalars, at less cost per call.
    f = np.array([elliptic.jacobi(a * t + b, kappa) for t in times.tolist()])
    e1, e2, e3 = su2_basis()
    samples = np.zeros((steps + 1, 4, 2, 2), dtype=complex)
    samples[:, 1] = (a * kappa * f[:, 0])[:, None, None] * e1
    samples[:, 2] = (a * kappa * f[:, 1])[:, None, None] * e2
    samples[:, 3] = (-a * f[:, 2])[:, None, None] * e3
    return Trajectory(t0, t1, samples)


class NonCanonicalizableError(ValueError):
    """Raised when a trajectory cannot be brought to the su(2) standard form."""


@dataclass(frozen=True)
class Su2CanonicalForm:
    """Result of bringing an su(2) solution to the standard diagonal form."""

    lorentz: np.ndarray          # applied SO(1,2) element
    gauge: np.ndarray            # combined gauge path (T0 fixing + rotation)
    profiles: np.ndarray         # (steps+1, 3), T_j = f_j e_j afterwards
    axes: np.ndarray             # recovered fixed axes before the rotation
    trajectory: "Trajectory"     # the canonical standard-form trajectory
    axis_ratios: np.ndarray      # rank-1 defect per component (diagnostic)


def _su2_rotation_from_frame(X):
    # lift the frame map X -> identity from SO(3) to SU(2); conjugation by
    # exp(theta * (n . e)) rotates the e-basis by theta about n
    from scipy.spatial.transform import Rotation  # here, as in principal_log_unitary

    R = grids.unitarize(X.T.astype(complex)).real
    rotvec = Rotation.from_matrix(R).as_rotvec()
    e = su2_basis()
    return exp_unitary(sum(rotvec[i] * e[i] for i in range(3)))


def su2_canonicalize(traj):
    """Bring an su(2) solution to the form T0 = 0, T_j(t) = f_j(t) e_j.

    Gauges T0 away, Lorentz-rotates until the Gram form <T_i, T_j> is
    diagonal (by solving the symmetric pencil against eta), checks that the
    three components then keep fixed axes in su(2), and rotates those axes
    onto the standard basis with a constant gauge transformation.

    Raises NonCanonicalizableError when the pencil has complex or defective
    eigenvalues, when the signature does not split as (+,-,-), or when the
    component axes are not constant to _CANONICAL_TOL.
    """
    if traj.n != 2:
        raise NonCanonicalizableError("canonical form is defined for su(2) data")
    if np.max(np.abs(np.trace(traj.samples, axis1=-2, axis2=-1))) > 1e-8:
        raise NonCanonicalizableError("input must be traceless (su(2)-valued)")

    fixed, u0 = gauge_fix(traj)
    G = gram_matrix(fixed)
    lam, vecs = np.linalg.eig(_ETA @ G)
    if np.max(np.abs(lam.imag)) > _CANONICAL_TOL * max(1.0, np.max(np.abs(lam))):
        raise NonCanonicalizableError("Gram pencil has complex eigenvalues")
    lam, vecs = lam.real, vecs.real

    sig = np.einsum("ij,jk,ik->k", _ETA, vecs, vecs)
    if np.min(np.abs(sig)) < _CANONICAL_TOL:
        raise NonCanonicalizableError("Gram pencil is defective (null eigenvector)")
    if np.sum(sig > 0) != 1:
        raise NonCanonicalizableError("Gram pencil signature is not (+,-,-)")
    vecs = vecs / np.sqrt(np.abs(sig))

    timelike = int(np.argmax(sig))
    spacelike = [k for k in range(3) if k != timelike]
    spacelike.sort(key=lambda k: -lam[k])  # descending, matches the standard form
    order = [timelike] + spacelike
    B = vecs[:, order]
    A = B.T
    if np.linalg.det(A) < 0:
        A = A.copy()
        A[2] = -A[2]
    A = check_lorentz(A, tol=1e-6)

    rotated = lorentz_apply(A, fixed)

    # per-component axes from the rank-1 structure of the coordinate paths
    e = np.array(su2_basis())
    coords = inner(rotated.samples[:, 1:, None], e[None, None, :])
    axes = np.zeros((3, 3))
    ratios = np.zeros(3)
    scale_ref = float(np.max(np.abs(coords)))
    for i in range(3):
        Mi = coords[:, i, :]
        U, s, Vt = np.linalg.svd(Mi, full_matrices=False)
        if s[0] < _CANONICAL_TOL * scale_ref:
            raise NonCanonicalizableError(f"component {i + 1} vanishes identically")
        ratios[i] = s[1] / s[0]
        if ratios[i] > _CANONICAL_TOL:
            raise NonCanonicalizableError(
                f"component {i + 1} does not keep a fixed axis (ratio {ratios[i]:.2e})"
            )
        x = Vt[0]
        if x[np.argmax(np.abs(x))] < 0:
            x = -x
        axes[:, i] = x
    if np.linalg.det(axes) < 0:
        axes[:, 2] = -axes[:, 2]

    u_rot = _su2_rotation_from_frame(axes)
    m = rotated.samples.shape[0]
    gauge_path = np.broadcast_to(u_rot, (m, 2, 2)) @ u0
    canon_samples = rotated.samples.copy()
    for i in (1, 2, 3):
        canon_samples[:, i] = project_antihermitian(
            u_rot @ rotated.samples[:, i] @ u_rot.conj().T
        )
    canonical = Trajectory(traj.t_start, traj.t_end, canon_samples)
    profiles = np.stack(
        [inner(canon_samples[:, i + 1], e[i]) for i in range(3)], axis=1
    )
    return Su2CanonicalForm(
        lorentz=A,
        gauge=gauge_path,
        profiles=profiles,
        axes=axes,
        trajectory=canonical,
        axis_ratios=ratios,
    )


# ---------------------------------------------------------------------------
# complex coordinates and the complex-gauge identity

def complex_coords(T):
    """Complex coordinates (alpha, beta) = (T0 - i T1, T2 + i T3).

    Accepts a quadruple (4, n, n) or stacked samples (m, 4, n, n).
    """
    T = np.asarray(T, dtype=complex)
    alpha = T[..., 0, :, :] - 1j * T[..., 1, :, :]
    beta = T[..., 2, :, :] + 1j * T[..., 3, :, :]
    return alpha, beta


def quadruple_from_complex(alpha, beta):
    """Inverse of :func:`complex_coords`; the four projections are exact."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    ah = alpha.conj().swapaxes(-1, -2)
    bh = beta.conj().swapaxes(-1, -2)
    T0 = 0.5 * (alpha - ah)
    T1 = 0.5j * (alpha + ah)
    T2 = 0.5 * (beta - bh)
    T3 = -0.5j * (beta + bh)
    return np.stack([T0, T1, T2, T3], axis=-3)


def _real_equation(alpha, beta, h):
    # F(alpha, beta) = alpha' + alpha'* + [alpha, alpha*] - [beta, beta*] on
    # grid paths, alpha' by the 4th-order stencils
    adj = lambda M: M.conj().swapaxes(-1, -2)
    da = grids.derivative(alpha, h)
    return da + adj(da) + bracket(alpha, adj(alpha)) - bracket(beta, adj(beta))


def complex_equation_residuals(traj):
    """Sup norms of the complex equation beta' + [alpha, beta] and the real
    equation alpha' + alpha'* + [alpha, alpha*] - [beta, beta*] on the grid."""
    alpha, beta = complex_coords(traj.samples)
    cx = grids.derivative(beta, traj.h) + bracket(alpha, beta)
    re = _real_equation(alpha, beta, traj.h)
    frob = lambda M: float(np.max(np.sqrt(np.sum(np.abs(M) ** 2, axis=(-2, -1)))))
    return frob(cx), frob(re)


def _exp_hermitian(H):
    w, V = np.linalg.eigh(H)
    return (V * np.exp(w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _real_moment_terms(traj, xi_path):
    """Shared assembly for the complex-gauge identity and the real-equation map.

    Returns (F(alpha,beta), correction) with correction =
    -dbar_alpha(h^{-1} d_alpha h) + dbar_beta(h^{-1} d_beta h) for
    h = exp(2 i xi) = u*u, u = exp(i xi).
    """
    alpha, beta = complex_coords(traj.samples)
    h_grid = traj.h
    ah = alpha.conj().swapaxes(-1, -2)
    bh = beta.conj().swapaxes(-1, -2)
    F = _real_equation(alpha, beta, h_grid)

    hmat = _exp_hermitian(2j * np.asarray(xi_path, dtype=complex))
    dh = grids.derivative(hmat, h_grid)
    d_alpha_h = dh - bracket(ah, hmat)
    g_a = np.linalg.solve(hmat, d_alpha_h)
    term_a = grids.derivative(g_a, h_grid) + bracket(alpha, g_a)
    d_beta_h = -bracket(bh, hmat)
    g_b = np.linalg.solve(hmat, d_beta_h)
    term_b = bracket(beta, g_b)
    return F, -term_a + term_b


def real_equation_map(traj, xi_path):
    """Complex-gauge deformation of the real equation at a solution.

    For u = exp(i xi) pointwise (so h = u*u = exp(2 i xi)) this evaluates

        (F(alpha, beta) - dbar_a(h^-1 d_a h) + dbar_b(h^-1 d_b h)) / 2i,

    whose linearization in xi at a solution is minus the degeneracy
    operator.  Returns a path of shape (steps+1, n, n).
    """
    F, corr = _real_moment_terms(traj, xi_path)
    return (F + corr) / 2j


def complex_gauge_identity_check(traj, xi_path):
    """Max-norm residual of the complex-gauge transformation identity.

    With u = exp(i xi) and h = u*u, the real-equation expression F
    satisfies u^-1 F(u.alpha, u.beta) u = F(alpha, beta)
    - dbar_a(h^-1 d_a h) + dbar_b(h^-1 d_b h); both sides are evaluated
    with the same grid stencils and the sup-norm difference is returned.
    """
    xi_path = np.asarray(xi_path, dtype=complex)
    alpha, beta = complex_coords(traj.samples)
    h_grid = traj.h

    u = _exp_hermitian(1j * xi_path)
    u_inv = np.linalg.inv(u)
    du = grids.derivative(u, h_grid)
    alpha_u = u @ alpha @ u_inv - du @ u_inv
    beta_u = u @ beta @ u_inv
    lhs = u_inv @ _real_equation(alpha_u, beta_u, h_grid) @ u

    F, corr = _real_moment_terms(traj, xi_path)
    rhs = F + corr
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# product splitting

@dataclass(frozen=True)
class ProductSplit:
    """Paracomplex presentation A_i = T0 +/- T2, B_i = T1 +/- T3."""

    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    B2: np.ndarray
    paracomplex_residuals: tuple
    coulomb_residual: float
    monodromy1: np.ndarray
    monodromy2: np.ndarray


def product_split(traj):
    """Split a trajectory into the two flat-connection pairs (A_i, B_i).

    On solutions the paracomplex equations B_i' + [A_i, B_i] = 0 hold along
    with the Coulomb-gauge equation
    A1' - A2' + [(A1+A2)/2, A1-A2] - [B1, B2] = 0; the sup-norm residuals
    of all three are reported together with the two monodromies u_i(1),
    where u_i' = -A_i u_i and u_i(0) = 1.
    """
    S, h = traj.samples, traj.h
    A1 = S[:, 0] + S[:, 2]
    A2 = S[:, 0] - S[:, 2]
    B1 = S[:, 1] + S[:, 3]
    B2 = S[:, 1] - S[:, 3]
    dB1, dB2 = grids.derivative(B1, h), grids.derivative(B2, h)
    dA = grids.derivative(A1 - A2, h)
    sup = lambda M: float(np.max(norm(M)))
    res1 = sup(dB1 + bracket(A1, B1))
    res2 = sup(dB2 + bracket(A2, B2))
    coulomb = sup(dA + bracket(0.5 * (A1 + A2), A1 - A2) - bracket(B1, B2))
    u1 = _solve_gauge_ode(A1, h)
    u2 = _solve_gauge_ode(A2, h)
    return ProductSplit(
        A1=A1,
        B1=B1,
        A2=A2,
        B2=B2,
        paracomplex_residuals=(res1, res2),
        coulomb_residual=coulomb,
        monodromy1=u1[-1],
        monodromy2=u2[-1],
    )
