"""Stability of commuting triples and half-line convergence experiments.

Commuting triples are the critical points of the reduced flow.  A triple
(tau1, tau2, tau3) is stable when the symmetric operator

    (ad tau2)^2 + (ad tau3)^2 - (ad tau1)^2

has no negative eigenvalues; this is exactly the condition that the
linearization DV of the flow at the triple has no non-real eigenvalues,
so trajectories on the stable manifold approach the triple exponentially
instead of oscillating around it.  The ad(tau_i) commute, so on each root
space they act as w_i J with J^2 = -1; there the operator is
sigma = w1^2 - w2^2 - w3^2 and DV has eigenvalues 0, +/- sqrt(sigma).  The
report thus needs one symmetric eigendecomposition and the ad matrices.
"""

from dataclasses import dataclass

import numpy as np

from . import flow
from .liealg import (
    ad_matrix,
    basis_for,
    bracket,
    double_bracket_matrix,
    from_coordinates,
    norm,
)

# of the commutation check and the sign tests on the operator spectrum, for
# a triple whose entries are at most 1 in size; see check_commuting
SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class StabilityReport:
    """Spectral data of a commuting triple, in the orthonormal `basis`.

    operator_spectrum: ascending eigenvalues sigma of the stability operator,
    with orthonormal eigenvectors as the columns of `eigenvectors`.  ads: the
    (3, d, d) matrices of ad(tau1), ad(tau2), ad(tau3).  tol is the
    tolerance of :func:`check_commuting` for this triple, which also decides
    the signs of sigma.  eta is the smallest sqrt(sigma) over sigma > tol
    (the sharp bound on exponential decay rates), zero when there is none.
    """

    operator_spectrum: np.ndarray
    eigenvectors: np.ndarray
    ads: np.ndarray
    basis: np.ndarray
    stable: bool
    eta: float
    tol: float

    @property
    def dv_spectrum(self):
        """DV eigenvalues: d zeros, then +sqrt(sigma), then -sqrt(sigma).

        |sigma| <= tol counts as 0; sigma < 0 gives imaginary roots.
        """
        spec = self.operator_spectrum
        root = np.sqrt(np.where(np.abs(spec) > self.tol, spec, 0.0).astype(complex))
        # + 0.0 turns the -0.0 parts of -root into 0.0
        return np.concatenate([np.zeros_like(root), root, -root]) + 0.0

    def as_dict(self):
        """JSON-ready dict for :func:`serialize.dumps`.

        operator_spectrum stays a float ndarray, which `dumps` writes as its
        nested list would be written, so the dict must be rendered with
        `dumps`, not `json.dumps`.
        """
        return {
            "operator_spectrum": self.operator_spectrum,
            "dv_spectrum": [[float(z.real), float(z.imag)] for z in self.dv_spectrum],
            "stable": self.stable,
            "eta": self.eta,
        }


def check_commuting(tau1, tau2, tau3):
    """The triple as one complex (3, n, n) array and its tolerance; raises
    ValueError when a bracket exceeds that tolerance.

    Brackets and the stability operator are quadratic in the triple, so
    their rounding noise grows as s^2 for s = max(1, largest |entry|), and
    the tolerance is SPECTRUM_TOL * s^2.
    """
    taus = [np.asarray(t, dtype=complex) for t in (tau1, tau2, tau3)]
    s = max(1.0, max(float(np.max(np.abs(t))) for t in taus))
    tol = SPECTRUM_TOL * (s * s)  # a product overflows to inf where ** raises
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, float(np.max(np.abs(bracket(taus[i], taus[j])))))
    if worst > tol:
        raise ValueError(
            f"triple is not commuting (bracket norm {worst:.3e}, tolerance {tol:.1e})"
        )
    return np.array(taus), tol


def stability_spectrum(tau1, tau2, tau3):
    """Stability report of a commuting triple.

    The operator (ad tau2)^2 + (ad tau3)^2 - (ad tau1)^2 is assembled in an
    orthonormal basis (where it is symmetric) with the double-bracket layer
    that also forms the degeneracy shooting operator, and diagonalised.  A
    traceless triple is taken in su(n), any other in u(n).  A triple whose
    products overflow raises FloatingPointError instead of carrying inf and
    nan into the commutation check (where max(0.0, nan) is 0.0) and the
    eigensolver.
    """
    with np.errstate(over="raise", invalid="raise"):
        taus, tol = check_commuting(tau1, tau2, tau3)
        basis = basis_for(taus)
        op = double_bracket_matrix(taus, (-1.0, 1.0, 1.0), basis)
    spec, vecs = np.linalg.eigh(0.5 * (op + op.T))
    pos = spec[spec > tol]
    return StabilityReport(
        operator_spectrum=spec,
        eigenvectors=vecs,
        ads=ad_matrix(taus, basis),
        basis=basis,
        stable=bool(spec[0] >= -tol),
        eta=float(np.sqrt(pos[0])) if pos.size else 0.0,
        tol=tol,
    )


def stable_directions(report):
    """Real orthonormal basis of the decaying invariant subspace of DV.

    DV = [[0, A3, -A2], [A3, 0, -A1], [-A2, A1, 0]] in blocks A_i = ad(tau_i),
    which commute, so det(DV + s) = s (s^2 - op).  For an operator eigenvector
    e with eigenvalue sigma > report.tol and s = sqrt(sigma), the second
    column of adj(DV + s) maps e into the eigenspace of -s:

        x = (-s A3 e - A1 A2 e,  sigma e - A2^2 e,  -s A1 e - A2 A3 e).

    The middle block sigma - A2^2 is positive definite (A2 is skew), so the
    x are independent; their QR factor is returned.  Column 0 is the
    eigenvector for -eta, the slowest decaying mode.
    """
    keep = report.operator_spectrum > report.tol
    sigma = report.operator_spectrum[keep]
    s = np.sqrt(sigma)
    E = report.eigenvectors[:, keep]
    A1, A2, A3 = report.ads
    A1E, A2E, A3E = A1 @ E, A2 @ E, A3 @ E
    X = np.concatenate([-s * A3E - A1 @ A2E, sigma * E - A2 @ A2E, -s * A1E - A2 @ A3E])
    return np.linalg.qr(X)[0]


def triple_from_coordinates(c, basis):
    """Map a 3d coordinate vector to a triple of algebra elements."""
    d = basis.shape[0]
    c = np.asarray(c, dtype=float)
    return tuple(from_coordinates(c[i * d : (i + 1) * d], basis) for i in range(3))


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of a half-line relaxation experiment."""

    fitted_rate: float
    max_fit_residual: float
    converged: bool
    diverged: bool
    times: np.ndarray
    deviation: np.ndarray

    def as_dict(self):
        return {
            "fitted_rate": float(self.fitted_rate),
            "max_fit_residual": float(self.max_fit_residual),
            "converged": bool(self.converged),
            "diverged": bool(self.diverged),
        }


def halfline_convergence(
    tau,
    direction,
    amplitude=1e-4,
    horizon=20.0,
    steps_per_unit=1000,
):
    """Integrate from a perturbed commuting triple and fit the decay rate.

    The perturbation is amplitude * direction with `direction` a unit
    triple (typically from :func:`stable_directions`); the deviation
    |T(t) - tau| is fitted log-linearly over the second half of the
    horizon.  For directions in the stable eigenspace the fitted rate
    reproduces the matching DV eigenvalue magnitude.

    Second-order effects shift the actual limit away from tau by
    O(amplitude^2), so the deviation plateaus near amplitude^2; keep the
    horizon short enough (or the amplitude small enough) that the fitted
    half stays above that floor.  Growth of the deviation is reported as
    divergence, not raised.

    The flow is stepped in blocks and each block is reduced to its slice
    of the deviation before the next is stepped, so memory is O(block n^2)
    for the states plus the deviation path itself, whatever the horizon.
    """
    tau = [np.asarray(t, dtype=complex) for t in tau]
    direction = [np.asarray(v, dtype=complex) for v in direction]
    init = np.array(
        [np.zeros_like(tau[0])] + [tau[i] + amplitude * direction[i] for i in range(3)]
    )
    steps = max(int(round(horizon * steps_per_unit)), 10)
    dev = np.empty(steps + 1)
    for lo, Y in flow._flow_blocks(init, 0.0, horizon / steps, steps):
        dev[lo : lo + len(Y)] = np.sqrt(sum(norm(Y[:, i] - tau[i][None]) ** 2 for i in range(3)))
    t = np.linspace(0.0, horizon, steps + 1)

    if amplitude == 0.0 or float(np.max(dev)) == 0.0:
        return ConvergenceResult(
            fitted_rate=float("nan"),
            max_fit_residual=0.0,
            converged=True,
            diverged=False,
            times=t,
            deviation=dev,
        )

    mask = t >= 0.5 * horizon
    window_dev = np.maximum(dev[mask], 1e-300)
    slope, intercept = np.polyfit(t[mask], np.log(window_dev), 1)
    fit = slope * t[mask] + intercept
    max_fit_res = float(np.max(np.abs(np.log(window_dev) - fit)))

    start = float(dev[0])
    tail = float(np.mean(dev[mask]))
    diverged = tail > 10.0 * start
    converged = tail < 0.5 * start and slope < 0
    return ConvergenceResult(
        fitted_rate=float(-slope),
        max_fit_residual=max_fit_res,
        converged=converged,
        diverged=diverged,
        times=t,
        deviation=dev,
    )
