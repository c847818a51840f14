"""Stability of commuting triples and half-line convergence experiments.

Commuting triples are the critical points of the reduced flow.  A triple
(tau1, tau2, tau3) is stable when the symmetric operator

    (ad tau2)^2 + (ad tau3)^2 - (ad tau1)^2

has no negative eigenvalues; this is exactly the condition that the
linearization DV of the flow at the triple has no non-real eigenvalues,
so trajectories on the stable manifold approach the triple exponentially
instead of oscillating around it.  The decay rate is governed by the
positive DV eigenvalues (they come in +/- pairs).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import flow
from .liealg import (
    ad_matrix,
    basis_for,
    bracket,
    double_bracket_matrix,
    from_coordinates,
    norm,
)

SPECTRUM_TOL = 1e-10  # of the commutation check and the sign tests on both spectra


@dataclass(frozen=True)
class StabilityReport:
    """Spectra attached to a commuting triple.

    operator_spectrum: sorted eigenvalues of the stability operator on the
    algebra.  dv_spectrum: eigenvalues of the flow linearization on three
    copies of the algebra.  eta is the smallest positive real part among
    the DV eigenvalues (the sharp bound on exponential decay rates), zero
    when no eigenvalue has positive real part.
    """

    operator_spectrum: np.ndarray
    dv_spectrum: np.ndarray
    dv_matrix: np.ndarray
    basis: np.ndarray
    stable: bool
    eta: float

    def as_dict(self):
        return {
            "operator_spectrum": self.operator_spectrum.tolist(),
            "dv_spectrum": [[float(z.real), float(z.imag)] for z in self.dv_spectrum],
            "stable": self.stable,
            "eta": self.eta,
        }


def check_commuting(tau1, tau2, tau3):
    taus = [np.asarray(t, dtype=complex) for t in (tau1, tau2, tau3)]
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            worst = max(worst, float(np.max(np.abs(bracket(taus[i], taus[j])))))
    if worst > SPECTRUM_TOL:
        raise ValueError(f"triple is not commuting (bracket norm {worst:.3e})")
    return taus


def dv_matrix(tau1, tau2, tau3, basis):
    """Linearization of the reduced flow at a triple, as a real 3d x 3d matrix.

    Coordinates are taken in `basis`, an orthonormal basis of shape (d, n, n).

    Blocks follow from differentiating ([x3,x2], [x3,x1], [x1,x2]):

        [   0      ad(t3)  -ad(t2) ]
        [ ad(t3)     0     -ad(t1) ]
        [ -ad(t2)  ad(t1)     0    ]
    """
    taus = [np.asarray(t, dtype=complex) for t in (tau1, tau2, tau3)]
    ads = ad_matrix(np.array(taus), basis)
    d = basis.shape[0]
    Z = np.zeros((d, d))
    return np.block(
        [
            [Z, ads[2], -ads[1]],
            [ads[2], Z, -ads[0]],
            [-ads[1], ads[0], Z],
        ]
    )


def stability_spectrum(tau1, tau2, tau3):
    """Stability report of a commuting triple.

    The operator (ad tau2)^2 + (ad tau3)^2 - (ad tau1)^2 is assembled in an
    orthonormal basis (where it is symmetric) with the double-bracket layer
    that also forms the degeneracy shooting operator, and diagonalised; the DV
    spectrum comes from the explicit block Jacobian.  A traceless triple is
    taken in su(n), any other in u(n).
    """
    taus = check_commuting(tau1, tau2, tau3)
    basis = basis_for(np.array(taus))
    DV = dv_matrix(*taus, basis)
    op = double_bracket_matrix(np.array(taus), (-1.0, 1.0, 1.0), basis)
    spec = np.linalg.eigvalsh(0.5 * (op + op.T))
    dv_spec = np.linalg.eigvals(DV)
    pos = dv_spec.real[dv_spec.real > SPECTRUM_TOL]
    eta = float(np.min(pos)) if pos.size else 0.0
    return StabilityReport(
        operator_spectrum=spec,
        dv_spectrum=dv_spec,
        dv_matrix=DV,
        basis=basis,
        stable=bool(spec[0] >= -SPECTRUM_TOL),
        eta=eta,
    )


def stable_directions(report):
    """Real orthonormal basis of the decaying invariant subspace of DV.

    Columns span the sum of eigenspaces with eigenvalue real part
    < -SPECTRUM_TOL, obtained from the sorted real Schur form.
    """
    DV = report.dv_matrix
    _, Z, k = scipy.linalg.schur(DV, output="real", sort=lambda re, im: re < -SPECTRUM_TOL)
    return Z[:, :k]


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
    """
    tau = [np.asarray(t, dtype=complex) for t in tau]
    direction = [np.asarray(v, dtype=complex) for v in direction]
    init = np.array(
        [np.zeros_like(tau[0])] + [tau[i] + amplitude * direction[i] for i in range(3)]
    )
    steps = max(int(round(horizon * steps_per_unit)), 10)
    traj = flow.integrate(init, (0.0, horizon), flow.SolverConfig(steps=steps))
    dev = np.sqrt(
        sum(norm(traj.samples[:, i + 1] - tau[i][None]) ** 2 for i in range(3))
    )
    t = traj.times

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
