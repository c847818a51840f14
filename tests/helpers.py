"""Test-only constructors and checks that the package itself does not need.

Random unitaries, a unitarity check, the scaled su(2) basis and the
decoding of a trajectory from the JSON that `serialize.trajectory_to_obj`
writes.
"""

import numpy as np

from nahmschmid.flow import Trajectory
from nahmschmid.liealg import su2_basis
from nahmschmid.serialize import quadruple_from_obj

UNITARY_TOL = 1e-10


def is_unitary(U, tol=UNITARY_TOL):
    U = np.asarray(U, dtype=complex)
    n = U.shape[-1]
    err = U @ U.conj().swapaxes(-1, -2) - np.eye(n)
    return bool(np.max(np.abs(err)) <= tol)


def random_unitary(n, rng):
    """Haar-ish random unitary from the QR decomposition of a Gaussian."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    # fix the phase ambiguity of QR so the draw is well conditioned
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def su2_from_components(f1, f2, f3):
    """Scale the su(2) basis: returns (f1*e1, f2*e2, f3*e3)."""
    e1, e2, e3 = su2_basis()
    return f1 * e1, f2 * e2, f3 * e3


def trajectory_from_obj(obj):
    """Inverse of `serialize.trajectory_to_obj`, on its decoded JSON or on
    the object itself, whose samples are one record array."""
    samples = obj["samples"]
    if isinstance(samples, np.ndarray):
        samples = [{name: s[name] for name in samples.dtype.names} for s in samples]
    samples = np.array([quadruple_from_obj(s)[0] for s in samples])
    return Trajectory(float(obj["t_start"]), float(obj["t_end"]), samples)
