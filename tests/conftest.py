import numpy as np
import pytest

from nahmschmid import flow
from nahmschmid.liealg import ad_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def elliptic_traj():
    """Reference solution (kappa=0.8, a=1, b=0) sampled from the closed form."""
    return flow.su2_closed_form_trajectory(1.0, 0.0, 0.8, (0.0, 1.0), 2000)


@pytest.fixture(scope="session")
def elliptic_traj_b():
    """Solution with a nonzero phase, used where b=0 symmetries would hide bugs."""
    return flow.su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 2000)


@pytest.fixture(scope="session")
def spin_images():
    """Images (rho(e1), rho(e2), rho(e3)) = (iJz, iJy, iJx) of the su(2) basis.

    J are the spin-(n-1)/2 angular momentum matrices in the basis of Jz
    eigenvalues s, s-1, ..., -s, so rho is the irreducible representation
    su(2) -> su(n), a Lie algebra homomorphism; rho at n = 2 is the identity
    on `su2_basis()`.  Returns a function of n giving a (3, n, n) array.
    """
    def images(n):
        s = (n - 1) / 2.0
        m = s - np.arange(n)
        raise_ = np.diag(np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0)), 1)  # J+
        Jx = 0.5 * (raise_ + raise_.T)
        Jy = -0.5j * (raise_ - raise_.T)
        return np.array([1j * np.diag(m), 1j * Jy, 1j * Jx])
    return images


def _dv_reference(taus, basis):
    """Linearization of the reduced flow at a triple, as a dense real 3d x 3d matrix.

    Coordinates are taken in `basis`, an orthonormal basis of shape (d, n, n).
    Blocks follow from differentiating ([x3,x2], [x3,x1], [x1,x2]):

        [   0      ad(t3)  -ad(t2) ]
        [ ad(t3)     0     -ad(t1) ]
        [ -ad(t2)  ad(t1)     0    ]
    """
    ads = ad_matrix(np.array([np.asarray(t, dtype=complex) for t in taus]), basis)
    d = basis.shape[0]
    Z = np.zeros((d, d))
    return np.block(
        [
            [Z, ads[2], -ads[1]],
            [ads[2], Z, -ads[0]],
            [-ads[1], ads[0], Z],
        ]
    )


@pytest.fixture(scope="session")
def dv_reference():
    """The dense DV of :func:`_dv_reference`, the oracle of the stability tests."""
    return _dv_reference
