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
