import numpy as np
import pytest

from nahmschmid import degeneracy, elliptic, flow, grids, positive, spectral
from nahmschmid.flow import SolverConfig, integrate
from nahmschmid.liealg import random_antihermitian


def test_rk4_is_exact_for_cubic_quadrature():
    # for y' = f(t) RK4 is Simpson's rule on each step, exact for cubics;
    # wrong midpoint or end-node times would break the identity
    t0, h, steps = 0.5, 0.1, 7
    path = grids.rk4(lambda t, y: 3.0 * t * t, 0.0, t0, h, steps)
    t = t0 + h * np.arange(steps + 1)
    assert path.dtype == np.complex128
    assert np.max(np.abs(path - (t**3 - t0**3))) < 1e-13


def test_rk4_writes_into_out():
    # the samples land in the given view, which is returned whole: the
    # traced step count reads len(result) - 1
    f = lambda t, y: t * y
    buf = np.zeros((8, 3), dtype=complex)
    path = grids.rk4(f, [1.0, 2.0], 0.0, 0.1, 7, out=buf[:, 1:])
    assert path.base is buf and len(path) - 1 == 7
    assert np.all(buf[:, 0] == 0.0)
    assert np.array_equal(buf[:, 1:], grids.rk4(f, [1.0, 2.0], 0.0, 0.1, 7))


def _counting(monkeypatch, name, module=grids):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def quad():
    rng = np.random.default_rng(5)
    return np.array([random_antihermitian(3, rng) for _ in range(4)])


def test_flows_do_not_step_through_rk4_sampled(monkeypatch, quad):
    # the two entry points share one loop but neither calls the other, so
    # their step counts can be told apart by wrapping each
    sampled = _counting(monkeypatch, "rk4_sampled")
    timed = _counting(monkeypatch, "rk4")
    integrate(quad, (0.0, 1.0), SolverConfig(steps=20))
    positive.integrate_ab(quad[1], quad[2] + 1j * quad[3], (0.0, 1.0), steps=20)
    assert sampled == [] and timed == ["rk4", "rk4"]


@pytest.mark.parametrize("zero_t0", [True, False])
def test_shooting_does_not_step_through_rk4(monkeypatch, quad, zero_t0):
    # with T0 != 0 the gauge ODE of gauge_fix adds one sampled run
    if zero_t0:
        quad = quad.copy()
        quad[0] = 0.0
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=20))
    timed = _counting(monkeypatch, "rk4")
    sampled = _counting(monkeypatch, "rk4_sampled")
    degeneracy.shooting_matrix(traj)
    assert timed == []
    assert sampled == ["rk4_sampled"] * (1 if zero_t0 else 2)


# Per-call counts that the traced benchmark run cross-checks against each
# job's expected counts: the kernels keep them however they are written.

@pytest.mark.parametrize("zero_t0", [True, False])
def test_integrate_evaluates_the_rhs_four_times_per_step(monkeypatch, quad, zero_t0):
    if zero_t0:
        quad = quad.copy()
        quad[0] = 0.0
    rhs = _counting(monkeypatch, "_rhs_stacked", flow)
    integrate(quad, (0.0, 1.0), SolverConfig(steps=13))
    assert len(rhs) == 4 * 13


def test_curve_path_takes_one_char_poly_per_sample(monkeypatch, quad):
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=9))
    calls = _counting(monkeypatch, "char_poly", spectral)
    assert spectral.curve_path(traj).shape[0] == 10
    assert len(calls) == 10


def test_closed_form_sampling_takes_one_jacobi_per_sample(monkeypatch):
    calls = _counting(monkeypatch, "jacobi", elliptic)
    flow.su2_closed_form_trajectory(1.1, 0.2, 0.7, (0.0, 1.0), 17)
    assert len(calls) == 18
