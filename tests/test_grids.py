import numpy as np
import pytest

from nahmschmid import degeneracy, elliptic, flow, grids, positive, spectral
from nahmschmid.flow import SolverConfig, integrate
from nahmschmid.liealg import random_antihermitian, su2_basis

from rk4_reference import (
    ab_rhs_reference, assert_same_bits, flow_reference, gauge_factor_reference,
    rk4_loop_reference, rk4_reference,
)


def _clocked(g):
    # the non-autonomous y' = g(t, y) as the autonomous (t, y)' = (1, g(t, y)),
    # the clock t in row 0 of the state: RK4 evaluates g at the stage times
    # t_k, twice t_k + h/2 and t_k + h
    def f(y, k):
        k[0] = 1.0
        k[1:] = g(y[0].real, y[1:])
    return f


def test_rk4_is_exact_for_cubic_quadrature():
    # for y' = 3 t^2 RK4 is Simpson's rule on each step, exact for cubics;
    # wrong midpoint or end-node stages would break the identity
    t0, h, steps = 0.5, 0.1, 7
    path = grids.rk4(_clocked(lambda t, y: 3.0 * t * t), [t0, 0.0], h, steps)
    t = t0 + h * np.arange(steps + 1)
    assert path.dtype == np.complex128
    assert np.max(np.abs(path[:, 0] - t)) < 1e-13
    assert np.max(np.abs(path[:, 1] - (t**3 - t0**3))) < 1e-13


def test_rk4_writes_into_out():
    # the samples land in the given view, which is returned whole: the
    # traced step count reads len(result) - 1
    f = lambda y, k: np.multiply(0.5j, y, out=k)
    buf = np.zeros((8, 3), dtype=complex)
    path = grids.rk4(f, [1.0, 2.0], 0.1, 7, out=buf[:, 1:])
    assert path.base is buf and len(path) - 1 == 7
    assert np.all(buf[:, 0] == 0.0)
    assert np.array_equal(buf[:, 1:], grids.rk4(f, [1.0, 2.0], 0.1, 7))


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
    # the gauge ODE that gauge_fix solves for T0 != 0 takes Magnus steps, not RK4
    if zero_t0:
        quad = quad.copy()
        quad[0] = 0.0
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=20))
    timed = _counting(monkeypatch, "rk4")
    sampled = _counting(monkeypatch, "rk4_sampled")
    degeneracy.shooting_matrix(traj)
    assert timed == []
    assert sampled == ["rk4_sampled"]


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


# ---------------------------------------------------------------------------
# the buffered loop against the functional one, bit for bit

def _flow_reference(q, h, steps):
    # the functional loop on the reduced equations, then the gauge factor
    # of a nonzero T0: the steps integrate takes, as one array
    Y = flow_reference(q[1:], h, steps)
    return gauge_factor_reference(q[0], Y, h) if np.any(q[0]) else Y


@pytest.mark.parametrize("with_t0", [False, True])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_flow_steps_bitwise_equal_the_functional_loop(n, with_t0):
    rng = np.random.default_rng([23, n, with_t0])
    q = np.array([random_antihermitian(n, rng) / n for _ in range(4)])
    if not with_t0:
        q[0] = 0.0
    traj = integrate(q, (0.25, 1.25), SolverConfig(steps=40))
    assert_same_bits(traj.samples[:, 1:], _flow_reference(q, 1.0 / 40, 40))


@pytest.mark.parametrize("with_t0", [False, True])
def test_su2_flow_steps_bitwise_equal_the_functional_loop(with_t0):
    # su(2) closed-form data has exact zeros, where the sign of zero shows
    q = flow.su2_closed_form(1.2, 0.3, 0.8, 0.0)
    if with_t0:
        q[0] = 0.4 * su2_basis()[2]
    traj = integrate(q, (0.0, 1.0), SolverConfig(steps=100))
    assert_same_bits(traj.samples[:, 1:], _flow_reference(q, 0.01, 100))


@pytest.mark.parametrize("h", [1e100, 1e300])
def test_rk4_sampled_keeps_a_zero_coefficient_zero_at_a_huge_step(h):
    # h^2 C is formed as (h C) h, so C = 0 stays 0 where h^2 and h^4
    # overflow: x'' = 0 from (x, v) = (0, 1) gives x_k = k h exactly
    C = np.zeros((4, 1, 1))
    path = grids.rk4_sampled(C, C[1:], np.array([[[0.0]], [[1.0]]]), h)
    assert np.array_equal(path[:, 0, 0, 0], h * np.arange(4))
    assert np.array_equal(path[:, 1, 0, 0], np.ones(4))


@pytest.mark.parametrize("d", [1, 3, 15, 63, 255])
def test_second_order_layout_agrees_with_the_functional_loop_to_rounding(d):
    # the shooting's xi'' = C xi from (0, identity): rk4_sampled takes one
    # propagator per step, whose blocks sum the four stages in another
    # order than the staged reference, so the two agree to rounding.  d = 1
    # is u(1), whose 1 x 1 products numpy takes as scalars, and d = 255 is
    # su(16), the largest algebra shot
    rng = np.random.default_rng([29, d])
    steps = 30
    C = rng.standard_normal((2 * steps + 1, d, d)) / d
    Y0 = np.stack([np.zeros((d, d)), np.eye(d)])
    got = grids.rk4_sampled(C[: steps + 1], C[steps + 1 :], Y0, 1.0 / steps)
    ref = rk4_loop_reference(lambda C, Y: np.array([Y[1], C @ Y[0]]), C[: steps + 1],
                             C[steps + 1 :], Y0, 1.0 / steps)
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _unitarize_cases():
    rng = np.random.default_rng(37)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    # 1 - 0.01 T along su(2) closed-form data: exact zeros off the diagonal
    # of the e1 part
    T = flow.su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 4).samples[:, 1]
    su2 = np.eye(2) - 0.01 * T
    big = rng.standard_normal((8, 3, 6)) + 1j * rng.standard_normal((8, 3, 6))
    return {"stack": stack, "su2_zeros": su2, "strided": big[::2, ::-1, ::2]}


@pytest.mark.parametrize("case", ["stack", "su2_zeros", "strided"])
def test_unitarize_out_bitwise_equals_the_former_form(case):
    U = _unitarize_cases()[case]
    W, _, Vh = np.linalg.svd(U)
    ref = W @ Vh  # the former body
    before = U.copy()
    got = grids.unitarize(U)
    assert got is not U and np.array_equal(U, before)
    assert_same_bits(got, ref)


def test_ab_flow_bitwise_equals_the_functional_loop(quad):
    A0, B0 = quad[1], quad[2] + 1j * quad[3]
    A, B = positive.integrate_ab(A0, B0, (0.0, 1.0), steps=50)
    ref = rk4_reference(lambda Y: ab_rhs_reference(Y[0], Y[1]), np.stack([A0, B0]), 1.0 / 50, 50)
    assert_same_bits(np.stack([A, B], axis=1), ref)


def test_zero_dim_state_bitwise_equals_the_functional_loop():
    # y' = (i - y) y
    got = grids.rk4(lambda y, k: np.multiply(1j - y, y, out=k), 1.0 - 0.5j, 0.1, 9)
    ref = rk4_reference(lambda y: (1j - y) * y, 1.0 - 0.5j, 0.1, 9)
    assert got.shape == (10,)
    assert_same_bits(got, ref)


def test_rk4_into_a_strided_view_bitwise_equals_the_functional_loop(quad):
    # every other row of a larger buffer: the states land in place and the
    # rows between stay untouched
    buf = np.zeros((2 * 21, 3, 3, 3), dtype=complex)
    got = grids.rk4(lambda Y, k: flow._rhs_stacked(Y, out=k), quad[1:], 0.05, 20, out=buf[::2])
    ref = rk4_reference(flow._rhs_stacked, quad[1:], 0.05, 20)
    assert got.base is buf
    assert_same_bits(buf[::2], ref)
    assert np.all(buf[1::2] == 0.0)


# ---------------------------------------------------------------------------
# the first non-finite state names its step, wherever it falls in a call

def _blowup(t, y, t_from):
    # y' = y, infinite from the first stage evaluated after t_from on
    return (np.inf if t > t_from else 1.0) * y


def _assert_names_step(exc, j):
    assert exc.value.step == j
    assert str(exc.value) == f"state became non-finite at step {j}"


@pytest.mark.parametrize("steps, j", [(9, 1), (9, 5), (9, 9), (1, 1)])
def test_rk4_names_the_first_non_finite_step(steps, j):
    # the first stage past node j - 1 is the midpoint of step j; the clock
    # rides in the state, whose four other rows blow up
    t0, h = 0.5, 0.1
    g = lambda t, y: _blowup(t, y, t0 + (j - 0.75) * h)
    y0 = np.array([t0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(FloatingPointError) as exc:
        grids.rk4(_clocked(g), y0, h, steps)
    _assert_names_step(exc, j)
    functional = lambda y: np.concatenate([[1.0], g(y[0].real, y[1:])])
    with pytest.raises(FloatingPointError) as ref:
        rk4_reference(functional, y0, h, steps)
    assert ref.value.step == j


@pytest.mark.parametrize("steps, j", [(9, 1), (9, 5), (9, 9), (1, 1)])
def test_rk4_sampled_names_the_first_non_finite_step(steps, j):
    # an infinite coefficient at the midpoint of step j, and nowhere before
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    nodes = np.array(np.broadcast_to(A, (steps + 1, 2, 2)))
    mids = nodes[1:].copy()
    mids[j - 1] = np.inf
    y0 = np.stack([np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(FloatingPointError) as exc:
        grids.rk4_sampled(nodes, mids, y0, 0.1)
    _assert_names_step(exc, j)


@pytest.mark.parametrize("block", [1, 4, 9, 10, 256])
def test_integrate_names_the_first_non_finite_step_in_any_block(block, monkeypatch):
    # this su(2) data overflows at step 10 of 100: a one-step block, the
    # second step of a block of 4, the first of a block of 9, the last of a
    # block of 10 and a middle step of one block of 256
    e1, e2, e3 = su2_basis()
    init = np.array([np.zeros((2, 2)), 200.0 * e1, 100.0 * e2, 60.0 * e3])
    monkeypatch.setattr(flow, "_STEP_BLOCK", block)
    with pytest.raises(flow.NumericalFailure) as exc:
        integrate(init, (0.0, 1.0), SolverConfig(steps=100))
    assert str(exc.value) == "state became non-finite at step 10"


# ---------------------------------------------------------------------------
# a bad grid is refused before any stepping or sampling

def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before the grid was checked")


BAD_GRIDS = [
    ((0.0, 1.0), 0, "steps must be >= 1"),
    ((0.0, 1.0), -1, "steps must be >= 1"),
    ((1.0, 1.0), 20, "t_end must exceed t_start"),
    ((1.0, 0.0), 20, "t_end must exceed t_start"),
    ((0.0, np.nan), 20, "t_start and t_end must be finite"),
    ((np.nan, 1.0), 20, "t_start and t_end must be finite"),
    ((0.0, np.inf), 20, "t_start and t_end must be finite"),
    ((-np.inf, 0.0), 20, "t_start and t_end must be finite"),
    # the step rounds to 0, or the span overflows
    ((0.0, 5e-324), 64, "it must be positive and finite"),
    ((-1e308, 1e308), 20, "it must be positive and finite"),
]


@pytest.mark.parametrize("t_span, steps, message", BAD_GRIDS)
@pytest.mark.parametrize("integrator", ["integrate", "closed_form", "integrate_ab"])
def test_integrators_refuse_a_bad_grid_before_any_work(integrator, t_span, steps, message,
                                                       monkeypatch, quad):
    # grids.check_grid raises before any RK4 step or Jacobi sample: the
    # patched rk4 and jacobi would fail the test with an AssertionError
    run = {
        "integrate": lambda: integrate(quad, t_span, SolverConfig(steps=steps)),
        "closed_form": lambda: flow.su2_closed_form_trajectory(1.1, 0.2, 0.7, t_span, steps),
        "integrate_ab": lambda: positive.integrate_ab(quad[1], quad[2] + 1j * quad[3], t_span,
                                                      steps=steps),
    }[integrator]
    monkeypatch.setattr(grids, "rk4", _must_not_run)
    monkeypatch.setattr(elliptic, "jacobi", _must_not_run)
    with pytest.raises(ValueError, match=message):
        run()


@pytest.mark.parametrize("t_end", [np.nan, np.inf])
def test_trajectory_refuses_a_non_finite_end(t_end):
    samples = np.zeros((3, 4, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="t_start and t_end must be finite"):
        flow.Trajectory(0.0, t_end, samples)
    # one sample, the initial quadruple alone, is a trajectory
    assert flow.Trajectory(0.0, 1.0, samples[:1]).steps == 0
