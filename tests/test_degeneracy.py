import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from nahmschmid import flow, grids
from nahmschmid.degeneracy import (
    algebra_basis,
    degeneracy_report,
    delta_apply,
    pi_bound_precheck,
    shooting_matrix,
)
from nahmschmid.elliptic import complete_K, jacobi
from nahmschmid.flow import (
    SolverConfig,
    Trajectory,
    gauge_apply,
    integrate,
    lorentz_apply,
    lorentz_rotation,
    su2_closed_form_trajectory,
)
from nahmschmid.liealg import bracket, exp_unitary, inner, random_antihermitian, su2_basis

E1, E2, E3 = su2_basis()
KAPPA = 0.9
K9 = complete_K(KAPPA)


def zero_trajectory(m=201, n=2):
    return Trajectory(0.0, 1.0, np.zeros((m, 4, n, n), dtype=complex))


@pytest.fixture(scope="module")
def degenerate_traj():
    # sn vanishes at both ends of [0,1] when a = 2K and b = 0
    return su2_closed_form_trajectory(2 * K9, 0.0, KAPPA, (0.0, 1.0), 2000)


@pytest.fixture(scope="module")
def nondegenerate_traj():
    # argument range [b, a+b] = [0.5, 1.5] inside (0, K(0.9))
    return su2_closed_form_trajectory(1.0, 0.5, KAPPA, (0.0, 1.0), 2000)


def test_delta_apply_second_derivative_only(rng):
    traj = zero_trajectory()
    X = random_antihermitian(2, rng, traceless=True)
    t = traj.times
    xi = (t * (1 - t))[:, None, None] * X
    out = delta_apply(traj, xi)
    assert np.max(np.abs(out - (-2.0 * X))) < 1e-9


def test_delta_apply_linearity(rng, degenerate_traj):
    t = degenerate_traj.times
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    xi = np.sin(np.pi * t)[:, None, None] * X
    eta = (t**2 * (1 - t))[:, None, None] * Y
    lhs = delta_apply(degenerate_traj, 2.0 * xi - 3.0 * eta)
    rhs = 2.0 * delta_apply(degenerate_traj, xi) - 3.0 * delta_apply(degenerate_traj, eta)
    # rounding in the stencils is amplified by 1/h^2; relative to the
    # operator values (~1e2 here) this is still machine-level agreement
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_delta_apply_annihilates_T1_of_degenerate_solution(degenerate_traj):
    xi = degenerate_traj.samples[:, 1]
    assert np.max(np.abs(xi[0])) < 1e-12 and np.max(np.abs(xi[-1])) < 1e-10
    out = delta_apply(degenerate_traj, xi)
    assert np.max(np.abs(out)) < 1e-6


def test_delta_apply_grid_mismatch(degenerate_traj):
    with pytest.raises(ValueError):
        delta_apply(degenerate_traj, np.zeros((7, 2, 2)))


def test_shooting_matrix_zero_trajectory():
    M = shooting_matrix(zero_trajectory())
    assert M.shape == (3, 3)
    assert_allclose(M, np.eye(3), atol=1e-12)
    Mu = shooting_matrix(zero_trajectory(), algebra="un")
    assert Mu.shape == (4, 4)
    assert_allclose(Mu, np.eye(4), atol=1e-12)


def test_shooting_matrix_block_structure(nondegenerate_traj):
    # for standard-form solutions the three su(2) directions decouple
    M = shooting_matrix(nondegenerate_traj)
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) < 1e-10


def test_degenerate_case(degenerate_traj):
    rep = degeneracy_report(degenerate_traj)
    assert rep.verdict == "degenerate"
    assert rep.sigma_min < 1e-4


def test_nondegenerate_case(nondegenerate_traj):
    rep = degeneracy_report(nondegenerate_traj)
    assert rep.verdict == "nondegenerate"
    assert rep.sigma_min > 1e-3 * rep.singular_values[0]


def test_dn_block_never_singular():
    # the dn mode has no zeros, so its shooting block stays away from zero
    for a, b in ((2 * K9, 0.0), (4 * K9, 0.0), (2 * K9, K9), (1.0, 0.5)):
        traj = su2_closed_form_trajectory(a, b, KAPPA, (0.0, 1.0), 1200)
        M = shooting_matrix(traj)
        assert abs(M[2, 2]) > 1e-3


def test_rotated_vanishing_component_is_degenerate():
    # f2 = a k cn(at + b) vanishes at both ends for b = K, a = 2K; any
    # SO(1,2) image of that solution stays in the locus
    base = su2_closed_form_trajectory(2 * K9, K9, KAPPA, (0.0, 1.0), 2000)
    f2_ends = (base.samples[0, 2], base.samples[-1, 2])
    assert max(np.max(np.abs(f2_ends[0])), np.max(np.abs(f2_ends[1]))) < 1e-10
    rep = degeneracy_report(base)
    assert rep.verdict == "degenerate"
    rotated = lorentz_apply(lorentz_rotation(0.9), base)
    rep_rot = degeneracy_report(rotated)
    assert rep_rot.verdict == "degenerate"


def test_zero_solution_nondegenerate():
    rep = degeneracy_report(zero_trajectory())
    assert rep.verdict == "nondegenerate"
    assert rep.determinant == pytest.approx(1.0)


def test_pi_bound_pure_T1():
    samples = np.zeros((101, 4, 2, 2), dtype=complex)
    samples[:, 1] = 5.0 * E1
    bound, certified = pi_bound_precheck(Trajectory(0.0, 1.0, samples))
    assert bound == 0.0 and certified


def test_pi_bound_large_solution(degenerate_traj):
    bound, certified = pi_bound_precheck(degenerate_traj)
    assert bound >= math.pi**2 and not certified


def test_pi_bound_one_sided():
    # uncertified does not mean degenerate: a = 2.2 gives a bound above
    # pi^2 yet the solution is still outside the locus
    traj = su2_closed_form_trajectory(2.2, 0.5, 0.5, (0.0, 1.0), 1000)
    bound, certified = pi_bound_precheck(traj)
    assert not certified
    assert degeneracy_report(traj).verdict == "nondegenerate"


def test_certified_solutions_are_nondegenerate(rng):
    # consistency of the sufficient bound with the shooting verdict
    checked = 0
    while checked < 20:
        xi = [0.35 * random_antihermitian(2, rng) for _ in range(3)]
        init = np.array([np.zeros((2, 2))] + xi, dtype=complex)
        traj = integrate(init, (0.0, 1.0), SolverConfig(steps=600))
        bound, certified = pi_bound_precheck(traj)
        if not certified:
            continue
        checked += 1
        assert degeneracy_report(traj).verdict == "nondegenerate"


def test_gauge_invariance_of_sigma_min(rng, degenerate_traj, nondegenerate_traj):
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    for traj in (degenerate_traj, nondegenerate_traj):
        t = traj.times
        u = np.array(
            [
                exp_unitary(m)
                for m in np.sin(np.pi * t)[:, None, None] * X
                + np.sin(3 * np.pi * t)[:, None, None] * Y
            ]
        )
        gauged = gauge_apply(u, traj)
        rep0 = degeneracy_report(traj)
        rep1 = degeneracy_report(gauged)
        assert rep0.verdict == rep1.verdict
        assert abs(rep0.sigma_min - rep1.sigma_min) < 1e-6


def test_so12_invariance_of_verdict(degenerate_traj, nondegenerate_traj):
    A = flow.lorentz_boost(0.4, axis=3) @ lorentz_rotation(1.1)
    for traj in (degenerate_traj, nondegenerate_traj):
        rep0 = degeneracy_report(traj)
        rep1 = degeneracy_report(lorentz_apply(A, traj))
        assert rep0.verdict == rep1.verdict
        assert abs(rep0.sigma_min - rep1.sigma_min) < 1e-6


def test_linearization_of_real_equation_map(rng, nondegenerate_traj):
    # the complex-gauge deformation of the real equation linearises to
    # minus the degeneracy operator
    traj = nondegenerate_traj
    t = traj.times
    eps = 2e-4
    for _ in range(3):
        X = random_antihermitian(2, rng, traceless=True)
        Y = random_antihermitian(2, rng, traceless=True)
        xi = np.sin(np.pi * t)[:, None, None] * X + np.sin(2 * np.pi * t)[:, None, None] * Y
        plus = flow.real_equation_map(traj, eps * xi)
        minus = flow.real_equation_map(traj, -eps * xi)
        lin = (plus - minus) / (2 * eps)
        target = -delta_apply(traj, xi)
        assert np.max(np.abs(lin - target)) < 1e-4


def bracket_form_shooting(traj, basis):
    """Reference kernel: RK4 on Delta_T xi = 0 with complex double brackets
    applied to all d basis directions at once."""
    S, h = traj.samples, traj.h
    nodes = np.concatenate([S, grids.derivative(S[:, 0], h)[:, None]], axis=1)
    mids = grids.midpoints(nodes)

    def rhs(C, Y):
        acc = -bracket(C[4], Y[0]) - 2.0 * bracket(C[0], Y[1])
        for k, sign in enumerate((-1.0, -1.0, 1.0, 1.0)):
            acc = acc + sign * bracket(C[k], bracket(C[k], Y[0]))
        return np.array([Y[1], acc])

    Y = np.array([np.zeros_like(basis), basis])
    for k in range(len(S) - 1):
        k1 = rhs(nodes[k], Y)
        k2 = rhs(mids[k], Y + 0.5 * h * k1)
        k3 = rhs(mids[k], Y + 0.5 * h * k2)
        k4 = rhs(nodes[k + 1], Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return inner(basis[:, None], Y[0][None, :])


def assert_matches_bracket_form(traj):
    M = shooting_matrix(traj)
    ref = bracket_form_shooting(traj, algebra_basis(traj))
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shooting_matches_bracket_form_on_locus():
    assert_matches_bracket_form(su2_closed_form_trajectory(2 * K9, 0.0, KAPPA, (0.0, 1.0), 400))


def test_shooting_matches_bracket_form_with_T0(rng):
    quad = np.array([np.zeros((3, 3))] + [random_antihermitian(3, rng) for _ in range(3)])
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=300))
    X = random_antihermitian(3, rng)
    Y = random_antihermitian(3, rng)
    t = traj.times
    u = np.array([exp_unitary(s * X) @ exp_unitary(s * s * Y) for s in t])
    gauged = gauge_apply(u, traj)
    T0 = gauged.samples[:, 0]
    assert np.min(np.abs(grids.derivative(T0, traj.h)).max(axis=(1, 2))) > 0.1
    assert_matches_bracket_form(gauged)


def test_rk4_sampled_keeps_real_state_real():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    nodes = np.broadcast_to(A, (101, 2, 2))
    path = grids.rk4_sampled(lambda C, y: C @ y, nodes, nodes[1:], np.eye(2), 0.01)
    assert path.dtype == np.float64
    assert_allclose(path[-1], scipy.linalg.expm(A), atol=1e-10)


def test_gauge_ode_stays_complex(rng):
    quad = np.array([random_antihermitian(2, rng) for _ in range(4)])
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=200))
    fixed, u = flow.gauge_fix(traj)
    assert u.dtype == np.complex128
    assert np.max(np.abs(u[-1].imag)) > 1e-3
