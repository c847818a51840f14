import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.special import ellipeinc, ellipj, ellipk

from nahmschmid import degeneracy, flow, grids
from nahmschmid.degeneracy import (
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
from nahmschmid.liealg import (
    AdjointBasis,
    basis_for,
    bracket,
    double_bracket_matrix,
    exp_unitary,
    inner,
    orthonormal_basis,
    random_antihermitian,
    su2_basis,
)


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
    # a central T1 = i c I has ad(T1) = 0 but a trace, so it is shot in u(2)
    central = zero_trajectory()
    central.samples[:, 1] = 0.7j * np.eye(2)
    Mu = shooting_matrix(central)
    assert Mu.shape == (4, 4)
    assert_allclose(Mu, np.eye(4), atol=1e-12)


def _shooting_reference(traj):
    # the whole-stack form of shooting_matrix: M at every node and midpoint
    # in one (2m - 1, d, d) array, formed in one call (as the streamed form
    # does when the grid fits one block), and the whole (m, 2, d, d) path
    # of the fundamental matrix in one rk4_sampled call; the bitwise
    # reference for streaming
    basis = AdjointBasis(basis_for(traj.samples))
    if np.max(np.abs(traj.samples[:, 0])) > 0:
        traj = flow.gauge_fix(traj)[0]
    d = basis.elements.shape[0]
    nodes = traj.samples[:, 1:]
    m = nodes.shape[0]
    C = np.concatenate([nodes, grids.midpoints(nodes)])
    coeff = double_bracket_matrix(C, (-1.0, 1.0, 1.0), basis)
    Y0 = np.stack([np.zeros((d, d)), np.eye(d)])
    return grids.rk4_sampled(coeff[:m], coeff[m:], Y0, traj.h)[-1, 0]


def _force_block_steps(monkeypatch, traj, steps):
    # the block size that makes shooting_matrix step `steps` at a time
    d, n = basis_for(traj.samples).shape[0], traj.n
    monkeypatch.setattr(degeneracy, "_FORM_BLOCK_ENTRIES", (2 * steps + 1) * d * n * n)


def _random_solution(n, traceless, with_t0, steps, seed=0):
    rng = np.random.default_rng([seed, n, traceless, with_t0])
    quad = np.array([random_antihermitian(n, rng, traceless=traceless) / n for _ in range(4)])
    if not with_t0:
        quad[0] = 0.0
    return integrate(quad, (0.0, 1.0), SolverConfig(steps=steps))


@pytest.mark.parametrize("block_steps", [1, 2, 3, 7])
@pytest.mark.parametrize("with_t0", [False, True])
@pytest.mark.parametrize("traceless", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_streamed_shooting_bitwise_equals_whole_stack(monkeypatch, n, traceless, with_t0,
                                                      block_steps):
    # 100 steps in blocks of 1, 2, 3 or 7; blocks of 3 or 7 end on a short
    # block of 1 or 2 steps.  A time's M does not depend on how many times
    # share its forming call, so every block size gives the bits of the
    # whole stack.  Default blocks are 3 steps at n = 16 and longer for
    # smaller n.
    traj = _random_solution(n, traceless, with_t0, 100)
    ref = _shooting_reference(traj)
    _force_block_steps(monkeypatch, traj, block_steps)
    M = shooting_matrix(traj)
    assert M.dtype == ref.dtype == np.float64 and M.shape == ref.shape
    assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(np.signbit(M), np.signbit(ref))


def test_shooting_forms_each_node_once(monkeypatch):
    # blocks share their boundary node: its M is carried, not formed again,
    # so the forming calls see every node and midpoint exactly once
    traj = _random_solution(3, True, False, 50)
    _force_block_steps(monkeypatch, traj, 7)
    formed = []

    def counting(T, signs, basis):
        formed.append(len(T))
        return double_bracket_matrix(T, signs, basis)

    monkeypatch.setattr(degeneracy, "double_bracket_matrix", counting)
    shooting_matrix(traj)
    assert len(formed) == 8 and sum(formed) == 2 * 50 + 1


def test_streamed_shooting_failure_names_the_grid_step(monkeypatch):
    # T1 = 400 X, T0 = T2 = T3 = 0 is a constant solution whose shooting
    # overflows at step 429 of a grid with h = 1/2000: in blocks of 7 steps
    # that is step 2 of the 62nd block, and the error names the former
    X = random_antihermitian(8, np.random.default_rng(1), traceless=True)
    S = np.zeros((441, 4, 8, 8), dtype=complex)
    S[:, 1] = 400.0 * X
    traj = Trajectory(0.0, 440 / 2000, S)
    messages = []
    for entries in (degeneracy._FORM_BLOCK_ENTRIES, 1 << 40):
        monkeypatch.setattr(degeneracy, "_FORM_BLOCK_ENTRIES", entries)
        with pytest.raises(flow.NumericalFailure) as exc:
            shooting_matrix(traj)
        messages.append(str(exc.value))
    assert messages == ["state became non-finite at step 429"] * 2


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shooting_memory_does_not_grow_with_steps(monkeypatch):
    # blocks of 20 steps at u(4): the whole-stack form peaks at 1.8 MB for
    # 200 steps and 16.4 MB for 2,000; the streamed form at 0.94 MB for both
    short = _random_solution(4, False, False, 200)
    long = _random_solution(4, False, False, 2000)
    _force_block_steps(monkeypatch, short, 20)
    peak_short = _traced_peak(lambda: shooting_matrix(short))
    peak_long = _traced_peak(lambda: shooting_matrix(long))
    assert peak_long <= 1.1 * peak_short


def test_shooting_memory_at_the_default_block_budget():
    # u(8) over 200 steps: three live forming intermediates of 2^16 entries
    # (blocks of 7 steps) peak near 4.4 MB; six of 2^19 entries would reach
    # 44 MB
    traj = _random_solution(8, False, False, 200)
    assert _traced_peak(lambda: shooting_matrix(traj)) < 8e6


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
    # inner(0, 0) is -0.0; the bound is 0.0, not -0.0
    assert math.copysign(1.0, bound) == 1.0


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
    ref = bracket_form_shooting(traj, basis_for(traj.samples))
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shooting_matches_bracket_form_on_locus():
    assert_matches_bracket_form(su2_closed_form_trajectory(2 * K9, 0.0, KAPPA, (0.0, 1.0), 400))


def _gauged_u3_solution(rng):
    """A u(3) solution moved by a gauge path, so that T0 and T0' are nonzero.

    Returns a function of the step count: the same continuous solution
    sampled on grids of different resolution.
    """
    quad = np.array([np.zeros((3, 3))] + [random_antihermitian(3, rng) for _ in range(3)])
    X = random_antihermitian(3, rng)
    Y = random_antihermitian(3, rng)

    def sample(steps):
        traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=steps))
        u = np.array([exp_unitary(s * X) @ exp_unitary(s * s * Y) for s in traj.times])
        return gauge_apply(u, traj)

    return sample


def test_shooting_with_T0_matches_bracket_form_in_the_fixed_gauge(rng):
    gauged = _gauged_u3_solution(rng)(300)
    T0 = gauged.samples[:, 0]
    assert np.min(np.abs(grids.derivative(T0, gauged.h)).max(axis=(1, 2))) > 0.1
    M = shooting_matrix(gauged)
    fixed, _ = flow.gauge_fix(gauged)
    ref = bracket_form_shooting(fixed, basis_for(gauged.samples))
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shooting_basis_is_chosen_before_gauge_fixing(nondegenerate_traj):
    # the central gauge u = exp(i c t) puts a trace into T0 alone; gauge
    # fixing removes it again, but the matrix stays in u(2), whose central
    # direction has ad = 0 and adds the singular value 1
    u = np.exp(0.8j * nondegenerate_traj.times)[:, None, None] * np.eye(2)
    M = shooting_matrix(gauge_apply(u, nondegenerate_traj))
    assert M.shape == (4, 4)
    sigma = np.linalg.svd(shooting_matrix(nondegenerate_traj), compute_uv=False)
    expected = np.sort(np.append(sigma, 1.0))[::-1]
    assert_allclose(np.linalg.svd(M, compute_uv=False), expected, atol=1e-12)


def _ad_group(u, basis):
    """Matrix of Ad(u) = u . u* in an orthonormal basis."""
    return inner(basis[:, None], (u @ basis @ u.conj().T)[None, :])


def test_gauge_fixed_shooting_converges_to_the_T0_form(rng):
    # the bracket form with the T0 terms of Delta_T stays the oracle: mapped
    # back by Ad(u(1))^T, the gauge-fixed matrix converges to it at 4th order
    sample = _gauged_u3_solution(rng)
    err, shot, direct = {}, {}, {}
    for steps in (300, 1200):
        traj = sample(steps)
        basis = basis_for(traj.samples)
        _, u = flow.gauge_fix(traj)
        shot[steps] = shooting_matrix(traj)
        direct[steps] = bracket_form_shooting(traj, basis)
        err[steps] = np.max(np.abs(_ad_group(u[-1], basis).T @ shot[steps] - direct[steps]))
    assert err[300] < 1e-7
    assert 4.0**3.5 < err[300] / err[1200] < 4.0**4.5
    # singular values against an 8x finer reference with the T0 terms: no
    # worse than shooting the T0 form directly on the coarse grid
    fine_traj = sample(2400)
    fine = bracket_form_shooting(fine_traj, basis_for(fine_traj.samples))
    sigma = lambda M: np.linalg.svd(M, compute_uv=False)
    err_fixed = np.max(np.abs(sigma(shot[300]) - sigma(fine)))
    err_direct = np.max(np.abs(sigma(direct[300]) - sigma(fine)))
    assert err_fixed <= 2.0 * err_direct


@pytest.mark.parametrize("n", [4, 8])
def test_constant_t0_shoots_with_the_singular_values_of_the_reduced_flow(n):
    # integrate applies a constant T0 as its exact gauge factor, and the
    # singular values are gauge-invariant: gauge fixing must add no error
    # of its own to the shooting of the reduced flow
    rng = np.random.default_rng([11, n])
    q = np.array([1.5 * random_antihermitian(n, rng)]
                 + [0.5 / np.sqrt(n) * random_antihermitian(n, rng) for _ in range(3)])
    cfg = SolverConfig(steps=200)
    sigma = degeneracy_report(integrate(q, (0.0, 1.0), cfg)).singular_values
    q[0] = 0.0
    ref = degeneracy_report(integrate(q, (0.0, 1.0), cfg)).singular_values
    assert np.max(np.abs(sigma - ref)) <= 1e-12 * ref[0]


def lame_reference(a, b, kappa):
    """y_j(1) of y_j'' = q_j y_j, y_j(0) = 0, y_j'(0) = 1, from scipy alone.

    For T_j = f_j e_j with (f1, f2, f3) = (a k sn, a k cn, -a dn)(a t + b)
    the adjoint directions decouple: q1 = -(f2^2 + f3^2), q2 = f1^2 - f3^2,
    q3 = f1^2 - f2^2.
    """

    def rhs(t, y):
        sn, cn, dn, _ = ellipj(a * t + b, kappa * kappa)
        f1, f2, f3 = a * kappa * sn, a * kappa * cn, -a * dn
        q = np.array([-(f2**2 + f3**2), f1**2 - f3**2, f1**2 - f2**2])
        return np.concatenate([y[3:], q * y[:3]])

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                    method="DOP853", rtol=1e-13, atol=1e-15)
    return sol.y[:3, -1]


def lame_closed_form(a, b, kappa):
    """y_j(1) of lame_reference's problem in closed form, from scipy alone.

    Each y_j solves Lame's equation y'' = a^2 (2 kappa^2 sn^2(at + b) - h) y,
    which has the exact solution u_j(at + b) for u = (sn, cn, dn).  Reduction
    of order gives y_j(1) = u_j(b) u_j(a+b) (F_j(a+b) - F_j(b)) / a with F_j
    an antiderivative of 1/u_j^2 (Byrd & Friedman 310-320, DLMF 22.16):
    F_1 = u - E - cn dn/sn, F_2 = (kappa'^2 u - E + sn dn/cn)/kappa'^2 and
    F_3 = (E - kappa^2 sn cn/dn)/kappa'^2, where E(u) = ellipeinc(am(u),
    kappa^2) is Jacobi's epsilon function.  u_j F_j is analytic through the
    zeros of u_j, so the formula holds when u_j vanishes inside (b, a + b).
    Where u_j(b) = 0 (to rounding, as ellipj gives sn(2K) and cn(K)) it
    reads 0 * inf, and u_j itself is the Dirichlet solution:
    y_j(1) = u_j(a+b) / (a u_j'(b)).
    """
    m = kappa * kappa
    kp2 = (1.0 - kappa) * (1.0 + kappa)

    def at(s):
        sn, cn, dn, am = ellipj(s, m)
        E = ellipeinc(am, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.array([s - E - cn * dn / sn, (kp2 * s - E + sn * dn / cn) / kp2,
                          (E - m * sn * cn / dn) / kp2])
        return np.array([sn, cn, dn]), np.array([cn * dn, -sn * dn, -m * sn * cn]), F

    (ub, dub, Fb), (ue, _, Fe) = at(b), at(a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(ub) < 1e-15, ue / (a * dub), ub * ue * (Fe - Fb) / a)


def _lame_cases():
    # kappa -> 1 with a >= 2K is left out: 2000 steps under-resolve it.  b = 0
    # and b = K put b at a zero of sn and of cn, and so do the first three
    # extra cases with a != 2K; in the last three cn, or sn and cn, vanish
    # inside (b, a + b)
    cases = []
    for kappa in (0.0, 0.5, 0.9, 1.0 - 1e-6):
        K = ellipk(kappa * kappa)
        ab = [(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]
        if kappa <= 0.9:
            ab += [(2 * K, 0.0), (2 * K, K), (4 * K + 0.05, 0.1)]
        cases += [(kappa, a, b) for a, b in ab]
    K9, K5 = ellipk(0.81), ellipk(0.25)
    return cases + [(0.9, 2.0, 2 * K9), (0.9, 1.5, K9), (0.5, 2.0, 3 * K5),
                    (0.9, 1.0, 2.0), (0.9, 3.0, 2.0), (0.5, 5.0, 0.4)]


@pytest.mark.parametrize("kappa,a,b", _lame_cases())
def test_su2_shooting_matches_lame_oracle(kappa, a, b):
    M = shooting_matrix(su2_closed_form_trajectory(a, b, kappa, (0.0, 1.0), 2000))
    y = lame_reference(a, b, kappa)
    assert np.all(M - np.diag(np.diag(M)) == 0.0)
    assert np.all(np.abs(np.diag(M) - y) <= 1e-9 * np.maximum(1.0, np.abs(y)))
    if kappa <= 0.9:
        exact = lame_closed_form(a, b, kappa)
        assert np.all(np.abs(np.diag(M) - exact) <= 1e-9 * np.maximum(1.0, np.abs(exact)))
    if b == 0.0:
        # the e1 direction is T1 itself: y1 = sn(a t) / a
        assert M[0, 0] == pytest.approx(ellipj(a, kappa * kappa)[0] / a, abs=1e-9)


@pytest.mark.parametrize("kappa,a,b", [case for case in _lame_cases() if case[0] <= 0.9])
def test_lame_closed_form_matches_the_ode_reference(kappa, a, b):
    y = lame_closed_form(a, b, kappa)
    assert np.all(np.abs(y - lame_reference(a, b, kappa)) <= 1e-12 * np.maximum(1.0, np.abs(y)))


def test_degenerate_at_an_exact_root_of_the_sn_branch():
    # a root in a of y_1(1; a, b = 0.3, kappa = 0.9), found by brentq on
    # the closed form: the su(2) locus is the zero set of the three y_j(1)
    a = 4.443588367796
    assert abs(lame_closed_form(a, 0.3, KAPPA)[0]) < 1e-11
    rep = degeneracy_report(su2_closed_form_trajectory(a, 0.3, KAPPA, (0.0, 1.0), 2000))
    assert rep.verdict == "degenerate"


@pytest.mark.parametrize("a,b", [(2.0, 0.3), (3.0, 0.2)])
def test_su2_shooting_is_fourth_order(a, b):
    y = lame_reference(a, b, KAPPA)
    err = [
        np.max(np.abs(np.diag(shooting_matrix(
            su2_closed_form_trajectory(a, b, KAPPA, (0.0, 1.0), steps))) - y))
        for steps in (100, 200, 400)
    ]
    assert 14.0 <= err[0] / err[1] <= 18.0
    assert 14.0 <= err[1] / err[2] <= 18.0


def test_rk4_sampled_keeps_real_state_real():
    # x'' = -x from (0, I): x = sin(t) I and x' = cos(t) I
    nodes = np.broadcast_to(-np.eye(2), (101, 2, 2))
    path = grids.rk4_sampled(nodes, nodes[1:], np.stack([np.zeros((2, 2)), np.eye(2)]), 0.01)
    assert path.dtype == np.float64
    assert_allclose(path[-1], [np.sin(1.0) * np.eye(2), np.cos(1.0) * np.eye(2)], atol=1e-10)


def test_gauge_ode_stays_complex(rng):
    quad = np.array([random_antihermitian(2, rng) for _ in range(4)])
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=200))
    fixed, u = flow.gauge_fix(traj)
    assert u.dtype == np.complex128
    assert np.max(np.abs(u[-1].imag)) > 1e-3


@pytest.mark.parametrize("scale, verdict", [(1.0, "degenerate"), (1.0 + 1e-3, "inconclusive")])
def test_su8_irrep_locus_point(spin_images, scale, verdict):
    # T_j = f_j rho(e_j) for the irreducible rho: su(2) -> su(8) solves the
    # equations exactly, and its shooting splits into scalar Lame equations
    # y'' = a^2 (l(l + 1) kappa^2 sn^2 - h) y per spin l.  a* below is a
    # root of the l = 7 block at kappa = 0.9, b = 0
    rep = degeneracy_report(_irrep_trajectory(spin_images(8), 0.4412116837 * scale, 0.0, 400))
    assert rep.verdict == verdict, rep.sigma_min / rep.singular_values[0]


def _irrep_trajectory(images, a, b, steps):
    # T_j = f_j rho(e_j) with the su(2) profiles from scipy's ellipj: an
    # exact solution for the irreducible rho, independent of `elliptic`
    t = np.linspace(0.0, 1.0, steps + 1)
    sn, cn, dn, _ = ellipj(a * t + b, KAPPA**2)
    f = np.stack([a * KAPPA * sn, a * KAPPA * cn, -a * dn], axis=1)
    n = images.shape[-1]
    samples = np.zeros((steps + 1, 4, n, n), dtype=complex)
    samples[:, 1:] = f[:, :, None, None] * images
    return Trajectory(0.0, 1.0, samples)


def irrep_lame_reference(images, a, b, kappa):
    """Sorted |y(1)| of the scalar Lame equations the irrep shooting splits into.

    With E_j = ad(rho(e_j)) in an orthonormal basis, M(t) = a^2 (kappa^2
    sn^2(at + b) C - H) for the Casimir C = -(E_1^2 + E_2^2 + E_3^2), which
    is l(l + 1) on spin l, and the constant H = -(kappa^2 E_2^2 + E_3^2),
    which commutes with C.  On each joint eigenvector (c, h) the shooting
    solves y'' = a^2 (c kappa^2 sn^2 - h) y, y(0) = 0, y'(0) = 1; its
    singular values are the |y(1)|, here from one DOP853 solve of all the
    scalar equations at once.
    """
    n = images.shape[-1]
    basis = orthonormal_basis(n, traceless=True)
    E = [inner(basis[:, None], bracket(X, basis)[None, :]) for X in images]
    casimir = -(E[0] @ E[0] + E[1] @ E[1] + E[2] @ E[2])
    H = -(kappa**2 * E[1] @ E[1] + E[2] @ E[2])
    c, Q = np.linalg.eigh(casimir)
    pairs = []
    for ell in range(1, n):
        Q_ell = Q[:, np.abs(c - ell * (ell + 1)) < 1e-9]
        assert Q_ell.shape[1] == 2 * ell + 1
        pairs += [(ell * (ell + 1), h) for h in np.linalg.eigvalsh(Q_ell.T @ H @ Q_ell)]
    c, h = np.array(pairs).T

    def rhs(t, y):
        sn = ellipj(a * t + b, kappa * kappa)[0]
        return np.concatenate([y[len(c):], a * a * (c * kappa**2 * sn**2 - h) * y[: len(c)]])

    y0 = np.concatenate([np.zeros(len(c)), np.ones(len(c))])
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-15)
    return np.sort(np.abs(sol.y[: len(c), -1]))[::-1]


def test_su4_irrep_shooting_matches_scalar_lame_solves(spin_images):
    # d = 15: spins 1, 2 and 3, so 15 scalar equations.  400 steps resolve
    # each sigma to 4.0e-9 relative, and 800 steps to 2.5e-10
    images = spin_images(4)
    rep = degeneracy_report(_irrep_trajectory(images, 2.0, 0.3, 400))
    ref = irrep_lame_reference(images, 2.0, 0.3, KAPPA)
    assert rep.singular_values.shape == ref.shape == (15,)
    assert np.all(np.abs(rep.singular_values - ref) <= 1e-7 * ref)


def test_su8_irrep_shooting_matches_scalar_lame_solves(spin_images):
    # d = 63: spins 1 ... 7, so 63 scalar equations.  The l = 7 block is the
    # stiffest: sigma is within 1.2e-6 relative at 400 steps, 7.6e-8 at 800
    # and 4.7e-9 at 1,600
    images = spin_images(8)
    rep = degeneracy_report(_irrep_trajectory(images, 2.0, 0.3, 1600))
    ref = irrep_lame_reference(images, 2.0, 0.3, KAPPA)
    assert rep.singular_values.shape == ref.shape == (63,)
    assert np.all(np.abs(rep.singular_values - ref) <= 1e-7 * ref)

