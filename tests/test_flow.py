import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nahmschmid import flow, grids
from nahmschmid.elliptic import jacobi
from nahmschmid.flow import (
    SolverConfig,
    Trajectory,
    complex_coords,
    complex_equation_residuals,
    complex_gauge_identity_check,
    conserved_report,
    from_boundary_data,
    gauge_apply,
    gauge_fix,
    gram_matrix,
    integrate,
    lorentz_apply,
    lorentz_boost,
    lorentz_rotation,
    monodromy,
    moment_maps,
    product_split,
    quadruple_from_complex,
    residual,
    rhs_full,
    rhs_reduced,
    su2_canonicalize,
    su2_closed_form,
    su2_closed_form_trajectory,
)
from nahmschmid.liealg import (
    bracket,
    coordinates,
    exp_unitary,
    inner,
    norm,
    orthonormal_basis,
    project_antihermitian,
    random_antihermitian,
    random_unitary,
    su2_basis,
)

E1, E2, E3 = su2_basis()
Z2 = np.zeros((2, 2), dtype=complex)


def smooth_g00_path(times, X, Y):
    """Gauge path equal to the identity at both endpoints."""
    s = np.sin(np.pi * times)[:, None, None]
    s2 = np.sin(2 * np.pi * times)[:, None, None]
    return np.array([exp_unitary(m) for m in s * X + s2 * Y])


# ---------------------------------------------------------------------------
# right-hand sides

def test_rhs_reduced_commuting_vanishes():
    out = rhs_reduced(E1, 2.0 * E1, -0.5 * E1)
    for M in out:
        assert np.max(np.abs(M)) < 1e-15


def test_rhs_reduced_basis_values():
    d1, d2, d3 = rhs_reduced(E1, E2, E3)
    assert_allclose(d1, -E1, atol=1e-15)
    assert_allclose(d2, E2, atol=1e-15)
    assert_allclose(d3, E3, atol=1e-15)


def test_rhs_reduced_is_negative_indefinite_gradient(rng):
    # phi(x) = <[x1,x2], x3>; the flow is minus its gradient for the
    # indefinite metric diag(1,-1,-1) on three copies of the algebra
    basis = orthonormal_basis(2, traceless=True)
    d = basis.shape[0]
    taus = [random_antihermitian(2, rng, traceless=True) for _ in range(3)]

    def phi(ts):
        return inner(bracket(ts[0], ts[1]), ts[2])

    eps = 1e-6
    grad = np.zeros((3, d))
    for i in range(3):
        for k in range(d):
            plus = [t.copy() for t in taus]
            minus = [t.copy() for t in taus]
            plus[i] = plus[i] + eps * basis[k]
            minus[i] = minus[i] - eps * basis[k]
            grad[i, k] = (phi(plus) - phi(minus)) / (2 * eps)
    eta = np.array([1.0, -1.0, -1.0])
    expected = -eta[:, None] * grad  # raise the index with the indefinite metric
    out = rhs_reduced(*taus)
    got = np.array([coordinates(M, basis) for M in out])
    assert_allclose(got, expected, atol=1e-8)


def test_rhs_full_reduces_and_vanishes(rng):
    T = np.array([Z2, 0.4 * E1, -0.2 * E2, 0.9 * E3])
    full = rhs_full(T)
    red = rhs_reduced(T[1], T[2], T[3])
    for a, b in zip(full, red):
        assert_allclose(a, b, atol=1e-15)
    Tc = np.array([0.3 * E1, E1, 2.0 * E1, -E1])
    for M in rhs_full(Tc):
        assert np.max(np.abs(M)) < 1e-15


def _rhs_reference(Y, T0=None):
    # the two-bracket form of the stacked right-hand side: the bitwise
    # reference for flow._rhs_stacked
    out = np.array([-1.0, 1.0, 1.0]).reshape(3, 1, 1) * bracket(Y[[1, 2, 0]], Y[[2, 0, 1]])
    if T0 is not None:
        out = out - bracket(T0[None, :, :], Y)
    return out


def _assert_same_bits(got, ref):
    # equal doubles, signed zeros included (== treats -0.0 and 0.0 as equal)
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype == np.complex128 and got.shape == ref.shape
    g, r = got.view(np.float64), ref.view(np.float64)
    assert np.array_equal(g, r)
    assert np.array_equal(np.signbit(g), np.signbit(r))


@pytest.mark.parametrize("with_t0", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_rhs_stacked_bitwise_equals_bracket_form(n, with_t0):
    rng = np.random.default_rng([7, n, with_t0])
    Y = np.array([random_antihermitian(n, rng) for _ in range(3)])
    T0 = random_antihermitian(n, rng) if with_t0 else None
    _assert_same_bits(flow._rhs_stacked(Y, T0), _rhs_reference(Y, T0))


def test_rhs_stacked_bitwise_on_su2_closed_form(elliptic_traj_b):
    # su(2) samples have exact zero entries, where -1.0 * z and -z differ
    for q in elliptic_traj_b.samples[::250]:
        for T0 in (None, 0.3 * E1, q[1]):
            _assert_same_bits(flow._rhs_stacked(q[1:], T0), _rhs_reference(q[1:], T0))


def test_rhs_reduced_and_full_bitwise(rng, elliptic_traj_b):
    quads = [np.array([random_antihermitian(3, rng) for _ in range(4)]),
             elliptic_traj_b.samples[100] + np.array([0.2 * E2, Z2, Z2, Z2])]
    for T in quads:
        _assert_same_bits(rhs_reduced(*T[1:]), _rhs_reference(T[1:]))
        _assert_same_bits(rhs_full(T), _rhs_reference(T[1:], T[0]))


@pytest.mark.parametrize("with_t0", [False, True])
@pytest.mark.parametrize("data", ["u4", "su2"])
def test_integrate_bitwise_against_bracket_form(data, with_t0):
    rng = np.random.default_rng([11, with_t0])
    if data == "u4":
        q = np.array([random_antihermitian(4, rng) for _ in range(4)])
    else:
        q = su2_closed_form(1.2, 0.3, 0.8, 0.0) + np.array([0.4 * E3, Z2, Z2, Z2])
    if not with_t0:
        q[0] = 0.0
    steps = 200
    traj = integrate(q, (0.0, 1.5), SolverConfig(steps=steps))
    T0 = q[0] if with_t0 else None
    ref = grids.rk4(lambda t, Y: _rhs_reference(Y, T0), q[1:], 0.0, 1.5 / steps, steps,
                    project=project_antihermitian)
    _assert_same_bits(traj.samples[:, 1:], ref)


def _integrate_reference(T_init, t_span, steps):
    # the former form of integrate: RK4 returns a separate (m, 3, n, n)
    # body, and a second (m, 4, n, n) copy prepends T0; the bitwise
    # reference for writing the samples in place
    T_init = np.asarray(T_init, dtype=complex)
    t0, t1 = float(t_span[0]), float(t_span[1])
    T0 = None if np.max(np.abs(T_init[0])) == 0.0 else T_init[0]
    body = grids.rk4(lambda t, Y: flow._rhs_stacked(Y, T0), T_init[1:], t0, (t1 - t0) / steps,
                     steps, project=project_antihermitian)
    T0_path = np.broadcast_to(T_init[0], (steps + 1,) + T_init[0].shape)
    return np.concatenate([T0_path[:, None], body], axis=1)


@pytest.mark.parametrize("with_t0", [False, True])
@pytest.mark.parametrize("data", ["u3", "su2"])
def test_integrate_bitwise_against_body_and_concatenate(data, with_t0):
    rng = np.random.default_rng([13, with_t0])
    if data == "u3":
        q = np.array([random_antihermitian(3, rng) for _ in range(4)])
    else:
        q = su2_closed_form(1.2, 0.3, 0.8, 0.0) + np.array([0.4 * E3, Z2, Z2, Z2])
    if not with_t0:
        q[0] = 0.0
    traj = integrate(q, (0.5, 2.0), SolverConfig(steps=300))
    _assert_same_bits(traj.samples, _integrate_reference(q, (0.5, 2.0), 300))


@pytest.mark.parametrize("with_t0", [False, True])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_integrate_blocks_are_bitwise_one_rk4_run(block, with_t0, monkeypatch):
    # 200 steps end off the block boundary for blocks of 3 and 7; each block
    # starts from the last state of the one before
    rng = np.random.default_rng([19, with_t0])
    q = np.array([random_antihermitian(3, rng) for _ in range(4)])
    if not with_t0:
        q[0] = 0.0
    ref = _integrate_reference(q, (0.0, 1.5), 200)
    monkeypatch.setattr(flow, "_STEP_BLOCK", block)
    calls = []
    inner = grids.rk4

    def counting(*args, **kwargs):
        calls.append(args[4])
        return inner(*args, **kwargs)

    monkeypatch.setattr(grids, "rk4", counting)
    traj = integrate(q, (0.0, 1.5), SolverConfig(steps=200))
    assert calls == [block] * (200 // block) + ([200 % block] if 200 % block else [])
    _assert_same_bits(traj.samples, ref)


def test_integrate_peak_memory_is_the_sample_array():
    # the samples are the only O(steps) array: the body-plus-concatenate
    # form peaked at 1.76x their size (u(4), 2,000 steps), this one at 1.03x
    rng = np.random.default_rng(17)
    q = np.array([random_antihermitian(4, rng) for _ in range(4)])
    tracemalloc.start()
    try:
        traj = integrate(q, (0.0, 1.0), SolverConfig(steps=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * traj.samples.nbytes + 32 * 1024


# ---------------------------------------------------------------------------
# integration against the closed-form oracle

def test_integrate_zero_data():
    traj = integrate(np.zeros((4, 2, 2)), (0.0, 1.0), SolverConfig(steps=50))
    assert np.max(np.abs(traj.samples)) == 0.0


def test_integrate_matches_closed_form(elliptic_traj):
    init = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    traj = integrate(init, (0.0, 1.0), SolverConfig(steps=2000))
    assert np.max(np.abs(traj.samples - elliptic_traj.samples)) < 1e-8


def test_integrate_fourth_order_convergence():
    init = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    errs = {}
    for steps in (200, 400):
        traj = integrate(init, (0.0, 1.0), SolverConfig(steps=steps))
        oracle = su2_closed_form_trajectory(1.0, 0.0, 0.8, (0.0, 1.0), steps)
        errs[steps] = np.max(np.abs(traj.samples - oracle.samples))
    ratio = errs[200] / errs[400]
    assert 16.0 * 0.8 < ratio < 16.0 * 1.2


def test_integrate_bounded_by_C(rng):
    xi = [random_antihermitian(2, rng) for _ in range(3)]
    init = np.array([np.zeros((2, 2))] + xi, dtype=complex)
    C = 2 * inner(xi[0], xi[0]) + inner(xi[1], xi[1]) + inner(xi[2], xi[2])
    traj = integrate(init, (0.0, 10.0), SolverConfig(steps=5000))
    for i in (1, 2, 3):
        assert np.max(inner(traj.samples[:, i], traj.samples[:, i])) <= C + 1e-9


def test_integrate_rejects_bad_shape():
    with pytest.raises(ValueError):
        integrate(np.zeros((3, 2, 2)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(steps=0)


def test_integrate_holds_constant_t0():
    # a nonzero T0 rewrites the solution in a moving gauge; it is held at
    # its initial value and the moment-map residuals must stay small
    init = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    init = init.copy()
    init[0] = 0.2 * E1

    traj = integrate(init, (0.0, 1.0), SolverConfig(steps=1000))
    assert residual(traj) < 1e-6
    assert np.all(traj.samples[:, 0] == 0.2 * E1)


# ---------------------------------------------------------------------------
# conserved quantities

def test_conserved_report_zero():
    traj = Trajectory(0.0, 1.0, np.zeros((11, 4, 2, 2), dtype=complex))
    rep = conserved_report(traj)
    assert all(v == 0.0 for v in rep.drift.values())


def test_conserved_report_elliptic_values(elliptic_traj):
    a, kappa = 1.0, 0.8
    rep = conserved_report(elliptic_traj)
    assert abs(rep.initial["n12"] - a**2 * kappa**2) < 1e-12
    assert abs(rep.initial["n13"] - a**2) < 1e-12
    assert abs(rep.initial["C"] - a**2 * (1 + kappa**2)) < 1e-12
    assert max(rep.drift.values()) < 1e-12  # closed form is exact


def test_conserved_drift_random_u3(rng):
    xi = [random_antihermitian(3, rng) for _ in range(3)]
    init = np.array([np.zeros((3, 3))] + xi, dtype=complex)
    traj = integrate(init, (0.0, 1.0), SolverConfig(steps=2000))
    rep = conserved_report(traj)
    assert max(rep.relative_drift.values()) < 1e-8


# ---------------------------------------------------------------------------
# gauge action and gauge fixing

def test_gauge_apply_identity(elliptic_traj):
    m = elliptic_traj.steps + 1
    u = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    out = gauge_apply(u, elliptic_traj)
    assert np.max(np.abs(out.samples - elliptic_traj.samples)) < 1e-9


def test_gauge_apply_constant(rng, elliptic_traj):
    u0 = random_unitary(2, rng)
    m = elliptic_traj.steps + 1
    u = np.broadcast_to(u0, (m, 2, 2)).copy()
    out = gauge_apply(u, elliptic_traj)
    for i in range(4):
        assert_allclose(
            out.samples[:, i], u0 @ elliptic_traj.samples[:, i] @ u0.conj().T, atol=1e-9
        )


def test_gauge_apply_preserves_solutions(rng, elliptic_traj_b):
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    u = smooth_g00_path(elliptic_traj_b.times, X, Y)
    out = gauge_apply(u, elliptic_traj_b)
    assert residual(out) < 1e-6


def test_gauge_apply_grid_mismatch(elliptic_traj):
    with pytest.raises(ValueError):
        gauge_apply(np.broadcast_to(np.eye(2, dtype=complex), (7, 2, 2)), elliptic_traj)


def test_gauge_fix_trivial(elliptic_traj):
    fixed, u = gauge_fix(elliptic_traj)
    m = elliptic_traj.steps + 1
    assert np.max(np.abs(u - np.eye(2))) < 1e-10
    assert np.max(np.abs(fixed.samples - elliptic_traj.samples)) < 1e-10


def test_gauge_fix_constant_T0(rng):
    xi = random_antihermitian(2, rng)
    m = 400
    samples = np.zeros((m + 1, 4, 2, 2), dtype=complex)
    samples[:, 0] = xi
    traj = Trajectory(0.0, 1.0, samples)
    fixed, u = gauge_fix(traj)
    times = traj.times
    expected = np.array([exp_unitary(t * xi) for t in times])
    assert np.max(np.abs(u - expected)) < 1e-9
    assert np.max(np.abs(fixed.samples[:, 0])) == 0.0


def test_gauge_fix_produces_reduced_solution(rng, elliptic_traj_b):
    X = random_antihermitian(2, rng, traceless=True)
    u = smooth_g00_path(elliptic_traj_b.times, X, 0.5 * X)
    gauged = gauge_apply(u, elliptic_traj_b)
    fixed, _ = gauge_fix(gauged)
    assert residual(fixed) < 1e-6
    # the T0 slot of the result is identically zero by construction; the
    # honest residual is how well u conjugates T0 away before zeroing
    _, ufix = gauge_fix(gauged)
    check = gauge_apply(ufix, gauged)
    assert np.max(norm(check.samples[:, 0])) < 1e-8


# ---------------------------------------------------------------------------
# monodromy and boundary data

def test_monodromy_zero():
    traj = Trajectory(0.0, 1.0, np.zeros((101, 4, 2, 2), dtype=complex))
    md = monodromy(traj)
    assert_allclose(md.gamma, np.eye(2), atol=1e-12)
    assert np.max(np.abs(md.xi1)) == 0.0


def test_monodromy_constant_T0(rng):
    xi = random_antihermitian(2, rng)
    samples = np.zeros((401, 4, 2, 2), dtype=complex)
    samples[:, 0] = xi
    md = monodromy(Trajectory(0.0, 1.0, samples))
    assert_allclose(md.gamma, exp_unitary(-xi), atol=1e-9)


def test_monodromy_g00_invariance(rng, elliptic_traj_b):
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    u = smooth_g00_path(elliptic_traj_b.times, X, Y)
    md0 = monodromy(elliptic_traj_b)
    md1 = monodromy(gauge_apply(u, elliptic_traj_b))
    assert np.max(np.abs(md0.gamma - md1.gamma)) < 1e-6
    assert_allclose(md0.xi1, md1.xi1, atol=1e-12)


def test_monodromy_boundary_moment_maps(elliptic_traj):
    md = monodromy(elliptic_traj)
    S = elliptic_traj.samples
    assert_allclose(md.boundary_mu_I[0], -S[0, 1], atol=1e-15)
    assert_allclose(md.boundary_mu_I[1], S[-1, 1], atol=1e-15)
    assert_allclose(md.boundary_mu_S[0], S[0, 2], atol=1e-15)
    assert_allclose(md.boundary_mu_S[1], -S[-1, 2], atol=1e-15)
    assert_allclose(md.boundary_mu_T[0], S[0, 3], atol=1e-15)
    assert_allclose(md.boundary_mu_T[1], -S[-1, 3], atol=1e-15)


def test_from_boundary_data_trivial():
    traj = from_boundary_data(np.eye(2), Z2, Z2, Z2, SolverConfig(steps=100))
    assert np.max(np.abs(traj.samples)) < 1e-12


def test_from_boundary_data_round_trip(rng):
    gamma = random_unitary(2, rng)
    xi = [random_antihermitian(2, rng) for _ in range(3)]
    traj = from_boundary_data(gamma, *xi, SolverConfig(steps=2000))
    md = monodromy(traj)
    assert np.max(np.abs(md.gamma - gamma)) < 1e-6
    for got, want in zip((md.xi1, md.xi2, md.xi3), xi):
        assert np.max(np.abs(got - want)) < 1e-12
    assert residual(traj) < 1e-5


def test_from_boundary_data_commuting_is_constant(rng):
    gamma = random_unitary(2, rng)
    xi = [0.3 * E1, -0.7 * E1, 0.2 * E1]  # commuting triple
    traj = from_boundary_data(gamma, *xi, SolverConfig(steps=500))
    fixed, _ = gauge_fix(traj)
    for i, want in zip((1, 2, 3), xi):
        assert np.max(np.abs(fixed.samples[:, i] - want)) < 1e-7


def test_from_boundary_data_rejects_log_branch_point():
    gamma = np.diag([-1.0 + 0j, 1.0])
    with pytest.raises(ValueError):
        from_boundary_data(gamma, Z2, Z2, Z2, SolverConfig(steps=50))


def test_boundary_group_action_equivariance(rng, elliptic_traj_b):
    # a gauge path with boundary values (u1, u2) sends gamma to u2 gamma u1^-1
    # and xi_i to u1 xi_i u1^-1
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    times = elliptic_traj_b.times
    path = (
        0.7 * X[None] * np.ones_like(times)[:, None, None]
        + (times**2)[:, None, None] * Y[None]
    )
    u = np.array([exp_unitary(m) for m in path])
    u1, u2 = u[0], u[-1]
    md0 = monodromy(elliptic_traj_b)
    md1 = monodromy(gauge_apply(u, elliptic_traj_b))
    assert np.max(np.abs(md1.gamma - u2 @ md0.gamma @ u1.conj().T)) < 1e-6
    for got, want in zip(
        (md1.xi1, md1.xi2, md1.xi3), (md0.xi1, md0.xi2, md0.xi3)
    ):
        assert np.max(np.abs(got - u1 @ want @ u1.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# SO(1,2) action

def test_lorentz_identity(elliptic_traj):
    out = lorentz_apply(np.eye(3), elliptic_traj)
    assert np.max(np.abs(out.samples - elliptic_traj.samples)) == 0.0


def test_lorentz_boost_preserves_solutions(elliptic_traj_b):
    out = lorentz_apply(lorentz_boost(0.6, axis=2), elliptic_traj_b)
    assert residual(out) < 1e-6


def test_lorentz_gram_transformation(elliptic_traj_b):
    A = lorentz_boost(0.4, axis=3) @ lorentz_rotation(0.9)
    G0 = gram_matrix(elliptic_traj_b)
    G1 = gram_matrix(lorentz_apply(A, elliptic_traj_b))
    assert_allclose(G1, A @ G0 @ A.T, atol=1e-12)


def test_lorentz_rejects_non_lorentz():
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        lorentz_apply(bad, None)


def test_lorentz_commutes_with_integrate():
    A = lorentz_boost(0.5, axis=2)
    init = su2_closed_form(1.0, 0.2, 0.8, 0.0)
    cfg = SolverConfig(steps=800)
    first = lorentz_apply(A, integrate(init, (0.0, 1.0), cfg))
    rotated_init = init.copy()
    rotated_init[1:] = np.einsum("ij,jab->iab", A, init[1:])
    second = integrate(rotated_init, (0.0, 1.0), cfg)
    assert np.max(np.abs(first.samples - second.samples)) < 1e-6


# ---------------------------------------------------------------------------
# closed-form solutions

def test_su2_closed_form_at_origin():
    a, kappa = 1.3, 0.7
    q = su2_closed_form(a, 0.0, kappa, 0.0)
    assert np.max(np.abs(q[0])) == 0.0
    assert np.max(np.abs(q[1])) == 0.0
    assert_allclose(q[2], a * kappa * E2, atol=1e-15)
    assert_allclose(q[3], -a * E3, atol=1e-15)


def test_su2_closed_form_trivial_modulus():
    for t in (0.0, 0.8):
        q = su2_closed_form(1.5, 0.4, 0.0, t)
        assert np.max(np.abs(q[1])) < 1e-15
        assert np.max(np.abs(q[2])) < 1e-15
        assert_allclose(q[3], -1.5 * E3, atol=1e-15)


def test_su2_closed_form_trajectory_matches_pointwise():
    # the sampled trajectory holds exactly the pointwise closed form, signed
    # zeros included, also for kappa = 0, kappa = 1 and negative a
    for a, b, kappa in ((1.4, 0.3, 0.85), (-2.0, 1.1, 0.0), (0.7, -0.4, 1.0)):
        traj = su2_closed_form_trajectory(a, b, kappa, (-0.5, 1.5), 40)
        ref = np.array([su2_closed_form(a, b, kappa, t) for t in traj.times])
        assert traj.samples.tobytes() == ref.tobytes()


def test_su2_closed_form_solves_equations(rng):
    # residual of the reduced equations via the analytic derivative identities
    a, b, kappa = 1.4, 0.3, 0.85
    for _ in range(100):
        t = rng.uniform(-2, 2)
        sn, cn, dn = jacobi(a * t + b, kappa)
        f = np.array([a * kappa * sn, a * kappa * cn, -a * dn])
        fdot = np.array(
            [a**2 * kappa * cn * dn, -(a**2) * kappa * sn * dn, a**2 * kappa**2 * sn * cn]
        )
        rhs = np.array([-f[1] * f[2], f[2] * f[0], f[0] * f[1]])
        assert np.max(np.abs(fdot - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# canonical form

def test_su2_canonicalize_standard(elliptic_traj_b):
    cf = su2_canonicalize(elliptic_traj_b)
    assert_allclose(cf.lorentz, np.eye(3), atol=1e-8)
    sn_cn_dn = np.array([jacobi(t + 0.3, 0.8) for t in elliptic_traj_b.times])
    expected = np.stack(
        [0.8 * sn_cn_dn[:, 0], 0.8 * sn_cn_dn[:, 1], -sn_cn_dn[:, 2]], axis=1
    )
    assert np.max(np.abs(cf.profiles - expected)) < 1e-9


def test_su2_canonicalize_conjugated(rng, elliptic_traj_b):
    w = random_unitary(2, rng)
    S = elliptic_traj_b.samples.copy()
    S[:, 1:] = w @ S[:, 1:] @ w.conj().T
    cf = su2_canonicalize(Trajectory(0.0, 1.0, S))
    base = su2_canonicalize(elliptic_traj_b)
    assert np.max(np.abs(np.abs(cf.profiles) - np.abs(base.profiles))) < 1e-8
    # recovered standard trajectory solves the reduced equations
    assert residual(cf.trajectory) < 1e-6


def test_su2_canonicalize_lorentz_round_trip(elliptic_traj_b):
    A = lorentz_boost(0.35, axis=2) @ lorentz_rotation(0.8)
    cf = su2_canonicalize(lorentz_apply(A, elliptic_traj_b))
    P = cf.lorentz @ A
    # recovery up to the stabilizer of the diagonal Gram form: signed
    # diagonal matrices of determinant one
    D = np.diag(np.sign(np.diag(P)))
    assert_allclose(P, D, atol=1e-6)
    assert abs(np.linalg.det(D) - 1.0) < 1e-12


def test_su2_canonicalize_rejects_wrong_size(rng):
    samples = np.zeros((11, 4, 3, 3), dtype=complex)
    with pytest.raises(flow.NonCanonicalizableError):
        su2_canonicalize(Trajectory(0.0, 1.0, samples))


def test_su2_canonicalize_rejects_wandering_axes(elliptic_traj_b):
    # corrupt the solution so T1 rotates in the algebra: no fixed axes
    S = elliptic_traj_b.samples.copy()
    t = elliptic_traj_b.times
    u = np.array([exp_unitary(m) for m in (2.0 * t)[:, None, None] * E3])
    S[:, 1] = u @ S[:, 1] @ u.conj().swapaxes(-1, -2)
    with pytest.raises(flow.NonCanonicalizableError):
        su2_canonicalize(Trajectory(0.0, 1.0, S))


# ---------------------------------------------------------------------------
# complex coordinates

def test_complex_coords_zero_and_round_trip(rng):
    a, b = complex_coords(np.zeros((4, 2, 2)))
    assert np.max(np.abs(a)) == 0.0 and np.max(np.abs(b)) == 0.0
    for _ in range(20):
        T = np.array([random_antihermitian(3, rng) for _ in range(4)])
        alpha, beta = complex_coords(T)
        assert_allclose(quadruple_from_complex(alpha, beta), T, atol=1e-14)


def test_complex_equation_residuals_on_solution(elliptic_traj_b):
    cx, re = complex_equation_residuals(elliptic_traj_b)
    assert cx < 1e-6
    assert re < 1e-6


def test_complex_gauge_identity(rng, elliptic_traj_b):
    times = elliptic_traj_b.times
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    xi = 0.2 * (np.sin(np.pi * times)[:, None, None] * X
                + np.sin(2 * np.pi * times)[:, None, None] * Y)
    assert complex_gauge_identity_check(elliptic_traj_b, 0.0 * xi) < 1e-8
    assert complex_gauge_identity_check(elliptic_traj_b, xi) < 1e-5


# ---------------------------------------------------------------------------
# product splitting

def test_product_split_zero():
    traj = Trajectory(0.0, 1.0, np.zeros((101, 4, 2, 2), dtype=complex))
    ps = product_split(traj)
    assert ps.paracomplex_residuals == (0.0, 0.0)
    assert ps.coulomb_residual == 0.0
    assert_allclose(ps.monodromy1, np.eye(2), atol=1e-12)
    assert_allclose(ps.monodromy2, np.eye(2), atol=1e-12)


def test_product_split_elliptic(elliptic_traj_b):
    ps = product_split(elliptic_traj_b)
    S = elliptic_traj_b.samples
    # A1 = f2 e2 and B1 = f1 e1 + f3 e3 for the standard solutions
    assert_allclose(ps.A1, S[:, 2], atol=1e-15)
    assert_allclose(ps.B1, S[:, 1] + S[:, 3], atol=1e-15)
    assert max(ps.paracomplex_residuals) < 1e-8
    assert ps.coulomb_residual < 1e-8


def test_product_split_equal_monodromies_when_T0_T2_vanish():
    # commuting T1, T3 keep T2 = 0 along the flow, so A1 = A2
    init = np.array([Z2, 0.4 * E1, Z2, -0.8 * E1])
    traj = integrate(init, (0.0, 1.0), SolverConfig(steps=400))
    assert np.max(np.abs(traj.samples[:, 2])) < 1e-14
    ps = product_split(traj)
    assert np.max(np.abs(ps.monodromy1 - ps.monodromy2)) < 1e-12


def test_moment_maps_vanish_on_solution(elliptic_traj_b):
    mm = moment_maps(elliptic_traj_b)
    assert float(np.max(norm(mm))) < 1e-6
