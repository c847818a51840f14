"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete (they also appear in captured output on failure).
"""

import numpy as np
import pytest

from nahmschmid import flow, positive, spectral, stability
from nahmschmid.degeneracy import degeneracy_report, delta_apply, pi_bound_precheck
from nahmschmid.elliptic import complete_K
from nahmschmid.flow import (
    SolverConfig,
    Trajectory,
    gauge_apply,
    integrate,
    lorentz_apply,
    lorentz_boost,
    lorentz_rotation,
    monodromy,
    residual,
    su2_closed_form,
    su2_closed_form_trajectory,
)
from nahmschmid.liealg import (
    exp_unitary,
    inner,
    random_antihermitian,
    su2_basis,
)

E1, E2, E3 = su2_basis()
Z2 = np.zeros((2, 2), dtype=complex)
RNG_SEED = 7041


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(RNG_SEED)


@pytest.fixture(scope="module")
def elliptic_runs():
    """Integrated solutions for kappa in {0.5, 0.8, 0.99}, 2000 steps."""
    runs = {}
    for kappa in (0.5, 0.8, 0.99):
        init = su2_closed_form(1.0, 0.0, kappa, 0.0)
        runs[kappa] = integrate(init, (0.0, 1.0), SolverConfig(steps=2000))
    return runs


def test_criterion_01_closed_form_oracle(elliptic_runs):
    worst = 0.0
    for kappa, traj in elliptic_runs.items():
        oracle = su2_closed_form_trajectory(1.0, 0.0, kappa, (0.0, 1.0), 2000)
        worst = max(worst, float(np.max(np.abs(traj.samples - oracle.samples))))
    errs = {}
    for steps in (200, 400):
        traj = integrate(
            su2_closed_form(1.0, 0.0, 0.8, 0.0), (0.0, 1.0), SolverConfig(steps=steps)
        )
        oracle = su2_closed_form_trajectory(1.0, 0.0, 0.8, (0.0, 1.0), steps)
        errs[steps] = float(np.max(np.abs(traj.samples - oracle.samples)))
    ratio = errs[200] / errs[400]
    ok = worst < 1e-8 and 16.0 * 0.8 <= ratio <= 16.0 * 1.2
    report(
        "criterion 1 closed-form oracle",
        ok,
        f"sup error {worst:.2e} (< 1e-8), step-halving ratio {ratio:.2f} (16 +/- 20%)",
    )


def _drift_ok(rep, rel_tol=1e-8, abs_tol=1e-10):
    for name in rep.initial:
        if abs(rep.initial[name]) > 1e-12:
            if rep.relative_drift[name] >= rel_tol:
                return False, name, rep.relative_drift[name]
        elif rep.drift[name] >= abs_tol:
            return False, name, rep.drift[name]
    return True, "", 0.0


def test_criterion_02_conservation(elliptic_runs, rng):
    worst_rel = 0.0
    ok = True
    solutions = list(elliptic_runs.values())
    for n, traceless in ((3, False), (3, False), (2, True)):
        xi = [random_antihermitian(n, rng, traceless=traceless) for _ in range(3)]
        init = np.array([np.zeros((n, n))] + xi, dtype=complex)
        solutions.append(integrate(init, (0.0, 1.0), SolverConfig(steps=2000)))
    for traj in solutions:
        rep = flow.conserved_report(traj)
        good, which, val = _drift_ok(rep)
        ok = ok and good
        worst_rel = max(worst_rel, max(rep.relative_drift.values()))
    report(
        "criterion 2 conservation",
        ok,
        f"worst relative drift {worst_rel:.2e} over {len(solutions)} solutions (< 1e-8)",
    )


def test_criterion_03_global_boundedness(rng):
    ok = True
    details = []
    for traceless, label in ((False, "u(2)"), (True, "su(2)")):
        xi = [random_antihermitian(2, rng, traceless=traceless) for _ in range(3)]
        init = np.array([np.zeros((2, 2))] + xi, dtype=complex)
        C0 = float(2 * inner(xi[0], xi[0]) + inner(xi[1], xi[1]) + inner(xi[2], xi[2]))
        traj = integrate(init, (0.0, 100.0), SolverConfig(steps=100000))
        sup_norms = max(
            float(np.max(inner(traj.samples[:, i], traj.samples[:, i]))) for i in (1, 2, 3)
        )
        drift = flow.conserved_report(traj).drift["C"]
        ok = ok and np.isfinite(sup_norms) and sup_norms <= C0 + 1e-9 and drift < 1e-6
        details.append(f"{label}: sup|T_i|^2 {sup_norms:.3f} <= C {C0:.3f}, C drift {drift:.1e}")
    report("criterion 3 global boundedness to t=100", ok, "; ".join(details))


def test_criterion_04_isospectrality(elliptic_runs):
    worst_drift = 0.0
    for traj in elliptic_runs.values():
        worst_drift = max(worst_drift, spectral.isospectral_drift(traj))
    a = 1.0
    worst_coeff = 0.0
    for kappa, traj in elliptic_runs.items():
        curve = spectral.char_poly(spectral.lax_from_quadruple(traj.samples[0]))
        p2 = curve.coefficients[1]
        expected = np.array(
            [
                (a**2 / 4) * (kappa**2 - 1),
                0.0,
                -(a**2 / 2) * (1 + kappa**2),
                0.0,
                (a**2 / 4) * (kappa**2 - 1),
            ]
        )
        worst_coeff = max(worst_coeff, float(np.max(np.abs(p2 - expected))))
    ok = worst_drift < 1e-8 and worst_coeff < 1e-8
    report(
        "criterion 4 isospectrality",
        ok,
        f"coefficient drift {worst_drift:.2e} (< 1e-8), curve formula error {worst_coeff:.2e}",
    )


def test_criterion_05_lax_residual(elliptic_runs):
    worst = max(spectral.lax_residual(t) for t in elliptic_runs.values())
    t = np.linspace(0.0, 1.0, 501)
    S = np.zeros((501, 4, 2, 2), dtype=complex)
    S[:, 1] = np.cos(3 * t)[:, None, None] * E1
    S[:, 2] = np.sin(2 * t)[:, None, None] * E2
    S[:, 3] = (0.5 + t)[:, None, None] * E3
    control = spectral.lax_residual(Trajectory(0.0, 1.0, S))
    ok = worst < 1e-6 and control > 0.1
    report(
        "criterion 5 Lax residual",
        ok,
        f"solutions {worst:.2e} (< 1e-6), non-solution control {control:.2f} (O(1))",
    )


def test_criterion_06_degeneracy_locus(rng):
    kappa = 0.9
    K = complete_K(kappa)
    deg = degeneracy_report(su2_closed_form_trajectory(2 * K, 0.0, kappa, (0.0, 1.0), 2000))
    nondeg = degeneracy_report(su2_closed_form_trajectory(1.0, 0.5, kappa, (0.0, 1.0), 2000))
    ok = deg.verdict == "degenerate" and deg.sigma_min < 1e-4
    ok = ok and nondeg.verdict == "nondegenerate"

    # 100 random solutions certified by the sup bound are all nondegenerate
    certified = 0
    attempts = 0
    while certified < 100 and attempts < 400:
        attempts += 1
        xi = [0.4 * random_antihermitian(2, rng) for _ in range(3)]
        init = np.array([np.zeros((2, 2))] + xi, dtype=complex)
        traj = integrate(init, (0.0, 1.0), SolverConfig(steps=400))
        bound, is_certified = pi_bound_precheck(traj)
        if not is_certified:
            continue
        certified += 1
        rep = degeneracy_report(traj)
        ok = ok and rep.verdict == "nondegenerate"

    # a solution with a rotated component vanishing at both endpoints
    base = su2_closed_form_trajectory(2 * K, K, kappa, (0.0, 1.0), 2000)
    rotated = lorentz_apply(lorentz_rotation(0.7), base)
    rot_rep = degeneracy_report(rotated)
    ok = ok and certified == 100 and rot_rep.verdict == "degenerate"
    report(
        "criterion 6 degeneracy locus",
        ok,
        f"a=2K sigma_min {deg.sigma_min:.1e} degenerate; a=1,b=0.5 {nondeg.verdict}; "
        f"{certified} certified nondegenerate; rotated vanishing component {rot_rep.verdict}",
    )


def test_criterion_07_delta_consistency(rng):
    traj = su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 2000)
    t = traj.times
    eps = 2e-4
    worst = 0.0
    for _ in range(10):
        X = random_antihermitian(2, rng, traceless=True)
        Y = random_antihermitian(2, rng, traceless=True)
        xi = (
            np.sin(np.pi * t)[:, None, None] * X
            + np.sin(2 * np.pi * t)[:, None, None] * Y
        )
        plus = flow.real_equation_map(traj, eps * xi)
        minus = flow.real_equation_map(traj, -eps * xi)
        lin = (plus - minus) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(lin + delta_apply(traj, xi)))))
    ok = worst < 1e-4
    report(
        "criterion 7 complex-gauge linearization",
        ok,
        f"max |FD linearization + Delta_T xi| = {worst:.2e} over 10 directions (< 1e-4)",
    )


def test_criterion_08_product_structure():
    traj = su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 2000)
    ps = flow.product_split(traj)
    worst_para = max(ps.paracomplex_residuals)
    init = np.array([Z2, 0.4 * E1, Z2, -0.8 * E1])
    commuting = integrate(init, (0.0, 1.0), SolverConfig(steps=500))
    ps2 = flow.product_split(commuting)
    mono_gap = float(np.max(np.abs(ps2.monodromy1 - ps2.monodromy2)))
    ok = worst_para < 1e-8 and ps.coulomb_residual < 1e-8 and mono_gap < 1e-10
    report(
        "criterion 8 product structure",
        ok,
        f"paracomplex {worst_para:.1e}, Coulomb {ps.coulomb_residual:.1e} (< 1e-8); "
        f"T0=T2=0 monodromy gap {mono_gap:.1e}",
    )


def test_criterion_09_rosenblatt(rng):
    pair = positive.rosenblatt_factorize(0.5 * np.eye(1), 2.0 * np.eye(1), 0.5 * np.eye(1))
    sq3 = np.sqrt(3.0)
    scalar_err = max(
        abs(pair.A[0, 0] - (sq3 - 1) / 2), abs(pair.B[0, 0] - (sq3 + 1) / 2)
    )
    worst_res = 0.0
    bound_holds = True
    for _ in range(100):
        T1s = random_antihermitian(2, rng, traceless=True)
        T2 = random_antihermitian(2, rng, traceless=True)
        T3 = random_antihermitian(2, rng, traceless=True)
        mu = 2 * np.linalg.norm(T1s, 2) + 2 * np.linalg.norm(T2 + 1j * T3, 2) + 0.3
        T1 = T1s - 0.5j * mu * np.eye(2)
        fp = positive.factorize_triple(T1, T2, T3)
        beta = T2 + 1j * T3
        for th in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            z = np.exp(1j * th)
            Tz = beta + 2j * T1 * z + beta.conj().T * z * z
            worst_res = max(worst_res, float(np.max(np.abs(fp.polynomial_at(z) - Tz))))
        bound_holds = bound_holds and positive.norm_bound_check(T1, T2, T3)[2]
    ok = scalar_err < 1e-12 and worst_res < 1e-8 and bound_holds
    report(
        "criterion 9 Rosenblatt factorization",
        ok,
        f"scalar error {scalar_err:.1e} (< 1e-12), 100-sample residual {worst_res:.1e} "
        f"(< 1e-8), norm bound holds: {bound_holds}",
    )


def test_criterion_10_ab_flow():
    q = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    T1 = q[1] - 1.5j * np.eye(2)
    pair = positive.factorize_triple(T1, q[2], q[3])
    Apath, Bpath = positive.integrate_ab(pair.A, pair.B, (0.0, 1.0), steps=2000)
    R1, R2, R3 = positive.reconstruct(Apath, Bpath)
    init = np.array([Z2, T1, q[2], q[3]])
    direct = integrate(init, (0.0, 1.0), SolverConfig(steps=2000))
    dist = max(
        float(np.max(np.abs(R1 - direct.samples[:, 1]))),
        float(np.max(np.abs(R2 - direct.samples[:, 2]))),
        float(np.max(np.abs(R3 - direct.samples[:, 3]))),
    )
    tr = positive.ab_trace_invariant(Apath, Bpath)
    drift = float(np.max(np.abs(tr - tr[0])))
    ok = dist < 1e-6 and drift < 1e-10
    report(
        "criterion 10 A-B flow",
        ok,
        f"reconstruction vs direct {dist:.2e} (< 1e-6), trace drift {drift:.2e} (< 1e-10)",
    )


def test_criterion_11_stability(dv_reference):
    rep_stable = stability.stability_spectrum(E1, Z2, Z2)
    rep_unstable = stability.stability_spectrum(Z2, E1, Z2)

    # DV Jacobian against centered finite differences of the flow field
    basis = rep_stable.basis
    d = basis.shape[0]
    taus = [E1, Z2, Z2]
    eps = 1e-6
    FD = np.zeros((3 * d, 3 * d))
    for col in range(3 * d):
        c = np.zeros(3 * d)
        c[col] = 1.0
        direction = stability.triple_from_coordinates(c, basis)
        plus = flow.rhs_reduced(*[taus[i] + eps * direction[i] for i in range(3)])
        minus = flow.rhs_reduced(*[taus[i] - eps * direction[i] for i in range(3)])
        FD[:, col] = np.concatenate(
            [
                inner(basis, (p - m)[None] / (2 * eps))
                for p, m in zip(plus, minus)
            ]
        )
    jac_err = float(np.max(np.abs(dv_reference(taus, basis) - FD)))
    fd_eigs = np.sort_complex(np.linalg.eigvals(FD))
    eig_err = float(np.max(np.abs(np.sort_complex(rep_stable.dv_spectrum) - fd_eigs)))

    direction = stability.triple_from_coordinates(
        stability.stable_directions(rep_stable)[:, 0], basis
    )
    res = stability.halfline_convergence(taus, direction, amplitude=1e-4, horizon=8.0)
    rate_err = abs(res.fitted_rate - rep_stable.eta) / rep_stable.eta
    ok = (
        rep_stable.stable
        and not rep_unstable.stable
        and jac_err < 1e-6
        and eig_err < 1e-6
        and res.converged
        and rate_err < 0.10
    )
    report(
        "criterion 11 stability",
        ok,
        f"(e1,0,0) stable, (0,e1,0) unstable; DV vs FD {jac_err:.1e} (< 1e-6), "
        f"DV spectrum vs FD eigenvalues {eig_err:.1e} (< 1e-6); "
        f"decay rate {res.fitted_rate:.4f} vs {rep_stable.eta} ({100 * rate_err:.1f}% < 10%)",
    )


def test_criterion_12_equivariance(rng):
    traj = su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 2000)
    t = traj.times
    ok = True
    details = []

    # interior gauge transformations (identity at both ends)
    X = random_antihermitian(2, rng, traceless=True)
    Y = random_antihermitian(2, rng, traceless=True)
    u = np.array(
        [
            exp_unitary(m)
            for m in np.sin(np.pi * t)[:, None, None] * X
            + np.sin(2 * np.pi * t)[:, None, None] * Y
        ]
    )
    gauged = gauge_apply(u, traj)
    res_g = residual(gauged)
    curve_gap = float(
        np.max(np.abs(spectral.curve_path(gauged) - spectral.curve_path(traj)))
    )
    rep0, rep1 = degeneracy_report(traj), degeneracy_report(gauged)
    mono_gap = float(np.max(np.abs(monodromy(gauged).gamma - monodromy(traj).gamma)))
    ok = ok and res_g < 1e-6 and curve_gap < 1e-8
    ok = ok and rep0.verdict == rep1.verdict and abs(rep0.sigma_min - rep1.sigma_min) < 1e-6
    ok = ok and mono_gap < 1e-6
    details.append(
        f"gauge: residual {res_g:.1e}, curve {curve_gap:.1e}, sigma_min gap "
        f"{abs(rep0.sigma_min - rep1.sigma_min):.1e}, monodromy {mono_gap:.1e}"
    )

    # boundary action of G x G on the monodromy data
    path = 0.6 * X[None] * np.ones_like(t)[:, None, None] + (t**2)[:, None, None] * Y
    ub = np.array([exp_unitary(m) for m in path])
    u1, u2 = ub[0], ub[-1]
    md0, md1 = monodromy(traj), monodromy(gauge_apply(ub, traj))
    bd_gap = float(np.max(np.abs(md1.gamma - u2 @ md0.gamma @ u1.conj().T)))
    xi_gap = float(np.max(np.abs(md1.xi1 - u1 @ md0.xi1 @ u1.conj().T)))
    ok = ok and bd_gap < 1e-6 and xi_gap < 1e-10
    details.append(f"boundary: gamma {bd_gap:.1e}, xi {xi_gap:.1e}")

    # SO(1,2): boosts and rotations preserve residual, isospectrality and
    # the degeneracy verdict; rotations twist the curve coefficients by
    # the explicit phase law c_{k,j} -> exp(i (k - j) theta) c_{k,j}
    A = lorentz_boost(0.5, axis=2)
    boosted = lorentz_apply(A, traj)
    res_b = residual(boosted)
    iso_b = spectral.isospectral_drift(boosted)
    rep_b = degeneracy_report(boosted)
    theta = 0.8
    rotated = lorentz_apply(lorentz_rotation(theta), traj)
    c0 = spectral.char_poly(spectral.lax_from_quadruple(traj.samples[0]))
    c1 = spectral.char_poly(spectral.lax_from_quadruple(rotated.samples[0]))
    twist_gap = 0.0
    for k in range(1, 3):
        j = np.arange(2 * k + 1)
        predicted = np.exp(1j * (k - j) * theta) * c0.coefficients[k - 1]
        twist_gap = max(twist_gap, float(np.max(np.abs(predicted - c1.coefficients[k - 1]))))
    ok = ok and res_b < 1e-6 and iso_b < 1e-8
    ok = ok and rep_b.verdict == rep0.verdict and abs(rep_b.sigma_min - rep0.sigma_min) < 1e-6
    ok = ok and twist_gap < 1e-8
    details.append(
        f"SO(1,2): residual {res_b:.1e}, drift {iso_b:.1e}, sigma_min gap "
        f"{abs(rep_b.sigma_min - rep0.sigma_min):.1e}, rotation twist {twist_gap:.1e}"
    )
    report("criterion 12 equivariance suite", ok, "; ".join(details))
