import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import schur

from nahmschmid import flow
from nahmschmid.cli import main
from nahmschmid.flow import rhs_reduced
from nahmschmid.liealg import (
    coordinates,
    norm,
    random_antihermitian,
    random_unitary,
    su2_basis,
)
from nahmschmid.stability import (
    SPECTRUM_TOL,
    ConvergenceResult,
    halfline_convergence,
    stability_spectrum,
    stable_directions,
    triple_from_coordinates,
)

E1, E2, E3 = su2_basis()
Z2 = np.zeros((2, 2), dtype=complex)


def test_spectrum_tau1_only():
    rep = stability_spectrum(E1, Z2, Z2)
    assert_allclose(rep.operator_spectrum, [0.0, 1.0, 1.0], atol=1e-12)
    assert rep.stable
    assert rep.eta == pytest.approx(1.0, abs=1e-10)


def test_spectrum_tau2_only_unstable():
    rep = stability_spectrum(Z2, E1, Z2)
    assert_allclose(rep.operator_spectrum, [-1.0, -1.0, 0.0], atol=1e-12)
    assert not rep.stable
    # DV eigenvalues are then purely imaginary: no exponential approach
    assert np.max(np.abs(rep.dv_spectrum.real)) < 1e-10


def test_spectrum_mixed_triple():
    rep = stability_spectrum(2 * E1, E1, Z2)
    assert_allclose(rep.operator_spectrum, [0.0, 3.0, 3.0], atol=1e-12)
    assert rep.stable
    assert rep.eta == pytest.approx(np.sqrt(3.0), abs=1e-10)
    # DV spectrum is {0 (x5), +-sqrt(3) (x2 each)}
    s = np.sort_complex(rep.dv_spectrum)
    assert np.max(np.abs(s.imag)) < 1e-10


def test_spectrum_collinear_family(rng):
    # (c1 e1, c2 e1, c3 e1): eigenvalues {0, c1^2 - c2^2 - c3^2 twice}
    for _ in range(20):
        c1, c2, c3 = rng.uniform(-2, 2, size=3)
        rep = stability_spectrum(c1 * E1, c2 * E1, c3 * E1)
        lam = c1**2 - c2**2 - c3**2
        expected = np.sort(np.array([0.0, lam, lam]))
        assert_allclose(rep.operator_spectrum, expected, atol=1e-10)
        assert rep.stable == (lam >= -1e-10)


def test_operator_psd_for_pure_tau1(rng):
    for n in (2, 3):
        tau1 = random_antihermitian(n, rng)
        Z = np.zeros((n, n), dtype=complex)
        rep = stability_spectrum(tau1, Z, Z)
        assert rep.operator_spectrum[0] >= -1e-10
        assert rep.stable


def test_dv_matches_finite_difference_jacobian(dv_reference):
    rep = stability_spectrum(2 * E1, E1, Z2)
    basis = rep.basis
    d = basis.shape[0]
    taus = [2 * E1, E1, Z2]
    eps = 1e-6
    FD = np.zeros((3 * d, 3 * d))
    for col in range(3 * d):
        c = np.zeros(3 * d)
        c[col] = 1.0
        direction = triple_from_coordinates(c, basis)
        plus = rhs_reduced(*[taus[i] + eps * direction[i] for i in range(3)])
        minus = rhs_reduced(*[taus[i] - eps * direction[i] for i in range(3)])
        FD[:, col] = np.concatenate(
            [coordinates((p - m) / (2 * eps), basis) for p, m in zip(plus, minus)]
        )
    assert np.max(np.abs(dv_reference(taus, basis) - FD)) < 1e-6
    # eigenvalues agree as well
    fd_eigs = np.sort_complex(np.linalg.eigvals(FD))
    assert np.max(np.abs(np.sort_complex(rep.dv_spectrum) - fd_eigs)) < 1e-6


def test_noncommuting_rejected():
    with pytest.raises(ValueError):
        stability_spectrum(E1, E2, Z2)


def test_stable_directions_shape(dv_reference):
    rep = stability_spectrum(E1, Z2, Z2)
    dirs = stable_directions(rep)
    assert dirs.shape == (9, 2)
    # columns are orthonormal and invariant: DV v stays in the span
    assert_allclose(dirs.T @ dirs, np.eye(2), atol=1e-12)
    proj = dirs @ dirs.T
    DV = dv_reference([E1, Z2, Z2], rep.basis)
    assert np.max(np.abs((np.eye(9) - proj) @ DV @ dirs)) < 1e-10


def test_halfline_rate_matches_eigenvalue():
    rep = stability_spectrum(E1, Z2, Z2)
    direction = triple_from_coordinates(stable_directions(rep)[:, 0], rep.basis)
    res = halfline_convergence(
        [E1, Z2, Z2], direction, amplitude=1e-4, horizon=8.0, steps_per_unit=1000
    )
    assert res.converged and not res.diverged
    assert abs(res.fitted_rate - rep.eta) < 0.1 * rep.eta


def test_halfline_unstable_direction_diverges(dv_reference):
    rep = stability_spectrum(E1, Z2, Z2)
    DV = dv_reference([E1, Z2, Z2], rep.basis)
    _, Zm, k = schur(DV, output="real", sort=lambda re, im: re > 1e-10)
    assert k > 0
    direction = triple_from_coordinates(Zm[:, 0], rep.basis)
    res = halfline_convergence(
        [E1, Z2, Z2], direction, amplitude=1e-4, horizon=12.0, steps_per_unit=400
    )
    assert res.diverged and not res.converged


def _halfline_reference(tau, direction, amplitude, horizon, steps_per_unit):
    # the whole-trajectory form of halfline_convergence: integrate, then
    # take the deviation of every sample at once
    tau = [np.asarray(t, dtype=complex) for t in tau]
    direction = [np.asarray(v, dtype=complex) for v in direction]
    init = np.array(
        [np.zeros_like(tau[0])] + [tau[i] + amplitude * direction[i] for i in range(3)]
    )
    steps = max(int(round(horizon * steps_per_unit)), 10)
    traj = flow.integrate(init, (0.0, horizon), flow.SolverConfig(steps=steps))
    dev = np.sqrt(sum(norm(traj.samples[:, i + 1] - tau[i][None]) ** 2 for i in range(3)))
    t = traj.times
    mask = t >= 0.5 * horizon
    slope = np.polyfit(t[mask], np.log(np.maximum(dev[mask], 1e-300)), 1)[0]
    return t, dev, float(-slope)


def _diagonal_stable_triple(n):
    # tau_k = i diag(x) s_k with x in {0, 0.6}: a stable triple in u(n)
    x = np.array([0.0] * (n // 2) + [0.6] * (n - n // 2))
    return [1j * np.diag(x * s) for s in (1.0, 0.4, 0.3)]


@pytest.mark.parametrize("case", ["su2", "u4"])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_halfline_blocks_match_whole_trajectory(case, block, monkeypatch):
    # 200 steps end off the block boundary for blocks of 3 and 7; the
    # reference runs before the patch, as one rk4 call of 200 steps
    tau = [E1, Z2, Z2] if case == "su2" else _diagonal_stable_triple(4)
    rep = stability_spectrum(*tau)
    direction = triple_from_coordinates(stable_directions(rep)[:, 0], rep.basis)
    args = (tau, direction, 1e-4, 2.0, 100)
    t_ref, dev_ref, rate_ref = _halfline_reference(*args)
    assert len(t_ref) == 201 and flow._STEP_BLOCK >= 200
    monkeypatch.setattr(flow, "_STEP_BLOCK", block)
    res = halfline_convergence(*args)
    assert isinstance(res, ConvergenceResult)
    assert res.times.tobytes() == t_ref.tobytes()
    assert res.deviation.tobytes() == dev_ref.tobytes()
    assert np.float64(res.fitted_rate).tobytes() == np.float64(rate_ref).tobytes()
    assert np.signbit(res.fitted_rate) == np.signbit(rate_ref)


def test_halfline_memory_does_not_grow_with_horizon():
    # the states are held one block at a time; only the deviation path
    # (one float per step) grows with the horizon
    tau = _diagonal_stable_triple(16)
    rep = stability_spectrum(*tau)
    direction = triple_from_coordinates(stable_directions(rep)[:, 0], rep.basis)
    peaks = {}
    for horizon in (2.0, 8.0):
        tracemalloc.start()
        try:
            halfline_convergence(tau, direction, horizon=horizon, steps_per_unit=250)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8.0] <= 1.1 * peaks[2.0]


def test_halfline_failure_names_the_global_step(monkeypatch):
    # this su(2) data overflows RK4 at step 10 of 100; in blocks of 3 that
    # is the first step of the fourth block
    tau = [200.0 * E1, 100.0 * E2, 60.0 * E3]
    init = np.array([Z2] + tau)
    with pytest.raises(flow.NumericalFailure) as whole:
        flow.integrate(init, (0.0, 1.0), flow.SolverConfig(steps=100))
    monkeypatch.setattr(flow, "_STEP_BLOCK", 3)
    with pytest.raises(flow.NumericalFailure) as blocked:
        flow.integrate(init, (0.0, 1.0), flow.SolverConfig(steps=100))
    with pytest.raises(flow.NumericalFailure) as half:
        halfline_convergence(tau, [Z2, Z2, Z2], horizon=1.0, steps_per_unit=100)
    assert str(whole.value) == "state became non-finite at step 10"
    assert str(blocked.value) == str(half.value) == str(whole.value)


def test_halfline_zero_amplitude():
    rep = stability_spectrum(E1, Z2, Z2)
    direction = triple_from_coordinates(stable_directions(rep)[:, 0], rep.basis)
    res = halfline_convergence([E1, Z2, Z2], direction, amplitude=0.0, horizon=1.0,
                               steps_per_unit=100)
    assert np.isnan(res.fitted_rate)
    assert res.converged and not res.diverged


def _commuting_triple(n, kind, rng):
    # tau_k = U i diag(x_k) U*; "repeated" gives the joint eigenvalues
    # multiplicities (2, 1, 2), "traceless" puts the triple in su(n).  The
    # roots through the first joint eigenvalue have w1 >= 2 and
    # |w2|, |w3| <= 1.2, so sigma > 0 there: each triple has decaying modes.
    x = rng.uniform(-1.0, 1.0, size=(3, n)) * np.array([[1.0], [0.6], [0.6]])
    x[0, 0] = 3.0
    if kind == "repeated":
        x = x[:, [0, 0, 1, 2, 2]]
    elif kind == "traceless":
        x -= x.mean(axis=1, keepdims=True)
    U = random_unitary(n, rng)
    return [U @ np.diag(1j * xk) @ U.conj().T for xk in x]


def _spectrum_order(z):
    # sorted by rounded (re, im), so rounding noise in the real part of an
    # imaginary pair does not reorder it
    return z[np.lexsort((np.round(z.imag, 6), np.round(z.real, 6)))]


@pytest.mark.parametrize(
    "n, kind",
    [(2, "generic"), (3, "traceless"), (5, "generic"), (8, "generic"), (5, "repeated")],
)
def test_spectrum_and_directions_match_dense_dv(n, kind, dv_reference):
    rng = np.random.default_rng([20240817, n, len(kind)])
    taus = _commuting_triple(n, kind, rng)
    rep = stability_spectrum(*taus)
    DV = dv_reference(taus, rep.basis)
    d = rep.basis.shape[0]
    assert d == (n * n - 1 if kind == "traceless" else n * n)

    A1, A2, A3 = DV[2 * d :, d : 2 * d], -DV[:d, 2 * d :], DV[:d, d : 2 * d]
    op = A2 @ A2 + A3 @ A3 - A1 @ A1
    scale = np.max(np.abs(rep.operator_spectrum))
    assert_allclose(rep.operator_spectrum, np.linalg.eigvalsh(op), atol=1e-10 * scale)

    eigs = np.linalg.eigvals(DV)
    assert np.max(np.abs(_spectrum_order(rep.dv_spectrum) - _spectrum_order(eigs))) < 1e-8
    eta = np.min(eigs.real[eigs.real > 1e-10])
    assert rep.eta == pytest.approx(eta, rel=1e-10)

    _, Zs, k = schur(DV, output="real", sort=lambda re, im: re < -1e-10)
    dirs = stable_directions(rep)
    assert dirs.shape == (3 * d, k) and k > 0
    assert_allclose(dirs.T @ dirs, np.eye(k), atol=1e-12)
    proj_ref = Zs[:, :k] @ Zs[:, :k].T
    assert np.max(np.abs(dirs @ dirs.T - proj_ref)) < 1e-10
    q0 = dirs[:, 0]
    assert np.linalg.norm(DV @ q0 + rep.eta * q0) < 1e-12


@pytest.mark.parametrize("coeffs", [(1.0, 1.0, 0.0), (1.0, 0.6, 0.8)])
def test_marginal_triple_has_no_decay(coeffs, tmp_path):
    # every root has sigma = 0 and a nilpotent DV block: nothing decays
    rep = stability_spectrum(*[c * E1 for c in coeffs])
    assert rep.stable and rep.eta == 0.0
    assert np.all(rep.dv_spectrum == 0)
    assert stable_directions(rep).shape == (9, 0)

    out = tmp_path / "stab.json"
    triple = ",".join(repr(c) for c in coeffs)
    assert main(["stability", "--triple", triple, "--halfline", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["report"]["eta"] == 0.0
    assert all(z == [0.0, 0.0] for z in data["report"]["dv_spectrum"])
    assert "halfline" not in data


@pytest.mark.parametrize("c", [150.0, 300.0])
def test_large_marginal_triple_is_judged_relative_to_its_size(c):
    # tau_k = U i diag(c w_k, 0, 0) U* with w = (5, 3, 4) commutes exactly and
    # every sigma is c^2 (w1^2 - w2^2 - w3^2) = 0.  Rounding noise in the
    # brackets and in sigma grows as c^2 and must not read as non-commuting,
    # unstable or decaying.
    w = (5.0, 3.0, 4.0)
    for seed in range(6):
        U = random_unitary(3, np.random.default_rng(seed))
        taus = [U @ np.diag([1j * c * wk, 0.0, 0.0]) @ U.conj().T for wk in w]
        rep = stability_spectrum(*taus)
        assert rep.stable and rep.eta == 0.0
        assert np.all(rep.dv_spectrum == 0)
        assert stable_directions(rep).shape == (27, 0)
        assert SPECTRUM_TOL * c * c / 3 <= rep.tol <= SPECTRUM_TOL * (5 * c) ** 2


def test_tolerance_is_absolute_for_entries_up_to_one():
    assert stability_spectrum(2 * E1, E1, Z2).tol == SPECTRUM_TOL
    assert stability_spectrum(0.5 * E1, Z2, 2 * E1).tol == SPECTRUM_TOL
