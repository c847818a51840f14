import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import schur

from nahmschmid.cli import main
from nahmschmid.flow import rhs_reduced
from nahmschmid.liealg import (
    coordinates,
    random_antihermitian,
    random_unitary,
    su2_basis,
)
from nahmschmid.stability import (
    SPECTRUM_TOL,
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
