"""Property tests of symmetries the paper's constructions rest on.

Each property is checked on inputs drawn by hypothesis; the file is
skipped when hypothesis is not installed.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nahmschmid import flow, spectral  # noqa: E402
from nahmschmid.degeneracy import shooting_matrix  # noqa: E402
from nahmschmid.liealg import (  # noqa: E402
    exp_unitary,
    inner,
    norm,
    random_antihermitian,
)

from helpers import random_unitary  # noqa: E402

# few examples, no per-example time limit and no saved failing examples
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY_SETTINGS
@given(
    seed=seeds,
    n=st.sampled_from([2, 3]),
    s=st.floats(min_value=-1.5, max_value=1.5),
    axis=st.sampled_from([2, 3]),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_flow_is_so12_equivariant(seed, n, s, axis, theta):
    # integrating A.T(0) gives A.T(t) for A in SO(1,2), with T0 != 0 in u(n)
    rng = np.random.default_rng(seed)
    quad = np.array([0.5 * random_antihermitian(n, rng) for _ in range(4)])
    A = flow.lorentz_boost(s, axis) @ flow.lorentz_rotation(theta)
    cfg = flow.SolverConfig(steps=50)
    moved = flow.lorentz_apply(A, flow.integrate(quad, (0.0, 1.0), cfg))
    direct = flow.integrate(moved.samples[0], (0.0, 1.0), cfg)
    assert np.max(np.abs(direct.samples - moved.samples)) < 1e-11


@PROPERTY_SETTINGS
@given(seed=seeds, n=st.integers(min_value=1, max_value=5))
def test_inner_is_ad_invariant(seed, n):
    # <u X u*, u Y u*> = <X, Y> for unitary u
    rng = np.random.default_rng(seed)
    X = random_antihermitian(n, rng)
    Y = random_antihermitian(n, rng)
    u = random_unitary(n, rng)
    uh = u.conj().T
    assert abs(inner(u @ X @ uh, u @ Y @ uh) - inner(X, Y)) < 1e-10


def assert_close_relative(got, ref, rtol):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@PROPERTY_SETTINGS
@given(seed=seeds, n=st.sampled_from([2, 3]))
def test_gauge_action_keeps_invariants_and_solutions(seed, n):
    # u.(T0, Ti) = (u T0 u* - u' u*, u Ti u*) with u(t) = exp(t X), T0 != 0
    rng = np.random.default_rng(seed)
    quad = np.array([0.5 * random_antihermitian(n, rng) for _ in range(4)])
    traj = flow.integrate(quad, (0.0, 1.0), flow.SolverConfig(steps=200))
    X = random_antihermitian(n, rng)
    g = flow.gauge_apply(np.array([exp_unitary(t * X) for t in traj.times]), traj)
    assert_close_relative(flow.conserved_paths(g), flow.conserved_paths(traj), 1e-11)
    assert_close_relative(spectral.curve_path(g), spectral.curve_path(traj), 1e-11)
    # the -u' u* term of T0 keeps g a solution; without it both are O(1)
    assert flow.residual(g) < 1e-3
    assert spectral.lax_residual(g) < 1e-3


@PROPERTY_SETTINGS
@given(seed=seeds, n=st.sampled_from([2, 3]))
def test_shooting_singular_values_are_gauge_invariant(seed, n):
    # Delta_T is gauge-covariant, so a gauge path u = exp(sin(pi t) X) leaves
    # the singular values of the shooting matrix unchanged, with T0 != 0
    rng = np.random.default_rng(seed)
    quad = np.array([0.5 * random_antihermitian(n, rng) for _ in range(4)])
    traj = flow.integrate(quad, (0.0, 1.0), flow.SolverConfig(steps=200))
    X = random_antihermitian(n, rng)
    u = np.array([exp_unitary(math.sin(math.pi * t) * X) for t in traj.times])
    sigma = np.linalg.svd(shooting_matrix(traj), compute_uv=False)
    moved = np.linalg.svd(shooting_matrix(flow.gauge_apply(u, traj)), compute_uv=False)
    assert_close_relative(moved, sigma, 1e-7)


# Worst Lax residual measured on this draw (unit-norm components, 200 steps)
# over seeds 0..1499 for n = 3 and 0..499 for n = 2, in all four algebra/T0
# cases: 9.4e-8 (su(2) with T0).  The bound leaves a factor of about 5; a
# non-solution leaves an O(1) residual.
LAX_RESIDUAL_BOUND = 5e-7


@PROPERTY_SETTINGS
@given(seed=seeds, n=st.sampled_from([2, 3]), traceless=st.booleans(), with_t0=st.booleans())
def test_lax_residual_is_small_on_solutions(seed, n, traceless, with_t0):
    # dT(zeta)/dt = [T(zeta), T+(zeta)] holds along every solution of the
    # full equations, in u(n) and su(n)
    rng = np.random.default_rng(seed)
    quad = np.array([random_antihermitian(n, rng, traceless=traceless) for _ in range(4)])
    quad = quad / norm(quad)[:, None, None]
    if not with_t0:
        quad[0] = 0.0
    traj = flow.integrate(quad, (0.0, 1.0), flow.SolverConfig(steps=200))
    assert spectral.lax_residual(traj) < LAX_RESIDUAL_BOUND
