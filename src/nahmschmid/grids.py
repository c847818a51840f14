"""Uniform time-grid utilities shared by the flow and shooting modules.

Contains 4th-order finite-difference stencils (matching the order of the
RK4 integrator), cubic interpolation to half-steps, and one RK4 loop fed
per-stage coefficients at the nodes and midpoints: the times themselves for
right-hand sides f(t, y) (:func:`rk4`), or grid samples of the coefficients
of a linear matrix ODE (:func:`rk4_sampled`).
"""

import numpy as np

# 4th-order first-derivative stencils / 12h.  Rows 0,1 are the one-sided
# stencils used at the left boundary; the interior stencil is centered.
_D1_LEFT0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_LEFT1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_D1_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

# 4th-order second-derivative stencils / 12h^2 (6-point one-sided rows).
_D2_LEFT0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_D2_LEFT1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0
_D2_CENTER = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

# cubic (4-point) interpolation weights to the midpoint of an interval
_MID_EDGE = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_MID_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0


def _stencil(samples, edge_rows, center, right_sign):
    """Apply a stencil along axis 0: one-sided rows at the ends, `center` inside.

    Output i is edge row i applied to the first samples; output -1-i is the
    same row applied to the last samples in reverse order, negated when
    right_sign < 0.  The core sums the nonzero `center` terms left to right.
    """
    m, e, c = samples.shape[0], len(edge_rows), len(center)
    out = np.empty((m - c + 1 + 2 * e,) + samples.shape[1:], dtype=samples.dtype)
    for i, row in enumerate(edge_rows):
        out[i] = np.tensordot(row, samples[: len(row)], axes=(0, 0))
        right = np.tensordot(row, samples[::-1][: len(row)], axes=(0, 0))
        out[-1 - i] = -right if right_sign < 0 else right
    core = None
    for j, w in enumerate(center):
        if w != 0.0:
            term = samples[j : m - c + 1 + j] * w
            core = term if core is None else core + term
    out[e:-e] = core
    return out


def derivative(samples, h):
    """4th-order first derivative of grid samples along axis 0.

    Centered in the interior, one-sided at the two ends.  Needs at least
    five samples.
    """
    samples = np.asarray(samples)
    if samples.shape[0] < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    return _stencil(samples, (_D1_LEFT0, _D1_LEFT1), _D1_CENTER, -1.0) / h


def second_derivative(samples, h):
    """4th-order second derivative of grid samples along axis 0."""
    samples = np.asarray(samples)
    if samples.shape[0] < 6:
        raise ValueError("need at least 6 samples for the 4th-order stencil")
    return _stencil(samples, (_D2_LEFT0, _D2_LEFT1), _D2_CENTER, 1.0) / (h * h)


def midpoints(samples):
    """Cubic interpolation of grid samples to interval midpoints.

    For samples of shape (m, ...) returns shape (m-1, ...), entry k being
    the interpolant at t_k + h/2.
    """
    samples = np.asarray(samples)
    if samples.shape[0] < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    return _stencil(samples, (_MID_EDGE,), _MID_CENTER, 1.0)


def rk4(f, y0, t0, h, steps, project=None, out=None):
    """Classical fixed-step RK4 for dy/dt = f(t, y); returns all samples.

    y may be an ndarray of any shape.  An optional `project` map is applied
    after every step (anti-Hermitian or unitary reprojection).  The samples
    are written to `out` when given, a complex (steps+1, ...) array or view,
    and that array is returned.  Raises FloatingPointError when the state
    stops being finite.
    """
    nodes = t0 + h * np.arange(steps + 1)
    y0 = np.asarray(y0, dtype=complex)
    return _rk4_loop(f, nodes, nodes[:-1] + h / 2, y0, h, project, out)


def rk4_sampled(rhs, coeff_nodes, coeff_mids, y0, h, project=None):
    """RK4 for a linear ODE whose coefficient path is sampled on the grid.

    rhs(coeff, y) evaluates the right-hand side; coeff_nodes has shape
    (m, ...) and coeff_mids (m-1, ...) holds the half-step values (from
    :func:`midpoints` or a closed form).  The state keeps the common dtype
    of y0 and the coefficients, so a real system is stepped in real
    arithmetic.
    """
    return _rk4_loop(rhs, coeff_nodes, coeff_mids, y0, h, project)


def _rk4_loop(rhs, coeff_nodes, coeff_mids, y0, h, project, out=None):
    # the one RK4 loop: step k evaluates rhs at node k, twice at midpoint k
    # and at node k+1.  Both entry points call it directly, so a wrapper
    # around one of them never sees the other's steps.  Overflow inside a
    # step is left to the finiteness check, which names the step, instead
    # of numpy's RuntimeWarnings.
    y = np.array(y0, dtype=np.result_type(y0, coeff_nodes, coeff_mids))
    m = coeff_nodes.shape[0]
    if out is None:
        out = np.empty((m,) + y.shape, dtype=y.dtype)
    out[0] = y
    half, sixth = 0.5 * h, h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m - 1):
            k1 = rhs(coeff_nodes[k], y)
            k2 = rhs(coeff_mids[k], y + half * k1)
            k3 = rhs(coeff_mids[k], y + half * k2)
            k4 = rhs(coeff_nodes[k + 1], y + h * k3)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if project is not None:
                y = project(y)
            if not np.isfinite(y).all():
                raise FloatingPointError(f"state became non-finite at step {k + 1}")
            out[k + 1] = y
    return out


def unitarize(U):
    """Nearest unitary matrix (polar factor) via the SVD."""
    W, _, Vh = np.linalg.svd(U)
    return W @ Vh
