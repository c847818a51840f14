"""Uniform time-grid utilities shared by the flow and shooting modules.

Contains 4th-order finite-difference stencils (matching the order of the
RK4 integrator), cubic interpolation to half-steps, and one RK4 loop fed
per-stage coefficients at the nodes and midpoints: the times themselves for
right-hand sides f(t, y) (:func:`rk4`), or grid samples of the coefficient
C of a second-order system x'' = C(t) x (:func:`rk4_sampled`).

Right-hand sides write in place: rhs(c, y, k) writes the derivative of the
state y into the buffer k, which has y's shape and dtype.  The loop
allocates its stage buffers once per call and writes each new state
straight into its row of the output, so a step allocates nothing beyond
what the right-hand side does: for the flow, the gather of its right-hand
side, whose products go to a workspace of the flow.

The second-order system x'' = C(t) x, stepped as the state (x, v), takes
no right-hand side: the loop forms each stage's f_i = C x_i itself, with
one `np.dot` into a fixed view.  Each stage is one buffer (x_i, v_i, f_i)
of leading length 3: its first two rows are the stage input, its last two
the stage derivative (v_i, f_i), which is a view and not a copy.  The
first stage's input (x_1, v_1) is copied from the state.

Finiteness is checked once per call, on the last state.  A non-finite entry
stays non-finite in every later state: each new entry is the old one plus
an increment.  So a finite last state means every state is finite, and
only a failing call scans its rows for the first non-finite step.  The
scan takes one row at a time, so the check builds no temporary of the size
of the output.
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


def rk4(f, y0, t0, h, steps, out=None):
    """Classical fixed-step RK4 for dy/dt = f(t, y); returns all samples.

    f(t, y, k) writes the derivative into k.  y may be an ndarray of any
    shape.  The samples are written to `out` when given, a complex
    (steps+1, ...) array or view, and that array is returned.  Raises
    FloatingPointError when the state stops being finite; its `step`
    attribute is the first failing step (1-based).
    """
    nodes = t0 + h * np.arange(steps + 1)
    y0 = np.asarray(y0, dtype=complex)
    return _rk4_loop(f, nodes, nodes[:-1] + h / 2, y0, h, out)


def rk4_sampled(coeff_nodes, coeff_mids, y0, h):
    """RK4 for x'' = C(t) x, with the (d, d) coefficient C sampled on the grid.

    y0 = (x, v) is the (2, d, ...) initial state; coeff_nodes has shape
    (m, d, d) and coeff_mids (m-1, d, d) holds the half-step values (from
    :func:`midpoints` or a closed form).  The state keeps the common dtype
    of y0 and the coefficients, so a real system is stepped in real
    arithmetic, in the stage layout of the module docstring.
    """
    return _rk4_loop(None, coeff_nodes, coeff_mids, y0, h)


def _rk4_loop(rhs, coeff_nodes, coeff_mids, y0, h, out=None):
    # the one RK4 loop: step k evaluates rhs (or C x, when rhs is None) at
    # node k, twice at midpoint k and at node k+1.  Both entry points call
    # it directly, so a wrapper around one never sees the other's steps.
    # Overflow inside a step is left to the finiteness check, which names
    # the step, instead of numpy's RuntimeWarnings.  The stage inputs are
    # y + half*k1, y + half*k2, y + h*k3 and the new state
    # y + sixth*(((k1 + 2*k2) + 2*k3) + k4), summed into k2, k3 and k4 in
    # that order and never into k1, whose first half is the state's v in
    # the second-order layout.
    y0 = np.asarray(y0)
    dtype = np.result_type(y0, coeff_nodes, coeff_mids)
    m = coeff_nodes.shape[0]
    if out is None:
        out = np.empty((m,) + y0.shape, dtype=dtype)
    out[0] = y0
    if rhs is None:
        # stage i is B[i] = (x_i, v_i, f_i): input B[i, :2], derivative B[i, 1:]
        B = np.empty((4, 3) + y0.shape[1:], dtype=dtype)
        k1, k2, k3, k4 = B[:, 1:]
        Y1, Y2, Y3, Y4 = B[:, :2]
        (x1, x2, x3, x4), (f1, f2, f3, f4) = B[:, 0], B[:, 2]
        stage = np.dot
        doubled = (k2, k3)  # B[1:3, 1:] is strided, slower than two calls
    else:
        # indexing with `...` keeps a 0-d state a 0-d array, not a scalar
        K = np.empty((5,) + y0.shape, dtype=dtype)
        k1, k2, k3, k4, Y2 = (K[i, ...] for i in range(5))
        Y3 = Y4 = x2 = x3 = x4 = Y2
        f2, f3, f4 = k2, k3, k4
        stage = rhs
        doubled = (K[1:3],)  # 2*k2 and 2*k3 in one call
    # 0-d arrays of the state's dtype: the values numpy casts a Python float
    # to, at less cost per call
    half, full, two, sixth = (np.array(c, dtype=dtype) for c in (0.5 * h, h, 2.0, h / 6.0))
    y = out[0, ...]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (c0, cm, c1) in enumerate(zip(coeff_nodes, coeff_mids, coeff_nodes[1:])):
            if rhs is None:
                Y1[...] = y
                np.dot(c0, x1, out=f1)
            else:
                rhs(c0, y, k1)
            np.add(y, np.multiply(half, k1, out=Y2), out=Y2)
            stage(cm, x2, f2)
            np.add(y, np.multiply(half, k2, out=Y3), out=Y3)
            stage(cm, x3, f3)
            np.add(y, np.multiply(full, k3, out=Y4), out=Y4)
            stage(c1, x4, f4)
            for a in doubled:
                np.multiply(two, a, out=a)
            np.add(k1, k2, out=k2)
            np.add(k2, k3, out=k3)
            np.add(k3, k4, out=k4)
            y = np.add(y, np.multiply(sixth, k4, out=k4), out=out[k + 1, ...])
    if m > 1 and not np.isfinite(y).all():  # y is the last state
        step = next(k for k in range(1, m) if not np.isfinite(out[k, ...]).all())
        exc = FloatingPointError(f"state became non-finite at step {step}")
        exc.step = step
        raise exc
    return out


def unitarize(U):
    """Nearest unitary matrix (polar factor) via the SVD."""
    W, _, Vh = np.linalg.svd(U)
    return W @ Vh
