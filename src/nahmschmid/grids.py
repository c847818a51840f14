"""Uniform time-grid utilities shared by the flow and shooting modules.

Contains 4th-order finite-difference stencils (matching the order of the
RK4 integrator), cubic interpolation to half-steps, the check of a grid's
span and step count, and two RK4 steppers: :func:`rk4` for autonomous
right-hand sides f(y), and :func:`rk4_sampled` for the linear second-order
system x'' = C(t) x with C sampled at the grid nodes and midpoints.

Right-hand sides write in place: f(y, k) writes the derivative of the
state y into the buffer k, which has y's shape and dtype.  The loop of
:func:`rk4` allocates its stage buffers once per call and writes each new
state straight into its row of the output, so a step allocates nothing
beyond what the right-hand side does: for the flow, the gather of its
right-hand side, whose products go to a workspace of the flow.

x'' = C(t) x, stepped as the state y = (x, v), is linear, so each of its
RK4 steps is one matrix: y_{k+1} = P_k y_k.  :func:`rk4_sampled` builds
every P_k of its call with stacked operations and then takes one matmul
per step.

Finiteness is checked once per call, on the last state.  A non-finite entry
stays non-finite in every later state: a new state of :func:`rk4` is the
old one plus an increment, and one of :func:`rk4_sampled` has in each
column a sum over the whole column of the old one.  So a finite last state
means every state is finite, and only a failing call scans its rows for the
first non-finite step.  The scan takes one row at a time, so the check
builds no temporary of the size of the output.
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


def check_grid(t_span, steps):
    """(t_start, t_end) of t_span as floats; ValueError for steps < 1 or t_end <= t_start."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_end must exceed t_start")
    return t0, t1


def rk4(f, y0, h, steps, out=None):
    """Classical fixed-step RK4 for the autonomous dy/dt = f(y); returns all samples.

    f(y, k) writes the derivative into k.  y may be an ndarray of any
    shape.  The samples are written to `out` when given, a complex
    (steps+1, ...) array or view, and that array is returned.  Raises
    FloatingPointError when the state stops being finite; its `step`
    attribute is the first failing step (1-based).
    """
    # Overflow inside a step is left to the finiteness check, which names
    # the step, instead of numpy's RuntimeWarnings.  The stage inputs are
    # y + half*k1, y + half*k2, y + h*k3 and the new state
    # y + sixth*(((k1 + 2*k2) + 2*k3) + k4), summed into k2, k3 and k4 in
    # that order
    y0 = np.asarray(y0, dtype=complex)
    if out is None:
        out = np.empty((steps + 1,) + y0.shape, dtype=complex)
    out[0] = y0
    # indexing with `...` keeps a 0-d state a 0-d array, not a scalar
    K = np.empty((5,) + y0.shape, dtype=complex)
    k1, k2, k3, k4, Y = (K[i, ...] for i in range(5))
    # 0-d complex arrays: the values numpy casts a Python float to, at less
    # cost per call
    half, full, two, sixth = (np.array(c, dtype=complex) for c in (0.5 * h, h, 2.0, h / 6.0))
    y = out[0, ...]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            f(y, k1)
            f(np.add(y, np.multiply(half, k1, out=Y), out=Y), k2)
            f(np.add(y, np.multiply(half, k2, out=Y), out=Y), k3)
            f(np.add(y, np.multiply(full, k3, out=Y), out=Y), k4)
            np.multiply(two, K[1:3], out=K[1:3])  # 2*k2 and 2*k3 in one call
            np.add(k1, k2, out=k2)
            np.add(k2, k3, out=k3)
            np.add(k3, k4, out=k4)
            y = np.add(y, np.multiply(sixth, k4, out=k4), out=out[k + 1, ...])
    _check_finite(out)
    return out


def rk4_sampled(coeff_nodes, coeff_mids, y0, h):
    """RK4 for x'' = C(t) x, with the (d, d) coefficient C sampled on the grid.

    y0 = (x, v) is the (2, d, ...) initial state; coeff_nodes has shape
    (m, d, d) and coeff_mids (m-1, d, d) holds the half-step values (from
    :func:`midpoints` or a closed form).  Returns all m states.  The state
    keeps the common dtype of y0 and the coefficients, so a real system is
    stepped in real arithmetic.

    The system is linear, so step k is one matrix: y_{k+1} = P_k y_k.  With
    E0, Em and E1 the scaled coefficient h^2 C at node k, midpoint k and
    node k+1, the four stages of RK4 expand to the blocks

        P = [[I + (E0 + 2 Em)/6 + Em E0/24,   h (I + Em/6)],
             [((E0 + 4 Em + E1)/6 + (Em E0 + E1 Em)/12) / h,
              I + (2 Em + E1)/6 + E1 Em/24]].

    Every P_k of the call is built at once, by two stacked products and
    stacked block sums, and each step is then one matmul.  Raises
    FloatingPointError when the state stops being finite; its `step`
    attribute is the first failing step (1-based).
    """
    y0 = np.asarray(y0)
    dtype = np.result_type(y0, coeff_nodes, coeff_mids)
    m, d = coeff_nodes.shape[0], coeff_nodes.shape[-1]
    out = np.empty((m,) + y0.shape, dtype=dtype)
    out[0] = y0
    # P[k] is the (2d, 2d) propagator [[A, B], [G, D]] of step k.  Its four
    # (d, d) blocks are strided views, which cost one inner loop per row, so
    # each block is written once, from sums formed contiguously.  With
    # W = I/6 + Em/24 and V = Em/3 the blocks are A = I + W E0 + V,
    # D = I + E1 W + V, B = h I + (h/2) V and
    # G = (W E0 + E1 W + V - (E0 + E1)/12) / (h/2)
    P = np.empty((m - 1, 2, d, 2, d), dtype=dtype)
    A, B, G, D = (P[:, i, :, j, :] for i in (0, 1) for j in (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        # h^2 C as (h C) h: a zero C stays zero where h^2 overflows
        E = coeff_nodes * h
        E *= h
        E0, E1 = E[:-1], E[1:]
        W = coeff_mids * h
        W *= h / 24.0
        W.reshape(m - 1, d * d)[:, :: d + 1] += 1.0 / 6.0
        X0 = np.matmul(W, E0)
        X1 = np.matmul(E1, W)
        V = np.multiply(coeff_mids, h, out=W)
        V *= h / 3.0
        np.add(X0, V, out=A)
        np.add(X1, V, out=D)
        np.multiply(V, h / 2.0, out=B)
        X0 += X1
        X0 += V
        np.add(E0, E1, out=W)
        W /= 12.0
        X0 -= W
        np.divide(X0, h / 2.0, out=G)
        flat = P.reshape(m - 1, 4 * d * d)
        flat[:, :: 2 * d + 1] += 1.0  # the diagonals of A and D
        flat[:, d : 2 * d * d : 2 * d + 1] += h  # the diagonal of B
        Y = out.reshape(m, 2 * d, -1)
        for k, Pk in enumerate(P.reshape(m - 1, 2 * d, 2 * d)):
            np.matmul(Pk, Y[k], out=Y[k + 1])
    _check_finite(out)
    return out


def _check_finite(out):
    # the check of the module docstring, on the samples `out` of one call
    m = out.shape[0]
    if m > 1 and not np.isfinite(out[-1, ...]).all():
        step = next(k for k in range(1, m) if not np.isfinite(out[k, ...]).all())
        exc = FloatingPointError(f"state became non-finite at step {step}")
        exc.step = step
        raise exc


def unitarize(U):
    """Nearest unitary matrix (polar factor) via the SVD."""
    W, _, Vh = np.linalg.svd(U)
    return W @ Vh
