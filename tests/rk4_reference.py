"""The functional RK4 loop: the bitwise reference for grids' buffered loop.

Each stage derivative is a new array returned by rhs(c, y), every step
allocates its temporaries and finiteness is checked after every step.
grids._rk4_loop keeps this arithmetic (the same stage inputs, sums and
scalar multiplies) with preallocated buffers, so the two agree bit for bit.
"""

import numpy as np


def rk4_loop_reference(rhs, coeff_nodes, coeff_mids, y0, h, project=None):
    y = np.array(y0, dtype=np.result_type(y0, coeff_nodes, coeff_mids))
    m = coeff_nodes.shape[0]
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
                exc = FloatingPointError(f"state became non-finite at step {k + 1}")
                exc.step = k + 1
                raise exc
            out[k + 1] = y
    return out


def rk4_reference(f, y0, t0, h, steps, project=None):
    """The functional counterpart of grids.rk4: f(t, y) returns the derivative."""
    nodes = t0 + h * np.arange(steps + 1)
    y0 = np.asarray(y0, dtype=complex)
    return rk4_loop_reference(f, nodes, nodes[:-1] + h / 2, y0, h, project)


def assert_same_bits(got, ref):
    """Equal doubles, signed zeros included (== treats -0.0 and 0.0 as equal)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    g, r = (np.ascontiguousarray(a).reshape(-1).view(np.float64) for a in (got, ref))
    assert np.array_equal(g, r)
    assert np.array_equal(np.signbit(g), np.signbit(r))
