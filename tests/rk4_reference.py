"""The functional RK4 loop: the bitwise reference for grids' buffered loop.

Each stage derivative is a new array returned by rhs(c, y), every step
allocates its temporaries and finiteness is checked after every step.
grids.rk4 keeps this arithmetic (the same stage inputs, sums and scalar
multiplies) with preallocated buffers, so the two agree bit for bit.
grids.rk4_sampled steps x'' = C x by one propagator matrix per step, the
four stages expanded and summed in another order, so with the right-hand
side (v, C x) this loop is its reference to rounding.
The flow's right-hand side in its three-product form A - A^H, out of place,
is the bitwise reference for flow._rhs_stacked, and the reduced flow
stepped with it from the once-projected triple is the reference for the
flow's steps.  The A-B right-hand side in its three-temporaries form is
kept here too, as the bitwise reference for positive._ab_rhs, and the
gauge factor of a constant T0 over a whole path at once, as the bitwise
reference for the chunked, in-place conjugation in flow.integrate.
"""

import numpy as np

from nahmschmid.liealg import bracket, project_antihermitian


def rk4_loop_reference(rhs, coeff_nodes, coeff_mids, y0, h):
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
            if not np.isfinite(y).all():
                exc = FloatingPointError(f"state became non-finite at step {k + 1}")
                exc.step = k + 1
                raise exc
            out[k + 1] = y
    return out


def rk4_reference(f, y0, h, steps):
    """The functional counterpart of grids.rk4: f(y) returns the derivative."""
    unread = np.zeros(steps + 1)  # an autonomous f reads no coefficient
    y0 = np.asarray(y0, dtype=complex)
    return rk4_loop_reference(lambda c, y: f(y), unread, unread[:-1], y0, h)


def rhs_reference(Y, T0=None):
    """(-[T2,T3], [T3,T1], [T1,T2]) of Y = (T1, T2, T3) as A - A^H for
    A = (T3T2, T3T1, T1T2), each a new array; minus [T0, Y] when T0 is given."""
    A = Y[[2, 2, 0]] @ Y[[1, 0, 1]]
    out = A - A.conj().swapaxes(-1, -2)
    return out if T0 is None else out - bracket(T0[None], Y)


def flow_reference(Y0, h, steps):
    """The reduced flow from Y0 = (T1, T2, T3): projected once, then RK4 steps
    of rhs_reference with no projection."""
    return rk4_reference(rhs_reference, project_antihermitian(Y0), h, steps)


def gauge_factor_reference(T0, Y, h):
    """Reduced states Y (m, 3, n, n) at t0 + k h conjugated by u = exp(-k h T0).

    u comes from one eigendecomposition -i T0 = V diag(w) V*, as
    V diag(exp(-i w k h)) V*; row 0 (u = 1) is returned as it is.
    """
    w, V = np.linalg.eigh(-1j * T0)
    k = np.arange(1, len(Y))
    u = (V * np.exp(-1j * np.multiply.outer(h * k, w))[:, None, :]) @ V.conj().T
    conj = project_antihermitian(u[:, None] @ Y[1:] @ u.conj().swapaxes(-1, -2)[:, None])
    return np.concatenate([Y[:1], conj])


def ab_rhs_reference(A, B):
    """(A', B') stacked, as 0.5 * (B*B A - AB B*) and 0.5 * (A*A B - BA A*)."""
    Ah, Bh = A.conj().swapaxes(-1, -2), B.conj().swapaxes(-1, -2)
    dA = 0.5 * (Bh @ B @ A - A @ B @ Bh)
    dB = 0.5 * (Ah @ A @ B - B @ A @ Ah)
    return np.stack([dA, dB])


def assert_same_bits(got, ref):
    """Equal doubles, signed zeros included (== treats -0.0 and 0.0 as equal)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    g, r = (np.ascontiguousarray(a).reshape(-1).view(np.float64) for a in (got, ref))
    assert np.array_equal(g, r)
    assert np.array_equal(np.signbit(g), np.signbit(r))
