"""Per-call timings of the kernels under the flow and the shooting.

At n = 2, 4, 8, 16 it times, in seconds per call and best of REPEAT runs:

  rhs             flow._rhs_stacked on a (3, n, n) state, T0 = 0, as the
                  flow calls it, with the flow's workspace
  flow_step       one RK4 step of the flow: flow._flow_blocks over one
                  block of _STEP_BLOCK steps (rhs and RK4), divided by the
                  steps
  flow_t0_step    one step of the flow with a constant T0 != 0:
                  flow.integrate over _STEP_BLOCK steps (the reduced steps
                  and the conjugation by the gauge factor of T0), divided
                  by the steps
  shoot_step      one RK4 step of the shooting, x'' = M x on a real
                  (2, d, d) state with d = n^2 - 1, over a call of 16
                  steps through grids.rk4_sampled (which builds each
                  step's (2d, 2d) propagator and takes one matmul per step)
  jacobi          elliptic.jacobi per call, at the 501 sample arguments
                  a t + b of flow.su2_closed_form_trajectory(2.0, 0.3, 0.9,
                  (0, 1), 500), in the order it calls them (the same at
                  every n)
  char_poly       spectral.char_poly of the Lax polynomial of a quadruple
  double_bracket  liealg.double_bracket_matrix per time, over the block of
                  times the shooting forms at once, with the basis's
                  operands built once beforehand (liealg.AdjointBasis) as
                  the shooting builds them
  ab_rhs          the A-B factor flow's right-hand side on a (2, n, n)
                  state: positive._ab_rhs into a stage buffer with one
                  workspace
  ab_step         one RK4 step of the A-B flow: positive.integrate_ab over
                  AB_STEPS steps, divided by the steps
  export          the JSON export of an EXPORT_STEPS-step trajectory as
                  `integrate` writes it (serialize.trajectory_to_obj, then
                  cli._emit of serialize.iterdumps' pieces) into a
                  temporary file, divided by the floats written

Each run's time is corrected for the speed of a shared host, as the
benchmark does: it is divided by the duration of a pure-Python reference
loop around the run, over that loop's nominal duration, so it reads as
seconds at the nominal speed.  The data are su(n) elements of scale
0.5/sqrt(n) from a fixed seed.  A run is appended to the JSON file named by
--output (a list of runs), with its label and the versions it ran with.
Compare runs only when they come from one host in one session, ideally
alternating.  The tool calls the package's current internals, the
clockless flow._flow_blocks(y, h, steps) among them, so it times only
source trees from the clockless RK4 on; an older tree stops with a
TypeError.

    python3 tools/layer_times.py --output BENCH.json --label change
    python3 tools/layer_times.py --src ../other/src --output BENCH.json --label parent
"""

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time

SIZES = (2, 4, 8, 16)
REPEAT = 20
AB_STEPS = 64
EXPORT_STEPS = 2000
JACOBI_SAMPLES = 501


# duration of _reference() at the nominal host speed; it only fixes the
# scale of the corrected times
REF_NOMINAL_S = 0.004


def _reference():
    # a fixed pure-Python loop that touches neither numpy nor the package
    t = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i
    return time.perf_counter() - t


def _best(fn, calls):
    # best over REPEAT runs of the mean time of `calls` calls, each divided
    # by the host speed around it: the geometric mean of the reference
    # durations before and after the run, over REF_NOMINAL_S
    best = float("inf")
    before = _reference()
    for _ in range(REPEAT):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call = (time.perf_counter() - t) / calls
        after = _reference()
        best = min(best, per_call * REF_NOMINAL_S / math.sqrt(before * after))
        before = after
    return best


def _kernels(n, np, flow, grids, liealg, spectral, degeneracy, positive, cli, serialize, elliptic,
             tmp):
    # (name, callable, calls per run, divisor to a per-unit time)
    rng = np.random.default_rng([41, n])
    scale = 0.5 / np.sqrt(n)
    quad = np.array([np.zeros((n, n), dtype=complex)] + [
        scale * liealg.random_antihermitian(n, rng, traceless=True) for _ in range(3)])
    Y, k = quad[1:].copy(), np.empty((3, n, n), dtype=complex)
    work = flow._rhs_workspace(n)
    steps = flow._STEP_BLOCK

    def flow_block():
        for _ in flow._flow_blocks(quad[1:], 1.0 / steps, steps):
            pass

    quad_t0 = quad.copy()
    quad_t0[0] = scale * liealg.random_antihermitian(n, np.random.default_rng([43, n]))
    config = flow.SolverConfig(steps=steps)

    basis = liealg.orthonormal_basis(n, traceless=True)
    d = basis.shape[0]
    adjoint = liealg.AdjointBasis(basis)
    shoot_steps = 16
    C = rng.standard_normal((2 * shoot_steps + 1, d, d)) / d
    Y0 = np.stack([np.zeros((d, d)), np.eye(d)])
    shoot = lambda: grids.rk4_sampled(C[: shoot_steps + 1], C[shoot_steps + 1 :], Y0,
                                      1.0 / shoot_steps)
    ts = np.linspace(0.0, 1.0, JACOBI_SAMPLES).tolist()
    jacobi = lambda: [elliptic.jacobi(2.0 * t + 0.3, 0.9) for t in ts]
    block = max(1, (degeneracy._FORM_BLOCK_ENTRIES // (d * n * n) - 1) // 2)
    times = 2 * block + 1
    T = quad[None, 1:] * (1.0 + 0.01 * np.arange(times))[:, None, None, None]
    lax = spectral.lax_from_quadruple(quad)
    signs = (-1.0, 1.0, 1.0)
    heavy = n >= 16
    AB = np.stack([quad[1], quad[2] + 1j * quad[3]])
    ab_work, kab = positive._ab_workspace(n), np.empty_like(AB)
    traj = flow.integrate(quad, (0.0, 1.0), flow.SolverConfig(steps=EXPORT_STEPS))
    target = argparse.Namespace(output=os.path.join(tmp, "export.json"))
    export = lambda: cli._emit(
        target, serialize.iterdumps({"trajectory": serialize.trajectory_to_obj(traj)}))
    return [
        ("rhs", lambda: flow._rhs_stacked(Y, out=k, work=work), 200, 1),
        ("flow_step", flow_block, 1, steps),
        ("flow_t0_step", lambda: flow.integrate(quad_t0, (0.0, 1.0), config), 1, steps),
        ("shoot_step", shoot, 1 if heavy else 4, shoot_steps),
        ("jacobi", jacobi, 1, JACOBI_SAMPLES),
        ("char_poly", lambda: spectral.char_poly(lax), 2 if heavy else 10, 1),
        ("double_bracket", lambda: liealg.double_bracket_matrix(T, signs, adjoint),
         1 if heavy else 4, times),
        ("ab_rhs", lambda: positive._ab_rhs(AB, out=kab, work=ab_work), 200, 1),
        ("ab_step", lambda: positive.integrate_ab(AB[0], AB[1], (0.0, 1.0), steps=AB_STEPS),
         1, AB_STEPS),
        ("export", export, 1, traj.samples.size * 2),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--output", required=True, help="JSON file the run is appended to")
    ap.add_argument("--label", default="", help="name of the run, e.g. the commit")
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source tree that holds the nahmschmid package")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from nahmschmid import (cli, degeneracy, elliptic, flow, grids, liealg, positive, serialize,
                            spectral)

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            for name, fn, calls, per in _kernels(n, np, flow, grids, liealg, spectral,
                                                 degeneracy, positive, cli, serialize, elliptic,
                                                 tmp):
                fn()  # warm-up
                results.setdefault(name, {})[str(n)] = _best(fn, calls) / per
    run = {
        "label": args.label,
        "repeat": REPEAT,
        "unit": "s per call at the nominal host speed (flow_step, flow_t0_step, shoot_step, "
                "ab_step: per step; jacobi: per sample; double_bracket: per time; "
                "export: per float)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "results": results,
    }
    runs = []
    if os.path.exists(args.output):
        with open(args.output) as fh:
            runs = json.load(fh)
    runs.append(run)
    with open(args.output, "w") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")
    for name, by_n in results.items():
        cells = "  ".join(f"n={n}: {t * 1e6:9.2f} us" for n, t in by_n.items())
        print(f"{name:15s} {cells}")


if __name__ == "__main__":
    main()
