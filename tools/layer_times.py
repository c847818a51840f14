"""Per-call timings of the kernels under the flow and the shooting.

At n = 2, 4, 8, 16 it times, in seconds per call and best of REPEAT runs:

  rhs             flow._rhs_stacked on a (3, n, n) state, T0 = 0, as the
                  flow calls it (with the flow's workspace where the
                  checkout has one)
  flow_step       one RK4 step of the flow: flow._flow_blocks over one
                  block of _STEP_BLOCK steps (rhs, RK4 and projection),
                  divided by the steps
  shoot_step      one RK4 step of the shooting, x'' = M x on a real
                  (2, d, d) state with d = n^2 - 1, through
                  grids.rk4_sampled in its second-order layout
  char_poly       spectral.char_poly of the Lax polynomial of a quadruple
  double_bracket  liealg.double_bracket_matrix per time, over the block of
                  times the shooting forms at once

Each run's time is corrected for the speed of a shared host, as the
benchmark does: it is divided by the duration of a pure-Python reference
loop around the run, over that loop's nominal duration, so it reads as
seconds at the nominal speed.  The data are su(n) elements of scale
0.5/sqrt(n) from a fixed seed.  A run is appended to the JSON file named by
--output (a list of runs), with its label and the versions it ran with.
Compare runs only when they come from one host in one session, ideally
alternating.

    python3 tools/layer_times.py --output BENCH.json --label change
    python3 tools/layer_times.py --src ../other/src --output BENCH.json --label parent
"""

import argparse
import json
import math
import os
import platform
import sys
import time

SIZES = (2, 4, 8, 16)
REPEAT = 20


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


def _kernels(n, np, flow, grids, liealg, spectral, degeneracy):
    # (name, callable, calls per run, divisor to a per-unit time)
    rng = np.random.default_rng([41, n])
    scale = 0.5 / np.sqrt(n)
    quad = np.array([np.zeros((n, n), dtype=complex)] + [
        scale * liealg.random_antihermitian(n, rng, traceless=True) for _ in range(3)])
    Y, k = quad[1:].copy(), np.empty((3, n, n), dtype=complex)
    extra = {}
    if hasattr(flow, "_rhs_workspace"):
        extra["work"] = flow._rhs_workspace(n, False)
    steps = flow._STEP_BLOCK

    def flow_block():
        for _ in flow._flow_blocks(quad, 0.0, 1.0 / steps, steps):
            pass

    basis = liealg.orthonormal_basis(n, traceless=True)
    d = basis.shape[0]
    shoot_steps = 16
    C = rng.standard_normal((2 * shoot_steps + 1, d, d)) / d
    Y0 = np.stack([np.zeros((d, d)), np.eye(d)])
    shoot = lambda C, Y, k: np.matmul(C, Y[0], out=k[1])
    block = max(1, (degeneracy._FORM_BLOCK_ENTRIES // (d * n * n) - 1) // 2)
    times = 2 * block + 1
    T = quad[None, 1:] * (1.0 + 0.01 * np.arange(times))[:, None, None, None]
    lax = spectral.lax_from_quadruple(quad)
    signs = (-1.0, 1.0, 1.0)
    heavy = n >= 16
    return [
        ("rhs", lambda: flow._rhs_stacked(Y, None, out=k, **extra), 200, 1),
        ("flow_step", flow_block, 1, steps),
        ("shoot_step", lambda: grids.rk4_sampled(shoot, C[: shoot_steps + 1],
                                                 C[shoot_steps + 1 :], Y0, 1.0 / shoot_steps,
                                                 second_order=True),
         1 if heavy else 4, shoot_steps),
        ("char_poly", lambda: spectral.char_poly(lax), 2 if heavy else 10, 1),
        ("double_bracket", lambda: liealg.double_bracket_matrix(T, signs, basis),
         1 if heavy else 4, times),
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
    from nahmschmid import degeneracy, flow, grids, liealg, spectral

    results = {}
    for n in SIZES:
        for name, fn, calls, per in _kernels(n, np, flow, grids, liealg, spectral, degeneracy):
            fn()  # warm-up
            results.setdefault(name, {})[str(n)] = _best(fn, calls) / per
    run = {
        "label": args.label,
        "repeat": REPEAT,
        "unit": "s per call at the nominal host speed (flow_step, shoot_step: per step; "
                "double_bracket: per time)",
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
