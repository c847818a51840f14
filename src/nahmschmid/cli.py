"""Scenario runner exposing the package as subcommands.

Subcommands: integrate, closed-form, spectral, degeneracy, factorize,
stability, sweep.  Each takes exactly the options its handler reads (the
`_SUBCOMMANDS` table); passing one it does not read is an argument error
(exit 2).  Every JSON output echoes each option that shapes the result
(all parsed options but --init, --output and --format) and the
inner-product scale so runs are reproducible; with --init it leaves out
the scenario options the file replaces and records the SHA-256 of the
file's bytes as "init_sha256" instead.  Identical configurations
(including the seed) give byte-identical output.  The scale is the fixed
normalisation <X, Y> = -2 Re tr(XY) of `liealg`, not an option: the
degeneracy bound 2 sup(|T2|^2 + |T3|^2) < pi^2 holds only in it.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.  `main` runs
the handler and the rendering under one floating-point policy: an overflow,
invalid value or division by zero raises, and so does a NaN or infinity in
the output; either is a numerical failure (exit 3) that writes nothing to
stdout and creates no output file.  Sweep points run serially: the
small-matrix numpy calls of one point hold the GIL, so a worker pool
measured no faster.  Handlers return a dict (JSON) or CSV lines; `main`
alone writes them, a dict as the pieces of `serialize.iterdumps` with the
config echo added, then any `args.csv_report` to stderr.

Initial-data files are JSON objects with components "T0".."T3" (or
"tau1".."tau3" for stability) encoded as row-major [re, im] matrices;
anti-Hermiticity defects above 1e-8 are reported and reprojected, and
an entry above 1e150/n in magnitude is a configuration error.
"""

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from . import degeneracy, flow, positive, serialize, spectral, stability
from .liealg import INNER_SCALE, random_antihermitian, su2_basis

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# Every option, by flag: the keyword arguments of its add_argument call.
# A subcommand takes the flags its handler reads (see _SUBCOMMANDS).
_OPTIONS = {
    "--algebra": dict(choices=("su2", "un"), default="su2"),
    "--n": dict(type=int, default=2, help="matrix size for --algebra un"),
    "--kappa": dict(type=float, default=0.8, help="elliptic modulus"),
    "--a": dict(type=float, default=1.0, help="elliptic frequency"),
    "--b": dict(type=float, default=0.0, help="elliptic phase"),
    "--t-start": dict(type=float, default=0.0),
    "--t-end": dict(type=float, default=1.0),
    "--steps": dict(type=int, default=2000),
    "--seed": dict(type=int, default=0),
    "--init": dict(help="JSON file with initial data (overrides the scenario options)"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--shift": dict(type=float, default=3.0, help="central shift of T1 into u(2)"),
    "--triple": dict(default="1,0,0", help="c1,c2,c3 for (c1 e1, c2 e1, c3 e1)"),
    "--halfline": dict(action="store_true", help="run the decay-rate experiment"),
    "--amplitude": dict(type=float, default=1e-4),
    "--horizon": dict(type=float, default=8.0),
    "--param": dict(required=True, help="kappa, a or b"),
    "--from": dict(dest="start", type=float, required=True),
    "--to": dict(dest="stop", type=float, required=True),
    "--points": dict(type=int, required=True),
    "--param2": dict(default=None),
    "--from2": dict(dest="start2", type=float, default=0.0),
    "--to2": dict(dest="stop2", type=float, default=1.0),
    "--points2": dict(type=int, default=2),
    "--output": dict(default="-", help="output path, '-' for stdout"),
}


def _dest(flag):
    return _OPTIONS[flag].get("dest", flag[2:].replace("-", "_"))


# parsed entries the JSON echo leaves out: argparse's own, the two paths
# and the rendering of the output
_NOT_ECHOED = ("command", "func", "init_replaces", "init", "output", "format")


def _config_echo(args):
    replaced = args.init_replaces if getattr(args, "init", None) else ()
    echo = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED + replaced}
    return {**echo, "scale": INNER_SCALE}


def _emit(args, pieces):
    # the first piece is made before the file is opened: serialize.iterdumps
    # checks every value before it yields, so a failed run writes nothing
    pieces = iter(pieces)
    head = next(pieces, "")
    with (open(args.output, "w", encoding="utf-8") if args.output != "-"
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(itertools.chain([head], pieces))


# input entries are at most _ENTRY_MAX/n in magnitude, --triple's at n = 1, so
# a product of two n x n inputs stays below 1e300/n and the squares in the
# stability operator (which overflow from about 1e154) stay finite
_ENTRY_MAX = 1e150


def _load_init(args, components=("T0", "T1", "T2", "T3")):
    """Matrices named `components` from the --init file; warnings go to stderr.

    The SHA-256 of the bytes read is kept as args.init_sha256, so the config
    echo records the data the run used.  An entry above _ENTRY_MAX/n in
    magnitude is refused before any numerics.
    """
    with open(args.init, "rb") as fh:
        data = fh.read()
    args.init_sha256 = hashlib.sha256(data).hexdigest()
    obj = json.loads(data.decode("utf-8"))
    mats, warnings = serialize.quadruple_from_obj(obj, components)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    n = mats.shape[-1]
    for name, M in zip(components, mats):
        if np.max(np.abs(M)) > _ENTRY_MAX / n:
            raise ValueError(f"component {name!r} has an entry above {_ENTRY_MAX:g}/n = "
                             f"{_ENTRY_MAX / n:g} in magnitude (n = {n})")
    return mats


def _initial_quadruple(args):
    """Initial data from a file or from the scenario parameters."""
    if args.init:
        return _load_init(args)
    if args.algebra == "su2":
        return flow.su2_closed_form(args.a, args.b, args.kappa, args.t_start)
    rng = np.random.default_rng(args.seed)
    Z = np.zeros((args.n, args.n), dtype=complex)
    return np.array([Z] + [random_antihermitian(args.n, rng) for _ in range(3)])


def _solution_trajectory(args):
    quad = _initial_quadruple(args)
    cfg = flow.SolverConfig(steps=args.steps)
    return flow.integrate(quad, (args.t_start, args.t_end), cfg)


def cmd_integrate(args):
    traj = _solution_trajectory(args)
    report = flow.conserved_report(traj)
    if args.format == "csv":
        # rendered, and so checked, before main writes the CSV; then to stderr
        args.csv_report = serialize.dumps(report.as_dict())
        return serialize.trajectory_csv_lines(traj)
    return {"trajectory": serialize.trajectory_to_obj(traj), "conserved": report.as_dict()}


def cmd_closed_form(args):
    traj = flow.su2_closed_form_trajectory(
        args.a, args.b, args.kappa, (args.t_start, args.t_end), args.steps
    )
    if args.format == "csv":
        return serialize.trajectory_csv_lines(traj)
    return {"trajectory": serialize.trajectory_to_obj(traj)}


def cmd_spectral(args):
    traj = _solution_trajectory(args)
    lax0 = spectral.lax_from_quadruple(traj.samples[0])
    curve = spectral.char_poly(lax0)
    return {
        "curve": curve.as_dict(),
        "curve_reality_defect": curve.reality_defect(),
        "isospectral_drift": spectral.isospectral_drift(traj),
        "lax_residual": spectral.lax_residual(traj),
        "conserved_C": spectral.conserved_C_from_trace(lax0),
    }


def cmd_degeneracy(args):
    traj = _solution_trajectory(args)
    rep = degeneracy.degeneracy_report(traj)
    bound, certified = degeneracy.pi_bound_precheck(traj)
    return {"report": rep.as_dict(), "pi_bound": bound, "pi_certified": certified}


def cmd_factorize(args):
    if args.init:
        T1, T2, T3 = _load_init(args, ("T1", "T2", "T3"))
    else:
        quad = flow.su2_closed_form(args.a, args.b, args.kappa, args.t_start)
        T1 = quad[1] - 0.5j * args.shift * np.eye(2)
        T2, T3 = quad[2], quad[3]
    # the sampled certificate is output only; cyclic reduction is the gate
    out = {"positivity": positive.positivity_report(T1, T2, T3).as_dict(), "factors": None}
    try:
        pair = positive.factorize_triple(T1, T2, T3)
    except positive.NotFactorizableError as exc:
        print(f"factorization refused: {exc}", file=sys.stderr)
    else:
        lhs, rhs, holds = positive.norm_bound_check(T1, T2, T3)
        out["factors"] = pair.as_dict()
        out["norm_bound"] = {"lhs": lhs, "rhs": rhs, "holds": holds}
    return out


def _triple_coefficients(text):
    c = [float(x) for x in text.split(",")]
    if len(c) != 3:
        raise ValueError("--triple needs three comma-separated coefficients")
    if not all(math.isfinite(x) for x in c):
        raise ValueError(f"--triple entries must be finite, got {text!r}")
    if max(map(abs, c)) > _ENTRY_MAX:
        raise ValueError(f"--triple entries must be at most {_ENTRY_MAX:g} in magnitude, got {text!r}")
    return c


def cmd_stability(args):
    if args.init:
        taus = list(_load_init(args, ("tau1", "tau2", "tau3")))
        try:
            stability.check_commuting(*taus)
        except ValueError as exc:
            raise ValueError(f"the --init {exc}") from exc
    else:
        e1, _, _ = su2_basis()
        taus = [ci * e1 for ci in _triple_coefficients(args.triple)]
    rep = stability.stability_spectrum(*taus)
    out = {"report": rep.as_dict()}
    if args.halfline and rep.stable and rep.eta > 0:
        dirs = stability.stable_directions(rep)
        direction = stability.triple_from_coordinates(dirs[:, 0], rep.basis)
        res = stability.halfline_convergence(
            taus,
            direction,
            amplitude=args.amplitude,
            horizon=args.horizon,
        )
        out["halfline"] = res.as_dict()
    return out


def _sweep_point(params, steps):
    """Shooting report and pi-bound of the su(2) solution at one grid point."""
    traj = flow.su2_closed_form_trajectory(
        params["a"], params["b"], params["kappa"], (0.0, 1.0), steps
    )
    rep = degeneracy.degeneracy_report(traj)
    bound, certified = degeneracy.pi_bound_precheck(traj)
    return rep, bound, certified


def cmd_sweep(args):
    base = {"kappa": args.kappa, "a": args.a, "b": args.b}
    if args.param not in base:
        raise ValueError("--param must be one of kappa, a, b")
    # --points2 is read only with --param2
    if args.points < 1 or (args.param2 and args.points2 < 1):
        raise ValueError("--points and --points2 must be at least 1")
    grid1 = np.linspace(args.start, args.stop, args.points)
    points = [{**base, args.param: float(v1)} for v1 in grid1]
    if args.param2:
        if args.param2 not in base or args.param2 == args.param:
            raise ValueError("--param2 must be a different one of kappa, a, b")
        grid2 = np.linspace(args.start2, args.stop2, args.points2)
        points = [{**p, args.param2: float(v2)} for p in points for v2 in grid2]
    source = {args.param: "--from and --to", args.param2: "--from2 and --to2"}
    for p in points:
        if not 0.0 <= p["kappa"] <= 1.0:
            raise ValueError(f"the modulus from {source.get('kappa', '--kappa')} must lie in "
                             f"[0, 1], got {p['kappa']!r}")

    header = [args.param]
    if args.param2:
        header.append(args.param2)
    header += ["sigma_min", "verdict", "determinant", "pi_bound", "pi_certified"]
    lines = [",".join(header)]
    for params in points:
        rep, bound, certified = _sweep_point(params, args.steps)
        row = [repr(params[args.param])]
        if args.param2:
            row.append(repr(params[args.param2]))
        row += [
            repr(rep.sigma_min),
            rep.verdict,
            repr(rep.determinant),
            repr(bound),
            str(certified),
        ]
        lines.append(",".join(row))
    return lines


_ELLIPTIC = ("--kappa", "--a", "--b")
_SCENARIO = ("--algebra", "--n", *_ELLIPTIC, "--seed")
_TRAJECTORY = (
    "--algebra", "--n", *_ELLIPTIC, "--t-start", "--t-end", "--steps", "--seed", "--init"
)
_GRID = ("--param", "--from", "--to", "--points", "--param2", "--from2", "--to2", "--points2")

# subcommand, handler, help, the flags the handler reads (--output is
# added to every subcommand) and those of them an --init file replaces
_SUBCOMMANDS = (
    ("integrate", cmd_integrate, "integrate the equations and audit conservation",
     _TRAJECTORY + ("--format",), _SCENARIO),
    ("closed-form", cmd_closed_form, "sample the su(2) elliptic solution",
     _ELLIPTIC + ("--t-start", "--t-end", "--steps", "--format"), ()),
    ("spectral", cmd_spectral, "spectral curve, Lax residual and drift",
     _TRAJECTORY, _SCENARIO),
    ("degeneracy", cmd_degeneracy, "shooting test for the degeneracy locus",
     _TRAJECTORY, _SCENARIO),
    ("factorize", cmd_factorize, "positivity report and Rosenblatt factors",
     _ELLIPTIC + ("--t-start", "--shift", "--init"), _ELLIPTIC + ("--t-start", "--shift")),
    ("stability", cmd_stability, "stability spectrum of a commuting triple",
     ("--triple", "--halfline", "--amplitude", "--horizon", "--init"), ("--triple",)),
    ("sweep", cmd_sweep, "map sigma_min over a parameter grid (CSV)",
     _ELLIPTIC + ("--steps",) + _GRID, ()),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nahmschmid",
        description="Numerical laboratory for the Nahm-Schmid equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags, replaced in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags + ("--output",):
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func, init_replaces=tuple(_dest(f) for f in replaced))
    return parser


@functools.cache
def _parser():
    # built on the first call of main, not at import, and reused after it:
    # each parse fills a new namespace and no default is mutable, so one
    # run leaves nothing behind for the next
    return build_parser()


# least --steps where the numerics read more than two samples: the
# Lax-residual stencil reads 5, the shooting's cubic midpoints 4
_LEAST_STEPS = {"spectral": 4, "degeneracy": 3, "sweep": 3}


def _check_config(args):
    """Reject non-finite float options, a bad --triple, --n below 1, --steps
    below the subcommand's _LEAST_STEPS (1 elsewhere), a --kappa outside
    [0, 1] where the scenario reads it, a span with --t-end not above
    --t-start, and a span or half-line horizon whose step rounds to 0 or
    overflows.

    Raises ValueError naming the options, so such input exits 2 (a
    configuration error) before any numerics run.
    """
    for flag in _OPTIONS:
        value = getattr(args, _dest(flag), None)
        # --from2 and --to2 are read only with --param2
        if flag in ("--from2", "--to2") and not getattr(args, "param2", None):
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if getattr(args, "n", 1) < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    least = _LEAST_STEPS.get(args.command, 1)
    if getattr(args, "steps", least) < least:
        raise ValueError(f"--steps must be at least {least} for {args.command}, got {args.steps}")
    if getattr(args, "triple", None) is not None:
        _triple_coefficients(args.triple)
    # the su(2) scenario reads --kappa unless --init or --algebra un replaces
    # it; sweep checks the moduli of its grid itself
    reads_kappa = (hasattr(args, "kappa") and args.command != "sweep"
                   and not getattr(args, "init", None) and getattr(args, "algebra", "su2") == "su2")
    if reads_kappa and not 0.0 <= args.kappa <= 1.0:
        raise ValueError(f"--kappa must lie in [0, 1], got {args.kappa!r}")
    if hasattr(args, "t_end"):
        if not args.t_end > args.t_start:
            raise ValueError(f"--t-end must exceed --t-start, got --t-start {args.t_start!r} "
                             f"and --t-end {args.t_end!r}")
        # the grid step: 0 where it underflows, inf where the span overflows
        h = (args.t_end - args.t_start) / args.steps
        if not 0.0 < h < math.inf:
            raise ValueError(f"the step (--t-end - --t-start) / --steps is {h!r}; "
                             "it must be positive and finite")
    if getattr(args, "halfline", False):
        stability.halfline_steps(args.horizon, "--horizon")


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _check_config(args)
        # one floating-point policy: an overflow, invalid value or division
        # by zero anywhere in the run or its output is a numerical failure
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = args.func(args)
            if isinstance(out, dict):
                _emit(args, serialize.iterdumps({"config": _config_echo(args), **out}))
            else:
                _emit(args, (line + "\n" for line in out))
            if getattr(args, "csv_report", None) is not None:
                sys.stderr.write(args.csv_report)
    # LinAlgError and NonFiniteError subclass ValueError, so they are caught
    # before the config clause
    except (flow.NumericalFailure, FloatingPointError, np.linalg.LinAlgError,
            serialize.NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # a MemoryError is a size asked for in the options (--steps, --horizon)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
