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
codes: 0 success, 2 configuration error, 3 numerical failure.  Sweep
points run serially: the small-matrix numpy calls of one point hold the
GIL, so a worker pool measured no faster.

Initial-data files are JSON objects with components "T0".."T3" (or
"tau1".."tau3" for stability) encoded as row-major [re, im] matrices;
anti-Hermiticity defects above 1e-8 are reported and reprojected.
"""

import argparse
import hashlib
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


# characters per write: a text file encodes what it is given in one piece,
# so writing a trajectory export at once would hold a second, encoded copy
_EMIT_CHUNK = 1 << 20


def _emit(args, text):
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            for i in range(0, len(text), _EMIT_CHUNK):
                fh.write(text[i : i + _EMIT_CHUNK])


def _load_init(args, components=("T0", "T1", "T2", "T3")):
    """Matrices named `components` from the --init file; warnings go to stderr.

    The SHA-256 of the bytes read is kept as args.init_sha256, so the config
    echo records the data the run used.
    """
    with open(args.init, "rb") as fh:
        data = fh.read()
    args.init_sha256 = hashlib.sha256(data).hexdigest()
    obj = json.loads(data.decode("utf-8"))
    mats, warnings = serialize.quadruple_from_obj(obj, components)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
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
        _emit(args, "\n".join(serialize.trajectory_csv_lines(traj)) + "\n")
        sys.stderr.write(serialize.dumps(report.as_dict()))
    else:
        obj = {
            "config": _config_echo(args),
            "trajectory": serialize.trajectory_to_obj(traj),
            "conserved": report.as_dict(),
        }
        _emit(args, serialize.dumps(obj))
    return EXIT_OK


def cmd_closed_form(args):
    traj = flow.su2_closed_form_trajectory(
        args.a, args.b, args.kappa, (args.t_start, args.t_end), args.steps
    )
    if args.format == "csv":
        _emit(args, "\n".join(serialize.trajectory_csv_lines(traj)) + "\n")
    else:
        obj = {
            "config": _config_echo(args),
            "trajectory": serialize.trajectory_to_obj(traj),
        }
        _emit(args, serialize.dumps(obj))
    return EXIT_OK


def cmd_spectral(args):
    traj = _solution_trajectory(args)
    lax0 = spectral.lax_from_quadruple(traj.samples[0])
    curve = spectral.char_poly(lax0)
    obj = {
        "config": _config_echo(args),
        "curve": curve.as_dict(),
        "curve_reality_defect": curve.reality_defect(),
        "isospectral_drift": spectral.isospectral_drift(traj),
        "lax_residual": spectral.lax_residual(traj),
        "conserved_C": spectral.conserved_C_from_trace(lax0),
    }
    _emit(args, serialize.dumps(obj))
    return EXIT_OK


def cmd_degeneracy(args):
    traj = _solution_trajectory(args)
    rep = degeneracy.degeneracy_report(traj)
    bound, certified = degeneracy.pi_bound_precheck(traj)
    obj = {
        "config": _config_echo(args),
        "report": rep.as_dict(),
        "pi_bound": bound,
        "pi_certified": certified,
    }
    _emit(args, serialize.dumps(obj))
    return EXIT_OK


def cmd_factorize(args):
    if args.init:
        T1, T2, T3 = _load_init(args, ("T1", "T2", "T3"))
    else:
        quad = flow.su2_closed_form(args.a, args.b, args.kappa, args.t_start)
        T1 = quad[1] - 0.5j * args.shift * np.eye(2)
        T2, T3 = quad[2], quad[3]
    rep = positive.positivity_report(T1, T2, T3)
    out = {
        "config": _config_echo(args),
        "positivity": rep.as_dict(),
    }
    out["factors"] = None
    if rep.sampled_positive:
        try:
            pair = positive.factorize_triple(T1, T2, T3)
        except positive.NotFactorizableError as exc:
            # cyclic reduction finds the pencil not positive between the samples
            print(f"factorization refused: {exc}", file=sys.stderr)
        else:
            lhs, rhs, holds = positive.norm_bound_check(T1, T2, T3)
            out["factors"] = pair.as_dict()
            out["norm_bound"] = {"lhs": lhs, "rhs": rhs, "holds": holds}
    _emit(args, serialize.dumps(out))
    return EXIT_OK


def _triple_coefficients(text):
    c = [float(x) for x in text.split(",")]
    if len(c) != 3:
        raise ValueError("--triple needs three comma-separated coefficients")
    if not all(math.isfinite(x) for x in c):
        raise ValueError(f"--triple entries must be finite, got {text!r}")
    return c


def cmd_stability(args):
    if args.init:
        taus = list(_load_init(args, ("tau1", "tau2", "tau3")))
    else:
        e1, _, _ = su2_basis()
        taus = [ci * e1 for ci in _triple_coefficients(args.triple)]
    rep = stability.stability_spectrum(*taus)
    out = {
        "config": _config_echo(args),
        "report": rep.as_dict(),
    }
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
    _emit(args, serialize.dumps(out))
    return EXIT_OK


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
    if args.points < 1 or args.points2 < 1:
        raise ValueError("--points and --points2 must be at least 1")
    grid1 = np.linspace(args.start, args.stop, args.points)
    points = [{**base, args.param: float(v1)} for v1 in grid1]
    if args.param2:
        if args.param2 not in base or args.param2 == args.param:
            raise ValueError("--param2 must be a different one of kappa, a, b")
        grid2 = np.linspace(args.start2, args.stop2, args.points2)
        points = [{**p, args.param2: float(v2)} for p in points for v2 in grid2]

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
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


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


def _check_config(args):
    """Reject non-finite float options, a bad --triple and --n below 1.

    Raises ValueError naming the option, so such input exits 2 (a
    configuration error) before any numerics run.
    """
    for flag in _OPTIONS:
        value = getattr(args, _dest(flag), None)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if getattr(args, "n", 1) < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if getattr(args, "triple", None) is not None:
        _triple_coefficients(args.triple)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_config(args)
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught before the config clause
    except (flow.NumericalFailure, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
