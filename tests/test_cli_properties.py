"""The exit-code contract of `cli.main`, on inputs drawn by hypothesis.

Every subcommand is drawn with scenario options from a set of adversarial
floats (signed zeros, the least subnormal, 1e-300, 1e20, 1e154, 1e300) and
moderate values, at n = 1-4, --steps <= 64 and --horizon <= 8, and run in
process.  `integrate`, `degeneracy` and `stability` may also take an --init
file, whose n x n matrices (n = 1-4) are zero, anti-Hermitian or left as
drawn, with entries up to 4.9e149 in magnitude and T0 != 0 allowed, so the
gauge path of a nonzero T0 is drawn too.  Whatever the input, the run
exits 0, 2 (configuration error) or 3 (numerical failure) without a Python
warning or a traceback; a failed run writes one `error:` or `numerical
failure:` line and nothing to stdout, and a successful one writes output
whose numbers are all finite.  A configuration error names what it
refuses: an option of the argv, an `--init` component or the size that
could not be allocated, so a numerical failure reported as a configuration
error fails the test.  The draws are derandomized, so every run of the
suite tries the same inputs.  The file is skipped when hypothesis is not
installed.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from nahmschmid import cli  # noqa: E402

_EDGE = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e20, -1e20, 1e154, -1e154, 1e300, -1e300)
_FLOAT = st.one_of(st.sampled_from(_EDGE), st.floats(-10.0, 10.0))
_MODULUS = st.one_of(st.sampled_from(_EDGE), st.floats(0.0, 1.0))
_HORIZON = st.one_of(st.sampled_from(_EDGE[:6]), st.floats(-1.0, 8.0))
_PARAM = st.sampled_from(("kappa", "a", "b"))
_ELLIPTIC = {"--kappa": _MODULUS, "--a": _FLOAT, "--b": _FLOAT}
_SPAN = {"--t-start": _FLOAT, "--t-end": _FLOAT}
_TRAJECTORY = {"--algebra": st.sampled_from(("su2", "un")), "--n": st.integers(1, 4),
               **_ELLIPTIC, **_SPAN, "--seed": st.integers(0, 2**16)}
_FORMAT = {"--format": st.sampled_from(("json", "csv"))}
# --init matrices: entries in [-2, 2] times a scale, so up to 4.9e149 in
# magnitude, which the entry bound 1e150/n refuses at n = 3 and 4 (exit 2)
# and passes to the numerics at n = 1 and 2
_SCALE = st.one_of(st.just(1.0), st.sampled_from((5e-324, 1e-300, 1e20, 2.45e149)))
# the components of the --init file each subcommand that takes one reads
_INIT = {"integrate": ("T0", "T1", "T2", "T3"), "degeneracy": ("T0", "T1", "T2", "T3"),
         "stability": ("tau1", "tau2", "tau3")}

# per subcommand: the options always passed (so no default asks for more
# than --steps 64 or --horizon 8) and those passed or left at the default
_COMMANDS = {
    "integrate": ({"--steps": st.integers(0, 64)}, {**_TRAJECTORY, **_FORMAT}),
    "closed-form": ({"--steps": st.integers(0, 64)}, {**_ELLIPTIC, **_SPAN, **_FORMAT}),
    "spectral": ({"--steps": st.integers(0, 64)}, _TRAJECTORY),
    "degeneracy": ({"--steps": st.integers(0, 64)}, _TRAJECTORY),
    "factorize": ({}, {**_ELLIPTIC, "--t-start": _FLOAT, "--shift": _FLOAT}),
    "stability": ({"--horizon": _HORIZON},
                  {"--triple": st.tuples(_FLOAT, _FLOAT, _FLOAT).map(lambda c: ",".join(map(repr, c))),
                   "--halfline": st.none(), "--amplitude": _FLOAT}),
    "sweep": ({"--steps": st.integers(0, 64), "--param": _PARAM, "--from": _FLOAT,
               "--to": _FLOAT, "--points": st.integers(0, 3)},
              {**_ELLIPTIC, "--param2": _PARAM, "--from2": _FLOAT, "--to2": _FLOAT,
               "--points2": st.integers(0, 3)}),
}


@st.composite
def _matrix(draw, n):
    # [re, im] pairs, row-major; anti-Hermitian as (G - G*)/2, or as drawn
    kind = draw(st.sampled_from(("antihermitian", "zero", "drawn")))
    if kind == "zero":
        return [[[0.0, 0.0]] * n] * n
    scale, entry = draw(_SCALE), st.floats(-2.0, 2.0)
    G = [[[scale * draw(entry), scale * draw(entry)] for _ in range(n)] for _ in range(n)]
    if kind == "antihermitian":
        return [[[(G[i][j][0] - G[j][i][0]) / 2, (G[i][j][1] + G[j][i][1]) / 2]
                 for j in range(n)] for i in range(n)]
    return G


@st.composite
def _argv(draw):
    """(argv, init): the arguments, and the --init object to write, or None."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    always, optional = _COMMANDS[command]
    argv = [command]
    for flag, values in [*always.items(), *optional.items()]:
        if flag in always or draw(st.booleans()):
            value = draw(values)
            text = value if isinstance(value, str) else repr(value)
            # flag=value, so that argparse takes "-1e+20" as a value, not a flag
            argv.append(flag if value is None else f"{flag}={text}")
    init = None
    if command in _INIT and draw(st.booleans()):
        n = draw(st.integers(1, 4))
        init = {name: draw(_matrix(n)) for name in _INIT[command]}
    return argv, init


def _assert_finite_json(text):
    def walk(x):
        if isinstance(x, float):
            assert math.isfinite(x), text[:200]
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    def refuse(name):
        raise AssertionError(f"{name} in the output")

    walk(json.loads(text, parse_constant=refuse))


def _assert_finite_csv(text):
    lines = text.splitlines()
    assert lines and lines[0]
    for line in lines[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # the sweep's verdict and certificate
                assert cell in ("degenerate", "nondegenerate", "inconclusive", "True", "False")
            else:
                assert math.isfinite(value), line


def _assert_names_its_input(line, argv, init):
    # the option as a whole word ("--to" is not found in "--to2"), or the
    # quoted component name, or numpy's message for a size it cannot allocate
    message = line[len("error: "):]
    flags = {arg.partition("=")[0] for arg in argv[1:] if arg.startswith("--")}
    names = [re.escape(flag) + r"(?![\w-])" for flag in flags]
    names += [re.escape(repr(component)) for component in init or ()]
    assert message.startswith("Unable to allocate") or any(
        re.search(name, message) for name in names), (line, argv)


def _su2_init(t0_scale):
    # T0 = c e3 beside the su(2) triple (0.5 e1, 0.5 e2, 0): the shooting
    # gauge-fixes it first, at a moderate c and at the largest accepted one
    e1 = lambda c: [[[0.0, c / 2], [0.0, 0.0]], [[0.0, 0.0], [0.0, -c / 2]]]
    e2 = lambda c: [[[0.0, 0.0], [c / 2, 0.0]], [[-c / 2, 0.0], [0.0, 0.0]]]
    e3 = lambda c: [[[0.0, 0.0], [0.0, c / 2]], [[0.0, c / 2], [0.0, 0.0]]]
    return {"T0": e3(t0_scale), "T1": e1(0.5), "T2": e2(0.5), "T3": e3(0.0)}


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_argv())
@example(case=(["degeneracy", "--steps=64"], _su2_init(3.0)))
@example(case=(["degeneracy", "--steps=8"], _su2_init(9.8e149)))
# a shooting step of 3.3e153, at which the step's propagator overflows
@example(case=(["degeneracy", "--steps=3", "--kappa=0.0", "--t-start=-1e+154"], None))
def test_cli_keeps_the_exit_code_contract(case):
    argv, init = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if init is not None:
            path = os.path.join(tmp, "init.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(init, fh)
            argv = argv + [f"--init={path}"]
        warnings.simplefilter("always")
        code = cli.main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    assert "Traceback" not in stderr
    if code != cli.EXIT_OK:
        assert stdout == ""
        lines = [line for line in stderr.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith(("error: ", "numerical failure: ")), stderr
        if code == cli.EXIT_CONFIG:
            _assert_names_its_input(lines[0], argv, init)
    elif argv[0] == "sweep" or "--format=csv" in argv:
        _assert_finite_csv(stdout)
    else:
        _assert_finite_json(stdout)
