"""The exit-code contract of `cli.main`, on inputs drawn by hypothesis.

Every subcommand is drawn with scenario options from a set of adversarial
floats (signed zeros, the least subnormal, 1e-300, 1e20, 1e154, 1e300) and
moderate values, at n = 1-4, --steps <= 64 and --horizon <= 8, and run in
process.  Whatever the input, the run exits 0, 2 (configuration error) or 3
(numerical failure) without a Python warning or a traceback; a failed run
writes one `error:` or `numerical failure:` line and nothing to stdout, and
a successful one writes output whose numbers are all finite.  The draws are
derandomized, so every run of the suite tries the same inputs.  The file is
skipped when hypothesis is not installed.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

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
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    always, optional = _COMMANDS[command]
    argv = [command]
    for flag, values in [*always.items(), *optional.items()]:
        if flag in always or draw(st.booleans()):
            value = draw(values)
            text = value if isinstance(value, str) else repr(value)
            # flag=value, so that argparse takes "-1e+20" as a value, not a flag
            argv.append(flag if value is None else f"{flag}={text}")
    return argv


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


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_cli_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
    elif argv[0] == "sweep" or "--format=csv" in argv:
        _assert_finite_csv(stdout)
    else:
        _assert_finite_json(stdout)
