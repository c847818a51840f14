import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nahmschmid
from nahmschmid import cli, degeneracy, positive, serialize, spectral, stability
from nahmschmid.cli import main
from nahmschmid.elliptic import complete_K
from nahmschmid.flow import (
    SolverConfig,
    Trajectory,
    integrate,
    su2_closed_form,
    su2_closed_form_trajectory,
)
from nahmschmid.liealg import random_antihermitian, su2_basis

from helpers import trajectory_from_obj


# ---------------------------------------------------------------------------
# serialization round trips

def test_matrix_round_trip(rng):
    M = random_antihermitian(3, rng)
    back = serialize.matrix_from_pairs(serialize.matrix_to_pairs(M))
    assert_allclose(back, M, atol=0)


def test_trajectory_round_trip():
    traj = su2_closed_form_trajectory(1.0, 0.1, 0.6, (0.0, 1.0), 20)
    obj = serialize.trajectory_to_obj(traj)
    back = trajectory_from_obj(obj)
    assert back.t_start == traj.t_start and back.t_end == traj.t_end
    assert_allclose(back.samples, traj.samples, atol=0)


def test_csv_layout():
    traj = su2_closed_form_trajectory(1.0, 0.0, 0.6, (0.0, 1.0), 4)
    lines = list(serialize.trajectory_csv_lines(traj))
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1] == "T0_00_re" and header[2] == "T0_00_im"
    assert len(header) == 1 + 4 * 4 * 2
    assert len(lines) == 1 + 5
    row = lines[1].split(",")
    assert float(row[0]) == 0.0


def test_quadruple_from_obj_reprojects_with_warning():
    M = np.array([[0.5 + 1j, 0.0], [0.0, -1j]])  # Hermitian defect 1.0
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    obj["T1"] = serialize.matrix_to_pairs(M)
    quad, warnings = serialize.quadruple_from_obj(obj)
    assert len(warnings) == 1 and "T1" in warnings[0]
    assert np.max(np.abs(quad[1] + quad[1].conj().T)) < 1e-14


# ---------------------------------------------------------------------------
# byte identity of the array-leaf export against the nested-list form

def nested_list_obj(traj):
    # the trajectory object as it was built before samples became arrays
    def pairs(M):
        return [[[float(z.real), float(z.imag)] for z in row] for row in M]

    return {
        "t_start": traj.t_start, "t_end": traj.t_end, "steps": traj.steps, "n": traj.n,
        "samples": [{f"T{i}": pairs(q[i]) for i in range(4)} for q in traj.samples],
    }


def reference_csv_rows(traj):
    for t, q in zip(traj.times, traj.samples):
        row = [repr(float(t))]
        for z in q.ravel():
            row += [repr(float(z.real)), repr(float(z.imag))]
        yield ",".join(row)


def export_trajectory(kind):
    if kind == "su2":
        return su2_closed_form_trajectory(1.0, 0.1, 0.6, (0.0, 1.0), 20)
    if kind == "u3":
        rng = np.random.default_rng(7)
        quad = np.array([random_antihermitian(3, rng) for _ in range(4)])
        return integrate(quad, (0.0, 0.5), SolverConfig(steps=12))
    # anti-Hermitian samples holding signed zeros, subnormals and huge values
    M = np.array(
        [[complex(-0.0, 1e-300), complex(5e-324, 1e200)],
         [complex(-5e-324, 1e200), complex(0.0, -1e-300)]]
    )
    S = np.zeros((3, 4, 2, 2), dtype=complex)
    S[0, 1], S[1, 2], S[2, 3], S[2, 0] = M, -M, 1e-3 * M, M
    return Trajectory(0.0, 1.0, S)


@pytest.mark.parametrize("kind", ["su2", "u3", "edge"])
def test_export_json_byte_identical(kind):
    traj = export_trajectory(kind)
    # dumps is one %-format of the whole text: percent signs stay literal
    config = {"kappa": 0.8, "name": "run 100% %r %s %%", "%(x)s": "%", "steps": traj.steps}
    got = serialize.dumps(
        {"config": config, "trajectory": serialize.trajectory_to_obj(traj)}
    )
    ref = {"config": config, "trajectory": nested_list_obj(traj)}
    assert got == json.dumps(ref, indent=2, sort_keys=True, allow_nan=False) + "\n"
    # a bare array as the whole object renders at column 0
    leaf = serialize.trajectory_to_obj(traj)["samples"][-1]["T1"]
    assert serialize.dumps(leaf) == json.dumps(leaf.tolist(), indent=2) + "\n"


@pytest.mark.parametrize("kind", ["su2", "u3", "edge"])
def test_export_csv_byte_identical(kind):
    traj = export_trajectory(kind)
    lines = list(serialize.trajectory_csv_lines(traj))
    assert lines[1:] == list(reference_csv_rows(traj))


@pytest.mark.parametrize("kind", ["su2", "u3", "edge"])
def test_export_round_trip(kind):
    traj = export_trajectory(kind)
    obj = serialize.trajectory_to_obj(traj)
    for back in (
        trajectory_from_obj(obj),
        trajectory_from_obj(json.loads(serialize.dumps(obj))),
    ):
        assert back.t_start == traj.t_start and back.t_end == traj.t_end
        assert_allclose(back.samples, traj.samples, rtol=0, atol=0)


def test_dumps_placeholder_text_in_strings():
    traj = export_trajectory("su2")
    tobj = serialize.trajectory_to_obj(traj)
    # a string merely containing the placeholder is written as json writes it
    note = "echo " + serialize._HOLE
    got = serialize.dumps({"note": note, "trajectory": tobj})
    ref = {"note": note, "trajectory": nested_list_obj(traj)}
    assert got == json.dumps(ref, indent=2, sort_keys=True) + "\n"
    # a string or key equal to it is never swapped for an array
    for obj in ({"note": serialize._HOLE, "trajectory": tobj},
                {serialize._HOLE: 1, "trajectory": tobj},
                {"note": serialize._HOLE}):
        with pytest.raises(ValueError, match="placeholder"):
            serialize.dumps(obj)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dumps_rejects_non_finite_array_leaf(bad):
    S = np.zeros((2, 4, 2, 2), dtype=complex)
    S[1, 2, 0, 1] = complex(0.0, bad)
    obj = serialize.trajectory_to_obj(Trajectory(0.0, 1.0, S))
    with pytest.raises(ValueError):
        serialize.dumps(obj)
    with pytest.raises(ValueError):
        serialize.dumps({"x": np.array([1.0, bad])})


@pytest.mark.parametrize("shape", [(2, 2), (3,), (2, 1, 3)])
def test_dumps_complex_leaf_equals_json_of_its_pairs(shape):
    # complex leaves go through the template path as their [re, im] pairs:
    # signed zeros, subnormals and large values keep json's round-trip text
    vals = np.array([-0.0, 5e-324, 1e200, -1.5, 0.1, -5e-324])
    M = (vals[: np.prod(shape)] + 1j * vals[::-1][: np.prod(shape)]).reshape(shape)
    assert serialize.dumps(M) == json.dumps(serialize.matrix_to_pairs(M), indent=2) + "\n"
    obj = {"b": M, "a": [M.T, {"c": M[..., ::-1]}]}
    ref = {"b": serialize.matrix_to_pairs(M),
           "a": [serialize.matrix_to_pairs(M.T), {"c": serialize.matrix_to_pairs(M[..., ::-1])}]}
    assert serialize.dumps(obj) == json.dumps(ref, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                 complex(-np.inf, 1.0)])
def test_dumps_rejects_non_finite_complex_leaf(bad):
    M = np.zeros((2, 2), dtype=complex)
    M[1, 0] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize.dumps({"M": M})


# the values a float's shortest round-trip text is hardest on: signed zero,
# the least subnormal, values near the float maximum and 17-digit values
EDGE_FLOATS = [-0.0, 5e-324, 1e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3,
               -2.2250738585072014e-308, 123456789.12345679, 1.0, -2.5e-17]


def _edge_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array(EDGE_FLOATS), size=shape) * rng.choice([1.0, -1.0], size=shape)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])  # 1, P - 1, P, P + 1 and 2P + 1 for P = 3
def test_iterdumps_pieces_byte_identical(monkeypatch, n, rows):
    # the pieces are whole axis-0 rows, P = 3 per piece: the joined text is
    # json.dumps of the list-of-dicts and nested-list forms at every row
    # count around a piece boundary, for record, float and complex leaves
    P = 3
    samples = _edge_values((rows, 4, n, n), 1) + 1j * _edge_values((rows, 4, n, n), 2)
    record = serialize.trajectory_to_obj(Trajectory(0.0, 1.0, samples))["samples"]
    plain = _edge_values((rows, n, 2), 3)
    cplx = samples[:, 1, 0]
    config = {"name": "run 100% %r %s %%", "%(x)s": "%", "pad": "%" * 7}
    obj = {"config": config, "samples": record, "plain": plain, "cplx": cplx,
           "nested": {"a": [plain[:0], 5e-324, {"b": plain}]}}
    ref = {"config": config,
           "samples": [{f"T{i}": serialize.matrix_to_pairs(q[i]) for i in range(4)}
                       for q in samples],
           "plain": plain.tolist(), "cplx": serialize.matrix_to_pairs(cplx),
           "nested": {"a": [[], 5e-324, {"b": plain.tolist()}]}}
    want = json.dumps(ref, indent=2, sort_keys=True, allow_nan=False) + "\n"
    # a piece size that is not a whole number of rows rounds down to one;
    # P rows of the record leaf, or of the float and complex leaves
    for leaf_floats in (8 * n * n, 2 * n):
        monkeypatch.setattr(serialize, "_PIECE_FLOATS", P * leaf_floats + leaf_floats - 1)
        pieces = list(serialize.iterdumps(obj))
        assert "".join(pieces) == want
        assert serialize.dumps(obj) == want
    # a record leaf alone renders at column 0, as does a bare float array
    monkeypatch.setattr(serialize, "_PIECE_FLOATS", P * 4 * n * n * 2)
    assert serialize.dumps(record) == json.dumps(ref["samples"], indent=2, sort_keys=True) + "\n"
    assert serialize.dumps(plain) == json.dumps(plain.tolist(), indent=2) + "\n"
    # the empty text before and after the leaf, its pieces of at most P
    # rows each, and the closing newline
    pieces = list(serialize.iterdumps(record))
    assert len(pieces) == 3 + -(-rows // P)
    assert [p.count('"T0"') for p in pieces[1:-2]] == [P] * (rows // P) + [rows % P] * (rows % P > 0)


def test_trajectory_samples_are_a_record_view_of_the_trajectory():
    traj = export_trajectory("u3")
    samples = serialize.trajectory_to_obj(traj)["samples"]
    assert samples.shape == (traj.steps + 1,) and samples.dtype.names == ("T0", "T1", "T2", "T3")
    assert np.shares_memory(samples, traj.samples)
    assert_allclose(serialize.matrix_from_pairs(samples[5]["T2"]), traj.samples[5, 2], rtol=0, atol=0)


def test_iterdumps_checks_every_value_before_the_first_piece():
    # a NaN in the last leaf, or in the skeleton after the leaves, stops the
    # stream before it yields anything
    traj = export_trajectory("u3")
    bad = np.ones(3)
    bad[-1] = np.nan
    for obj in ({"a": serialize.trajectory_to_obj(traj), "z": bad},
                {"a": serialize.trajectory_to_obj(traj), "z": float("inf")}):
        pieces = serialize.iterdumps(obj)
        with pytest.raises(serialize.NonFiniteError, match="not JSON compliant"):
            next(pieces)
    # a record leaf renders only float64 fields in sorted order
    unsorted = np.zeros(2, dtype=[("b", float), ("a", float)])
    with pytest.raises(TypeError, match="record leaf"):
        serialize.dumps({"x": unsorted})


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_stdout_bytes_equal_the_output_file(tmp_path, capsysbinary, monkeypatch, fmt):
    # main writes the same pieces to stdout and to a file; small pieces put
    # many piece boundaries into the trajectory
    monkeypatch.setattr(serialize, "_PIECE_FLOATS", 100)
    argv = ["integrate", "--algebra", "un", "--n", "3", "--steps", "60", "--format", fmt]
    out = tmp_path / f"run.{fmt}"
    assert run_cli(argv + ["--output", str(out)]) == 0
    capsysbinary.readouterr()
    assert run_cli(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert out.read_bytes().count(b"\n") > 60


def test_cli_json_export_memory_is_bounded(tmp_path):
    # a 20,000-step u(4) export (about 120 MB of JSON) allocates beyond its
    # sample array at most an eighth of the file: the text is written in
    # pieces and never held whole
    out = tmp_path / "big.json"
    argv = ["integrate", "--algebra", "un", "--n", "4", "--steps", "20000", "--output", str(out)]
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    out.unlink()
    samples = 20001 * 4 * 4 * 4 * 16  # complex (steps + 1, 4, n, n)
    assert size > 100e6
    assert peak - samples <= size / 8


# ---------------------------------------------------------------------------
# CLI subcommands

def run_cli(args):
    return main(args)


def test_cli_integrate_json(tmp_path):
    out = tmp_path / "run.json"
    code = run_cli(
        [
            "integrate", "--kappa", "0.8", "--a", "1", "--b", "0",
            "--steps", "500", "--output", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["kappa"] == 0.8
    assert data["config"]["scale"] == 2.0
    assert data["conserved"]["scale"] == 2.0
    assert max(data["conserved"]["drift"].values()) < 1e-8
    traj = trajectory_from_obj(data["trajectory"])
    assert traj.steps == 500


def test_cli_integrate_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli(
        ["integrate", "--steps", "50", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,T0_00_re")
    assert len(lines) == 52


def test_cli_integrate_zero_init(tmp_path):
    init = tmp_path / "zero.json"
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    init.write_text(json.dumps(obj))
    out = tmp_path / "zero_out.json"
    code = run_cli(
        ["integrate", "--init", str(init), "--steps", "50", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    traj = trajectory_from_obj(data["trajectory"])
    assert np.max(np.abs(traj.samples)) == 0.0


def test_cli_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--to", "1", "--points", "3"])
    assert exc.value.code == 2


def test_cli_scale_option_is_rejected(capsys):
    # the pi-bound certificate holds only in the fixed normalisation; with a
    # settable scale this run certified a solution the shooting test found
    # degenerate
    with pytest.raises(SystemExit) as exc:
        run_cli(
            [
                "degeneracy", "--kappa", "0.9", "--a", "4.5611", "--b", "0",
                "--steps", "400", "--scale", "0.25",
            ]
        )
    assert exc.value.code == 2


def test_cli_unknown_param_is_config_error(tmp_path):
    code = run_cli(
        [
            "sweep", "--param", "bogus", "--from", "0", "--to", "1",
            "--points", "2", "--output", str(tmp_path / "s.csv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["integrate", "--t-end", "inf", "--steps", "10"], "--t-end"),
        (["integrate", "--t-end", "nan", "--steps", "10"], "--t-end"),
        (["stability", "--triple", "1,nan,0"], "--triple"),
        (["integrate", "--algebra", "un", "--n", "0", "--steps", "10"], "--n"),
        (
            ["sweep", "--param", "a", "--from=-inf", "--to", "1", "--points", "2",
             "--steps", "10"],
            "--from",
        ),
    ],
)
def test_cli_non_finite_or_degenerate_config_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code = run_cli(argv + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


SWEEP = ["sweep", "--param", "a", "--from", "1", "--to", "2", "--points", "2"]


@pytest.mark.parametrize("steps", ["-1", "0"])
@pytest.mark.parametrize("argv", [["closed-form"], SWEEP], ids=["closed-form", "sweep"])
def test_cli_steps_below_one_exits_2(tmp_path, capfd, argv, steps):
    # refused before any sampling, in words that name --steps: no
    # IndexError and no zero-step trajectory
    out = tmp_path / "out"
    assert run_cli(argv + ["--steps", steps, "--output", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    least = 3 if argv[0] == "sweep" else 1
    assert captured.err == f"error: --steps must be at least {least} for {argv[0]}, got {steps}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closed-form", "--kappa", "1.5"], "--kappa must lie in [0, 1], got 1.5"),
        (["degeneracy", "--kappa=-0.5"], "--kappa must lie in [0, 1], got -0.5"),
        (["integrate", "--t-end", "0"],
         "--t-end must exceed --t-start, got --t-start 0.0 and --t-end 0.0"),
        (["spectral", "--t-start", "2", "--t-end", "1"],
         "--t-end must exceed --t-start, got --t-start 2.0 and --t-end 1.0"),
        (["sweep", "--param", "kappa", "--from", "0", "--to", "2", "--points", "3"],
         "the modulus from --from and --to must lie in [0, 1], got 2.0"),
        (SWEEP + ["--param2", "kappa", "--from2=-1", "--to2", "1"],
         "the modulus from --from2 and --to2 must lie in [0, 1], got -1.0"),
        (SWEEP + ["--kappa", "1.5"], "the modulus from --kappa must lie in [0, 1], got 1.5"),
    ],
)
def test_cli_modulus_and_span_errors_name_the_options(tmp_path, capfd, argv, message):
    out = tmp_path / "out"
    assert run_cli(argv + ["--steps", "8", "--output", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["integrate", "--algebra", "un"], ["closed-form", "--kappa", "1"]])
def test_cli_reads_kappa_only_where_the_scenario_does(tmp_path, argv):
    # --algebra un draws its data from --seed and leaves --kappa unread;
    # kappa = 1 is the hyperbolic limit, inside [0, 1]
    assert run_cli(argv + ["--kappa", "1", "--steps", "8", "--output", str(tmp_path / "o")]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "--algebra", "su2", "--steps", "64", "--t-end", "5e-324"],
         "the step (--t-end - --t-start) / --steps is 0.0"),
        (["integrate", "--t-start=-1e308", "--t-end", "1e308", "--steps", "4"],
         "the step (--t-end - --t-start) / --steps is inf"),
        (["closed-form", "--t-end", "1e-322", "--steps", "1000"],
         "the step (--t-end - --t-start) / --steps is 0.0"),
        (["stability", "--triple", "1,0,0", "--halfline", "--horizon", "5e-324"],
         "the step --horizon / max(1000 --horizon, 10) is 0.0"),
        (["stability", "--triple", "1,0,0", "--halfline", "--horizon", "1e306"],
         "the step --horizon / max(1000 --horizon, 10) is 0.0"),
    ],
)
def test_cli_step_that_underflows_or_overflows_exits_2(tmp_path, capfd, argv, message):
    # a positive span whose step span/steps rounds to 0, or overflows, is a
    # configuration error naming the options, not a division by zero (exit
    # 3) or a traceback from an infinite step count
    out = tmp_path / "out"
    assert run_cli(argv + ["--output", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}; it must be positive and finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, least",
    [(["spectral"], 4), (["degeneracy"], 3), (SWEEP, 3)],
    ids=["spectral", "degeneracy", "sweep"],
)
def test_cli_steps_below_the_least_exits_2_naming_it(tmp_path, capfd, argv, least):
    # the derivative stencil of the Lax residual needs 4 steps, the cubic
    # midpoints of the shooting 3; fewer is a config error that names
    # --steps, raised before any numerics run
    out = tmp_path / "out"
    for steps in range(1, least):
        assert run_cli(argv + ["--steps", str(steps), "--output", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --steps must be at least {least} "
                                f"for {argv[0]}, got {steps}\n")
        assert not out.exists()
    assert run_cli(argv + ["--steps", str(least), "--output", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["closed-form", "--init", "x.json"],
        ["closed-form", "--seed", "1"],
        SWEEP + ["--init", "x.json"],
        SWEEP + ["--t-end", "5"],
        ["factorize", "--algebra", "un"],
        ["stability", "--steps", "5"],
        ["stability", "--kappa", "0.3"],
    ],
)
def test_cli_rejects_option_the_handler_does_not_read(tmp_path, capsys, argv):
    # each of these was once accepted and echoed, then ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["integrate", "--steps", "10"],
            {"algebra", "n", "kappa", "a", "b", "t_start", "t_end", "steps", "seed"},
        ),
        (["closed-form", "--steps", "10"], {"kappa", "a", "b", "t_start", "t_end", "steps"}),
        (["factorize"], {"kappa", "a", "b", "t_start", "shift"}),
        (["stability"], {"triple", "halfline", "amplitude", "horizon"}),
    ],
)
def test_cli_config_echoes_exactly_the_options_read(tmp_path, argv, keys):
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(out)]) == 0
    assert set(json.loads(out.read_text())["config"]) == keys | {"scale"}


@pytest.mark.parametrize(
    "argv, components, keys",
    [
        (["integrate", "--steps", "10"], ("T0", "T1", "T2", "T3"), {"t_start", "t_end", "steps"}),
        (["spectral", "--steps", "10"], ("T0", "T1", "T2", "T3"), {"t_start", "t_end", "steps"}),
        (["degeneracy", "--steps", "10"], ("T0", "T1", "T2", "T3"), {"t_start", "t_end", "steps"}),
        (["factorize"], ("T1", "T2", "T3"), set()),
        (["stability"], ("tau1", "tau2", "tau3"), {"halfline", "amplitude", "horizon"}),
    ],
)
def test_cli_config_echo_with_init(tmp_path, argv, components, keys):
    # the file replaces the scenario options, so the echo records its
    # digest instead of them
    quad = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    quad[1] = quad[1] - 1.5j * np.eye(2)
    mats = dict(zip(("T0", "T1", "T2", "T3"), quad))
    mats.update(tau1=quad[1], tau2=0.5 * quad[1], tau3=0 * quad[1])
    init = tmp_path / "init.json"
    init.write_text(json.dumps({c: serialize.matrix_to_pairs(mats[c]) for c in components}))
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--init", str(init), "--output", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == keys | {"init_sha256", "scale"}
    assert config["init_sha256"] == hashlib.sha256(init.read_bytes()).hexdigest()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "argv, components",
    [
        (["integrate", "--steps", "10"], ("T0", "T1", "T2", "T3")),
        (["degeneracy", "--steps", "10"], ("T0", "T1", "T2", "T3")),
        (["spectral", "--steps", "10"], ("T0", "T1", "T2", "T3")),
        (["stability"], ("tau1", "tau2", "tau3")),
        (["factorize"], ("T1", "T2", "T3")),
    ],
)
def test_cli_non_finite_init_entry_exits_2(tmp_path, capsys, argv, components, bad):
    # json reads NaN and Infinity; such an entry is a config error that
    # names its component, reported before any numerics run
    quad = su2_closed_form(1.0, 0.0, 0.8, 0.0)
    quad[1] = quad[1] - 1.5j * np.eye(2)
    mats = dict(zip(("T0", "T1", "T2", "T3"), quad))
    mats.update(tau1=quad[1], tau2=0.5 * quad[1], tau3=0 * quad[1])
    obj = {c: serialize.matrix_to_pairs(mats[c]) for c in components}
    obj[components[1]][0][1][0] = bad
    init = tmp_path / "init.json"
    init.write_text(json.dumps(obj))
    assert ("NaN" if bad != bad else "Infinity") in init.read_text()
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--init", str(init), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: component {components[1]!r} has non-finite entries\n"
    assert not out.exists()


def _huge_init(tmp_path, scale=1e100):
    # entries around 1e100, inside the --init bound of 1e150/n, still overflow
    # inside the brackets on the first step
    big = scale * np.diag([1j, -1j])
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    obj["T2"] = serialize.matrix_to_pairs(big)
    obj["T3"] = serialize.matrix_to_pairs(scale * np.array([[0, 1], [-1, 0]]))
    init = tmp_path / "huge.json"
    init.write_text(json.dumps(obj))
    return init


def test_cli_numerical_failure_exit_3(tmp_path):
    code = run_cli(
        ["integrate", "--init", str(_huge_init(tmp_path)), "--steps", "10",
         "--output", str(tmp_path / "x.json")]
    )
    assert code == 3
    # tau1 = 1e150 e1 is inside the --init bound, and its stability operator
    # is finite, but the half-line flow overflows before anything is written
    out = tmp_path / "stab.json"
    init = _triple_init(tmp_path, "1e150,0,0")
    assert run_cli(["stability", "--init", str(init), "--halfline", "--output", str(out)]) == 3
    assert not out.exists()


def _triple_init(tmp_path, triple):
    # tau_i = c_i e1 as an --init file; e1 has entries of modulus 1/2, so
    # the --init bound 1e150/2 at n = 2 is --triple's 1e150 on c_i
    e1 = su2_basis()[0]
    coefficients = map(float, triple.split(","))
    obj = {f"tau{i}": serialize.matrix_to_pairs(c * e1) for i, c in enumerate(coefficients, 1)}
    init = tmp_path / "triple.json"
    init.write_text(json.dumps(obj))
    return init


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("triple", ["1e300,0,0", "1e300,1e300,0"])
def test_cli_stability_oversized_init_exits_2_without_warnings(tmp_path, capsys, triple):
    # entries whose stability operator would overflow are refused on load,
    # with one line naming the first oversized component and the bound
    out = tmp_path / "stab.json"
    init = _triple_init(tmp_path, triple)
    assert run_cli(["stability", "--init", str(init), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: component 'tau1' has an entry above 1e+150/n = 5e+149 in magnitude (n = 2)\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, code", [(5e149, 3), (5.000001e149, 2), (1e200, 2)])
@pytest.mark.parametrize("command", ["integrate", "degeneracy", "spectral"])
def test_cli_init_entry_bound(tmp_path, capsys, command, scale, code):
    # the bound is 1e150/n = 5e149 at n = 2: entries up to it reach the
    # numerics as before (here the flow overflows at step 1), larger ones
    # are config errors; either way one line on stderr and no output
    out = tmp_path / "out.json"
    init = _huge_init(tmp_path, scale)
    argv = [command, "--init", str(init), "--steps", "10", "--output", str(out)]
    assert run_cli(argv) == code
    assert capsys.readouterr().err == (
        "numerical failure: state became non-finite at step 1\n" if code == 3 else
        "error: component 'T2' has an entry above 1e+150/n = 5e+149 in magnitude (n = 2)\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("command", ["integrate", "degeneracy", "spectral"])
def test_cli_init_near_the_float_maximum_exits_2_without_warnings(tmp_path, capsys, command,
                                                                  hermitian):
    # a finite entry of 1.7e308 overflows the defect M + M* of a Hermitian T1
    # or the projection M - M* of an anti-Hermitian one on load: one error
    # line naming the component, no numpy warning and no output
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    obj["T1"] = serialize.matrix_to_pairs(np.diag([1.7e308 if hermitian else 1.7e308j, 0.0]))
    init, out = tmp_path / "max.json", tmp_path / "out.json"
    init.write_text(json.dumps(obj))
    argv = [command, "--init", str(init), "--steps", "10", "--output", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        "error: component 'T1' has entries so close to the float maximum that its "
        "anti-Hermitian check or projection overflows\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_stability_init_at_the_bound_matches_the_triple(tmp_path):
    # tau1 = 1e150 e1 has entries of 5e149, exactly the bound at n = 2: it
    # runs, and gives --triple 1e150,0,0's report
    got, want = tmp_path / "init.json", tmp_path / "triple.json"
    init = _triple_init(tmp_path, "1e150,0,0")
    assert run_cli(["stability", "--init", str(init), "--output", str(got)]) == 0
    assert run_cli(["stability", "--triple", "1e150,0,0", "--output", str(want)]) == 0
    assert json.loads(got.read_text())["report"] == json.loads(want.read_text())["report"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "triple, code",
    [("1e150,0,0", 0), ("1e150,0,-1e150", 0), ("1e154,0,0", 2), ("0,-1e154,0", 2), ("1e300,0,0", 2)],
)
def test_cli_triple_magnitude_is_checked_before_numerics(tmp_path, capsys, triple, code):
    # past 1e150 the squares in the stability operator overflow, so such a
    # --triple is a config error naming the option, the only line on stderr
    out = tmp_path / "stab.json"
    assert run_cli(["stability", "--triple", triple, "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == f"error: --triple entries must be at most 1e+150 in magnitude, got {triple!r}\n"
        assert not out.exists()
        return
    assert err == ""
    e1 = su2_basis()[0]
    rep = stability.stability_spectrum(*[float(c) * e1 for c in triple.split(",")])
    assert json.loads(out.read_text())["report"] == json.loads(serialize.dumps(rep.as_dict()))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["integrate", "stability"])
def test_cli_flow_overflow_exits_3_without_warnings(tmp_path, capsys, command):
    # the first RK4 stage overflows; the finiteness check after the step
    # reports it, with no numpy RuntimeWarnings ahead of the message
    out = tmp_path / "out.json"
    if command == "integrate":
        argv = ["integrate", "--init", str(_huge_init(tmp_path)), "--steps", "10"]
    else:
        argv = ["stability", "--triple", "1e150,0,0", "--halfline"]
    assert run_cli(argv + ["--output", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: state became non-finite at step 1\n"
    assert not out.exists()


def _scaled_commuting_init(tmp_path, n, scale):
    # T1 = scale X with T0 = T2 = T3 = 0: a commuting triple, so a constant
    # solution whose shooting grows like exp(scale |ad X| t)
    X = random_antihermitian(n, np.random.default_rng(1), traceless=True)
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((n, n))) for i in range(4)}
    obj["T1"] = serialize.matrix_to_pairs(scale * X)
    init = tmp_path / "commuting.json"
    init.write_text(json.dumps(obj))
    return init


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["det", "pencil", "forming"])
def test_cli_overflow_outside_rk4_exits_3_with_one_message(tmp_path, capsys, case):
    # a finite shooting matrix whose determinant overflows, a circle pencil
    # that overflows while sampled, and an su(2) sweep point whose M
    # overflows while formed: each raises instead of printing numpy warnings
    out = tmp_path / "out.txt"
    if case == "det":
        argv = ["degeneracy", "--init", str(_scaled_commuting_init(tmp_path, 4, 30.0)),
                "--steps", "400"]
    elif case == "pencil":
        argv = ["factorize", "--shift", "1e308"]
    else:
        argv = ["sweep", "--param", "a", "--from", "1", "--to", "1e300", "--points", "2",
                "--steps", "20"]
    assert run_cli(argv + ["--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


# scenario options that pass every input check yet overflow in the numerics:
# under main's floating-point policy each is one numerical failure, with no
# numpy warning, nothing on stdout and no output file
OVERFLOWING_SCENARIOS = {
    "integrate": ["integrate", "--algebra", "un", "--n", "2", "--seed", "13289",
                  "--t-end", "30", "--steps", "2"],
    # finite samples, but a conserved report (stderr) that is not finite
    "integrate_csv": ["integrate", "--steps", "1", "--t-end", "1e20", "--format", "csv"],
    "spectral": ["spectral", "--kappa", "0", "--a", "1e154", "--b", "1e-300", "--steps", "64"],
    # finite options whose elliptic argument a t overflows to infinity
    "closed_form": ["closed-form", "--a", "1e300", "--t-end", "1e20", "--steps", "2"],
    "stability": ["stability", "--triple", "1e8,0,0.999999", "--halfline", "--amplitude", "1",
                  "--horizon", "1e-300"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["integrate", "integrate_csv", "spectral", "closed_form"])
@pytest.mark.parametrize("to_file", [True, False])
def test_cli_scenario_overflow_exits_3_and_writes_nothing(tmp_path, capsys, command, to_file):
    # an overflow in the flow or in the spectral curve raises under main's
    # errstate before any output exists, on stdout or in a file; so do a
    # non-finite CSV report, which is rendered before the CSV is written,
    # and an infinite elliptic argument of the closed form
    out = tmp_path / "out.json"
    argv = OVERFLOWING_SCENARIOS[command] + (["--output", str(out)] if to_file else [])
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), np.array([1.0, -np.inf])])
def test_cli_non_finite_output_is_a_numerical_failure(tmp_path, capsys, monkeypatch, value):
    # a NaN or infinity that reaches the output without a floating-point
    # error, as a plain float or in an array, still exits 3, and the file
    # is never opened
    monkeypatch.setattr(spectral, "lax_residual", lambda traj: value)
    out = tmp_path / "out.json"
    assert run_cli(["spectral", "--steps", "20", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Out of range float values are not JSON compliant")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_factorize_overflow_in_cyclic_reduction_is_a_refusal(tmp_path, capsys):
    # the reduction's products overflow: a refusal with its reason and no
    # numpy warning, and the positivity report is still written
    out = tmp_path / "fac.json"
    argv = ["factorize", "--kappa", "-0.0", "--a", "1e20", "--b", "-0.0", "--shift", "1e-300",
            "--t-start", "0.3", "--output", str(out)]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == "factorization refused: cyclic reduction overflowed\n"
    data = json.loads(out.read_text())
    assert data["factors"] is None and data["positivity"]["certified"] is False


def test_cli_stability_overflow_writes_nothing_to_stdout(tmp_path):
    # the half-line fit divides by zero, which raises before LAPACK can
    # write its DLASCL complaints to stdout from C: a fresh process sees
    # C-level writes that an in-process test cannot
    for to_file in (True, False):
        out = tmp_path / "stab.json"
        argv = OVERFLOWING_SCENARIOS["stability"] + (["--output", str(out)] if to_file else [])
        proc = _python(f"import sys, nahmschmid.cli as c\nsys.exit(c.main({argv!r}))", check=False)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()


def test_cli_factorize_samples_the_pencil_once(tmp_path, monkeypatch):
    # cyclic reduction gates the factorization, so only the printed
    # positivity block samples the circle pencil
    sample, calls = positive.positivity_report, []

    def counting(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(positive, "positivity_report", counting)
    out = tmp_path / "fac.json"
    assert run_cli(["factorize", "--kappa", "0.8", "--shift", "3.0", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["factors"] is not None
    assert len(calls) == 1


def test_cli_factorize_refused_between_samples_prints_no_factors(tmp_path, capsys):
    # beta = 0.5 e^{i pi/64}, T1 = -0.5i(1 - 1e-3): the pencil is positive at
    # the 64 samples and negative between them, so cyclic reduction refuses
    # it; the output is that of a triple that is not positive at the samples
    beta = 0.5 * np.exp(1j * np.pi / 64)
    T1 = np.array([[-0.5j * (1 - 1e-3)]])
    T2 = np.array([[0.5 * (beta - np.conj(beta))]])
    T3 = np.array([[-0.5j * (beta + np.conj(beta))]])
    init = tmp_path / "dip.json"
    init.write_text(json.dumps({k: serialize.matrix_to_pairs(v)
                                for k, v in (("T1", T1), ("T2", T2), ("T3", T3))}))
    out = tmp_path / "fac.json"
    assert run_cli(["factorize", "--init", str(init), "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["positivity"]["sampled_positive"] and not data["positivity"]["certified"]
    assert data["factors"] is None and "norm_bound" not in data
    assert capsys.readouterr().err.startswith("factorization refused: ")


LOST_PD = "cyclic reduction lost positive definiteness"


@pytest.mark.parametrize(
    "shift, reason",
    [("0.5", LOST_PD), ("0", LOST_PD), ("-3", LOST_PD),
     # semidefinite: the least pencil eigenvalue touches 0 and the
     # right-factor roots reach the unit circle
     ("1", "right-factor root within tolerance of the unit circle (root margin ")],
)
def test_cli_factorize_not_positive_is_refused_by_cyclic_reduction(tmp_path, capsys, shift,
                                                                   reason):
    # cyclic reduction is the only gate: a triple that is not positive at
    # the samples is refused by it too, with the reason on stderr
    out = tmp_path / "fac.json"
    assert run_cli(["factorize", f"--shift={shift}", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert not data["positivity"]["sampled_positive"]
    assert data["factors"] is None and "norm_bound" not in data
    err = capsys.readouterr().err
    assert err.startswith(f"factorization refused: {reason}") and err.count("\n") == 1


def test_cli_degeneracy_output_equals_json_of_the_list_form(tmp_path):
    # the report's arrays go through the template path of serialize.dumps;
    # the text is json.dumps of the same report with nested lists
    rng = np.random.default_rng(4)
    quad = np.array([np.zeros((4, 4))]
                    + [random_antihermitian(4, rng, traceless=True) / 4 for _ in range(3)])
    init = tmp_path / "su4.json"
    init.write_text(json.dumps(serialize.quadruple_to_obj(quad)))
    out = tmp_path / "deg.json"
    assert run_cli(["degeneracy", "--init", str(init), "--steps", "200",
                    "--output", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    traj = integrate(quad, (0.0, 1.0), SolverConfig(steps=200))
    rep = degeneracy.degeneracy_report(traj)
    assert len(data["report"]["singular_values"]) == 15
    data["report"]["shooting_matrix"] = rep.shooting_matrix.tolist()
    data["report"]["singular_values"] = rep.singular_values.tolist()
    assert text == json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _positive_init(tmp_path, n):
    # a triple whose pencil is positive: T1 is shifted by -i mu / 2 with mu
    # above 2 |T1| + 2 |T2 + i T3| of the unshifted parts
    rng = np.random.default_rng(30 + n)
    T1, T2, T3 = (0.3 / np.sqrt(n) * random_antihermitian(n, rng) for _ in range(3))
    mu = 2 * np.linalg.norm(T1, 2) + 2 * np.linalg.norm(T2 + 1j * T3, 2) + 0.5
    obj = {k: serialize.matrix_to_pairs(M)
           for k, M in (("T1", T1 - 0.5j * mu * np.eye(n)), ("T2", T2), ("T3", T3))}
    init = tmp_path / "positive.json"
    init.write_text(json.dumps(obj))
    return init, obj


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cli_factorize_output_equals_json_of_the_list_form(tmp_path, n):
    # A and B reach serialize.dumps as complex arrays; the text is json.dumps
    # of the same output with their [re, im] pairs as nested lists
    init, obj = _positive_init(tmp_path, n)
    out = tmp_path / "fac.json"
    assert run_cli(["factorize", "--init", str(init), "--output", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    T1, T2, T3 = serialize.quadruple_from_obj(obj, ("T1", "T2", "T3"))[0]
    pair = positive.factorize_triple(T1, T2, T3)
    assert np.any(pair.A.imag != 0)
    data["factors"]["A"] = serialize.matrix_to_pairs(pair.A)
    data["factors"]["B"] = serialize.matrix_to_pairs(pair.B)
    assert text == json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("triple", ["1,0,0", "0,1,0", "0.5,0.6,0.8"])
def test_cli_stability_output_equals_json_of_the_list_form(tmp_path, triple):
    # operator_spectrum and dv_spectrum reach serialize.dumps as arrays; the
    # unstable triples give dv_spectrum imaginary parts
    out = tmp_path / "stab.json"
    assert run_cli(["stability", "--triple", triple, "--output", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    e1 = su2_basis()[0]
    rep = stability.stability_spectrum(*[float(c) * e1 for c in triple.split(",")])
    assert np.any(rep.dv_spectrum.imag != 0) == (triple != "1,0,0")
    data["report"]["operator_spectrum"] = rep.operator_spectrum.tolist()
    data["report"]["dv_spectrum"] = [[float(z.real), float(z.imag)] for z in rep.dv_spectrum]
    assert text == json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_cli_csv_to_a_bad_path_prints_only_the_error(tmp_path, capsys):
    # the conservation report goes to stderr only after the CSV was written
    bad = tmp_path / "missing" / "x.csv"
    argv = ["integrate", "--steps", "50", "--format", "csv", "--output"]
    assert run_cli(argv + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    good = tmp_path / "x.csv"
    assert run_cli(argv + [str(good)]) == 0
    assert good.exists()
    assert set(json.loads(capsys.readouterr().err)) == {"scale", "initial", "drift",
                                                         "relative_drift"}


@pytest.mark.parametrize("argv", [
    ["integrate", "--steps", str(10**15)],
    ["stability", "--triple", "1,0,0", "--halfline", "--horizon", "1e14"],
])
def test_cli_size_beyond_memory_exits_2(tmp_path, capfd, argv):
    # arrays far beyond any address space: numpy's MemoryError is a
    # configuration error with one line, not a traceback
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(out)]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_cli_halfline_horizon_not_positive_exits_2(tmp_path, capfd, horizon):
    # no LAPACK noise, no RuntimeWarning and no backwards run: one error line
    out = tmp_path / "hl.json"
    argv = ["stability", "--triple", "1,0,0", "--halfline", "--horizon", horizon]
    assert run_cli(argv + ["--output", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --horizon must be positive, got {float(horizon)!r}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_halfline_zero_amplitude_writes_null_rate(tmp_path, capfd):
    out = tmp_path / "hl.json"
    argv = ["stability", "--triple", "1,0,0", "--halfline", "--amplitude", "0",
            "--horizon", "2"]
    assert run_cli(argv + ["--output", str(out)]) == 0
    assert capfd.readouterr().err == ""
    hl = json.loads(out.read_text())["halfline"]
    assert hl["fitted_rate"] is None and hl["converged"] and not hl["diverged"]


def test_cli_pi_bound_of_zero_T2_T3_is_positive_zero(tmp_path):
    # inner(0, 0) is -0.0; the bound of a T1-only solution is written 0.0
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    obj["T1"] = serialize.matrix_to_pairs(0.7 * su2_basis()[0])
    init = tmp_path / "t1.json"
    init.write_text(json.dumps(obj))
    out = tmp_path / "deg.json"
    assert run_cli(["degeneracy", "--init", str(init), "--steps", "50",
                    "--output", str(out)]) == 0
    text = out.read_text()
    assert '"pi_bound": 0.0,' in text and "-0.0" not in text.split('"report"')[0]


def _constant_T2_init(tmp_path, c):
    # T2 = c (pi/2) e1 held constant, T0 = T1 = T3 = 0: a solution whose
    # degeneracy operator on a span of length L is xi'' + (c pi/2)^2 xi on
    # the (e2, e3) plane, with a Dirichlet kernel where c pi/2 = pi/L.  Its
    # pi-bound is 2 |T2|^2 = c^2 pi^2 / 2
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    obj["T2"] = serialize.matrix_to_pairs(c * 0.5 * np.pi * su2_basis()[0])
    init = tmp_path / f"t2_{c}.json"
    init.write_text(json.dumps(obj))
    return init


@pytest.mark.parametrize("c, t_end, certified, verdict", [
    (1.0, 2.0, False, "degenerate"),     # bound * 4 = 2 pi^2: on the locus
    (0.9, 2.0, False, "nondegenerate"),  # bound * 4 = 1.62 pi^2: one-sided
    (0.6, 2.0, True, "nondegenerate"),   # bound * 4 = 0.72 pi^2
    (1.0, 1.0, True, "nondegenerate"),   # bound = pi^2 / 2 on [0, 1]
])
def test_cli_pi_certificate_is_on_the_trajectory_span(tmp_path, c, t_end, certified, verdict):
    # certified when bound * L^2 < pi^2, L = t_end - t_start: pi^2 / L^2 is
    # the lowest Dirichlet eigenvalue on the span, so a certified run is
    # never degenerate; pi_bound itself does not depend on the span
    out = tmp_path / "deg.json"
    assert run_cli(["degeneracy", "--init", str(_constant_T2_init(tmp_path, c)),
                    "--t-end", str(t_end), "--steps", "400", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pi_bound"] == pytest.approx(c * c * np.pi**2 / 2, rel=1e-15)
    assert data["pi_certified"] is certified
    assert data["report"]["verdict"] == verdict


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, components", [
    (["degeneracy", "--steps", "50"], ("T0", "T1", "T2", "T3")),
    (["stability", "--halfline"], ("tau1", "tau2", "tau3")),
])
def test_cli_zero_1x1_init_runs_in_u1(tmp_path, capsys, argv, components):
    # su(1) = {0} has no basis, so 1x1 data is taken in u(1) whatever its
    # trace: zero data has the identity shooting matrix and a zero
    # stability operator, and the run exits 0 with nothing on stderr
    init, out = tmp_path / "zero1.json", tmp_path / "out.json"
    init.write_text(json.dumps({c: serialize.matrix_to_pairs(np.zeros((1, 1)))
                                for c in components}))
    assert run_cli(argv + ["--init", str(init), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())["report"]
    if argv[0] == "degeneracy":
        assert report["verdict"] == "nondegenerate"
        assert np.allclose(report["shooting_matrix"], [[1.0]], atol=1e-12)
    else:
        assert report["operator_spectrum"] == [0.0] and report["stable"]


def test_cli_integrate_relative_drift_of_zero_initial_values_warns_nothing(tmp_path, capsys):
    # kappa = b = 1e-300 give initial conserved values of -0.0 beside drifts
    # near 1e94: the relative drift divides only where the initial value is
    # nonzero, so the unused quotients do not overflow (the suite turns a
    # RuntimeWarning into an error), and elsewhere it is the drift itself
    out = tmp_path / "run.json"
    assert run_cli(["integrate", "--kappa", "1e-300", "--a", "1e20", "--b", "1e-300",
                    "--t-start", "5", "--t-end", "30", "--steps", "4",
                    "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    conserved = json.loads(out.read_text())["conserved"]
    for name, initial in conserved["initial"].items():
        drift, rel = conserved["drift"][name], conserved["relative_drift"][name]
        assert rel == (drift if initial == 0 else drift / abs(initial))
    assert conserved["initial"]["n12"] == 0.0 and conserved["drift"]["n12"] > 1e90


def test_cli_reproducible_bytes(tmp_path, monkeypatch):
    args = [
        "integrate", "--algebra", "un", "--n", "3", "--seed", "42",
        "--steps", "100",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--output", str(out1)]) == 0
    # files are written in pieces of whole sample rows of at most about
    # _PIECE_FLOATS floats (one row here); the size of the pieces does not
    # change the bytes
    monkeypatch.setattr(serialize, "_PIECE_FLOATS", 7)
    assert run_cli(args + ["--output", str(out2)]) == 0
    assert out1.stat().st_size > 7 * 100
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_closed_form(tmp_path):
    out = tmp_path / "cf.json"
    code = run_cli(
        ["closed-form", "--kappa", "0.8", "--a", "1", "--b", "0",
         "--steps", "40", "--output", str(out)]
    )
    assert code == 0
    traj = trajectory_from_obj(json.loads(out.read_text())["trajectory"])
    ref = su2_closed_form_trajectory(1.0, 0.0, 0.8, (0.0, 1.0), 40)
    assert_allclose(traj.samples, ref.samples, atol=1e-15)


def test_cli_spectral_matches_formula(tmp_path):
    out = tmp_path / "spec.json"
    code = run_cli(
        ["spectral", "--kappa", "0.8", "--a", "1", "--b", "0",
         "--steps", "400", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    coeffs = {(k, j): re + 1j * im for k, j, re, im in data["curve"]["coefficients"]}
    a, kappa = 1.0, 0.8
    assert abs(coeffs[(2, 2)] - (-(a**2 / 2) * (1 + kappa**2))) < 1e-8
    assert abs(coeffs[(2, 0)] - (a**2 / 4) * (kappa**2 - 1)) < 1e-8
    assert abs(coeffs[(2, 4)] - (a**2 / 4) * (kappa**2 - 1)) < 1e-8
    assert data["isospectral_drift"] < 1e-8
    assert data["lax_residual"] < 1e-6


def test_cli_degeneracy_verdicts(tmp_path):
    K9 = complete_K(0.9)
    out = tmp_path / "deg.json"
    code = run_cli(
        ["degeneracy", "--kappa", "0.9", "--a", repr(2 * K9), "--b", "0",
         "--steps", "1000", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["report"]["verdict"] == "degenerate"
    assert data["report"]["sigma_min"] < 1e-4

    code = run_cli(
        ["degeneracy", "--kappa", "0.9", "--a", "1.0", "--b", "0.5",
         "--steps", "1000", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["report"]["verdict"] == "nondegenerate"


def test_cli_factorize(tmp_path):
    out = tmp_path / "fac.json"
    code = run_cli(
        ["factorize", "--kappa", "0.8", "--a", "1", "--b", "0",
         "--shift", "3.0", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["positivity"]["sampled_positive"]
    assert data["norm_bound"]["holds"]
    B = serialize.matrix_from_pairs(data["factors"]["B"])
    assert np.min(np.linalg.eigvalsh(B)) > 0


def test_cli_stability(tmp_path):
    out = tmp_path / "stab.json"
    code = run_cli(["stability", "--triple", "1,0,0", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["report"]["stable"]
    assert abs(data["report"]["eta"] - 1.0) < 1e-10

    code = run_cli(["stability", "--triple", "0,1,0", "--output", str(out)])
    data = json.loads(out.read_text())
    assert not data["report"]["stable"]


def test_cli_sweep_sigma_min_crossing(tmp_path):
    # sigma_min dips to zero near a = 2 K(kappa) along the a-sweep
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--param", "a", "--from", "3.5", "--to", "5.5",
         "--points", "9", "--kappa", "0.9", "--b", "0",
         "--steps", "300", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "a"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    avals = np.array([float(r[0]) for r in rows])
    smins = np.array([float(r[1]) for r in rows])
    a_star = 2 * complete_K(0.9)
    # the minimum of sigma_min over the grid sits at the grid point closest
    # to the degenerate parameter
    assert abs(avals[np.argmin(smins)] - a_star) == pytest.approx(
        np.min(np.abs(avals - a_star))
    )
    # the shooting determinant changes sign across the locus
    dets = np.array([float(r[3]) for r in rows])
    assert dets[avals < a_star][0] * dets[avals > a_star][-1] < 0


def test_cli_stability_halfline(tmp_path):
    out = tmp_path / "hl.json"
    code = run_cli(
        ["stability", "--triple", "1,0,0", "--halfline",
         "--amplitude", "1e-4", "--horizon", "6.0", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    hl = data["halfline"]
    assert hl["converged"]
    assert abs(hl["fitted_rate"] - 1.0) < 0.1


def test_cli_sweep_rows_in_grid_order(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli(
        ["sweep", "--param", "a", "--from", "1", "--to", "2", "--points", "3",
         "--param2", "kappa", "--from2", "0.3", "--to2", "0.6", "--points2", "2",
         "--steps", "150", "--output", str(out)]
    )
    assert code == 0
    rows = [line.split(",")[:2] for line in out.read_text().strip().splitlines()[1:]]
    expected = [(a, k) for a in (1.0, 1.5, 2.0) for k in (0.3, 0.6)]
    assert [(float(a), float(k)) for a, k in rows] == pytest.approx(expected)


@pytest.mark.parametrize(
    "points",
    [["--points", "0"], ["--points", "-2"], ["--points", "2", "--param2", "b", "--points2", "0"]],
)
def test_cli_sweep_rejects_empty_grid(tmp_path, capsys, points):
    out = tmp_path / "empty.csv"
    code = run_cli(
        ["sweep", "--param", "a", "--from", "1", "--to", "2", *points,
         "--steps", "150", "--output", str(out)]
    )
    assert code == 2
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_ignores_points2_without_param2(tmp_path):
    # --points2 is read only with --param2, so without it no value is refused
    argv = ["sweep", "--param", "a", "--from", "1", "--to", "2", "--points", "2",
            "--steps", "20"]
    plain, unread = tmp_path / "plain.csv", tmp_path / "unread.csv"
    assert run_cli(argv + ["--output", str(plain)]) == 0
    assert run_cli(argv + ["--points2", "0", "--output", str(unread)]) == 0
    assert unread.read_bytes() == plain.read_bytes()


def test_cli_closed_form_hyperbolic_long_range(tmp_path):
    out = tmp_path / "hyp.json"
    code = run_cli(
        ["closed-form", "--kappa", "1", "--t-end", "800", "--steps", "10", "--output", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["t_end"] == 800.0


def test_cli_sweep_two_parameters(tmp_path):
    out = tmp_path / "sweep2.csv"
    code = run_cli(
        ["sweep", "--param", "a", "--from", "1", "--to", "2", "--points", "2",
         "--param2", "kappa", "--from2", "0.3", "--to2", "0.6", "--points2", "2",
         "--steps", "200", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("a,kappa,")
    assert len(lines) == 5


def _python(code, check=True):
    # a fresh interpreter that imports this checkout's package
    src = str(Path(nahmschmid.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=check)


def test_package_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable every
    # subcommand exits 0, and the monodromy inverse and the su(2) canonical
    # form, the two users of a matrix log and a rotation lift, still work
    out = str(tmp_path / "out")
    argvs = [
        ["integrate", "--steps", "20"],
        ["closed-form", "--steps", "20"],
        ["spectral", "--steps", "20"],
        ["degeneracy", "--steps", "20"],
        ["factorize"],
        ["stability", "--triple", "1,0,0", "--halfline", "--horizon", "1"],
        ["sweep", "--steps", "20", "--param", "a", "--from", "1", "--to", "2", "--points", "2"],
    ]
    assert [argv[0] for argv in argvs] == [s[0] for s in cli._SUBCOMMANDS]
    code = f"""
import importlib.abc, sys


class Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")


sys.meta_path.insert(0, Blocker())
import numpy as np
import nahmschmid
from nahmschmid import cli, flow, liealg

for argv in {argvs!r}:
    assert cli.main(argv + ["--output", {out!r}]) == 0, argv
traj = flow.su2_closed_form_trajectory(1.0, 0.3, 0.8, (0.0, 1.0), 400)
X = liealg.random_antihermitian(2, np.random.default_rng(7), traceless=True)
gamma = liealg.exp_unitary(X)
back = flow.from_boundary_data(gamma, *traj.samples[0, 1:], flow.SolverConfig(steps=400))
md = flow.monodromy(back)
assert np.max(np.abs(md.gamma - gamma)) < 1e-6
assert np.max(np.abs(np.array([md.xi1, md.xi2, md.xi3]) - traj.samples[0, 1:])) == 0.0
# the Gram pencil's eigenvectors fix the profiles' signs only up to a rotation by pi
ref = np.abs(flow.su2_canonicalize(traj).profiles)
assert np.max(np.abs(np.abs(flow.su2_canonicalize(back).profiles) - ref)) < 1e-8
"""
    _python(code)  # raises on a failing assertion or an import of scipy


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path):
    # main builds its parser on the first call and reuses it: a run after
    # an --init run has no init_sha256 and writes the bytes of a run in a
    # fresh interpreter, where importing the CLI built no parser
    mats = (np.zeros((2, 2)),) + su2_basis()
    obj = {f"T{i}": serialize.matrix_to_pairs(0.5 * M) for i, M in enumerate(mats)}
    init = tmp_path / "init.json"
    init.write_text(json.dumps(obj))
    argv = ["integrate", "--steps", "20", "--output"]
    a, b, fresh = (tmp_path / f"{name}.json" for name in ("a", "b", "fresh"))
    assert run_cli(argv + [str(a), "--init", str(init)]) == 0
    assert "init_sha256" in json.loads(a.read_text())["config"]
    assert run_cli(argv + [str(b)]) == 0
    assert "init_sha256" not in json.loads(b.read_text())["config"]
    assert cli._parser() is cli._parser()
    code = (
        "import sys, nahmschmid.cli as c\n"
        "assert c._parser.cache_info().currsize == 0\n"
        f"sys.exit(c.main({argv + [str(fresh)]!r}))"
    )
    _python(code)
    assert b.read_bytes() == fresh.read_bytes()
