import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nahmschmid
from nahmschmid import cli, degeneracy, positive, serialize
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


# ---------------------------------------------------------------------------
# serialization round trips

def test_matrix_round_trip(rng):
    M = random_antihermitian(3, rng)
    back = serialize.matrix_from_pairs(serialize.matrix_to_pairs(M))
    assert_allclose(back, M, atol=0)


def test_trajectory_round_trip():
    traj = su2_closed_form_trajectory(1.0, 0.1, 0.6, (0.0, 1.0), 20)
    obj = serialize.trajectory_to_obj(traj)
    back = serialize.trajectory_from_obj(obj)
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
        serialize.trajectory_from_obj(obj),
        serialize.trajectory_from_obj(json.loads(serialize.dumps(obj))),
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
    traj = serialize.trajectory_from_obj(data["trajectory"])
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
    traj = serialize.trajectory_from_obj(data["trajectory"])
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


def _huge_init(tmp_path):
    # entries around 1e200 overflow inside the brackets on the first step
    big = 1e200j * np.eye(2)
    obj = {f"T{i}": serialize.matrix_to_pairs(np.zeros((2, 2))) for i in range(4)}
    obj["T2"] = serialize.matrix_to_pairs(big)
    obj["T3"] = serialize.matrix_to_pairs(1e200 * np.array([[0, 1], [-1, 0]]))
    init = tmp_path / "huge.json"
    init.write_text(json.dumps(obj))
    return init


def test_cli_numerical_failure_exit_3(tmp_path):
    code = run_cli(
        ["integrate", "--init", str(_huge_init(tmp_path)), "--steps", "10",
         "--output", str(tmp_path / "x.json")]
    )
    assert code == 3
    # entries of 1e300 overflow the products that form the double-bracket
    # matrix, which raise (FloatingPointError) before anything is written
    out = tmp_path / "stab.json"
    assert run_cli(["stability", "--triple", "1e300,0,0", "--output", str(out)]) == 3
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("triple", ["1e300,0,0", "1e300,1e300,0"])
def test_cli_stability_overflow_exits_3_without_warnings(tmp_path, capsys, triple):
    # an overflowing product raises at once instead of leaving inf and nan
    # (and numpy's RuntimeWarnings) for the commutation check and eigensolver
    out = tmp_path / "stab.json"
    assert run_cli(["stability", "--triple", triple, "--output", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: overflow encountered in matmul\n"
    assert not out.exists()


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


def test_cli_reproducible_bytes(tmp_path, monkeypatch):
    args = [
        "integrate", "--algebra", "un", "--n", "3", "--seed", "42",
        "--steps", "100",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--output", str(out1)]) == 0
    # files are written in slices of _EMIT_CHUNK characters; the size of
    # the slices does not change the bytes
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 7)
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
    traj = serialize.trajectory_from_obj(json.loads(out.read_text())["trajectory"])
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


def test_cli_import_loads_no_scipy():
    # scipy is imported only by the flow functions that use it, so a CLI
    # run that needs none of them does not pay for loading it
    src = str(Path(nahmschmid.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, nahmschmid.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
