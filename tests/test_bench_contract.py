"""What the benchmark in perfbench/ relies on from the package.

The traced run rebinds call sites by name and the workloads drive the CLI
with fixed argument lists; a refactor that drops a traced name or an option
the benchmark passes breaks the benchmark.  The perfbench modules are
imported by path and used as they are.
"""

import importlib.util
from pathlib import Path

import numpy as np

from nahmschmid import cli, degeneracy, flow, grids, serialize
from nahmschmid.liealg import random_antihermitian

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# call sites layers.install rebinds, counting each module a name is bound in
TRACED_BINDINGS = 45


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_patch_and_restore():
    tracer, layers = _load("tracer"), _load("layers")
    t = tracer.Tracer()
    try:
        layers.install(t)
        patches = list(t._patches)
        assert len(patches) == TRACED_BINDINGS
        assert all(getattr(mod, attr) is not orig for mod, attr, orig in patches)
    finally:
        t.unpatch()
    assert all(getattr(mod, attr) is orig for mod, attr, orig in patches)


def test_workload_argv_parses():
    workloads = _load("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for spec in workloads.all_specs(workload):
            argv = workloads.argv_for(spec, "in.json", "out.json")
            assert parser.parse_args(argv).command == spec["kind"], argv


def test_shooting_jobs_have_zero_T0():
    # shooting a trajectory with T0 != 0 first solves the gauge ODE with
    # rk4_sampled, whose steps would enter the traced shoot count that
    # expected_counts fixes at one run of S steps per shooting
    workloads = _load("workloads")
    shooting = [spec for workload in workloads.WORKLOADS
                for spec in workloads.all_specs(workload)
                if spec["kind"] in ("degeneracy", "sweep")]
    assert shooting
    parser = cli.build_parser()
    for spec in shooting:
        if "init" in spec:
            quad, _ = serialize.quadruple_from_obj(spec["init"])
        elif spec["kind"] == "degeneracy":
            args = parser.parse_args(workloads.argv_for(spec, "in.json", "out.json"))
            quad = cli._initial_quadruple(args)
        else:
            continue  # a sweep shoots su(2) closed forms, whose T0 is 0
        assert not np.any(quad[0]), spec["key"]


def test_streamed_shooting_steps_add_up_to_one_run(monkeypatch):
    # the traced shoot count sums len(result) - 1 over the rk4_sampled
    # calls; a shooting streamed over several blocks must still add up to
    # the one run of S steps that expected_counts fixes per shooting job
    workloads = _load("workloads")
    S = 40
    rng = np.random.default_rng(3)
    quad = np.array([np.zeros((3, 3))] + [random_antihermitian(3, rng, traceless=True)
                                          for _ in range(3)])
    traj = flow.integrate(quad, (0.0, 1.0), flow.SolverConfig(steps=S))
    # su(3): d = 8, so blocks of 7 steps (15 forming times each)
    monkeypatch.setattr(degeneracy, "_FORM_BLOCK_ENTRIES", 15 * 8 * 9)
    steps = []
    inner = grids.rk4_sampled

    def counting(*args, **kwargs):
        result = inner(*args, **kwargs)
        steps.append(len(result) - 1)
        return result

    monkeypatch.setattr(grids, "rk4_sampled", counting)
    degeneracy.shooting_matrix(traj)
    assert steps == [7] * 5 + [5]
    spec = {"kind": "degeneracy", "steps": S, "algebra": "su", "n": 3}
    assert sum(steps) == workloads.expected_counts(spec)["shoot"] == S


def test_streamed_halfline_counts_add_up_to_one_run(monkeypatch, tmp_path):
    # the half-line run steps the flow in blocks of flow._STEP_BLOCK; the
    # traced rk4 count sums len(result) - 1 over the blocks and the rhs
    # count is one per _rhs_stacked call, both fixed by expected_counts
    workloads = _load("workloads")
    spec = workloads.job_spec("large_algebra", "stab4", 0)
    init_path = workloads.write_inputs([spec], str(tmp_path))[spec["key"]]
    steps, rhs = [], []
    inner_rk4, inner_rhs = grids.rk4, flow._rhs_stacked

    def counting_rk4(*args, **kwargs):
        result = inner_rk4(*args, **kwargs)
        steps.append(len(result) - 1)
        return result

    def counting_rhs(*args, **kwargs):
        rhs.append(1)
        return inner_rhs(*args, **kwargs)

    monkeypatch.setattr(grids, "rk4", counting_rk4)
    monkeypatch.setattr(flow, "_rhs_stacked", counting_rhs)
    workloads.run_cli(workloads.argv_for(spec, init_path, str(tmp_path / "out.json")))
    expected = workloads.expected_counts(spec)
    assert len(steps) > 1 and max(steps) == flow._STEP_BLOCK
    assert sum(steps) == expected["rk4"]
    assert len(rhs) == expected["rhs"] == 4 * expected["rk4"]
