"""What the benchmark in perfbench/ relies on from the package.

The traced run rebinds call sites by name and the workloads drive the CLI
with fixed argument lists; a refactor that drops a traced name or an option
the benchmark passes breaks the benchmark.  The perfbench modules are
imported by path and used as they are.
"""

import importlib.util
from pathlib import Path

from nahmschmid import cli

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
