"""Smoke tests of the scripts in tools/.

tools/layer_times.py reaches into private names of the package (the flow's
blocks and RHS kernel, the A-B kernel, the shooting's forming budget and its
liealg.AdjointBasis, the second-order RK4 layout, the Jacobi functions, the
CLI's writer cli._emit) and calls only their current form, so a refactor of
those names shows here first.  The script is loaded by path and run at its
smallest size.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_layer_times_runs_and_reports_every_kernel(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("layer_times", TOOLS / "layer_times.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SIZES", (2,))
    monkeypatch.setattr(tool, "REPEAT", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends the source tree
    out = tmp_path / "bench.json"
    tool.main(["--output", str(out), "--label", "smoke"])
    (run,) = json.loads(out.read_text())
    assert run["label"] == "smoke" and run["repeat"] == 1
    results = run["results"]
    assert set(results) == {"rhs", "flow_step", "flow_t0_step", "shoot_step", "jacobi",
                            "char_poly", "double_bracket", "ab_rhs", "ab_step", "export"}
    for by_n in results.values():
        assert list(by_n) == ["2"]
        assert math.isfinite(by_n["2"]) and by_n["2"] > 0
    assert len(capsys.readouterr().out.splitlines()) == 10
