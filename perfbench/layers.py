"""Call sites the traced run wraps, and the per-layer metrics built from them.

Layers are the package modules, plus numpy.linalg and the tracer itself.
Names imported into several modules are rebound in each (`bracket` lives in
liealg, flow, degeneracy, spectral and stability; `ad_matrix` in liealg and
stability).  `flow._rhs_stacked` and the numpy.linalg functions are looked up
at call time, so rebinding the attribute catches every call.  numpy calls
that numpy makes internally (np.poly -> eigvals, cond -> svd) stay inside
the calling span and are not counted under linalg.

Per-layer values cover one cycle of the workload.  Times are seconds of
self time (duration minus child spans) unless the name says `.s` of an
entry point, which is inclusive.  `layer.<name>.s` are the self times summed
per layer; over a job they add up to its wall time.
"""

import math

import numpy as np

from nahmschmid import (
    cli, degeneracy, elliptic, flow, grids, liealg, positive, serialize, spectral, stability,
)

LINALG = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "solve", "det")
STENCILS = ("derivative", "second_derivative", "midpoints")
LAYERS = ("cli", "serialize", "flow", "grids", "liealg", "elliptic", "degeneracy",
          "spectral", "positive", "stability", "linalg", "bench", "tracer")
COUNTED = {"rhs": "flow.rhs", "jacobi": "elliptic.jacobi", "char_poly": "spectral.char_poly"}
SUMMED = {"rk4": "grids.rk4", "shoot": "grids.rk4_sampled"}


def _bracket_flops(args, kwargs, result):
    # computed from shapes: two complex n x n products (8 real flops per
    # multiply-add) and one complex subtraction per stacked matrix
    n = result.shape[-1]
    batch = result.size // (n * n)
    return batch * (16.0 * n ** 3 + 2.0 * n * n)


def _sigma_ratio(args, kwargs, rep):
    return rep.sigma_min / rep.singular_values[0]


def _csv_bytes(args, kwargs, lines):
    return sum(len(line) + 1 for line in lines)


def install(tracer):
    """Wrap every call site of the table in the module docstring."""
    p = tracer.patch
    p([cli], "main", "cli.main")
    p([cli], "_sweep_point", "cli.sweep_point")
    p([serialize], "trajectory_to_obj", "serialize.trajectory_to_obj")
    p([serialize], "dumps", "serialize.dumps", arg=lambda a, k, r: len(r))
    p([serialize], "trajectory_csv_lines", "serialize.csv_lines", arg=_csv_bytes, materialize=True)
    p([serialize], "quadruple_from_obj", "serialize.load")
    p([flow], "integrate", "flow.integrate", arg=lambda a, k, r: r.steps)
    p([flow], "_rhs_stacked", "flow.rhs")
    p([flow], "su2_closed_form_trajectory", "flow.closed_form")
    p([flow], "conserved_report", "flow.conserved")
    p([grids], "rk4", "grids.rk4", arg=lambda a, k, r: len(r) - 1)
    p([grids], "rk4_sampled", "grids.rk4_sampled", arg=lambda a, k, r: len(r) - 1)
    for name in STENCILS:
        p([grids], name, f"grids.stencil.{name}")
    p([liealg, flow, degeneracy, spectral, stability], "bracket", "liealg.bracket",
      arg=_bracket_flops)
    p([liealg, stability], "ad_matrix", "liealg.ad_matrix")
    p([elliptic], "jacobi", "elliptic.jacobi")
    p([degeneracy], "shooting_matrix", "degeneracy.shooting")
    p([degeneracy], "degeneracy_report", "degeneracy.report", arg=_sigma_ratio)
    p([degeneracy], "pi_bound_precheck", "degeneracy.pi_bound", arg=lambda a, k, r: r[1])
    p([spectral], "char_poly", "spectral.char_poly")
    p([spectral], "lax_residual", "spectral.lax_residual")
    p([spectral], "isospectral_drift", "spectral.isospectral_drift")
    p([positive], "positivity_report", "positive.positivity")
    p([positive], "factorize_triple", "positive.factorize")
    p([positive], "norm_bound_check", "positive.norm_bound")
    p([positive], "integrate_ab", "positive.integrate_ab")
    p([positive], "ab_flow_rhs", "positive.ab_rhs")
    p([positive], "reconstruct", "positive.reconstruct")
    p([stability], "stability_spectrum", "stability.spectrum")
    p([stability], "stable_directions", "stability.directions")
    p([stability], "halfline_convergence", "stability.halfline")
    for name in LINALG:
        p([np.linalg], name, f"linalg.{name}")


def observed_counts(agg):
    """The counts the cross-checks compare with workloads.expected_counts."""
    by = agg["by_name"]
    out = {k: by.get(n, {}).get("calls", 0) for k, n in COUNTED.items()}
    out.update({k: int(by.get(n, {}).get("arg", 0)) for k, n in SUMMED.items()})
    return out


def _band_margin(ratios, tol_low=1e-6, tol_high=1e-3):
    # decades from the closest sigma ratio to either verdict band edge
    if len(ratios) == 0:
        return 0.0
    r = np.log10(np.maximum(ratios, 1e-300))
    return float(np.min(np.minimum(np.abs(r - math.log10(tol_low)),
                                   np.abs(r - math.log10(tol_high)))))


def metrics(agg, workers, identical_frac, overhead_frac):
    """Per-layer metrics of one traced cycle: {name: (value, unit)}."""
    by = agg["by_name"]

    def get(name, field):
        return by.get(name, {}).get(field, 0)

    def total(names, field):
        return float(sum(get(n, field) for n in names))

    wall = float(sum(agg["jobs"].values()))
    shoot_calls = get("degeneracy.shooting", "calls")
    pool = agg["pool"]
    m = {
        "cli.self_s": (total(("cli.main", "cli.sweep_point"), "self_s"), "s"),
        "cli.sweep.pool_util": (
            pool[1] / (pool[0] * workers) if pool[0] > 0 else 0.0, "ratio"),
        "serialize.s": (total(("serialize.trajectory_to_obj", "serialize.dumps",
                               "serialize.csv_lines"), "incl_s"), "s"),
        "serialize.mb": (total(("serialize.dumps", "serialize.csv_lines"), "arg") / 1e6, "MB"),
        "serialize.identical_frac": (identical_frac, "ratio"),
        "flow.integrate.calls": (get("flow.integrate", "calls"), "count"),
        "flow.integrate.self_s": (total(("flow.integrate",), "self_s"), "s"),
        "flow.rhs.evals": (get("flow.rhs", "calls"), "count"),
        "flow.rhs.s": (total(("flow.rhs",), "incl_s"), "s"),
        "flow.closed_form.s": (total(("flow.closed_form",), "incl_s"), "s"),
        "flow.conserved.s": (total(("flow.conserved",), "incl_s"), "s"),
        "grids.rk4.steps": (int(get("grids.rk4", "arg")), "count"),
        "grids.rk4.self_s": (total(("grids.rk4",), "self_s"), "s"),
        "grids.rk4_sampled.steps": (int(get("grids.rk4_sampled", "arg")), "count"),
        "grids.rk4_sampled.self_s": (total(("grids.rk4_sampled",), "self_s"), "s"),
        "grids.stencil.s": (total([f"grids.stencil.{s}" for s in STENCILS], "incl_s"), "s"),
        "liealg.bracket.calls": (get("liealg.bracket", "calls"), "count"),
        "liealg.bracket.s": (total(("liealg.bracket",), "incl_s"), "s"),
        "liealg.bracket.gflop": (get("liealg.bracket", "arg") / 1e9, "GFLOP"),
        "liealg.ad_matrix.s": (total(("liealg.ad_matrix",), "incl_s"), "s"),
        "elliptic.jacobi.calls": (get("elliptic.jacobi", "calls"), "count"),
        "elliptic.jacobi.s": (total(("elliptic.jacobi",), "incl_s"), "s"),
        "degeneracy.shooting.calls": (shoot_calls, "count"),
        "degeneracy.shooting.self_s": (total(("degeneracy.shooting",), "self_s"), "s"),
        "degeneracy.report.self_s": (total(("degeneracy.report",), "self_s"), "s"),
        "degeneracy.pi_certified_frac": (
            get("degeneracy.pi_bound", "arg") / shoot_calls if shoot_calls else 0.0, "ratio"),
        "degeneracy.band_margin_dec": (
            _band_margin(by.get("degeneracy.report", {}).get("args", [])), "decades"),
        "spectral.char_poly.calls": (get("spectral.char_poly", "calls"), "count"),
        "spectral.char_poly.s": (total(("spectral.char_poly",), "incl_s"), "s"),
        "spectral.lax_residual.s": (total(("spectral.lax_residual",), "incl_s"), "s"),
        "positive.factorize.s": (total(("positive.factorize",), "incl_s"), "s"),
        "positive.integrate_ab.s": (total(("positive.integrate_ab",), "incl_s"), "s"),
        "stability.spectrum.s": (total(("stability.spectrum",), "incl_s"), "s"),
        "stability.halfline.self_s": (total(("stability.halfline",), "self_s"), "s"),
    }
    for name in LINALG:
        m[f"linalg.{name}.calls"] = (get(f"linalg.{name}", "calls"), "count")
    m["linalg.s"] = (total([f"linalg.{n}" for n in LINALG], "incl_s"), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = (agg["by_layer"].get(layer, 0.0), "s")
    named = sum(agg["by_layer"].get(layer, 0.0) for layer in LAYERS[:-2])
    m["trace.job_wall_s"] = (wall, "s")
    m["trace.accounted_frac"] = (named / wall if wall else 0.0, "ratio")
    m["trace.tracer_frac"] = (agg["by_layer"].get("tracer", 0.0) / wall if wall else 0.0, "ratio")
    m["trace.spans"] = (agg["spans"], "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
