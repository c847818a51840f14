"""Workloads, jobs and oracle checks of the Nahm-Schmid benchmark.

Each workload is a fixed cycle of job slots.  A slot is a job template with
VARIANTS parameter variants drawn once from a fixed catalogue seed, so every
variant has a golden record (verdicts, sigma ratios and output hashes taken
at the commit that introduced the benchmark).  A round runs VARIANTS cycles
and every variant of every slot equally often; the run's --seed permutes the
order.  Variants differ in data, not in size (subcommand, n and steps belong
to the slot), so traced counts are exact per cycle, and since eigensolver and
JSON costs still depend a little on the data, whole rounds make the work of
every seed the same.

A job is one in-process `nahmschmid.cli.main(argv)` call writing to a
scratch file, or one library call sequence where no subcommand exists, plus
its check.  Checks use the paper's identities as oracles: the elliptic closed
form (evaluated independently with scipy.special.ellipj), the conserved
quantities, isospectrality, the Lax form, the degeneracy locus at a = 2K(kappa)
and the pi-bound, the decay rate eta of stable triples, the Rosenblatt
factorisation and the A-B flow against direct integration.

Why these workloads (the prediction each one makes for a later change):

* trajectory -- integrate (JSON and CSV export) alternating with spectral.
  RK4, the stacked RHS and `serialize` do nearly all the work; degeneracy
  does none.  JSON jobs put serialisation on top of RK4, spectral jobs run
  RK4 and `char_poly` without export, so a saving in one layer shows on one
  kind of job only.  Export is the largest cost a CLI user pays: the ROADMAP
  baseline row for `integrate` times RK4 alone and leaves it out.
* locus_sweep -- sweeps over su(2) closed-form grids plus single degeneracy
  jobs at a = 2K(kappa) (on the locus) and at pi-certified points.  Many
  n = 2 shootings: per-call overhead, the per-sample `elliptic.jacobi` loop
  and the sweep thread pool dominate; serialisation and `flow.integrate`
  do almost nothing.
* large_algebra -- shooting at n = 4, 8, 16 (u(n) through --algebra un,
  su(n) through --init), stability with the half-line fit, and
  factorisation followed by the A-B flow.  The work is arithmetic: stacked
  brackets over d = n^2 directions, ad-matrix eigenproblems, the Stein
  solve.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np
from scipy.special import ellipj

from nahmschmid import cli, elliptic, flow, liealg, positive, serialize

VARIANTS = 3
CATALOGUE_SEED = 20171107

# tolerances of the checks (the error must stay below each)
TOL_CLOSED_FORM = 1e-8
TOL_CONSERVED = 1e-8
TOL_ISOSPECTRAL = 1e-8
TOL_LAX = 1e-6
TOL_EXPORT = 1e-12
TOL_CONSERVED_C = 1e-10
TOL_RATE = 0.10
TOL_FACTOR = 1e-8
TOL_AB = 1e-6
# golden sigma agreement: |x - x_golden| <= SIGMA_ATOL + SIGMA_RTOL * |x_golden|
SIGMA_ATOL = 1e-9
SIGMA_RTOL = 1e-6

T_SPAN = (0.0, 1.0)
AB_STEPS = 1000


class CheckFailed(Exception):
    """A job ran but its output failed an oracle check."""


# ---------------------------------------------------------------------------
# catalogue

def _su2_params(rng):
    return {"kappa": float(rng.uniform(0.3, 0.9)), "a": float(rng.uniform(0.8, 1.4)),
            "b": float(rng.uniform(0.0, 1.0))}


def _traj_slot(kind, steps, algebra, fmt=None, n=2):
    def make(rng, v):
        spec = {"kind": kind, "steps": steps, "algebra": algebra, "format": fmt}
        if algebra == "su2":
            spec.update(_su2_params(rng))
        else:
            spec.update(n=n, cli_seed=1000 * n + v)
        return spec
    return make


def _sweep_slot(param, points, lo, hi, param2=None, points2=None, lo2=None, hi2=None, fixed=None):
    def make(rng, v):
        base = {"kappa": float(rng.uniform(0.5, 0.9)), "a": float(rng.uniform(1.0, 4.0)),
                "b": float(rng.uniform(0.0, 1.0))}
        base.update(fixed or {})
        spec = {"kind": "sweep", "steps": 500, "base": base, "param": param,
                "points": points, "from": lo(rng), "to": hi(rng)}
        if param2:
            spec.update(param2=param2, points2=points2, from2=lo2(rng), to2=hi2(rng))
        return spec
    return make


def _locus_point(rng, v):
    kappa = float(rng.uniform(0.3, 0.9))
    K = elliptic.complete_K(kappa)
    return {"kind": "degeneracy", "steps": 500, "oracle": "locus", "kappa": kappa,
            "a": 2.0 * K, "b": 0.0 if v % 2 == 0 else K}


def _certified_point(rng, v):
    return {"kind": "degeneracy", "steps": 500, "oracle": "certified",
            "kappa": float(rng.uniform(0.1, 0.9)), "a": float(rng.uniform(0.5, 1.2)),
            "b": float(rng.uniform(0.0, 2.0))}


def _shoot_un(n, steps):
    return lambda rng, v: {"kind": "degeneracy", "steps": steps, "oracle": None,
                           "algebra": "un", "n": n, "cli_seed": 2000 * n + v}


def _shoot_su(n, steps):
    def make(rng, v):
        c = 0.5 / math.sqrt(n)
        quad = [np.zeros((n, n), dtype=complex)]
        quad += [c * liealg.random_antihermitian(n, rng, traceless=True) for _ in range(3)]
        return {"kind": "degeneracy", "steps": steps, "oracle": None, "n": n,
                "init": serialize.quadruple_to_obj(np.array(quad))}
    return make


def _stable_triple(n, horizon):
    # tau_k = i diag(x) s_k with x in {0, c}: every decaying mode of the
    # linearisation has the same rate eta = c sqrt(1 - s2^2 - s3^2), so the
    # half-line fit along any stable direction must reproduce eta
    def make(rng, v):
        c = float(rng.uniform(0.5, 0.8))
        r = math.sqrt(float(rng.uniform(0.1, 0.4)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        x = np.array([0.0] * (n // 2) + [c] * (n - n // 2))
        scales = (1.0, r * math.cos(phi), r * math.sin(phi))
        init = {f"tau{i + 1}": serialize.matrix_to_pairs(1j * np.diag(x * s))
                for i, s in enumerate(scales)}
        return {"kind": "stability", "n": n, "horizon": horizon, "init": init}
    return make


def _positive_triple(n):
    def make(rng, v):
        c = 0.3 / math.sqrt(n)
        T1s, T2, T3 = (c * liealg.random_antihermitian(n, rng) for _ in range(3))
        mu = 2 * np.linalg.norm(T1s, 2) + 2 * np.linalg.norm(T2 + 1j * T3, 2) + 0.5
        T1 = T1s - 0.5j * mu * np.eye(n)
        init = {name: serialize.matrix_to_pairs(M) for name, M in zip(("T1", "T2", "T3"), (T1, T2, T3))}
        return {"kind": "factorize", "n": n, "init": init}
    return make


_u = lambda lo, hi: (lambda rng: float(rng.uniform(lo, hi)))
_c = lambda x: (lambda rng: x)

SLOTS = {
    "trajectory": {
        "int_su2_json": _traj_slot("integrate", 2000, "su2", "json"),
        "spec_su2": _traj_slot("spectral", 4000, "su2"),
        "int_un2_csv": _traj_slot("integrate", 4000, "un", "csv", n=2),
        "spec_un4": _traj_slot("spectral", 2000, "un", n=4),
        "int_un8_json": _traj_slot("integrate", 2000, "un", "json", n=8),
        "spec_un2": _traj_slot("spectral", 3000, "un", n=2),
        "int_un4_json": _traj_slot("integrate", 2000, "un", "json", n=4),
        "int_su2_csv": _traj_slot("integrate", 4000, "su2", "csv"),
    },
    "locus_sweep": {
        # the README sweep; one variant, since it is a fixed command
        "sweep_readme": _sweep_slot("a", 40, _c(0.5), _c(6.0), fixed={"kappa": 0.9, "b": 0.0}),
        "sweep_a16": _sweep_slot("a", 16, _u(0.5, 1.0), _u(5.0, 6.0)),
        "sweep_b8": _sweep_slot("b", 8, _c(0.0), _u(1.0, 3.0)),
        "sweep_kappa4": _sweep_slot("kappa", 4, _u(0.1, 0.3), _u(0.8, 0.95)),
        "sweep_grid": _sweep_slot("a", 3, _u(1.0, 2.0), _u(4.0, 5.0), "kappa", 3,
                                  _u(0.3, 0.5), _u(0.8, 0.9)),
        "locus_point": _locus_point,
        "certified_point": _certified_point,
    },
    "large_algebra": {
        "shoot_un4": _shoot_un(4, 400),
        "shoot_un8": _shoot_un(8, 200),
        "shoot_su4": _shoot_su(4, 400),
        "shoot_su8": _shoot_su(8, 200),
        "shoot_su16": _shoot_su(16, 50),
        "stab4": _stable_triple(4, 8.0),
        "stab8": _stable_triple(8, 8.0),
        "stab16": _stable_triple(16, 6.0),
        "fact4": _positive_triple(4),
        "fact8": _positive_triple(8),
        "fact16": _positive_triple(16),
    },
}

FIXED_SLOTS = {"sweep_readme"}

CYCLES = {
    "trajectory": ["int_su2_json", "spec_su2", "int_un2_csv", "spec_un4", "int_un8_json",
                   "spec_un2", "int_un4_json", "int_su2_csv"],
    "locus_sweep": ["sweep_readme", "locus_point", "sweep_a16", "certified_point",
                    "locus_point", "sweep_b8", "certified_point", "locus_point",
                    "sweep_kappa4", "certified_point", "locus_point", "sweep_grid",
                    "certified_point", "locus_point", "certified_point"],
    "large_algebra": ["shoot_un4", "stab4", "fact4", "shoot_su4", "shoot_un8", "stab8",
                      "fact8", "shoot_su8", "shoot_su16", "stab16", "fact16"],
}

# a cheap job run once before timing (numpy, BLAS and import warm-up)
WARMUP = {
    "trajectory": ("int_su2_json", {"steps": 200}),
    "locus_sweep": ("locus_point", {}),
    "large_algebra": ("shoot_un4", {}),
}

WORKLOADS = tuple(CYCLES)


def variants(workload, slot):
    return 1 if slot in FIXED_SLOTS else VARIANTS


def job_spec(workload, slot, v):
    """Parameters of variant v of a slot (independent of the run's seed)."""
    w = WORKLOADS.index(workload)
    s = list(SLOTS[workload]).index(slot)
    rng = np.random.default_rng([CATALOGUE_SEED, w, s, v])
    spec = SLOTS[workload][slot](rng, v)
    spec["key"] = f"{workload}/{slot}/{v}"
    return spec


def plan_rounds(workload, seed):
    """Endless sequence of rounds drawn from the seed.

    A round is VARIANTS cycles in which every variant of every slot runs
    equally often, in an order the seed permutes, so every whole round does
    the same work whatever the seed.
    """
    rng = np.random.default_rng(seed)
    specs = {}
    while True:
        order = {slot: rng.permutation(variants(workload, slot)) for slot in SLOTS[workload]}
        used = dict.fromkeys(SLOTS[workload], 0)
        rnd = []
        for _ in range(VARIANTS):
            cycle = []
            for slot in CYCLES[workload]:
                v = int(order[slot][used[slot] % len(order[slot])])
                used[slot] += 1
                if (slot, v) not in specs:
                    specs[(slot, v)] = job_spec(workload, slot, v)
                cycle.append(specs[(slot, v)])
            rnd.append(cycle)
        yield rnd


def write_inputs(specs, workdir):
    """Write the init files of the given specs; returns {key: path}."""
    paths = {}
    for spec in specs:
        if "init" in spec:
            path = os.path.join(workdir, spec["key"].replace("/", "_") + ".init.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec["init"], fh)
            paths[spec["key"]] = path
    return paths


def all_specs(workload):
    return [job_spec(workload, slot, v) for slot in SLOTS[workload]
            for v in range(variants(workload, slot))]


# ---------------------------------------------------------------------------
# expected call counts (independent of the tracer)

def expected_counts(spec):
    """Exact counts a job must produce: RHS evaluations, RK4 steps, shooting
    steps, Jacobi calls and characteristic polynomials."""
    kind = spec["kind"]
    c = {"rhs": 0, "rk4": 0, "shoot": 0, "jacobi": 0, "char_poly": 0}
    S = spec.get("steps", 0)
    su2 = spec.get("algebra") == "su2"
    if kind == "integrate":  # CLI run and the check's recomputation
        c.update(rhs=8 * S, rk4=2 * S, jacobi=2 if su2 else 0)
    elif kind == "spectral":
        c.update(rhs=4 * S, rk4=S, jacobi=1 if su2 else 0, char_poly=S + 2)
    elif kind == "sweep":
        P = spec["points"] * spec.get("points2", 1)
        c.update(shoot=P * S, jacobi=P * (S + 1))
    elif kind == "degeneracy":
        from_cli_su2 = "init" not in spec and spec.get("algebra") != "un"
        c.update(rhs=4 * S, rk4=S, shoot=S, jacobi=1 if from_cli_su2 else 0)
    elif kind == "stability":
        N = max(int(round(spec["horizon"] * 1000)), 10)
        c.update(rhs=4 * N, rk4=N)
    elif kind == "factorize":  # A-B flow and the direct integration
        c.update(rhs=4 * AB_STEPS, rk4=2 * AB_STEPS)
    return c


# ---------------------------------------------------------------------------
# running and checking

def argv_for(spec, init_path, out_path):
    kind = spec["kind"]
    argv = [kind]
    if kind in ("integrate", "spectral") or (kind == "degeneracy" and "init" not in spec):
        if spec.get("algebra", "su2") == "su2":
            argv += ["--kappa", repr(spec["kappa"]), "--a", repr(spec["a"]), "--b", repr(spec["b"])]
        else:
            argv += ["--algebra", "un", "--n", str(spec["n"]), "--seed", str(spec["cli_seed"])]
    if kind == "sweep":
        base = spec["base"]
        argv += ["--kappa", repr(base["kappa"]), "--a", repr(base["a"]), "--b", repr(base["b"]),
                 "--param", spec["param"], "--from", repr(spec["from"]), "--to", repr(spec["to"]),
                 "--points", str(spec["points"])]
        if "param2" in spec:
            argv += ["--param2", spec["param2"], "--from2", repr(spec["from2"]),
                     "--to2", repr(spec["to2"]), "--points2", str(spec["points2"])]
    if "init" in spec:
        argv += ["--init", init_path]
    if "steps" in spec:
        argv += ["--steps", str(spec["steps"])]
    if kind == "integrate":
        argv += ["--format", spec["format"]]
    if kind == "stability":
        argv += ["--halfline", "--horizon", repr(spec["horizon"])]
    return argv + ["--output", out_path]


def run_cli(argv):
    """Run one CLI invocation in process; returns captured stderr."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise CheckFailed(f"exit code {rc}: {err.getvalue().strip()[:300]}")
    return err.getvalue()


class Result:
    """Observation of one job: golden-comparable values and check margins."""

    def __init__(self):
        self.obs = {}
        self.margins = []  # (name, tolerance, error) pairs

    def bound(self, name, err, tol):
        """Require err < tol and keep the margin for the headroom metric."""
        err = float(err)
        if not err < tol:
            raise CheckFailed(f"{name}: {err:.3e} not below {tol:.1e}")
        self.margins.append((name, tol, err))

    def headroom(self):
        """min log10(tol / err) over the margins with a nonzero error."""
        vals = [math.log10(tol / err) for _, tol, err in self.margins if err > 0]
        return min(vals) if vals else None


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _su2_reference(spec, times):
    """Closed-form su(2) path from scipy's Jacobi functions (an independent oracle)."""
    a, b, kappa = spec["a"], spec["b"], spec["kappa"]
    sn, cn, dn, _ = ellipj(a * np.asarray(times) + b, kappa * kappa)
    e1, e2, e3 = liealg.su2_basis()
    ref = np.zeros((len(sn), 4, 2, 2), dtype=complex)
    ref[:, 1] = (a * kappa * sn)[:, None, None] * e1
    ref[:, 2] = (a * kappa * cn)[:, None, None] * e2
    ref[:, 3] = (-a * dn)[:, None, None] * e3
    return ref


def _cli_init(spec):
    """The initial quadruple the CLI builds for these parameters."""
    if spec.get("algebra", "su2") == "su2":
        return flow.su2_closed_form(spec["a"], spec["b"], spec["kappa"], T_SPAN[0])
    n = spec["n"]
    rng = np.random.default_rng(spec["cli_seed"])
    Z = np.zeros((n, n), dtype=complex)
    return np.array([Z] + [liealg.random_antihermitian(n, rng) for _ in range(3)])


def _pairs_to_complex(arr):
    arr = np.asarray(arr, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _check_integrate(spec, out, stderr, res):
    S = spec["steps"]
    if spec["format"] == "json":
        with open(out, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        traj = obj["trajectory"]
        if traj["steps"] != S or len(traj["samples"]) != S + 1:
            raise CheckFailed("exported trajectory has the wrong number of samples")
        samples = _pairs_to_complex(
            [[s[f"T{i}"] for i in range(4)] for s in traj["samples"]]
        )
        drift = obj["conserved"]["relative_drift"]
    else:
        with open(out, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        n = int(round(math.sqrt((rows.shape[1] - 1) / 8)))
        if rows.shape != (S + 1, 1 + 8 * n * n) or lines[0].split(",")[0] != "t":
            raise CheckFailed(f"CSV export has shape {rows.shape}")
        res.bound("csv times", np.max(np.abs(rows[:, 0] - np.linspace(*T_SPAN, S + 1))), TOL_EXPORT)
        samples = _pairs_to_complex(rows[:, 1:].reshape(S + 1, 4, n, n, 2))
        drift = json.loads(stderr)["relative_drift"]
    res.bound("conserved relative drift", max(drift.values()), TOL_CONSERVED)
    direct = flow.integrate(_cli_init(spec), T_SPAN, flow.SolverConfig(steps=S))
    res.bound("export vs recomputed", np.max(np.abs(samples - direct.samples)), TOL_EXPORT)
    if spec["algebra"] == "su2":
        ref = _su2_reference(spec, np.linspace(*T_SPAN, S + 1))
        res.bound("closed-form error", np.max(np.abs(samples - ref)), TOL_CLOSED_FORM)


def _check_spectral(spec, out, stderr, res):
    with open(out, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    res.bound("isospectral drift", obj["isospectral_drift"], TOL_ISOSPECTRAL)
    res.bound("Lax residual", obj["lax_residual"], TOL_LAX)
    res.bound("curve reality defect", obj["curve_reality_defect"], TOL_ISOSPECTRAL)
    if spec["algebra"] == "su2":
        q = _su2_reference(spec, [T_SPAN[0]])[0]
        C = sum(w * float(liealg.inner(q[i], q[i])) for i, w in ((1, 2.0), (2, 1.0), (3, 1.0)))
        res.bound("conserved C vs closed form", abs(obj["conserved_C"] - C) / C, TOL_CONSERVED_C)


def _sigma_close(x, g):
    return abs(x - g) <= SIGMA_ATOL + SIGMA_RTOL * abs(g)


def _check_sweep(spec, out, stderr, res):
    with open(out, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    if len(rows) != spec["points"] * spec.get("points2", 1):
        raise CheckFailed(f"sweep wrote {len(rows)} rows")
    for r in rows:
        if r["pi_certified"] == "True" and r["verdict"] != "nondegenerate":
            raise CheckFailed(f"pi-certified point classified {r['verdict']}")
    res.obs["verdicts"] = [r["verdict"] for r in rows]
    res.obs["sigma_min"] = [float(r["sigma_min"]) for r in rows]


def _check_degeneracy(spec, out, stderr, res):
    with open(out, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    rep = obj["report"]
    ratio = rep["sigma_min"] / rep["singular_values"][0]
    if spec.get("oracle") == "locus":
        if rep["verdict"] != "degenerate":
            raise CheckFailed(f"a = 2K point classified {rep['verdict']}")
        res.bound("locus sigma ratio", ratio, rep["tol_low"])
    elif spec.get("oracle") == "certified":
        if not obj["pi_certified"] or rep["verdict"] != "nondegenerate":
            raise CheckFailed("pi-bound point not certified nondegenerate")
        res.bound("certified sigma ratio", rep["tol_high"] / ratio, 1.0)
    res.obs["verdicts"] = [rep["verdict"]]
    res.obs["ratio"] = [ratio]


def _check_stability(spec, out, stderr, res):
    with open(out, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    rep, half = obj["report"], obj.get("halfline")
    if not rep["stable"] or not half or not half["converged"]:
        raise CheckFailed("commuting triple not stable or half-line run not converged")
    res.bound("decay rate vs eta", abs(half["fitted_rate"] - rep["eta"]) / rep["eta"], TOL_RATE)


def _check_factorize(spec, out, stderr, res):
    with open(out, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not obj["positivity"]["sampled_positive"] or not obj["factors"]:
        raise CheckFailed("positive triple not factorised")
    T1, T2, T3 = (_pairs_to_complex(spec["init"][k]) for k in ("T1", "T2", "T3"))
    A = _pairs_to_complex(obj["factors"]["A"])
    B = _pairs_to_complex(obj["factors"]["B"])
    beta = T2 + 1j * T3
    worst = 0.0
    for z in list(np.exp(2j * np.pi * np.arange(16) / 16)) + [0.0, 2.0]:
        Tz = beta + 2j * T1 * z + beta.conj().T * z * z
        Fz = (A + B.conj().T * z) @ (B + A.conj().T * z)
        worst = max(worst, float(np.max(np.abs(Fz - Tz))))
    res.bound("factorisation residual", worst, TOL_FACTOR)
    nb = obj["norm_bound"]
    lhs, rhs = np.linalg.norm(beta, 2), 2 * np.linalg.norm(T1, 2)
    if not (nb["holds"] and lhs <= rhs and abs(nb["lhs"] - lhs) <= 1e-12 * rhs):
        raise CheckFailed("norm bound |T2 + i T3| <= 2 |T1| fails")
    Ap, Bp = positive.integrate_ab(A, B, T_SPAN, steps=AB_STEPS)
    R = positive.reconstruct(Ap, Bp)
    Z = np.zeros_like(T1)
    direct = flow.integrate(np.array([Z, T1, T2, T3]), T_SPAN, flow.SolverConfig(steps=AB_STEPS))
    dist = max(float(np.max(np.abs(R[i] - direct.samples[:, i + 1]))) for i in range(3))
    res.bound("A-B reconstruction vs direct", dist, TOL_AB)


_CHECKS = {
    "integrate": _check_integrate,
    "spectral": _check_spectral,
    "sweep": _check_sweep,
    "degeneracy": _check_degeneracy,
    "stability": _check_stability,
    "factorize": _check_factorize,
}


def compare_golden(spec, res, golden):
    """Verdicts and sigmas must match the golden record; hashes are reported."""
    g = golden.get(spec["key"])
    if g is None:
        raise CheckFailed(f"no golden record for {spec['key']}")
    if "verdicts" in g and res.obs["verdicts"] != g["verdicts"]:
        raise CheckFailed(f"verdicts {res.obs['verdicts']} differ from golden {g['verdicts']}")
    for field in ("ratio", "sigma_min"):
        if field in g:
            for x, y in zip(res.obs[field], g[field]):
                if not _sigma_close(x, y):
                    raise CheckFailed(f"{field} {x!r} differs from golden {y!r}")
                if x != y:
                    res.margins.append((field, SIGMA_ATOL + SIGMA_RTOL * abs(y), abs(x - y)))
    return res.obs["sha256"] == g["sha256"]


def run_job(spec, init_path, out_path, check=None):
    """Run one job and its check; returns the Result (raises on failure).

    `check` wraps the check step (the tracer gives it its own span).
    """
    res = Result()
    stderr = run_cli(argv_for(spec, init_path, out_path))
    res.obs["sha256"] = _sha256(out_path)
    fn = _CHECKS[spec["kind"]]
    (check or (lambda f, *a: f(*a)))(fn, spec, out_path, stderr, res)
    return res
