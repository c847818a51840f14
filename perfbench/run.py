#!/usr/bin/env python3
"""Benchmark of the Nahm-Schmid laboratory.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs a closed loop: each job starts when the previous one ends,
in whole rounds (every variant of every job slot equally often) until
--seconds have passed.
Every job is checked against its oracle and the golden record.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The traced run alternates an untraced and a traced pass over the
same cycle; `trace.overhead_frac` compares the two.  A run record (machine,
versions, BLAS, thread variables as found, seed) is printed before the result
and written under perfbench/_work/records/.

End-to-end metrics: setup_s (fresh interpreter importing nahmschmid.cli,
input generation and one warm-up job; the median of PROBES runs),
jobs_per_s, job_p50_s, job_tail_s (latency at the highest percentile with at
least ten jobs beyond it), accuracy_headroom_dec (min over checked quantities
of log10(tolerance / error)) and peak_rss_mb.  failed_frac is printed in the
summary; it is 0 at a healthy commit and is gated through `failed`.

Job times (jobs_per_s, job_p50_s, job_tail_s) are corrected for the host's
speed: a fixed pure-Python reference kernel runs between jobs, and each job's
time is divided by (kernel duration around it / REF_NOMINAL_S), the geometric
mean of the runs before and after the job, so it reads as seconds at the
nominal speed.  The wall-clock values and the speed factor
are printed beside them and kept in the run record.  setup_s is wall clock.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES = 5
# duration of reference_kernel() at the nominal machine speed (an idle
# 2-core x86-64 VM with Python 3.11); it only fixes the scale of the
# speed-corrected times
REF_NOMINAL_S = 0.020
MAX_TRACED_PAIRS = 3
THREAD_VARS = ("NS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
             "accuracy_headroom_dec": "decades", "peak_rss_mb": "MB"}


def _import_package(root):
    """Import nahmschmid from root/src and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nahmschmid", "cli.py")):
        raise SystemExit(f"error: {src}/nahmschmid not found; run from the root of a checkout")
    sys.path.insert(0, src)
    import nahmschmid

    if os.path.dirname(os.path.dirname(os.path.abspath(nahmschmid.__file__))) != src:
        raise SystemExit(f"error: nahmschmid imported from {nahmschmid.__file__}, not {src}")


def reference_kernel():
    """A fixed pure-Python loop; its duration tracks the host's current speed.

    It touches neither numpy nor the package, so no change to either can
    move it.  A shared 2-vCPU host was measured changing speed by up to 2x
    over seconds to minutes; dividing each job's time by the kernel's
    duration around it removes that common factor.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(250000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _workdir(tag):
    path = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


class Runner:
    """Inputs, golden record and job execution of one workload."""

    def __init__(self, workload, seed, workdir):
        import workloads as W

        self.W = W
        self.workload = workload
        self.inputs = W.write_inputs(W.all_specs(workload), workdir)
        with open(os.path.join(HERE, "golden.json"), "r", encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.rounds = W.plan_rounds(workload, seed)
        self.out = os.path.join(workdir, "out")

    def warmup(self):
        slot, override = self.W.WARMUP[self.workload]
        spec = {**self.W.job_spec(self.workload, slot, 0), **override}
        self.W.run_job(spec, self.inputs.get(spec["key"]), self.out)
        os.remove(self.out)

    def job(self, spec, check=None):
        """Run one job and compare with the golden record; returns the Result."""
        res = self.W.run_job(spec, self.inputs.get(spec["key"]), self.out, check)
        res.identical = self.W.compare_golden(spec, res, self.golden)
        return res

    def timed_cycle(self, cycle, log, wrap=None, refs=None):
        """Run the jobs of one cycle; appends (spec, seconds, Result or error) to log.

        With `refs`, the reference kernel runs before every job and its
        duration is appended there; the caller runs it once more at the end.
        """
        run = wrap or self.job
        for spec in cycle:
            if refs is not None:
                refs.append(reference_kernel())
            t0 = time.perf_counter()
            try:
                res = run(spec)
            except Exception as exc:  # a failed job is counted, not fatal
                res = exc
            log.append((spec, time.perf_counter() - t0, res))
            if os.path.exists(self.out):
                os.remove(self.out)


def _probe(workload, seed):
    """Set-up path of a fresh interpreter: import, inputs, warm-up job."""
    import nahmschmid.cli  # noqa: F401  (the import a CLI user pays)

    workdir = _workdir("probe")
    try:
        Runner(workload, seed, workdir).warmup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_seconds(workload, seed):
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=os.getcwd(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.decode()[-500:]}")
    return times


def _failure(res):
    return isinstance(res, BaseException)


def _summarise(log, cycle_slots):
    """Job statistics of a run.

    Host noise comes in bursts of seconds, so throughput and the median are
    taken over the typical cycle: every slot of the cycle at the median
    latency of that slot's jobs in the run.  The tail is taken over all jobs.
    """
    done = [(s, dt, r) for s, dt, r in log if not _failure(r)]
    by_slot = {}
    for spec, dt, _ in log:
        by_slot.setdefault(spec["key"].split("/")[1], []).append(dt)
    typical = [statistics.median(by_slot[slot]) for slot in cycle_slots]
    lat = sorted(dt for _, dt, _ in log)
    heads = [r.headroom() for _, _, r in done if r.headroom() is not None]
    tail_i = max(len(lat) - 11, 0)
    return {
        "attempted": len(log),
        "failed": len(log) - len(done),
        "jobs_per_s": len(typical) * len(done) / len(log) / sum(typical),
        "p50": statistics.median(typical),
        "tail": lat[tail_i],
        "tail_pct": 100.0 * (tail_i + 1) / len(lat),
        "tail_beyond": len(lat) - tail_i - 1,
        "headroom": min(heads) if heads else 0.0,
        "identical": sum(1 for _, _, r in done if r.identical) / max(len(log), 1),
        "slot_latency_s": by_slot,
        "errors": [f"{s['key']}: {type(r).__name__}: {r}" for s, _, r in log if _failure(r)],
    }


def _run_record(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    except Exception as exc:  # the layout of show_config differs across numpy versions
        blas = f"unavailable ({exc})"
    cpu_max = None
    if os.path.exists("/sys/fs/cgroup/cpu.max"):
        with open("/sys/fs/cgroup/cpu.max", "r", encoding="utf-8") as fh:
            cpu_max = fh.read().strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


def _timed(args, runner):
    refs, log = [], []
    setup = _setup_seconds(args.workload, args.seed)
    runner.warmup()
    t0 = time.perf_counter()
    while True:
        for cycle in next(runner.rounds):
            runner.timed_cycle(cycle, log, refs=refs)
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = time.perf_counter() - t0
    refs.append(reference_kernel())
    # host speed around each job relative to nominal: kernel before and after
    speed = [(refs[i] * refs[i + 1]) ** 0.5 / REF_NOMINAL_S for i in range(len(log))]
    s_raw = _summarise(log, runner.W.CYCLES[args.workload])
    s = _summarise([(spec, dt / f, res) for (spec, dt, res), f in zip(log, speed)],
                   runner.W.CYCLES[args.workload])
    raw = {"jobs_per_s": s_raw["jobs_per_s"], "job_p50_s": s_raw["p50"], "job_tail_s": s_raw["tail"]}
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": s["jobs_per_s"],
        "job_p50_s": s["p50"],
        "job_tail_s": s["tail"],
        "accuracy_headroom_dec": s["headroom"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"failed_frac": s["failed"] / s["attempted"], "tail_percentile": s["tail_pct"],
             "tail_jobs_beyond": s["tail_beyond"], "jobs": s["attempted"], "wall_s": wall,
             "raw_wall_clock": raw, "host_speed_factor": statistics.median(speed),
             "setup_samples_s": setup,
             "identical_frac": s["identical"], "errors": s["errors"],
             "completed_per_wall_s": (s["attempted"] - s["failed"]) / wall,
             "slot_latency_s": s_raw["slot_latency_s"]}
    return s, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def _traced(args, runner):
    import numpy as np

    import layers
    from tracer import Tracer, aggregate

    runner.warmup()
    workers = int(os.environ.get("NS_THREADS", "0")) or min(8, os.cpu_count() or 1)
    tracer = Tracer()
    job_fn = tracer.wrap("job", lambda spec: runner.job(spec, check=check_fn))
    check_fn = tracer.wrap("bench.check", lambda f, *a: f(*a))
    counter = iter(range(1 << 30))

    def traced_job(spec):
        tracer.job = next(counter)
        try:
            return job_fn(spec)
        finally:
            tracer.job = -1

    log, per_cycle, problems = [], [], []
    cycles = (cycle for rnd in runner.rounds for cycle in rnd)
    t0 = time.perf_counter()
    while not per_cycle or (time.perf_counter() - t0 < args.seconds
                            and len(per_cycle) < MAX_TRACED_PAIRS):
        cycle = next(cycles)
        plain, traced = [], []
        runner.timed_cycle(cycle, plain)
        layers.install(tracer)
        try:
            runner.timed_cycle(cycle, traced, wrap=traced_job)
        finally:
            tracer.unpatch()
        spans = tracer.take()
        if not per_cycle:
            np.savez(os.path.join(HERE, "_work", f"spans-{args.workload}.npz"),
                     names=np.array(tracer.names), **spans)
        agg = aggregate(spans, tracer.names)
        expected = {}
        for spec in cycle:
            for k, v in runner.W.expected_counts(spec).items():
                expected[k] = expected.get(k, 0) + v
        observed = layers.observed_counts(agg)
        if observed != expected:
            problems.append(f"count cross-check failed: observed {observed}, expected {expected}")
        if agg["accounting_error_s"] > 1e-6:
            problems.append(f"per-job self times miss the wall time by {agg['accounting_error_s']:.2e} s")
        overhead = sum(dt for _, dt, _ in traced) / sum(dt for _, dt, _ in plain) - 1.0
        s = _summarise(traced, runner.W.CYCLES[args.workload])
        per_cycle.append(layers.metrics(agg, workers, s["identical"], overhead))
        log += plain + traced
    counts = [{k: v for k, (v, u) in m.items() if u == "count"} for m in per_cycle]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between traced cycles")
    metrics = {k: (statistics.median(m[k][0] for m in per_cycle), u)
               for k, (_, u) in per_cycle[0].items()}
    s = _summarise(log, runner.W.CYCLES[args.workload])
    notes = {"traced_cycles": len(per_cycle), "problems": problems, "errors": s["errors"],
             "cross_check": expected}
    return s, metrics, notes


def _print_result(args, s, metrics, notes, correct):
    record = _run_record(args)
    record.update(notes)
    os.makedirs(os.path.join(HERE, "_work", "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "_work", "records", name), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1, sort_keys=True)
    print("record: " + json.dumps(record, sort_keys=True))
    for msg in notes.get("errors", []) + notes.get("problems", []):
        print(f"FAILED {msg}")
    print(f"workload {args.workload} seed {args.seed}: {s['attempted']} jobs, "
          f"{s['failed']} failed, failed_frac {s['failed'] / s['attempted']:.3f}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:32s} {v:14.6g} {unit}")
    if not args.trace:
        print(f"  job_tail_s is the {notes['tail_percentile']:.1f}th percentile, "
              f"{notes['tail_jobs_beyond']} jobs beyond it")
        print(f"  job times are divided by the host speed factor around each job "
              f"(median {notes['host_speed_factor']:.3f}); wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw_wall_clock"].items()))
    print(json.dumps({
        "correct": correct, "attempted": s["attempted"], "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _run_all(args):
    results, ok = {}, True
    for w in ("trajectory", "locus_sweep", "large_algebra"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            ok = False
            continue
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and results[w]["correct"]
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok and len(results) == 3 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trajectory", "locus_sweep", "large_algebra", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package(os.getcwd())
    if args.workload == "all":
        return _run_all(args)
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    workdir = _workdir("run")
    try:
        runner = Runner(args.workload, args.seed, workdir)
        s, metrics, notes = (_traced if args.trace else _timed)(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = s["failed"] == 0 and not notes.get("problems")
    _print_result(args, s, metrics, notes, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
