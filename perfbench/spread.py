#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads trajectory,...] [--out FILE]

Runs the benchmark once per seed and workload, one run at a time, and
reports per metric the median and the quartile spread (Q3 - Q1) / median,
with Python's statistics.quantiles(values, n=4).  The spread of every gated
metric must stay within its bound in BENCHMARK.json.  --out writes the
values, the summary and the run records as JSON (the committed baseline
perfbench/baseline.json was written this way).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values, records = {}, []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            records += [json.loads(ln[len("record: "):]) for ln in lines if ln.startswith("record: ")]
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
                  flush=True)
        summary = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(k)}
            flag = "" if k not in bounds or spread <= bounds[k] / 3 else "  <-- above bound/3"
            print(f"  {w:14s} {k:24s} median {med:10.5g} spread {spread:7.4f}"
                  f" bound {bounds.get(k)}{flag}")
        report["workloads"][w] = {"values": values, "summary": summary, "records": records}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
