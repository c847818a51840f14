#!/usr/bin/env python3
"""Record the golden file: every variant of every slot, run once and checked.

    python3 perfbench/record_golden.py [workload ...]

Writes perfbench/golden.json with, per job key, the sha256 of the output and,
for shooting jobs, the verdicts and sigma values.  Run it only to re-anchor
the golden record; later changes are compared against it, not re-recorded.
"""

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads as W

    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
    workdir = os.path.join(HERE, "_work", f"golden-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out")
    for workload in argv or W.WORKLOADS:
        specs = W.all_specs(workload)
        inputs = W.write_inputs(specs, workdir)
        for spec in specs:
            t0 = time.perf_counter()
            res = W.run_job(spec, inputs.get(spec["key"]), out)
            os.remove(out)
            golden[spec["key"]] = res.obs
            print(f"{spec['key']:36s} {time.perf_counter() - t0:6.2f} s  "
                  f"headroom {res.headroom()}  {res.obs.get('verdicts', '')}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
