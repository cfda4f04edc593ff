"""Run workloads on several seeds and report each end-to-end metric's
median and spread (distance between the quartiles, as a share of the
median), the figures BENCHMARK.json's bounds are set against.

    python3 bench/spread.py --workloads reduce,cli --seeds 1-10 --json out.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="Seed-to-seed spread of the benchmark.")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.time()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            res = json.loads(out.stdout.splitlines()[-1])
            res["seed"], res["wall_s"] = seed, time.time() - t0
            runs.append(res)
        report[wl] = runs
        print("%s: %d runs, wall %.1f s each at most, failed share %s, correct %s"
              % (wl, len(runs), max(r["wall_s"] for r in runs),
                 sorted({str(Fraction(r["failed"], r["attempted"])) for r in runs}),
                 all(r["correct"] for r in runs)))
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print("  %-12s median %12.5g  q1 %12.5g  q3 %12.5g  spread %.3f  "
                  "(bound %.2f)" % (name, med, q1, q3, (q3 - q1) / med, bound))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
