"""The loopalg benchmark.

    python3 bench/run.py                                  # all four workloads
    python3 bench/run.py --workload reduce --seed 3 --seconds 15 --trace 0

Each workload runs in its own process (bench/worker.py), one at a time,
single-threaded, with PYTHONHASHSEED fixed so that traced counts repeat.
With one --workload the last line of stdout is that workload's JSON
result; with all of them it is one JSON object keyed by workload.
See bench/README.md for the workloads, the metrics and reference figures.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reduce", "growth", "lift", "cli")
TIMEOUT_S = 170


def run_workload(name, seed, seconds, trace):
    """Run one workload in a child process; returns its JSON result, or
    None if it failed (its stderr is passed through)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # let loopalg's bytecode be cached, so that the re-imports of set-up
    # load it whether or not the caller's environment forbids writing it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("workload %s did not finish in %d s" % (name, TIMEOUT_S),
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("workload %s exited with code %d" % (name, proc.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run the loopalg benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "loopalg", "__init__.py")):
        print("no loopalg sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
