"""Run one workload in this process and print its result.

    python3 bench/worker.py --workload reduce --seed 1 --seconds 25 --trace 0

bench/run.py starts this in a fresh process with PYTHONHASHSEED fixed;
run it directly only to debug.  Phases:

1. set-up, repeated SETUP_REPEATS times (once when traced): import loopalg
   afresh, build the workload's bases and its seeded inputs;
2. the timed phase: whole rounds of the same operations until --seconds
   have passed (exactly one round when traced);
3. after the clock stops, every first-round output is checked, and every
   later round must have printed the same outputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9


class Raised:
    """An operation that raised instead of returning."""

    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.text = str(exc)

    def __eq__(self, other):
        return (isinstance(other, Raised) and self.kind == other.kind
                and self.text == other.text)

    def __repr__(self):
        return "Raised(%s: %s)" % (self.kind, self.text)


def fresh_import():
    for name in [n for n in sys.modules if n == "loopalg" or n.startswith("loopalg.")]:
        del sys.modules[name]
    return importlib.import_module("loopalg")


def canon(x):
    """A text form that does not depend on dict order."""
    if isinstance(x, dict):
        return "{%s}" % ",".join(sorted("%s:%s" % (canon(k), canon(v))
                                        for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return "(%s)" % ",".join(canon(v) for v in x)
    return repr(x)


def time_round(ops):
    outs, times = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Raised(exc)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    setup = workloads.SETUPS[args.workload]

    tracer = None
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        ops = None  # free the previous set-up before timing the next
        gc.collect()
        t0 = time.perf_counter()
        lp = fresh_import()
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        ops = setup(lp, args.seed)
        setup_times.append(time.perf_counter() - t0)
    gc.collect()

    rounds, op_times, round_times, first, same = 0, [[] for _ in ops], [], None, True
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs, times = time_round(ops)
        round_times.append(time.perf_counter() - t0)
        for samples, t in zip(op_times, times):
            samples.append(t)
        rounds += 1
        if first is None:
            first = outs
        else:
            same = same and outs == first
        del outs
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_per_round, wrong = 0, []
    for op, out in zip(ops, first):
        if isinstance(out, Raised):
            failed_per_round += 1
            print("failed%s: %s: %r" % (" (known fault)" if op.known_fault else "",
                                        op.label, out), file=sys.stderr)
        elif not op.check(out):
            if op.known_fault:
                failed_per_round += 1
                print("failed (known fault): %s: %s" % (op.label, op.known_fault),
                      file=sys.stderr)
            else:
                wrong.append(op.label)
                print("WRONG OUTPUT: %s" % op.label, file=sys.stderr)
    if not same:
        print("WRONG OUTPUT: a later round differs from the first", file=sys.stderr)
    digest = hashlib.sha256("\n".join(canon(o) for o in first).encode()).hexdigest()

    if args.trace:
        metrics = tracer.metrics()
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.dump(path)
        print("trace written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(round_times), "s"),
            # each operation's median over the rounds, then the median
            # over operations
            "op_p50_ms": (statistics.median(statistics.median(s) for s in op_times)
                          * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print("workload %s seed %d: %d rounds of %d operations, %d failed per round; "
          "median round %.3f s" % (args.workload, args.seed, rounds, len(ops),
                                   failed_per_round, statistics.median(round_times)))
    for name, (value, unit) in metrics.items():
        print("  %-44s %16.6g %s" % (name, value, unit))
    print("output digest %s" % digest)
    print(json.dumps({
        "correct": not wrong and same,
        "attempted": rounds * len(ops),
        "failed": rounds * failed_per_round,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
