"""Quick self-test of the benchmark itself (about a minute).

    python3 bench/selftest.py

1. the oracles agree with loopalg at tiny sizes;
2. every metric a run prints is named in BENCHMARK.json, with its unit,
   and every metric named there is printed;
3. traced and untraced runs give the same outputs;
4. the counts of two traced runs repeat exactly;
5. without the program's sources the command fails without a result.
"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles as orc  # noqa: E402

FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def as_oracle(elem):
    return {tuple("d" if L == orc.DEGREE else L for L in m): c
            for m, c in elem.items()}


def oracle_checks():
    import loopalg as lp
    from loopalg import characters as ch
    from loopalg import growth_harness as gh
    from loopalg import pbw_monomials as pbw
    rng = random.Random(7)
    for label in ("A1:r1", "A2:r2", "D4:r3"):
        basis = lp.TwistedBasis.from_label(label)
        counts = {}
        for b in basis.elements:
            counts[b.s] = counts.get(b.s, 0) + 1
        expect(len(basis.elements) == orc.lie_dim(label)
               and counts == orc.EIGENSPACE_DIMS[label],
               "%s: dim g and dim g_s match the tables" % label)
        spec = lp.AlgebraSpec(basis, flavor="affine", level=1)
        agree = True
        for _ in range(200):
            elem = {}
            for _ in range(rng.randrange(1, 6)):
                word = []
                for _ in range(rng.randrange(0, 4)):
                    if rng.random() < 0.15:
                        word.append(lp.D)
                    else:
                        b = rng.choice(basis.elements)
                        n = rng.randrange(-4, 5)
                        word.append((b.index, n - (n - b.s) % basis.r))
                pbw.add_into(elem, pbw.mono_sorted(spec, word),
                             spec.scalar(rng.randrange(1, 4)))
            for reverse in (False, True):
                want = pbw.leading(spec, elem, reverse=reverse)[0]
                got = orc.leading(as_oracle(elem), reverse=reverse)
                agree &= got == as_oracle({want: 1}).popitem()[0]
            text = pbw.format_element(spec, elem)
            agree &= set(orc.parse_element(text)) == set(as_oracle(elem))
        expect(agree, "%s: order key, reverse key and element parser agree "
               "with pbw_monomials on 200 random elements" % label)
    for label, J in (("A1:r1", 5), ("A2:r2", 5), ("D4:r3", 4)):
        spec = lp.AlgebraSpec(label, flavor="current")
        expect(gh.ambient_dimension_series(spec, J) == orc.ambient_series(label, J),
               "%s: ambient series = Euler product to md %d" % (label, J))
    for label, powers in (("A1:r1", (1, 2, 3)), ("A2:r2", (1,))):
        spec = lp.AlgebraSpec(label, flavor="current")
        top = spec.basis.theta_plus.index
        for N in powers:
            gen = {((top, N),): spec.scalar(1)}
            expect(gh.quotient_dimension_series(spec, [gen], 5)
                   == orc.letter_ideal_quotient(label, N, 5),
                   "%s: quotient by theta t^%d = closed form to md 5" % (label, N))
    expect(orc.letter_ideal_quotient("A1:r1", 1, 8) == orc.binomial_series(8),
           "closed form for N = 1 is C(j + 3, 3)")
    for k in range(1, 5):
        series, exact = ch.hilb_integrable(k, k, 60)
        expect(exact and series.coeffs == orc.weyl_kac_series(k, k, 60),
               "Weyl-Kac sum = hilb_integrable(%d, %d) to 60 terms" % (k, k))
    expect(orc.weyl_kac_series(1, 0, 60)
           == [orc.partitions_odd(n) for n in range(61)],
           "Weyl-Kac sum for (1, 0) counts partitions into odd parts")
    for k1, k2 in ((2, 1), (3, 1), (2, 0)):
        bound, exact = ch.hilb_integrable(k1, k2, 60)
        wk = orc.weyl_kac_series(k1, k2, 60)
        expect(not exact and all(w >= b for w, b in zip(wk, bound.coeffs)),
               "Weyl-Kac sum for (%d, %d) dominates the program's bound" % (k1, k2))
    expect(orc.weyl_kac_series(2, 1, 7) == [1, 2, 3, 5, 8, 12, 18, 26],
           "Weyl-Kac sum for (2, 1) starts 1, 2, 3, 5, 8, 12, 18, 26")
    expect(all(orc.partitions_distinct(n) == orc.partitions_odd(n)
               == ch.count_partitions(n, "odd") for n in range(80)),
           "odd = distinct partition counts, and both = count_partitions")
    expect(all(orc.partitions_mod(n, m, rho) == ch.count_partitions(n, ("mod", m, rho))
               for n in range(0, 80, 7) for m in (3, 4, 5) for rho in range(1, m)),
           "partitions into parts = rho mod m agree with count_partitions")


def run(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    lines = proc.stdout.splitlines()
    digest = [ln.split()[-1] for ln in lines if ln.startswith("output digest")]
    return proc.returncode, lines, digest


def run_checks():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        name = w["name"]
        results = {}
        for trace in (0, 1, 1):
            rc, lines, digest = run(name, trace)
            res = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(rc == 0 and res["correct"] and set(res) == {
                "correct", "attempted", "failed", "metrics"} and got == units[trace],
                "%s --trace %d: correct, and prints exactly the metrics and units "
                "of BENCHMARK.json" % (name, trace))
            results.setdefault(trace, []).append((digest, res))
        expect(results[0][0][0] == results[1][0][0] == results[1][1][0],
               "%s: traced and untraced runs give the same outputs" % name)
        counts = [{k: v["value"] for k, v in res["metrics"].items()
                   if units[1][k] in ("count", "ratio")} for _, res in results[1]]
        expect(counts[0] == counts[1],
               "%s: %d counts repeat exactly between two traced runs"
               % (name, len(counts[0])))
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, lines, _ = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and not lines, "without src/ the command exits %d and prints "
           "no result" % rc)


def main():
    oracle_checks()
    run_checks()
    print("%d failures" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
