"""The four workloads: seeded inputs, the timed operations, and the check
of each operation's output.

Each ``setup_<name>(lp, seed)`` takes the freshly imported ``loopalg``
package and returns a list of ``Op``.  The worker times ``op.run()`` and,
after the clock stops, calls ``op.check(output)``.  An op marked
``known_fault`` exercises a fault of the program that is not mended yet:
its check fails today and the worker counts it as failed, not wrong.
"""

import contextlib
import io
import json
import random

import oracles as orc

ALGEBRAS = ("A1:r1", "A2:r2", "D4:r3")


class Op:
    __slots__ = ("label", "run", "check", "known_fault")

    def __init__(self, label, run, check, known_fault=None):
        self.label = label
        self.run = run
        self.check = check
        self.known_fault = known_fault


def rng_for(workload, seed):
    # string seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED
    return random.Random("%s:%d" % (workload, seed))


def catalogue_rng(workload):
    """The draws that set how much work an operation does.

    The cost of one reduction target varies a hundredfold with the
    generator's letters and the target lines, so drawing those per seed
    made the median operation time differ by a third between seeds.  They
    are drawn once, from this fixed stream; the seed draws the
    coefficients and the target t-powers."""
    return random.Random("%s:catalogue" % workload)


def coefficient(rng):
    return rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])


def random_word(spec, rng, m, span=1):
    """m letters over the whole basis with t-powers in [-span, span]
    moved down onto the letter's congruence class."""
    word = []
    for _ in range(m):
        b = rng.choice(spec.basis.elements)
        n = rng.randrange(-span, span + 1)
        word.append((b.index, n - (n - b.s) % spec.r))
    return word


def target_above(spec, threshold, lines, gaps):
    """A standard monomial over `lines` whose t-powers start above
    `threshold` and increase by the seeded gaps."""
    r, k, M = spec.r, threshold, []
    for b, g in zip(lines, gaps):
        k += g * r + 1
        n = k + (b.s - k) % r
        M.append((b.index, n))
        k = n
    return tuple(M)


def certificate_checks(F, M, H, steps):
    """Leading monomial is the target, t-powers never drop below the
    generator's, and every step brackets at a positive t-power."""
    return (bool(H) and orc.leading(H) == M
            and orc.min_t_power(H) >= orc.min_t_power(F)
            and all(s[0] == "bracket" and s[2] >= 1 for s in steps))


# ------------------------------------------------------------------ reduce

# Seeded operations per algebra and generator length.  With 33 operations
# the median one sat where neighbouring times were 20% apart, and op_p50_ms
# jumped between runs; with more length-2 targets the median falls inside
# their dense block.
REDUCE_PER_CELL = {1: 6, 2: 14}

# m = 3 costs 0.02 s to 12 s per target depending on the generator's
# letters, so one seed-independent shape per algebra keeps run_s from
# swinging with the seed; the seed still picks its coefficient and target
# t-powers.  Shapes: (generator word, target basis lines).  H reaches
# about 1.3e4 (A1:r1), 2.2e4 (A2:r2) and 3.5e4 (D4:r3) terms.
REDUCE_M3 = {
    "A1:r1": (((2, -1), (0, 1), (1, 1)), (2, 0, 0)),
    "A2:r2": (((3, -1), (6, -1), (3, 1)), (0, 0, 2)),
    "D4:r3": (((2, -3), (10, -3), (0, 0)), (19, 23, 5)),
}


def reduce_case(lp, spec, F, lines, gaps):
    eng = lp.reduction_engine

    def run():
        plan = eng.reduction_plan(spec, F, lines)
        M = target_above(spec, plan["threshold"], lines, gaps)
        H, trace = eng.construct_H_M(spec, F, M, plan=plan)
        return M, H, tuple(trace.steps)

    def check(out):
        M, H, steps = out
        return certificate_checks(F, M, H, steps)

    return run, check


def seeded_generator(lp, spec, shape, rng, m):
    word = tuple(random_word(spec, shape, m))
    return {lp.pbw_monomials.mono_sorted(spec, word): spec.scalar(coefficient(rng))}


def setup_reduce(lp, seed):
    rng, shape = rng_for("reduce", seed), catalogue_rng("reduce")
    ops = []
    for label in ALGEBRAS:
        spec = lp.AlgebraSpec(lp.TwistedBasis.from_label(label))
        roots = spec.basis.root_vectors()
        for m, count in sorted(REDUCE_PER_CELL.items()):
            for i in range(count):
                F = seeded_generator(lp, spec, shape, rng, m)
                lines = tuple(shape.choice(roots) for _ in range(m))
                gaps = [rng.randrange(1, 3) for _ in range(m)]
                run, check = reduce_case(lp, spec, F, lines, gaps)
                ops.append(Op("%s m=%d #%d" % (label, m, i), run, check))
        word, line_idx = REDUCE_M3[label]
        F = {lp.pbw_monomials.mono_sorted(spec, word):
             spec.scalar(coefficient(rng))}
        lines = tuple(spec.basis.elements[k] for k in line_idx)
        gaps = [rng.randrange(1, 3) for _ in range(3)]
        run, check = reduce_case(lp, spec, F, lines, gaps)
        ops.append(Op("%s m=3" % label, run, check))
    return ops


# ------------------------------------------------------------------ growth

GROWTH_MD = {"A1:r1": 8, "A2:r2": 6}
KNOWN_GROWTH_FAULT = "1*b3@t^1 + -1*b3@t^0"
KNOWN_GROWTH_MD = 4


def setup_growth(lp, seed):
    rng = rng_for("growth", seed)
    gh = lp.growth_harness
    ops = []
    for label, J in sorted(GROWTH_MD.items()):
        spec = lp.AlgebraSpec(label, flavor="current")
        top = spec.basis.theta_plus
        # e t^N in sl2[t]; the theta line at its lowest t-power for A2:r2
        powers = (1, 2, 3) if label == "A1:r1" else (top.s,)
        for N in powers:
            gen = {((top.index, N),): spec.scalar(coefficient(rng))}
            want = orc.letter_ideal_quotient(label, N, J)
            ops.append(Op(
                "%s quotient theta t^%d md %d" % (label, N, J),
                lambda spec=spec, gen=gen, J=J:
                    gh.quotient_dimension_series(spec, [gen], J),
                lambda out, want=want: out == want))
        want = orc.ambient_series(label, J)
        ops.append(Op("%s ambient md %d" % (label, J),
                      lambda spec=spec, J=J: gh.ambient_dimension_series(spec, J),
                      lambda out, want=want: out == want))
    # Not bihomogeneous: the generic saturation path truncates at the
    # cutoff after every step.  The ideal is the kernel of t -> 1, so the
    # quotient is S(sl2) with dims C(j + 3, 3).
    spec = lp.AlgebraSpec("A1:r1", flavor="current")
    gen = lp.cli.parse_element(spec, KNOWN_GROWTH_FAULT)
    want = orc.binomial_series(KNOWN_GROWTH_MD)
    ops.append(Op(
        "A1:r1 quotient %s md %d" % (KNOWN_GROWTH_FAULT, KNOWN_GROWTH_MD),
        lambda: gh.quotient_dimension_series(spec, [gen], KNOWN_GROWTH_MD),
        lambda out: out == want,
        known_fault="growth saturation truncates non-bihomogeneous "
                    "generators at the cutoff"))
    return ops


# -------------------------------------------------------------------- lift

LIFT_PER_CELL = {1: 1, 2: 6}
LIFT_LEVELS = (0, 1)
# one seed-independent length-3 shape (about 3.3e3 terms), for the same
# reason as REDUCE_M3
LIFT_M3 = ("A1:r1", ((0, -1), (1, -1), (0, 1)), (0, 2, 0))
PROJECT_CASES = 10


def certificate(lp, spec, F, lines, gaps):
    eng = lp.reduction_engine
    plan = eng.reduction_plan(spec, F, lines)
    M = target_above(spec, plan["threshold"], lines, gaps)
    H, trace = eng.construct_H_M(spec, F, M, plan=plan)
    return M, trace


def lift_ops(lp, bases, label, F, M, trace, tag):
    eng = lp.reduction_engine
    ops = []
    for level in LIFT_LEVELS:
        spec_u = lp.AlgebraSpec(bases[label], flavor="derived", level=level)
        ops.append(Op(
            "%s %s lift level %d" % (label, tag, level),
            lambda spec_u=spec_u: eng.lift_to_U(spec_u, F, trace),
            lambda out: bool(out) and orc.leading(out) == M))
    return ops


def setup_lift(lp, seed):
    """Certificates are built here, so their cost lands in setup_s."""
    rng, shape = rng_for("lift", seed), catalogue_rng("lift")
    eng = lp.reduction_engine
    bases = {label: lp.TwistedBasis.from_label(label) for label in ALGEBRAS}
    ops = []
    for label in ALGEBRAS:
        spec = lp.AlgebraSpec(bases[label])
        roots = spec.basis.root_vectors()
        for m, count in sorted(LIFT_PER_CELL.items()):
            for i in range(count):
                F = seeded_generator(lp, spec, shape, rng, m)
                lines = tuple(shape.choice(roots) for _ in range(m))
                gaps = [rng.randrange(1, 3) for _ in range(m)]
                M, trace = certificate(lp, spec, F, lines, gaps)
                ops += lift_ops(lp, bases, label, F, M, trace,
                                "m=%d #%d" % (m, i))
    label, word, line_idx = LIFT_M3
    spec = lp.AlgebraSpec(bases[label])
    F = {lp.pbw_monomials.mono_sorted(spec, word): spec.scalar(coefficient(rng))}
    lines = tuple(spec.basis.elements[k] for k in line_idx)
    M, trace = certificate(lp, spec, F, lines,
                           [rng.randrange(1, 3) for _ in range(3)])
    ops += lift_ops(lp, bases, label, F, M, trace, "m=3")
    # d-bearing elements of the full affine algebra at level 1
    spec_a = lp.AlgebraSpec(bases["A1:r1"], flavor="affine", level=1)
    D = lp.D
    for i in range(PROJECT_CASES):
        word = [D] * (1 + i % 2)
        for _ in range(i % 3):
            b = shape.choice(spec_a.basis.elements)
            word.append((b.index, shape.randrange(-2, 3)))
        F = {lp.pbw_monomials.mono_sorted(spec_a, tuple(word)):
             spec_a.scalar(coefficient(rng))}

        def run(F=F):
            H, trace = eng.project_to_derived(spec_a, F)
            return H, tuple(trace.steps)

        ops.append(Op("A1:r1 project-derived #%d" % i, run,
                      lambda out: bool(out[0]) and not any(
                          orc.is_degree(L) for m in out[0] for L in m)))
    return ops


# --------------------------------------------------------------------- cli

CHARACTER_TERMS = 2000

# Bad input must end with exit 1 (domain) or 2 (usage) and no traceback.
BAD_INPUTS = [
    (["basis", "X5"], None),
    (["basis", "A2:r5"], None),
    (["bracket", "A1:r1", "1*b9@t^0", "1*b3@t^0"], None),
    (["bracket", "A1:r1", "1*b1@t^0", "1*b3@t^x"], None),
    (["straighten", "A1:r1", "1*b1@t^0*(2"], None),
    (["leading-term", "A1:r1", "0"], None),
    (["partitions", "--n", "5", "--parts", "even"], None),
    (["character", "--k1", "0", "--k2", "0"], None),
    (["growth", "A1:r1"], None),
    (["reduce", "A1:r1", "--generator", "1", "--target", "1*b1@t^25"],
     "reduce with a generator without letters raises IndexError"),
    (["reduce", "A1:r1", "--generator", "1*b3@t^1", "--target", "1*b2@t^25"],
     "reduce with a Cartan-line target raises AssertionError"),
    (["project-derived", "A1:r1", "--elem", "0"],
     "project-derived of 0 raises AssertionError"),
    (["growth", "A1:r1", "--ideal-gen", "1*b3@t^1", "--max-md", "-1"],
     "growth with a negative cutoff raises IndexError"),
    (["bracket", "A1:r1", "1/0*b1@t^0", "1*b3@t^0"],
     "a 1/0 scalar raises ZeroDivisionError"),
    (["basis", "A0"], "basis A0 exits 0"),
    (["character", "--k1", "1", "--k2", "1", "--terms", "-3"],
     "character with negative --terms exits 0"),
]


def run_cli(lp, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lp.cli.run(list(argv))
    return rc, out.getvalue()


def fmt_letter(L):
    return "d" if orc.is_degree(L) else "b%d@t^%d" % (L[0] + 1, L[1])


def fmt_term(c, word):
    return "*".join([str(c)] + [fmt_letter(L) for L in word])


def seeded_element(spec, rng, terms, max_len):
    words = {}
    while len(words) < terms:
        word = tuple(random_word(spec, rng, rng.randrange(1, max_len + 1), 2))
        words[orc.standard(word)] = (coefficient(rng), word)
    return " + ".join(fmt_term(c, w) for c, w in words.values())


def check_growth_rows(text, label, N, J):
    rows = text.strip().splitlines()[1:]
    quot = [int(r.split(",")[3]) for r in rows]
    full = [int(r.split(",")[1]) for r in rows]
    return (quot == orc.letter_ideal_quotient(label, N, J)
            and full == orc.ambient_series(label, J))


def cli_reduce_ok(text, target, ell):
    payload = json.loads(text)["payload"]
    H = orc.parse_element(payload["h_m"])
    steps_ok = all(
        step["op"] == "bracket" and all(
            not orc.is_degree(L) and L[1] >= 1
            for _, word in orc.parse_words(step["element"]) for L in word)
        for step in payload["trace"])
    return (bool(H) and orc.leading(H) == target and steps_ok
            and orc.min_t_power(H) >= ell)


def straighten_ok(text, c, word):
    out = orc.parse_element(text)
    top = orc.standard(word)
    return (out.get(top) == (c, 0)
            and all(orc.is_standard(m) for m in out)
            and all(len(m) < len(word) for m in out if m != top))


def setup_cli(lp, seed):
    rng = rng_for("cli", seed)
    bases = {label: lp.TwistedBasis.from_label(label) for label in ALGEBRAS}
    loop = {label: lp.AlgebraSpec(b) for label, b in bases.items()}
    ops = []

    def add(label, argv, check, known_fault=None):
        ops.append(Op(label, lambda argv=argv: run_cli(lp, argv),
                      check, known_fault))

    for label in ALGEBRAS:
        def basis_ok(out, label=label):
            rc, text = out
            rows = json.loads(text)["payload"]
            counts = {}
            for row in rows:
                counts[row["sigma_weight"]] = counts.get(row["sigma_weight"], 0) + 1
            return (rc == 0 and len(rows) == orc.lie_dim(label)
                    and counts == orc.EIGENSPACE_DIMS[label])
        add("basis " + label, ["basis", label, "--emit", "json"], basis_ok)

    # bracket both ways round: the Poisson bracket is antisymmetric
    for label in ALGEBRAS:
        a = seeded_element(loop[label], rng, 2, 2)
        b = seeded_element(loop[label], rng, 2, 1)
        pair = {}

        def bracket_ok(out, key, pair=pair):
            rc, text = out
            pair[key] = orc.parse_element(text)
            if len(pair) < 2:
                return rc == 0
            return rc == 0 and pair["ab"] == orc.negate(pair["ba"])

        add("bracket %s a b" % label, ["bracket", label, "--", a, b],
            lambda out, f=bracket_ok: f(out, "ab"))
        add("bracket %s b a" % label, ["bracket", label, "--", b, a],
            lambda out, f=bracket_ok: f(out, "ba"))

    for label, flavor, level in (("A1:r1", "affine", "1"),
                                 ("A2:r2", "derived", "1"),
                                 ("D4:r3", "loop", "0")):
        spec = lp.AlgebraSpec(bases[label], flavor=flavor)
        word = random_word(spec, rng, 3, 2)
        if flavor == "affine":
            word[rng.randrange(3)] = "d"
        rng.shuffle(word)
        c = coefficient(rng)
        add("straighten " + label,
            ["straighten", label, "--flavor", flavor, "--level", level, "--",
             fmt_term(c, word)],
            lambda out, c=c, word=tuple(word):
                out[0] == 0 and straighten_ok(out[1], c, word))

    for label, order in (("A1:r1", "standard"), ("A2:r2", "reverse"),
                         ("D4:r3", "standard")):
        text = seeded_element(loop[label], rng, 4, 3)
        want = orc.leading(orc.parse_element(text), reverse=(order == "reverse"))
        add("leading-term %s %s" % (label, order),
            ["leading-term", label, "--order", order, "--", text],
            lambda out, want=want: out[0] == 0 and out[1].split()[0]
            == "*".join(fmt_letter(L) for L in want))

    for label in ("A1:r1", "A2:r2"):
        spec = loop[label]
        k, n = random_word(spec, rng, 1)[0]
        F = {((k, n),): spec.scalar(1)}
        line = rng.choice(spec.basis.root_vectors())
        plan = lp.reduction_engine.reduction_plan(spec, F, (line,))
        target = target_above(spec, plan["threshold"], (line,),
                              [rng.randrange(1, 3)])
        add("reduce " + label,
            ["reduce", label, "--generator=" + fmt_term(1, [(k, n)]),
             "--target=" + fmt_term(1, target)],
            lambda out, t=target, n=n: out[0] == 0 and cli_reduce_ok(out[1], t, n))

    for i in range(2):
        spec = lp.AlgebraSpec(bases["A1:r1"], flavor="affine", level=1)
        word = ["d"] + random_word(spec, rng, 1 + i, 2)
        add("project-derived #%d" % i,
            ["project-derived", "A1:r1", "--level", "1",
             "--elem=" + fmt_term(coefficient(rng), word)],
            lambda out: out[0] == 0 and out[1].strip() != "0" and not any(
                orc.is_degree(L) for m in orc.parse_element(out[1]) for L in m))

    N, J = rng.choice((1, 2, 3)), 4
    top = bases["A1:r1"].theta_plus.index
    add("growth A1:r1",
        ["growth", "A1:r1", "--ideal-gen=" + fmt_term(coefficient(rng), [(top, N)]),
         "--max-md", str(J),
         "--emit", "csv"],
        lambda out, N=N, J=J: out[0] == 0 and check_growth_rows(out[1], "A1:r1", N, J))

    # the cost of an exact series depends on k, so every k = 1..4 runs
    # each round; the seed picks the unequal pairs, which cost alike
    unequal = []
    while len(unequal) < 2:
        k1, k2 = rng.randrange(0, 5), rng.randrange(0, 5)
        if k1 != k2 and (k1, k2) not in unequal:
            unequal.append((k1, k2))
    for k1, k2 in [(k, k) for k in range(1, 5)] + unequal:
        def character_ok(out, k1=k1, k2=k2):
            rc, text = out
            got = json.loads(text)["payload"]["coefficients"]
            wk = orc.weyl_kac_series(k1, k2, CHARACTER_TERMS)
            if k1 == k2:
                return rc == 0 and got == wk
            return rc == 0 and len(got) == len(wk) and all(
                w >= g for w, g in zip(wk, got))
        add("character %d %d" % (k1, k2),
            ["character", "--k1", str(k1), "--k2", str(k2),
             "--terms", str(CHARACTER_TERMS), "--emit", "json"],
            character_ok)

    n = rng.randrange(100, 400)
    add("partitions odd", ["partitions", "--n", str(n), "--parts", "odd"],
        lambda out, n=n: out[0] == 0 and int(out[1]) == orc.partitions_distinct(n))
    n, m = rng.randrange(100, 400), rng.randrange(3, 7)
    rho = rng.randrange(1, m)
    add("partitions mod", ["partitions", "--n", str(n), "--parts",
                           "mod:%d,%d" % (m, rho)],
        lambda out, n=n, m=m, rho=rho:
            out[0] == 0 and int(out[1]) == orc.partitions_mod(n, m, rho))

    n = rng.randrange(200, 400)
    add("asymptotic", ["asymptotic", "--n", str(n)],
        lambda out: out[0] == 0 and abs(float(out[1]) - 1) < 0.05)

    nodes = [(label, i) for label, count in
             (("A1:r1", 2), ("A2:r2", 2), ("D4:r3", 3)) for i in range(count)]
    for label, index in rng.sample(nodes, 2):
        def sl2hat_ok(out, label=label, index=index):
            rc, text = out
            if rc != 0 or "kappa" not in json.loads(text)["payload"]:
                return False
            spec = lp.AlgebraSpec(bases[label], flavor="affine")
            data = lp.subalgebra_sl2hat(spec, index)
            return all(ok for _, ok in lp.verify_sl2hat(spec, data))
        add("subalgebra-sl2hat %s %d" % (label, index),
            ["subalgebra-sl2hat", label, "--index", str(index),
             "--emit", "json"], sl2hat_ok)

    for argv, fault in BAD_INPUTS:
        add("bad input: " + " ".join(argv), argv,
            lambda out: out[0] in (1, 2), fault)
    return ops


SETUPS = {
    "reduce": setup_reduce,
    "growth": setup_growth,
    "lift": setup_lift,
    "cli": setup_cli,
}
