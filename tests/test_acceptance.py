"""Acceptance gate: one test per criterion, one printed pass/fail line
each.  Tolerances are pinned in-line: everything algebraic is exact
(tolerance zero); the single numeric check is the partition asymptotic,
pinned to +-5% at n = 200; runtime budgets are asserted where stated.

Criterion 2 reproduces the printed A2:r2 ordering example.  Its chain
sizes (5 of weight 0, 3 of weight 1) are a misprint: an outer involution
of sl3 fixes so(3), so the sizes are 3 and 5.  The test checks the
corrected 3/5 together with the printed chain order.
"""

import itertools
import math
import random
import time
import zlib
from fractions import Fraction

import pytest

from loopalg import characters as ch
from loopalg import growth_harness as gh
from loopalg import pbw_monomials as pbw
from loopalg import reduction_engine as eng
from loopalg.loop_affine import (D, AlgebraSpec, letter_bracket,
                                 subalgebra_sl2hat, verify_sl2hat)
from loopalg.root_systems import RootSystem
from loopalg.scalars import div, eta
from loopalg.twisted_grading import TwistedBasis

import tuple_oracles as tup
from test_twisted import check_equivariance

_TB = {}


def tb(label):
    if label not in _TB:
        _TB[label] = TwistedBasis.from_label(label)
    return _TB[label]


def report(num, ok, detail):
    print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))


# ---------------------------------------------------------------------------

def test_criterion_1_lie_algebra_correctness():
    t0 = time.time()
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("D", 4)]:
        rs = RootSystem(family, rank)
        dim = len(rs.basis_roots)
        basis = [rs.basis_element(k) for k in range(dim)]
        for p in range(dim):
            for q in range(p, dim):
                assert rs.bracket(basis[p], basis[q]) == \
                    -rs.bracket(basis[q], basis[p])
        for x, y, z in itertools.combinations(basis, 3):
            jac = rs.bracket(x, rs.bracket(y, z)) \
                + rs.bracket(y, rs.bracket(z, x)) \
                + rs.bracket(z, rs.bracket(x, y))
            assert jac.is_zero()
        # Killing Gram matrix has full rank (exact echelon)
        rows = [[rs.killing(p, q) for q in range(dim)]
                for p in range(dim)]
        rank_count = 0
        for col in range(dim):
            piv = next((i for i in range(rank_count, dim)
                        if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank_count], rows[piv] = rows[piv], rows[rank_count]
            inv = div(1, rows[rank_count][col])
            for i in range(rank_count + 1, dim):
                if rows[i][col]:
                    c = rows[i][col] * inv
                    rows[i] = [a - c * b
                               for a, b in zip(rows[i], rows[rank_count])]
            rank_count += 1
        assert rank_count == dim
    sl2 = RootSystem("A", 1)
    assert sl2.killing(2, 0) == 4  # kappa(e, f) via ad-trace
    dt = time.time() - t0
    ok = dt < 10
    report(1, ok, "antisymmetry+Jacobi exact on A1,A2,A3,D4; Killing Gram "
           "full rank; kappa(e,f)=4; %.1fs (budget 10s)" % dt)
    assert ok, "runtime budget exceeded: %.1fs" % dt


def test_criterion_2_twisted_basis():
    labels = ["A2:r2", "A3:r2", "D4:r2", "D4:r3", "E6:r2"]
    for label in labels:
        basis = tb(label)
        for b in basis.elements:
            assert check_equivariance(basis, b), (label, b)

    def h_combo(basis, coeffs):
        rs = basis.rs
        return rs.element({rs.cartan_index(i): c for i, c in coeffs.items()})

    def has_row(basis, s, want):
        rows = [b.elem for b in basis.component(s) if b.kind == "cartan"]
        return any(g.proportional_to(want) is not None for g in rows)

    w = eta(3)
    table = [
        ("A2:r2", 0, {1: 1, 2: 1}), ("A2:r2", 1, {1: 1, 2: -1}),
        ("A3:r2", 0, {1: 1, 3: 1}), ("A3:r2", 0, {2: 1}),
        ("A3:r2", 1, {1: 1, 3: -1}),
        ("D4:r2", 0, {1: 1}), ("D4:r2", 0, {2: 1}),
        ("D4:r2", 0, {3: 1, 4: 1}), ("D4:r2", 1, {3: 1, 4: -1}),
        ("E6:r2", 0, {1: 1, 5: 1}), ("E6:r2", 0, {2: 1, 4: 1}),
        ("E6:r2", 0, {3: 1}), ("E6:r2", 0, {6: 1}),
        ("E6:r2", 1, {1: 1, 5: -1}), ("E6:r2", 1, {2: 1, 4: -1}),
        ("D4:r3", 0, {1: 1, 3: 1, 4: 1}), ("D4:r3", 0, {2: 1}),
        ("D4:r3", 1, {1: 1, 3: w, 4: eta(3, 2)}),
        ("D4:r3", 2, {1: 1, 3: eta(3, 2), 4: w}),
    ]
    for label, s, coeffs in table:
        basis = tb(label)
        assert has_row(basis, s, h_combo(basis, coeffs)), (label, s, coeffs)

    # the published A2:r2 ordering example: its chain order as printed,
    # its chain sizes (printed 5/3, a misprint) corrected
    basis = tb("A2:r2")
    # an outer involution of sl3 fixes so(3): dim g_0 = 3, dim g_1 = 8 - 3
    chain_sizes = {0: 3, 1: 5}

    def line(b):
        """Name a basis line the way the printed example does."""
        if b is basis.theta_minus:
            return "g_-theta"
        if b is basis.theta_plus:
            return "g_theta"
        if b.kind == "cartan":
            for name, coeffs in (("h1+h2", {1: 1, 2: 1}),
                                 ("h1-h2", {1: 1, 2: -1})):
                if b.elem.proportional_to(h_combo(basis, coeffs)) \
                        is not None:
                    return name
        elif all(abs(basis.rs.height(a)) == 1 for a in b.orbit):
            return "simple+" if b.positive else "simple-"
        return repr(b)

    chains = {s: [line(b) for b in basis.component(s)] for s in (0, 1)}
    sizes_ok = {s: len(c) for s, c in chains.items()} == chain_sizes
    order0_ok = chains[0] == ["simple-", "h1+h2", "simple+"]
    # weight 1 starts at g_-theta and ends at g_theta, with h1-h2
    # between them and the simple-root lines on the side of their sign
    c1 = chains[1]
    at = {n: i for i, n in enumerate(c1)}
    order1_ok = (c1[:1] == ["g_-theta"] and c1[-1:] == ["g_theta"]
                 and {"simple-", "h1-h2", "simple+"} <= set(at)
                 and at["simple-"] < at["h1-h2"] < at["simple+"])
    ok = sizes_ok and order0_ok and order1_ok
    report(2, ok, "sigma-equivariance exact on 5 algebras; all Cartan "
           "table rows verified; A2:r2 chain sizes %r (printed 5/3 is a "
           "misprint, corrected to 3/5); chain order %r"
           % (chain_sizes, chains))
    assert sizes_ok, ("A2:r2 chain sizes differ from %r: %r"
                      % (chain_sizes, chains))
    assert order0_ok, ("weight-0 chain is not the simple-root pair around "
                       "h1+h2: %r" % chains[0])
    assert order1_ok, ("weight-1 chain does not run g_-theta < h1-h2 < "
                       "g_theta with the simple-root lines placed by sign: "
                       "%r" % c1)


def test_criterion_3_pbw_correctness():
    rng = random.Random(2024)
    levels = [Fraction(0), Fraction(1), Fraction(1, 2)]
    specs = [AlgebraSpec(tb("A1:r1"), flavor="affine", level=lv)
             for lv in levels]

    def rand_letter(spec, span=2):
        if spec.allow_d and rng.random() < 0.1:
            return D
        b = rng.choice(spec.basis.elements)
        n = rng.randrange(-span, span + 1)
        return (b.index, n - (n - b.s) % spec.r)

    # straightening associativity: split each word at a random point and
    # check product of straightened halves equals straightening the word
    count = 0
    while count < 500:
        spec = specs[count % 3]
        word = tuple(rand_letter(spec) for _ in range(rng.randrange(2, 6)))
        cut = rng.randrange(1, len(word))
        whole = pbw.straighten(spec, word)
        split = pbw.u_product(spec, pbw.straighten(spec, word[:cut]),
                              pbw.straighten(spec, word[cut:]))
        assert whole == split
        count += 1

    # commutators of letters reproduce the bracket, cocycle included
    for spec, lv in zip(specs, levels):
        e = spec.basis.theta_plus.index
        f = spec.basis.theta_minus.index
        got = pbw.u_commutator(spec, {((e, 2),): spec.scalar(1)},
                               {((f, -2),): spec.scalar(1)})
        assert got.get((), spec.scalar(0)) == spec.scalar(2 * 4 * lv)
        for _ in range(50):
            L1, L2 = rand_letter(spec), rand_letter(spec)
            assert pbw.u_commutator(spec, {(L1,): spec.scalar(1)},
                                    {(L2,): spec.scalar(1)}) \
                == letter_bracket(spec, L1, L2)

    # Poisson Jacobi and Leibniz, plain and md-graded
    def rand_elem(spec):
        out = {}
        for _ in range(2):
            word = tuple(rand_letter(spec)
                         for _ in range(rng.randrange(1, 3)))
            pbw.add_into(out, pbw.mono_sorted(spec, word),
                         spec.scalar(rng.randrange(1, 4)))
        return out

    for i in range(200):
        spec = specs[i % 3]
        grmd = bool(i % 2)
        x, y, z = (rand_elem(spec) for _ in range(3))
        jac = tup.elem_add(
            pbw.poisson(spec, x, pbw.poisson(spec, y, z, grmd), grmd),
            tup.elem_add(
                pbw.poisson(spec, y, pbw.poisson(spec, z, x, grmd), grmd),
                pbw.poisson(spec, z, pbw.poisson(spec, x, y, grmd), grmd)))
        assert jac == {}
        lhs = pbw.poisson(spec, x, tup.s_product(spec, y, z), grmd)
        rhs = tup.elem_add(
            tup.s_product(spec, pbw.poisson(spec, x, y, grmd), z),
            tup.s_product(spec, y, pbw.poisson(spec, x, z, grmd)))
        assert lhs == rhs
    report(3, True, "500 straightening splits, letter commutators with "
           "4*lambda cocycle, 200 Poisson Jacobi/Leibniz triples — all "
           "exact for lambda in {0, 1, 1/2}")


def _random_engine_cases(spec, rng, m, n_gens, n_targets):
    """Yield (F, M, plan) tuples with M above the per-class threshold;
    n_targets is spread over the n_gens generators."""
    roots = [b for b in spec.basis.elements if b.kind == "root"]
    per_gen = (n_targets + n_gens - 1) // n_gens
    for _ in range(n_gens):
        word = []
        for _ in range(m):
            b = rng.choice(spec.basis.elements)
            n = rng.randrange(-1, 2)
            word.append((b.index, n - (n - b.s) % spec.r))
        F = {pbw.mono_sorted(spec, tuple(word)): spec.scalar(1)}
        # a small pool of class tuples, several targets per class
        pool = [tuple(rng.choice(roots) for _ in range(m)) for _ in range(2)]
        plans = {}
        for t in range(per_gen):
            letters = pool[t % len(pool)]
            key = tuple(b.index for b in letters)
            if key not in plans:
                plans[key] = eng.reduction_plan(spec, F, letters)
            plan = plans[key]
            k = plan["threshold"]
            M = []
            for b in letters:
                k += rng.randrange(1, 3) * spec.r + 1
                n = k + (b.s - k) % spec.r
                M.append((b.index, n))
                k = n
            yield F, tuple(M), plan


def test_criterion_4_reduction_engine():
    t0 = time.time()
    total = 0
    replayed = 0
    for label in ["A1:r1", "A2:r2", "D4:r3"]:
        spec = AlgebraSpec(tb(label))
        rng = random.Random(zlib.crc32(label.encode()))
        for m in (1, 2, 3):
            seen_plans = set()
            for F, M, plan in _random_engine_cases(spec, rng, m, 5, 20):
                # 5 generators, 20 targets per (algebra, length) cell
                ell = eng.min_exponent(spec, spec.encode(F))
                H, trace = eng.construct_H_M(spec, F, M, plan=plan)
                lead, _ = pbw.leading(spec, H)
                assert lead == M, (label, m, M)
                assert eng.min_exponent(spec, spec.encode(H)) >= ell
                for step in trace.steps:
                    assert step[0] == "bracket" and step[2] >= 1
                # full replay from the generator is verified once per
                # (generator, class) pair; further targets in the same
                # class rerun the identical bracket sequence
                if id(plan) not in seen_plans:
                    seen_plans.add(id(plan))
                    assert trace.replay(spec, F) == H
                    replayed += 1
                total += 1
    dt = time.time() - t0
    ok = dt < 300
    report(4, ok, "%d targets across {A1:r1, A2:r2, D4:r3} x m in {1,2,3}: "
           "LT matches, exponents >= ell, positive-exponent traces, %d full "
           "replays; %.0fs (budget 300s)" % (total, replayed, dt))
    assert ok, "runtime budget exceeded: %.1fs" % dt


def test_criterion_5_affine_lift():
    rng = random.Random(77)
    for label in ["A1:r1", "A2:r2", "D4:r3"]:
        spec = AlgebraSpec(tb(label))
        for lv in (0, 1):
            spec_u = AlgebraSpec(tb(label), flavor="derived", level=lv)
            for m in (1, 2):
                for F, M, plan in _random_engine_cases(spec, rng, m, 2, 4):
                    H, trace = eng.construct_H_M(spec, F, M, plan=plan)
                    HU = eng.lift_to_U(spec_u, F, trace)
                    lead, _ = pbw.leading(spec_u, HU)
                    assert lead == M, (label, lv, m)
    # d-projection on random d-bearing affine elements
    spec_a = AlgebraSpec(tb("A1:r1"), flavor="affine", level=1)
    for i in range(50):
        word = [D] * (1 + i % 2)
        for _ in range(i % 3):
            b = rng.choice(spec_a.basis.elements)
            n = rng.randrange(-2, 3)
            word.append((b.index, n))
        F = {pbw.mono_sorted(spec_a, tuple(word)): spec_a.scalar(1)}
        H, trace = eng.project_to_derived(spec_a, F)
        assert H and all(D not in mo for mo in H)
        assert trace.replay(spec_a, F) == H
    report(5, True, "enveloping-algebra lifts reproduce LT for lambda in "
           "{0,1}, m <= 2, all three algebras; 50 d-projections d-free "
           "and nonzero")


def test_criterion_6_growth_dichotomy():
    t0 = time.time()
    spec = AlgebraSpec(tb("A1:r1"), flavor="current")
    e = spec.basis.theta_plus.index
    gen = {((e, 1),): spec.scalar(1)}
    J = 14
    quotient = gh.quotient_dimension_series(spec, [gen], J)
    ambient = gh.ambient_dimension_series(spec, J)

    # engine parameters for this ideal: length-1 generator, uniform
    # exponent threshold over all target classes
    loop = AlgebraSpec(tb("A1:r1"))
    n_eng = eng.uniform_threshold(loop, gen, 1)
    bound = [gh.count_normal_words(3, 1, n_eng, j) for j in range(J + 1)]
    assert all(q <= b for q, b in zip(quotient, bound))

    # zero ideal dominates the one-letter-per-weight partition count
    parts = ch.euler_product({j: 1 for j in range(1, J + 1)}, J).coeffs
    cum_parts = [sum(parts[: j + 1]) for j in range(J + 1)]
    assert all(a >= p for a, p in zip(ambient, cum_parts))

    # S / (e t) = S(sl2): cubic growth, exactly
    assert quotient == [math.comb(j + 3, 3) for j in range(J + 1)]

    # saturation vs the independent oracle at small scale
    from test_growth import brute_force_ideal_dim
    for j in range(2, 7):
        assert ambient[j] - quotient[j] == \
            brute_force_ideal_dim(spec, [gen], j)
    dt = time.time() - t0
    ok = dt < 600
    report(6, ok, "quotient <= normal-word bound (m=1, n=%d) and equal to "
           "C(j+3, 3); ambient >= partition count; oracle match j<=6; "
           "%.0fs (budget 600s)" % (n_eng, dt))
    assert ok, "runtime budget exceeded: %.1fs" % dt


def test_criterion_7_characters():
    s = ch.euler_product({j: 1 for j in range(1, 501, 2)}, 500)
    for n in range(501):
        assert s[n] == ch.count_partitions(n, "odd")
        assert s[n] == ch.count_partitions(n, "distinct")
    for k in (1, 2):
        h, exact = ch.hilb_integrable(k, k, 100)
        assert exact
        assert all(c >= 0 and c == int(c) for c in h.coeffs)
        low = ch.euler_product(
            {(k + 1) * j + 1: 1 for j in range(0, 100 // (k + 1) + 1)}, 100)
        assert h.dominates(low)
    ratio = ch.asymptotic_ratio(200)
    ok = abs(ratio - 1) <= 0.05  # pinned tolerance: +-5% at n = 200
    report(7, ok, "odd-part counts exact to 500 (= distinct-part counts); "
           "k=1,2 series nonnegative integers dominating the mod-(k+1) "
           "partition product to N=100; asymptotic ratio %.4f (+-5%%)"
           % ratio)
    assert ok


def test_criterion_8_affine_sl2_subalgebras():
    checked = []
    for label, indices in [("A1:r1", (0, 1)), ("D4:r3", (0, 1, 2))]:
        spec = AlgebraSpec(tb(label), flavor="affine", level=1)
        for i in indices:
            data = subalgebra_sl2hat(spec, i)
            assert data["kappa"] != 0, (label, i)
            assert all(ok for _, ok in verify_sl2hat(spec, data)), (label, i)
            checked.append((label, i, str(data["kappa"])))
    report(8, True, "families close with cocycle (k+rn)*delta*kappa and "
           "kappa nonzero: %s" % checked)
