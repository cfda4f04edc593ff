import math
import random
from collections import Counter

import pytest

from loopalg import growth_harness as gh
from loopalg import pbw_monomials as pbw
from loopalg.loop_affine import AlgebraSpec
from loopalg.characters import euler_product
from loopalg.scalars import div


@pytest.fixture(scope="module")
def sl2cur(request):
    return AlgebraSpec("A1:r1", flavor="current")


def e_gen(spec, n=1):
    return {((spec.basis.theta_plus.index, n),): spec.scalar(1)}


def enumerate_monomials(spec, j):
    """Every standard monomial of md <= j, built md by md from words one
    letter shorter, with the letters read off the basis."""
    low = 1 if spec.flavor == "poscurrent" else 0
    letters = [(b.index, n) for b in spec.basis.elements
               for n in range(low, j) if n % spec.r == b.s]
    by_md = [{()}] + [set() for _ in range(j)]
    for k in range(1, j + 1):
        for x in letters:
            if x[1] + 1 <= k:
                by_md[k].update(pbw.mono_sorted(spec, m + (x,))
                                for m in by_md[k - x[1] - 1])
    return [m for level in by_md for m in level]


def brute_force_ideal_dim(spec, gens, j):
    """Independent oracle: dense Gaussian elimination over an explicit
    monomial enumeration, closing under letter operations with the
    generic poisson product (no echelon-by-piece, no ad_lines)."""
    monos = enumerate_monomials(spec, j)
    index = {m: i for i, m in enumerate(monos)}
    letters = gh.letters_up_to(spec, j)

    def to_vec(elem):
        v = [0] * len(monos)
        for m, c in elem.items():
            if pbw.mono_md(m) <= j:
                v[index[m]] = c
        return v

    # incremental dense echelon pivoting on the *lowest* monomial index
    # (the opposite choice from the library's echelon)
    pivots = {}

    def insert(vec):
        for col in range(len(monos)):
            if not vec[col]:
                continue
            row = pivots.get(col)
            if row is None:
                inv = div(1, vec[col])
                pivots[col] = [x * inv for x in vec]
                return True
            c = vec[col]
            vec = [a - c * b for a, b in zip(vec, row)]
        return False

    queue = [dict(g) for g in gens if g]
    qi = 0
    while qi < len(queue):
        elem = {m: c for m, c in queue[qi].items() if pbw.mono_md(m) <= j}
        qi += 1
        if not elem or not insert(to_vec(elem)):
            continue
        for L in letters:
            lat = {(L,): spec.scalar(1)}
            queue.append(pbw.s_product(spec, lat, elem))
            queue.append(pbw.poisson(spec, lat, elem))
    return len(pivots)


@pytest.mark.parametrize("label, flavor, J", [
    ("A1:r1", "current", 8), ("A1:r1", "poscurrent", 8),
    ("A2:r2", "current", 8), ("A2:r2", "poscurrent", 8),
    ("D4:r3", "current", 4), ("D4:r3", "poscurrent", 8)])
def test_md_counts_match_enumeration(tb_cache, label, flavor, J):
    spec = AlgebraSpec(tb_cache(label), flavor=flavor)
    counts = Counter(pbw.mono_md(m) for m in enumerate_monomials(spec, J))
    assert gh.md_series(spec, J) == [counts[k] for k in range(J + 1)]


def test_md_series_small(sl2cur):
    assert gh.md_series(sl2cur, 2) == [1, 3, 9]
    assert gh.ambient_dimension_series(sl2cur, 2) == [1, 4, 13]


def test_ambient_matches_euler_product(sl2cur):
    J = 10
    md = gh.md_series(sl2cur, J)
    # letters e,h,f at t^n have weight n+1, three per weight
    series = euler_product({j: 3 for j in range(1, J + 1)}, J)
    assert md == series.coeffs


def test_zero_ideal(sl2cur):
    assert sum(gh.saturate(sl2cur, [], 5)["dims_by_md"]) == 0
    assert gh.quotient_dimension_series(sl2cur, [], 4) == [1, 4, 13, 35, 86]


def test_exponent0_generator_fixpoint(sl2cur):
    # at j = 1 the ideal generated by the raising letter already contains
    # the whole degree-0 algebra piece
    g = e_gen(sl2cur, 0)
    sat = gh.saturate(sl2cur, [g], 1)
    assert sum(sat["dims_by_md"][:2]) == 3


def test_quotient_series_is_cumulative_binomials(sl2cur):
    qs = gh.quotient_dimension_series(sl2cur, [e_gen(sl2cur)], 8)
    assert qs == [math.comb(j + 3, 3) for j in range(9)]


@pytest.mark.parametrize("gens_desc", ["et1", "et1sq", "mixed", "et2ecube"])
def test_saturation_matches_brute_force(sl2cur, gens_desc):
    e = sl2cur.basis.theta_plus.index
    f = sl2cur.basis.theta_minus.index
    if gens_desc == "et1":
        gens = [e_gen(sl2cur, 1)]
    elif gens_desc == "et1sq":
        gens = [{((e, 1), (e, 1)): sl2cur.scalar(1)}]
    elif gens_desc == "mixed":
        # md-homogeneous, not homogeneous in length
        gens = [{((e, 1),): sl2cur.scalar(1),
                 ((f, 0), (f, 0)): sl2cur.scalar(1)}]
    else:
        # the same kind; keying its pieces by length as well overcounts
        gens = [{((e, 2),): sl2cur.scalar(1),
                 ((e, 0), (e, 0), (e, 0)): sl2cur.scalar(1)}]
    for j in range(2, 7):
        fast = sum(gh.saturate(sl2cur, gens, j)["dims_by_md"])
        slow = brute_force_ideal_dim(sl2cur, gens, j)
        assert fast == slow, (gens_desc, j, fast, slow)


def test_md_inhomogeneous_generator_rejected(sl2cur):
    e = sl2cur.basis.theta_plus.index
    with pytest.raises(ValueError, match="md-homogeneous"):
        gh.saturate(sl2cur, [{((e, 1),): 1, ((e, 0),): -1}], 4)


def test_twisted_positive_current_runs(tb_cache):
    spec = AlgebraSpec(tb_cache("A2:r2"), flavor="poscurrent")
    b = spec.basis.theta_plus
    g = {((b.index, b.s + (2 if b.s == 0 else 0)),): spec.scalar(1)}
    qs = gh.quotient_dimension_series(spec, [g], 5)
    assert qs[0] == 1 and all(x <= y for x, y in zip(qs, qs[1:]))


def test_traces_replay(sl2cur):
    gens = [e_gen(sl2cur)]
    sat = gh.saturate(sl2cur, gens, 5, with_traces=True)
    for _, vec, tr in sat["basis"]:
        assert gh.replay_growth_trace(sl2cur, gens, tr) == vec


def test_order_independence(sl2cur):
    rng = random.Random(1)

    def shuffled(L):
        L = list(L)
        rng.shuffle(L)
        return L

    a = gh.saturate(sl2cur, [e_gen(sl2cur)], 6)["dims_by_md"]
    b = gh.saturate(sl2cur, [e_gen(sl2cur)], 6,
                    letter_order=shuffled)["dims_by_md"]
    assert a == b


def test_count_normal_words():
    assert gh.count_normal_words(3, 1, 1, 2) == math.comb(5, 2)
    # m = 1 has no tail factor
    assert gh.count_normal_words(3, 1, 2, 4) == math.comb(10, 4)
    # monotone in each argument
    for k in range(1, 4):
        assert gh.count_normal_words(3, k, 2, 5) <= \
            gh.count_normal_words(3, k + 1, 2, 5)
        assert gh.count_normal_words(3, 2, k, 5) <= \
            gh.count_normal_words(3, 2, k + 1, 5)
        assert gh.count_normal_words(3, 2, 2, k) <= \
            gh.count_normal_words(3, 2, 2, k + 1)


def test_classifier():
    poly = [math.comb(j + 3, 3) for j in range(15)]
    out = gh.classify_growth(poly)
    assert out["kind"] == "polynomial" and out["degree"] == 3
    parts = euler_product({j: 1 for j in range(1, 40)}, 39).coeffs
    cum = [sum(parts[: j + 1]) for j in range(40)]
    assert gh.classify_growth(cum)["kind"] == "superpolynomial"
    assert gh.classify_growth([5] * 20)["kind"] == "polynomial"
    assert gh.classify_growth([5] * 20)["degree"] == 0
    with pytest.raises(ValueError):
        gh.classify_growth([1, 2, 3])


def test_g0_generates(tb_cache):
    for label in ["A1:r1", "A2:r2", "D4:r3", "E6:r2"]:
        assert gh.check_g0_generates(tb_cache(label))
