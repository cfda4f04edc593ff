import math
import random
import zlib
from collections import Counter

import pytest

from loopalg import growth_harness as gh
from loopalg import pbw_monomials as pbw
from loopalg.cli import parse_element
from loopalg.loop_affine import D, AlgebraSpec
from loopalg.characters import euler_product
from loopalg.scalars import div

import tuple_oracles as tup


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
            if tup.mono_md(m) <= j:
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
        elem = {m: c for m, c in queue[qi].items() if tup.mono_md(m) <= j}
        qi += 1
        if not elem or not insert(to_vec(elem)):
            continue
        for L in letters:
            lat = {(L,): spec.scalar(1)}
            queue.append(tup.s_product(spec, lat, elem))
            queue.append(pbw.poisson(spec, lat, elem))
    return len(pivots)


class Echelon:
    """Exact row echelon keyed by leading monomial."""

    def __init__(self, spec):
        self.spec = spec
        self.rows = {}

    def insert(self, vec):
        """Fully reduce vec; keep it and return its pivot unless it is
        dependent."""
        spec = self.spec
        vec = dict(vec)
        while vec:
            piv = max(vec, key=lambda m: tup.key_standard(spec, m))
            row = self.rows.get(piv)
            if row is None:
                p = vec[piv]
                self.rows[piv] = {m: div(v, p) for m, v in vec.items()}
                return piv
            c = vec[piv]
            for m, v in row.items():
                pbw.add_into(vec, m, -(v * c))
        return None


def count_table(spec, J):
    """c[M][L], the number of standard monomials of md M and length L."""
    c = [[0] * (J + 1) for _ in range(J + 1)]
    c[0][0] = 1
    for _, n in gh.letters_up_to(spec, J):
        for M in range(n + 1, J + 1):
            row, src = c[M], c[M - n - 1]
            for L in range(1, M + 1):
                row[L] += src[L - 1]
    return c


def echelon_saturate(spec, gens, j):
    """Second oracle: a basis of the whole ideal up to md j, one echelon
    per piece, closed under multiplying and bracketing with letters.  A
    piece is keyed by (md, length) when every generator is homogeneous in
    both, else by md alone, and stops taking candidates once full."""
    grades = [{(tup.mono_md(m), len(m)) for m in g} for g in gens if g]
    lw = int(all(len(gr) == 1 for gr in grades))
    table = count_table(spec, j)
    capacity = table if lw else [[sum(row)] for row in table]
    letters = gh.letters_up_to(spec, j)
    ech, full = {}, set()
    queue = [g for g in gens if g and tup.mono_md(next(iter(g))) <= j]
    for vec in queue:    # grows while it is walked
        m = next(iter(vec))
        M, L = tup.mono_md(m), len(m) * lw
        e = ech.setdefault((M, L), Echelon(spec))
        if (M, L) in full or e.insert(vec) is None:
            continue
        if len(e.rows) == capacity[M][L]:
            full.add((M, L))
        for k, n in letters:
            if M + n + 1 <= j and (M + n + 1, L + lw) not in full:
                queue.append(tup.s_product(spec, {((k, n),): 1}, vec))
            if M + n <= j and (M + n, L) not in full:
                nv = tup.ad_lines(spec, ((k, 1),), n, vec)
                if nv:
                    queue.append(nv)
    dims = [0] * (j + 1)
    for (M, _), e in ech.items():
        dims[M] += len(e.rows)
    return dims


def ideal_dims(spec, gens, j):
    """The ideal's dimension in each md up to j: the ambient count minus
    the standard monomials of the Groebner basis."""
    quotient = gh.saturate(spec, gens, j).standard_counts(j)
    return [a - q for a, q in zip(gh.md_series(spec, j), quotient)]


def check_g0_generates(basis):
    """Each twist component is spanned by brackets of the weight-0
    component against itself; the filtration argument for growth bounds
    leans on this."""
    for a in range(basis.r):
        comp_a = basis.component(a)
        ech = {}
        for x in basis.component(0):
            for y in comp_a:
                vec = dict(basis.bracket(x.elem, y.elem).coeffs)
                while vec:
                    piv = max(vec)
                    row = ech.get(piv)
                    if row is None:
                        p = vec[piv]
                        ech[piv] = {k: div(v, p) for k, v in vec.items()}
                        break
                    c = vec[piv]
                    for k, v in row.items():
                        pbw.add_into(vec, k, -(v * c))
        if len(ech) != len(comp_a):
            return False
    return True


@pytest.mark.parametrize("label, flavor, J", [
    ("A1:r1", "current", 8), ("A1:r1", "poscurrent", 8),
    ("A2:r2", "current", 8), ("A2:r2", "poscurrent", 8),
    ("D4:r3", "current", 4), ("D4:r3", "poscurrent", 8)])
def test_md_counts_match_enumeration(tb_cache, label, flavor, J):
    spec = AlgebraSpec(tb_cache(label), flavor=flavor)
    counts = Counter(tup.mono_md(m) for m in enumerate_monomials(spec, J))
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
    assert sum(ideal_dims(sl2cur, [], 5)) == 0
    assert gh.quotient_dimension_series(sl2cur, [], 4) == [1, 4, 13, 35, 86]


def test_exponent0_generator_fixpoint(sl2cur):
    # at j = 1 the ideal generated by the raising letter already contains
    # the whole degree-0 algebra piece
    g = e_gen(sl2cur, 0)
    assert sum(ideal_dims(sl2cur, [g], 1)[:2]) == 3


def test_quotient_series_is_cumulative_binomials(sl2cur):
    # S / (g t C[t]) = S(g)
    qs = gh.quotient_dimension_series(sl2cur, [e_gen(sl2cur)], 20)
    assert qs == [math.comb(j + 3, 3) for j in range(21)]
    assert qs[-1] == 1771


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
        fast = sum(ideal_dims(sl2cur, gens, j))
        slow = brute_force_ideal_dim(sl2cur, gens, j)
        assert fast == slow, (gens_desc, j, fast, slow)


# the growth inputs of the CLI byte-identity check: (label, flavor,
# generators, md cutoff), the cutoff capped at 8 here
ORACLE_CASES = [
    ("A1:r1", "current", ["1*b3@t^0"], 8),
    ("A1:r1", "current", ["1*b3@t^1"], 8),
    ("A1:r1", "current", ["1*b3@t^2"], 8),
    ("A1:r1", "current", ["1*b3@t^3"], 8),
    ("A1:r1", "current", ["1*b3@t^1*b3@t^1"], 8),
    ("A1:r1", "current", ["1*b3@t^1 + 1*b1@t^0*b1@t^0"], 8),
    ("A1:r1", "current", ["1*b3@t^1 + 1*b1@t^0*b1@t^0 + 2*b2@t^1"], 8),
    ("A1:r1", "current", ["1*b2@t^0*b2@t^0 + 1*b1@t^1"], 8),
    ("A1:r1", "current", ["1"], 8),
    ("A1:r1", "current", ["0"], 8),
    ("A1:r1", "current", ["1*b3@t^2", "1*b1@t^1*b1@t^1"], 7),
    ("A1:r1", "current", [], 6),
    ("A1:r1", "current", ["1*b3@t^1"], 0),
    ("A1:r1", "poscurrent", ["1*b3@t^1"], 8),
    ("A2:r2", "current", ["1*b8@t^1"], 6),
    ("A2:r2", "poscurrent", ["1*b8@t^1"], 6),
    ("D4:r3", "current", ["1*b28@t^2"], 4),
    ("D4:r3", "poscurrent", ["1*b28@t^2"], 5),
]
# ideals whose dims come out wrong if the S-pairs are left out
S_PAIR_CASES = [
    ("A1:r1", "current", ["1*b3@t^0*b3@t^1"], 7),
    ("A1:r1", "current", ["1*b3@t^1*b1@t^0 + 1*b2@t^0*b2@t^1"], 7),
]


@pytest.mark.parametrize("label, flavor, texts, J",
                         ORACLE_CASES + S_PAIR_CASES)
def test_groebner_matches_echelon_oracle(spec_cache, label, flavor, texts, J):
    spec = spec_cache(label, flavor)
    gens = [parse_element(spec, t) for t in texts]
    assert ideal_dims(spec, gens, J) == echelon_saturate(spec, gens, J)


def test_groebner_leads_follow_key_standard(spec_cache):
    # the basis works on letter ranks; its leading monomials must be the
    # key_standard leading monomials of the same polynomials
    for label, text, J in [("A1:r1", "1*b3@t^1*b3@t^1", 8),
                           ("A1:r1", "1*b3@t^1 + 1*b1@t^0*b1@t^0", 6),
                           ("D4:r3", "1*b28@t^2", 4)]:
        spec = spec_cache(label, "current")
        letters = gh.letters_up_to(spec, J)
        gb = gh.saturate(spec, [parse_element(spec, text)], J)
        assert gb.polys
        for lead, poly, _ in gb.polys:
            elem = {tuple(letters[x] for x in m): c for m, c in poly.items()}
            assert pbw.leading(spec, elem)[0] == tuple(letters[x] for x in lead)


def cumulative(coeffs):
    return [sum(coeffs[:j + 1]) for j in range(len(coeffs))]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_etN_quotient_is_truncated_current_algebra(sl2cur, N):
    # the ideal holds g t^N C[t], so the quotient is S(g (x) C[t]/t^N),
    # with Hilbert series prod_{k <= N} (1 - q^k)^(-3)
    J = 14
    want = cumulative(euler_product({k: 3 for k in range(1, N + 1)}, J).coeffs)
    assert gh.quotient_dimension_series(sl2cur, [e_gen(sl2cur, N)], J) == want


def test_negative_cutoff_rejected(sl2cur):
    for call in (lambda: gh.quotient_dimension_series(sl2cur, [], -1),
                 lambda: gh.md_series(sl2cur, -1),
                 lambda: gh.saturate(sl2cur, [e_gen(sl2cur)], -1)):
        with pytest.raises(ValueError, match="md cutoff must be >= 0"):
            call()


@pytest.mark.parametrize("label", ["A1:r1", "A2:r2", "D4:r3"])
def test_key_standard_is_a_monomial_order(spec_cache, label):
    # the Groebner basis needs: a < b implies a*c < b*c
    spec = spec_cache(label, "current")
    letters = gh.letters_up_to(spec, 5)
    rng = random.Random(zlib.crc32(label.encode()))

    def mono():
        return pbw.mono_sorted(
            spec, [rng.choice(letters) for _ in range(rng.randrange(5))])

    def key(m):
        return pbw.key_standard(spec, tuple(map(spec.letter_key, m)))

    checked = 0
    for _ in range(1500):
        a, b, c = mono(), mono(), mono()
        if key(a) == key(b):
            continue
        if key(b) < key(a):
            a, b = b, a
        assert key(pbw.mono_sorted(spec, a + c)) < \
            key(pbw.mono_sorted(spec, b + c)), (a, b, c)
        checked += 1
    assert checked > 1000


def test_md_inhomogeneous_generator_rejected(sl2cur):
    e = sl2cur.basis.theta_plus.index
    with pytest.raises(ValueError, match="md-homogeneous"):
        gh.saturate(sl2cur, [{((e, 1),): 1, ((e, 0),): -1}], 4)


@pytest.mark.parametrize("flavor, gen", [
    ("poscurrent", {((2, 0),): 1}),      # no t^0 letters
    ("current", {((2, -1),): 1}),        # no t^-1 letters
    ("current", {((3, 1),): 1}),         # A1 has basis vectors 0..2
    ("current", {(D,): 1}),              # no degree letter
])
def test_letters_outside_the_flavor_rejected(spec_cache, flavor, gen):
    with pytest.raises(ValueError):
        gh.saturate(spec_cache("A1:r1", flavor), [gen], 4)


def test_twisted_positive_current_runs(tb_cache):
    spec = AlgebraSpec(tb_cache("A2:r2"), flavor="poscurrent")
    b = spec.basis.theta_plus
    g = {((b.index, b.s + (2 if b.s == 0 else 0)),): spec.scalar(1)}
    qs = gh.quotient_dimension_series(spec, [g], 5)
    assert qs[0] == 1 and all(x <= y for x, y in zip(qs, qs[1:]))


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


def test_g0_generates(tb_cache):
    for label in ["A1:r1", "A2:r2", "D4:r3", "E6:r2"]:
        assert check_g0_generates(tb_cache(label))
