import random
import zlib
from fractions import Fraction

import pytest

from loopalg import pbw_monomials as pbw
from loopalg.loop_affine import D, AlgebraSpec, letter_bracket

import tuple_oracles as tup


def rand_letter(spec, rng, span=3, allow_d=False):
    if allow_d and spec.allow_d and rng.random() < 0.15:
        return D
    while True:
        b = rng.choice(spec.basis.elements)
        n = rng.randrange(-span, span + 1)
        n = n - (n - b.s) % spec.r
        if spec.letter_ok((b.index, n)):
            return (b.index, n)


def rand_word(spec, rng, maxlen=4, **kw):
    return tuple(rand_letter(spec, rng, **kw)
                 for _ in range(rng.randrange(1, maxlen + 1)))


def rand_elem(spec, rng, terms=2, **kw):
    out = {}
    for _ in range(terms):
        pbw.add_into(out, pbw.mono_sorted(spec, rand_word(spec, rng, **kw)),
                     spec.scalar(rng.randrange(1, 5)))
    return out


def test_mono_sorted_and_standard(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine")
    e, h, f = 2, 1, 0
    word = ((e, 3), D, (f, -1), (h, 0))
    m = pbw.mono_sorted(spec, word)
    assert tup.is_standard(m)
    assert m == ((f, -1), D, (h, 0), (e, 3))
    assert len(m) == 4
    codes = tuple(map(spec.letter_key, m))
    assert codes == tuple(sorted(codes))
    assert pbw.mono_deg(spec, codes) == 2
    assert pbw.mono_md(spec, codes) == 2 + 1 + 1 + 4


def test_orders_disagree_where_expected(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"))
    a = tuple(map(spec.letter_key, ((0, -2), (2, 5))))
    b = tuple(map(spec.letter_key, ((0, -1), (2, 4))))
    # same length and degree; standard order compares left-to-right,
    # reverse order right-to-left
    assert pbw.key_standard(spec, a) < pbw.key_standard(spec, b)
    assert pbw.key_reverse(spec, a) > pbw.key_reverse(spec, b)


def test_straighten_golden_affine_sl2(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    e, f = 2, 0
    out = pbw.straighten(spec, ((e, 1), (f, -1)))
    assert pbw.format_element(spec, out) == \
        "1*b1@t^-1*b3@t^1 + 1*b2@t^0 + 4"


@pytest.mark.parametrize("label,flavor,level", [
    ("A1:r1", "affine", 1),
    ("A2:r2", "loop", 0),
    ("D4:r3", "derived", "1/2"),
])
def test_straighten_associativity_random(tb_cache, label, flavor, level):
    from fractions import Fraction
    spec = AlgebraSpec(tb_cache(label), flavor=flavor,
                       level=Fraction(str(level)))
    rng = random.Random(42)
    for _ in range(40):
        u = rand_word(spec, rng, maxlen=2, allow_d=True)
        v = rand_word(spec, rng, maxlen=2, allow_d=True)
        w = rand_word(spec, rng, maxlen=2, allow_d=True)
        a = pbw.u_product(spec, pbw.straighten(spec, u + v),
                          pbw.straighten(spec, w))
        b = pbw.u_product(spec, pbw.straighten(spec, u),
                          pbw.straighten(spec, v + w))
        assert a == b


@pytest.mark.parametrize("label,flavor,level", [
    ("A1:r1", "affine", 1),
    ("A2:r2", "loop", 0),
    ("D4:r3", "derived", "1/2"),
])
def test_straighten_matches_transposition_oracle(tb_cache, label, flavor,
                                                 level):
    """Letter insertion against adjacent transpositions, on random words
    of length 0 to 6 (with d where the flavor has it)."""
    spec = AlgebraSpec(tb_cache(label), flavor=flavor, level=Fraction(level))
    rng = random.Random(zlib.crc32(label.encode()))
    for _ in range(120):
        word = tuple(rand_letter(spec, rng, allow_d=True)
                     for _ in range(rng.randrange(0, 7)))
        c = spec.scalar(rng.randrange(1, 5))
        assert pbw.straighten(spec, word, c) == tup.straighten(spec, word, c)


@pytest.mark.parametrize("label,flavor,level", [
    ("A1:r1", "affine", 1),
    ("A2:r2", "derived", 1),
    ("D4:r3", "derived", "1/2"),
])
def test_u_bracket_is_a_derivation(tb_cache, label, flavor, level):
    """[x, u v] = [x, u] v + u [x, v] for letters x and standard u, v."""
    spec = AlgebraSpec(tb_cache(label), flavor=flavor, level=Fraction(level))
    rng = random.Random(zlib.crc32(label.encode()) + 1)
    for _ in range(30):
        x = {(rand_letter(spec, rng, allow_d=True),): spec.scalar(1)}
        u, v = (rand_elem(spec, rng, maxlen=3, allow_d=True)
                for _ in range(2))
        lhs = pbw.u_commutator(spec, x, pbw.u_product(spec, u, v))
        rhs = tup.elem_add(
            pbw.u_product(spec, pbw.u_commutator(spec, x, u), v),
            pbw.u_product(spec, u, pbw.u_commutator(spec, x, v)))
        assert lhs == rhs


def test_u_commutator_needs_letters_first(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"))
    b = {((0, 1),): spec.scalar(1)}
    for a in ({((0, 1), (2, 0)): 1}, {(): 1}):
        with pytest.raises(ValueError):
            pbw.u_commutator(spec, a, b)


def test_commutator_of_letters_is_letter_bracket(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    rng = random.Random(5)
    for _ in range(60):
        L1 = rand_letter(spec, rng, allow_d=True)
        L2 = rand_letter(spec, rng, allow_d=True)
        got = pbw.u_commutator(spec, {(L1,): spec.scalar(1)},
                               {(L2,): spec.scalar(1)})
        want = letter_bracket(spec, L1, L2)
        assert got == want


def test_poisson_jacobi_and_leibniz(tb_cache):
    spec = AlgebraSpec(tb_cache("A2:r2"), flavor="affine", level=1)
    rng = random.Random(11)
    for grmd in (False, True):
        for _ in range(25):
            x = rand_elem(spec, rng, allow_d=True)
            y = rand_elem(spec, rng, allow_d=True)
            z = rand_elem(spec, rng, allow_d=True)
            jac = tup.elem_add(
                pbw.poisson(spec, x, pbw.poisson(spec, y, z, grmd), grmd),
                tup.elem_add(
                    pbw.poisson(spec, y, pbw.poisson(spec, z, x, grmd), grmd),
                    pbw.poisson(spec, z, pbw.poisson(spec, x, y, grmd),
                                grmd)))
            assert jac == {}
            lhs = pbw.poisson(spec, x, tup.s_product(spec, y, z), grmd)
            rhs = tup.elem_add(
                tup.s_product(spec, pbw.poisson(spec, x, y, grmd), z),
                tup.s_product(spec, y, pbw.poisson(spec, x, z, grmd)))
            assert lhs == rhs


def test_grmd_drops_cocycle_and_mixed_signs(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    e, f = 2, 0
    full = pbw.poisson(spec, {((e, 3),): spec.scalar(1)},
                       {((f, -3),): spec.scalar(1)})
    graded = pbw.poisson(spec, {((e, 3),): spec.scalar(1)},
                         {((f, -3),): spec.scalar(1)}, grmd=True)
    assert () in full
    assert graded == {}


def test_ad_lines_matches_poisson(tb_cache):
    # affine elements carry D letters; affine and derived carry the
    # cocycle at level 1.  The acting element is one or two lines of one
    # sigma-weight at a t-power in -3..3, so that brackets reach t^0.
    for label in ("A1:r1", "A2:r2", "D4:r3"):
        for flavor in ("loop", "affine", "derived"):
            check_ad_lines(AlgebraSpec(tb_cache(label), flavor=flavor,
                                       level=1))


def check_ad_lines(spec):
    rng = random.Random(3)
    tb = spec.basis
    d_hits = cocycle_hits = 0
    for _ in range(60):
        b = rng.choice(tb.elements)
        n = rng.randrange(-3, 4)
        n -= (n - b.s) % spec.r
        other = rng.choice([y for y in tb.elements if y.s == b.s])
        lines = tuple((y.index, spec.scalar(rng.randrange(1, 4)))
                      for y in ([b] if other is b else [b, other]))
        x = rand_elem(spec, rng, terms=3, allow_d=True)
        acting = {((k, n),): c for k, c in lines}
        got = spec.decode(pbw.ad_lines(spec, lines, n, spec.encode(x)))
        assert got == pbw.poisson(spec, acting, x)
        assert got == tup.ad_lines(spec, lines, n, x)
        d_hits += bool(n) and any(D in m for m in x)
        cocycle_hits += any(L != D and L[1] + n == 0
                            and any(tb.line_killing(k, L[0]) for k, _ in lines)
                            for m in x for L in m)
    # both special branches are reached where the flavor has them
    assert d_hits > 5 if spec.flavor == "affine" else d_hits == 0
    assert cocycle_hits >= 3


@pytest.mark.parametrize("label", ["A1:r1", "A2:r2", "D4:r3"])
def test_leading_matches_tuple_keys(tb_cache, label):
    spec = AlgebraSpec(tb_cache(label), flavor="affine")
    rng = random.Random(13)
    for _ in range(200):
        x = rand_elem(spec, rng, terms=rng.randrange(1, 9), allow_d=True)
        if not x:
            continue
        for reverse in (False, True):
            assert pbw.leading(spec, x, reverse) == \
                tup.leading(spec, x, reverse)


def test_leading_and_format_roundtrip_via_cli_parser(tb_cache):
    from loopalg.cli import parse_element
    spec = AlgebraSpec(tb_cache("D4:r3"), flavor="affine", level=1)
    rng = random.Random(9)
    for _ in range(20):
        x = rand_elem(spec, rng, terms=3, allow_d=True)
        text = pbw.format_element(spec, x)
        assert parse_element(spec, text) == x
