import random
import zlib

import pytest

from loopalg import pbw_monomials as pbw
from loopalg.loop_affine import (D, AlgebraSpec, letter_bracket,
                                 subalgebra_sl2hat, verify_sl2hat)

import tuple_oracles as tup


def test_letter_validation(spec_cache):
    spec = spec_cache("D4:r3")
    b = next(x for x in spec.basis.elements if x.s == 1)
    assert spec.letter(b.index, 1) == (b.index, 1)
    assert spec.letter(b.index, -2) == (b.index, -2)
    with pytest.raises(ValueError):
        spec.letter(b.index, 0)  # wrong congruence class


def test_flavor_exponent_restrictions(tb_cache):
    cur = AlgebraSpec(tb_cache("A1:r1"), flavor="current")
    pos = AlgebraSpec(tb_cache("A1:r1"), flavor="poscurrent")
    assert cur.letter_ok((0, 0)) and not cur.letter_ok((0, -1))
    assert pos.letter_ok((0, 1)) and not pos.letter_ok((0, 0))
    with pytest.raises(ValueError):
        pos.letter(0, 0)


def test_degree_letter_only_in_affine(tb_cache):
    aff = AlgebraSpec(tb_cache("A1:r1"), flavor="affine")
    der = AlgebraSpec(tb_cache("A1:r1"), flavor="derived")
    assert aff.letter_ok(D)
    assert not der.letter_ok(D)


def test_letter_key_places_degree_letter_between_exponents(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine")
    assert spec.letter_key((0, -1)) < spec.letter_key(D) \
        < spec.letter_key((0, 0))


@pytest.mark.parametrize("label", ["A1:r1", "A2:r2", "D4:r3"])
def test_letter_codes_roundtrip_and_keep_the_order(tb_cache, label):
    spec = AlgebraSpec(tb_cache(label), flavor="affine")
    rng = random.Random(zlib.crc32(label.encode()))

    def letter():
        if rng.random() < 0.15:
            return D
        b = rng.choice(spec.basis.elements)
        n = rng.randrange(-7, 8)
        return (b.index, n - (n - b.s) % spec.r)

    for _ in range(2000):
        a, b = letter(), letter()
        assert spec.letter_of(spec.letter_key(a)) == a
        assert (spec.letter_key(a) < spec.letter_key(b)) == \
            (tup.letter_key(a) < tup.letter_key(b))
        m = tuple(sorted((a, b, letter()), key=tup.letter_key))
        codes = tuple(map(spec.letter_key, m))
        assert codes == tuple(sorted(codes))
        assert pbw.mono_deg(spec, codes) == tup.mono_deg(m)
        assert pbw.mono_md(spec, codes) == tup.mono_md(m)
        assert spec.decode(spec.encode({m: 1})) == {m: 1}


def test_letter_bracket_matches_basis_bracket(spec_cache):
    spec = spec_cache("A2:r2")
    tb = spec.basis
    for b1 in tb.elements[::2]:
        for b2 in tb.elements[1::3]:
            L1, L2 = (b1.index, b1.s), (b2.index, b2.s)
            got = letter_bracket(spec, L1, L2)
            want = tb.bracket(b1.elem, b2.elem)
            rebuilt = tb.rs.element({})
            for mono, c in got.items():
                ((k, n),) = mono
                assert n == b1.s + b2.s
                rebuilt = rebuilt + tb.elements[k].elem.scale(c)
            assert rebuilt == want


def test_degree_letter_acts_as_t_derivative(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine")
    e = spec.basis.theta_plus.index
    out = letter_bracket(spec, D, (e, 5))
    assert out == {((e, 5),): spec.scalar(5)}
    assert letter_bracket(spec, (e, 5), D) == {((e, 5),): spec.scalar(-5)}
    assert letter_bracket(spec, D, D) == {}


@pytest.mark.parametrize("level,expected", [(0, 0), (1, 4), (2, 8)])
def test_cocycle_value_at_level(tb_cache, level, expected):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=level)
    e = spec.basis.theta_plus.index
    f = spec.basis.theta_minus.index
    out = letter_bracket(spec, (e, 3), (f, -3))
    const = out.get((), spec.scalar(0))
    # kappa(e, f) = 4, paired exponent 3
    assert const == spec.scalar(3 * 4 * level)


def test_cocycle_absent_off_pairing(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    e = spec.basis.theta_plus.index
    f = spec.basis.theta_minus.index
    out = letter_bracket(spec, (e, 3), (f, -2))
    assert () not in out


@pytest.mark.parametrize("label,indices", [
    ("A1:r1", [0, 1]),
    ("D4:r3", [0, 1, 2]),
])
def test_affine_sl2_families_close(tb_cache, label, indices):
    spec = AlgebraSpec(tb_cache(label), flavor="affine", level=1)
    for i in indices:
        data = subalgebra_sl2hat(spec, i)
        assert data["kappa"] != 0
        assert all(ok for _, ok in verify_sl2hat(spec, data))


def test_affine_sl2_kappa_values(tb_cache):
    spec = AlgebraSpec(tb_cache("D4:r3"), flavor="affine", level=1)
    kappas = [subalgebra_sl2hat(spec, i)["kappa"] for i in (0, 1, 2)]
    assert [str(k) for k in kappas] == ["36", "36", "12"]
    spec1 = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    assert str(subalgebra_sl2hat(spec1, 0)["kappa"]) == "4"
    assert str(subalgebra_sl2hat(spec1, 1)["kappa"]) == "4"


def test_affine_sl2_bad_index(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine")
    with pytest.raises(ValueError):
        subalgebra_sl2hat(spec, 5)
