from fractions import Fraction

import pytest

from loopalg.scalars import Omega, div, eta, format_scalar, parse_scalar


def test_rational_arithmetic():
    a = Fraction(1, 2)
    b = Fraction(1, 3)
    assert str(a + b) == "5/6"
    assert str(a * b) == "1/6"
    assert str(a - b) == "1/6"
    assert not div(a, a) - 1


def test_eta_r2_is_minus_one():
    e = eta(2)
    assert e == -1
    assert (e * e) == 1


def test_eta_r3_cube_is_one():
    w = eta(3)
    assert type(w) is Omega
    assert (w * w * w) == 1
    # minimal polynomial: w^2 + w + 1 = 0
    assert not (w * w + w + 1)


def test_eta_pow_cycles():
    assert eta(3, 0) == 1
    assert eta(3, 3) == 1
    assert eta(3, 4) == eta(3, 1)
    assert eta(3, -1) == eta(3, 2)


def test_inverse_in_cyclotomic_field():
    w = eta(3)
    x = 2 + w * 3
    assert (x * div(1, x)) == 1
    with pytest.raises(ZeroDivisionError):
        div(1, 0)
    with pytest.raises(ZeroDivisionError):
        div(w, 0)


def test_division():
    w = eta(3)
    x = 1 + w
    y = 5 - w
    assert (div(x, y) * y) == x
    assert div(6, 3) == 2 and type(div(6, 3)) is int
    assert div(3, 6) == Fraction(1, 2)


@pytest.mark.parametrize("text,r", [
    ("1/2", 1), ("-3", 1), ("0", 1),
    ("1/2+2w", 3), ("1-1w", 3), ("-2/3+1/5w", 3),
])
def test_parse_format_roundtrip(text, r):
    s = parse_scalar(text, r)
    assert parse_scalar(format_scalar(s), r) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("spam", 3)
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("1+1w", 1)
    for text in ("1e9999999", "1.5"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_mixed_int_arithmetic():
    w = eta(3)
    assert w * 2 == Omega(0, 2)
    assert 2 * w == Omega(0, 2)
    assert w + 1 == Omega(1, 1)
    assert 1 - w == Omega(1, -1)
    assert Fraction(1, 2) * w == Omega(0, Fraction(1, 2))
    # a zero w-part gives a plain rational back
    assert type(w - w) is int and type((1 + w) * (1 + eta(3, 2))) is int


def _exact(c):
    assert type(c) in (int, Fraction, Omega), repr(c)
    if type(c) is Omega:
        assert c.b != 0, repr(c)
        assert type(c.a) in (int, Fraction) and type(c.b) in (int, Fraction)


@pytest.mark.parametrize("label", ["A1:r1", "A2:r2", "D4:r3"])
def test_coefficients_stay_exact(label, tb_cache):
    tb = tb_cache(label)
    for b in tb.elements:
        for c in b.elem.coeffs.values():
            _exact(c)
        for c in b.weight:
            _exact(c)
    n = len(tb.elements)
    for k1 in range(n):
        for k2 in range(n):
            for _, c in tb.line_bracket(k1, k2):
                _exact(c)
            _exact(tb.line_killing(k1, k2))


def test_growth_coefficients_stay_exact(spec_cache):
    from loopalg import growth_harness as gh
    from loopalg.cli import parse_element
    for label, text, J, kind in [
            ("A1:r1", "2*b3@t^1 + 3*b1@t^0*b1@t^0", 5, Fraction),
            ("D4:r3", "1*b28@t^2*b28@t^2", 6, Omega)]:
        spec = spec_cache(label, "current")
        gen = parse_element(spec, text)
        # the Groebner basis divides by leading coefficients; the
        # coefficients of V flow into it
        gb = gh.saturate(spec, [gen], J)
        coeffs = [c for _, poly, _ in gb.polys for c in poly.values()]
        assert any(type(c) is kind for c in coeffs)
        for c in coeffs:
            _exact(c)
