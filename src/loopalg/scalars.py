"""Coefficients: plain rationals, and one small class for Q(w).

For a twist of order r <= 2 every coefficient is rational: a Python
``int``, or a ``fractions.Fraction`` when it is not integral.  For r = 3
coefficients lie in Q(w), w a primitive third root of unity with
w^2 = -1 - w.  A value with a nonzero w-part is an ``Omega``; an
operation whose result has w-part 0 returns a plain rational instead, so
rationals are never wrapped and arithmetic never needs to know r.

Exact division goes through ``div``, because ``int / int`` is a float.
"""

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(x):
    """x (an int, a Fraction or a rational string) as an int when it is
    integral, else as a Fraction."""
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def div(x, y):
    """Exact x / y; an int when the quotient is integral."""
    if type(x) is Omega or type(y) is Omega:
        return x / y
    return rational(Fraction(x, y))


class Omega:
    """a + b*w with rational a, b and b != 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, o):
        if type(o) is Omega:
            b = self.b + o.b
            return Omega(self.a + o.a, b) if b else self.a + o.a
        if isinstance(o, (int, Fraction)):
            return Omega(self.a + o, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Omega(-self.a, -self.b)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is Omega:
            # (a + bw)(c + dw) with w^2 = -1 - w
            a, b, c, d = self.a, self.b, o.a, o.b
            bd = b * d
            im = a * d + b * c - bd
            return Omega(a * c - bd, im) if im else a * c - bd
        if isinstance(o, (int, Fraction)):
            return Omega(self.a * o, self.b * o) if o else 0
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        # times the conjugate a + b*w^2 = (a - b) - b*w; the norm
        # a^2 - ab + b^2 is a nonzero rational
        a, b = self.a, self.b
        n = a * a - a * b + b * b
        return Omega(div(a - b, n), div(-b, n))

    def __truediv__(self, o):
        if type(o) is Omega:
            return self * o._inverse()
        if isinstance(o, (int, Fraction)):
            return Omega(div(self.a, o), div(self.b, o))
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, (int, Fraction)):
            return self._inverse() * o
        return NotImplemented

    def __bool__(self):
        return True

    def __eq__(self, o):
        return type(o) is Omega and self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return "Omega(%r, %r)" % (self.a, self.b)

    def __str__(self):
        if self.b < 0:
            return "%s-%sw" % (self.a, -self.b)
        return "%s+%sw" % (self.a, self.b)


_ETA_POWERS = {1: (1,), 2: (1, -1), 3: (1, Omega(0, 1), Omega(-1, -1))}


def eta(r, k=1):
    """eta^k, eta the chosen primitive r-th root of unity (r = 1, 2, 3)."""
    return _ETA_POWERS[r][k % r]


def format_scalar(c):
    """A coefficient as written inside an element: `p/q`, or `(a+bw)`
    when a w-part is present."""
    return "(%s)" % c if type(c) is Omega else str(c)


def _parse_rational(text):
    """An optional sign, digits and an optional /digits; nothing else
    reaches Fraction, which would expand an exponent such as 1e9999999
    in full."""
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError("expected p or p/q, got %r" % text)
    return rational(text)


def parse_scalar(text, r=1):
    """Inverse of format_scalar: `p`, `p/q`, or `(a+bw)` with a w-part
    accepted only for r = 3."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    try:
        if "w" not in text:
            return _parse_rational(text)
        if r != 3:
            raise ValueError("w-part only allowed for r = 3: %r" % text)
        if not text.endswith("w"):
            raise ValueError("expected (a+bw), got %r" % text)
        body = text[:-1]
        # split off the rational head from the w coefficient
        for i in range(len(body) - 1, 0, -1):
            if body[i] in "+-" and body[i - 1] not in "+-/":
                head, wc = body[:i], body[i:]
                if wc in ("+", "-"):
                    wc += "1"
                head, wc = _parse_rational(head), _parse_rational(wc)
                return Omega(head, wc) if wc else head
        if body in ("", "+"):
            return Omega(0, 1)
        if body == "-":
            return Omega(0, -1)
        wc = _parse_rational(body)
        return Omega(0, wc) if wc else 0
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text)
