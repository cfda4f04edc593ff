"""Letter order, monomial sizes, orders and ad_lines on (k, n) letters.

The library's Poisson side works on one-integer letter codes.  These are
the same functions written directly on (k, n) letters, with the letter
order as a tuple key, kept as oracles for the coded versions.
"""

from loopalg.loop_affine import D
from loopalg.pbw_monomials import add_into


def letter_key(L):
    """t-power first, the degree letter between t^-1 and t^0."""
    return (-1, 0) if L == D else (2 * L[1], L[0])


def is_standard(word):
    keys = [letter_key(L) for L in word]
    return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


def mono_deg(m):
    return sum(L[1] for L in m if L != D)


def mono_md(m):
    return sum(1 if L == D else abs(L[1]) + 1 for L in m)


def key_standard(spec, m):
    return (len(m), mono_deg(m), tuple(letter_key(L) for L in m))


def key_reverse(spec, m):
    return (len(m), mono_deg(m), tuple(letter_key(L) for L in reversed(m)))


def leading(spec, elem, reverse=False):
    keyf = key_reverse if reverse else key_standard
    m = max(elem, key=lambda mo: keyf(spec, mo))
    return m, elem[m]


def _insert(mono, L):
    key = letter_key(L)
    for i, x in enumerate(mono):
        if letter_key(x) > key:
            return mono[:i] + (L,) + mono[i:]
    return mono + (L,)


def ad_lines(spec, lines, e, elem):
    """Poisson bracket of sum(c_k * b_k t^e) against elem, letter by
    letter."""
    basis = spec.basis
    out = {}
    for mono, c0 in elem.items():
        for i, L in enumerate(mono):
            rest = mono[:i] + mono[i + 1:]
            for k, ck in lines:
                if L == D:
                    if e:
                        add_into(out, _insert(rest, (k, e)),
                                 c0 * ck * (-e))
                    continue
                for k2, c2 in basis.line_bracket(k, L[0]):
                    add_into(out, _insert(rest, (k2, L[1] + e)),
                             c0 * ck * c2)
                if spec.has_cocycle and L[1] + e == 0:
                    kap = basis.line_killing(k, L[0])
                    if kap:
                        add_into(out, rest, c0 * ck * kap * spec.level * e)
    return out
