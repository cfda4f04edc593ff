"""Letter order, monomial sizes, orders and ad_lines on (k, n) letters,
and the products of both algebras written the direct way.

The library works on one-integer letter codes.  These are the same
functions written directly on (k, n) letters, with the letter order as a
tuple key, kept as oracles for the coded versions.  The enveloping-algebra
oracles straighten by adjacent transpositions on a stack of whole words
and take commutators as differences of products; they share only the
letter bracket with the library's letter insertion and derivation rule.
s_product, elem_add and elem_neg serve the tests alone.
"""

from loopalg.loop_affine import D, letter_bracket
from loopalg.pbw_monomials import add_into, mono_sorted


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


# ------------------------------------------------------------- products

def elem_add(a, b):
    out = dict(a)
    for m, c in b.items():
        add_into(out, m, c)
    return out


def elem_neg(a):
    return {m: -v for m, v in a.items()}


def s_product(spec, a, b):
    """a * b in the symmetric algebra."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            add_into(out, mono_sorted(spec, m1 + m2), c1 * c2)
    return out


def straighten(spec, word, coeff=1):
    """A word as standard monomials of the enveloping algebra, by adjacent
    transpositions on a stack of whole words."""
    acc = {}
    stack = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        pos = -1
        for i in range(len(w) - 1):
            if letter_key(w[i]) > letter_key(w[i + 1]):
                pos = i
                break
        if pos < 0:
            add_into(acc, w, c)
            continue
        x, y = w[pos], w[pos + 1]
        stack.append((w[:pos] + (y, x) + w[pos + 2:], c))
        for m, bc in letter_bracket(spec, x, y).items():
            stack.append((w[:pos] + m + w[pos + 2:], c * bc))
    return acc


def u_product(spec, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for m, c in straighten(spec, m1 + m2, c1 * c2).items():
                add_into(out, m, c)
    return out


def u_commutator(spec, a, b):
    return elem_add(u_product(spec, a, b), elem_neg(u_product(spec, b, a)))


def lift_to_U(spec_u, H, trace):
    """A trace replayed in the enveloping algebra, one product difference
    per step."""
    x = H
    for _, lines, e in trace.steps:
        x = u_commutator(spec_u, {((k, e),): c for k, c in lines}, x)
    return x
