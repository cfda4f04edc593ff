"""Standard monomials, straightening, and the two monomial orders.

Elements are plain dicts mapping monomials (tuples of letters, sorted by
the letter order) to scalars.  The same representation serves the
symmetric algebra and the enveloping algebra; only the product differs.
"""

from .loop_affine import D, letter_bracket
from .scalars import format_scalar


# ----------------------------------------------------------------- elements

def add_into(acc, mono, c):
    v = acc.get(mono)
    v = c if v is None else v + c
    if v:
        acc[mono] = v
    else:
        acc.pop(mono, None)


def elem_add(a, b):
    out = dict(a)
    for m, c in b.items():
        add_into(out, m, c)
    return out


def elem_neg(a):
    return {m: -v for m, v in a.items()}


def mono_sorted(spec, letters):
    return tuple(sorted(letters, key=spec.letter_key))


def is_standard(spec, word):
    keys = [spec.letter_key(L) for L in word]
    return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


# ------------------------------------------------------------------- sizes

def mono_deg(m):
    return sum(L[1] for L in m if L != D)


def mono_md(m):
    return sum(1 if L == D else abs(L[1]) + 1 for L in m)


def key_standard(spec, m):
    """Key for the order <: length, degree, then letters left to right."""
    return (len(m), mono_deg(m), tuple(spec.letter_key(L) for L in m))


def key_reverse(spec, m):
    """Key for the order used while reducing: length, degree, then letters
    right to left."""
    return (len(m), mono_deg(m), tuple(spec.letter_key(L) for L in reversed(m)))


def leading(spec, elem, reverse=False):
    """(monomial, coefficient) maximal under < (or under the right-to-left
    order when reverse is set)."""
    keyf = key_reverse if reverse else key_standard
    m = max(elem, key=lambda mo: keyf(spec, mo))
    return m, elem[m]


# -------------------------------------------------------------- products

def straighten(spec, word, coeff=1):
    """Rewrite an arbitrary word of letters as a combination of standard
    monomials of the enveloping algebra, by adjacent transpositions."""
    acc = {}
    stack = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        pos = -1
        for i in range(len(w) - 1):
            if spec.letter_key(w[i]) > spec.letter_key(w[i + 1]):
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


def s_product(spec, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            add_into(out, mono_sorted(spec, m1 + m2), c1 * c2)
    return out


def _insert(spec, mono, L):
    key = spec.letter_key(L)
    for i, x in enumerate(mono):
        if spec.letter_key(x) > key:
            return mono[:i] + (L,) + mono[i:]
    return mono + (L,)


def ad_lines(spec, lines, e, elem):
    """Poisson bracket of sum(c_k * b_k t^e) against elem; the workhorse of
    the reduction engine, specialised for a single-t-power acting element.

    The acting lines are aggregated once per target basis index so the
    inner loop touches each output term exactly once."""
    basis = spec.basis
    line_bracket = basis.line_bracket
    coc = spec.has_cocycle
    letter_key = spec.letter_key
    comb = {}

    def images(k0):
        got = comb.get(k0)
        if got is None:
            acc = {}
            const = None
            for k, ck in lines:
                for k2, c2 in line_bracket(k, k0):
                    prev = acc.get(k2)
                    c = ck * c2
                    acc[k2] = c if prev is None else prev + c
                if coc:
                    kap = basis.line_killing(k, k0)
                    if kap:
                        c = ck * kap * spec.level * e
                        const = c if const is None else const + c
            got = comb[k0] = ([(k2, c) for k2, c in acc.items() if c],
                              const or None)
        return got

    out = {}
    for mono, c0 in elem.items():
        for i, L in enumerate(mono):
            rest = mono[:i] + mono[i + 1:]
            if L == D:
                if e:
                    for k, ck in lines:
                        add_into(out, _insert(spec, rest, (k, e)),
                                 c0 * ck * (-e))
                continue
            n = L[1] + e
            terms, const = images(L[0])
            for k2, c in terms:
                L2 = (k2, n)
                key = letter_key(L2)
                for jj, x in enumerate(rest):
                    if letter_key(x) > key:
                        m2 = rest[:jj] + (L2,) + rest[jj:]
                        break
                else:
                    m2 = rest + (L2,)
                add_into(out, m2, c0 * c)
            if const is not None and n == 0:
                add_into(out, rest, c0 * const)
    return out


def poisson(spec, a, b, grmd=False):
    """Poisson bracket extended as a biderivation to monomials."""
    out = {}
    for m1, c1 in a.items():
        for i in range(len(m1)):
            rest1 = m1[:i] + m1[i + 1:]
            for m2, c2 in b.items():
                for j in range(len(m2)):
                    br = letter_bracket(spec, m1[i], m2[j], grmd=grmd)
                    if not br:
                        continue
                    rest = rest1 + m2[:j] + m2[j + 1:]
                    c = c1 * c2
                    for mo, bc in br.items():
                        add_into(out, mono_sorted(spec, rest + mo), c * bc)
    return out


def format_element(spec, elem):
    if not elem:
        return "0"
    bits = []
    for m in sorted(elem, key=lambda mo: key_standard(spec, mo), reverse=True):
        term = [format_scalar(elem[m])] + [spec.format_letter(L) for L in m]
        bits.append("*".join(term))
    return " + ".join(bits)
