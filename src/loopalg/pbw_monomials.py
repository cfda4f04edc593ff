"""Standard monomials, straightening, and the two monomial orders.

Elements are dicts mapping monomials (sorted tuples of letters) to scalars,
in the symmetric and the enveloping algebra alike.  Straightening, products,
parsing, formatting and leading take (k, n) letters; ad_lines, the sizes,
the orders and leading_code take letter codes (see loop_affine).
"""

from bisect import bisect

from .loop_affine import letter_bracket
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


# ------------------------------------------------------------------- sizes

def mono_deg(spec, m):
    """Total t-power of a monomial on codes; D counts 0."""
    return sum((x + spec.B) // (2 * spec.B) for x in m)


def mono_md(spec, m):
    """Sum over letters of |t-power| + 1, on codes; D counts 1."""
    return sum(abs((x + spec.B) // (2 * spec.B)) + 1 for x in m)


def key_standard(spec, m):
    """Key for the order <: length, degree, then letters left to right."""
    return (len(m), mono_deg(spec, m), m)


def key_reverse(spec, m):
    """Key for the order used while reducing: length, degree, then letters
    right to left."""
    return (len(m), mono_deg(spec, m), m[::-1])


def leading(spec, elem, reverse=False):
    """(monomial, coefficient) of an element on (k, n) letters, maximal
    under < (or under the right-to-left order when reverse is set)."""
    m, c = leading_code(spec, spec.encode(elem), reverse)
    return tuple(map(spec.letter_of, m)), c


def leading_code(spec, elem, reverse=False):
    """leading for an element on codes."""
    if not elem:
        raise ValueError("the zero element has no leading term")
    B, B2 = spec.B, 2 * spec.B
    best = top = None
    for m in elem:      # the keys above, inlined: no call per monomial
        deg = 0
        for x in m:
            deg += (x + B) // B2
        key = (len(m), deg, m[::-1] if reverse else m)
        if top is None or key > top:
            best, top = m, key
    return best, elem[best]


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


def ad_lines(spec, lines, e, elem):
    """Poisson bracket of sum(c_k * b_k t^e) against elem, on codes; the
    workhorse of the reduction engine, for a single-t-power acting element.

    The acting lines are aggregated once per target basis index so the
    inner loop touches each output term exactly once."""
    basis = spec.basis
    line_bracket = basis.line_bracket
    coc = spec.has_cocycle
    B, B2 = spec.B, 2 * spec.B
    shift = B2 * e
    comb = {}

    def images(k0):
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

    # [D, x t^e] = -e x t^e, with no constant term
    d_terms = [(k, -e * ck) for k, ck in lines if e], None
    out = {}
    get = out.get
    for mono, c0 in elem.items():
        for i, x in enumerate(mono):
            rest = mono[:i] + mono[i + 1:]
            k0 = (x + B) % B2 - B       # -B for D
            base = x - k0 + shift       # the code of (0, n + e)
            terms, const = (d_terms if x == -B
                            else comb.get(k0) or images(k0))
            for k2, c in terms:
                L2 = base + k2
                j = bisect(rest, L2)
                m2 = rest[:j] + (L2,) + rest[j:]
                v = get(m2)     # add_into, inlined for the hottest loop
                v = c0 * c if v is None else v + c0 * c
                if v:
                    out[m2] = v
                else:
                    out.pop(m2, None)
            if const is not None and base == 0:
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
    for m in sorted(elem, key=lambda mo: key_standard(
            spec, tuple(map(spec.letter_key, mo))), reverse=True):
        term = [format_scalar(elem[m])] + [spec.format_letter(L) for L in m]
        bits.append("*".join(term))
    return " + ".join(bits)
