"""Standard monomials, the two monomial orders, and products.

Elements are dicts mapping monomials (sorted tuples of letters) to scalars,
in the symmetric and the enveloping algebra alike.  ad_lines, u_ad_lines,
the sizes, the orders and leading_code take letter codes (see loop_affine).
straighten, u_product, u_commutator, poisson, leading and format_element
take (k, n) letters; the enveloping-algebra ones encode at the edge.
"""

from bisect import bisect

from .loop_affine import code_bracket, letter_bracket
from .scalars import format_scalar


# ----------------------------------------------------------------- elements

def add_into(acc, mono, c):
    v = acc.get(mono)
    v = c if v is None else v + c
    if v:
        acc[mono] = v
    else:
        acc.pop(mono, None)


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


# ----------------------------------------------------------- Poisson side

def _images(spec, lines, e, k0, comb):
    """[sum(c_k * b_k t^e), b_k0 t^n] as (terms, const), stored in comb
    under k0: terms are (basis index, coefficient) at t^(n + e), and const
    is the cocycle constant when n = -e, or None."""
    basis = spec.basis
    coc = spec.has_cocycle
    acc = {}
    const = None
    for k, ck in lines:
        for k2, c2 in basis.line_bracket(k, k0):
            prev = acc.get(k2)
            c = ck * c2
            acc[k2] = c if prev is None else prev + c
        if coc:
            kap = basis.line_killing(k, k0)
            if kap:
                c = ck * kap * spec.level * e
                const = c if const is None else const + c
    got = comb[k0] = ([(k2, c) for k2, c in acc.items() if c], const or None)
    return got


def ad_lines(spec, lines, e, elem):
    """Poisson bracket of sum(c_k * b_k t^e) against elem, on codes; the
    workhorse of the reduction engine, for a single-t-power acting element.

    The acting lines are aggregated once per target basis index so the
    inner loop touches each output term exactly once."""
    B, B2 = spec.B, 2 * spec.B
    shift = B2 * e
    # [D, x t^e] = -e x t^e, with no constant term
    comb = {-B: ([(k, -e * ck) for k, ck in lines if e], None)}
    out = {}
    get = out.get
    for mono, c0 in elem.items():
        for i, x in enumerate(mono):
            rest = mono[:i] + mono[i + 1:]
            k0 = (x + B) % B2 - B       # -B for D
            base = x - k0 + shift       # the code of (0, n + e)
            terms, const = comb.get(k0) or _images(spec, lines, e, k0, comb)
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


# ------------------------------------------------------ enveloping side

def _left_mul(spec, p, m, c, acc):
    """Add c * p * m to acc and return acc, for a word p and a standard
    monomial m, on codes.  The letters of p go onto m from the right, and
    a letter x > m[0] passes it: x m = m[0] (x m[1:]) + [x, m[0]] m[1:]."""
    if len(p) > 1:
        for t, v in _left_mul(spec, p[-1:], m, c, {}).items():
            _left_mul(spec, p[:-1], t, v, acc)
    elif not p or not m or p[0] <= m[0]:
        add_into(acc, p + m, c)
    else:
        x, y, rest = p[0], m[0], m[1:]
        for t, v in _left_mul(spec, p, rest, c, {}).items():
            _left_mul(spec, (y,), t, v, acc)
        terms, const = code_bracket(spec, x, y)
        for z, cz in terms:
            _left_mul(spec, (z,), rest, c * cz, acc)
        if const:
            add_into(acc, rest, c * const)
    return acc


def u_product(spec, a, b):
    """a * b in the enveloping algebra; a's monomials may be any words."""
    b, out = spec.encode(b), {}
    for m, c in spec.encode(a).items():
        for t, v in b.items():
            _left_mul(spec, m, t, c * v, out)
    return spec.decode(out)


def straighten(spec, word, coeff=1):
    """A word of letters, times coeff, as standard monomials of U."""
    return u_product(spec, {tuple(word): coeff}, {(): 1})


def u_ad_lines(spec, lines, e, elem):
    """ad_lines in the enveloping algebra, by the derivation rule
    [x, m] = sum_i m[:i] [x, m_i] m[i+1:]."""
    B, B2 = spec.B, 2 * spec.B
    shift = B2 * e
    comb = {-B: ([(k, -e * ck) for k, ck in lines if e], None)}
    out = {}
    for mono, c0 in elem.items():
        for i, x in enumerate(mono):
            k0 = (x + B) % B2 - B       # -B for D
            base = x - k0 + shift       # the code of (0, n + e)
            terms, const = comb.get(k0) or _images(spec, lines, e, k0, comb)
            head, tail = mono[:i], mono[i + 1:]
            part = {tail: c0 * const} if const and base == 0 else {}
            for k2, c in terms:
                _left_mul(spec, (base + k2,), tail, c0 * c, part)
            for t, v in part.items():   # head goes in front of each term
                if head and t and head[-1] > t[0]:      # not standard
                    _left_mul(spec, head, t, v, out)
                else:
                    add_into(out, head + t, v)
    return out


def u_commutator(spec, a, b):
    """[a, b] in the enveloping algebra, for a a combination of letters;
    any other a raises ValueError."""
    b, out = spec.encode(b), {}
    for (x,), c in spec.encode(a).items():     # ValueError unless (x,)
        if x == -spec.B:        # [d, m] = deg(m) m
            part = {m: c * v * mono_deg(spec, m) for m, v in b.items()}
        else:
            n, k = divmod(x, 2 * spec.B)
            part = u_ad_lines(spec, [(k, c)], n, b)
        for m, v in part.items():
            add_into(out, m, v)
    return spec.decode(out)


def format_element(spec, elem):
    if not elem:
        return "0"
    bits = []
    for m in sorted(elem, key=lambda mo: key_standard(
            spec, tuple(map(spec.letter_key, mo))), reverse=True):
        term = [format_scalar(elem[m])] + [spec.format_letter(L) for L in m]
        bits.append("*".join(term))
    return " + ".join(bits)
