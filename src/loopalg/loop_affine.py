"""Letters of the (twisted) loop and affine algebras.

A letter is a pair (k, n): basis vector number k of the equivariant basis
at t-power n, where n must be congruent to the sigma-weight of the vector
mod r.  The degree letter is the special tuple D.  Letter brackets carry
the central cocycle when the flavor asks for it, with the central element
specialized to the level.

A letter's code, its letter_key, is one int: with B basis vectors, (k, n)
is 2nB + k and D is -B.  The products of both algebras, the monomial
orders, the reduction engine and growth work on codes.
"""

from .errors import InvariantError
from .scalars import div, rational
from .twisted_grading import TwistedBasis

D = ("d",)

FLAVORS = ("loop", "current", "poscurrent", "affine", "derived")


class AlgebraSpec:
    """A twisted basis plus a choice of letter alphabet and bracket flavor."""

    def __init__(self, basis, flavor="loop", level=0):
        if isinstance(basis, str):
            basis = TwistedBasis.from_label(basis)
        if flavor not in FLAVORS:
            raise ValueError("unknown flavor %r" % flavor)
        self.basis = basis
        self.flavor = flavor
        self.r = basis.r
        self.level = rational(level)
        self.B = len(basis.elements)

    @property
    def allow_d(self):
        return self.flavor == "affine"

    @property
    def has_cocycle(self):
        return self.flavor in ("affine", "derived")

    def scalar(self, x):
        """A rational number as a coefficient: an int when integral,
        else a Fraction."""
        return rational(x)

    def letter(self, k, n):
        if not 0 <= k < self.B:
            raise ValueError("basis index %d out of range 0..%d"
                             % (k, self.B - 1))
        b = self.basis.elements[k]
        if n % self.r != b.s:
            raise ValueError("t-power %d not congruent to weight %d mod %d"
                             % (n, b.s, self.r))
        if self.flavor == "current" and n < 0:
            raise ValueError("current-algebra letters need t-power >= 0")
        if self.flavor == "poscurrent" and n < 1:
            raise ValueError("positive-current letters need t-power >= 1")
        return (k, n)

    def letter_ok(self, L):
        if L == D:
            return self.allow_d
        try:
            return self.letter(*L) == L
        except ValueError:
            return False

    def letter_key(self, L):
        """The letter's code: one int, t-power first, with the degree letter
        between t^-1 and t^0."""
        return -self.B if L == D else 2 * L[1] * self.B + L[0]

    def letter_of(self, c):
        """The letter whose code is c."""
        n, k = divmod(c + self.B, 2 * self.B)
        return D if c == -self.B else (k - self.B, n)

    def encode(self, elem):
        """An element on (k, n) letters as the same element on codes; a
        letter outside the flavor raises ValueError."""
        table = {L: self.letter_key(L) for L in set().union(*elem)}
        for L in table:
            if not self.letter_ok(L):
                raise ValueError("%r is not a letter of the %s flavor"
                                 % (L, self.flavor))
        return {tuple(map(table.__getitem__, m)): c for m, c in elem.items()}

    def decode(self, elem):
        """The inverse of encode."""
        table = {x: self.letter_of(x) for x in set().union(*elem)}
        return {tuple(map(table.__getitem__, m)): c for m, c in elem.items()}

    def format_letter(self, L):
        if L == D:
            return "d"
        return "b%d@t^%d" % (L[0] + 1, L[1])


def code_bracket(spec, x, y):
    """[x, y] of two letter codes: a list of (code, coefficient) and the
    central constant, the cocycle at the spec's level."""
    B, B2 = spec.B, 2 * spec.B
    if x == -B or y == -B:      # [d, z] = n z for z at t^n; d is at t^0
        z = y if x == -B else x
        n = (z + B) // B2
        return ([(z, n if x == -B else -n)] if n else ()), 0
    n1, k1 = divmod(x, B2)
    n2, k2 = divmod(y, B2)
    base = B2 * (n1 + n2)
    terms = [(base + k, c) for k, c in spec.basis.line_bracket(k1, k2)]
    if spec.has_cocycle and n1 + n2 == 0:
        return terms, spec.basis.line_killing(k1, k2) * spec.level * n1
    return terms, 0


def letter_bracket(spec, L1, L2, grmd=False):
    """[L1, L2] as a dict mapping length <= 1 monomials to scalars.

    With grmd=True the bracket of the md-associated-graded structure is
    used instead: no cocycle, and letters of opposite t-power sign
    commute."""
    if grmd and D not in (L1, L2) and L1[1] * L2[1] < 0:
        return {}
    terms, const = code_bracket(spec, spec.letter_key(L1), spec.letter_key(L2))
    out = {(spec.letter_of(z),): c for z, c in terms}
    if const and not grmd:
        out[()] = const
    return out


def subalgebra_sl2hat(spec, i):
    """The affine sl2 through Chevalley pair number i of the twisted affine
    algebra: generators, their sl2 data, and the scalar multiplying the
    canonical central element.

    i = 0 is the extending node (lowest-weight line at t^1); i >= 1 walks
    the sigma-orbits of simple roots in rep order."""
    basis = spec.basis
    r = basis.r
    # negative simple generators of the fixed subalgebra: the 0-component
    # root vectors built from orbits of simple roots
    simple_orbits = []
    for b in basis.elements:
        if b.kind == "root" and b.s == 0 and b.positive:
            if all(basis.rs.height(root) == 1 for root in b.orbit):
                simple_orbits.append(b)
    simple_orbits.sort(key=lambda b: min(basis.rs.index_of[root] for root in b.orbit))
    lowering = []
    for b in basis.elements:
        if b.kind == "root" and b.s == 0 and not b.positive:
            if all(basis.rs.height(root) == -1 for root in b.orbit):
                lowering.append(b)

    if i >= 1:
        if i > len(simple_orbits):
            raise ValueError("index %d out of range" % i)
        e = simple_orbits[i - 1]
        negs = {tuple(-x for x in root) for root in e.orbit}
        (f,) = [b for b in lowering if set(b.orbit) == negs]
        k = 0
    elif i == 0:
        s0 = 1 % r
        cands = [b for b in basis.component(s0) if b.kind == "root"]
        lows = [b for b in cands
                if all(basis.bracket(fj.elem, b.elem).is_zero() for fj in lowering)]
        if len(lows) != 1:
            raise InvariantError("lowest-weight line is not unique")
        e = lows[0]
        f = None
        for b in basis.component((-1) % r):
            if b.kind != "root":
                continue
            h = basis.bracket(e.elem, b.elem)
            if h.is_zero() or any(not basis.rs.is_cartan(kk) for kk in h.coeffs):
                continue
            c = basis.bracket(h, e.elem).proportional_to(e.elem)
            if c:
                f = b
                break
        if f is None:
            raise InvariantError("no opposite line for the extending node")
        k = 1
    else:
        raise ValueError("index must be >= 0")

    kappa = basis.killing(e.elem, f.elem)
    # align the scaling of the opposite line so that the pairing equals
    # (orbit size) * (pairing of one underlying Chevalley pair)
    rep = min(e.orbit)
    k0 = basis.rs.killing(basis.rs.index_of[rep],
                          basis.rs.index_of[tuple(-x for x in rep)])
    expected = len(e.orbit) * k0
    f_scale = div(expected, kappa)
    f_elem = f.elem.scale(f_scale)
    h = basis.bracket(e.elem, f_elem)
    return {
        "e": e, "f": f, "f_scale": f_scale, "f_elem": f_elem,
        "h": h, "k": k,
        "kappa": expected,
        "orbit_size": len(e.orbit),
        "chevalley_kappa": k0,
        # ratio against the untwisted sl2 normalization kappa(e,f) = 4
        "central_scale": div(expected, 4),
    }


def verify_sl2hat(spec, data, span=2):
    """Check the bracket closure of the three t-power families of an
    affine sl2 subalgebra over a window of exponents.  Returns a list of
    (description, ok) pairs."""
    basis = spec.basis
    r, k = basis.r, data["k"]
    e, f, h = data["e"], data["f"], data["h"]
    hdec = basis.decompose(h, 0)
    results = []
    for n in range(-span, span + 1):
        for m in range(-span, span + 1):
            le = (e.index, k + r * n)
            lf = (f.index, -k + r * m)
            got = {mo: c * data["f_scale"]
                   for mo, c in letter_bracket(spec, le, lf).items()}
            want = {}
            for bv, c in hdec:
                if c:
                    want[((bv.index, r * (n + m)),)] = c
            if spec.has_cocycle and n + m == 0:
                c0 = data["kappa"] * spec.level * (k + r * n)
                if c0:
                    want[()] = c0
            results.append(("[e t^%d, f t^%d]" % (k + r * n, -k + r * m),
                            got == want))
            # h-family on e and f stays inside the families
            for bv, c in hdec:
                lh = (bv.index, r * n)
                ge = letter_bracket(spec, lh, le)
                ok_e = all(len(mo) == 1 and mo[0][0] == e.index for mo in ge)
                gf = letter_bracket(spec, lh, lf)
                ok_f = all(len(mo) == 1 and mo[0][0] == f.index for mo in gf)
                results.append(("[h t^%d, ...]" % (r * n), ok_e and ok_f))
    return results
