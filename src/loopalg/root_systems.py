"""Simply laced root systems with an exact Chevalley basis.

Roots are integer coordinate tuples over the simple roots.  Structure
constants come from a bimultiplicative sign function attached to a fixed
orientation of the Dynkin diagram, so every bracket of basis vectors has
coefficient 0 or +-1 off the Cartan.  The basis is ordered

    g_{-b_l} < ... < g_{-b_1} < h_1 < ... < h_n < g_{b_1} < ... < g_{b_l}

where b_1 < b_2 < ... enumerates the positive roots by height, ties broken
lexicographically on coordinates.
"""

from .scalars import div


def cartan_matrix(family, rank):
    n = rank
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2

    def join(i, j):
        A[i][j] = A[j][i] = -1

    if family == "A":
        for i in range(n - 1):
            join(i, i + 1)
    elif family == "D":
        if n < 3:
            raise ValueError("D needs rank >= 3")
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    elif family == "E":
        if n != 6:
            raise ValueError("only E6 is supported")
        for i in range(4):
            join(i, i + 1)
        join(2, 5)
    else:
        raise ValueError("unknown family %r" % family)
    return A


class RootSystem:
    """Chevalley-basis Lie algebra data for A_n, D_n or E6."""

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        self.A = cartan_matrix(family, rank)
        self.pos_roots = self._positive_roots()
        self.pos_roots.sort(key=lambda b: (sum(b), b))
        self.root_set = set(self.pos_roots) | {self._neg(b) for b in self.pos_roots}
        self.dim = 2 * len(self.pos_roots) + rank
        # C-order: negatives of high roots first, Cartan, then positives
        self.basis_roots = [self._neg(b) for b in reversed(self.pos_roots)]
        self.basis_roots += [None] * rank  # Cartan slots
        self.basis_roots += list(self.pos_roots)
        self.index_of = {}
        for k, b in enumerate(self.basis_roots):
            if b is not None:
                self.index_of[b] = k
        self._bracket_cache = {}
        self._killing = None

    # ---------------------------------------------------------------- roots

    def _neg(self, b):
        return tuple(-x for x in b)

    def _positive_roots(self):
        simple = []
        for i in range(self.rank):
            simple.append(tuple(1 if j == i else 0 for j in range(self.rank)))
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for b in frontier:
                for i, a in enumerate(simple):
                    # in the simply laced case b + a_i is a root iff (b, a_i) = -1
                    if self.form(b, a) == -1:
                        c = tuple(x + y for x, y in zip(b, a))
                        if c not in roots:
                            roots.add(c)
                            nxt.append(c)
            frontier = nxt
        return list(roots)

    def form(self, b, c):
        """Normalized invariant form, (a_i, a_j) = Cartan entry."""
        tot = 0
        for i, x in enumerate(b):
            if x:
                for j, y in enumerate(c):
                    if y:
                        tot += x * y * self.A[i][j]
        return tot

    def height(self, b):
        return sum(b)

    @property
    def highest_root(self):
        return self.pos_roots[-1]

    def cartan_index(self, i):
        """Basis position of h_i (i is 1-based)."""
        return len(self.pos_roots) + (i - 1)

    def is_cartan(self, k):
        return self.basis_roots[k] is None

    # ------------------------------------------------- structure constants

    def eps(self, b, c):
        """Asymmetry sign from the orientation i -> j for i < j."""
        e = 0
        for i in range(self.rank):
            if not b[i]:
                continue
            e += b[i] * c[i]  # diagonal, c(a_i,a_i) = 1
            for j in range(i + 1, self.rank):
                if c[j]:
                    e += b[i] * c[j] * self.A[i][j]
        return -1 if e % 2 else 1

    def basis_bracket(self, p, q):
        """[b_p, b_q] as a list of (index, integer coefficient)."""
        if p > q:
            return [(k, -c) for k, c in self.basis_bracket(q, p)]
        key = (p, q)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        bp, bq = self.basis_roots[p], self.basis_roots[q]
        out = []
        if bp is None and bq is None:
            pass
        elif bp is None or bq is None:
            h = p if bp is None else q
            root_idx = q if bp is None else p
            b = self.basis_roots[root_idx]
            i = h - len(self.pos_roots)
            ai = tuple(1 if j == i else 0 for j in range(self.rank))
            c = self.form(ai, b)
            if c:
                c = c if bp is None else -c
                out = [(root_idx, c)]
        else:
            tot = tuple(x + y for x, y in zip(bp, bq))
            if all(x == 0 for x in tot):
                # [g_b, g_{-b}] = h_b, the coroot written on the h_i
                for i, x in enumerate(bp):
                    if x:
                        out.append((self.cartan_index(i + 1), x))
            elif tot in self.root_set:
                s = self.eps(bp, bq)
                if self.height(bp) < 0:
                    s = -s
                if self.height(bq) < 0:
                    s = -s
                if self.height(tot) < 0:
                    s = -s
                out = [(self.index_of[tot], s)]
        self._bracket_cache[key] = out
        return out

    # ------------------------------------------------------------- elements

    def element(self, items=None):
        return ChevalleyElement(self, dict(items or {}))

    def basis_element(self, k):
        return ChevalleyElement(self, {k: 1})

    def bracket(self, x, y):
        out = {}
        for p, cp in x.coeffs.items():
            for q, cq in y.coeffs.items():
                c = cp * cq
                for k, n in self.basis_bracket(p, q):
                    v = out.get(k)
                    v = c * n if v is None else v + c * n
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return ChevalleyElement(self, out)

    def killing(self, p, q):
        """Killing form on basis vectors, trace of ad b_p ad b_q."""
        if self._killing is None:
            self._killing = {}
        key = (p, q) if p <= q else (q, p)
        hit = self._killing.get(key)
        if hit is not None:
            return hit
        tot = 0
        for k in range(self.dim):
            for m, c in self.basis_bracket(q, k):
                for m2, c2 in self.basis_bracket(p, m):
                    if m2 == k:
                        tot += c * c2
        self._killing[key] = tot
        return tot

    def killing_form(self, x, y):
        tot = 0
        for p, cp in x.coeffs.items():
            for q, cq in y.coeffs.items():
                k = self.killing(p, q)
                if k:
                    tot = tot + cp * cq * k
        return tot

    def label(self, k):
        b = self.basis_roots[k]
        if b is None:
            return "h%d" % (k - len(self.pos_roots) + 1)
        return "g[%s]" % ",".join(str(x) for x in b)


class ChevalleyElement:
    def __init__(self, rs, coeffs):
        self.rs = rs
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            w = v if w is None else w + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return ChevalleyElement(self.rs, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChevalleyElement(self.rs, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        return ChevalleyElement(self.rs, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return self.rs is other.rs and self.coeffs == other.coeffs

    def leading_index(self):
        """Largest C-basis position in the support."""
        return max(self.coeffs)

    def proportional_to(self, other):
        """Return c with self = c * other, or None."""
        if other.is_zero():
            return 0 if self.is_zero() else None
        if set(self.coeffs) != set(other.coeffs):
            return None
        it = iter(other.coeffs)
        k0 = next(it)
        c = div(self.coeffs[k0], other.coeffs[k0])
        for k, v in other.coeffs.items():
            if self.coeffs[k] != v * c:
                return None
        return c

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            bits.append("%s*%s" % (self.coeffs[k], self.rs.label(k)))
        return " + ".join(bits)
