"""Diagram automorphisms and the equivariant basis of the cyclic grading.

A twist is a root system together with a diagram automorphism sigma of
order r.  The algebra splits into eigenspaces g_s (sigma acting by eta^s)
and each eigenspace gets a basis of orbit projections of Chevalley
vectors, ordered by their leading Chevalley term.
"""

from collections import deque

from .errors import InvariantError
from .root_systems import RootSystem
from .scalars import div, eta


def parse_label(label):
    """'D4:r3' -> ('D', 4, 3); plain 'A2' means untwisted."""
    if ":" in label:
        head, tail = label.split(":", 1)
        if not tail.startswith("r"):
            raise ValueError("bad twist label %r" % label)
        r = int(tail[1:])
    else:
        head, r = label, 1
    family = head[:1].upper()
    rank = int(head[1:])
    if family not in ("A", "D", "E"):
        raise ValueError("unsupported family %r (need A, D, or E)" % family)
    if rank < 1:
        raise ValueError("rank must be >= 1, got %d" % rank)
    return family, rank, r


def node_permutation(family, rank, r):
    """The diagram automorphism of order r, as a 0-based node map."""
    ident = list(range(rank))
    if r == 1:
        return ident
    if r == 2:
        if family == "A" and rank >= 2:
            return [rank - 1 - i for i in ident]
        if family == "D":
            p = list(ident)
            p[rank - 2], p[rank - 1] = p[rank - 1], p[rank - 2]
            return p
        if family == "E" and rank == 6:
            return [4, 3, 2, 1, 0, 5]
    if r == 3 and family == "D" and rank == 4:
        # rotate the three outer nodes; the direction is fixed so that the
        # Cartan eigenvectors below come out with ascending eta powers
        return [3, 1, 0, 2]
    raise ValueError("no order-%d diagram automorphism for %s%d" % (r, family, rank))


class BasisVector:
    """One element of the equivariant basis."""

    __slots__ = ("index", "s", "elem", "lt", "kind", "positive", "orbit", "weight")

    def __init__(self, s, elem, lt, kind, positive, orbit):
        self.index = None
        self.s = s
        self.elem = elem
        self.lt = lt
        self.kind = kind          # 'root' or 'cartan'
        self.positive = positive  # None for cartan vectors
        self.orbit = orbit
        self.weight = None

    def __repr__(self):
        return "B[%s|s=%d]" % (repr(self.elem), self.s)


class TwistedBasis:
    def __init__(self, family, rank, r):
        self.family = family
        self.rank = rank
        self.r = r
        self.rs = RootSystem(family, rank)
        self.perm = node_permutation(family, rank, r)
        self._sigma_table = self._build_sigma()
        self.elements = self._build_basis()
        for i, b in enumerate(self.elements):
            b.index = i
        self._attach_weights()
        self._partner_cache = {}
        self._chain_cache = {}
        self._line_bracket_cache = {}
        self._line_killing_cache = {}

    @staticmethod
    def from_label(label):
        return TwistedBasis(*parse_label(label))

    @property
    def label(self):
        return "%s%d:r%d" % (self.family, self.rank, self.r)

    # ------------------------------------------------------- the automorphism

    def _build_sigma(self):
        """index -> (index, +-1): sigma permutes Chevalley lines with signs."""
        rs, perm = self.rs, self.perm
        table = {}
        npos = len(rs.pos_roots)
        for i in range(self.rank):
            table[rs.cartan_index(i + 1)] = (rs.cartan_index(perm[i] + 1), 1)

        def apply_perm(root):
            out = [0] * self.rank
            for i, x in enumerate(root):
                out[perm[i]] = x
            return tuple(out)

        for b in sorted(rs.pos_roots, key=rs.height):
            k = rs.index_of[b]
            kneg = rs.index_of[rs._neg(b)]
            if rs.height(b) == 1:
                table[k] = (rs.index_of[apply_perm(b)], 1)
                table[kneg] = (rs.index_of[rs._neg(apply_perm(b))], 1)
                continue
            # split b = a_i + c and push sigma through the bracket
            for i in range(self.rank):
                if b[i] <= 0:
                    continue
                ai = tuple(1 if j == i else 0 for j in range(self.rank))
                c = tuple(x - y for x, y in zip(b, ai))
                if c in rs.root_set:
                    break
            ki, kc = rs.index_of[ai], rs.index_of[c]
            (n,) = [v for _, v in rs.basis_bracket(ki, kc)]
            img_i, s_i = table[ki]
            img_c, s_c = table[kc]
            (m,) = [v for _, v in rs.basis_bracket(img_i, img_c)]
            table[k] = (rs.index_of[apply_perm(b)], s_i * s_c * m // n)
            # the negative line mirrors via f-vectors
            kin, kcn = rs.index_of[rs._neg(ai)], rs.index_of[rs._neg(c)]
            (nn,) = [v for _, v in rs.basis_bracket(kin, kcn)]
            img_in, s_in = table[kin]
            img_cn, s_cn = table[kcn]
            (mn,) = [v for _, v in rs.basis_bracket(img_in, img_cn)]
            table[kneg] = (rs.index_of[rs._neg(apply_perm(b))], s_in * s_cn * mn // nn)
        return table

    def sigma(self, elem):
        out = {}
        for k, c in elem.coeffs.items():
            k2, s = self._sigma_table[k]
            v = c * s
            if k2 in out:
                v = out[k2] + v
            out[k2] = v
        return self.rs.element(out.items())

    # ---------------------------------------------------------- the basis

    def _project(self, elem, s):
        """Projection of elem onto the eta^s eigenspace of sigma."""
        acc = elem
        cur = elem
        for j in range(1, self.r):
            cur = self.sigma(cur)
            acc = acc + cur.scale(eta(self.r, -s * j))
        return acc

    def _build_basis(self):
        rs = self.rs
        out = []
        # Cartan orbits
        seen = set()
        for i in range(self.rank):
            if i in seen:
                continue
            orbit = [i]
            j = self.perm[i]
            while j != i:
                orbit.append(j)
                j = self.perm[j]
            seen.update(orbit)
            h = rs.basis_element(rs.cartan_index(i + 1))
            for s in range(self.r):
                v = self._project(h, s)
                if v.is_zero():
                    continue
                v = v.scale(div(1, v.coeffs[rs.cartan_index(i + 1)]))
                out.append(BasisVector(s, v, v.leading_index(), "cartan", None,
                                       tuple(orbit)))
        # root orbits
        seen = set()
        for b in rs.basis_roots:
            if b is None or b in seen:
                continue
            orbit = [b]
            img = self._sigma_table[rs.index_of[b]][0]
            while rs.basis_roots[img] != b:
                orbit.append(rs.basis_roots[img])
                img = self._sigma_table[img][0]
            seen.update(orbit)
            x = rs.basis_element(rs.index_of[b])
            for s in range(self.r):
                v = self._project(x, s)
                if v.is_zero():
                    continue
                v = v.scale(div(1, v.coeffs[v.leading_index()]))
                out.append(BasisVector(s, v, v.leading_index(), "root",
                                       rs.height(b) > 0, tuple(orbit)))
        # order each eigenspace by leading Chevalley position
        out.sort(key=lambda bv: (bv.s, bv.lt))
        lts = {}
        for bv in out:
            if (bv.s, bv.lt) in lts:
                raise InvariantError("leading-term clash inside a component")
            lts[(bv.s, bv.lt)] = bv
        if len(out) != rs.dim:
            raise InvariantError("the eigenbasis has %d vectors, not %d"
                                 % (len(out), rs.dim))
        return out

    def _attach_weights(self):
        cartan0 = [b for b in self.elements if b.kind == "cartan" and b.s == 0]
        self.cartan0 = cartan0
        for b in self.elements:
            w = []
            for h in cartan0:
                br = self.rs.bracket(h.elem, b.elem)
                c = 0 if br.is_zero() else br.proportional_to(b.elem)
                if c is None:
                    raise InvariantError("%r is not a weight vector" % b)
                w.append(c)
            b.weight = tuple(w)

    # ------------------------------------------------------------ queries

    def component(self, s):
        return [b for b in self.elements if b.s == s % self.r]

    def root_vectors(self, positive=None):
        out = [b for b in self.elements if b.kind == "root"]
        if positive is None:
            return out
        return [b for b in out if b.positive is positive]

    @property
    def theta_plus(self):
        top = self.rs.dim - 1
        (b,) = [x for x in self.elements if x.lt == top]
        return b

    @property
    def theta_minus(self):
        (b,) = [x for x in self.elements
                if x.kind == "root" and set(x.elem.coeffs) == {0}]
        return b

    @property
    def theta_height(self):
        return self.rs.height(self.rs.highest_root)

    def bracket(self, x, y):
        return self.rs.bracket(x, y)

    def killing(self, x, y):
        return self.rs.killing_form(x, y)

    def line_bracket(self, k1, k2):
        """[b_k1, b_k2] decomposed over the basis, cached."""
        hit = self._line_bracket_cache.get((k1, k2))
        if hit is not None:
            return hit
        b1, b2 = self.elements[k1], self.elements[k2]
        z = self.rs.bracket(b1.elem, b2.elem)
        if z.is_zero():
            out = ()
        else:
            out = tuple((bv.index, c)
                        for bv, c in self.decompose(z, (b1.s + b2.s) % self.r))
        self._line_bracket_cache[(k1, k2)] = out
        return out

    def line_killing(self, k1, k2):
        hit = self._line_killing_cache.get((k1, k2))
        if hit is None:
            hit = self.killing(self.elements[k1].elem, self.elements[k2].elem)
            self._line_killing_cache[(k1, k2)] = hit
        return hit

    def decompose(self, elem, s):
        """Write a sigma-homogeneous element over the basis of component s.

        Works by eliminating leading Chevalley positions, which are unique
        within a component.  Returns a list of (basis vector, scalar)."""
        by_lt = {b.lt: b for b in self.component(s)}
        out = []
        rest = elem
        while not rest.is_zero():
            lt = rest.leading_index()
            b = by_lt.get(lt)
            if b is None:
                raise ValueError("element does not lie in component %d" % s)
            c = div(rest.coeffs[lt], b.elem.coeffs[lt])
            out.append((b, c))
            rest = rest - b.elem.scale(c)
        return out

    def find_multiple(self, elem, s):
        """The basis vector of component s that elem is a multiple of, with
        the factor, or None if elem is not on a single line."""
        if elem.is_zero():
            return None
        lt = elem.leading_index()
        for b in self.component(s):
            if b.lt == lt:
                c = elem.proportional_to(b.elem)
                if c is not None:
                    return b, c
                return None
        return None

    # ------------------------------------------------- sl2 partner structure

    def sl2_partner(self, b):
        """A pair (g', g'') with g' a basis line and [g'', g'] a nonzero
        multiple of b; g'' is weight homogeneous.

        Returns (gprime, gsecond_elem, gsecond_s, coeff)."""
        hit = self._partner_cache.get(b.index)
        if hit is not None:
            return hit
        roots = self.root_vectors()
        if b.kind == "root":
            for p in roots:
                h = self.rs.bracket(b.elem, p.elem)
                if h.is_zero():
                    continue
                if any(not self.rs.is_cartan(k) for k in h.coeffs):
                    continue
                c = self.rs.bracket(h, b.elem).proportional_to(b.elem)
                if c:
                    res = (b, h, (b.s + p.s) % self.r, c)
                    self._partner_cache[b.index] = res
                    return res
        else:
            for gp in roots:
                for gs in roots:
                    br = self.rs.bracket(gs.elem, gp.elem)
                    c = br.proportional_to(b.elem)
                    if c:
                        res = (gp, gs.elem, gs.s, c)
                        self._partner_cache[b.index] = res
                        return res
        raise InvariantError("no sl2 partner found for %r" % b)

    def chain_from_theta(self, target):
        """Root basis vectors c_1..c_p of the opposite sign with

            {c_1, {c_2, ... {c_p, g_(+-theta)} ...}} = nonzero * target

        starting from g_theta for positive targets and g_{-theta} otherwise."""
        hit = self._chain_cache.get(target.index)
        if hit is not None:
            return hit
        start = self.theta_plus if target.positive else self.theta_minus
        acting = self.root_vectors(positive=not target.positive)
        prev = {start.index: None}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if cur.index == target.index:
                chain = []
                k = cur.index
                while prev[k] is not None:
                    via, par = prev[k]
                    chain.append(via)
                    k = par
                self._chain_cache[target.index] = chain
                return chain
            for c in acting:
                w = self.rs.bracket(c.elem, self.elements[cur.index].elem)
                if w.is_zero():
                    continue
                if all(self.rs.is_cartan(k) for k in w.coeffs):
                    continue
                hitb = self.find_multiple(w, (c.s + cur.s) % self.r)
                if hitb is None:
                    continue
                nb, _ = hitb
                if nb.index not in prev:
                    prev[nb.index] = (c, cur.index)
                    queue.append(nb)
        raise InvariantError("no chain from the highest-root line to %r" % target)
