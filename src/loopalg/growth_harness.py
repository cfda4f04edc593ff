"""Exact growth data for Poisson ideals of (positive) current algebras.

The filtration weight of a monomial is md = sum over letters of
(t-power + 1).  Bracketing with x*t^n raises md by n, so the span V of
md-homogeneous generators under brackets with letters has finite md
pieces; by the Leibniz rule their Poisson ideal is the plain ideal S*V.
Up to md j: close V under brackets; build a Groebner basis of S*V in the
order of `key_standard` by Buchberger's algorithm, taking S-pairs in md
order, skipping coprime ones and dropping those above md j (exact, since
every element is md-homogeneous); then count the standard monomials by a
depth-first walk that stops a branch at its first divisible monomial.
Only the quotient, which grows polynomially, is enumerated.  Generators
that are not md-homogeneous are rejected.
"""

import math
from collections import Counter
from itertools import accumulate

from . import pbw_monomials as pbw
from .scalars import div


def letters_up_to(spec, j):
    """All letters of the flavor with md <= j, sorted."""
    if j < 0:
        raise ValueError("md cutoff must be >= 0")
    if spec.flavor not in ("current", "poscurrent"):
        raise ValueError("growth data needs a current-algebra flavor")
    low = 1 if spec.flavor == "poscurrent" else 0
    return sorted(((b.index, n) for b in spec.basis.elements
                   for n in range(b.s if b.s >= low else b.s + spec.r,
                                  j, spec.r)), key=spec.letter_key)


def md_series(spec, J):
    """Number of standard monomials of md exactly k, for k = 0..J: the
    coefficients of the product over letters x*t^n of 1/(1 - q^(n+1))."""
    c = [1] + [0] * J
    for _, n in letters_up_to(spec, J):
        for M in range(n + 1, J + 1):
            c[M] += c[M - n - 1]
    return c


def _add_multiple(out, q, poly, c):
    """out += c * q * poly, for a monomial q."""
    for t, v in poly.items():
        pbw.add_into(out, tuple(sorted(q + t)), c * v)


class _Groebner:
    """Monic polynomials (lead, poly, Counter of lead) with distinct leading
    monomials, indexed by the first two letters of the lead; S-pairs of
    md <= j wait in one bucket per md.  A letter is its rank in
    letters_up_to and a monomial a sorted tuple of ranks; within one md,
    key_standard orders monomials by length, then by these tuples."""

    def __init__(self, weight, j):
        self.weight = weight
        self.polys = []
        self.index = {}
        self.last = {}          # largest letter -> longer leads, as counts
        self.pairs = [[] for _ in range(j + 1)]

    def insert(self, p):
        """Reduce p until no leading monomial of the basis divides its own.
        Unless that leaves 0, add it and queue its S-pairs, skipping
        coprime ones; returns whether p was added."""
        while True:
            if not p:
                return False
            lead = max(p, key=lambda mo: (len(mo), mo))
            have = Counter(lead)
            xs = sorted(have)
            keys = [(x,) for x in xs] + [(x, y) for i, x in enumerate(xs)
                                         for y in xs[i + (have[x] < 2):]]
            g = next((g for key in keys for g in self.index.get(key, ())
                      if all(have[y] >= k for y, k in g[2].items())), None)
            if g is None:
                break
            _add_multiple(p, tuple((have - g[2]).elements()), g[1], -p[lead])
        g = (lead, {m: div(v, p[lead]) for m, v in p.items()}, have)
        for h in self.polys:
            if g[2].keys().isdisjoint(h[2]):
                continue
            lcm = g[2] | h[2]
            md = sum(self.weight[x] * k for x, k in lcm.items())
            if md < len(self.pairs):
                self.pairs[md].append((tuple((lcm - g[2]).elements()), g,
                                       tuple((lcm - h[2]).elements()), h))
        self.polys.append(g)
        self.index.setdefault(lead[:2], []).append(g)
        if len(lead) > 1:
            self.last.setdefault(lead[-1], []).append(tuple(have.items()))
        return True

    def standard_counts(self, j):
        """Standard monomials of md 0..j, counted by md: a depth-first walk
        adding letters in rank order, cut at the first divisible monomial."""
        if () in self.index:
            return [0] * (j + 1)
        w, last = self.weight, self.last
        alphabet = [x for x in range(len(w)) if (x,) not in self.index]
        counts = [1] + [0] * j
        have = [0] * len(w)

        def walk(start, md):
            for i in range(start, len(alphabet)):
                x = alphabet[i]
                if md + w[x] > j:
                    break
                have[x] += 1
                if not any(all(have[y] >= k for y, k in lead)
                           for lead in last.get(x, ())):
                    counts[md + w[x]] += 1
                    walk(i, md + w[x])
                have[x] -= 1

        walk(0, 0)
        return counts


def saturate(spec, gens, j):
    """The Groebner basis of the Poisson ideal of the md-homogeneous `gens`
    cut at md j.  An element of V that reduces to 0 lies in the ideal of
    elements whose brackets are taken, so its own brackets lie in the
    ideal as well."""
    letters = letters_up_to(spec, j)
    gens = [spec.encode(g) for g in gens]
    if any(len({pbw.mono_md(spec, m) for m in g}) > 1 for g in gens):
        raise ValueError("growth needs md-homogeneous ideal generators")
    rank = {spec.letter_key(L): i for i, L in enumerate(letters)}
    gb = _Groebner([n + 1 for _, n in letters], j)
    closure = [[] for _ in range(j + 1)]
    for g in gens:
        M = pbw.mono_md(spec, next(iter(g))) if g else j + 1
        if M <= j:
            closure[M].append(g)
    for M in range(j + 1):
        for qa, g, qb, h in gb.pairs[M]:
            p = {}
            _add_multiple(p, qa, g[1], 1)
            _add_multiple(p, qb, h[1], -1)
            gb.insert(p)
        for vec in closure[M]:    # grows while it is walked
            if not gb.insert({tuple(map(rank.__getitem__, m)): c
                              for m, c in vec.items()}):
                continue
            for k, n in letters:
                nv = pbw.ad_lines(spec, ((k, 1),), n, vec) if M + n <= j else 0
                if nv:
                    closure[M + n].append(nv)
    return gb


def quotient_dimension_series(spec, gens, J):
    """dim F_j / (I cut at F_j) for j = 0..J, in one saturation run: by
    Macaulay's theorem S/I and S/LT(I) have the same Hilbert function, so
    the quotient's md pieces are counted by the standard monomials."""
    return list(accumulate(saturate(spec, gens, J).standard_counts(J)))


def ambient_dimension_series(spec, J):
    return list(accumulate(md_series(spec, J)))


# ------------------------------------------------------------- counting

def count_normal_words(dim_g, m, n, j):
    """Upper bound for the number of normal words at filtration stage j
    produced by a reduction engine with window length m and t-power
    threshold n: a binomial count for the bounded-t-power prefix times a
    polynomial count for the short tail."""
    c = (j * dim_g) ** (m - 1) if j > 0 else 1
    return math.comb(dim_g * n + j, j) * c

