"""Exact growth data for Poisson ideals of (positive) current algebras.

The filtration weight of a monomial is md = sum over letters of
(|t-power| + 1).  For current-algebra letters both multiply-by-letter and
bracket-with-letter never decrease md (brackets with t-power-0 letters
preserve it), so the intersection of an ideal with a filtration stage can
be computed by saturating under those two operation families below the
md cutoff.  For generators that are homogeneous in (degree, length) the
saturation splits into finite bigraded pieces and stays exact and fast.
"""

import math
from collections import defaultdict

from . import pbw_monomials as pbw
from .errors import InvariantError
from .reduction_engine import ReductionTrace
from .scalars import div


def letters_up_to(spec, j):
    """All letters of the flavor with md <= j, sorted."""
    low = 1 if spec.flavor == "poscurrent" else 0
    out = []
    for b in spec.basis.elements:
        n = b.s if b.s >= low else b.s + spec.r
        if spec.flavor not in ("current", "poscurrent"):
            raise ValueError("growth data needs a current-algebra flavor")
        nn = n
        while nn + 1 <= j:
            out.append((b.index, nn))
            nn += spec.r
    out.sort(key=spec.letter_key)
    return out


def monomials_up_to(spec, j):
    """Every standard monomial of md <= j (including the empty one)."""
    letters = letters_up_to(spec, j)
    mds = [abs(n) + 1 for _, n in letters]
    out = []

    def rec(i, room, acc):
        out.append(tuple(acc))
        for k in range(i, len(letters)):
            if mds[k] <= room:
                acc.append(letters[k])
                rec(k, room - mds[k], acc)
                acc.pop()

    rec(0, j, [])
    return out


def md_series(spec, J):
    """Number of standard monomials of md exactly k, for k = 0..J."""
    counts = [0] * (J + 1)
    for m in monomials_up_to(spec, J):
        counts[pbw.mono_md(m)] += 1
    return counts


def _mono_bigrade(m):
    return (pbw.mono_deg(m), len(m))


def _is_bihomogeneous(gens):
    for g in gens:
        grades = {_mono_bigrade(m) for m in g}
        if len(grades) > 1:
            return False
    return True


class _Echelon:
    """Exact row echelon keyed by leading monomial."""

    def __init__(self, spec):
        self.spec = spec
        self.rows = {}

    def reduce(self, vec):
        """Fully reduce vec; returns (residue, pivot) with pivot None when
        vec is dependent."""
        spec = self.spec
        vec = dict(vec)
        while vec:
            piv = max(vec, key=lambda m: pbw.key_standard(spec, m))
            row = self.rows.get(piv)
            if row is None:
                return vec, piv
            c = vec[piv]
            for m, v in row.items():
                pbw.add_into(vec, m, -(v * c))
        return vec, None

    def insert(self, vec):
        vec, piv = self.reduce(vec)
        if piv is None:
            return None
        p = vec[piv]
        self.rows[piv] = {m: div(v, p) for m, v in vec.items()}
        return piv

    def __len__(self):
        return len(self.rows)


def saturate(spec, gens, j, with_traces=False, letter_order=None):
    """The ideal generated by `gens` under multiply-by-letter and
    bracket-with-letter, cut at md <= j.

    Returns a dict with per-md dimensions, the basis records, and the
    bigraded piece table when the generators are (deg, len) homogeneous.
    letter_order permutes the processing order; the dimensions are
    order-independent."""
    bigraded = _is_bihomogeneous(gens)
    letters = letters_up_to(spec, j)
    if letter_order is not None:
        letters = letter_order(letters)
    records = []
    if bigraded:
        capacity = defaultdict(int)
        for m in monomials_up_to(spec, j):
            capacity[_mono_bigrade(m)] += 1
        ech = defaultdict(lambda: _Echelon(spec))
        full = set()

        def grade_of(vec):
            return _mono_bigrade(next(iter(vec)))

        queue = []
        for gi, g in enumerate(gens):
            if g and pbw.mono_md(max(g, key=pbw.mono_md)) <= j:
                tr = ReductionTrace()
                tr.steps.append(("seed", gi))
                queue.append((g, tr))
        qi = 0
        while qi < len(queue):
            vec, tr = queue[qi]
            qi += 1
            P = grade_of(vec)
            if P in full:
                continue
            e = ech[P]
            piv = e.insert(vec)
            if piv is None:
                continue
            records.append((P, vec, tr))
            if len(e) == capacity[P]:
                full.add(P)
            D, L = P
            md = D + L
            for x in letters:
                w = abs(x[1]) + 1
                if md + w <= j and (D + x[1], L + 1) not in full:
                    nv = pbw.s_product(spec, {(x,): 1}, vec)
                    t2 = ReductionTrace()
                    t2.steps = tr.steps + [("multiply", x)]
                    queue.append((nv, t2))
                if md + w - 1 <= j and (D + x[1], L) not in full:
                    nv = pbw.ad_lines(spec, ((x[0], 1),), x[1], vec)
                    if nv:
                        t2 = ReductionTrace()
                        t2.steps = tr.steps + [("bracket", ((x[0], 1),), x[1])]
                        queue.append((nv, t2))
        dims = [0] * (j + 1)
        for (D, L), e in ech.items():
            dims[D + L] += len(e)
    else:
        # generic fallback: one global echelon, truncating above the cutoff
        e = _Echelon(spec)
        queue = []
        for gi, g in enumerate(gens):
            gt = {m: c for m, c in g.items() if pbw.mono_md(m) <= j}
            if gt:
                tr = ReductionTrace()
                tr.steps.append(("seed", gi))
                queue.append((gt, tr))
        qi = 0
        basis = []
        while qi < len(queue):
            vec, tr = queue[qi]
            qi += 1
            if e.insert(dict(vec)) is None:
                continue
            records.append((None, vec, tr))
            for x in letters:
                nv = pbw.s_product(spec, {(x,): 1}, vec)
                nv = {m: c for m, c in nv.items() if pbw.mono_md(m) <= j}
                if nv:
                    t2 = ReductionTrace()
                    t2.steps = tr.steps + [("multiply", x)]
                    queue.append((nv, t2))
                nv = pbw.ad_lines(spec, ((x[0], 1),), x[1], vec)
                nv = {m: c for m, c in nv.items() if pbw.mono_md(m) <= j}
                if nv:
                    t2 = ReductionTrace()
                    t2.steps = tr.steps + [("bracket", ((x[0], 1),), x[1])]
                    queue.append((nv, t2))
        dims = [0] * (j + 1)
        for _, vec, _ in records:
            dims[max(pbw.mono_md(m) for m in vec)] += 1
    out = {"dims_by_md": dims, "bigraded": bigraded}
    if with_traces:
        out["basis"] = records
    return out


def replay_growth_trace(spec, gens, trace, cutoff=None):
    """Re-run a saturation trace from its seed generator; with a cutoff the
    same md truncation is applied after every step (generic mode)."""
    if not trace.steps or trace.steps[0][0] != "seed":
        raise InvariantError("a growth trace starts with its seed generator")
    x = gens[trace.steps[0][1]]
    if cutoff is not None:
        x = {m: c for m, c in x.items() if pbw.mono_md(m) <= cutoff}
    for step in trace.steps[1:]:
        if step[0] == "multiply":
            x = pbw.s_product(spec, {(step[1],): 1}, x)
        else:
            _, lines, e = step
            x = pbw.ad_lines(spec, lines, e, x)
        if cutoff is not None:
            x = {m: c for m, c in x.items() if pbw.mono_md(m) <= cutoff}
    return x


def filtered_ideal_dimension(spec, gens, j, **kw):
    return sum(saturate(spec, gens, j, **kw)["dims_by_md"][: j + 1])


def quotient_dimension_series(spec, gens, J):
    """dim F_j / (I cut at F_j) for j = 0..J, in one saturation run."""
    amb = md_series(spec, J)
    sat = saturate(spec, gens, J)
    ideal = sat["dims_by_md"]
    out = []
    tot_a = tot_i = 0
    for j in range(J + 1):
        tot_a += amb[j]
        tot_i += ideal[j]
        out.append(tot_a - tot_i)
    return out


def ambient_dimension_series(spec, J):
    amb = md_series(spec, J)
    out, tot = [], 0
    for j in range(J + 1):
        tot += amb[j]
        out.append(tot)
    return out


# ------------------------------------------------------------- counting

def count_normal_words(dim_g, m, n, j, with_d=False, negative_side=False):
    """Upper bound for the number of normal words at filtration stage j
    produced by a reduction engine with window length m and t-power
    threshold n: a binomial count for the bounded-t-power prefix times a
    polynomial count for the short tail.  with_d widens the bounded part
    to two-sided exponents plus the degree letter; negative_side squares
    the tail count to cover both exponent signs."""
    if with_d:
        b = math.comb(dim_g * (2 * n - 1) + 1 + j, j)
    else:
        b = math.comb(dim_g * n + j, j)
    c = (j * dim_g) ** (m - 1) if j > 0 else 1
    if negative_side:
        c = c * c
    return b * c


def check_g0_generates(basis):
    """Each twist component is spanned by brackets of the weight-0
    component against itself; the filtration argument for growth bounds
    leans on this."""
    for a in range(basis.r):
        comp_a = basis.component(a)
        comp_0 = basis.component(0)
        ech = {}
        rank = 0
        for x in comp_0:
            for y in comp_a:
                vec = dict(basis.bracket(x.elem, y.elem).coeffs)
                while vec:
                    piv = max(vec)
                    row = ech.get(piv)
                    if row is None:
                        p = vec[piv]
                        ech[piv] = {k: div(v, p) for k, v in vec.items()}
                        rank += 1
                        break
                    c = vec[piv]
                    for k, v in row.items():
                        nv = vec.get(k, 0) - v * c
                        if nv:
                            vec[k] = nv
                        else:
                            vec.pop(k, None)
        if rank != len(comp_a):
            return False
    return True


def classify_growth(series, window=5, drift=0.25):
    """Heuristic growth class from trailing log-log slopes.

    Fits log(dim) against log(j) by least squares over the last `window`
    points and the window one step earlier; when the two slopes differ by
    less than `drift` the series is called polynomial of degree
    ceil(slope), otherwise superpolynomial.  Exact comparisons, not this
    heuristic, carry the acceptance weight."""
    pts = [(j, v) for j, v in enumerate(series) if j >= 1 and v > 0]
    if len(pts) < window + 1:
        raise ValueError("series too short to classify")

    def slope(sub):
        xs = [math.log(j) for j, _ in sub]
        ys = [math.log(v) for _, v in sub]
        n = len(xs)
        mx = sum(xs) / n
        my = sum(ys) / n
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = sum((x - mx) ** 2 for x in xs)
        return num / den

    shift = window if len(pts) >= 2 * window else 1
    s_now = slope(pts[-window:])
    s_prev = slope(pts[-window - shift:len(pts) - shift])
    if abs(s_now - s_prev) < drift:
        return {"kind": "polynomial", "degree": math.ceil(s_now),
                "slopes": (s_prev, s_now)}
    return {"kind": "superpolynomial", "slopes": (s_prev, s_now)}
