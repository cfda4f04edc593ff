"""Exact growth data for Poisson ideals of (positive) current algebras.

The filtration weight of a monomial is md = sum over letters of
(t-power + 1).  Multiplying by a letter x*t^n raises md by n + 1 and
bracketing with it raises md by n, so neither operation lowers md and
the ideal generated by md-homogeneous elements is md-graded: its
intersection with a filtration stage F_j is the sum of its pieces of
md <= j, and saturating below the cutoff loses nothing.  The saturation
splits into pieces keyed by (md, length) when every generator is also
homogeneous in length, and by md alone otherwise; each piece is a finite
echelon whose capacity is counted from the letter generating function.
Generators that are not md-homogeneous are rejected.
"""

import math
from collections import defaultdict
from itertools import accumulate

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


def _count_table(spec, J):
    """c[M][L], the number of standard monomials of md M and length L for
    M, L <= J: the coefficients of the product over letters x*t^n of
    1/(1 - q^(n+1) z), multiplied in one letter at a time."""
    c = [[0] * (J + 1) for _ in range(J + 1)]
    c[0][0] = 1
    for _, n in letters_up_to(spec, J):
        w = n + 1
        for M in range(w, J + 1):
            row, src = c[M], c[M - w]
            for L in range(1, M + 1):
                row[L] += src[L - 1]
    return c


def md_series(spec, J):
    """Number of standard monomials of md exactly k, for k = 0..J."""
    return [sum(row) for row in _count_table(spec, J)]


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
    """The ideal generated by the md-homogeneous `gens` under
    multiply-by-letter and bracket-with-letter, cut at md <= j.

    Returns a dict with the per-md dimensions and, with_traces, the basis
    records (piece, vector, trace).  A piece is keyed by (md, length) when
    every generator is homogeneous in both, else by (md, 0).  letter_order
    permutes the processing order; the dimensions are order-independent."""
    grades = [{(pbw.mono_md(m), len(m)) for m in g} for g in gens if g]
    if any(len({M for M, _ in gr}) > 1 for gr in grades):
        raise ValueError("growth needs md-homogeneous ideal generators")
    lw = int(all(len(gr) == 1 for gr in grades))
    table = _count_table(spec, j)
    capacity = table if lw else [[sum(row)] for row in table]
    letters = letters_up_to(spec, j)
    if letter_order is not None:
        letters = letter_order(letters)
    ech = defaultdict(lambda: _Echelon(spec))
    full = set()
    records = []
    queue = [(g, (("seed", gi),)) for gi, g in enumerate(gens)
             if g and pbw.mono_md(next(iter(g))) <= j]
    # the loop also visits the candidates it appends
    for vec, steps in queue:
        m = next(iter(vec))
        M, L = pbw.mono_md(m), len(m) * lw
        if (M, L) in full:
            continue
        e = ech[M, L]
        if e.insert(vec) is None:
            continue
        records.append(((M, L), vec, steps))
        if len(e) == capacity[M][L]:
            full.add((M, L))
        for x in letters:
            n = x[1]
            if M + n + 1 <= j and (M + n + 1, L + lw) not in full:
                queue.append((pbw.s_product(spec, {(x,): 1}, vec),
                              steps + (("multiply", x),)))
            if M + n <= j and (M + n, L) not in full:
                nv = pbw.ad_lines(spec, ((x[0], 1),), n, vec)
                if nv:
                    queue.append((nv, steps + (("bracket", ((x[0], 1),), n),)))
    dims = [0] * (j + 1)
    for (M, _), e in ech.items():
        dims[M] += len(e)
    out = {"dims_by_md": dims}
    if with_traces:
        out["basis"] = [(P, vec, _trace(steps)) for P, vec, steps in records]
    return out


def _trace(steps):
    tr = ReductionTrace()
    tr.steps = list(steps)
    return tr


def replay_growth_trace(spec, gens, trace):
    """Re-run a saturation trace from its seed generator."""
    if not trace.steps or trace.steps[0][0] != "seed":
        raise InvariantError("a growth trace starts with its seed generator")
    return _trace(trace.steps[1:]).replay(spec, gens[trace.steps[0][1]])


def quotient_dimension_series(spec, gens, J):
    """dim F_j / (I cut at F_j) for j = 0..J, in one saturation run."""
    ideal = accumulate(saturate(spec, gens, J)["dims_by_md"])
    return [a - i for a, i in zip(ambient_dimension_series(spec, J), ideal)]


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
