"""The reduction engine.

Given a nonzero length-homogeneous element F of the symmetric algebra of
the twisted loop algebra, the engine produces, inside the subrepresentation
generated by F under the positive current algebra, an element whose leading
standard monomial is any requested target (with t-powers beyond an
explicitly computed threshold).  Every step is a Poisson bracket with an
explicit positive-t-power element, recorded in a trace that can be
replayed -- in particular inside the enveloping algebra at any level.

The public entry points take and return elements on (k, n) letters; the
stages in between work on letter codes (see loop_affine).
"""

from . import pbw_monomials as pbw
from .errors import InvariantError


class ThresholdError(ValueError):
    def __init__(self, threshold):
        self.threshold = threshold
        super().__init__(
            "target t-powers must start strictly above %d" % threshold)


class ReductionTrace:
    """A replayable certificate: a list of bracket steps applied to the
    original generator.  Each step is a weight-homogeneous acting element
    written as [(basis index, coeff), ...] at a common t-power."""

    def __init__(self, steps=()):
        self.steps = list(steps)

    def bracket(self, lines, exponent):
        self.steps.append(("bracket", tuple(lines), exponent))

    def replay(self, spec, start, commutator=False):
        """Apply the recorded steps to `start`; with commutator=True the
        steps run in the enveloping algebra of `spec` instead of the
        symmetric one."""
        ad = pbw.u_ad_lines if commutator else pbw.ad_lines
        x = spec.encode(start)
        for _, lines, e in self.steps:
            x = ad(spec, lines, e, x)
        return spec.decode(x)


def min_exponent(spec, elem):
    """The least t-power of a letter other than D, on codes."""
    B = spec.B
    return min((x + B) // (2 * B) for m in elem for x in m if x != -B)


def separating_exponent(spec, s, elem):
    """A positive t-power congruent to s that is large enough to keep the
    images of distinct letters distinct."""
    bound = 1 + 2 * max((pbw.mono_md(spec, m) - len(m) for m in elem),
                        default=0)
    q = s % spec.r or spec.r
    while q <= bound:
        q += spec.r
    return q


def kill_positive_action(spec, F, sign="+", trace=None):
    """Bracket F, on codes, with one side of the root lines until that side
    acts by zero; the result is supported on the corresponding
    highest-root letters alone."""
    basis = spec.basis
    acting = basis.root_vectors(positive=(sign == "+"))
    if trace is None:
        trace = ReductionTrace()
    m = max(len(mo) for mo in F)
    limit = 2 * m * basis.theta_height + 4
    rounds = 0
    while True:
        # among the lines that still act nonzero, take the one producing
        # the fewest monomials -- it keeps the rest of the pipeline small
        best = None
        for c in acting:
            q = separating_exponent(spec, c.s, F)
            G = pbw.ad_lines(spec, ((c.index, 1),), q, F)
            if G and (best is None or len(G) < len(best[0])):
                best = (G, c, q)
        if best is None:
            break
        F, c, q = best
        trace.bracket([(c.index, 1)], q)
        rounds += 1
        if rounds > limit:
            raise InvariantError("highest-root reduction did not settle")
    want = (basis.theta_plus if sign == "+" else basis.theta_minus).index
    if any(spec.letter_of(x)[0] != want for mo in F for x in mo):
        raise InvariantError("support escaped the extreme line")
    return F, trace


def realize_congruence_class(spec, H, cls, trace=None):
    """From H on codes, supported on lowest-root letters, build G whose
    leading monomial under the right-to-left order runs through the lines
    cls[0], ..., cls[m-1] at strictly increasing t-powers, by an induction
    over positions.  Returns (G, exponents, trace).  Raises ValueError
    when cls is not as long as the longest monomial of H."""
    basis = spec.basis
    r = basis.r
    d = basis.theta_height
    tp, tm = basis.theta_plus, basis.theta_minus
    s_t = tp.s
    m = max(len(mo) for mo in H)
    if m != len(cls):
        raise ValueError("target of length %d, but the generator reduces "
                         "to monomials of length %d" % (len(cls), m))
    if trace is None:
        trace = ReductionTrace()

    def act(bv, e, x, times=1):
        for _ in range(times):
            x = pbw.ad_lines(spec, ((bv.index, 1),), e, x)
            trace.bracket([(bv.index, 1)], e)
            if not x:
                raise InvariantError(
                    "bracket unexpectedly vanished during the induction")
        return x

    lead = [spec.letter_of(x) for x in pbw.leading_code(spec, H, True)[0]]
    if any(L[0] != tm.index for L in lead):
        raise InvariantError("leading monomial is off the lowest-root line")
    j = [L[1] for L in lead]

    G = H
    k = list(j)
    for i in range(1, m + 1):
        G = act(tp, i * r * d + s_t, G, 2)
        k[i - 1] += 2 * (i * r * d + s_t)
    cur = [tp] * m

    def check(G):
        lead = tuple(map(spec.letter_of, pbw.leading_code(spec, G, True)[0]))
        want = tuple((cur[i].index, k[i]) for i in range(m))
        if lead != want:
            raise InvariantError(
                "leading monomial drifted: %r vs %r" % (lead, want))
        if any(k[i] >= k[i + 1] for i in range(m - 1)):
            raise InvariantError("t-powers not increasing: %r" % (k,))

    check(G)

    e_minus = r - s_t          # congruent to the weight of the lowest line
    e_plus = r + s_t
    for n in range(m):
        T = cls[n]
        if not T.positive:
            G = act(tm, e_minus, G, 2 * (m - n))
            G = act(tp, e_plus, G, 2 * (m - n - 1))
            S = 0
            for cch in reversed(basis.chain_from_theta(T)):
                e = cch.s if cch.s >= 1 else r
                G = act(cch, e, G)
                S += e
            k[n] += 2 * e_minus + S
            for i in range(n + 1, m):
                k[i] += 2 * e_minus + 2 * e_plus
        else:
            G = act(tm, e_minus, G, 2 * (m - n - 1))
            S = 0
            for cch in reversed(basis.chain_from_theta(T)):
                e = r + cch.s
                G = act(cch, e, G)
                S += e
            k[n] += S
            G = act(tp, e_plus, G, 2 * (m - n - 1))
            for i in range(n + 1, m):
                k[i] += 2 * e_minus + 2 * e_plus
        cur[n] = T
        check(G)
    return G, k, trace


def lift_leading_term(spec, G, a, M, partners, trace=None):
    """Bracket G with the partner lines at matched t-powers so that the
    leading standard monomial becomes exactly M; G and the result are on
    codes."""
    basis = spec.basis
    m = len(a)
    if trace is None:
        trace = ReductionTrace()
    i_exp = [L[1] for L in M]
    H = G
    for jj in range(m, 0, -1):
        _, gsec_elem, gsec_s, _ = partners[jj - 1]
        e = i_exp[m - jj] - a[jj - 1]
        if e < 1 or (e - gsec_s) % basis.r:
            raise InvariantError("partner t-power %d is not positive in the "
                                 "class of %d" % (e, gsec_s))
        lines = tuple((bv.index, c) for bv, c in basis.decompose(gsec_elem, gsec_s))
        H = pbw.ad_lines(spec, lines, e, H)
        trace.bracket(lines, e)
        if not H:
            raise InvariantError("partner bracket vanished")
    lead = tuple(map(spec.letter_of, pbw.leading_code(spec, H)[0]))
    if lead != M:
        raise InvariantError("leading term is %r, wanted %r" % (lead, M))
    return H, trace


def _check_targets(lines):
    if any(b.kind != "root" for b in lines):
        raise ValueError("reduction targets must run over root lines")


def reduction_plan(spec, F, M_letters):
    """Everything construct_H_M needs short of the final lift: the
    congruence-class element G, its exponents, and the t-power threshold
    for targets over the lines M_letters (a tuple of basis vectors,
    in monomial position order)."""
    if not any(F):
        raise ValueError("the generator needs a term with letters")
    _check_targets(M_letters)
    m = len(M_letters)
    partners = [spec.basis.sl2_partner(M_letters[m - 1 - jj]) for jj in range(m)]
    cls = [p[0] for p in partners]
    trace = ReductionTrace()
    H, trace = kill_positive_action(spec, spec.encode(F), "-", trace)
    G, a, trace = realize_congruence_class(spec, H, cls, trace)
    threshold = max(0, 2 * a[-1] - min_exponent(spec, G))
    return {"G": G, "a": a, "partners": partners, "trace": trace,
            "threshold": threshold}


def construct_H_M(spec, F, M, plan=None):
    """Full pipeline: an element of the subrepresentation generated by F
    whose leading standard monomial is exactly M, with its trace."""
    letters = tuple(spec.basis.elements[L[0]] for L in M)
    _check_targets(letters)
    if plan is None:
        plan = reduction_plan(spec, F, letters)
    if M[0][1] <= plan["threshold"]:
        raise ThresholdError(plan["threshold"])
    trace = ReductionTrace(plan["trace"].steps)
    H, trace = lift_leading_term(spec, plan["G"], plan["a"], M,
                                 plan["partners"], trace)
    return spec.decode(H), trace


def uniform_threshold(spec, F, m):
    """The maximum threshold over every length-m tuple of root lines; only
    sensible for small m."""
    if m > 2:
        raise ValueError("the uniform threshold is only computed for m <= 2")
    roots = spec.basis.root_vectors()
    from itertools import product
    seen = {}   # the threshold depends on the lines only through cls
    for tup in product(roots, repeat=m):
        key = tuple(spec.basis.sl2_partner(b)[0].index for b in reversed(tup))
        if key not in seen:
            seen[key] = reduction_plan(spec, F, tup)["threshold"]
    return max(seen.values(), default=0)


def project_to_derived(spec, F, trace=None):
    """Bracket a d-bearing element of the full affine symmetric algebra
    with highest-root letters until the next such bracket vanishes; the
    last nonzero stage carries no degree letter."""
    basis = spec.basis
    tp = basis.theta_plus
    if not F:
        raise ValueError("cannot project the zero element")
    if trace is None:
        trace = ReductionTrace()
    F = spec.encode(F)
    d_deg = max((mo.count(-spec.B) for mo in F), default=0)
    letters = max((len(mo) for mo in F), default=0)
    limit = d_deg + letters * basis.theta_height + 4
    steps = 0
    while True:
        q = separating_exponent(spec, tp.s, F)
        G = pbw.ad_lines(spec, ((tp.index, 1),), q, F)
        if not G:
            if pbw.ad_lines(spec, ((tp.index, 1),), q + spec.r, F):
                raise InvariantError("vanishing was not uniform across t-powers")
            break
        F = G
        trace.bracket([(tp.index, 1)], q)
        steps += 1
        if steps > limit:
            raise InvariantError("derived projection did not settle")
    if any(-spec.B in mo for mo in F):
        raise InvariantError("degree letter survived")
    return spec.decode(F), trace


def lift_to_U(spec_u, H, trace):
    """Replay a symmetric-side trace as enveloping-algebra commutators."""
    return trace.replay(spec_u, H, commutator=True)
