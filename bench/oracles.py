"""Computations made apart from loopalg, used to check its outputs.

Nothing here imports loopalg.  Monomials are tuples of letters, a letter
being ``(k, n)`` (basis index k, t-power n) or the degree letter, written
``("d",)`` by the library and ``"d"`` by the text parser below.
"""

import re
from fractions import Fraction

DEGREE = ("d",)

# dim g_s of the sigma-eigenspaces for the twists the benchmark uses
# (Kac, Infinite-dimensional Lie algebras, 3rd ed., section 8.3): sl2 is
# untwisted; the outer involution of sl3 fixes so(3) and leaves a 5-dim
# irreducible module; triality on so(8) fixes G2 (14) and splits the rest
# 7 + 7.
EIGENSPACE_DIMS = {
    "A1:r1": {0: 3},
    "A2:r2": {0: 3, 1: 5},
    "D4:r3": {0: 14, 1: 7, 2: 7},
}


def lie_dim(label):
    """dim g for an A_n or D_n label such as 'D4:r3'."""
    head = label.split(":")[0]
    family, n = head[0], int(head[1:])
    if family == "A":
        return n * (n + 2)
    if family == "D":
        return n * (2 * n - 1)
    raise ValueError("no dimension formula for %r" % label)


# ------------------------------------------------------------- the order <

def is_degree(L):
    return L == "d" or L == DEGREE


def letter_key(L):
    """Letters left to right by (2n, k); the degree letter sits between
    t^-1 and t^0."""
    if is_degree(L):
        return (-1, 0)
    return (2 * L[1], L[0])


def mono_key(m):
    """Length, then degree, then letters left to right."""
    return (len(m), sum(L[1] for L in m if not is_degree(L)),
            tuple(letter_key(L) for L in m))


def mono_key_reverse(m):
    """Length, then degree, then letters right to left."""
    return (len(m), sum(L[1] for L in m if not is_degree(L)),
            tuple(letter_key(L) for L in reversed(m)))


def standard(word):
    return tuple(sorted(word, key=letter_key))


def is_standard(m):
    keys = [letter_key(L) for L in m]
    return all(a <= b for a, b in zip(keys, keys[1:]))


def leading(elem, reverse=False):
    return max(elem, key=mono_key_reverse if reverse else mono_key)


def min_t_power(elem):
    return min(L[1] for m in elem for L in m if not is_degree(L))


# ------------------------------------------------------- the text grammar

_LETTER = re.compile(r"^b(\d+)@t\^(-?\d+)$")
_ETA = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)w$")


def _split_top(text, sep):
    out, depth, cur = [], 0, []
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_coefficient(text):
    """'3/2' -> (3/2, 0); '(1-2w)' -> (1, -2), w a root of unity."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    m = _ETA.match(text)
    if m is None:
        return (Fraction(text), Fraction(0))
    b = Fraction(m.group(3))
    return (Fraction(m.group(1)), b if m.group(2) == "+" else -b)


def parse_letter(tok):
    if tok == "d":
        return "d"
    m = _LETTER.match(tok)
    if m is None:
        raise ValueError("bad letter %r" % tok)
    return (int(m.group(1)) - 1, int(m.group(2)))


def parse_words(text):
    """An element as printed, as a list of (coefficient, word) with each
    word kept in the order written."""
    if text.strip() == "0":
        return []
    out = []
    for term in _split_top(text.strip(), "+"):
        toks = [t.strip() for t in _split_top(term.strip(), "*")]
        out.append((parse_coefficient(toks[0]),
                    tuple(parse_letter(t) for t in toks[1:])))
    return out


def parse_element(text):
    """An element as a dict from standard monomials to coefficients."""
    out = {}
    for (a, b), word in parse_words(text):
        m = standard(word)
        pa, pb = out.get(m, (0, 0))
        c = (pa + a, pb + b)
        if c == (0, 0):
            out.pop(m, None)
        else:
            out[m] = c
    return out


def negate(elem):
    return {m: (-a, -b) for m, (a, b) in elem.items()}


# ------------------------------------------------------------ power series

def euler_series(mult, N):
    """prod over k of (1 - q^k)^(-mult[k]), to q^N, for mult[k] >= 0."""
    c = [1] + [0] * N
    for k, b in mult.items():
        for _ in range(b):
            for i in range(k, N + 1):
                c[i] += c[i - k]
    return c


def cumulative(c):
    out, tot = [], 0
    for x in c:
        tot += x
        out.append(tot)
    return out


def ambient_series(label, J):
    """dim F_j of the current algebra's symmetric algebra, j = 0..J: a
    letter x t^n has md n + 1, so md k carries dim g_s letters with
    k - 1 = s mod r."""
    dims = EIGENSPACE_DIMS[label]
    r = len(dims)
    return cumulative(euler_series(
        {k: dims[(k - 1) % r] for k in range(1, J + 1)}, J))


def letter_ideal_quotient(label, N, J):
    """dim F_j / (I cut at F_j) when I contains every letter of t-power
    >= N: the quotient is the polynomial ring on the letters below N."""
    dims = EIGENSPACE_DIMS[label]
    r = len(dims)
    return cumulative(euler_series(
        {k: dims[(k - 1) % r] for k in range(1, min(N, J) + 1)}, J))


def binomial_series(J, n=3):
    """C(j + n, n) for j = 0..J."""
    out, c = [], 1
    for j in range(J + 1):
        out.append(c)
        c = c * (j + 1 + n) // (j + 1)
    return out


_INVERSE_DENOMINATOR = {}


def weyl_kac_series(k1, k2, N):
    """Principally specialized character of the integrable affine-sl2
    module with labels (k1, k2), to q^N.

    The numerator sums sign * q^depth over the infinite dihedral Weyl
    group, acting on the labels of Lambda + rho by
    s0: (a, b) -> (-a, b + 2a) and s1: (a, b) -> (a + 2b, -b); each
    reflection deepens the weight by the label it reflects.  The
    denominator is prod (1 - q^odd)^2 prod (1 - q^even)."""
    num = {0: 1}
    for first in (0, 1):
        a, b, depth, sign, which = k1 + 1, k2 + 1, 0, 1, first
        while True:
            if which == 0:
                depth, a, b = depth + a, -a, b + 2 * a
            else:
                depth, a, b = depth + b, a + 2 * b, -b
            sign = -sign
            if depth > N:
                break
            num[depth] = num.get(depth, 0) + sign
            which ^= 1
    inv = _INVERSE_DENOMINATOR.get(N)
    if inv is None:
        inv = _INVERSE_DENOMINATOR[N] = euler_series(
            {k: 2 if k % 2 else 1 for k in range(1, N + 1)}, N)
    out = [0] * (N + 1)
    for d, s in num.items():
        if s:
            for i in range(d, N + 1):
                out[i] += s * inv[i - d]
    return out


# -------------------------------------------------------------- partitions

def partitions_distinct(n):
    dp = [1] + [0] * n
    for p in range(1, n + 1):
        for i in range(n, p - 1, -1):
            dp[i] += dp[i - p]
    return dp[n]


def partitions_mod(n, m, rho):
    """Partitions of n into parts congruent to rho mod m."""
    dp = [1] + [0] * n
    for p in range(1, n + 1):
        if p % m == rho % m:
            for i in range(p, n + 1):
                dp[i] += dp[i - p]
    return dp[n]


def partitions_odd(n):
    return partitions_mod(n, 2, 1)
