"""Hilbert series of integrable highest-weight modules over affine sl2
in the principal gradation, plus the partition counters and the
high-precision asymptotic ratio check that back the growth results.

All series arithmetic is exact over the integers; floating point is
confined to asymptotic_ratio, which imports mpmath when it runs.
"""


class PowerSeries:
    """Truncated power series with exact coefficients c0..cN."""

    __slots__ = ("coeffs", "N")

    def __init__(self, coeffs, N=None):
        coeffs = list(coeffs)
        if N is None:
            N = len(coeffs) - 1
        if len(coeffs) < N + 1:
            coeffs += [0] * (N + 1 - len(coeffs))
        self.coeffs = coeffs[: N + 1]
        self.N = N

    @classmethod
    def one(cls, N):
        return cls([1], N)

    def __eq__(self, other):
        return self.N == other.N and self.coeffs == other.coeffs

    def __getitem__(self, i):
        return self.coeffs[i]

    def dominates(self, other):
        """Coefficientwise >= up to the shorter truncation."""
        N = min(self.N, other.N)
        return all(a >= b for a, b in
                   zip(self.coeffs[: N + 1], other.coeffs[: N + 1]))

    def __repr__(self):
        return "PowerSeries(%r)" % (self.coeffs,)


def euler_product(exponent_multiplicity, N):
    """Expansion of the product over j of (1 - s^j)^(-b_j), truncated
    at N; b_j may be negative."""
    out = PowerSeries.one(N)
    c = out.coeffs
    for j, b in sorted(exponent_multiplicity.items()):
        if j < 1:
            raise ValueError("factor exponents must be >= 1")
        if j > N or not b:
            continue
        for _ in range(max(b, 0)):
            for i in range(j, N + 1):
                c[i] += c[i - j]
        for _ in range(max(-b, 0)):
            for i in range(N, j - 1, -1):
                c[i] -= c[i - j]
    return out


def weyl_kac_numerator(k1, k2, N):
    """Principally specialized Weyl-Kac numerator of the module with
    labels (k1, k2), as a dense coefficient list to q^N.

    It sums sign * q^depth over the infinite dihedral Weyl group, acting
    on the labels of Lambda + rho by s0: (a, b) -> (-a, b + 2a) and
    s1: (a, b) -> (a + 2b, -b).  Each reflection deepens the weight by
    the label it reflects, so the two reduced-word chains give O(sqrt N)
    terms."""
    if N < 0:
        raise ValueError("the term count must be >= 0")
    num = [0] * (N + 1)
    num[0] = 1
    for first in (0, 1):
        a, b, depth, sign, which = k1 + 1, k2 + 1, 0, 1, first
        while True:
            if which == 0:
                depth, a, b = depth + a, -a, b + 2 * a
            else:
                depth, a, b = depth + b, a + 2 * b, -b
            if depth > N:
                break
            sign = -sign
            num[depth] += sign
            which ^= 1
    return num


def hilb_integrable(k1, k2, N):
    """Principal-gradation Hilbert series of the integrable module with
    highest-weight labels (k1, k2) over affine sl2.

    The series is the Weyl-Kac numerator over the specialized
    denominator prod (1 - q^odd)^2 prod (1 - q^even), which by Gauss's
    identity is theta_4(q) = sum_n (-1)^n q^(n^2); the division is the
    recurrence f[n] = num[n] - 2 sum_{m >= 1} (-1)^m f[n - m^2].

    For k1 == k2 the series is returned as exact (flag True).  For
    k1 != k2 only a coefficientwise lower bound, partitions into odd
    parts (the (1, 0) series), is returned (flag False)."""
    if k1 < 0 or k2 < 0:
        raise ValueError("weight labels must be nonnegative")
    if k1 == 0 and k2 == 0:
        raise ValueError("the (0, 0) module is trivial")
    exact = k1 == k2
    f = weyl_kac_numerator(*((k1, k2) if exact else (1, 0)), N)
    squares = []
    m = 1
    while m * m <= N:
        squares.append((m * m, 2 if m % 2 else -2))
        m += 1
    for n in range(1, N + 1):
        acc = f[n]
        for sq, c in squares:
            if sq > n:
                break
            acc += c * f[n - sq]
        f[n] = acc
    return PowerSeries(f, N), exact


def count_partitions(n, parts="all"):
    """Partitions of n with parts restricted by `parts`: "odd",
    "distinct", "all", or ("mod", m, rho) for parts congruent to rho
    mod m."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if parts == "odd":
        allowed = range(1, n + 1, 2)
    elif parts in ("all", "distinct"):
        allowed = range(1, n + 1)
    elif isinstance(parts, tuple) and parts[0] == "mod":
        _, m, rho = parts
        if m < 1:
            raise ValueError("the modulus must be >= 1")
        allowed = [p for p in range(1, n + 1) if p % m == rho % m]
    else:
        raise ValueError("unknown parts predicate: %r" % (parts,))
    dp = [1] + [0] * n
    if parts == "distinct":
        for p in allowed:
            for i in range(n, p - 1, -1):
                dp[i] += dp[i - p]
    else:
        for p in allowed:
            for i in range(p, n + 1):
                dp[i] += dp[i - p]
    return dp[n]


def asymptotic_ratio(n, dps=50):
    """Ratio of the odd-part partition count at n to its leading
    asymptotic exp(pi*lam/sqrt(3)) / (4*3^(1/4)*lam^(3/2)) with
    lam = sqrt(n - 1/24); the ratio tends to 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import mpmath

    exact = count_partitions(n, "odd")
    with mpmath.workdps(dps):
        lam = mpmath.sqrt(mpmath.mpf(n) - mpmath.mpf(1) / 24)
        formula = mpmath.e ** (mpmath.pi * lam / mpmath.sqrt(3)) / (
            4 * mpmath.power(3, mpmath.mpf(1) / 4) * lam ** mpmath.mpf(1.5))
        return float(mpmath.mpf(exact) / formula)
