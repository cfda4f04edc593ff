import pytest

from loopalg import characters as ch


def product_formula(k1, k2, N):
    """The series as an Euler product over a table of exponents b_j: for
    k1 == k2 == k the principally specialized product formula, for
    k1 != k2 partitions into odd parts.  An oracle that shares nothing
    with the Weyl-Kac numerator."""
    if k1 != k2:
        return ch.euler_product({j: 1 for j in range(1, N + 1, 2)}, N), False
    k = k1
    b = {}
    for j in range(1, N + 1):
        if k % 2 == 0:
            if j % (k + 1) == 0:
                continue
            b[j] = 2 if j % 2 == 1 else 1
        else:
            if j % (2 * (k + 1)) == 0:
                continue
            if j % (k + 1) == 0:
                b[j] = -1
            elif j % 2 == 1:
                b[j] = 2
            else:
                b[j] = 1
    return ch.euler_product(b, N), True


def test_euler_product_all_parts_is_partition_numbers():
    s = ch.euler_product({j: 1 for j in range(1, 13)}, 12)
    assert s.coeffs == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_euler_product_odd_parts():
    s = ch.euler_product({j: 1 for j in range(1, 6, 2)}, 5)
    assert s.coeffs == [1, 1, 1, 2, 2, 3]


def test_euler_product_empty_is_one():
    s = ch.euler_product({}, 6)
    assert s.coeffs == [1, 0, 0, 0, 0, 0, 0]


def test_euler_product_negative_multiplicity():
    # (1-s)^1 exactly
    s = ch.euler_product({1: -1}, 4)
    assert s.coeffs == [1, -1, 0, 0, 0]


def test_hilb_unequal_labels_is_odd_partition_lower_bound():
    s, exact = ch.hilb_integrable(1, 2, 30)
    assert not exact
    assert all(s[n] == ch.count_partitions(n, "odd") for n in range(31))


@pytest.mark.parametrize("k", [1, 2])
def test_hilb_equal_labels_nonnegative_and_dominates(k):
    N = 100
    s, exact = ch.hilb_integrable(k, k, N)
    assert exact
    assert all(isinstance(c, int) or c == int(c) for c in s.coeffs)
    assert all(c >= 0 for c in s.coeffs)
    low = ch.euler_product(
        {(k + 1) * j + 1: 1 for j in range(0, N // (k + 1) + 1)}, N)
    assert s.dominates(low)


def test_hilb_k1_small_values():
    s, _ = ch.hilb_integrable(1, 1, 12)
    assert s.coeffs[:6] == [1, 2, 2, 4, 6, 8]


@pytest.mark.parametrize("N", [0, 1, 2, 50, 400])
def test_hilb_matches_product_formula(N):
    for k1 in range(6):
        for k2 in range(6):
            if k1 == k2 == 0:
                continue
            series, exact = ch.hilb_integrable(k1, k2, N)
            want, want_exact = product_formula(k1, k2, N)
            assert series.N == N
            assert series.coeffs == want.coeffs, (k1, k2, N)
            assert exact is want_exact


def test_gauss_identity_theta4():
    """prod (1 - q^odd)^2 prod (1 - q^even) = sum_n (-1)^n q^(n^2), the
    denominator that hilb_integrable divides by."""
    N = 500
    prod = ch.euler_product(
        {j: -2 if j % 2 else -1 for j in range(1, N + 1)}, N)
    theta = [0] * (N + 1)
    theta[0] = 1
    m = 1
    while m * m <= N:
        theta[m * m] = 2 * (-1) ** m
        m += 1
    assert prod.coeffs[:5] == [1, -2, 0, 0, 2]
    assert prod.coeffs == theta


def test_hilb_rejects_trivial_module():
    with pytest.raises(ValueError):
        ch.hilb_integrable(0, 0, 10)


@pytest.mark.parametrize("func, k1, k2", [
    (ch.weyl_kac_numerator, 1, 1), (ch.hilb_integrable, 1, 1),
    (ch.hilb_integrable, 2, 1)])
def test_negative_term_count_rejected(func, k1, k2):
    with pytest.raises(ValueError, match="term count must be >= 0"):
        func(k1, k2, -1)


def factorized_bound(k, N):
    """For odd k, prod 1/(1 - s^((k+1)j+1)) * prod (1 + s^h) with
    h = (k+1)(2j+1)/2, as one Euler product: 1 + s^h is
    (1 - s^(2h)) / (1 - s^h)."""
    b = {}
    for j in range(N // (k + 1) + 1):
        h = (k + 1) * (2 * j + 1) // 2
        for e, m in (((k + 1) * j + 1, 1), (h, 1), (2 * h, -1)):
            b[e] = b.get(e, 0) + m
    return ch.euler_product(b, N)


def test_odd_case_factorized_bound_chain():
    N = 100
    for k in (1, 3):
        exact, flag = ch.hilb_integrable(k, k, N)
        mid = factorized_bound(k, N)
        low = ch.euler_product(
            {(k + 1) * j + 1: 1 for j in range(0, N // (k + 1) + 1)}, N)
        assert flag
        assert exact.dominates(mid), k
        assert mid.dominates(low), k


def test_count_partitions():
    assert ch.count_partitions(5, "odd") == 3
    assert ch.count_partitions(5, ("mod", 2, 1)) == 3
    assert ch.count_partitions(0, "odd") == 1
    assert ch.count_partitions(6, "all") == 11
    assert ch.count_partitions(6, "distinct") == 4
    with pytest.raises(ValueError):
        ch.count_partitions(-1, "odd")
    with pytest.raises(ValueError):
        ch.count_partitions(5, "spam")


def test_odd_equals_distinct_to_500():
    for n in range(501):
        assert ch.count_partitions(n, "odd") == \
            ch.count_partitions(n, "distinct")


def test_product_matches_dp_to_500():
    s = ch.euler_product({j: 1 for j in range(1, 501, 2)}, 500)
    for n in range(0, 501, 25):
        assert s[n] == ch.count_partitions(n, "odd")


def test_asymptotic_ratio():
    assert 0 < ch.asymptotic_ratio(1)
    ratios = [ch.asymptotic_ratio(n) for n in (50, 100, 200)]
    assert abs(ratios[-1] - 1) < 0.05
    assert abs(1 - ratios[0]) > abs(1 - ratios[1]) > abs(1 - ratios[2])

