import pytest

from loopalg.scalars import eta
from loopalg.twisted_grading import TwistedBasis, parse_label

LABELS = ["A1:r1", "A2:r2", "A3:r2", "D4:r2", "D4:r3", "E6:r2"]


def check_equivariance(tb, b):
    """sigma acts on the basis vector b by eta to its sigma-weight."""
    return tb.sigma(b.elem) == b.elem.scale(eta(tb.r, b.s))


def test_parse_label():
    assert parse_label("D4:r3") == ("D", 4, 3)
    assert parse_label("A2:r2") == ("A", 2, 2)
    with pytest.raises(ValueError):
        parse_label("B2:r1")


@pytest.mark.parametrize("label", LABELS)
def test_sigma_is_an_automorphism_of_the_right_order(label, tb_cache):
    tb = tb_cache(label)
    for b in tb.elements:
        x = b.elem
        for _ in range(tb.r):
            x = tb.sigma(x)
        assert x == b.elem
    # sigma respects brackets on a spread of pairs
    els = tb.elements
    for i in range(0, len(els), 3):
        for j in range(1, len(els), 5):
            lhs = tb.sigma(tb.bracket(els[i].elem, els[j].elem))
            rhs = tb.bracket(tb.sigma(els[i].elem), tb.sigma(els[j].elem))
            assert lhs == rhs


@pytest.mark.parametrize("label", LABELS)
def test_equivariance_every_basis_vector(label, tb_cache):
    tb = tb_cache(label)
    for b in tb.elements:
        assert check_equivariance(tb, b), label


@pytest.mark.parametrize("label,dims", [
    ("A1:r1", [3]),
    ("A2:r2", [3, 5]),
    ("A3:r2", [10, 5]),
    ("D4:r2", [21, 7]),
    ("D4:r3", [14, 7, 7]),
    ("E6:r2", [52, 26]),
])
def test_component_dimensions(label, dims, tb_cache):
    tb = tb_cache(label)
    assert [len(tb.component(s)) for s in range(tb.r)] == dims
    assert sum(dims) == len(tb.elements)


def _cartan_rows(tb, s):
    return [b.elem for b in tb.component(s) if b.kind == "cartan"]


def h_combo(tb, coeffs):
    """coeffs: {1-based node: scalar} -> ChevalleyElement."""
    rs = tb.rs
    return rs.element({rs.cartan_index(i): c for i, c in coeffs.items()})


def _assert_rows(tb, s, expected):
    got = _cartan_rows(tb, s)
    assert len(got) == len(expected)
    for want in expected:
        assert any(g.proportional_to(want) is not None for g in got), \
            "missing Cartan row %r in component %d" % (want, s)


def test_cartan_rows_a2_r2(tb_cache):
    tb = tb_cache("A2:r2")
    _assert_rows(tb, 0, [h_combo(tb, {1: 1, 2: 1})])
    _assert_rows(tb, 1, [h_combo(tb, {1: 1, 2: -1})])


def test_cartan_rows_a3_r2(tb_cache):
    tb = tb_cache("A3:r2")
    _assert_rows(tb, 0, [h_combo(tb, {1: 1, 3: 1}), h_combo(tb, {2: 1})])
    _assert_rows(tb, 1, [h_combo(tb, {1: 1, 3: -1})])


def test_cartan_rows_d4_r2(tb_cache):
    tb = tb_cache("D4:r2")
    _assert_rows(tb, 0, [h_combo(tb, {1: 1}), h_combo(tb, {2: 1}),
                         h_combo(tb, {3: 1, 4: 1})])
    _assert_rows(tb, 1, [h_combo(tb, {3: 1, 4: -1})])


def test_cartan_rows_e6_r2(tb_cache):
    tb = tb_cache("E6:r2")
    _assert_rows(tb, 0, [h_combo(tb, {1: 1, 5: 1}), h_combo(tb, {2: 1, 4: 1}),
                         h_combo(tb, {3: 1}), h_combo(tb, {6: 1})])
    _assert_rows(tb, 1, [h_combo(tb, {1: 1, 5: -1}),
                         h_combo(tb, {2: 1, 4: -1})])


def test_cartan_rows_d4_r3(tb_cache):
    tb = tb_cache("D4:r3")
    w = eta(3)
    _assert_rows(tb, 0, [h_combo(tb, {1: 1, 3: 1, 4: 1}),
                         h_combo(tb, {2: 1})])
    _assert_rows(tb, 1, [h_combo(tb, {1: 1, 3: w,
                                      4: eta(3, 2)})])
    _assert_rows(tb, 2, [h_combo(tb, {1: 1, 3: eta(3, 2),
                                      4: w})])


@pytest.mark.parametrize("label", LABELS)
def test_order_and_leading_terms(label, tb_cache):
    tb = tb_cache(label)
    keys = [(b.s, b.lt) for b in tb.elements]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for b in tb.elements:
        assert b.elem.leading_index() == b.lt


@pytest.mark.parametrize("label", LABELS)
def test_theta_lines(label, tb_cache):
    tb = tb_cache(label)
    top = tb.theta_plus
    bot = tb.theta_minus
    assert top.kind == "root" and top.positive
    assert bot.kind == "root" and not bot.positive
    h = tb.bracket(top.elem, bot.elem)
    assert not h.is_zero()
    back = tb.bracket(h, top.elem)
    c = back.proportional_to(top.elem)
    assert c is not None and c != 0


@pytest.mark.parametrize("label", LABELS)
def test_weights_are_bracket_eigenvalues(label, tb_cache):
    tb = tb_cache(label)
    for b in tb.elements:
        for h, lam in zip(tb.cartan0, b.weight):
            br = tb.bracket(h.elem, b.elem)
            assert br == b.elem.scale(lam)


@pytest.mark.parametrize("label", LABELS)
def test_sl2_partner_relations(label, tb_cache):
    tb = tb_cache(label)
    for b in tb.elements:
        if b.kind != "root":
            continue
        gprime, second, s, c = tb.sl2_partner(b)
        # bracketing the returned partner element against g' recovers a
        # nonzero multiple of the original line
        br = tb.bracket(second, gprime.elem)
        prop = br.proportional_to(b.elem)
        assert prop is not None and prop != 0
        assert prop == c


@pytest.mark.parametrize("label", LABELS)
def test_chain_from_theta_reaches_every_root_line(label, tb_cache):
    tb = tb_cache(label)
    for b in tb.elements:
        if b.kind != "root":
            continue
        start = tb.theta_minus if not b.positive else tb.theta_plus
        chain = tb.chain_from_theta(b)
        x = start.elem
        for c in reversed(chain):
            x = tb.bracket(c.elem, x)
        prop = x.proportional_to(b.elem)
        assert prop is not None and prop != 0
