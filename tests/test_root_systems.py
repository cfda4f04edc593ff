import itertools

import pytest

from loopalg.root_systems import RootSystem, cartan_matrix
from loopalg.scalars import div


def test_cartan_matrices():
    assert cartan_matrix("A", 2) == [[2, -1], [-1, 2]]
    d4 = cartan_matrix("D", 4)
    # node 1 (0-based) is the center of the fork
    assert sum(row.count(-1) for row in d4) == 6
    e6 = cartan_matrix("E", 6)
    assert sum(row.count(-1) for row in e6) == 10


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6),
    ("D", 4, 12), ("E", 6, 36),
])
def test_positive_root_counts(family, rank, count):
    assert len(RootSystem(family, rank).pos_roots) == count


def test_highest_root_heights():
    assert RootSystem("A", 3).height(RootSystem("A", 3).highest_root) == 3
    assert RootSystem("D", 4).height(RootSystem("D", 4).highest_root) == 5
    assert RootSystem("E", 6).height(RootSystem("E", 6).highest_root) == 11


def test_roots_sorted_by_height_then_lex():
    rs = RootSystem("D", 4)
    keys = [(rs.height(b), b) for b in rs.pos_roots]
    assert keys == sorted(keys)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("D", 4),
])
def test_antisymmetry_and_jacobi(family, rank):
    rs = RootSystem(family, rank)
    dim = len(rs.basis_roots)
    basis = [rs.basis_element(k) for k in range(dim)]
    for p in range(dim):
        for q in range(p, dim):
            assert rs.bracket(basis[p], basis[q]) == \
                -rs.bracket(basis[q], basis[p])
    for x, y, z in itertools.combinations(basis, 3):
        lhs = rs.bracket(x, rs.bracket(y, z)) \
            + rs.bracket(y, rs.bracket(z, x)) \
            + rs.bracket(z, rs.bracket(x, y))
        assert lhs.is_zero()


def test_sl2_structure_and_killing():
    rs = RootSystem("A", 1)
    f, h, e = (rs.basis_element(k) for k in range(3))
    assert rs.bracket(e, f) == h
    assert rs.bracket(h, e) == e.scale(2)
    assert rs.bracket(h, f) == f.scale(-2)
    assert rs.killing(2, 0) == 4


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("D", 4),
])
def test_killing_gram_full_rank(family, rank):
    rs = RootSystem(family, rank)
    dim = len(rs.basis_roots)
    rows = [[rs.killing(p, q) for q in range(dim)]
            for p in range(dim)]
    rank_count = 0
    for col in range(dim):
        piv = next((i for i in range(rank_count, dim)
                    if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank_count], rows[piv] = rows[piv], rows[rank_count]
        prow = rows[rank_count]
        inv = div(1, prow[col])
        for i in range(dim):
            if i != rank_count and rows[i][col]:
                c = rows[i][col] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], prow)]
        rank_count += 1
    assert rank_count == dim


def test_opposite_roots_give_coroot():
    rs = RootSystem("A", 2)
    theta = rs.highest_root
    e = rs.basis_element(rs.index_of[theta])
    f = rs.basis_element(rs.index_of[tuple(-x for x in theta)])
    h = rs.bracket(e, f)
    # coroot of theta = h1 + h2
    assert h == rs.element({rs.cartan_index(1): 1,
                            rs.cartan_index(2): 1})


def test_root_strings_are_roots():
    rs = RootSystem("D", 4)
    idx = rs.index_of
    for p in range(len(rs.basis_roots)):
        for q in range(len(rs.basis_roots)):
            for k, c in rs.basis_bracket(p, q):
                b = rs.basis_roots[k]
                if b is not None:
                    assert b in idx
