import random
import zlib

import pytest

from loopalg import pbw_monomials as pbw
from loopalg import reduction_engine as eng
from loopalg.loop_affine import D, AlgebraSpec

import tuple_oracles as tup


def rand_generator(spec, rng, m, span=1):
    """A random nonzero length-m monomial generator with small exponents."""
    word = []
    for _ in range(m):
        b = rng.choice(spec.basis.elements)
        n = rng.randrange(-span, span + 1)
        n = n - (n - b.s) % spec.r
        word.append((b.index, n))
    return {pbw.mono_sorted(spec, tuple(word)): spec.scalar(1)}


def ell_of(spec, elem):
    return eng.min_exponent(spec, spec.encode(elem))


def rand_target(spec, rng, m, start, gap=None):
    """A standard monomial over root lines with strictly increasing
    exponents starting above `start`."""
    roots = [b for b in spec.basis.elements if b.kind == "root"]
    word = []
    k = start
    for _ in range(m):
        b = rng.choice(roots)
        k += rng.randrange(1, 3) * spec.r + (gap or 2 * spec.r)
        n = k + (b.s - k) % spec.r
        word.append((b.index, n))
        k = n
    return tuple(word)


def test_kill_positive_action_lands_on_theta_line(spec_cache):
    spec = spec_cache("A1:r1")
    e, h, f = 2, 1, 0
    F = {((h, 1),): spec.scalar(1)}
    G, trace = eng.kill_positive_action(spec, spec.encode(F), "+")
    G = spec.decode(G)
    top = spec.basis.theta_plus.index
    assert G and all(all(L[0] == top for L in m) for m in G)
    assert trace.replay(spec, F) == G


def test_kill_negative_action(spec_cache):
    spec = spec_cache("A2:r2")
    F = {((2, 0), (5, 1)): spec.scalar(1)}
    G, trace = eng.kill_positive_action(spec, spec.encode(F), "-")
    G = spec.decode(G)
    bot = spec.basis.theta_minus.index
    assert G and all(all(L[0] == bot for L in m) for m in G)
    assert trace.replay(spec, F) == G


def test_kill_already_killed_is_identity(spec_cache):
    spec = spec_cache("A1:r1")
    e = spec.basis.theta_plus.index
    F = {((e, 1), (e, 2)): spec.scalar(1)}
    G, trace = eng.kill_positive_action(spec, spec.encode(F), "+")
    assert spec.decode(G) == F and trace.steps == []


def test_realize_congruence_class_m1(spec_cache):
    spec = spec_cache("A1:r1")
    e, f = 2, 0
    F = {((e, 1),): spec.scalar(1)}
    H, tr = eng.kill_positive_action(spec, spec.encode(F), "-")
    fb = spec.basis.elements[f]
    G, a, tr = eng.realize_congruence_class(spec, H, [fb], tr)
    (m,) = [max(G, key=lambda mo: pbw.key_reverse(spec, mo))]
    assert all(spec.letter_of(x)[0] == f for x in m)
    assert tr.replay(spec, F) == spec.decode(G)


@pytest.mark.parametrize("label", ["A1:r1", "A2:r2", "D4:r3"])
@pytest.mark.parametrize("m", [1, 2])
def test_construct_reaches_target(label, m, spec_cache):
    spec = spec_cache(label)
    rng = random.Random(zlib.crc32(("%s:%d" % (label, m)).encode()))
    F = rand_generator(spec, rng, m)
    letters = tuple(
        spec.basis.elements[L[0]]
        for L in rand_target(spec, rng, m, 0))
    plan = eng.reduction_plan(spec, F, letters)
    base = plan["threshold"]
    # rebuild a concrete target over those lines above the threshold
    k = base
    M = []
    for b in letters:
        k += 2 * spec.r + 1
        n = k + (b.s - k) % spec.r
        M.append((b.index, n))
        k = n
    M = tuple(M)
    H, trace = eng.construct_H_M(spec, F, M, plan=plan)
    lead, _ = pbw.leading(spec, H)
    assert lead == M
    assert trace.replay(spec, F) == H
    # only positive-exponent acting letters
    for step in trace.steps:
        assert step[0] == "bracket" and step[2] >= 1
    assert ell_of(spec, H) >= ell_of(spec, F)


def test_threshold_error_carries_threshold(spec_cache):
    spec = spec_cache("A1:r1")
    e, f = 2, 0
    F = {((e, 1),): spec.scalar(1)}
    fb = spec.basis.elements[f]
    plan = eng.reduction_plan(spec, F, (fb,))
    bad = ((f, plan["threshold"] - 1 - (plan["threshold"] - 1 - fb.s)
            % spec.r),)
    with pytest.raises(eng.ThresholdError) as exc:
        eng.construct_H_M(spec, F, bad, plan=plan)
    assert exc.value.threshold == plan["threshold"]


def test_uniform_threshold_dominates_class_thresholds(spec_cache):
    spec = spec_cache("A1:r1")
    e = spec.basis.theta_plus.index
    F = {((e, 1),): spec.scalar(1)}
    n = eng.uniform_threshold(spec, F, 1)
    for b in spec.basis.root_vectors():
        assert eng.reduction_plan(spec, F, (b,))["threshold"] <= n
    with pytest.raises(ValueError):
        eng.uniform_threshold(spec, F, 3)


def test_project_to_derived(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    e = spec.basis.theta_plus.index
    F = {(D, (e, 1)): spec.scalar(1)}
    H, trace = eng.project_to_derived(spec, F)
    assert H and all(D not in m for m in H)
    assert trace.replay(spec, F) == H


def test_project_to_derived_dfree_input_unchanged(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    e = spec.basis.theta_plus.index
    F = {((e, 1),): spec.scalar(1)}
    H, trace = eng.project_to_derived(spec, F)
    assert H == F and trace.steps == []


def test_project_to_derived_d_squared(tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"), flavor="affine", level=1)
    F = {(D, D): spec.scalar(1)}
    H, trace = eng.project_to_derived(spec, F)
    assert H and all(D not in m for m in H)
    assert all(len(m) == 2 for m in H)


def certificate(spec, F, letters):
    """A target over `letters` just above the plan's threshold, and the
    trace that reaches it from F."""
    plan = eng.reduction_plan(spec, F, letters)
    k = plan["threshold"]
    M = []
    for b in letters:
        k += 2 * spec.r + 1
        n = k + (b.s - k) % spec.r
        M.append((b.index, n))
        k = n
    M = tuple(M)
    return M, eng.construct_H_M(spec, F, M, plan=plan)[1]


@pytest.mark.parametrize("level", [0, 1])
def test_lift_to_U_preserves_leading_term(level, tb_cache):
    spec = AlgebraSpec(tb_cache("A1:r1"))
    spec_u = AlgebraSpec(tb_cache("A1:r1"), flavor="derived", level=level)
    rng = random.Random(17)
    for m in (1, 2):
        F = rand_generator(spec, rng, m)
        letters = tuple(spec.basis.elements[L[0]]
                        for L in rand_target(spec, rng, m, 0))
        M, trace = certificate(spec, F, letters)
        HU = eng.lift_to_U(spec_u, F, trace)
        lead, _ = pbw.leading(spec_u, HU)
        assert lead == M


@pytest.mark.parametrize("label", ["A1:r1", "A2:r2", "D4:r3"])
def test_lift_to_U_equals_product_difference_replay(label, tb_cache):
    """Whole lifted elements, derivation rule against one difference of
    products per step, at levels 0 and 1."""
    spec = AlgebraSpec(tb_cache(label))
    rng = random.Random(zlib.crc32(label.encode()))
    cases = []
    for m in (1, 2):
        for _ in range(2):
            F = rand_generator(spec, rng, m)
            letters = tuple(spec.basis.elements[L[0]]
                            for L in rand_target(spec, rng, m, 0))
            cases.append((F, certificate(spec, F, letters)[1]))
    if label == "A1:r1":    # the length-3 shape of the lift benchmark
        F = {pbw.mono_sorted(spec, ((0, -1), (1, -1), (0, 1))):
             spec.scalar(1)}
        letters = tuple(spec.basis.elements[k] for k in (0, 2, 0))
        cases.append((F, certificate(spec, F, letters)[1]))
    for level in (0, 1):
        spec_u = AlgebraSpec(tb_cache(label), flavor="derived", level=level)
        for F, trace in cases:
            got = eng.lift_to_U(spec_u, F, trace)
            assert got and got == tup.lift_to_U(spec_u, F, trace)
