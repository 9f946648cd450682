from __future__ import annotations

import numpy as np
import pytest

from artloc import linalg
from artloc.catalog import hypersurface_ring
from artloc.extensions import (
    EnumerationBudgetExceeded,
    FiltNode,
    NotHypersurface,
    build_presentation_matrix,
    check_matrix_condition,
    complement_ideal,
    ext_closure_contains_k,
    extension_from_cocycle,
    filt_enumerate,
    hypersurface_ladder_check,
    splice_nodes,
    strict_upper_reduction,
)
from artloc.modules import (
    FreePresentation,
    ModuleMap,
    RingMatrix,
    cyclic_module,
    direct_sum,
    ext1,
    free_module,
    is_isomorphic,
    quotient_module,
    regular_module,
    residue_field,
)

from conftest import closure_element


def _pres_from_matrix(A, x, uppers):
    """Upper-triangular presentation with diagonal x; uppers indexed by
    (row, col) above the diagonal."""
    n = max(max(i, j) for i, j in uppers) + 1 if uppers else 1
    entries = np.zeros((n, n, A.dim), dtype=np.int64)
    for i in range(n):
        entries[i, i] = x
    for (i, j), val in uppers.items():
        entries[i, j] = val
    T = RingMatrix(A, entries)
    free = free_module(A, n)
    qm = quotient_module(free, linalg.column_space(T.as_linear_map()))
    cover = ModuleMap(free, qm.module, qm.proj.matrix, validate=False)
    return FreePresentation(relations=T, cover=cover, minimal=False)


def test_extension_from_cocycle_splits_iff_zero(ci):
    k = residue_field(ci)
    es = ext1(k, k)
    assert es.dim == 2
    split = extension_from_cocycle(es, [0, 0])
    assert split.verify() == []
    assert bool(is_isomorphic(split.middle, direct_sum(k, k)))
    nonsplit = extension_from_cocycle(es, [1, 0])
    assert nonsplit.verify() == []
    assert nonsplit.middle.dim == 2
    assert not bool(is_isomorphic(nonsplit.middle, direct_sum(k, k)))


def test_filt_levels_over_dual_numbers(dual, filt_pool):
    _, _, levels = filt_pool["dual"]
    k = residue_field(dual)
    R = regular_module(dual)
    assert [len(level) for level in levels] == [1, 2, 2, 3]
    two = [node.module for node in levels[1]]
    assert any(bool(is_isomorphic(M, R)) for M in two)
    assert any(bool(is_isomorphic(M, direct_sum(k, k))) for M in two)
    third = [node.module for node in levels[2]]
    assert any(bool(is_isomorphic(M, direct_sum(R, k))) for M in third)


def test_filt_chain_links_and_witnesses(filt_pool):
    for name in ("dual", "pair", "y3"):
        _, _, levels = filt_pool[name]
        for level_nodes in levels:
            for node in level_nodes:
                assert len(node.chain) == node.level - 1
                for step in node.chain:
                    assert step.verify() == []
                if node.chain:
                    assert node.chain[-1].middle is node.module


def test_filt_requires_the_canonical_cyclic_module(pair):
    x = pair.element_from_string("x")
    k = residue_field(pair)
    with pytest.raises(ValueError):
        filt_enumerate(k, 2, x_element=x)


def test_filt_presentations_are_triangular(filt_pool):
    for name in ("pair", "example1"):
        A, x, levels = filt_pool[name]
        node = levels[2][0]
        T = node.presentation.relations
        assert T.rows == T.cols == 3
        for i in range(3):
            assert (T.entry(i, i) == x).all()
            for j in range(i):
                assert not T.entry(i, j).any()


def test_presentation_matrix_frozen_for_dual_regular(dual, filt_pool):
    _, _, levels = filt_pool["dual"]
    R = regular_module(dual)
    node = next(n for n in levels[1] if bool(is_isomorphic(n.module, R)))
    T = node.presentation.relations
    rendered = [[dual.render_element(T.entry(i, j)) for j in range(2)] for i in range(2)]
    assert rendered == [["x", "1"], ["0", "x"]]


def test_build_presentation_matrix_needs_an_element(pair, filt_pool):
    _, x, levels = filt_pool["pair"]
    node = levels[1][0]
    rebuilt = build_presentation_matrix(node, x_element=x)
    assert rebuilt.relations.rows == 2
    orphan = FiltNode(
        level=node.level, module=node.module, chain=node.chain, presentation=None
    )
    with pytest.raises(ValueError):
        build_presentation_matrix(orphan)


def test_check_matrix_condition_frozen_examples(dual, pair):
    xd = dual.element_from_string("x")
    xp = pair.element_from_string("x")
    one_d = dual.unit()
    assert check_matrix_condition(_pres_from_matrix(dual, xd, {(0, 1): one_d}), xd) == [True]
    assert check_matrix_condition(
        _pres_from_matrix(pair, xp, {(0, 1): pair.unit()}), xp
    ) == [False]
    y = pair.element_from_string("y")
    assert check_matrix_condition(_pres_from_matrix(pair, xp, {(0, 1): y}), xp) == [True]


def test_strict_upper_reduction_moves_entries_into_complement(example1):
    x = example1.element_from_string("x")
    mixed = example1.element_from_string("x + y")
    pres = _pres_from_matrix(example1, x, {(0, 1): mixed})
    red = strict_upper_reduction(pres)
    assert example1.render_element(red.presentation.relations.entry(0, 1)) == "y"
    assert red.complement.dim == 4
    assert red.complement.contains(red.presentation.relations.entry(0, 1))


def test_strict_upper_reduction_preserves_column_space(example1):
    x = example1.element_from_string("x")
    mixed = example1.element_from_string("x + y")
    pres = _pres_from_matrix(example1, x, {(0, 1): mixed})
    red = strict_upper_reduction(pres)
    before = linalg.column_space(pres.relations.as_linear_map())
    after = linalg.column_space(red.presentation.relations.as_linear_map())
    assert before == after


def test_strict_upper_reduction_rejects_unit_entries(pair):
    x = pair.element_from_string("x")
    pres = _pres_from_matrix(pair, x, {(0, 1): pair.unit()})
    with pytest.raises(ValueError):
        strict_upper_reduction(pres)


def test_complement_ideal_splits_the_maximal_ideal(example1, ci):
    for A in (example1, ci):
        x = A.element_from_string("x")
        I = complement_ideal(A, x)
        assert not I.contains(x)
        assert I.sum(A.principal_ideal(x)) == A.maxideal()


def test_splice_lands_in_the_sum_level(pair, filt_pool):
    _, x, levels = filt_pool["pair"]
    spliced = splice_nodes(levels[0][0], levels[1][1])
    assert spliced.level == 3
    assert spliced.module.dim == 6
    assert all(step.verify() == [] for step in spliced.chain)
    assert any(
        bool(is_isomorphic(spliced.module, node.module)) for node in levels[2]
    )
    assert check_matrix_condition(spliced.presentation, x) == [True, True]


def test_budget_exhaustion_carries_partial_levels(pair):
    x = pair.element_from_string("x")
    X = cyclic_module(pair, pair.principal_ideal(x))
    with pytest.raises(EnumerationBudgetExceeded) as err:
        filt_enumerate(X, 3, x_element=x, budget=2)
    exc = err.value
    assert exc.level == 3
    assert exc.required == 6
    assert exc.budget == 2
    assert [len(level) for level in exc.partial_levels] == [1, 2]


def test_closure_negative_census(closure_pair, closure_y3):
    for verdict in (closure_pair, closure_y3):
        assert not verdict.contains_k
        assert verdict.complete
        assert verdict.depth == 4
        assert [c.count for c in verdict.census] == [1, 2, 3, 5]
        assert all(not any(c.splits) for c in verdict.census)
        assert "bounded-depth evidence" in verdict.note


def test_closure_positive_on_dual_numbers(dual):
    x = dual.element_from_string("x")
    verdict = ext_closure_contains_k(dual, x, 2)
    assert verdict.contains_k
    assert verdict.witness_node.level == 1
    assert verdict.witness_vector is not None
    assert "level 1" in verdict.note


def test_closure_rejects_bad_elements(pair, stretched):
    with pytest.raises(ValueError):
        ext_closure_contains_k(pair, pair.zero(), 2)
    with pytest.raises(ValueError):
        ext_closure_contains_k(pair, pair.unit(), 2)
    deep = stretched.element_from_string("x^2")
    with pytest.raises(ValueError):
        ext_closure_contains_k(stretched, deep, 2)


def test_closure_reports_budget_truncation(pair):
    x = pair.element_from_string("x")
    verdict = ext_closure_contains_k(pair, x, 3, budget=2)
    assert not verdict.complete
    assert verdict.depth == 2
    assert "stopped early" in verdict.note


def test_ladder_reaches_everything():
    for n in (2, 3, 4, 5):
        report = hypersurface_ladder_check(hypersurface_ring(2, n))
        assert report.n == n
        assert report.all_reached
        assert len(report.witnesses) == n - 1
        full = tuple(range(1, n + 1))
        assert set(report.closures) == set(range(1, n))
        for reached in report.closures.values():
            assert reached == full
        for w in report.witnesses:
            assert w.verify() == []


def test_ladder_trivial_for_the_field():
    report = hypersurface_ladder_check(hypersurface_ring(2, 1))
    assert report.n == 1
    assert report.witnesses == []
    assert report.all_reached


def test_ladder_refuses_higher_edim(pair):
    with pytest.raises(NotHypersurface):
        hypersurface_ladder_check(pair)


def test_filt_deterministic_across_workers(pair):
    x = closure_element(pair)
    X = cyclic_module(pair, pair.principal_ideal(x))
    serial = filt_enumerate(X, 3, x_element=x, workers=1)
    threaded = filt_enumerate(X, 3, x_element=x, workers=3)
    fp_serial = [[n.module.fingerprint() for n in level] for level in serial]
    fp_threaded = [[n.module.fingerprint() for n in level] for level in threaded]
    assert fp_serial == fp_threaded
