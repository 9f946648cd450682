from __future__ import annotations

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from artloc import cli, extensions, linalg, modules
from artloc.catalog import example1_ring, goto_ring, hypersurface_ring, pair_ring, stretched_ring
from artloc.linalg import PrimeFieldMatrix
from artloc.extensions import (
    EnumerationBudgetExceeded,
    LiftFailure,
    NotHypersurface,
    build_presentation_matrix,
    check_matrix_condition,
    complement_ideal,
    ext_closure_contains_k,
    extension_from_cocycle,
    filt_census,
    filt_enumerate,
    hypersurface_ladder_check,
    splice_nodes,
    strict_upper_reduction,
)
from artloc.modules import (
    FpModule,
    FreePresentation,
    HomSequenceKeys,
    ModuleMap,
    RingMatrix,
    canonical_fingerprint,
    direct_sum,
    ext1,
    free_module,
    hom_dim,
    hom_space_matrices,
    is_isomorphic,
    minimal_free_resolution,
    quotient_module,
    regular_module,
    residue_field,
)

from conftest import closure_element
from oracles import (
    base_p_digits,
    commutes_with_action,
    hom_dim_kron,
    is_isomorphic_top_brute,
    module_axioms_hold,
    monic_rows_brute,
    orbit_closure_minima,
    orbit_minima_brute,
    pencil_jordan_type,
)


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
    qm = quotient_module(free_module(A, n), linalg.column_space(T.as_linear_map()))
    return FreePresentation(relations=T, cover=qm.proj.matrix)


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


def test_verify_flags_maps_that_are_not_linear(pair):
    """k -> R sending 1 to the unit and R -> k + k killing the unit form a
    short exact sequence of vector spaces, but neither map is A-linear."""
    k, R = residue_field(pair), regular_module(pair)
    kk = direct_sum(k, k)
    inject = ModuleMap(k, R, np.eye(pair.dim, 1, dtype=np.int64))
    project = ModuleMap(R, kk, np.eye(pair.dim, dtype=np.int64)[1:])
    assert not inject.is_linear() and not project.is_linear()
    witness = extensions.ExtensionWitness(sub=k, middle=R, quotient=kk, inject=inject, project=project)
    assert witness.verify() == ["inject is not A-linear", "project is not A-linear"]


def test_verify_presents_needs_both_halves_of_exactness(pair):
    """A presentation with a relation column dropped spans too little (the
    rank half fails) and one with a relation outside the cover's kernel
    leaves it (the product half fails); _verify_presentations rejects both."""
    p = pair.p
    x, y = pair.element_from_string("x"), pair.element_from_string("y")
    pres = _pres_from_matrix(pair, x, {(0, 1): y})
    extensions._verify_presentations([pres])
    entries = pres.relations.entries
    dropped = FreePresentation(RingMatrix(pair, entries[:, :1]), pres.cover)
    moved = entries.copy()
    moved[1, 1] = y
    outside = FreePresentation(RingMatrix(pair, moved), pres.cover)
    for bad, rank_half, product_half in ((dropped, False, True), (outside, True, False)):
        f, g = bad.relations.as_linear_map().array, bad.cover
        rank_f, rank_g, _ = linalg.exactness(f, g, p)
        assert (rank_f + rank_g == f.shape[0]) == rank_half
        assert (not (g @ f % p).any()) == product_half
        with pytest.raises(LiftFailure, match="cover kernel"):
            extensions._verify_presentations([bad])


def test_verify_presents_requires_the_cover_onto(example1):
    """R/(x) + k over example1 with R/(x)'s own 1x1 relations and its cover
    padded by a zero row: the image of the relations is still the kernel of
    the cover, but the cover has rank 4 onto a module of dimension 5, so it
    presents nothing and _verify_presentations rejects it."""
    x = closure_element(example1)
    _, base = extensions._base_presentation(example1, x)
    padded = FreePresentation(base.relations, np.vstack([base.cover, np.zeros((1, example1.dim), dtype=np.int64)]))
    T = padded.relations.as_linear_map().array
    assert linalg.exactness(T, padded.cover, example1.p)[2]
    assert linalg.rank_mod(padded.cover, example1.p) == 4 and padded.cover.shape[0] == 5
    with pytest.raises(LiftFailure, match="not onto"):
        extensions._verify_presentations([padded])


def _tamper_one_witness(w, other):
    """verify()'s problem strings, each with a copy of witness w that has it."""
    M, p = w.middle, w.middle.algebra.p
    Mk = direct_sum(M, residue_field(M.algebra))
    inj, prj = w.inject.matrix.copy(), w.project.matrix.copy()
    inj[:, 0] = 0
    prj[0] = 0
    swap = np.eye(M.dim, dtype=np.int64)[::-1]
    return [
        ("length is not additive", w._replace(
            middle=Mk, inject=ModuleMap(w.sub, Mk, np.vstack([w.inject.matrix, np.zeros((1, w.sub.dim))])),
            project=ModuleMap(Mk, w.quotient, np.hstack([w.project.matrix, np.zeros((w.quotient.dim, 1))])))),
        ("inject has a kernel", w._replace(inject=ModuleMap(w.sub, M, inj))),
        ("project is not onto", w._replace(project=ModuleMap(M, w.quotient, prj))),
        ("image(inject) differs from kernel(project)", w._replace(inject=other.inject)),
        ("inject is not A-linear", w._replace(inject=ModuleMap(w.sub, M, swap @ w.inject.matrix % p))),
        ("project is not A-linear", w._replace(project=ModuleMap(M, w.quotient, w.project.matrix @ swap % p))),
    ]


def test_stacked_certificates_catch_one_bad_witness_in_a_block(goto, monkeypatch):
    """A block of goto's level-3 middle terms passes verify_extensions; a
    copy with one witness broken in each of verify()'s six ways flags that
    witness alone with that problem, as its own verify() does, and
    certify_extensions raises on it. extension_block certifies its block:
    a relation map that leaves the kernel of X's cover, or one corrupted
    complement projection, makes it raise."""
    levels = filt_enumerate(goto, closure_element(goto), 2)
    es = ext1(levels[0][0].module, levels[1][1].module)
    block = next(extensions._orbit_minima(es))
    witnesses, _ = extensions.extension_block(es, block)
    assert len(witnesses) == 6
    assert extensions.verify_extensions(witnesses) == [[]] * 6
    for problem, bad in _tamper_one_witness(witnesses[2], witnesses[1]):
        tampered = [*witnesses[:2], bad, *witnesses[3:]]
        found = extensions.verify_extensions(tampered)
        assert problem in found[2] and found[2] == bad.verify()
        assert found[:2] + found[3:] == [[]] * 5
        with pytest.raises(LiftFailure, match=re.escape(problem)):
            extensions.certify_extensions(tampered)
    # a relation with a unit coordinate in F_0 leaves the kernel of X's
    # cover, so the class of (0, 1) no longer maps to X's generator
    D, neg_d1 = es.split_sum
    moved = neg_d1.copy()
    moved[0, 0] = (moved[0, 0] + 1) % goto.p
    bent = ext1(es.X, es.L)
    bent.__dict__["split_sum"] = (D, moved)
    with pytest.raises(LiftFailure, match="does not cover the generator"):
        extensions.extension_block(bent, block)
    real, calls = linalg.complement_projection, []

    def corrupt(span):
        proj, lift, keep = real(span)
        calls.append(span)
        return (proj[::-1] if len(calls) == 3 else proj), lift, keep

    monkeypatch.setattr(linalg, "complement_projection", corrupt)
    with pytest.raises(LiftFailure):
        extensions.extension_block(es, block)


def test_stacked_presentation_certificate_catches_one_bad_presentation(goto):
    """The goto level-3 presentations pass one stacked certificate; with
    one of them given a relation outside the cover's kernel, or a cover
    padded by a zero row, the stack is rejected."""
    levels = filt_enumerate(goto, closure_element(goto), 3)
    good = [node.presentation for node in levels[2]]
    extensions._verify_presentations(good)
    entries = good[5].relations.entries.copy()
    entries[0, -1] = (entries[0, -1] + goto.unit()) % goto.p
    moved = good[5]._replace(relations=RingMatrix(goto, entries))
    with pytest.raises(LiftFailure, match="cover kernel"):
        extensions._verify_presentations([*good[:5], moved, *good[6:]])
    padded = good[5]._replace(cover=np.vstack([good[5].cover, np.zeros((1, good[5].cover.shape[1]), dtype=np.int64)]))
    with pytest.raises(LiftFailure, match="not onto"):
        extensions._verify_presentations([*good[:5], padded, *good[6:]])


def test_stacked_steps_keep_each_algebra_apart():
    """The level-2 nodes of pair_ring(2) and pair_ring(3) have equal shapes,
    and each stacked step keeps the two rings apart: both presentations
    pass one certificate, an F_3 witness with its inject scaled by 2 stays
    exact next to an F_2 one, and the invariant profiles and k-summand
    flags of a list mixing the rings are those of each ring alone."""
    levels = []
    for p in (2, 3):
        A = pair_ring(p)
        levels.append(filt_enumerate(A, closure_element(A), 2)[1])
    node2, node3 = levels[0][1], levels[1][1]
    pres2, pres3 = node2.presentation, node3.presentation
    assert (pres2.relations.shape, pres2.cover.shape) == (pres3.relations.shape, pres3.cover.shape)
    extensions._verify_presentations([pres2, pres3])
    extensions._verify_presentations([pres3, pres2])
    w2, w3 = node2.chain[-1], node3.chain[-1]
    w3 = w3._replace(inject=ModuleMap(w3.sub, w3.middle, 2 * w3.inject.matrix))
    assert w2.verify() == [] and w3.verify() == []
    assert extensions.verify_extensions([w2, w3]) == [[], []]

    def fresh(level):
        return [FpModule(node.module.algebra, node.module.action) for node in level]

    alone = [fresh(level) for level in levels]
    for mods in alone:
        modules.iso_profiles(mods)
    mixed = [M for pair in zip(*map(fresh, levels)) for M in pair]
    modules.iso_profiles(mixed)
    one_ring = [M for pair in zip(*alone) for M in pair]
    assert [M.iso_profile() for M in mixed] == [M.iso_profile() for M in one_ring]
    assert modules.splitting_flags(mixed) == [flag for pair in zip(*map(modules.splitting_flags, alone))
                                              for flag in pair]


def test_filt_certifies_every_new_presentation_per_block(goto, monkeypatch):
    """The goto depth-3 census certifies the triangular presentations of
    each block's new classes with one stacked _verify_presentations call,
    and every class above level 1 is among them; with the lifts B bent, the
    census raises."""
    certified, blocks = [], []
    real_verify, real_minima, real_step = (extensions._verify_presentations, extensions._orbit_minima,
                                           extensions._triangular_step)

    def verify(presentations):
        certified.append(list(presentations))
        return real_verify(presentations)

    def minima(ext):
        for block in real_minima(ext):
            blocks.append(len(block))
            yield block

    monkeypatch.setattr(extensions, "_verify_presentations", verify)
    monkeypatch.setattr(extensions, "_orbit_minima", minima)
    levels = filt_enumerate(goto, closure_element(goto), 3)
    # the first call certifies the 1x1 presentation of X itself
    assert [[id(pres) for pres in batch] for batch in certified[:1]] == [[id(levels[0][0].presentation)]]
    assert len(certified) == 1 + len(blocks) > 1
    assert sorted(map(id, (pres for batch in certified[1:] for pres in batch))) == sorted(
        id(node.presentation) for level in levels[1:] for node in level)

    def bent(pres_Y, witness, x, B, m):
        return real_step(pres_Y, witness, x, (B + 1) % goto.p, m)

    monkeypatch.setattr(extensions, "_triangular_step", bent)
    with pytest.raises(LiftFailure, match="cover kernel"):
        filt_enumerate(goto, closure_element(goto), 3)


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


def test_filt_nodes_are_modules_with_linear_witnesses(filt_pool):
    for A, _, levels in filt_pool.values():
        for node in (node for level in levels for node in level):
            assert module_axioms_hold(A.table, node.module.action, A.p)
            for step in node.chain:
                for f in (step.inject, step.project):
                    assert commutes_with_action(f.source.action, f.target.action, f.matrix, A.p)


def test_filt_pool_counts_agree_with_a_brute_force_oracle(filt_pool):
    """The pinned class counts of dual, pair, y3, ci and goto, and of
    example1 through level 2, hold up under an oracle independent of
    is_isomorphic: two classes of one level with different iso profiles are
    not isomorphic, and no two with equal profiles are isomorphic by a brute
    force over every combination of their top maps. (A brute force over a
    Hom basis would need 2^13 to 2^38 combinations on these pairs.)"""
    checked = 0
    for name in ("dual", "pair", "y3", "ci", "goto", "example1"):
        A, _, levels = filt_pool[name]
        for level in levels[:2] if name == "example1" else levels:
            mods = [node.module for node in level]
            for i, M in enumerate(mods):
                for N in mods[i + 1 :]:
                    if M.iso_profile() == N.iso_profile():
                        assert not is_isomorphic_top_brute(M.action, N.action, A.p)
                        checked += 1
    assert checked == 29


def test_filt_presentations_are_triangular(filt_pool):
    for name in ("pair", "example1"):
        A, x, levels = filt_pool[name]
        node = levels[2][0]
        T = node.presentation.relations
        assert T.rows == T.cols == 3
        for i in range(3):
            assert (T.entries[i, i] == x).all()
            for j in range(i):
                assert not T.entries[i, j].any()


def test_presentation_matrix_frozen_for_dual_regular(dual, filt_pool):
    _, _, levels = filt_pool["dual"]
    R = regular_module(dual)
    node = next(n for n in levels[1] if bool(is_isomorphic(n.module, R)))
    T = node.presentation.relations
    rendered = [[dual.render_element(T.entries[i, j]) for j in range(2)] for i in range(2)]
    assert rendered == [["x", "1"], ["0", "x"]]


def test_build_presentation_matrix_certifies_every_node(filt_pool):
    for _, _, levels in filt_pool.values():
        for node in (node for level in levels for node in level):
            pres = build_presentation_matrix(node)
            assert pres is node.presentation
            assert pres.relations.rows == pres.relations.cols == node.level
            assert pres.cover.shape == (node.module.dim, node.level * node.module.algebra.dim)


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
    assert example1.render_element(red.presentation.relations.entries[0, 1]) == "y"
    assert red.complement.dim == 4
    assert red.complement.contains(red.presentation.relations.entries[0, 1])


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
    with pytest.raises(EnumerationBudgetExceeded) as err:
        filt_enumerate(pair, pair.element_from_string("x"), 3, budget=2)
    exc = err.value
    assert exc.level == 3
    assert exc.required == 6
    assert exc.budget == 2
    assert [len(level) for level in exc.partial_levels] == [1, 2]


def test_filt_census_keeps_the_levels_the_budget_finished(pair):
    """When the budget stops level 3, filt_census returns the two finished
    levels, one LevelCensus each, and complete is False; with the budget
    level 3 needs, it returns all three levels and complete is True."""
    x = pair.element_from_string("x")
    levels, census, complete = filt_census(pair, x, 3, budget=2)
    assert not complete
    assert [len(level) for level in levels] == [1, 2]
    assert [tuple(c) for c in census] == [(1, 1, (2,), (False,)), (2, 2, (4, 4), (False, False))]
    levels, census, complete = filt_census(pair, x, 3, budget=6)
    assert complete
    assert [(c.level, c.count) for c in census] == [(1, 1), (2, 2), (3, 3)]
    assert [c.lengths for c in census] == [tuple(node.module.dim for node in level) for level in levels]


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


@pytest.mark.parametrize("p, element, depth", [(2, "x", 8), (3, "x", 6), (2, "y", 6)])
def test_pair_census_classes_are_the_jordan_types_of_a_pencil(p, element, depth):
    """Over the pair ring k[x, y]/(x, y)^2 a level-n class M has an
    invertible u: M/mM -> mM from one generator, and its class is the
    similarity class of the nilpotent u^-1 v (README, Validation). The
    level-n classes have pairwise distinct Jordan types, read by an oracle
    that uses only ranks, and the types are every partition of n: no class
    is kept twice and none is dropped."""
    A = pair_ring(p)
    levels = filt_enumerate(A, A.element_from_string(element), depth)
    gens = [A.labels.index(v) for v in ("x", "y")]
    for n, level in enumerate(levels, start=1):
        types = [pencil_jordan_type(node.module.action[gens], p) for node in level]
        assert len(set(types)) == len(types)
        assert set(types) == set(_partitions(n))


def _filt_by_every_cocycle(A, x, n):
    """Levels 1..n of filt(R/(x)) from every cocycle of the full vector
    space, in little-endian base-p order; a class keeps its first member
    (pairwise is_isomorphic against the kept ones, in order), and each
    level is sorted by canonical_fingerprint."""
    X = quotient_module(regular_module(A), A.principal_ideal(x).basis).module
    levels = [[X]]
    for _ in range(2, n + 1):
        kept = []
        for Y in levels[-1]:
            es = ext1(X, Y)
            for m in range(A.p**es.dim):
                M = extension_from_cocycle(es, base_p_digits(m, A.p, es.dim)).middle
                if not any(is_isomorphic(K, M).isomorphic for K in kept):
                    kept.append(M)
        levels.append(sorted(kept, key=canonical_fingerprint))
    return levels


@pytest.mark.parametrize(
    "make, p, depth",
    [(stretched_ring, 3, 3), (pair_ring, 5, 3), (pair_ring, 2, 4), (goto_ring, 2, 3), (goto_ring, 3, 3)],
)
def test_orbit_minima_keep_the_first_member_of_every_class(make, p, depth, monkeypatch):
    """Enumerating only the least member of every automorphism orbit picks
    the same representatives, in the same order, as scanning every cocycle;
    the cocycles built for each class Y are exactly the orbit minima that a
    brute-force closure finds, fewer at the last level than the p^d the
    budget still counts."""
    A = make(p)
    x = closure_element(A)
    want = _filt_by_every_cocycle(A, x, depth)
    built = []
    real = extensions.extension_block

    def spy(es, block):
        built.extend((es.L, tuple(int(c) for c in coeffs)) for coeffs in block)
        return real(es, block)

    monkeypatch.setattr(extensions, "extension_block", spy)
    levels = filt_enumerate(A, x, depth)
    assert [[node.module.action.tobytes() for node in level] for level in levels] == [
        [M.action.tobytes() for M in level] for level in want
    ]
    X = levels[0][0].module
    required = 0
    for level in levels[:-1]:
        made = 0
        for node in level:
            Y = node.module
            es = ext1(X, Y)
            minima = orbit_minima_brute(Y.action, hom_space_matrices(Y, Y), es.reps, es.d1.entries, p)
            assert [c for L, c in built if L is Y] == minima
            made += len(minima)
        required = sum(p ** ext1(X, node.module).dim for node in level)
    assert made < required
    monkeypatch.undo()
    with pytest.raises(EnumerationBudgetExceeded) as err:
        filt_enumerate(A, x, depth, budget=required - 1)
    assert err.value.level == depth and err.value.required == required
    assert [len(level) for level in err.value.partial_levels] == [len(l) for l in want[:-1]]
    assert [len(level) for level in filt_enumerate(A, x, depth, budget=required)] == [
        len(level) for level in want
    ]


def _synthetic_generators(p, e, kind):
    """Generators of the orbit scan on F_p^e: the transvection I + E_12,
    diag(p - 1, 1, ..., 1) with a cyclic permutation, none, or scalars only."""
    eye = np.eye(e, dtype=np.int64)
    if kind == "transvection":
        g = eye.copy()
        g[0, 1] = 1
        return [g]
    if kind == "diagonal and cycle":
        g = eye.copy()
        g[0, 0] = p - 1
        return [g, np.roll(eye, 1, axis=0)]
    return {"none": [], "scalars": [eye, (p - 1) * eye]}[kind]


@pytest.mark.parametrize(
    "p, e, kind",
    [(2, 13, "transvection"), (3, 8, "diagonal and cycle"), (3, 5, "none"), (3, 5, "scalars"),
     (2, 0, "none"), (3, 0, "scalars")],
)
def test_orbit_minima_match_a_plain_closure_across_block_boundaries(p, e, kind, monkeypatch):
    """On a stub space with synthetic generators, the orbit scan yields the
    minima a plain closure over all p^e vectors finds, in increasing order,
    in blocks of BLOCK_ROWS rows but the last: two blocks for I + E_12 on
    F_2^13, which fixes 2^12 lines and pairs the rest; every monic row when
    no generator moves a line; one row of width 0 on the zero space."""
    gens = _synthetic_generators(p, e, kind)
    acts = np.array(gens, dtype=np.int64).reshape(len(gens), e, e)
    monkeypatch.setattr(extensions, "orbit_generators", lambda ext: (acts, acts))
    stub = SimpleNamespace(X=SimpleNamespace(algebra=SimpleNamespace(p=p)), dim=e)
    blocks = list(extensions._orbit_minima(stub))
    assert [len(b) for b in blocks[:-1]] == [linalg.BLOCK_ROWS] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) <= linalg.BLOCK_ROWS and all(b.shape[1] == e for b in blocks)
    rows = [tuple(int(c) for c in row) for b in blocks for row in b]
    assert rows == orbit_closure_minima(acts, p, e)  # the oracle lists them in increasing order
    if kind == "transvection":
        assert len(blocks) == 2 and len(rows) == 2**12 + 2**11
    if kind in ("none", "scalars"):
        assert rows == [tuple(r) for r in monic_rows_brute(p, e)]


@pytest.mark.parametrize("make, p", [(example1_ring, 2), (goto_ring, 2), (stretched_ring, 3), (pair_ring, 5)])
def test_orbit_generators_are_automorphisms_that_keep_middle_terms(make, p):
    """For every level-2 class Y, each generator of the orbit scan is an
    A-linear automorphism of Y that maps Z^1(X, Y) into itself, and the
    first cocycles xi and g xi have middle terms that is_isomorphic proves
    isomorphic with a verified witness."""
    A = make(p)
    levels = filt_enumerate(A, closure_element(A), 2)
    X = levels[0][0].module
    d2 = minimal_free_resolution(X, 2).differential(2)
    for node in levels[1]:
        Y = node.module
        es = ext1(X, Y)
        gs, acts = extensions.orbit_generators(es)
        assert len(gs) == len(acts) > 0 and acts.shape[1:] == (es.dim, es.dim)
        firsts = [base_p_digits(m, p, es.dim) for m in range(1, min(p**es.dim, 4))]
        for g, act in zip(gs, acts):
            assert ModuleMap(Y, Y, g).is_linear() and linalg.rank_mod(g, p) == Y.dim
            for rep in es.reps:
                moved = g @ rep % p  # images of F_1's generators under g phi
                for c in range(d2.cols):
                    relation = sum(Y.action_of(d2.entries[k, c]) @ moved[:, k] for k in range(d2.rows))
                    assert not np.any(relation % p)
            for xi in firsts:
                M = extension_from_cocycle(es, xi).middle
                N = extension_from_cocycle(es, act @ np.array(xi) % p).middle
                H = is_isomorphic(M, N).witness
                assert H is not None and H.is_linear() and linalg.rank_mod(H.matrix, p) == M.dim


def test_orbit_generators_reject_a_map_that_moves_a_cocycle_out_of_z1(filt_pool, monkeypatch):
    """A cyclic shift of Y's basis is invertible but not A-linear, and it
    sends a cocycle out of Z^1, so its action on Ext^1 has no coordinates:
    LiftFailure."""
    _, _, levels = filt_pool["example1"]
    X, Y = levels[0][0].module, levels[1][-1].module
    shuffle = np.roll(np.eye(Y.dim, dtype=np.int64), 1, axis=0)
    assert not ModuleMap(Y, Y, shuffle).is_linear()
    monkeypatch.setattr(extensions, "hom_space_matrices", lambda M, N: [shuffle])
    with pytest.raises(LiftFailure, match="out of Z"):
        extensions.orbit_generators(ext1(X, Y))


def _assert_sequence_keys(X, tests, Y, blocks, oracle_rows=0):
    """The keys of every cocycle in blocks equal hom_dim on the middle term;
    the first oracle_rows of them are also checked against hom_dim_kron."""
    es = ext1(X, Y)
    keys_of = HomSequenceKeys(X, [ext1(X, T) for T in tests]).keys_for(es)
    checked = 0
    for block in blocks(es):
        homs_out, homs_in = keys_of(block)
        assert homs_out.shape == homs_in.shape == (block.shape[0], len(tests))
        for coeffs, out_row, in_row in zip(block, homs_out.tolist(), homs_in.tolist()):
            M = extension_from_cocycle(es, coeffs).middle
            assert out_row == [hom_dim(M, T) for T in tests]
            assert in_row == [hom_dim(T, M) for T in tests]
            if checked < oracle_rows:
                p = M.algebra.p
                assert out_row == [hom_dim_kron(M.action, T.action, p) for T in tests]
                assert in_row == [hom_dim_kron(T.action, M.action, p) for T in tests]
            checked += 1
    return checked


@pytest.mark.parametrize("ring, p", [("example1", 2), ("goto", 2), ("stretched", 3), ("pair", 5)])
def test_sequence_keys_equal_hom_dims_on_every_candidate(ring, p, filt_pool):
    """The bucket keys filt_enumerate reads off the cocycles are the hom
    dimensions of every candidate middle term it builds, at every level."""
    if ring in ("example1", "goto"):
        A, x, levels = filt_pool[ring]
    else:
        A = {"stretched": stretched_ring, "pair": pair_ring}[ring](p)
        x = closure_element(A)
        levels = filt_enumerate(A, x, 3)
    X = levels[0][0].module
    candidates = 0
    for prev in levels[:-1]:
        tests = [node.module for node in prev] + [X]
        for node in prev:
            candidates += _assert_sequence_keys(
                X, tests, node.module, lambda es: linalg.monic_blocks(A.p, es.dim), oracle_rows=2
            )
    assert candidates > len(levels[-1])


def test_sequence_keys_on_split_extensions_and_empty_hom_spaces():
    """Ext^1(X, R) = 0 on a Gorenstein ring and Ext^1(X, 0) = 0 leave only
    the split middle term; a zero module Y or test T gives Hom(Y, T) = 0
    and Hom(T, X) = 0, so some tensors have no columns; an empty block and
    an empty list of tests give empty keys."""
    A = example1_ring()
    X = quotient_module(regular_module(A), A.principal_ideal(closure_element(A)).basis).module
    R, k = regular_module(A), residue_field(A)
    zero = FpModule(A, np.zeros((A.dim, 0, 0), dtype=np.int64))
    tests = [k, R, zero, X]

    def every(es):
        digits = [base_p_digits(m, 2, es.dim) for m in range(2**es.dim)]
        return [np.array(digits, dtype=np.int64).reshape(2**es.dim, es.dim)]

    assert ext1(X, R).dim == 0 and ext1(X, zero).dim == 0 and ext1(X, k).dim > 0
    for Y in (R, zero, k, X):
        _assert_sequence_keys(X, tests, Y, every, oracle_rows=2)
    keys_of = HomSequenceKeys(X, [ext1(X, T) for T in tests]).keys_for(ext1(X, k))
    assert [a.shape for a in keys_of(np.zeros((0, ext1(X, k).dim), dtype=np.int64))] == [(0, 4), (0, 4)]
    homs_out, homs_in = HomSequenceKeys(X, []).keys_for(ext1(X, k))(np.zeros((3, ext1(X, k).dim)))
    assert homs_out.shape == homs_in.shape == (3, 0)
    with pytest.raises(ValueError):
        HomSequenceKeys(X, [ext1(X, T) for T in tests]).keys_for(ext1(k, R))


@pytest.mark.parametrize("ring", ["example1", "goto", "stretched", "pair5"])
def test_ext1_space_through_its_projection_matches_the_augmented_solve(ring, filt_pool):
    """Each space that builds filt levels 2 and 3 agrees with Ext^1 taken
    against [reps | B^1]: the reps are the cocycles of the canonical basis
    of Z^1 that a greedy completion of the coboundaries B^1 keeps, the
    action of End(Y) is the first coordinates of the solve against
    [reps | B^1], and the stored dim Hom(X, Y) is hom_dim's."""
    if ring == "pair5":
        A = pair_ring(5)
        levels = filt_enumerate(A, closure_element(A), 2)
    else:
        A, _, levels = filt_pool[ring]
    p = A.p
    X = levels[0][0].module
    res = minimal_free_resolution(X, 2)
    for Y in [node.module for level in levels[:2] for node in level]:
        es = ext1(X, Y)
        Z = linalg.kernel_basis(res.differential(2).transpose().acting_on(Y))
        B = res.differential(1).transpose().acting_on(Y)
        picks = linalg.greedy_completion(B, Z)
        e = len(picks)
        assert es.dim == e and es.hom_dim == hom_dim(X, Y)
        # cocycle coordinates are generator major: entry (i, l) of reps[t] is row l * dim_Y + i
        assert np.array_equal(es.reps.transpose(0, 2, 1).reshape(e, -1), Z.array[:, picks].T)
        homs = hom_space_matrices(Y, Y)
        moved = [(g @ es.reps[t]).T.reshape(-1) for g in homs for t in range(e)]
        span = PrimeFieldMatrix(np.hstack([Z.array[:, picks], B.array]), p)
        sol = linalg.solve_matrix(span, PrimeFieldMatrix(np.reshape(moved, (len(moved), Z.rows)).T, p))
        assert sol is not None
        expected = sol.array[:e].reshape(e, len(homs), e).transpose(1, 0, 2)
        assert np.array_equal(es.pushforward(np.reshape(homs, (len(homs), Y.dim, Y.dim))), expected)


def test_keys_reduce_each_hom_constraint_once(goto, monkeypatch):
    """On the goto depth-3 census an Ext1Space takes Z^1 modulo B^1 through
    its one projection, with no greedy completion; HomSequenceKeys reads
    each test's dim Hom(X, T) and projection off its space, with no
    projection or hom_dim of its own; and keys_for builds one projection per
    test, the in side's, which also gives dim Hom(T, Y), with no hom_dim,
    and turns no Hom(Y, T) basis into full matrices. X's resolution, built
    by the first space, picks its generators greedily, so it counts as a
    phase of its own."""
    phases, calls = ["census"], []

    def phase(name, real):
        def run(*args, **kwargs):
            phases.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                phases.pop()
        return run

    def spy(name, real):
        def run(*args, **kwargs):
            calls.append((phases[-1], name))
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(modules.Resolution, "__init__", phase("resolution", modules.Resolution.__init__))
    monkeypatch.setattr(modules.Ext1Space, "__init__", phase("ext1", modules.Ext1Space.__init__))
    monkeypatch.setattr(modules.HomSequenceKeys, "__init__", phase("keys", modules.HomSequenceKeys.__init__))
    keys_for = modules.HomSequenceKeys.keys_for
    tests_seen = []

    def counted_keys_for(self, ext):
        tests_seen.append(len(self.tests))
        return phase("keys_for", keys_for)(self, ext)

    monkeypatch.setattr(modules.HomSequenceKeys, "keys_for", counted_keys_for)
    for name in ("greedy_completion", "complement_projection"):
        monkeypatch.setattr(linalg, name, spy(name, getattr(linalg, name)))
    for name in ("hom_dim", "hom_space_matrices", "_hom_matrices"):
        monkeypatch.setattr(modules, name, spy(name, getattr(modules, name)))
    levels = filt_enumerate(goto, closure_element(goto), 3)
    assert [len(level) for level in levels] == [1, 4, 13]

    def count(where, name):
        return calls.count((where, name))

    assert count("resolution", "greedy_completion") > 0
    assert count("ext1", "greedy_completion") == 0
    # one per space: the tests are the previous level's classes, X at
    # level 2 and the four level-2 classes at level 3
    assert count("ext1", "complement_projection") == 1 + 4
    assert count("keys", "complement_projection") == count("keys", "hom_dim") == 0
    assert tests_seen == [1] + [4] * 4
    assert count("keys_for", "complement_projection") == sum(tests_seen)
    assert count("keys_for", "hom_dim") == 0
    # the out side composes generator images with Y's cover section
    assert count("keys_for", "hom_space_matrices") == count("keys_for", "_hom_matrices") == 0


@pytest.mark.parametrize("ring, depth", [("goto", 4), ("stretched", 3)])
def test_census_reduces_each_end_constraint_once(ring, depth, request, monkeypatch):
    """End(Y) is asked for by is_isomorphic's gate on a new class, then by
    HomSequenceKeys and orbit_generators when Y is extended and by keys_for
    when Y is its own test; the kernel of Y's End constraint
    d1(Y)^T acting on Y is taken once per class all the same, and exactly
    once for every class that is extended."""
    A = request.getfixturevalue(ring)
    reduced = []
    real = linalg.kernel_basis

    def spy(m):
        reduced.append((m.shape, m.array.tobytes()))
        return real(m)

    monkeypatch.setattr(linalg, "kernel_basis", spy)
    levels = filt_enumerate(A, closure_element(A), depth)
    for lev, nodes in enumerate(levels, start=1):
        for node in nodes:
            M = node.module
            D = modules._presentation_data(M).relations.transpose().acting_on(M)
            times = reduced.count((D.shape, D.array.tobytes()))
            assert times == 1 if lev < depth else times <= 1, (lev, times)


def test_filt_resolves_only_modules_that_become_classes(goto, monkeypatch):
    """Bucket keys come from the cocycles, and every class above level 1
    takes its homs through its verified triangular presentation, so the
    only class ever resolved is X = R/(x), by the two-step resolution its
    Ext^1 spaces share; no one-step resolution is built at all."""
    made = []
    real = modules.Resolution.__init__

    def spy(self, M, steps):
        made.append((M, steps))
        real(self, M, steps)

    monkeypatch.setattr(modules.Resolution, "__init__", spy)
    levels = filt_enumerate(goto, closure_element(goto), 3)
    assert [len(level) for level in levels] == [1, 4, 13]
    assert made == [(levels[0][0].module, 2)]


def test_filt_profiles_every_cocycle_block_in_one_batch(monkeypatch, tmp_path):
    """`filt rings/example1.ring --depth 3` fills the iso profiles of each
    block of orbit minima with one iso_profiles call on that block's middle
    terms, and never computes a profile one module at a time."""
    blocks, batches, unprofiled = [], [], []
    real_minima, real_batch, real_profile = extensions._orbit_minima, extensions.iso_profiles, FpModule.iso_profile

    def minima(ext):
        for block in real_minima(ext):
            blocks.append(len(block))
            yield block

    def batch(mods):
        batches.append(len(mods))
        return real_batch(mods)

    def profile(M):
        if M._profile is None:
            unprofiled.append(M)
        return real_profile(M)

    monkeypatch.setattr(extensions, "_orbit_minima", minima)
    monkeypatch.setattr(extensions, "iso_profiles", batch)
    monkeypatch.setattr(FpModule, "iso_profile", profile)
    ring = Path(__file__).resolve().parent.parent / "rings" / "example1.ring"
    assert cli.main(["filt", str(ring), "--depth", "3", "--quiet", "--json", str(tmp_path / "r.json")]) == 0
    assert blocks and batches == blocks
    assert not unprofiled


@pytest.mark.parametrize("command, ring, depth, tests", [
    ("filt", "example1", 3, 126),
    ("filt", "goto", 3, 9),
    ("closure", "stretched", 3, 25),
    ("filt", "goto", 4, 62),
])
def test_census_isomorphism_test_counts(monkeypatch, tmp_path, command, ring, depth, tests):
    """The number of isomorphism tests a census makes: a middle term faces
    only the classes in its bucket, keyed on its iso profile and its Hom
    dimensions against the previous level's classes, so a change to the
    bucket key shows here."""
    calls = []
    real = extensions.is_isomorphic

    def spy(M, N):
        calls.append((M, N))
        return real(M, N)

    monkeypatch.setattr(extensions, "is_isomorphic", spy)
    path = Path(__file__).resolve().parent.parent / "rings" / f"{ring}.ring"
    args = [command, str(path), "--depth", str(depth), "--quiet", "--json", str(tmp_path / "r.json")]
    assert cli.main(args) == 0
    assert len(calls) == tests


def test_filt_resolves_x_once_per_census(example1, monkeypatch):
    """Every Ext^1(X, Y) of a census and the presentation of X share one
    two-step resolution of X = R/(x); nothing else is resolved two steps."""
    made = []
    real = modules.Resolution.__init__

    def spy(self, M, steps):
        made.append((M, steps))
        real(self, M, steps)

    monkeypatch.setattr(modules.Resolution, "__init__", spy)
    levels = filt_enumerate(example1, closure_element(example1), 3)
    X = levels[0][0].module
    assert [len(level) for level in levels] == [1, 8, 134]
    assert [M for M, steps in made if steps == 2] == [X]
    assert all(M is not X for M, steps in made if steps == 1)


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
