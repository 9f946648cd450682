from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artloc import linalg, modules
from artloc.catalog import (
    complete_intersection_ring,
    example1_ring,
    goto_ring,
    hypersurface_ring,
    make_ring,
    pair_ring,
    stretched_ring,
)
from artloc.modules import (
    FpModule,
    ModuleMap,
    Resolution,
    RingMatrix,
    base_change,
    betti_numbers,
    cover_matrix,
    cyclic_module,
    direct_sum,
    ext1,
    free_module,
    hom_dim,
    hom_space_matrices,
    is_isomorphic,
    iso_profiles,
    jordan_type,
    matlis_dual,
    minimal_free_resolution,
    minimal_generators,
    minimal_presentation,
    quotient_module,
    regular_module,
    residue_field,
    splits_off_k,
    splitting_flags,
    stacks,
    sub_module,
    tor,
)
from artloc.algebra import quotient_ring
from artloc.extensions import complement_ideal, filt_enumerate

from conftest import closure_element
from oracles import (
    commutes_with_action,
    cover_columns,
    free_action,
    hom_basis_kron,
    hom_dim_kron,
    is_isomorphic_brute,
    is_isomorphic_top_brute,
    iso_profile_loop,
    module_axioms_hold,
    rank_fp,
    span_of_products_loop,
    unit_in_span_brute,
)


def _cyclic(A, text):
    return cyclic_module(A, A.principal_ideal(A.element_from_string(text)))


def test_regular_and_residue_dimensions(example1):
    assert regular_module(example1).dim == 6
    assert residue_field(example1).dim == 1
    assert free_module(example1, 3).dim == 18


def test_module_products_match_loop_oracles(example1, goto):
    """free_module, cover_matrix, radical_subspace, socle_subspace and
    Ext1Space.cocycle give the arrays of the per-element
    loops over every basis vector that they replaced, byte for byte; mM
    itself is computed once per module."""
    rng = np.random.default_rng(5)
    for A in (example1, goto, pair_ring(5)):
        p = A.p
        for rank in (0, 1, 3):
            got = free_module(A, rank).action
            assert got.tobytes() == free_action(regular_module(A).action, rank).tobytes()
        k = residue_field(A)
        for M in (k, regular_module(A), _cyclic(A, "x")):
            imgs = rng.integers(0, p, size=(2, 3, M.dim))
            got = cover_matrix(M, imgs)
            assert got.tobytes() == np.stack([cover_columns(M.action, g, p) for g in imgs]).tobytes()
            assert cover_matrix(M, imgs[0, :0]).shape == (M.dim, 0)
            # radical_subspace needs a submodule: the A-span of random vectors
            W = rng.integers(0, p, size=(M.dim, 2))
            AW = linalg.column_space(linalg.PrimeFieldMatrix(np.hstack([a @ W for a in M.action]), p))
            mw = np.hstack([(M.action[i] @ AW.array) % p for i in range(1, A.dim)])
            expect = linalg.column_space(linalg.PrimeFieldMatrix(mw, p))
            assert M.radical_subspace(AW) == expect
            mM = M.radical_subspace()
            assert mM is M.radical_subspace()  # cached on the module
            assert mM == linalg.column_space(linalg.PrimeFieldMatrix(np.hstack(M.action[1:]), p))
            soc = linalg.kernel_basis(linalg.PrimeFieldMatrix(np.vstack(M.action[1:]), p))
            assert M.socle_subspace() == soc
            es = ext1(M, k)
            for coeffs in rng.integers(0, p, size=(3, es.dim)):
                phi = np.zeros((k.dim, es.beta1), dtype=np.int64)
                for c, rep in zip(coeffs, es.reps):
                    phi = (phi + c * rep) % p
                assert es.cocycle(coeffs).tobytes() == phi.tobytes()


def test_module_action_validation(dual):
    with pytest.raises(ValueError):
        FpModule(dual, np.zeros((2, 2, 3), dtype=np.int64))  # action matrices must be square
    # the axioms are trusted on construction: the unit acting as zero is not caught
    action = FpModule(dual, np.zeros((2, 2, 2), dtype=np.int64)).action
    assert not module_axioms_hold(dual.table, action, dual.p)


def test_quotient_then_sub_roundtrip(example1):
    R = regular_module(example1)
    x = example1.element_from_string("x")
    qm = quotient_module(R, example1.principal_ideal(x).basis)
    assert qm.module.dim == 4
    # projection composed with the lift is the identity on the quotient
    comp = (qm.proj.matrix @ qm.lift.array) % 2
    assert (comp == np.eye(4, dtype=np.int64)).all()
    sm = sub_module(R, example1.socle().basis)
    assert sm.module.dim == 1
    assert linalg.rank_mod(sm.include.matrix, 2) == sm.module.dim


def test_quotients_and_submodules_by_ideals_are_modules(example1, stretched, pair):
    for A in (example1, stretched, pair):
        R = regular_module(A)
        m = A.maxideal()
        gens = [A.generator_set.column(j) for j in range(A.generator_set.cols)]
        ideals = [A.principal_ideal(g) for g in gens] + [m, m.power(2), A.socle()]
        for I in ideals:
            qm, sm = quotient_module(R, I.basis), sub_module(R, I.basis)
            assert qm.module.dim + sm.module.dim == A.dim
            for module in (qm.module, sm.module):
                assert module_axioms_hold(A.table, module.action, A.p)
            for f in (qm.proj, sm.include):
                assert commutes_with_action(f.source.action, f.target.action, f.matrix, A.p)
                assert f.is_linear()


def test_module_map_validates_action(example1):
    R = regular_module(example1)
    k = residue_field(example1)
    bad = np.zeros((6, 1), dtype=np.int64)
    bad[1, 0] = 1  # sends k's generator to x, which m does not kill
    assert not ModuleMap(k, R, bad).is_linear()
    socle = np.zeros((6, 1), dtype=np.int64)
    socle[5, 0] = 1  # yw spans the socle, which m does kill
    assert ModuleMap(k, R, socle).is_linear()


def test_hom_dims_small_cases(example1, dual):
    k = residue_field(example1)
    R = regular_module(example1)
    assert hom_dim(k, k) == 1
    assert hom_dim(R, R) == 6
    assert hom_dim(R, k) == 1
    # Hom(k, R) is the socle
    assert hom_dim(k, R) == 1
    kd = residue_field(dual)
    Rd = regular_module(dual)
    assert hom_dim(direct_sum(Rd, kd), direct_sum(Rd, kd)) == 5


def test_hom_dim_matches_kron_oracle(example1, pair):
    cases = []
    for A in (example1, pair):
        k = residue_field(A)
        R = regular_module(A)
        X = _cyclic(A, "x")
        cases += [(k, R), (R, k), (X, X), (X, k), (R, X)]
    for M, N in cases:
        assert hom_dim(M, N) == hom_dim_kron(M.action, N.action, M.algebra.p)


def test_hom_space_matrices_commute(example1):
    X = _cyclic(example1, "x")
    Y = _cyclic(example1, "z")
    mats = hom_space_matrices(X, Y)
    assert len(mats) == hom_dim(X, Y)
    for H in mats:
        for i in range(example1.dim):
            lhs = (Y.action[i] @ H) % 2
            rhs = (H @ X.action[i]) % 2
            assert (lhs == rhs).all()
    assert all(ModuleMap(X, Y, H).is_linear() for H in mats)


def test_betti_numbers_frozen(example1, dual, pair, ci):
    assert betti_numbers(residue_field(dual), 5) == [1, 1, 1, 1, 1, 1]
    assert betti_numbers(residue_field(pair), 3) == [1, 2, 4, 8]
    assert betti_numbers(residue_field(ci), 4) == [1, 2, 3, 4, 5]
    assert betti_numbers(residue_field(example1), 4) == [1, 4, 15, 56, 209]
    assert betti_numbers(_cyclic(example1, "x"), 4) == [1, 1, 3, 11, 41]


def test_benchmark_pins(example1, stretched):
    """The Betti and Tor values the resolve-tor benchmark jobs pin."""
    assert betti_numbers(residue_field(example1), 5) == [1, 4, 15, 56, 209, 780]
    k = residue_field(stretched)
    assert tor(k, k, 5) == 144


@functools.lru_cache(maxsize=None)
def _corpus_ring(name, p):
    if name == "field":
        return hypersurface_ring(p, 1)
    return {
        "example1": example1_ring,
        "stretched": stretched_ring,
        "pair": pair_ring,
        "goto": goto_ring,
        "ci": complete_intersection_ring,
    }[name](p)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 3),
    st.integers(0, 5),
    st.sampled_from(["example1", "stretched", "pair", "goto", "ci", "field"]),
)
@example(0, 2, 0, 0, "example1")
@example(0, 3, 2, 3, "field")
@example(1, 5, 3, 4, "goto")
def test_free_radical_subspace_matches_free_module(seed, p, rank, k, name):
    """m*W for a submodule W of A^rank, formed by span_of_products (the
    minimal generators of m acting block by block), equals m*W through every
    basis vector of m on the dense free module. W is the A-span of random
    vectors: m*W = sum_g g*W only holds for a submodule."""
    A = _corpus_ring(name, p)
    rng = np.random.default_rng(seed)
    W = rng.integers(0, p, size=(rank * A.dim, k))
    W[:, rng.random(k) < 0.3] = 0
    F = free_module(A, rank)
    AW = linalg.column_space(linalg.PrimeFieldMatrix(np.hstack([a @ W for a in F.action]), p))
    got = linalg.span_of_products(A.generator_mults(), AW.array, p)
    every = np.hstack([(a @ AW.array) % p for a in F.action[1:]] + [np.zeros((F.dim, 0), dtype=np.int64)])
    assert got.tobytes() == linalg.column_space(linalg.PrimeFieldMatrix(every, p)).tobytes()
    assert got.tobytes() == F.radical_subspace(AW).tobytes()


def _reference_resolution(M, steps):
    """The resolution built step by step through the dense free module
    A^b_prev and minimal_generators: (cover, betti, differentials)."""
    A, p = M.algebra, M.algebra.p
    gens = minimal_generators(M)
    cover = cover_matrix(M, np.reshape(gens, (len(gens), M.dim)))
    betti, diffs = [len(gens)], []
    current = linalg.PrimeFieldMatrix(cover, p)
    for _ in range(steps):
        b_prev = betti[-1]
        sygens = minimal_generators(free_module(A, b_prev), linalg.kernel_basis(current))
        entries = np.zeros((b_prev, len(sygens), A.dim), dtype=np.int64)
        for j, v in enumerate(sygens):
            entries[:, j, :] = v.reshape(b_prev, A.dim)
        d = RingMatrix(A, entries)
        diffs.append(d)
        betti.append(len(sygens))
        current = d.as_linear_map()
    return cover, betti, diffs


def test_resolution_matches_dense_free_module_reference(example1, stretched, goto):
    for A in (example1, stretched, goto):
        for M in (residue_field(A), _cyclic(A, "x")):
            res = Resolution(M, 3)
            cover, betti, diffs = _reference_resolution(M, 3)
            assert res.cover.tobytes() == cover.tobytes()
            assert res.betti == betti
            for got, want in zip(res.differentials, diffs, strict=True):
                assert got.entries.shape == want.entries.shape
                assert got.entries.tobytes() == want.entries.tobytes()


def test_resolution_builds_no_free_module(example1, monkeypatch):
    k = residue_field(example1)

    def refuse(A, rank):
        raise AssertionError("Resolution built a dense free module")

    monkeypatch.setattr(modules, "free_module", refuse)
    assert Resolution(k, 4).betti == [1, 4, 15, 56, 209]


def test_resolution_steps_stay_sparse(example1, monkeypatch):
    """The steps run on coordinate lists: no differential is multiplied out
    into its dense (b_prev * dim_A) x (b * dim_A) linear map."""
    k = residue_field(example1)

    def refuse(self, *args):
        raise AssertionError("Resolution built a dense linear map")

    monkeypatch.setattr(RingMatrix, "acting_on", refuse)
    monkeypatch.setattr(RingMatrix, "as_linear_map", refuse)
    assert Resolution(k, 5).betti == [1, 4, 15, 56, 209, 780]


def test_resolution_memory_stays_near_its_differentials(example1):
    """Resolving k over example1 to Betti 780 keeps its traced peak under
    25 MB; the dense steps peaked at 103 MB. The last differential's
    entries alone are 209 x 780 x 6 int64, 7.8 MB."""
    k = residue_field(example1)
    Resolution(k, 1)  # the algebra caches its tables outside the traced region
    tracemalloc.start()
    try:
        Resolution(k, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def test_resolution_one_step_deeper(example1):
    """Betti 2,911, out of reach of the dense steps (about 1.5 GB)."""
    assert Resolution(residue_field(example1), 6).betti == [1, 4, 15, 56, 209, 780, 2911]


def test_resolution_builds_no_dense_differential(example1):
    """Resolving k over example1 to Betti 2,911 keeps its traced peak under
    50 MB: the last differential is handed over as its nonzero entries, where
    its dense 780 x 2,911 x 6 int64 entries alone were 109 MB."""
    k = residue_field(example1)
    Resolution(k, 1)  # the algebra caches its tables outside the traced region
    tracemalloc.start()
    try:
        Resolution(k, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_resolution_differentials_are_stored_as_their_nonzero_entries(example1, stretched):
    """The coordinates a resolution hands over are the ones the dense
    constructor reads off the same entries: row-major, nonzero, no repeats."""
    for A in (example1, stretched):
        for M in (residue_field(A), _cyclic(A, "x")):
            for d in Resolution(M, 4).differentials:
                want = RingMatrix(A, d.entries)
                assert d.shape == want.shape
                for got_a, want_a in ((d.row, want.row), (d.col, want.col), (d.val, want.val)):
                    assert got_a.shape == want_a.shape and got_a.tobytes() == want_a.tobytes()


def test_resolutions_of_free_modules_and_over_a_field(example1, goto):
    for A in (example1, goto):
        assert betti_numbers(regular_module(A), 3) == [1, 0, 0, 0]
        zero = minimal_free_resolution(free_module(A, 0), 2)
        assert zero.betti == [0, 0, 0]
        assert [d.entries.shape for d in zero.differentials] == [(0, 0, A.dim)] * 2
        assert betti_numbers(free_module(A, 2), 2) == [2, 0, 0]
    for p in (2, 3, 5):
        F = _corpus_ring("field", p)
        assert F.dim == 1
        assert betti_numbers(residue_field(F), 3) == [1, 0, 0, 0]
        assert betti_numbers(free_module(F, 3), 2) == [3, 0, 0]
        assert betti_numbers(free_module(F, 0), 2) == [0, 0, 0]


def test_resolution_differentials_compose_to_zero(example1):
    k = residue_field(example1)
    res = minimal_free_resolution(k, 3)
    for i in range(len(res.differentials) - 1):
        d_out = res.differentials[i].as_linear_map().array
        d_in = res.differentials[i + 1].as_linear_map().array
        assert not ((d_out @ d_in) % 2).any()
    # minimal: every differential entry lies in the maximal ideal
    entries = np.vstack([d.entries.reshape(-1, example1.dim) for d in res.differentials])
    assert linalg.solve_matrix(example1.maxideal().basis, linalg.PrimeFieldMatrix(entries.T, 2)) is not None


def test_minimal_presentation_of_cyclic_module(example1):
    X = _cyclic(example1, "x")
    pres = minimal_presentation(X)
    assert pres.betti0 == 1
    # the first syzygy of R/(x) is the principal ideal (x) itself
    assert pres.betti1 == 1


def test_tor_is_symmetric(example1, ci):
    for A, left, right in [
        (example1, "x", "z"),
        (example1, "x", "y"),
        (ci, "x", "y"),
    ]:
        M, N = _cyclic(A, left), _cyclic(A, right)
        for i in (1, 2):
            assert tor(M, N, i) == tor(N, M, i)


def test_tor_frozen_values(example1):
    X = _cyclic(example1, "x")
    k = residue_field(example1)
    assert tor(X, _cyclic(example1, "z"), 1) == 0
    assert tor(X, k, 1) == 1
    assert tor(X, k, 2) == 3


def test_tor_agrees_with_identities_outside_its_ranks(example1, stretched, pair, dual, ci, goto):
    """Tor_i(M, k) is the Betti number b_i(M), R is flat, and
    Tor_0(R/I, N) = N/IN, over k and the cyclic modules R/(g) of every
    minimal generator g of each corpus ring."""
    for A in (example1, stretched, pair, dual, ci, goto):
        ideals = [A.maxideal()] + [A.principal_ideal(g) for g in A.generator_set.array.T]
        cyclic = [cyclic_module(A, I) for I in ideals]
        k, R = residue_field(A), regular_module(A)
        for M in cyclic:
            betti = betti_numbers(M, 3)
            for i in range(4):
                assert tor(M, k, i) == betti[i]
                if i:
                    assert tor(M, R, i) == 0
        for I, M in zip(ideals, cyclic):
            for N in cyclic:
                IN = linalg.span_of_products(
                    np.stack([N.action_of(v) for v in I.basis.array.T]), np.eye(N.dim, dtype=np.int64), A.p
                )
                assert tor(M, N, 0) == quotient_module(N, IN).module.dim


def test_tor_builds_no_dense_differential(example1):
    """Tor_4(k, R) over example1 reads both ranks off coordinate lists and
    keeps its traced peak under 8 MiB; multiplying d_5 out on R densely,
    a 1,254 x 4,680 int64 array, peaked at 82.8 MiB."""
    k, R = residue_field(example1), regular_module(example1)
    Resolution(k, 1)  # the algebra caches its tables outside the traced region
    tracemalloc.start()
    try:
        assert tor(k, R, 4) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_ext1_dimensions(example1, dual, ci):
    for A, expected in ((dual, 1), (ci, 2), (example1, 4)):
        k = residue_field(A)
        assert ext1(k, k).dim == expected
    assert ext1(regular_module(dual), residue_field(dual)).dim == 0


def test_jordan_type_partitions(example1):
    A4 = hypersurface_ring(2, 4)
    x4 = A4.generator_set.column(0)
    assert jordan_type(regular_module(A4), x4) == (4,)
    assert jordan_type(direct_sum(regular_module(A4), residue_field(A4)), x4) == (4, 1)
    x = example1.element_from_string("x")
    assert jordan_type(regular_module(example1), x) == (2, 2, 1, 1)


def test_matlis_dual_involution(example1, pair):
    for A in (example1, pair):
        R = regular_module(A)
        double = matlis_dual(matlis_dual(R))
        assert bool(is_isomorphic(R, double))
        assert module_axioms_hold(A.table, matlis_dual(R).action, A.p)


def test_matlis_dual_detects_gorenstein(example1, pair):
    """The dual of the non-Gorenstein pair's R has the dimension and action
    ranks of R, and differs from it only in dim mM, the profile entry that
    lets is_isomorphic read its top maps as square: both argument orders
    are decided by the profiles alone, without an error."""
    R = regular_module(example1)
    assert bool(is_isomorphic(R, matlis_dual(R)))
    Rp, dual = regular_module(pair), matlis_dual(regular_module(pair))
    assert Rp.iso_profile() == (3, 2, (1, 1))
    assert dual.iso_profile() == (3, 1, (1, 1))
    assert not bool(is_isomorphic(Rp, dual))
    assert not bool(is_isomorphic(dual, Rp))


def test_splits_off_k(example1, dual):
    k = residue_field(example1)
    R = regular_module(example1)
    M = direct_sum(R, k)
    w = splits_off_k(M)
    assert w is not None
    # the witness spans a trivial summand: killed by m, outside rad(M)
    assert linalg.solve(M.radical_subspace(), w) is None
    for i in range(1, example1.dim):
        assert not ((M.action[i] @ w) % 2).any()
    assert splits_off_k(R) is None
    assert splits_off_k(regular_module(dual)) is None


def _split_identity_holds(mods):
    flags = splitting_flags(mods)
    assert flags == [splits_off_k(M) is not None for M in mods]
    return flags


def test_splitting_flags_match_splits_off_k(example1, goto, stretched, pair, dual, filt_pool):
    """splitting_flags reads "k splits off M" off three ranks per module,
    d - rank G > rank R - rank GR, and agrees with the socle witness search
    of splits_off_k on every census class of example1, goto and stretched
    at depth 3 and pair at depth 4 (none splits), on the classes of
    hypersurface4 and the dual numbers (some split), on M + k for census
    classes M, and on one list mixing dimensions with a zero module."""
    census = [node.module for level in filt_pool["example1"][2] for node in level]
    census += [node.module for level in filt_pool["goto"][2] for node in level]
    census += [node.module for level in filt_enumerate(stretched, closure_element(stretched), 3)
               for node in level]
    census += [node.module for level in filt_pool["pair"][2] for node in level]
    assert not any(_split_identity_holds(census))
    hyper = hypersurface_ring(3, 4)
    splitting = [node.module for level in filt_enumerate(hyper, closure_element(hyper), 3) for node in level]
    splitting += [node.module for level in filt_pool["dual"][2] for node in level]
    flags = _split_identity_holds(splitting)
    assert any(flags) and not all(flags)
    sums = [direct_sum(M, residue_field(M.algebra)) for M in census[::7]]
    assert all(_split_identity_holds(sums))
    zero = FpModule(example1, np.zeros((example1.dim, 0, 0), dtype=np.int64))
    k, R = residue_field(example1), regular_module(example1)
    mixed = [R, zero, direct_sum(R, k), k, *census[1:12], direct_sum(k, k), zero]
    assert _split_identity_holds(mixed)[:4] == [False, False, True, True]


def test_is_isomorphic_finds_witness_for_permuted_module(example1):
    R = regular_module(example1)
    perm = np.array([3, 0, 5, 1, 4, 2])
    P = np.eye(6, dtype=np.int64)[:, perm]
    Pinv = np.eye(6, dtype=np.int64)[perm, :]
    conj = np.stack([(Pinv @ R.action[i] @ P) % 2 for i in range(6)])
    N = FpModule(example1, conj)
    result = is_isomorphic(R, N)
    assert bool(result)
    H = result.witness.matrix
    assert linalg.rank_mod(H, 2) == 6
    for i in range(6):
        assert (((N.action[i] @ H) - (H @ R.action[i])) % 2 == 0).all()


def test_is_isomorphic_rejects_different_structure(example1, pair):
    k = residue_field(pair)
    X = _cyclic(pair, "x")
    assert not bool(is_isomorphic(X, direct_sum(k, k)))
    assert not bool(is_isomorphic(residue_field(example1), regular_module(example1)))


@functools.lru_cache(maxsize=None)
def _ci(p):
    return complete_intersection_ring(p)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from(["zero", "k", "R", "R+k", "R/(x)"]),
)
@example(0, 2, 0, 2, "R")
@example(0, 3, 2, 0, "R+k")
@example(0, 5, 2, 3, "zero")
def test_acting_on_matches_per_entry_blocks(seed, p, rows, cols, which):
    A = _ci(p)
    N = {
        "zero": lambda: FpModule(A, np.zeros((A.dim, 0, 0), dtype=np.int64)),
        "k": lambda: residue_field(A),
        "R": lambda: regular_module(A),
        "R+k": lambda: direct_sum(regular_module(A), residue_field(A)),
        "R/(x)": lambda: _cyclic(A, "x"),
    }[which]()
    T = RingMatrix(A, np.random.default_rng(seed).integers(0, p, size=(rows, cols, A.dim)))
    d = N.dim
    want = np.zeros((rows * d, cols * d), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            want[r * d : (r + 1) * d, c * d : (c + 1) * d] = N.action_of(T.entries[r, c])
    got = T.acting_on(N)
    assert got.p == p
    assert got.shape == want.shape
    assert (got.array == want).all()


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(["k", "R", "R+k"]),
    st.sampled_from([0.8, 0.95, 1.0]),
)
@example(0, 3, 3, 4, "R", 1.0)  # every entry zero
def test_acting_on_skips_zero_entries(seed, p, rows, cols, which, zero_share):
    """Mostly-zero and all-zero entry matrices: the blocks of the zero
    entries are skipped, and every block still matches the per-entry action."""
    A = _ci(p)
    N = {"k": residue_field, "R": regular_module, "R+k": lambda A: direct_sum(regular_module(A), residue_field(A))}[which](A)
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, p, size=(rows, cols, A.dim))
    entries[rng.random((rows, cols)) < zero_share] = 0
    T = RingMatrix(A, entries)
    d = N.dim
    got = T.acting_on(N)
    assert got.shape == (rows * d, cols * d)
    for r in range(rows):
        for c in range(cols):
            assert (got.array[r * d : (r + 1) * d, c * d : (c + 1) * d] == N.action_of(entries[r, c])).all()


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 65521]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.5, 1.0]),
)
@example(0, 2, 0, 3, 0.0)
@example(0, 3, 3, 0, 0.0)
@example(0, 65521, 3, 4, 1.0)  # every entry zero
@example(0, 65521, 4, 3, 0.0)  # every entry nonzero
def test_ring_matrix_coordinates_match_the_dense_entries(seed, p, rows, cols, zero_share):
    """Dense entries -> coordinates -> entries is the identity; transpose
    and acting_on, read off the coordinates, match the per-entry dense
    reference, and transpose keeps the stored form."""
    A = _ci(p)
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, p, size=(rows, cols, A.dim))
    dense[..., 0] = np.where(dense.any(axis=2), dense[..., 0], 1)  # every entry nonzero ...
    dense[rng.random((rows, cols)) < zero_share] = 0  # ... until a share is zeroed

    def assert_stored(T, want):
        assert T.shape == want.shape[:2]
        assert T.entries.shape == want.shape and T.entries.tobytes() == want.tobytes()
        keys = T.row * T.cols + T.col
        assert (np.diff(keys) > 0).all()  # row-major, no repeats
        assert T.val.shape == (keys.size, A.dim) and T.val.any(axis=1).all()
        assert (T.val == want[T.row, T.col]).all()
        assert keys.size == int(want.any(axis=2).sum())

    T = RingMatrix(A, dense + p * rng.integers(-2, 3, size=dense.shape))  # residues of any integers
    assert_stored(T, dense)
    Tt = T.transpose()
    assert_stored(Tt, np.transpose(dense, (1, 0, 2)))
    for N in (residue_field(A), regular_module(A)):
        d = N.dim
        for M, ent in ((T, dense), (Tt, np.transpose(dense, (1, 0, 2)))):
            want = np.zeros((M.rows * d, M.cols * d), dtype=np.int64)
            for r in range(M.rows):
                for c in range(M.cols):
                    want[r * d : (r + 1) * d, c * d : (c + 1) * d] = N.action_of(ent[r, c])
            got = M.acting_on(N)
            assert got.shape == want.shape and (got.array == want).all()


def test_resolution_certificate_rejects_a_missing_syzygy(example1, monkeypatch):
    """A step that keeps one generator too few spans a proper submodule of
    the syzygies: its image lies in the kernel, but its rank falls short of
    the kernel's dimension, and the certificate catches it."""
    real = linalg.greedy_unit_completion

    def drop_one(m, p):
        return real(m, p)[:-1]

    monkeypatch.setattr(linalg, "greedy_unit_completion", drop_one)
    with pytest.raises(RuntimeError, match="failed to span"):
        Resolution(residue_field(example1), 2)


def _random_conjugate(M, rng):
    """The same module in a random basis: isomorphic, different bytes."""
    p, n = M.algebra.p, M.dim
    while True:
        S = rng.integers(0, p, size=(n, n))
        if linalg.rank_mod(S, p) == n:
            break
    S_inv = linalg.solve_matrix(
        linalg.PrimeFieldMatrix(S, p), linalg.PrimeFieldMatrix.identity(n, p)
    ).array
    N = FpModule(M.algebra, S_inv @ M.action @ S)
    assert N.action.tobytes() != M.action.tobytes()
    return N


def _kronecker_module(A, lam):
    """Over k[x,y]/(x,y)^2: top g and socle s with x g = s and y g = lam s."""
    one, x, y = (A.element_from_string(t) for t in ("1", "x", "y"))
    E = np.array([[0, 0], [1, 0]], dtype=np.int64)
    action = [one[i] * np.eye(2, dtype=np.int64) + (x[i] + lam * y[i]) * E for i in range(A.dim)]
    return FpModule(A, np.stack(action))


def test_is_isomorphic_agrees_with_brute_force_oracle(example1, goto, stretched):
    rng = np.random.default_rng(20)
    # the Kronecker modules for lam = 1, 2 share iso_profile and every hom
    # dimension below; is_isomorphic tells them apart by dim Hom(M1, M2)
    # against dim End(M1)
    K = make_ring(["x", "y"], ["x^2", "xy", "y^2"], 3)
    M1, M2 = _kronecker_module(K, 1), _kronecker_module(K, 2)
    assert M1.iso_profile() == M2.iso_profile()
    for T in (residue_field(K), regular_module(K)):
        assert hom_dim(M1, T) == hom_dim(M2, T) and hom_dim(T, M1) == hom_dim(T, M2)
    assert hom_dim(M1, M1) == hom_dim(M2, M2) and hom_dim(M1, M2) == hom_dim(M2, M1)
    pairs = [(M1, M2), (direct_sum(M1, M1), direct_sum(M1, M2))]
    level2 = filt_enumerate(goto, goto.element_from_string("x"), 2)[1]
    modules = [regular_module(example1), _cyclic(stretched, "x"), M1, direct_sum(M1, M2)]
    modules += [node.module for node in level2[1:]]  # End of level2[0] has dim 12
    pairs += [(M, _random_conjugate(M, rng)) for M in modules]
    pairs += [(level2[0].module, _random_conjugate(node.module, rng)) for node in level2[1:]]
    verdicts = []
    for M, N in pairs:
        p = M.algebra.p
        assert hom_dim(M, N) <= 10
        result = is_isomorphic(M, N)
        assert bool(result) == is_isomorphic_brute(M.action, N.action, p)
        assert bool(result) == is_isomorphic_top_brute(M.action, N.action, p)
        verdicts.append(bool(result))
        if result:
            H = result.witness.matrix
            assert linalg.rank_mod(H, p) == M.dim
            assert not ((N.action @ H - H @ M.action) % p).any()
    assert verdicts.count(True) == len(modules)
    assert verdicts.count(False) == len(pairs) - len(modules)


def _record_searches(monkeypatch):
    """Every (stack, p, point) linalg.unit_combination sees from now on."""
    seen = []
    real = linalg.unit_combination

    def spy(stack, p):
        point = real(stack, p)
        seen.append((np.array(stack), p, point))
        return point

    monkeypatch.setattr(linalg, "unit_combination", spy)
    return seen


def test_is_isomorphic_decides_k5_over_f2_with_a_verified_witness(pair, monkeypatch):
    """k^5 against k^5 over F_2: the top maps span all 25 of Hom_k(k^5, k^5),
    2^25 - 1 nonzero combinations, and the reduced determinant still finds
    an invertible one, checked here again."""
    k = residue_field(pair)
    M = direct_sum(direct_sum(k, k), direct_sum(k, k))
    M5, N5 = direct_sum(M, k), direct_sum(k, M)
    seen = _record_searches(monkeypatch)
    result = is_isomorphic(M5, N5)
    assert [stack.shape for stack, _, _ in seen] == [(25, 5, 5)]
    assert result
    H = result.witness.matrix
    assert linalg.rank_mod(H, 2) == 5
    assert not ((N5.action @ H - H @ M5.action) % 2).any()


def test_determinant_decision_proves_the_f5_merges_without_sampling(monkeypatch):
    """Over F_5 the depth-4 level of the pair ring needs a top image of
    dimension 10: 2,441,406 monic combinations. The reduced determinant
    decides it, and no random generator is ever drawn from."""
    A = pair_ring(5)
    x = closure_element(A)
    draws = []
    real_rng = np.random.default_rng

    def spy(*args, **kwargs):
        draws.append(args)
        return real_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    seen = _record_searches(monkeypatch)
    levels = filt_enumerate(A, x, 4)
    assert [len(level) for level in levels] == [1, 2, 3, 5]
    assert max(stack.shape[0] for stack, _, _ in seen) == 10
    assert draws == []


def test_module_searches_agree_with_brute_force(goto, stretched, monkeypatch):
    """Every isomorphism search filt_enumerate makes on goto and stretched
    at depth 3 with p^r <= 4096 gets the verdict of trying all p^r
    combinations of its top maps, and some of them find no invertible one.
    The F_3 Kronecker pairs are told apart before any search, by dim
    Hom(M, N) against dim End(M), and agree with the brute-force oracle."""
    seen = _record_searches(monkeypatch)
    for A in (goto, stretched):
        filt_enumerate(A, closure_element(A), 3)
    small = [(stack, p, point) for stack, p, point in seen if p ** stack.shape[0] <= 4096]
    assert len(small) >= 10 and any(point is None for _, _, point in small)
    for stack, p, point in small:
        assert (point is not None) == unit_in_span_brute(stack, p)
    K = make_ring(["x", "y"], ["x^2", "xy", "y^2"], 3)
    M1, M2 = _kronecker_module(K, 1), _kronecker_module(K, 2)
    searches = len(seen)
    for M, N in [(M1, M2), (direct_sum(M1, M1), direct_sum(M1, M2))]:
        assert not is_isomorphic(M, N) and not is_isomorphic_brute(M.action, N.action, 3)
    assert len(seen) == searches


def test_end_dimension_gate_answers_before_any_search(monkeypatch):
    """is_isomorphic(M, N) says no, with no determinant, when dim Hom(M, N)
    differs from dim End(M), which it computes once and keeps on M; an
    isomorphic pair passes the gate and gets its witness from the search."""
    K = make_ring(["x", "y"], ["x^2", "xy", "y^2"], 3)
    M1, M2 = _kronecker_module(K, 1), _kronecker_module(K, 2)
    assert M1.iso_profile() == M2.iso_profile()
    assert hom_dim(M1, M2) != hom_dim(M1, M1)
    seen = _record_searches(monkeypatch)
    ends = []
    real = modules.hom_dim

    def spy(M, N):
        ends.append((M, N))
        return real(M, N)

    monkeypatch.setattr(modules, "hom_dim", spy)
    assert not is_isomorphic(M1, M2)
    assert not is_isomorphic_brute(M1.action, M2.action, 3)
    assert seen == [] and ends == [(M1, M1)]
    N1 = _random_conjugate(M1, np.random.default_rng(3))
    result = is_isomorphic(M1, N1)
    assert result and len(seen) == 1 and ends == [(M1, M1)]
    H = result.witness.matrix
    assert linalg.rank_mod(H, 3) == 2 and not ((N1.action @ H - H @ M1.action) % 3).any()


def test_is_isomorphic_reduces_its_hom_constraint_once(example1, monkeypatch):
    """On an isomorphic pair, is_isomorphic reduces D (Hom(M, N) = ker D)
    once: the kernel basis it needs gives dim Hom(M, N) for the End gate."""
    M = direct_sum(residue_field(example1), _cyclic(example1, "x"))
    N = _random_conjugate(M, np.random.default_rng(5))
    M._end_dim = hom_dim(M, M)
    D = modules._presentation_data(M).relations.transpose().acting_on(N).array
    assert D.size
    real, reduced = linalg._row_reduce, []

    def spy(a, p, **kwargs):
        reduced.append(np.array_equal(a, D))
        return real(a, p, **kwargs)

    monkeypatch.setattr(linalg, "_row_reduce", spy)
    assert is_isomorphic(M, N)
    assert sum(reduced) == 1


@pytest.mark.parametrize("cells", [0, 1, 5000, modules.STACK_CELLS // 3, modules.STACK_CELLS, 3 * modules.STACK_CELLS])
def test_stacks_chunks_each_algebra_and_shape_apart(cells):
    """stacks yields every index once, ascending within a chunk, in chunks
    of at most STACK_CELLS // cells items (at least one) whose items share
    the key; two algebras of equal shape never share a chunk."""
    A2, A3 = pair_ring(2), pair_ring(3)
    items = [(A2 if i % 3 else A3, i % 2, i % 5 == 0) for i in range(60)]
    rows = max(1, modules.STACK_CELLS // max(1, cells))
    chunks = list(stacks(items, lambda item: item[:2], lambda key: cells))
    seen = [i for _, idx in chunks for i in idx]
    assert sorted(seen) == list(range(len(items)))
    for key, idx in chunks:
        assert idx == sorted(idx) and 1 <= len(idx) <= rows
        assert all(items[i][:2] == key for i in idx)
        assert len({id(items[i][0]) for i in idx}) == 1
    assert len(chunks) == sum(-(-sum(item[:2] == key for item in items) // rows)
                              for key in {item[:2] for item in items})


def test_cover_lift_names_a_cover_that_is_not_onto(example1):
    """R/(x) + k presented by R/(x)'s minimal presentation with its cover
    padded by a zero row: the cover has no section, and cover_lift says so."""
    M = direct_sum(_cyclic(example1, "x"), residue_field(example1))
    pres = minimal_presentation(_cyclic(example1, "x"))
    padded = np.vstack([pres.cover, np.zeros((1, pres.cover.shape[1]), dtype=np.int64)])
    M.use_presentation(modules.FreePresentation(pres.relations, padded))
    with pytest.raises(RuntimeError, match="cover of the presentation is not onto the module"):
        modules.cover_lift(M)


def test_is_isomorphic_refuses_an_unverified_witness(example1, monkeypatch):
    R = regular_module(example1)
    assert is_isomorphic(R, R)
    broken = lambda N, lift, imgs: np.zeros((N.dim, N.dim), dtype=np.int64)
    monkeypatch.setattr(modules, "_hom_matrices", broken)
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        is_isomorphic(R, R)


def _assert_witness(result, M, N):
    """The witness of a positive decision is A-linear and invertible."""
    p = M.algebra.p
    H = result.witness.matrix
    assert rank_fp(H, p) == M.dim and commutes_with_action(M.action, N.action, H, p)


def test_homs_through_filt_presentations_match_the_oracles(filt_pool):
    """Every class of every census in the pool, level 1 included, takes its
    homs through its node presentation, and six goto level-3 classes have
    fewer minimal generators than that presentation has rows. For every
    ordered pair of classes of one level, hom_dim is the textbook count,
    hom_space_matrices spans the textbook Hom space, and is_isomorphic
    agrees with a brute force over the top maps (at most 2^9 combinations
    here), with a verified witness when it says yes."""
    for _, _, levels in filt_pool.values():
        assert all(modules._presentation_data(n.module) is n.presentation for nodes in levels for n in nodes)
    short = 0
    for name, lev in (("goto", 2), ("example1", 1)):
        A, _, levels = filt_pool[name]
        p = A.p
        nodes = levels[lev]
        short += sum(len(minimal_generators(n.module)) < n.presentation.betti0 for n in nodes)
        for M, N in ((a.module, b.module) for a in nodes for b in nodes):
            kron = hom_basis_kron(M.action, N.action, p)
            homs = hom_space_matrices(M, N)
            assert hom_dim(M, N) == len(homs) == len(kron)
            flat = [h.ravel() for h in homs]
            assert rank_fp(flat, p) == len(kron) == rank_fp(flat + [h.ravel() for h in kron], p)
            result = is_isomorphic(M, N)
            assert bool(result) == (M is N) == is_isomorphic_top_brute(M.action, N.action, p, kron)
            if result:
                _assert_witness(result, M, N)
    assert short == 6


def _redundant_presentation(M, pres, x):
    """pres with one more generator put first, w = g_1 + x g_2, and the
    relation e_w - e_1 - x e_2 for it; certified by linalg.exactness. w and
    g_1 have the same top, so the first mu generators are no basis of M/mM."""
    A = M.algebra
    p, d = A.p, A.dim
    b0, b1 = pres.relations.rows, pres.relations.cols
    w = (pres.cover[:, 0] + M.action_of(x) @ pres.cover[:, d]) % p
    entries = np.zeros((b0 + 1, b1 + 1, d), dtype=np.int64)
    entries[1:, :b1] = pres.relations.entries
    entries[0, b1], entries[1, b1], entries[2, b1] = A.unit(), -A.unit(), -x
    bigger = modules.FreePresentation(RingMatrix(A, entries), np.hstack([cover_matrix(M, w[None]), pres.cover]))
    assert linalg.exactness(bigger.relations.as_linear_map().array, bigger.cover, p)[2]
    return bigger


def test_a_redundant_presentation_gets_the_same_decision(goto, monkeypatch):
    """A goto level-3 module presented with a redundant generator in front
    gets from is_isomorphic the decision of its copy presented minimally,
    against an isomorphic copy in other coordinates and against every class
    of equal profile, some of them told apart only by the determinant; each
    yes has a verified witness."""
    x = closure_element(goto)
    nodes = filt_enumerate(goto, x, 3)[2]
    seen = _record_searches(monkeypatch)
    rng = np.random.default_rng(5)
    for node in nodes:
        M = FpModule(goto, node.module.action)
        plain = FpModule(goto, node.module.action)
        M.use_presentation(_redundant_presentation(M, minimal_presentation(M), x))
        assert modules._presentation_data(M).betti0 == len(minimal_generators(M)) + 1
        others = [n.module for n in nodes if n.module.iso_profile() == M.iso_profile()]
        for N in others + [_random_conjugate(M, rng)]:
            result = is_isomorphic(M, N)
            assert bool(result) == bool(is_isomorphic(plain, N))
            if result:
                _assert_witness(result, M, N)
    assert any(point is None for _, _, point in seen)


def test_iso_profile_is_permutation_invariant(example1):
    R = regular_module(example1)
    perm = np.array([5, 2, 0, 4, 1, 3])
    P = np.eye(6, dtype=np.int64)[:, perm]
    Pinv = np.eye(6, dtype=np.int64)[perm, :]
    conj = np.stack([(Pinv @ R.action[i] @ P) % 2 for i in range(6)])
    assert FpModule(example1, conj).iso_profile() == R.iso_profile()


def _conjugate(M, rng):
    """M with its action conjugated by a random invertible matrix: an
    isomorphic module in other coordinates."""
    p, d = M.algebra.p, M.dim
    while True:
        P = rng.integers(0, p, size=(d, d))
        if linalg.rank_mod(P, p) == d:
            break
    Pinv = linalg.solve_matrix(linalg.PrimeFieldMatrix(P, p), linalg.PrimeFieldMatrix.identity(d, p)).array
    return FpModule(M.algebra, Pinv @ M.action @ P % p)


@pytest.mark.parametrize("make", [example1_ring, goto_ring, functools.partial(pair_ring, 3),
                                  functools.partial(stretched_ring, 3), functools.partial(pair_ring, 5),
                                  functools.partial(hypersurface_ring, 5, 1)])
def test_batched_profiles_match_the_per_module_loop(make):
    """iso_profiles on one block of modules of mixed dimensions (0 among
    them), holding isomorphic copies in other coordinates next to modules
    that are not isomorphic, gives each module the profile of the old
    per-module loop, at p = 2, 3 and 5; and iso_profile is that batch with
    one module."""
    A = make()
    p = A.p
    rng = np.random.default_rng(p)
    k, R = residue_field(A), regular_module(A)
    base = [k, R, direct_sum(k, k), direct_sum(k, R), FpModule(A, np.zeros((A.dim, 0, 0), dtype=np.int64))]
    if A.dim > 1:
        x = A.generator_set.column(0)
        base.append(quotient_module(R, A.principal_ideal(x).basis).module)
    pairs = [(FpModule(A, M.action), _conjugate(M, rng)) for M in base]
    block = [M for pair in pairs for M in pair]
    iso_profiles([block[i] for i in rng.permutation(len(block))])
    gens = A.generator_indices.tolist()
    for M in block:
        assert M._profile == iso_profile_loop(M.action, gens, p)
        assert FpModule(A, M.action).iso_profile() == M._profile
    assert all(M._profile == N._profile for M, N in pairs)
    assert len({M._profile for M in block}) > 2


def test_base_change_to_hypersurface_quotient(ci):
    x = ci.element_from_string("x")
    I = complement_ideal(ci, x)
    qr = quotient_ring(ci, I)
    bc = base_change(regular_module(ci), qr)
    assert bc.algebra is qr.algebra
    assert module_axioms_hold(qr.algebra.table, bc.action, ci.p)
    assert bc.dim == 2
    # R/I is the dual numbers in x, and R (x) R/I is free of rank one
    assert minimal_presentation(bc).betti0 == 1


def test_base_change_of_residue_field(ci):
    x = ci.element_from_string("x")
    qr = quotient_ring(ci, complement_ideal(ci, x))
    k = residue_field(ci)
    bck = base_change(k, qr)
    assert bck.dim == 1
    assert module_axioms_hold(qr.algebra.table, bck.action, ci.p)
    assert betti_numbers(bck, 3) == [1, 1, 1, 1]


def test_base_change_matches_the_product_loop(example1, goto, stretched):
    """IM inside base_change is the canonical span of every b w, b in the
    basis of I and w in that of M; the action on M/IM is the one read off
    the per-column loop it replaced."""
    for A in (example1, goto, stretched):
        p = A.p
        x = A.element_from_string("x")
        for I in (complement_ideal(A, x), A.principal_ideal(x), A.zero_ideal()):
            qr = quotient_ring(A, I)
            for M in (regular_module(A), residue_field(A), _cyclic(A, "x"), free_module(A, 2)):
                I_action = np.einsum("ib,imn->bmn", I.basis.array, M.action) % p
                IM = span_of_products_loop(I_action, np.eye(M.dim, dtype=np.int64), p)
                qm = quotient_module(M, linalg.PrimeFieldMatrix(IM, p))
                want = np.stack(
                    [(qm.proj.matrix @ M.action_of(qr.lift.column(j)) @ qm.lift.array) % p
                     for j in range(qr.algebra.dim)]
                )
                got = base_change(M, qr)
                assert got.dim == M.dim - IM.shape[1]
                assert got.action.shape == want.shape and got.action.tobytes() == want.tobytes()
