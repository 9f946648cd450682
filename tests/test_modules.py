from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artloc import linalg, modules
from artloc.catalog import complete_intersection_ring, hypersurface_ring, make_ring
from artloc.modules import (
    FpModule,
    ModuleMap,
    RingMatrix,
    SearchInconclusive,
    base_change,
    betti_numbers,
    cyclic_module,
    direct_sum,
    ext1,
    free_module,
    hom_dim,
    hom_space,
    hom_space_matrices,
    is_isomorphic,
    jordan_type,
    matlis_dual,
    minimal_free_resolution,
    minimal_presentation,
    quotient_module,
    regular_module,
    residue_field,
    splits_off_k,
    sub_module,
    tor,
)
from artloc.algebra import quotient_ring
from artloc.extensions import complement_ideal, filt_enumerate

from oracles import hom_dim_kron, is_isomorphic_brute


def _cyclic(A, text):
    return cyclic_module(A, A.principal_ideal(A.element_from_string(text)))


def test_regular_and_residue_dimensions(example1):
    assert regular_module(example1).dim == 6
    assert residue_field(example1).dim == 1
    assert free_module(example1, 3).dim == 18


def test_module_action_validation(dual):
    action = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        FpModule(dual, action)  # identity coordinate must act as identity


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
    assert sm.include.is_injective()


def test_module_map_validates_action(example1):
    R = regular_module(example1)
    k = residue_field(example1)
    bad = np.zeros((6, 1), dtype=np.int64)
    bad[1, 0] = 1  # sends k's generator to x, which m does not kill
    with pytest.raises(ValueError):
        ModuleMap(k, R, bad)


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
    # and hom_space wraps them as validated maps
    assert len(hom_space(X, Y)) == len(mats)


def test_betti_numbers_frozen(example1, dual, pair, ci):
    assert betti_numbers(residue_field(dual), 5) == [1, 1, 1, 1, 1, 1]
    assert betti_numbers(residue_field(pair), 3) == [1, 2, 4, 8]
    assert betti_numbers(residue_field(ci), 4) == [1, 2, 3, 4, 5]
    assert betti_numbers(residue_field(example1), 4) == [1, 4, 15, 56, 209]
    assert betti_numbers(_cyclic(example1, "x"), 4) == [1, 1, 3, 11, 41]


def test_resolution_differentials_compose_to_zero(example1):
    k = residue_field(example1)
    res = minimal_free_resolution(k, 3)
    for i in range(len(res.differentials) - 1):
        d_out = res.differentials[i].as_linear_map().array
        d_in = res.differentials[i + 1].as_linear_map().array
        assert not ((d_out @ d_in) % 2).any()
    # minimal: every differential entry lies in the maximal ideal
    m = example1.maxideal().basis
    for d in res.differentials:
        assert d.all_entries_in(m)


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
            assert tor(M, N, i)[0] == tor(N, M, i)[0]


def test_tor_frozen_values(example1):
    X = _cyclic(example1, "x")
    k = residue_field(example1)
    assert tor(X, _cyclic(example1, "z"), 1)[0] == 0
    assert tor(X, k, 1)[0] == 1
    assert tor(X, k, 2)[0] == 3


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


def test_matlis_dual_detects_gorenstein(example1, pair):
    R = regular_module(example1)
    assert bool(is_isomorphic(R, matlis_dual(R)))
    Rp = regular_module(pair)
    assert not bool(is_isomorphic(Rp, matlis_dual(Rp)))


def test_splits_off_k(example1, dual):
    k = residue_field(example1)
    R = regular_module(example1)
    M = direct_sum(R, k)
    w = splits_off_k(M)
    assert w is not None
    # the witness spans a trivial summand: killed by m, outside rad(M)
    assert not linalg.contains_vector(M.radical_subspace(), w)
    for i in range(1, example1.dim):
        assert not ((M.action[i] @ w) % 2).any()
    assert splits_off_k(R) is None
    assert splits_off_k(regular_module(dual)) is None


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
    # dimension below, so only the search over Hom can tell them apart
    K = make_ring(["x", "y"], ["x^2", "xy", "y^2"], 3)
    M1, M2 = _kronecker_module(K, 1), _kronecker_module(K, 2)
    assert M1.iso_profile() == M2.iso_profile()
    for T in (residue_field(K), regular_module(K)):
        assert hom_dim(M1, T) == hom_dim(M2, T) and hom_dim(T, M1) == hom_dim(T, M2)
    assert hom_dim(M1, M1) == hom_dim(M2, M2) and hom_dim(M1, M2) == hom_dim(M2, M1)
    pairs = [(M1, M2), (direct_sum(M1, M1), direct_sum(M1, M2))]
    x = goto.element_from_string("x")
    level2 = filt_enumerate(_cyclic(goto, "x"), 2, x_element=x)[1]
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
        verdicts.append(bool(result))
        if result:
            H = result.witness.matrix
            assert linalg.rank_mod(H, p) == M.dim
            assert not ((N.action @ H - H @ M.action) % p).any()
    assert verdicts.count(True) == len(modules)
    assert verdicts.count(False) == len(pairs) - len(modules)


def test_is_isomorphic_budget_exhaustion_raises(pair):
    k = residue_field(pair)
    M = direct_sum(direct_sum(k, k), direct_sum(k, k))
    M5 = direct_sum(M, k)
    with pytest.raises(SearchInconclusive):
        is_isomorphic(M5, direct_sum(M, k), budget=0)


def test_is_isomorphic_refuses_an_unverified_witness(example1, monkeypatch):
    R = regular_module(example1)
    assert is_isomorphic(R, R)
    broken = lambda N, lift, imgs: np.zeros((N.dim, N.dim), dtype=np.int64)
    monkeypatch.setattr(modules, "_hom_matrices", broken)
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        is_isomorphic(R, R)


def test_iso_profile_is_permutation_invariant(example1):
    R = regular_module(example1)
    perm = np.array([5, 2, 0, 4, 1, 3])
    P = np.eye(6, dtype=np.int64)[:, perm]
    Pinv = np.eye(6, dtype=np.int64)[perm, :]
    conj = np.stack([(Pinv @ R.action[i] @ P) % 2 for i in range(6)])
    assert FpModule(example1, conj).iso_profile() == R.iso_profile()


def test_base_change_to_hypersurface_quotient(ci):
    x = ci.element_from_string("x")
    I = complement_ideal(ci, x)
    qr = quotient_ring(ci, I)
    bc = base_change(regular_module(ci), qr)
    assert bc.algebra is qr.algebra
    assert bc.dim == 2
    # R/I is the dual numbers in x, and R (x) R/I is free of rank one
    assert minimal_presentation(bc).betti0 == 1


def test_base_change_of_residue_field(ci):
    x = ci.element_from_string("x")
    qr = quotient_ring(ci, complement_ideal(ci, x))
    k = residue_field(ci)
    bck = base_change(k, qr)
    assert bck.dim == 1
    assert betti_numbers(bck, 3) == [1, 1, 1, 1]
