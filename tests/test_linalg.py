from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artloc import linalg
from artloc.linalg import PrimeFieldMatrix

from oracles import rank_fp


def _mat(rows, p):
    return PrimeFieldMatrix(np.array(rows, dtype=np.int64), p)


def test_rref_hand_example_f2():
    rr = linalg.rref(_mat([[1, 1], [1, 1]], 2))
    assert rr.rank == 1
    assert rr.pivots == (0,)
    assert rr.matrix.array.tolist() == [[1, 1], [0, 0]]


def test_rref_scales_pivots_f5():
    rr = linalg.rref(_mat([[2, 1], [0, 3]], 5))
    assert rr.rank == 2
    assert rr.matrix.array.tolist() == [[1, 0], [0, 1]]


def test_kernel_basis_canonical_unit_choice():
    ker = linalg.kernel_basis(_mat([[1, 1]], 2))
    # one free column, set to 1: the kernel vector is (1, 1)
    assert ker.array.tolist() == [[1], [1]]


def test_solve_puts_free_variables_to_zero():
    sol = linalg.solve(_mat([[1, 1]], 3), np.array([2]))
    assert sol.tolist() == [2, 0]


def test_solve_detects_inconsistency():
    a = _mat([[1, 0], [0, 0]], 2)
    assert linalg.solve(a, np.array([0, 1])) is None


def test_solve_matrix_is_columnwise_solve():
    a = _mat([[1, 2], [0, 1]], 3)
    sol = linalg.solve_matrix(a, PrimeFieldMatrix(np.eye(2, dtype=np.int64), 3))
    assert ((a.array @ sol.array) % 3 == np.eye(2, dtype=np.int64)).all()


def test_subspace_ops_over_f3():
    u = _mat([[1, 0], [0, 1], [0, 0]], 3)
    v = _mat([[1], [2], [0]], 3)
    assert linalg.is_subspace(v, u) and not linalg.is_subspace(u, v)
    both = linalg.subspace_intersection(u, v)
    assert both.cols == 1
    assert linalg.contains_vector(both, np.array([1, 2, 0]))
    assert linalg.subspace_sum(u, v).cols == 2


def test_contains_vector_and_column_space():
    a = _mat([[1, 2], [2, 4]], 5)
    cs = linalg.column_space(a)
    assert cs.cols == 1
    assert linalg.contains_vector(cs, np.array([3, 6]))
    assert not linalg.contains_vector(cs, np.array([1, 0]))


def test_rank_mod_matches_matrix_rank():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        for _ in range(20):
            a = rng.integers(0, p, size=(4, 6))
            assert linalg.rank_mod(a, p) == _mat(a.tolist(), p).rank


def test_rank_mod_agrees_with_independent_elimination():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(25):
            a = rng.integers(0, p, size=rng.integers(1, 7, size=2))
            assert linalg.rank_mod(a, p) == rank_fp(a.tolist(), p)


def test_invertible_batch_matches_per_matrix_rank():
    rng = np.random.default_rng(9)
    for p in (2, 3, 5):
        mats = rng.integers(0, p, size=(64, 4, 4))
        flags = linalg.invertible_batch(mats, p)
        want = np.array([linalg.rank_mod(m, p) == 4 for m in mats])
        assert (flags == want).all()


def test_is_prime_and_modulus_guard():
    assert linalg.is_prime(2) and linalg.is_prime(7919)
    assert not linalg.is_prime(1) and not linalg.is_prime(9)
    with pytest.raises(ValueError):
        PrimeFieldMatrix(np.zeros((1, 1), dtype=np.int64), 4)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 7),
    st.integers(1, 7),
)
def test_rank_nullity(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    a = PrimeFieldMatrix(rng.integers(0, p, size=(rows, cols)), p)
    assert a.rank + linalg.kernel_basis(a).cols == cols


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 7),
    st.integers(1, 7),
)
def test_rref_idempotent(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    a = PrimeFieldMatrix(rng.integers(0, p, size=(rows, cols)), p)
    once = linalg.rref(a)
    twice = linalg.rref(once.matrix)
    assert once.matrix.array.tolist() == twice.matrix.array.tolist()
    assert once.pivots == twice.pivots


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 5]))
def test_kernel_columns_are_solutions(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(3, 5))
    ker = linalg.kernel_basis(PrimeFieldMatrix(a, p))
    assert not ((a @ ker.array) % p).any()
