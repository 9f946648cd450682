from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artloc import linalg
from artloc.algebra import IdealSubspace
from artloc.catalog import complete_intersection_ring, pair_ring
from artloc.linalg import PrimeFieldMatrix

from oracles import (
    _rref_fp,
    _span_basis,
    base_p_digits,
    greedy_picks,
    kernel_basis_loop,
    monic_rows_brute,
    project_by_pivots,
    rank_fp,
    span_of_products_loop,
    unit_in_span_brute,
)


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
    assert linalg.solve_matrix(u, v) is not None and linalg.solve_matrix(v, u) is None
    # over F_3[x,y]/(x^2,xy,y^2) m^2 = 0, so every subspace of m is an ideal
    A = pair_ring(3)
    m = A.maxideal()
    line = IdealSubspace(A, _mat([[0], [1], [2]], 3))
    other = IdealSubspace(A, _mat([[0], [1], [1]], 3))
    both = m.intersection(line)
    assert both == line and both.dim == 1
    assert both.contains(np.array([0, 2, 1]))
    assert line.intersection(other).is_zero()
    assert line.sum(other) == m and m.sum(line) == m
    assert A.zero_ideal().intersection(m).is_zero() and m.intersection(A.zero_ideal()).is_zero()


def test_solve_decides_membership_in_the_column_space():
    a = _mat([[1, 2], [2, 4]], 5)
    cs = linalg.column_space(a)
    assert cs.cols == 1
    assert linalg.solve(cs, np.array([3, 6])) is not None
    assert linalg.solve(cs, np.array([1, 0])) is None


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


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 65521]),
    st.integers(0, 6),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(["dense", "sparse", "low-rank"]),
)
@example(0, 2, 0, 3, 3, "dense")
@example(0, 3, 4, 0, 5, "dense")
@example(0, 65521, 4, 5, 0, "dense")
@example(0, 65521, 5, 6, 4, "low-rank")
@example(1, 2, 3, 64, 80, "low-rank")  # transposed: one word per row, 64 bits
@example(2, 2, 3, 65, 80, "low-rank")  # transposed: 65 columns stay generic
@example(3, 2, 4, 9, 64, "sparse")
@example(4, 2, 2, 70, 65, "dense")
@example(5, 2, 3, 200, 64, "low-rank")  # tall, not transposed
@example(6, 3, 3, 4, 90, "sparse")  # transposed, p = 3
def test_rank_batch_matches_rank_mod(seed, p, batch, rows, cols, kind):
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, size=(batch, rows, cols))
    if kind == "sparse":
        mats *= rng.random(mats.shape) < 0.25
    elif kind == "low-rank":
        # random matrices at a large p almost surely have full rank
        inner = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.integers(0, p, size=(batch, rows, inner))
        mats = (left @ rng.integers(0, p, size=(batch, inner, cols))) % p
    ranks = linalg.rank_batch(mats - p * rng.integers(-2, 3, size=mats.shape), p)
    assert ranks.shape == (batch,)
    assert ranks.tolist() == [linalg.rank_mod(m, p) for m in mats]
    square = mats[:, :rows, :rows] if cols >= rows else mats[:, :cols, :cols]
    assert linalg.invertible_batch(square, p).tolist() == [
        linalg.rank_mod(m, p) == m.shape[0] for m in square
    ]


def test_rank_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.rank_batch(np.zeros((2, 2, 2), dtype=np.int64), 4)
    with pytest.raises(ValueError):
        linalg.rank_batch(np.zeros((2, 2), dtype=np.int64), 2)
    with pytest.raises(ValueError):
        linalg.invertible_batch(np.zeros((2, 2, 3), dtype=np.int64), 2)


def test_outside_data_is_copied_and_reduced_and_results_are_frozen():
    data = np.array([[5, -1, 0], [2, 7, 3]], dtype=np.int64)
    m = PrimeFieldMatrix(data, 3)
    data[0, 0] = 1
    assert m.array.tolist() == [[2, 2, 0], [2, 1, 0]]
    rhs = PrimeFieldMatrix(np.array([[1], [2]]), 3)
    made = [
        linalg.rref(m).matrix,
        linalg.kernel_basis(m),
        linalg.column_space(m),
        linalg.column_space(m.transpose()),
        linalg.solve_matrix(m, rhs),
    ]
    for out in made:
        a = out.array
        assert a.dtype == np.int64 and not a.flags.writeable
        assert ((a >= 0) & (a < 3)).all()
    assert m.array.tolist() == [[2, 2, 0], [2, 1, 0]]
    # a rank-deficient column space owns just its rank rows, not the whole buffer
    low = linalg.column_space(PrimeFieldMatrix(np.ones((2, 40), dtype=np.int64), 3))
    assert low.shape == (2, 1) and low.array.base.size == 2


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


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(["random", "zero", "full"]),
)
@example(0, 2, 0, 4, "random")
@example(0, 3, 4, 0, "random")
@example(0, 5, 0, 0, "zero")
@example(1, 3, 3, 5, "zero")
@example(2, 5, 5, 5, "full")
@example(3, 2, 6, 3, "full")
def test_kernel_basis_matches_per_entry_loop(seed, p, rows, cols, kind):
    """Byte for byte against the loop over free columns and pivots, on
    random, zero and full-rank matrices, with empty shapes among them."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols))
    if kind == "zero":
        a[:] = 0
    elif kind == "full":
        # an invertible corner makes the rank min(rows, cols)
        r = min(rows, cols)
        a[:r, :r] = np.triu(a[:r, :r], 1) + np.diag(rng.integers(1, p, size=r))
    got = linalg.kernel_basis(PrimeFieldMatrix(a, p)).array
    want = kernel_basis_loop(a, p, cols)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    if kind == "full":
        assert got.shape[1] == cols - min(rows, cols)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 6),
    st.integers(0, 4),
    st.integers(0, 6),
)
@example(0, 2, 4, 0, 3)
@example(0, 3, 4, 2, 0)
@example(1, 5, 0, 2, 2)
def test_greedy_completion_matches_per_vector_loop(seed, p, n, s, c):
    rng = np.random.default_rng(seed)
    span = linalg.column_space(PrimeFieldMatrix(rng.integers(0, p, size=(n, s)), p))
    # candidates drawn from span + two more vectors, so many are dependent
    pool = np.hstack([span.array, rng.integers(0, p, size=(n, 2))])
    cand = PrimeFieldMatrix(pool @ rng.integers(0, p, size=(pool.shape[1], c)), p)
    picks = linalg.greedy_completion(span, cand)
    assert picks == greedy_picks(span.array.T, cand.array.T, p)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([2, 3, 5, 65521]),
    st.integers(0, 6),
    st.integers(0, 10**6),
    st.integers(0, 300),
)
@example(2, 13, 0, linalg.BLOCK_ROWS + 7)
@example(3, 0, 5, 2)
@example(65521, 5, 0, 3)  # 65521^4 exceeds int64
@example(3, 64, 0, 5)  # so does 3^63
def test_digits_are_little_endian_base_p(p, width, start, count):
    rows = linalg.digits(np.arange(start, start + count, dtype=np.int64), p, width)
    assert rows.shape == (count, width)
    assert rows.tolist() == [base_p_digits(n, p, width) for n in range(start, start + count)]


@pytest.mark.parametrize("p, width", [(65521, 5), (3, 63)])
def test_monic_blocks_stay_exact_where_p_to_the_width_overflows(p, width):
    # diagnose scans monic_blocks(p, length - 1): a length-6 ring over F_65521,
    # or a length-64 ring over F_3, reaches these widths
    nums, rows = next(linalg.monic_numbers(p, width)), next(linalg.monic_blocks(p, width))
    assert rows.tolist() == [base_p_digits(n, p, width) for n in nums.tolist()]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 4))
@example(2, 13)
@example(3, 9)
def test_monic_blocks_list_one_row_per_line_in_order(p, width):
    blocks = list(linalg.monic_blocks(p, width))
    assert all(0 < b.shape[0] <= linalg.BLOCK_ROWS for b in blocks)
    rows = np.concatenate(blocks)
    assert rows.tolist() == monic_rows_brute(p, width)
    assert rows.shape[0] == (p**width - 1) // (p - 1) + 1
    assert all(r[r != 0][-1] == 1 for r in rows[1:])
    weights = p ** np.arange(width, dtype=np.int64)
    nums = list(linalg.monic_numbers(p, width))
    assert np.array_equal(np.concatenate(nums), rows @ weights)
    assert all(b.size == linalg.BLOCK_ROWS for b in nums[:-1]) and 0 < nums[-1].size <= linalg.BLOCK_ROWS
    for u in range(1, p) if width else ():  # monic_index takes width >= 1
        assert np.array_equal(linalg.monic_index(rows * u % p, p), rows @ weights)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 6),
    st.integers(0, 4),
    st.booleans(),
)
@example(0, 2, 0, 0, False)
@example(0, 3, 5, 0, False)
@example(4, 5, 0, 2, True)
def test_complement_projection_matches_pivot_loop(seed, p, n, s, invariant):
    rng = np.random.default_rng(seed)
    if invariant:
        # the ideal generated by s random elements of k[x,y]/(x^2,y^2)
        A = complete_intersection_ring(p)
        n = A.dim
        elements = rng.integers(0, p, size=(s, n))
        gens = np.hstack([np.zeros((n, 0), dtype=np.int64)] + [A.mult_by(g) for g in elements])
    else:
        gens = rng.integers(0, p, size=(n, s))
    W = PrimeFieldMatrix(gens, p)
    proj, lift, keep = linalg.complement_projection(W)
    want, want_keep = project_by_pivots(W.array.T, p, n)
    assert keep == want_keep
    assert proj.tolist() == want.tolist()
    assert not ((proj @ W.array) % p).any()
    assert ((proj @ lift) % p).tolist() == np.eye(len(keep), dtype=np.int64).tolist()


def _sparse(rng, p, rows, cols, zero_lines):
    """A rows x cols matrix mod p with at least 80% zero entries, nonzero
    entries drawn from all units, and `zero_lines` rows and columns forced
    to zero."""
    a = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.2)
    if rows and cols:
        a[rng.integers(0, rows, size=zero_lines)] = 0
        a[:, rng.integers(0, cols, size=zero_lines)] = 0
    keep = int(0.2 * a.size)
    live = np.flatnonzero(a)
    a.flat[live[keep:]] = 0
    return a.astype(np.int64)


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    want = np.asarray(want, dtype=np.int64)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _check_against_rref_oracle(p, a, rhs, span):
    """rref, kernel_basis, column_space, solve_matrix and greedy_completion
    of `a` byte for byte against Gauss-Jordan elimination in the oracle."""
    cols = a.shape[1]
    m = PrimeFieldMatrix(a, p)
    want, pivots = _rref_fp(a, p)
    rr = linalg.rref(m)
    assert _same(rr.matrix.array, want)
    assert rr.pivots == tuple(pivots) and rr.rank == len(pivots)
    assert _same(linalg.kernel_basis(m).array, kernel_basis_loop(a, p, cols))
    want_t, pivots_t = _rref_fp(a.T, p)
    assert _same(linalg.column_space(m).array, want_t[: len(pivots_t)].T)
    # solve: [a | rhs] is consistent iff its full rref has no pivot in rhs
    aug, aug_pivots = _rref_fp(np.hstack([a, rhs]), p)
    sol = linalg.solve_matrix(m, PrimeFieldMatrix(rhs, p))
    if any(c >= cols for c in aug_pivots):
        assert sol is None
    else:
        x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
        x[aug_pivots] = aug[: len(aug_pivots), cols:]
        assert sol is not None and _same(sol.array, x)
        assert not ((a @ sol.array - rhs) % p).any()
    # greedy completion: pivots of rref([span | a]) past the span block
    _, both = _rref_fp(np.hstack([span, a]), p)
    picks = linalg.greedy_completion(PrimeFieldMatrix(span, p), m)
    assert picks == [c - span.shape[1] for c in both if c >= span.shape[1]]


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5, 65521]),
    st.integers(0, 9),
    st.integers(0, 9),
    st.integers(0, 3),
    st.booleans(),
)
@example(0, 2, 0, 5, 0, True)
@example(1, 3, 6, 0, 0, False)
@example(2, 65521, 0, 0, 0, True)
@example(3, 5, 8, 8, 2, False)
@example(4, 65521, 9, 7, 1, True)
def test_kernel_functions_match_rref_oracle(seed, p, rows, cols, zero_lines, consistent):
    """Sparse matrices with zero rows and columns and zero-size shapes; the
    solve right-hand side is a consistent image a @ x or a random (mostly
    inconsistent) block, so pivots are searched only in the first cols
    columns of [a | rhs]."""
    rng = np.random.default_rng(seed)
    a = _sparse(rng, p, rows, cols, zero_lines)
    assert np.count_nonzero(a) <= 0.2 * a.size
    k = int(rng.integers(0, 4))
    if consistent:
        rhs = (a @ _sparse(rng, p, cols, k, 0)) % p
    else:
        rhs = rng.integers(0, p, size=(rows, k))
    span = _sparse(rng, p, rows, int(rng.integers(0, 4)), 0)
    _check_against_rref_oracle(p, a, rhs, span)


@settings(deadline=None, max_examples=120)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(0, 70),
    st.sampled_from([0, 1, 16, 63, 64, 65]) | st.integers(0, 66),
    st.sampled_from(["dense", "sparse", "zero", "repeated"]),
    st.booleans(),
)
@example(0, 0, 5, "dense", True)
@example(1, 6, 0, "dense", True)
@example(2, 9, 64, "zero", False)
@example(3, 12, 64, "repeated", True)
@example(4, 12, 65, "repeated", False)
@example(5, 64, 64, "dense", True)
@example(6, 70, 64, "sparse", False)
def test_one_word_f2_elimination_matches_the_oracle(seed, rows, cols, kind, consistent):
    """At p = 2 a matrix of at most 64 columns is reduced one word per row;
    rref, rank_mod, kernel_basis, column_space, solve_matrix (pivots only in
    the first cols columns of [a | rhs]) and greedy_completion match the
    oracle on both sides of the 64-column limit, for empty shapes, all-zero
    matrices and repeated rows."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        a = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "sparse":
        a = (rng.random((rows, cols)) < 0.1).astype(np.int64)
    else:
        a = rng.integers(0, 2, size=(rows, cols))
    if kind == "repeated" and rows:
        a = a[rng.integers(0, max(1, rows // 3), size=rows)]
    k = int(rng.integers(0, 4))
    rhs = a @ rng.integers(0, 2, size=(cols, k)) % 2 if consistent else rng.integers(0, 2, size=(rows, k))
    _check_against_rref_oracle(2, a, rhs, rng.integers(0, 2, size=(rows, int(rng.integers(0, 4)))))
    assert linalg.rank_mod(a, 2) == rank_fp(a, 2)


def test_one_word_path_takes_only_f2_matrices_of_at_most_64_columns(monkeypatch):
    words = []
    real = linalg._row_reduce_words

    def spy(a, limit):
        words.append(a.shape)
        return real(a, limit)

    monkeypatch.setattr(linalg, "_row_reduce_words", spy)
    for p, shape in [(2, (5, 64)), (2, (5, 65)), (3, (5, 8)), (2, (linalg.WORD_ROWS + 1, 8))]:
        linalg.rref(PrimeFieldMatrix(np.ones(shape, dtype=np.int64), p))
    assert words == [(5, 64)]


def test_packed_rank_batch_takes_only_f2_stacks_whose_shorter_side_is_at_most_64(monkeypatch):
    words = []
    real = linalg._rank_batch_words

    def spy(stack):
        words.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(linalg, "_rank_batch_words", spy)
    for p, shape in [(2, (3, 100, 64)), (2, (3, 64, 100)), (2, (3, 65, 65)), (3, (3, 8, 8)), (2, (0, 5, 5))]:
        linalg.rank_batch(np.ones(shape, dtype=np.int64), p)
    assert words == [(3, 100), (3, 100), (0, 5)]


def test_kernel_functions_match_rref_oracle_on_argmax_pivots():
    """Columns whose first nonzero at or below the pivot row is not the
    largest residue, so the kernel's argmax pivot is a different row from
    the oracle's first nonzero one; with dead and late-dying columns and an
    inconsistent right-hand side among them."""
    cases = [
        (5, [[2, 1, 0], [4, 3, 0], [0, 0, 0]]),
        (3, [[0, 1, 1, 0], [1, 0, 2, 0], [2, 0, 1, 0], [0, 0, 0, 0]]),
        (65521, [[0, 0, 7], [3, 0, 1], [65520, 0, 2], [1, 0, 0]]),
        (5, [[1, 2, 0, 0, 3], [0, 0, 0, 0, 0], [0, 0, 1, 0, 4], [0, 0, 3, 0, 2]]),
    ]
    for p, rows in cases:
        a = np.array(rows, dtype=np.int64)
        assert any(c[np.flatnonzero(c)[0]] != c.max() for c in a.T if c.any())
        n = a.shape[0]
        inconsistent = np.zeros((n, 1), dtype=np.int64)
        inconsistent[-1, 0] = 1
        for rhs in (inconsistent, (a @ np.ones((a.shape[1], 2), dtype=np.int64)) % p):
            _check_against_rref_oracle(p, a, rhs, np.eye(n, 1, dtype=np.int64))


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5, 65521]),
    st.integers(0, 3),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 4),
    st.booleans(),
)
@example(0, 2, 0, 3, 2, 2, False)  # empty stack
@example(0, 3, 2, 0, 2, 3, False)  # n = 0: no rows at all
@example(1, 5, 2, 3, 0, 2, False)  # no blocks
@example(2, 65521, 3, 4, 3, 4, True)  # rank 0 at the largest prime
def test_span_of_products_matches_the_product_loop(seed, p, k, n, b, c, zero):
    """Every g w, block by block, in one canonical basis, byte for byte;
    with zero columns in W, and W all zero (rank 0) when `zero` is set."""
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, size=(k, n, n))
    W = rng.integers(0, p, size=(b * n, c))
    W[:, rng.random(c) < 0.3] = 0
    if zero:
        W[:] = 0
    got = linalg.span_of_products(mats, W, p)
    want = span_of_products_loop(mats, W, p)
    assert got.shape == want.shape and got.array.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5, 65521]),
    st.integers(0, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
)
@example(0, 3, 2, 3, 3, 2, 1.0)  # every block zero
@example(1, 2, 1, 2, 4, 3, 0.9)
def test_span_of_products_skips_zero_blocks(seed, p, k, n, b, c, zero_share):
    """Zero n-row blocks inside nonzero columns are skipped, and the
    canonical basis is still the one the product loop gives, byte for byte."""
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, size=(k, n, n))
    W = rng.integers(0, p, size=(b, n, c))
    W.transpose(0, 2, 1)[rng.random((b, c)) < zero_share] = 0  # zero (block, column) pairs
    W = W.reshape(b * n, c)
    got = linalg.span_of_products(mats, W, p)
    want = span_of_products_loop(mats, W, p)
    assert got.shape == want.shape and got.array.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 65521]),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 4),
    st.booleans(),
)
@example(0, 2, 0, 3, 2, False)  # no rows
@example(0, 3, 4, 0, 3, False)  # no columns
@example(1, 3, 3, 4, 2, True)  # all zero
def test_column_space_ignores_inserted_zero_columns(seed, p, rows, cols, zeros, all_zero):
    """Zero columns add nothing to the span: with them inserted anywhere the
    canonical basis is still the oracle's, byte for byte."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols))
    if all_zero:
        a[:] = 0
    padded = np.insert(a, rng.integers(0, cols + 1, size=zeros), 0, axis=1)
    want = _span_basis(list(a.T), p, rows)
    for m in (a, padded):
        got = linalg.column_space(PrimeFieldMatrix(m, p))
        assert got.shape == want.shape and got.array.tobytes() == want.tobytes()


def _peelable(rng, p, rows, cols, kind):
    """A rows x cols matrix mod p shaped for the sparse elimination's peeling:
    'random' is sparse with any entries; 'units' puts several single-entry
    rows on one column; 'vanish' adds rows whose entries all lie in columns
    of single-entry rows, so they are empty once those columns are peeled; 'chain' is a
    staircase whose single-entry rows appear one per peeling round; 'zero'
    is all zero."""
    a = _sparse(rng, p, rows, cols, 0)
    if kind == "zero" or not rows or not cols:
        return a * 0
    c = int(rng.integers(0, cols))
    if kind == "units":
        a[rng.random(rows) < 0.5, c] = rng.integers(1, p)
        hit = rng.random(rows) < 0.5
        a[hit] = 0
        a[hit, c] = rng.integers(1, p, size=int(hit.sum()))
    elif kind == "vanish":
        h = min(rows // 2, cols)
        a[:h] = 0
        a[np.arange(h), np.arange(h)] = rng.integers(1, p, size=h)
        a[h::2, :h] = rng.integers(1, p, size=a[h::2, :h].shape)
        a[h::2, h:] = 0  # nonzero only on the columns peeled by the rows above
    elif kind == "chain":
        # row i is nonzero at i and i + 1 (and the last row only at its own
        # column), so each round peels one column and leaves the row above
        # with a single entry
        a = np.zeros((rows, cols), dtype=np.int64)
        for i in range(min(rows, cols)):
            a[i, i] = rng.integers(1, p)
            if i + 1 < min(rows, cols):
                a[i, i + 1] = rng.integers(1, p)
        a = a[rng.permutation(rows)]
    return a


def _sparse_rref_rows(a, p):
    """(pivots, rows): the rref of a assembled from the two parts
    sparse_rref gives, unit rows e_c at the peeled pivots and the rows of
    its block on their columns."""
    pivot, lead, cols, block = linalg.sparse_rref(linalg.SparseMatrix.from_dense(a), p)
    pivots = pivot.nonzero()[0]
    assert lead.tolist() == sorted(set(lead.tolist()) & set(pivots.tolist()))
    assert block.shape == (lead.size, cols.size)
    rows = np.zeros((pivots.size, a.shape[1]), dtype=np.int64)
    row_of = {c: i for i, c in enumerate(pivots.tolist())}
    for c in sorted(set(pivots.tolist()) - set(lead.tolist())):
        rows[row_of[c], c] = 1
    for r, c in enumerate(lead.tolist()):
        rows[row_of[c], cols] = block[r]
    return pivots, rows


@settings(deadline=None, max_examples=150)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 65521]),
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from(["random", "units", "vanish", "chain", "zero"]),
)
@example(0, 2, 0, 4, "random")  # no rows
@example(0, 3, 4, 0, "random")  # no columns
@example(0, 65521, 0, 0, "zero")
@example(1, 3, 5, 5, "zero")
@example(2, 2, 8, 3, "units")
@example(3, 65521, 6, 7, "vanish")
@example(4, 3, 9, 9, "chain")
@example(5, 2, 7, 4, "chain")
def test_sparse_elimination_matches_the_dense_kernels(seed, p, rows, cols, kind):
    """The sparse rref (pivots and rows), the column space (the rref of the
    transpose), the kernel space, the greedy unit completion and the product
    equal the dense rref, column_space, column_space(kernel_basis(.)),
    greedy_completion and matrix product, byte for byte."""
    rng = np.random.default_rng(seed)
    a = _peelable(rng, p, rows, cols, kind)
    m = PrimeFieldMatrix(a, p)
    sparse = linalg.SparseMatrix.from_dense(m.array)

    rr = linalg.rref(m)
    pivots, got = _sparse_rref_rows(a, p)
    assert tuple(pivots.tolist()) == rr.pivots
    assert _same(got, rr.matrix.array[: rr.rank])
    assert _same(_sparse_rref_rows(a.T.copy(), p)[1].T, linalg.column_space(m).array)

    want = linalg.column_space(linalg.kernel_basis(m))
    lead, ker = linalg.sparse_kernel_space(sparse, p)
    assert _same(ker.to_dense().T, want.array)
    assert lead.tolist() == list(linalg.rref(want.transpose()).pivots)

    picks = linalg.greedy_unit_completion(sparse, p)
    units = PrimeFieldMatrix.identity(cols, p)
    assert picks.tolist() == linalg.greedy_completion(linalg.column_space(m.transpose()), units)

    b = _peelable(rng, p, cols, int(rng.integers(0, 6)), "random")
    prod = linalg.sparse_product(sparse, linalg.SparseMatrix.from_dense(b), p)
    assert _same(prod.to_dense(), (a @ b) % p)
    assert not (prod.val == 0).any()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5, 7, 65521]),
    st.integers(0, 8),
    st.integers(0, 8),
    st.floats(0.0, 1.0),
)
@example(0, 2, 0, 3, 1.0)
@example(0, 3, 3, 0, 1.0)
@example(1, 5, 4, 6, 0.0)
@example(2, 65521, 8, 8, 1.0)
def test_sparse_kernel_space_is_the_canonical_kernel_basis(seed, p, rows, cols, density):
    """sparse_kernel_space(m), from one elimination of m with its columns
    reversed, is column_space(kernel_basis(m)); its rows are kernel vectors
    in reduced echelon form (each the unit vector at its own leading column,
    which it reports)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    m = PrimeFieldMatrix(a, p)
    lead, ker = linalg.sparse_kernel_space(linalg.SparseMatrix.from_dense(m.array), p)
    got = ker.to_dense().T
    assert _same(got, linalg.column_space(linalg.kernel_basis(m)).array)
    assert not ((a @ got) % p).any()
    assert lead.tolist() == [int(np.flatnonzero(col)[0]) for col in got.T]
    assert lead.tolist() == sorted(lead.tolist())
    assert _same(got[lead], np.eye(lead.size, dtype=np.int64))


def _exactness_case(rng, p, u, v, w, kind):
    """(f, g) for U -> V -> W with dim V = v. 'random' draws both; the others
    build f from a kernel basis K of a random g: 'exact' spans ker g exactly
    (K plus combinations of it), 'deficit' spans ker g less one K column (the
    rank half fails), and 'outside' trades that column for a vector g does
    not kill, when there is one (the product half fails)."""
    g = rng.integers(0, p, size=(w, v)) * (rng.random((w, v)) < 0.6)
    if kind == "random":
        return rng.integers(0, p, size=(v, u)) * (rng.random((v, u)) < 0.6), g
    K = linalg.kernel_basis(PrimeFieldMatrix(g, p)).array
    if kind != "exact" and K.shape[1]:
        K = K[:, 1:]
        if kind == "outside":
            hit = np.flatnonzero(g.any(axis=0))
            if hit.size:
                K = np.hstack([K, np.eye(v, dtype=np.int64)[:, hit[:1]]])
    f = np.hstack([K, K @ rng.integers(0, p, size=(K.shape[1], u)) % p])
    return f[:, rng.permutation(f.shape[1])], g


@settings(deadline=None, max_examples=120)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 65521]),
    st.integers(0, 4),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(["random", "exact", "deficit", "outside"]),
)
@example(0, 2, 0, 0, 0, "exact")  # every space zero
@example(0, 3, 2, 0, 3, "random")  # V = 0: im f = ker g = 0
@example(1, 3, 0, 4, 0, "exact")  # W = 0: ker g = V
@example(2, 65521, 1, 6, 2, "exact")
@example(3, 2, 2, 6, 3, "deficit")
@example(4, 65521, 0, 5, 2, "outside")
@example(5, 3, 3, 7, 4, "outside")
def test_exactness_is_the_kernel_comparison(seed, p, u, v, w, kind):
    """exactness(f, g) gives the ranks of f and g, and im f == ker g exactly
    when their canonical bases, column_space(f) and
    column_space(kernel_basis(g)), are equal."""
    rng = np.random.default_rng(seed)
    f, g = _exactness_case(rng, p, u, v, w, kind)
    rank_f, rank_g, exact = linalg.exactness(f, g, p)
    assert (rank_f, rank_g) == (rank_fp(f, p), rank_fp(g, p))
    want = linalg.column_space(PrimeFieldMatrix(f, p)) == linalg.column_space(
        linalg.kernel_basis(PrimeFieldMatrix(g, p))
    )
    assert exact == want
    if kind == "exact":
        assert exact
    # spans in spaces of different dimensions are never equal
    assert not linalg.exactness(np.zeros((v + 1, 0), dtype=np.int64), g, p)[2]


def _reduced_det_sympy(stack, p):
    """det(c_1 W_1 + ... + c_r W_r) expanded by sympy, its coefficients
    taken mod p and its exponents reduced by c^p = c, as {exponents: coef}."""
    sympy = pytest.importorskip("sympy")
    r, mu = stack.shape[0], stack.shape[1]
    cs = sympy.symbols(f"c0:{r}")
    entry = lambda i, j: sum(int(stack[t, i, j]) * cs[t] for t in range(r))
    det = sympy.expand(sympy.Matrix(mu, mu, entry).det(method="berkowitz"))
    terms = sympy.Poly(det, *cs).terms() if r else [((), int(det))]
    out: dict = {}
    for exps, c in terms:
        key = tuple(0 if e == 0 else (e - 1) % (p - 1) + 1 for e in exps)
        out[key] = (out.get(key, 0) + int(c)) % p
    return {k: c for k, c in out.items() if c}


def _pencil_case(rng, p, r, mu, kind):
    """An (r, mu, mu) stack: random entries, a last row that is zero in
    every member, rank-1 members u v_t^T sharing u, or rank-1 members."""
    if kind == "random":
        return rng.integers(0, p, size=(r, mu, mu))
    if kind == "zero_last_row":
        stack = rng.integers(0, p, size=(r, mu, mu))
        stack[:, -1, :] = 0
        return stack
    vs = rng.integers(0, p, size=(r, 1, mu))
    us = rng.integers(0, p, size=(1 if kind == "shared_rank_one" else r, mu, 1))
    return us @ vs % p


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 6),
    st.integers(1, 4),
    st.sampled_from(["random", "zero_last_row", "shared_rank_one", "rank_one"]),
)
@example(0, 3, 0, 2, "random")  # r = 0: nothing to combine
@example(1, 2, 6, 4, "zero_last_row")
@example(2, 5, 4, 3, "shared_rank_one")
@example(3, 3, 4, 4, "rank_one")  # four rank-1 maps can sum to a unit
@example(4, 2, 1, 1, "random")
def test_unit_combination_agrees_with_brute_force_and_sympy(seed, p, r, mu, kind):
    """The reduced determinant equals sympy's expanded det with coefficients
    mod p and exponents reduced by c^p = c; it is zero exactly when none of
    the p^r combinations is invertible; a returned point is invertible."""
    while p**r > 4096:
        r -= 1
    stack = _pencil_case(np.random.default_rng(seed), p, r, mu, kind)
    terms, coefs = linalg.reduced_determinant(stack, p)
    assert dict(zip(map(tuple, terms.tolist()), coefs.tolist())) == _reduced_det_sympy(stack, p)
    point = linalg.unit_combination(stack, p)
    assert (point is not None) == unit_in_span_brute(stack, p)
    if point is not None:
        assert rank_fp(np.tensordot(point, stack, axes=1) % p, p) == mu
    if kind in ("zero_last_row", "shared_rank_one") and mu > 1:
        assert point is None


def test_unit_combination_fixes_coordinates_to_their_least_values():
    """Over F_3, det(c_1 I + c_2 J) for J = diag(1, 2) is c_1^2 - c_2^2:
    c_1 = 0 leaves -c_2^2, nonzero, and then c_2 = 1 is the least value."""
    stack = np.array([np.eye(2, dtype=np.int64), np.diag([1, 2])])
    terms, coefs = linalg.reduced_determinant(stack, 3)
    assert dict(zip(map(tuple, terms.tolist()), coefs.tolist())) == {(2, 0): 1, (0, 2): 2}
    assert linalg.unit_combination(stack, 3).tolist() == [0, 1]
    # det(diag(c_1, c_2, c_1 + c_2)) = c_1^2 c_2 + c_1 c_2^2 reduces to 0 over F_2
    stack = np.array([np.diag([1, 0, 1]), np.diag([0, 1, 1])])
    assert linalg.reduced_determinant(stack, 2)[1].size == 0
    assert linalg.unit_combination(stack, 2) is None
    assert linalg.unit_combination(stack, 3).tolist() == [1, 1]


def test_reduced_determinant_refuses_an_expansion_over_the_cap(monkeypatch):
    """A row of the expansion past DETERMINANT_CELL_CAP raises ValueError
    naming r, mu and the cap before its terms are built: here the second
    row would hold 2 x 200 x 200 terms of 202 cells, 16 MB as uint8."""
    stack = np.ones((200, 2, 2), dtype=np.int64)
    monkeypatch.setattr(linalg, "DETERMINANT_CELL_CAP", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"r = 200, mu = 2: .* cap of 1048576"):
            linalg.reduced_determinant(stack, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
