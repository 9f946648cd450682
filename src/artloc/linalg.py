"""Exact linear algebra over prime fields F_p, dense and sparse.

Matrices carry their modulus; entries are numpy int64 residues in [0, p).
Row reduction, kernels, solving and exactness checks here are the
substrate for everything else in the package, so all outputs are canonical:
rref is unique, kernel bases are read off the rref with free variables set
to unit vectors in increasing column order, and solve() returns the
particular solution with all free variables zero. Sparse matrices
(coordinate lists) have their own rref, kernel and product, with the same
canonical outputs as the dense ones.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

MAX_MODULUS = 1 << 16
BLOCK_ROWS = 4096  # rows per block of the batched enumerations
# monic lines a scan over monic_blocks tries at most, a multiple of BLOCK_ROWS;
# F_p^width has about p^(width-1) of them, so large p and wide scans stop undecided
SCAN_LINES = 1 << 20
DETERMINANT_CELL_CAP = 1 << 22  # cells of one expansion row in reduced_determinant
DENSE_CELL_CAP = 1 << 27  # cells of the dense block sparse_rref leaves after peeling (1 GiB of int64)
# row limit of the one-word F_2 elimination: each pivot visits every row in
# Python. On the first k rows of the 64-column matrices `analyze` reduces on
# length-64 rings, the packed path was faster up to 224 rows and slower from
# 240 (median of six matrices)
WORD_ROWS = 224


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or moduli."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@functools.lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inverse_table(p)[a] is the inverse of a mod p; index 0 holds 0."""
    # p is prime and small so Fermat is fine
    return np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def check_modulus(p: int) -> None:
    if not (p < MAX_MODULUS and is_prime(p)):
        raise ValueError(f"modulus must be a prime below 2^16, got {p}")


def _row_reduce(a: np.ndarray, p: int, pivot_cols: Optional[int] = None) -> tuple[int, list[int]]:
    """In-place reduced row echelon form mod p.

    Pivots are searched only in the first `pivot_cols` columns (all columns
    by default), which lets callers reduce augmented blocks [M | B].
    Returns (rank, pivot column indices).

    Only the columns live in a[:, :pivot_cols] are visited: row operations
    keep an all-zero column zero. The pivot is any nonzero entry at or below
    row r (argmax, a single call): every pivot is eliminated above and below,
    so the result is the reduced echelon form, which is unique, and so are
    its pivot columns. For [M | B] the left block is rref(M) either way; the
    right block's rows below the rank are all zero exactly when M X = B is
    consistent, and then its rows above the rank are rref(M) X, also unique.
    """
    rows = a.shape[0]
    limit = a.shape[1] if pivot_cols is None else pivot_cols
    if p == 2 and a.shape[1] <= 64 and rows <= WORD_ROWS:
        return _row_reduce_words(a, limit)
    inv = inverse_table(p)
    r = 0
    pivots: list[int] = []
    for c in a[:, :limit].any(axis=0).nonzero()[0].tolist():
        col = a[:, c]  # a view: it follows the row operations
        k = r + int(col[r:].argmax())
        piv = int(col[k])
        if piv == 0:
            continue
        if k != r:
            a[[r, k]] = a[[k, r]]
        if piv != 1:
            a[r, c:] = a[r, c:] * int(inv[piv]) % p
        hit = col.nonzero()[0]
        if hit.size > 1:
            hit = hit[hit != r]
            # row r is zero left of c, so elimination never touches those columns
            a[hit, c:] = _residues(a[hit, c:] - col[hit, None] * a[r, c:], p)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return r, pivots


_BIT_VALUES = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _row_reduce_words(a: np.ndarray, limit: int) -> tuple[int, list[int]]:
    """_row_reduce at p = 2 for at most 64 columns, with each row one
    Python int (bit j is column j) and row operations as XOR (Albrecht,
    Bard & Hart, "Algorithm 898", ACM TOMS 37(1), 2010). It takes the same
    pivot rows as the generic path, the first 1 at or below row r, so it
    writes back the same array."""
    n, cols = a.shape
    rows = (a.view(np.uint64) @ _BIT_VALUES[:cols]).tolist()
    live = 0
    for word in rows:
        live |= word
    live &= (1 << limit) - 1
    r = 0
    pivots: list[int] = []
    while live and r < n:
        bit = live & -live  # the next live column, lowest first
        live ^= bit
        for k in range(r, n):
            if rows[k] & bit:
                break
        else:
            continue
        piv = rows[k]
        rows[k] = rows[r]
        rows[r] = piv
        for i in range(n):
            if rows[i] & bit and i != r:
                rows[i] ^= piv
        pivots.append(bit.bit_length() - 1)
        r += 1
    words = np.array(rows, dtype="<u8").view(np.uint8).reshape(n, 8)
    a[:] = np.unpackbits(words, axis=1, count=cols, bitorder="little")
    return r, pivots


class RrefResult(NamedTuple):
    matrix: "PrimeFieldMatrix"
    rank: int
    pivots: tuple[int, ...]


class PrimeFieldMatrix:
    """Immutable dense matrix over F_p."""

    __slots__ = ("p", "_a")

    def __init__(self, data, p: int):
        check_modulus(p)
        a = np.array(data, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(-1, 1) if a.size else a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        np.mod(a, p, out=a)
        a.setflags(write=False)
        self.p = p
        self._a = a

    @classmethod
    def _own(cls, a: np.ndarray, p: int) -> "PrimeFieldMatrix":
        """Wrap a 2-D int64 array of residues mod p that the caller has just
        built and hands over: no copy and no reduction."""
        a.setflags(write=False)
        m = cls.__new__(cls)
        m.p = p
        m._a = a
        return m

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "PrimeFieldMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "PrimeFieldMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    # -- basic accessors -------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def column(self, j: int) -> np.ndarray:
        return self._a[:, j].copy()

    def tobytes(self) -> bytes:
        return self._a.shape.__repr__().encode() + self._a.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimeFieldMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, shape={self.shape})"

    # -- arithmetic -------------------------------------------------------------

    def transpose(self) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(self._a.T, self.p)

    @property
    def rank(self) -> int:
        return rref(self).rank


def rref(m: PrimeFieldMatrix) -> RrefResult:
    """Unique reduced row echelon form of m with rank and pivot columns."""
    a = m.array.copy()
    rank, pivots = _row_reduce(a, m.p)
    return RrefResult(PrimeFieldMatrix._own(a, m.p), rank, tuple(pivots))


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank of a raw integer array mod p, without wrapper overhead."""
    a = np.asarray(a, dtype=np.int64) % p
    if a.ndim != 2 or 0 in a.shape:
        return 0
    rank, _ = _row_reduce(a, p)
    return rank


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p for an int64 array; at p = 2 as a & 1, the same residues
    from a much cheaper ufunc."""
    return a & 1 if p == 2 else np.mod(a, p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays of residues, with matmul's broadcasting of
    stacks. The product runs in float64 through BLAS and is exact: an entry
    is a sum of a.shape[-1] products of residues below p < 2^16, so it stays
    below 2^53 for fewer than 2^21 terms."""
    return _residues((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), p)


def rank_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of each matrix in a (B, r, c) stack, from one vectorized
    elimination over the whole batch.

    Column j is cleared in every row by the first row nonzero there, top,
    which clears itself to zero: the rows left span a space that meets
    top's span in 0 (they are zero at j), so the rank grows by one where a
    top was found and the pivot rows need no bookkeeping. Only the rank is
    needed, so pivots are never scaled. The stack is transposed first when
    that shortens the loop over columns; over F_2 a matrix of at most 64
    columns is then reduced as one word per row (_rank_batch_words)."""
    check_modulus(p)
    m = _residues(np.asarray(mats, dtype=np.int64), p)
    if m.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) stack")
    if m.shape[1] < m.shape[2]:
        m = np.ascontiguousarray(m.transpose(0, 2, 1))
    B, r, c = m.shape
    if p == 2 and c <= 64:
        return _rank_batch_words(m.view(np.uint64) @ _BIT_VALUES[:c])
    inv = inverse_table(p)
    rank = np.zeros(B, dtype=np.int64)
    bidx = np.arange(B)
    for j in range(c):
        col = m[:, :, j]
        hit = col != 0
        found = hit.any(axis=1)
        if not found.any():
            continue
        # where nothing was found, top is zero at j and f is zero
        top = m[bidx, hit.argmax(axis=1)]
        f = col * inv[top[:, j]][:, None] % p
        m[:, :, j:] = (m[:, :, j:] - f[:, :, None] * top[:, None, j:]) % p
        rank += found
    return rank


def _rank_batch_words(words: np.ndarray) -> np.ndarray:
    """rank_batch over F_2 for the (B, r) uint64 stack whose row words hold
    bit j for column j (Albrecht, Bard & Hart, "Algorithm 898", ACM TOMS
    37(1), 2010): the same elimination with XOR. Row operations only move
    bits among the columns some row has set, so only those are visited."""
    rank = np.zeros(words.shape[0], dtype=np.int64)
    bidx = np.arange(words.shape[0])
    live = int(np.bitwise_or.reduce(words, axis=None)) if words.size else 0
    while live:
        bit = live & -live
        live ^= bit
        hit = (words & np.uint64(bit)) != 0
        found = hit.any(axis=1)
        top = words[bidx, hit.argmax(axis=1)]
        words ^= np.where(hit, top[:, None], np.uint64(0))
        rank += found
    return rank


def invertible_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of which square matrices in a (B, n, n) stack are
    invertible mod p: those of rank n."""
    mats = np.asarray(mats)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a (batch, n, n) stack")
    return rank_batch(mats, p) == mats.shape[1]


def kernel_basis(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Canonical basis of the right null space, one column per free variable.

    Free variables are set to unit vectors in increasing column order, so
    the output is determined by m alone.
    """
    a = m.array.copy()
    rank, pivots = _row_reduce(a, m.p)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((m.cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -a[:rank, free] % m.p
    return PrimeFieldMatrix._own(basis, m.p)


def solve(m: PrimeFieldMatrix, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution of m x = b with all free variables zero, or None."""
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if b.shape[0] != m.rows:
        raise DimensionMismatch("right-hand side length does not match rows")
    sol = solve_matrix(m, PrimeFieldMatrix(b.reshape(-1, 1), m.p))
    return None if sol is None else sol.array[:, 0].copy()


def solve_matrix(m: PrimeFieldMatrix, b: PrimeFieldMatrix) -> Optional[PrimeFieldMatrix]:
    """Solve m X = b column by column; None if any column is inconsistent."""
    if m.p != b.p or m.rows != b.rows:
        raise DimensionMismatch("incompatible system")
    aug = np.hstack([m.array, b.array])
    rank, pivots = _row_reduce(aug, m.p, pivot_cols=m.cols)
    # consistency: rows below rank must have zero right-hand block
    if np.any(aug[rank:, m.cols:]):
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    x[pivots] = aug[:rank, m.cols:]
    return PrimeFieldMatrix._own(x, m.p)


def column_space(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Canonical basis of the column space (transposed rref rows). All-zero
    columns add nothing to the span, so only the others are copied."""
    a = m.array.T[m.array.any(axis=0)]
    rank, _ = _row_reduce(a, m.p)
    # a row slice would keep all of a alive: copy only the rank rows then
    return PrimeFieldMatrix._own((a if rank == a.shape[0] else a[:rank].copy()).T, m.p)


def span_of_products(mats: np.ndarray, W: np.ndarray, p: int) -> PrimeFieldMatrix:
    """Canonical basis of the span of every g w, where each g in the
    (k, n, n) stack mats acts on each n-row block of every column w of the
    (b * n, c) array W. Both must hold residues mod p, or the products can
    overflow int64 near p = 2^16. k, b, c and n may be zero.

    Only the nonzero blocks of W are multiplied; a zero block has zero
    products, which add nothing to the span."""
    k, n = mats.shape[:2]
    rows, c = W.shape
    b = rows // n if n else 0
    blocks = W.reshape(b, n, c)
    bb, cc = blocks.any(axis=1).nonzero()
    # stacked[(block, a), (i, col)] = (mats[i] W[block])[a, col]
    stacked = np.zeros((b, n, k, c), dtype=np.int64)
    stacked[bb, :, :, cc] = np.einsum("iaj,tj->tai", mats, blocks[bb, :, cc]) % p
    return column_space(PrimeFieldMatrix._own(stacked.reshape(rows, k * c), p))


def greedy_completion(span: PrimeFieldMatrix, candidates: PrimeFieldMatrix) -> list[int]:
    """Indices of the candidate columns a left-to-right greedy scan keeps to
    extend span(span): those earning a pivot past the span block in
    rref([span | candidates]), each lying outside the span of all earlier
    columns."""
    aug = np.hstack([span.array, candidates.array])
    _, pivots = _row_reduce(aug, span.p)
    return [c - span.cols for c in pivots if c >= span.cols]


def complement_projection(span: PrimeFieldMatrix) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(proj, lift, keep) for F_p^n -> F_p^n / span(span) in the canonical
    complement coordinates keep, the non-pivot rows of rref(span^T); lift
    is the coordinate section of proj.

    Reducing v by the rref rows one pivot c at a time subtracts v[c] * row.
    Each row is zero at every other pivot, so the steps do not interact and
    the whole reduction is v - rows^T (v at the pivots): one product."""
    a = span.array.T.copy()
    rank, pivots = _row_reduce(a, span.p)
    pivot_set = set(pivots)
    keep = [i for i in range(span.rows) if i not in pivot_set]
    eye = np.eye(span.rows, dtype=np.int64)
    proj = (eye[keep] - a[:rank, keep].T @ eye[pivots]) % span.p
    return proj, eye[:, keep], keep


def digits(nums: np.ndarray, p: int, width: int) -> np.ndarray:
    """Base-p digit rows of the int64 array nums, little-endian: digit i of n is
    (n // p^i) % p. Dividing by p once per digit, it forms no power of p to overflow."""
    out = np.empty((nums.size, width), dtype=np.int64)
    for d in range(width):
        out[:, d], nums = nums % p, nums // p
    return out


def monic_numbers(p: int, width: int):
    """The integer of one digit row per line of F_p^width: zero, then every
    integer whose top nonzero base-p digit is 1 (those in [p^j, 2 p^j),
    j < width), in increasing order, in blocks of BLOCK_ROWS (the last may
    be shorter). Dividing a row by its top digit lowers its integer, so for
    a property shared by all unit multiples the first hit here is the first
    hit of a scan of all p^width integers."""
    # short ranges are packed into full blocks: a block per range made the scans slower
    pending = np.zeros(1, dtype=np.int64)
    for j in range(width):
        for lo in range(p**j, 2 * p**j, BLOCK_ROWS):
            pending = np.concatenate([pending, np.arange(lo, min(lo + BLOCK_ROWS, 2 * p**j))])
            while pending.size >= BLOCK_ROWS:
                yield pending[:BLOCK_ROWS]
                pending = pending[BLOCK_ROWS:]
    if pending.size:
        yield pending


def monic_blocks(p: int, width: int):
    """The digit rows of each block of monic_numbers."""
    for nums in monic_numbers(p, width):
        yield digits(nums, p, width)


def monic_index(rows: np.ndarray, p: int) -> np.ndarray:
    """The little-endian integer of the monic multiple of each row of the
    (B, width) array rows, width >= 1: the row monic_blocks lists for its
    line; 0 for a zero row."""
    width = rows.shape[1]
    top = width - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)
    scale = inverse_table(p)[rows[np.arange(rows.shape[0]), top]]  # 0 on the zero row
    return (rows * scale[:, None] % p) @ p ** np.arange(width, dtype=np.int64)


def _merge_terms(terms: np.ndarray, coefs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum mod p the coefficients of equal rows of the uint8 array terms; drop zero sums."""
    keys = np.ascontiguousarray(terms).view(np.dtype((np.void, terms.shape[1]))).ravel()
    order = np.argsort(keys)
    starts = np.flatnonzero(np.concatenate(([keys.size > 0], keys[order][1:] != keys[order][:-1])))
    sums = np.add.reduceat(coefs[order], starts) % p
    return terms[order[starts[sums != 0]]], sums[sums != 0]


def reduced_determinant(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """det(c_1 W_1 + ... + c_r W_r) for the (r, mu, mu) stack of the W_t, as
    uint8 exponent rows and nonzero coefficients mod p, with every exponent
    reduced by c^p = c: a ring map onto the functions F_p^r -> F_p that is
    injective on reduced polynomials, so the result is empty exactly when no
    member of the span is invertible. It is expanded along rows over the
    sets of used columns, which each term flags; a row whose terms would
    fill more than DETERMINANT_CELL_CAP cells raises ValueError unbuilt."""
    stack = np.mod(np.asarray(stack, dtype=np.int64), p)
    r, mu = stack.shape[0], stack.shape[1]
    terms, coefs = np.zeros((1, r + mu), dtype=np.uint8), np.ones(1, dtype=np.int64)
    for i in range(mu):
        cols, var = np.nonzero(stack[:, i, :].T)  # c_var appears in entry (i, col)
        src, pick = np.nonzero(terms[:, r + cols] == 0)  # a term times an entry of an unused column
        cells = src.size * (r + mu)
        if cells > DETERMINANT_CELL_CAP:
            raise ValueError(f"top-map determinant too large: r = {r}, mu = {mu}: {cells} cells in one "
                             f"row, over the cap of {DETERMINANT_CELL_CAP}")
        var, col = var[pick], cols[pick]
        # the sign of a term placed in column j: the parity of its used columns past j
        later = terms[:, r:][:, ::-1].cumsum(axis=1, dtype=np.int64)[:, ::-1] & 1
        grown, at = terms[src], np.arange(src.size)
        grown[at, var] = grown[at, var].astype(np.int64) % (p - 1) + 1  # c^p = c
        grown[at, r + col] = 1
        terms, coefs = _merge_terms(grown, coefs[src] * (1 - 2 * later[src, col]) * stack[var, i, col] % p, p)
    return terms[:, :r], coefs


def unit_combination(stack: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Coefficients c with c_1 W_1 + ... + c_r W_r invertible, or None when
    the reduced determinant is zero; c_1, c_2, ... are fixed in turn to the
    least value that leaves its restriction nonzero."""
    terms, coefs = reduced_determinant(stack, p)
    if not coefs.size:
        return None
    point = np.zeros(terms.shape[1], dtype=np.int64)
    for t in range(point.size):
        e = terms[:, t].astype(np.int64)
        if not e.all():  # c_t = 0 keeps exactly the terms free of c_t
            terms, coefs = terms[e == 0], coefs[e == 0]
            continue
        terms[:, t] = 0
        for a in range(1, p):  # some a works, as the restriction is nonzero
            merged = _merge_terms(terms, coefs * np.array([pow(a, k, p) for k in range(e.max() + 1)])[e] % p, p)
            if merged[1].size:
                break
        point[t] = a
        terms, coefs = merged
    return point


def exactness(f: np.ndarray, g: np.ndarray, p: int):
    """(rank f, rank g, im f == ker g) for the maps U -> V -> W given by the
    dense arrays f (dim V x dim U) and g (dim W x dim V) of residues mod p.
    For (B, dim V, dim U) and (B, dim W, dim V) stacks it gives the same for
    every pair, as three arrays, from two rank_batch calls and one batched
    product; a single pair is the stack of one.

    im f lies in ker g exactly when g f = 0, and then the two are equal
    exactly when they have the same dimension, rank f = dim V - rank g: two
    ranks and one product, with no basis of either subspace built. Spans of
    different spaces (f's rows not g's columns) are never equal."""
    f, g = np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64)
    if f.ndim == 2:
        rank_f, rank_g, exact = exactness(f[None], g[None], p)
        return int(rank_f[0]), int(rank_g[0]), bool(exact[0])
    rank_f, rank_g = rank_batch(f, p), rank_batch(g, p)
    dim = f.shape[1]
    if dim != g.shape[2]:
        return rank_f, rank_g, np.zeros(f.shape[0], dtype=bool)
    exact = (rank_f + rank_g == dim) & ~matmul_mod(g, f, p).any(axis=(1, 2))
    return rank_f, rank_g, exact


# -- sparse matrices ------------------------------------------------------------
#
# The resolutions' differentials are almost all zero, so their steps run on
# coordinate lists. The calls are many and mostly small, so these functions
# keep to few numpy calls: masks and index maps rather than np.unique, and
# ufunc methods rather than their Python-level wrappers.


class SparseMatrix(NamedTuple):
    """A matrix over F_p as coordinate lists: entry (row[t], col[t]) is
    val[t], a nonzero residue mod p, and no position repeats. The order of
    the entries carries no meaning."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseMatrix":
        """The nonzero entries of a 2-D array of residues."""
        r, c = a.nonzero()
        return cls(r, c, a[r, c], a.shape)

    @classmethod
    def summed(
        cls, row: np.ndarray, col: np.ndarray, val: np.ndarray, shape: tuple[int, int], p: int
    ) -> "SparseMatrix":
        """The matrix whose entry at each position is the sum mod p of the
        residues val given there (positions may repeat)."""
        key = row * shape[1] + col
        order = key.argsort()
        key = key[order]
        last = np.empty(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=last[:-1])
        last[-1:] = True
        total = np.add.accumulate(val[order])[last]
        total[1:] -= total[:-1]
        total %= p
        nonzero = total.nonzero()[0]
        row, col = np.divmod(key[last][nonzero], shape[1])
        return cls(row, col, total[nonzero], shape)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row, self.col] = self.val
        return out

    def reversed(self) -> "SparseMatrix":
        """The matrix with its columns in reverse order."""
        return self._replace(col=self.shape[1] - 1 - self.col)


def _positions(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(where, at): the indices where mask holds, and at[where[t]] = t."""
    where = mask.nonzero()[0]
    at = np.zeros(mask.size, dtype=np.int64)
    at[where] = np.arange(where.size)
    return where, at


def sparse_product(a: SparseMatrix, b: SparseMatrix, p: int) -> SparseMatrix:
    """a b mod p: every entry of a meets the entries of b in the row of its
    column, and the products are summed by position."""
    order = b.row.argsort()
    count = np.bincount(b.row, minlength=b.shape[0])
    reps = count[a.col]
    # the entries of a meet, in turn, the b entries order[end - count : end]
    # of the rows they name, end running over the row ends of b
    ends = np.repeat(np.add.accumulate(count)[a.col] - np.add.accumulate(reps), reps)
    bi = order[ends + np.arange(ends.size)]
    prods = np.repeat(a.val, reps) * b.val[bi] % p
    return SparseMatrix.summed(np.repeat(a.row, reps), b.col[bi], prods, (a.shape[0], b.shape[1]), p)


def sparse_rref(m: SparseMatrix, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(pivot, lead, cols, block): the reduced echelon form of m in two
    parts. pivot marks its pivot columns. Those not in lead are peeled, and
    their rref rows are the unit vectors e_c; the others, lead, increasing,
    are the pivots of the rows of block, which hold the rest of the rref on
    the columns cols.

    Rows with a single nonzero entry are taken first, in bulk (Faugere &
    Lachartre, PASCO 2010). Such a row scales to the unit vector e_c, which
    is the rref row of pivot c: a row-space vector that is zero at every
    pivot is zero. Subtracting e_c from the other rows only deletes their
    entries in column c, with no arithmetic, and can leave new single-entry
    rows, so this repeats. The rows left over are zero on every peeled
    column, so their rref, from _row_reduce on the live rows and columns
    only, together with the e_c, is the rref of m. When no row peels, that
    is _row_reduce on m at once. A block of more than DENSE_CELL_CAP cells
    raises ValueError unbuilt."""
    n_rows, n_cols = m.shape
    row, col, val = m.row, m.col, m.val
    pivot = np.zeros(n_cols, dtype=bool)
    single = np.bincount(row, minlength=n_rows)[row] == 1
    while np.count_nonzero(single):
        pivot[col[single]] = True
        keep = ~pivot[col]
        row, col, val = row[keep], col[keep], val[keep]
        single = np.bincount(row, minlength=n_rows)[row] == 1
    live = np.zeros(n_rows, dtype=bool)
    live[row] = True
    rows, row_at = _positions(live)
    live = np.zeros(n_cols, dtype=bool)
    live[col] = True
    cols, col_at = _positions(live)
    if rows.size * cols.size > DENSE_CELL_CAP:
        raise ValueError(f"dense elimination block too large: {rows.size} x {cols.size} = "
                         f"{rows.size * cols.size} cells, over the cap of {DENSE_CELL_CAP}")
    block = np.zeros((rows.size, cols.size), dtype=np.int64)
    block[row_at[row], col_at[col]] = val
    rank, lead = _row_reduce(block, p)
    lead = cols[lead]
    pivot[lead] = True
    return pivot, lead, cols, block[:rank]


def sparse_kernel_space(m: SparseMatrix, p: int) -> tuple[np.ndarray, SparseMatrix]:
    """(lead, rows): the reduced echelon basis of the right null space of m,
    basis vector i as row i, with its leading 1 at lead[i], increasing.

    m is reduced once, with its columns reversed, and each free variable is
    set to a unit vector. The vector of free column f is 1 at f, 0 at every
    other free column, and nonzero only at pivot columns, which all come
    after f in the original order; so, in that order, these vectors are
    already the reduced echelon basis: column_space(kernel_basis(m)) from
    one elimination instead of two. The peeled rows e_c are zero at every
    free column, so only the rows left over enter the vectors."""
    n = m.shape[1]
    pivot, lead, cols, a = sparse_rref(m.reversed(), p)
    free = ~pivot
    fc, index = _positions(free)
    index = fc.size - 1 - index  # reversed, the last free column comes first
    r, c = a.nonzero()
    hit = free[cols[c]].nonzero()[0]
    r, c = r[hit], c[hit]
    basis = SparseMatrix(
        np.concatenate([index[fc], index[cols[c]]]),
        np.concatenate([n - 1 - fc, n - 1 - lead[r]]),
        np.concatenate([np.ones(fc.size, dtype=np.int64), p - a[r, c]]),
        (fc.size, n),
    )
    return n - 1 - fc[::-1], basis


def greedy_unit_completion(m: SparseMatrix, p: int) -> np.ndarray:
    """Indices j, increasing, of the unit vectors e_j that a left-to-right
    greedy scan keeps to extend the row space of m:
    greedy_completion(column_space(m^T), identity). e_j lies in the span of
    the row space and the earlier e_i exactly when some row-space vector has
    its last nonzero entry at j, so the kept j are the leading columns of
    sparse_kernel_space(m), read off its pivots alone."""
    keep = ~sparse_rref(m.reversed(), p)[0]
    return keep[::-1].nonzero()[0]
