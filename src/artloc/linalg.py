"""Exact dense linear algebra over prime fields F_p.

Matrices carry their modulus; entries are numpy int64 residues in [0, p).
Row reduction, kernels, solving and subspace arithmetic here are the
substrate for everything else in the package, so all outputs are canonical:
rref is unique, kernel bases are read off the rref with free variables set
to unit vectors in increasing column order, and solve() returns the
particular solution with all free variables zero.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

MAX_MODULUS = 1 << 16


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
def _inverse_table(p: int) -> np.ndarray:
    # index 0 is a placeholder; p is prime and small so Fermat is fine
    return np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)


def _check_modulus(p: int) -> None:
    if not is_prime(p) or p >= MAX_MODULUS:
        raise ValueError(f"modulus must be a prime below 2^16, got {p}")


def _row_reduce(a: np.ndarray, p: int, pivot_cols: Optional[int] = None) -> tuple[int, list[int]]:
    """In-place reduced row echelon form mod p.

    Pivots are searched only in the first `pivot_cols` columns (all columns
    by default), which lets callers reduce augmented blocks [M | B].
    Returns (rank, pivot column indices).
    """
    rows, cols = a.shape
    limit = cols if pivot_cols is None else pivot_cols
    inv = _inverse_table(p)
    r = 0
    pivots: list[int] = []
    for c in range(limit):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r, c:] = (a[r, c:] * inv[a[r, c]]) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            # row r is zero left of c, so elimination never touches those columns
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return r, pivots


class RrefResult(NamedTuple):
    matrix: "PrimeFieldMatrix"
    rank: int
    pivots: tuple[int, ...]


class PrimeFieldMatrix:
    """Immutable dense matrix over F_p."""

    __slots__ = ("p", "_a")

    def __init__(self, data, p: int):
        _check_modulus(p)
        a = np.array(data, dtype=np.int64)
        if a.ndim == 1:
            a = a.reshape(-1, 1) if a.size else a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        np.mod(a, p, out=a)
        a.setflags(write=False)
        self.p = p
        self._a = a

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "PrimeFieldMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "PrimeFieldMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @classmethod
    def from_columns(cls, columns: Sequence[np.ndarray], rows: int, p: int) -> "PrimeFieldMatrix":
        if not columns:
            return cls.zeros(rows, 0, p)
        return cls(np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1), p)

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

    def __hash__(self) -> int:
        return hash((self.p, self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, shape={self.shape})"

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other: "PrimeFieldMatrix") -> None:
        if not isinstance(other, PrimeFieldMatrix) or other.p != self.p:
            raise DimensionMismatch("operands must share a modulus")

    def __matmul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        self._coerce(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return PrimeFieldMatrix(self._a @ other._a, self.p)

    def __add__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        self._coerce(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return PrimeFieldMatrix(self._a + other._a, self.p)

    def __sub__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        self._coerce(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return PrimeFieldMatrix(self._a - other._a, self.p)

    def scale(self, c: int) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(self._a * (c % self.p), self.p)

    def transpose(self) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(self._a.T, self.p)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product mod p."""
        return (self._a @ np.asarray(v, dtype=np.int64)) % self.p

    def hstack(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        self._coerce(other)
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        return PrimeFieldMatrix(np.hstack([self._a, other._a]), self.p)

    @property
    def rank(self) -> int:
        return rref(self).rank


def rref(m: PrimeFieldMatrix) -> RrefResult:
    """Unique reduced row echelon form of m with rank and pivot columns."""
    a = m.array.copy()
    rank, pivots = _row_reduce(a, m.p)
    return RrefResult(PrimeFieldMatrix(a, m.p), rank, tuple(pivots))


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank of a raw integer array mod p, without wrapper overhead."""
    a = np.asarray(a, dtype=np.int64) % p
    if a.ndim != 2 or 0 in a.shape:
        return 0
    rank, _ = _row_reduce(a, p)
    return rank


def invertible_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of which square matrices in a (B, n, n) stack are
    invertible mod p. One vectorized elimination over the whole batch."""
    _check_modulus(p)
    m = np.mod(np.asarray(mats, dtype=np.int64), p)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("expected a (batch, n, n) stack")
    B, n, _ = m.shape
    inv = _inverse_table(p)
    ok = np.ones(B, dtype=bool)
    bidx = np.arange(B)
    for c in range(n):
        has = m[:, c:, c] != 0
        ok &= has.any(axis=1)
        if not ok.any():
            break
        # batched partial pivot: first nonzero row at or below c (dead
        # matrices get a harmless zero pivot and stay dead)
        pr = c + np.argmax(has, axis=1)
        rowc = m[bidx, c, :].copy()
        m[bidx, c, :] = m[bidx, pr, :]
        m[bidx, pr, :] = rowc
        m[:, c, c:] = m[:, c, c:] * inv[m[:, c, c]][:, None] % p
        below = m[:, c + 1 :, c]
        m[:, c + 1 :, c:] = (m[:, c + 1 :, c:] - below[..., None] * m[:, c : c + 1, c:]) % p
    return ok


def kernel_basis(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Canonical basis of the right null space, one column per free variable.

    Free variables are set to unit vectors in increasing column order, so
    the output is determined by m alone.
    """
    a = m.array.copy()
    rank, pivots = _row_reduce(a, m.p)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for r, c in enumerate(pivots):
            basis[c, k] = (-a[r, f]) % m.p
    return PrimeFieldMatrix(basis, m.p)


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
    for r, c in enumerate(pivots):
        x[c] = aug[r, m.cols:]
    return PrimeFieldMatrix(x, m.p)


def column_space(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Canonical basis of the column space (transposed rref rows)."""
    a = m.array.T.copy()
    rank, _ = _row_reduce(a, m.p)
    return PrimeFieldMatrix(a[:rank].T, m.p)


def contains_vector(basis: PrimeFieldMatrix, v: np.ndarray) -> bool:
    return solve(basis, v) is not None


def is_subspace(inner: PrimeFieldMatrix, outer: PrimeFieldMatrix) -> bool:
    """True when every column of `inner` lies in the span of `outer`."""
    if inner.cols == 0:
        return True
    return solve_matrix(outer, inner) is not None


def subspace_sum(u: PrimeFieldMatrix, v: PrimeFieldMatrix) -> PrimeFieldMatrix:
    return column_space(u.hstack(v))


def subspace_intersection(u: PrimeFieldMatrix, v: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Canonical basis of span(u) n span(v)."""
    if u.cols == 0 or v.cols == 0:
        return PrimeFieldMatrix.zeros(u.rows, 0, u.p)
    k = kernel_basis(u.hstack(v.scale(-1)))
    inter = (u.array @ k.array[: u.cols]) % u.p
    return column_space(PrimeFieldMatrix(inter, u.p))

