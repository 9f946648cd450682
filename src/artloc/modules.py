"""Finite-dimensional modules over a LocalAlgebra.

A module is its underlying F_p-space plus one action matrix per algebra
basis element. Everything downstream (minimal resolutions, Betti numbers,
Tor, Ext^1, Matlis duals, base change) reduces to exact linear algebra on
these matrices. All constructions pick canonical bases so repeated runs
produce identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .linalg import PrimeFieldMatrix
from .algebra import IdealSubspace, LocalAlgebra, QuotientRing


class SearchInconclusive(RuntimeError):
    """Randomized isomorphism search exhausted its budget without a verdict."""


class FpModule:
    """Module over a LocalAlgebra: action[i] is the matrix of e_i."""

    __slots__ = ("algebra", "dim", "action", "_fingerprint", "_profile", "_homdata")

    def __init__(self, algebra: LocalAlgebra, action: np.ndarray, validate: bool = True):
        action = np.mod(np.asarray(action, dtype=np.int64), algebra.p)
        if action.ndim != 3 or action.shape[0] != algebra.dim or action.shape[1] != action.shape[2]:
            raise ValueError("action tensor must have shape (dim_A, dim_M, dim_M)")
        action.setflags(write=False)
        self.algebra = algebra
        self.dim = action.shape[1]
        self.action = action
        self._fingerprint: Optional[tuple] = None
        self._profile: Optional[tuple] = None
        self._homdata: Optional[tuple] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        A, p = self.algebra, self.algebra.p
        if self.dim and not np.array_equal(self.action[0], np.eye(self.dim, dtype=np.int64)):
            raise ValueError("unit must act as the identity")
        for i in range(A.dim):
            for j in range(i, A.dim):
                lhs = (self.action[i] @ self.action[j]) % p
                rhs = np.tensordot(A.table[i, j], self.action, axes=(0, 0)) % p
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"action violates structure constants at (e_{i}, e_{j})")

    # -- basic operations ---------------------------------------------------------

    def action_of(self, v: np.ndarray) -> np.ndarray:
        """Matrix of the element of the algebra with coordinates v."""
        v = np.asarray(v, dtype=np.int64) % self.algebra.p
        return np.tensordot(v, self.action, axes=(0, 0)) % self.algebra.p

    def radical_subspace(self) -> PrimeFieldMatrix:
        """Canonical basis of mM."""
        if self.dim == 0 or self.algebra.dim == 1:
            return PrimeFieldMatrix.zeros(self.dim, 0, self.algebra.p)
        stacked = np.hstack([self.action[i] for i in range(1, self.algebra.dim)])
        return linalg.column_space(PrimeFieldMatrix(stacked, self.algebra.p))

    def socle_subspace(self) -> PrimeFieldMatrix:
        """Canonical basis of (0 :_M m)."""
        if self.dim == 0:
            return PrimeFieldMatrix.zeros(0, 0, self.algebra.p)
        if self.algebra.dim == 1:
            return PrimeFieldMatrix.identity(self.dim, self.algebra.p)
        stacked = np.vstack([self.action[i] for i in range(1, self.algebra.dim)])
        return linalg.kernel_basis(PrimeFieldMatrix(stacked, self.algebra.p))

    def fingerprint(self) -> tuple:
        """(dim, action rank profile, raw bytes): equal modules compare equal,
        and the first two components are isomorphism invariants."""
        if self._fingerprint is None:
            ranks = tuple(
                PrimeFieldMatrix(self.action[i], self.algebra.p).rank
                for i in range(1, self.algebra.dim)
            )
            self._fingerprint = (self.dim, ranks, self.action.tobytes())
        return self._fingerprint

    def iso_profile(self) -> tuple:
        """Cheap isomorphism invariants, used to separate modules before any
        Hom computation: radical series dims, socle series dims, and the rank
        profile of every basis element's powers."""
        if self._profile is not None:
            return self._profile
        p = self.algebra.p
        rad: list[int] = []
        span = PrimeFieldMatrix.identity(self.dim, p)
        while span.cols:
            if self.algebra.dim == 1:
                break
            nxt = np.hstack([(self.action[i] @ span.array) % p
                             for i in range(1, self.algebra.dim)])
            span = linalg.column_space(PrimeFieldMatrix(nxt, p))
            rad.append(span.cols)
            if rad[-1] == 0:
                break
        soc: list[int] = []
        known = PrimeFieldMatrix.zeros(self.dim, 0, p)
        while known.cols < self.dim:
            if self.algebra.dim == 1:
                soc.append(self.dim)
                break
            if known.cols == 0:
                funcs = PrimeFieldMatrix.identity(self.dim, p)
            else:
                funcs = linalg.kernel_basis(known.transpose())
            stacked = np.vstack([(funcs.transpose().array @ self.action[i]) % p
                                 for i in range(1, self.algebra.dim)])
            known = linalg.kernel_basis(PrimeFieldMatrix(stacked, p))
            soc.append(known.cols)
        powers = []
        for i in range(1, self.algebra.dim):
            prof = []
            m = self.action[i]
            while True:
                r = linalg.rank_mod(m, p)
                prof.append(r)
                if r == 0:
                    break
                m = (m @ self.action[i]) % p
            powers.append(tuple(prof))
        self._profile = (self.dim, tuple(rad), tuple(soc), tuple(powers))
        return self._profile

    def is_zero(self) -> bool:
        return self.dim == 0

    def __repr__(self) -> str:
        return f"FpModule(dim={self.dim} over p={self.algebra.p})"


class ModuleMap:
    """A-linear map between modules over the same algebra."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix, validate: bool = True):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        p = source.algebra.p
        m = np.mod(np.asarray(matrix, dtype=np.int64), p)
        if m.shape != (target.dim, source.dim):
            raise ValueError(f"matrix shape {m.shape} does not match map {source.dim}->{target.dim}")
        m.setflags(write=False)
        self.source = source
        self.target = target
        self.matrix = m
        if validate:
            for i in range(1, source.algebra.dim):
                lhs = (m @ source.action[i]) % p
                rhs = (target.action[i] @ m) % p
                if not np.array_equal(lhs, rhs):
                    raise ValueError(f"map does not commute with e_{i}")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(v, dtype=np.int64)) % self.source.algebra.p

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        if inner.target is not self.source:
            raise ValueError("maps do not compose")
        return ModuleMap(inner.source, self.target,
                         (self.matrix @ inner.matrix) % self.source.algebra.p, validate=False)

    def kernel(self) -> PrimeFieldMatrix:
        return linalg.kernel_basis(PrimeFieldMatrix(self.matrix, self.source.algebra.p))

    def image(self) -> PrimeFieldMatrix:
        return linalg.column_space(PrimeFieldMatrix(self.matrix, self.source.algebra.p))

    def is_injective(self) -> bool:
        return self.kernel().cols == 0

    def is_surjective(self) -> bool:
        return self.image().cols == self.target.dim

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dim}->{self.target.dim})"


# -- standard constructions ------------------------------------------------------------


def regular_module(A: LocalAlgebra) -> FpModule:
    """A as a module over itself."""
    action = np.stack([A.mult_matrix(i) for i in range(A.dim)])
    return FpModule(A, action, validate=False)


def free_module(A: LocalAlgebra, rank: int) -> FpModule:
    """A^rank with coordinates ordered (generator, algebra basis)."""
    eye = np.eye(rank, dtype=np.int64)
    action = np.stack([np.kron(eye, A.mult_matrix(i)) for i in range(A.dim)])
    return FpModule(A, action, validate=False)


class QuotientModule(NamedTuple):
    module: FpModule
    proj: ModuleMap
    lift: PrimeFieldMatrix


def quotient_module(M: FpModule, subspace: PrimeFieldMatrix) -> QuotientModule:
    """M / W for an action-invariant subspace W, with canonical complement
    coordinates (non-pivot rows of the rref of W)."""
    A = M.algebra
    p = A.p
    W = linalg.column_space(subspace)
    rr = linalg.rref(W.transpose())
    pivots = list(rr.pivots)
    keep = [i for i in range(M.dim) if i not in set(pivots)]
    reducer = rr.matrix.array[: rr.rank]

    def project_vec(v: np.ndarray) -> np.ndarray:
        v = v.copy() % p
        for r, c in enumerate(pivots):
            v = (v - v[c] * reducer[r]) % p
        return v[keep]

    pm = np.stack(
        [project_vec(np.eye(M.dim, dtype=np.int64)[:, i]) for i in range(M.dim)], axis=1
    ) if M.dim else np.zeros((0, 0), dtype=np.int64)
    lift = np.zeros((M.dim, len(keep)), dtype=np.int64)
    for j, c in enumerate(keep):
        lift[c, j] = 1
    action = np.stack([(pm @ M.action[i] @ lift) % p for i in range(A.dim)]) if M.dim else np.zeros(
        (A.dim, 0, 0), dtype=np.int64
    )
    Q = FpModule(A, action, validate=True)
    return QuotientModule(Q, ModuleMap(M, Q, pm, validate=True), PrimeFieldMatrix(lift, p))


class SubModule(NamedTuple):
    module: FpModule
    include: ModuleMap


def sub_module(M: FpModule, subspace: PrimeFieldMatrix) -> SubModule:
    """The submodule spanned by an action-invariant subspace."""
    A = M.algebra
    W = linalg.column_space(subspace)
    mats = []
    for i in range(A.dim):
        sol = linalg.solve_matrix(W, PrimeFieldMatrix((M.action[i] @ W.array) % A.p, A.p))
        if sol is None:
            raise ValueError("subspace is not action-invariant")
        mats.append(sol.array)
    S = FpModule(A, np.stack(mats) if mats else np.zeros((A.dim, 0, 0), dtype=np.int64))
    return SubModule(S, ModuleMap(S, M, W.array, validate=True))


def direct_sum(M: FpModule, N: FpModule) -> FpModule:
    if M.algebra is not N.algebra:
        raise ValueError("summands live over different algebras")
    A = M.algebra
    d = M.dim + N.dim
    action = np.zeros((A.dim, d, d), dtype=np.int64)
    action[:, : M.dim, : M.dim] = M.action
    action[:, M.dim :, M.dim :] = N.action
    return FpModule(A, action, validate=False)


def cyclic_module(A: LocalAlgebra, ideal: IdealSubspace) -> FpModule:
    """R/I as a module over A."""
    return quotient_module(regular_module(A), ideal.basis).module


def residue_field(A: LocalAlgebra) -> FpModule:
    return cyclic_module(A, A.maxideal())


# -- ring-entry matrices and presentations ----------------------------------------------


class RingMatrix:
    """Matrix with entries in a LocalAlgebra, stored as (rows, cols, dim_A)."""

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: LocalAlgebra, entries: np.ndarray):
        entries = np.mod(np.asarray(entries, dtype=np.int64), algebra.p)
        if entries.ndim != 3 or entries.shape[2] != algebra.dim:
            raise ValueError("entries must have shape (rows, cols, dim_A)")
        entries.setflags(write=False)
        self.algebra = algebra
        self.entries = entries

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.entries[i, j].copy()

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.algebra, np.transpose(self.entries, (1, 0, 2)))

    def acting_on(self, N: FpModule) -> PrimeFieldMatrix:
        """Block matrix of the induced map N^cols -> N^rows: block (r, c) is
        the action on N of entry (r, c)."""
        if N.algebra is not self.algebra:
            raise ValueError("module lives over a different algebra")
        out = np.einsum("rca,aij->ricj", self.entries, N.action)
        np.mod(out, self.algebra.p, out=out)
        return PrimeFieldMatrix(out.reshape(self.rows * N.dim, self.cols * N.dim), self.algebra.p)

    def as_linear_map(self) -> PrimeFieldMatrix:
        """The induced map A^cols -> A^rows on free-module coordinates."""
        return self.acting_on(regular_module(self.algebra))

    def all_entries_in(self, subspace: PrimeFieldMatrix) -> bool:
        for r in range(self.rows):
            for c in range(self.cols):
                if not linalg.contains_vector(subspace, self.entries[r, c]):
                    return False
        return True

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols} over dim {self.algebra.dim})"


@dataclass
class FreePresentation:
    """Exact A^b1 -> A^b0 -> M -> 0; relations holds the b0 x b1 matrix."""

    relations: RingMatrix
    cover: ModuleMap  # free_module(A, b0) -> M
    minimal: bool

    @property
    def betti0(self) -> int:
        return self.relations.rows

    @property
    def betti1(self) -> int:
        return self.relations.cols


def minimal_generators(M: FpModule, subspace: Optional[PrimeFieldMatrix] = None) -> list[np.ndarray]:
    """Minimal generating vectors of a submodule (default: M itself).

    Greedy over the canonical basis columns against m*(submodule), so the
    choice is deterministic. Nakayama makes the count equal dim W/mW.
    """
    A = M.algebra
    p = A.p
    if subspace is None:
        cols = PrimeFieldMatrix.identity(M.dim, p)
    else:
        cols = linalg.column_space(subspace)
    if cols.cols == 0:
        return []
    if A.dim == 1:
        return [cols.column(j) for j in range(cols.cols)]
    mw = np.hstack([(M.action[i] @ cols.array) % p for i in range(1, A.dim)])
    span = linalg.column_space(PrimeFieldMatrix(mw, p))
    # one elimination: candidates that earn a pivot past the m*W block are
    # exactly the greedy picks against span(mW) + earlier picks
    aug = PrimeFieldMatrix(np.hstack([span.array, cols.array]), p)
    rr = linalg.rref(aug)
    return [cols.column(j - span.cols) for j in rr.pivots if j >= span.cols]


def _cover_matrix(M: FpModule, gens: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of A^len(gens) -> M sending e_g (x) e_j to e_j * gens[g]."""
    A = M.algebra
    cols = []
    for g in gens:
        for j in range(A.dim):
            cols.append((M.action[j] @ g) % A.p)
    if not cols:
        return np.zeros((M.dim, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


class Resolution:
    """Minimal free resolution ... -> A^b2 -> A^b1 -> A^b0 -> M -> 0."""

    def __init__(self, M: FpModule, steps: int):
        A = M.algebra
        p = A.p
        self.module = M
        self.algebra = A
        gens = minimal_generators(M)
        self.betti: list[int] = [len(gens)]
        self.covers: list[np.ndarray] = [_cover_matrix(M, gens)]
        self.differentials: list[RingMatrix] = []
        current = PrimeFieldMatrix(self.covers[0], p)
        for _ in range(steps):
            b_prev = self.betti[-1]
            F_prev = free_module(A, b_prev)
            ker = linalg.kernel_basis(current)
            sygens = minimal_generators(F_prev, ker)
            b = len(sygens)
            entries = np.zeros((b_prev, b, A.dim), dtype=np.int64)
            for k, v in enumerate(sygens):
                entries[:, k, :] = v.reshape(b_prev, A.dim)
            d = RingMatrix(A, entries)
            lin = d.as_linear_map()
            # exactness: the chosen generators must span the kernel exactly
            if linalg.column_space(lin).cols != ker.cols or not linalg.is_subspace(lin, ker):
                raise RuntimeError("resolution step failed to span the syzygy module")
            self.differentials.append(d)
            self.betti.append(b)
            current = lin

    def differential(self, i: int) -> RingMatrix:
        """d_i: A^b_i -> A^b_{i-1}, defined for 1 <= i <= steps."""
        return self.differentials[i - 1]

    def betti_number(self, i: int) -> int:
        return self.betti[i]


def minimal_free_resolution(M: FpModule, steps: int) -> Resolution:
    return Resolution(M, steps)


def betti_numbers(M: FpModule, steps: int) -> list[int]:
    return minimal_free_resolution(M, steps).betti


def minimal_presentation(M: FpModule) -> FreePresentation:
    res = minimal_free_resolution(M, 1)
    A = M.algebra
    cover = ModuleMap(free_module(A, res.betti[0]), M, res.covers[0], validate=True)
    return FreePresentation(relations=res.differential(1), cover=cover, minimal=True)


# -- derived functors ---------------------------------------------------------------------


def _coset_representatives(ker: PrimeFieldMatrix, im: PrimeFieldMatrix) -> list[np.ndarray]:
    """Canonical vectors of ker completing im to ker (greedy over ker columns)."""
    reps = []
    span = linalg.column_space(im)
    for j in range(ker.cols):
        v = ker.column(j)
        if not linalg.contains_vector(span, v):
            reps.append(v)
            span = linalg.subspace_sum(span, PrimeFieldMatrix(v.reshape(-1, 1), ker.p))
    return reps


def tor(M: FpModule, N: FpModule, i: int) -> tuple[int, list[np.ndarray]]:
    """Tor_i(M, N): dimension and coset representatives in N^{b_i} coordinates."""
    if i < 0:
        raise ValueError("negative homological degree")
    res = minimal_free_resolution(M, i + 1)
    p = M.algebra.p
    D_next = res.differential(i + 1).acting_on(N)
    if i == 0:
        ker = PrimeFieldMatrix.identity(res.betti[0] * N.dim, p)
    else:
        ker = linalg.kernel_basis(res.differential(i).acting_on(N))
    im = linalg.column_space(D_next)
    reps = _coset_representatives(ker, im)
    return len(reps), reps


class Ext1Space:
    """Ext^1(X, L) with representative cocycles against a fixed minimal
    resolution of X. Each representative is a (dim_L, b1) matrix giving the
    images of the b1 free generators of F_1."""

    def __init__(self, X: FpModule, L: FpModule):
        if X.algebra is not L.algebra:
            raise ValueError("modules live over different algebras")
        A = X.algebra
        p = A.p
        self.X = X
        self.L = L
        res = minimal_free_resolution(X, 2)
        self.beta0, self.beta1 = res.betti[0], res.betti[1]
        self.d1 = res.differential(1)
        self.cover0 = res.covers[0]  # matrix dim_X x (beta0 * dim_A)
        d2 = res.differential(2)
        # cocycles: phi with phi . d2 = 0, phi stored as L^{beta1}
        z_map = d2.transpose().acting_on(L)
        Z = linalg.kernel_basis(z_map)
        b_map = self.d1.transpose().acting_on(L)
        B = linalg.column_space(b_map)
        self.reps = [r.reshape(self.beta1, L.dim).T for r in _coset_representatives(Z, B)]
        self.dim = len(self.reps)

    def cocycle(self, coeffs: Sequence[int]) -> np.ndarray:
        """The (dim_L, beta1) cocycle matrix for coordinates in the basis."""
        p = self.X.algebra.p
        phi = np.zeros((self.L.dim, self.beta1), dtype=np.int64)
        for c, rep in zip(coeffs, self.reps):
            phi = (phi + (c % p) * rep) % p
        return phi


def ext1(X: FpModule, L: FpModule) -> Ext1Space:
    return Ext1Space(X, L)


# -- pointwise invariants -----------------------------------------------------------------


def canonical_fingerprint(M: FpModule) -> tuple:
    """Sort key for module lists: dimension, sorted action-rank profile,
    then the raw action bytes as a final deterministic tiebreak."""
    dim, ranks, raw = M.fingerprint()
    return (dim, tuple(sorted(ranks)), raw)


def splits_off_k(M: FpModule) -> Optional[np.ndarray]:
    """A witness v in socle(M) \\ mM when k is a direct summand, else None."""
    soc = M.socle_subspace()
    rad = M.radical_subspace()
    for j in range(soc.cols):
        v = soc.column(j)
        if not linalg.contains_vector(rad, v):
            return v
    return None


def jordan_type(M: FpModule, t: np.ndarray) -> tuple[int, ...]:
    """Partition of dim M by Jordan block sizes of the nilpotent action of t."""
    A = M.algebra
    if not A.is_in_maxideal(t):
        raise ValueError("element must lie in the maximal ideal")
    T = M.action_of(t)
    ranks = [M.dim]
    power = np.eye(M.dim, dtype=np.int64)
    while ranks[-1] > 0:
        power = (power @ T) % A.p
        ranks.append(PrimeFieldMatrix(power, A.p).rank)
    parts: list[int] = []
    for s in range(1, len(ranks)):
        r_prev, r_s = ranks[s - 1], ranks[s]
        r_next = ranks[s + 1] if s + 1 < len(ranks) else 0
        parts.extend([s] * (r_prev - 2 * r_s + r_next))
    return tuple(sorted(parts, reverse=True))


def matlis_dual(M: FpModule) -> FpModule:
    """Hom_k(M, k) with the transposed action."""
    action = np.transpose(M.action, (0, 2, 1))
    return FpModule(M.algebra, action, validate=False)


def base_change(M: FpModule, qr: QuotientRing) -> FpModule:
    """M/IM as a module over the quotient algebra A/I."""
    A = M.algebra
    p = A.p
    I = qr.ideal
    if I.dim:
        im_cols = np.hstack([M.action_of(I.basis.column(j)) for j in range(I.dim)])
        IM = linalg.column_space(PrimeFieldMatrix(im_cols, p))
    else:
        IM = PrimeFieldMatrix.zeros(M.dim, 0, p)
    qm = quotient_module(M, IM)
    B = qr.algebra
    action = np.stack(
        [
            (qm.proj.matrix @ M.action_of(qr.lift.column(j)) @ qm.lift.array) % p
            for j in range(B.dim)
        ]
    ) if qm.module.dim else np.zeros((B.dim, 0, 0), dtype=np.int64)
    return FpModule(B, action, validate=True)


# -- hom spaces and isomorphism testing ------------------------------------------------------


def _presentation_data(M: FpModule) -> tuple:
    """Cached (d1, lift): minimal relations of M and a linear section of the
    cover A^b0 -> M. A hom out of M is then a kernel element of d1 acting."""
    if M._homdata is None:
        res = Resolution(M, 1)
        cover = PrimeFieldMatrix(res.covers[0], M.algebra.p)
        lift = linalg.solve_matrix(cover, PrimeFieldMatrix.identity(M.dim, M.algebra.p))
        M._homdata = (res.differentials[0], lift.array)
    return M._homdata


def _hom_constraint(M: FpModule, N: FpModule) -> tuple:
    """(d1, lift, D) where Hom(M, N) = ker D inside N^b0."""
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    d1, lift = _presentation_data(M)
    return d1, lift, d1.transpose().acting_on(N)


def hom_dim(M: FpModule, N: FpModule) -> int:
    """dim Hom_A(M, N) without extracting a basis."""
    if M.dim == 0 or N.dim == 0:
        return 0
    d1, _, D = _hom_constraint(M, N)
    return d1.rows * N.dim - linalg.rank_mod(D.array, M.algebra.p)


def _generator_images(M: FpModule, N: FpModule) -> tuple[np.ndarray, np.ndarray]:
    """(lift, imgs): imgs[t, i] is the image of M's i-th minimal generator
    under the t-th canonical basis element of Hom_A(M, N)."""
    d1, lift, D = _hom_constraint(M, N)
    ker = linalg.kernel_basis(D)
    return lift, ker.array.T.reshape(ker.cols, d1.rows, N.dim)


def _hom_matrices(N: FpModule, lift: np.ndarray, imgs: np.ndarray) -> np.ndarray:
    """The (..., dim_N, dim_M) matrices of the homs with generator images imgs."""
    # e_j * n_i columns, laid out (generator major, algebra basis minor)
    ev = np.einsum("jnm,...im->...nij", N.action, imgs)
    ev = ev.reshape(imgs.shape[:-2] + (N.dim, imgs.shape[-2] * N.algebra.dim)) % N.algebra.p
    return (ev @ lift) % N.algebra.p


def hom_space_matrices(M: FpModule, N: FpModule) -> list[np.ndarray]:
    """Basis of Hom_A(M, N) as (dim_N, dim_M) matrices, canonically ordered.

    Computed through a minimal presentation of M: a map out of coker(d1) is
    a tuple of generator images killed by the relations, so the system has
    b0 * dim_N unknowns instead of dim_M * dim_N.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    if M.dim == 0 or N.dim == 0:
        return []
    lift, imgs = _generator_images(M, N)
    return list(_hom_matrices(N, lift, imgs))


def hom_space(M: FpModule, N: FpModule) -> list[ModuleMap]:
    return [ModuleMap(M, N, h, validate=False) for h in hom_space_matrices(M, N)]


@dataclass
class IsoResult:
    isomorphic: bool
    witness: Optional[ModuleMap]

    def __bool__(self) -> bool:
        return self.isomorphic


EXHAUSTIVE_COMBO_BUDGET = 1 << 17


def _digit_block(start: int, stop: int, p: int, width: int) -> np.ndarray:
    """Base-p digit rows (little-endian) for the integers start..stop-1."""
    nums = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((nums.size, width), dtype=np.int64)
    for d in range(width):
        out[:, d] = nums % p
        nums //= p
    return out


def _find_unit_combo(stack: np.ndarray, coeff_blocks, p: int) -> Optional[np.ndarray]:
    """First coefficient row whose combination of the stacked square
    matrices is invertible, or None."""
    for coeffs in coeff_blocks:
        if coeffs.size == 0:
            continue
        cands = np.tensordot(coeffs, stack, axes=(1, 0)) % p
        hit = np.nonzero(linalg.invertible_batch(cands, p))[0]
        if hit.size:
            return coeffs[hit[0]]
    return None


def is_isomorphic(M: FpModule, N: FpModule, seed: int = 0, budget: int = 1 << 14) -> IsoResult:
    """Decide M = N by searching the image of Hom(M, N) in Hom_k(M/mM, N/mN).

    By Nakayama, a hom between modules of equal dimension is an isomorphism
    iff its top map is invertible, and that image has dimension r at most
    mu(M) mu(N). The scan over monic combinations of r independent top maps
    is exhaustive (hence definite) when their count fits
    EXHAUSTIVE_COMBO_BUDGET; otherwise seeded random sampling raises
    SearchInconclusive on budget exhaustion, which is distinct from a
    definite no. Only the winning combination is lifted to a matrix, and
    it is checked to be A-linear and invertible before it is returned.
    """
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    p = M.algebra.p
    if M.dim != N.dim:
        return IsoResult(False, None)
    if M.dim == 0:
        return IsoResult(True, ModuleMap(M, N, np.zeros((0, 0), dtype=np.int64), validate=False))
    if M.fingerprint()[:2] != N.fingerprint()[:2]:
        return IsoResult(False, None)
    if M.iso_profile() != N.iso_profile():
        return IsoResult(False, None)
    lift, imgs = _generator_images(M, N)
    h = imgs.shape[0]
    if h == 0:
        return IsoResult(False, None)
    # rows of `top` are functionals vanishing exactly on mN: a fixed N -> N/mN.
    # Equal profiles give dim mM = dim mN, so the top maps are square.
    top = linalg.kernel_basis(N.radical_subspace().transpose()).array.T
    tops = np.einsum("un,tin->tui", top, imgs) % p
    # the top maps of the first independent Hom basis elements span the image
    keep = list(linalg.rref(PrimeFieldMatrix(tops.reshape(h, -1).T, p)).pivots)
    stack, imgs = tops[keep], imgs[keep]
    r = len(keep)

    def lifted(coeffs: np.ndarray) -> IsoResult:
        H = _hom_matrices(N, lift, np.tensordot(coeffs, imgs, axes=(0, 0)) % p)
        if np.any((N.action @ H - H @ M.action) % p) or linalg.rank_mod(H, p) != M.dim:
            raise RuntimeError("lifted top-space witness is not an isomorphism")
        return IsoResult(True, ModuleMap(M, N, H, validate=False))

    # scaling preserves invertibility, so scanning monic combinations
    # (first nonzero coefficient 1) covers every candidate up to units
    if (p**r - 1) // (p - 1) <= EXHAUSTIVE_COMBO_BUDGET:

        def monic_blocks():
            for lead in range(r):
                tail = r - lead - 1
                total = p**tail
                for start in range(0, total, 4096):
                    digits = _digit_block(start, min(start + 4096, total), p, tail)
                    block = np.zeros((digits.shape[0], r), dtype=np.int64)
                    block[:, lead] = 1
                    block[:, lead + 1 :] = digits
                    yield block

        coeffs = _find_unit_combo(stack, monic_blocks(), p)
        return IsoResult(False, None) if coeffs is None else lifted(coeffs)

    rng = np.random.default_rng(seed)

    def sample_blocks(total):
        done = 0
        while done < total:
            take = min(1024, total - done)
            done += take
            yield rng.integers(0, p, size=(take, r)).astype(np.int64)

    # one cheap block first: isomorphic pairs almost always resolve here
    first = min(1024, budget)
    coeffs = _find_unit_combo(stack, sample_blocks(first), p)
    if coeffs is not None:
        return lifted(coeffs)
    # necessary for isomorphism: Hom(M,N), Hom(N,M), End(M), End(N) all share
    # a dimension (composition with an isomorphism is a linear bijection)
    if hom_dim(M, M) != h or hom_dim(N, N) != h or hom_dim(N, M) != h:
        return IsoResult(False, None)
    coeffs = _find_unit_combo(stack, sample_blocks(budget - first), p)
    if coeffs is not None:
        return lifted(coeffs)
    raise SearchInconclusive(
        f"no invertible top map found in {budget} samples (dim Hom = {h}, top image dim = {r}); "
        "not a proof of non-isomorphism"
    )
