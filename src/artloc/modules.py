"""Finite-dimensional modules over a LocalAlgebra.

A module is its underlying F_p-space plus one action matrix per algebra
basis element. Everything downstream (minimal resolutions, Betti numbers,
Tor, Ext^1, Matlis duals, base change) reduces to exact linear algebra on
these matrices. All constructions pick canonical bases so repeated runs
produce identical arrays.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .linalg import PrimeFieldMatrix
from .algebra import IdealSubspace, LocalAlgebra, QuotientRing

STACK_CELLS = 1 << 16  # int64 cells per chunk of a stacked computation over many modules


class FpModule:
    """Module over a LocalAlgebra: action[i] is the matrix of e_i. Only the
    shape is checked; the package's constructions preserve the axioms."""

    __slots__ = ("algebra", "dim", "action", "_profile", "_resolution", "_presentation", "_lift", "_end_dim", "_radical")

    def __init__(self, algebra: LocalAlgebra, action: np.ndarray):
        action = linalg._residues(np.asarray(action, dtype=np.int64), algebra.p)
        if action.ndim != 3 or action.shape[0] != algebra.dim or action.shape[1] != action.shape[2]:
            raise ValueError("action tensor must have shape (dim_A, dim_M, dim_M)")
        action.setflags(write=False)
        self.algebra = algebra
        self.dim = action.shape[1]
        self.action = action
        self._profile: Optional[tuple] = None
        self._resolution: Optional[Resolution] = None
        self._presentation: Optional[FreePresentation] = None
        self._lift: Optional[np.ndarray] = None
        self._end_dim: Optional[int] = None
        self._radical: Optional[PrimeFieldMatrix] = None

    # -- basic operations ---------------------------------------------------------

    def action_of(self, v: np.ndarray) -> np.ndarray:
        """Matrix of the element of the algebra with coordinates v."""
        v = np.asarray(v, dtype=np.int64) % self.algebra.p
        return np.tensordot(v, self.action, axes=(0, 0)) % self.algebra.p

    def radical_subspace(self, subspace: Optional[PrimeFieldMatrix] = None) -> PrimeFieldMatrix:
        """Canonical basis of mW for a submodule W, the span of subspace
        (default: W = M, computed once and cached on the module).

        mW is the span of the g W over the minimal generators g of m. That
        equals mW only when W is A-invariant (m = sum_g g A, so
        mW = sum_g g A W), which is not checked."""
        if subspace is None and self._radical is not None:
            return self._radical
        W = np.eye(self.dim, dtype=np.int64) if subspace is None else subspace.array
        span = linalg.span_of_products(self.action[self.algebra.generator_indices], W, self.algebra.p)
        if subspace is None:
            self._radical = span
        return span

    def socle_subspace(self) -> PrimeFieldMatrix:
        """Canonical basis of (0 :_M m), the common kernel of the minimal
        generators of m (which generate m as an ideal)."""
        gens = self.action[self.algebra.generator_indices]
        stacked = gens.reshape(gens.shape[0] * self.dim, self.dim)
        return linalg.kernel_basis(PrimeFieldMatrix._own(stacked, self.algebra.p))

    def iso_profile(self) -> tuple:
        """Cheap isomorphism invariants, used to separate modules before any
        Hom computation: (dim M, dim mM, rank of the action of each basis
        element of m); iso_profiles with this module alone."""
        if self._profile is None:
            iso_profiles([self])
        return self._profile

    def use_presentation(self, pres: "FreePresentation") -> None:
        """Take homs out of this module through pres from now on. pres must
        present the module (A^b1 -> A^b0 -> M -> 0 exact), which is not
        checked here; it need not be minimal."""
        self._presentation, self._lift = pres, None

    def __repr__(self) -> str:
        return f"FpModule(dim={self.dim} over p={self.algebra.p})"


class ModuleMap:
    """A-linear map between modules over the same algebra. The constructor
    checks shapes only; is_linear() checks A-linearity."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FpModule, target: FpModule, matrix):
        if source.algebra is not target.algebra:
            raise ValueError("source and target live over different algebras")
        m = linalg._residues(np.asarray(matrix, dtype=np.int64), source.algebra.p)
        if m.shape != (target.dim, source.dim):
            raise ValueError(f"matrix shape {m.shape} does not match map {source.dim}->{target.dim}")
        m.setflags(write=False)
        self.source = source
        self.target = target
        self.matrix = m

    def is_linear(self) -> bool:
        """Whether the matrix commutes with the action of every basis element."""
        m = self.matrix
        return not np.any((self.target.action @ m - m @ self.source.action) % self.source.algebra.p)

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.dim}->{self.target.dim})"


# -- standard constructions ------------------------------------------------------------


def regular_module(A: LocalAlgebra) -> FpModule:
    """A as a module over itself: free_module(A, 1)."""
    return FpModule(A, A.mult_matrices())


def free_module(A: LocalAlgebra, rank: int) -> FpModule:
    """A^rank with coordinates ordered (generator, algebra basis)."""
    return FpModule(A, np.kron(np.eye(rank, dtype=np.int64)[None], A.mult_matrices()))


class QuotientModule(NamedTuple):
    module: FpModule
    proj: ModuleMap
    lift: PrimeFieldMatrix


def quotient_module(M: FpModule, subspace: PrimeFieldMatrix) -> QuotientModule:
    """M / W with canonical complement coordinates (non-pivot rows of the
    rref of W). W must be action-invariant; this is not checked, and a
    subspace that is not invariant gives an action that is not a module."""
    A = M.algebra
    proj, lift, _ = linalg.complement_projection(subspace)
    action = (proj @ M.action @ lift) % A.p
    Q = FpModule(A, action)
    return QuotientModule(Q, ModuleMap(M, Q, proj), PrimeFieldMatrix(lift, A.p))


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
    return SubModule(S, ModuleMap(S, M, W.array))


def direct_sum(M: FpModule, N: FpModule) -> FpModule:
    if M.algebra is not N.algebra:
        raise ValueError("summands live over different algebras")
    A = M.algebra
    d = M.dim + N.dim
    action = np.zeros((A.dim, d, d), dtype=np.int64)
    action[:, : M.dim, : M.dim] = M.action
    action[:, M.dim :, M.dim :] = N.action
    return FpModule(A, action)


def cyclic_module(A: LocalAlgebra, ideal: IdealSubspace) -> FpModule:
    """R/I as a module over A."""
    return quotient_module(regular_module(A), ideal.basis).module


def residue_field(A: LocalAlgebra) -> FpModule:
    return cyclic_module(A, A.maxideal())


def stacks(items: Sequence, key: Callable[[Any], tuple], cells: Callable[[tuple], int]) -> Iterator[tuple[tuple, list[int]]]:
    """The chunks of every stacked step over many modules, maps or
    presentations: items grouped by key(item), a tuple whose first field is
    the algebra they live over and whose rest fixes their shapes, yielded
    as (key, indices) with at most STACK_CELLS // cells(key) items (at
    least one) of one group, in input order. A step takes its modulus and
    shapes from the key, so items over two algebras never share a stack."""
    groups: dict[tuple, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    for k, group in groups.items():
        rows = max(1, STACK_CELLS // max(1, cells(k)))
        for lo in range(0, len(group), rows):
            yield k, group[lo : lo + rows]


def iso_profiles(modules: Sequence[FpModule]) -> None:
    """Fill the iso_profile (dim M, dim mM, rank of the action of each basis
    element of m) of every module that lacks one, each stack of modules of
    one algebra and dimension d at once (stacks), from two linalg.rank_batch
    calls: dim mM is the rank of those actions placed side by side, and the
    ranks of the actions themselves follow.

    is_isomorphic relies on dim mM: equal profiles give mu(M) = mu(N)."""
    todo = [M for M in modules if M._profile is None]
    for (A, d), idx in stacks(todo, lambda M: (M.algebra, M.dim), lambda k: k[0].dim * k[1] ** 2):
        part = [todo[i] for i in idx]
        if d == 0:
            for M in part:
                M._profile = (0, 0, (0,) * (A.dim - 1))
            continue
        mult = np.stack([M.action[1:] for M in part])  # (B, dim_A - 1, d, d)
        B = len(part)
        # rank [a_1 | a_2 | ...] = rank of the transposes stacked
        rad = linalg.rank_batch(mult.transpose(0, 1, 3, 2).reshape(B, -1, d), A.p)
        ranks = linalg.rank_batch(mult.reshape(-1, d, d), A.p).reshape(B, A.dim - 1)
        for M, r, acts in zip(part, rad.tolist(), ranks.tolist()):
            M._profile = (d, r, tuple(acts))


# -- ring-entry matrices and presentations ----------------------------------------------


class RingMatrix:
    """Matrix with entries in a LocalAlgebra, stored as its nonzero entries:
    entry (row[t], col[t]) has algebra coordinates val[t], an (nnz, dim_A)
    array of residues mod p. The positions are in row-major order and none
    repeats; every other entry is zero."""

    __slots__ = ("algebra", "shape", "row", "col", "val")

    def __init__(self, algebra: LocalAlgebra, entries: np.ndarray):
        """From a dense (rows, cols, dim_A) array of entry coordinates."""
        entries = np.mod(np.asarray(entries, dtype=np.int64), algebra.p)
        if entries.ndim != 3 or entries.shape[2] != algebra.dim:
            raise ValueError("entries must have shape (rows, cols, dim_A)")
        row, col = entries.any(axis=2).nonzero()
        self._set(algebra, entries.shape[:2], row, col, entries[row, col])

    def _set(self, algebra: LocalAlgebra, shape, row: np.ndarray, col: np.ndarray, val: np.ndarray) -> None:
        for a in (row, col, val):
            a.setflags(write=False)
        self.algebra = algebra
        self.shape = tuple(shape)
        self.row, self.col, self.val = row, col, val

    @classmethod
    def _own(cls, algebra: LocalAlgebra, shape, row: np.ndarray, col: np.ndarray, val: np.ndarray) -> "RingMatrix":
        """Wrap coordinate lists that the caller has just built and hands
        over, already in the stored form: no copy, check or reduction."""
        m = cls.__new__(cls)
        m._set(algebra, shape, row, col, val)
        return m

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """The dense (rows, cols, dim_A) array, built on each call."""
        out = np.zeros(self.shape + (self.algebra.dim,), dtype=np.int64)
        out[self.row, self.col] = self.val
        out.setflags(write=False)
        return out

    def transpose(self) -> "RingMatrix":
        # a stable sort by column keeps the rows ascending within each column
        order = np.argsort(self.col, kind="stable")
        return RingMatrix._own(self.algebra, self.shape[::-1], self.col[order], self.row[order], self.val[order])

    def sparse_acting_on(self, N: FpModule) -> linalg.SparseMatrix:
        """Block matrix of the induced map N^cols -> N^rows as coordinate
        lists: block (r, c) is the action on N of entry (r, c). Only the
        nonzero entries are multiplied out; the other blocks stay zero."""
        if N.algebra is not self.algebra:
            raise ValueError("module lives over a different algebra")
        n = N.dim
        blocks = np.einsum("ta,aij->tij", self.val, N.action) % self.algebra.p
        t, i, a = blocks.nonzero()
        shape = (self.rows * n, self.cols * n)
        return linalg.SparseMatrix(self.row[t] * n + i, self.col[t] * n + a, blocks[t, i, a], shape)

    def acting_on(self, N: FpModule) -> PrimeFieldMatrix:
        """The dense view of sparse_acting_on(N)."""
        return PrimeFieldMatrix._own(self.sparse_acting_on(N).to_dense(), self.algebra.p)

    def as_linear_map(self) -> PrimeFieldMatrix:
        """The induced map A^cols -> A^rows on free-module coordinates."""
        return self.acting_on(regular_module(self.algebra))

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols} over dim {self.algebra.dim})"


class FreePresentation(NamedTuple):
    """Exact A^b1 -> A^b0 -> M -> 0: relations is the b0 x b1 matrix and
    cover the (dim_M, b0 * dim_A) matrix of A^b0 -> M, as in Resolution.cover."""

    relations: RingMatrix
    cover: np.ndarray

    @property
    def betti0(self) -> int:
        return self.relations.rows

    @property
    def betti1(self) -> int:
        return self.relations.cols


def minimal_generators(M: FpModule, subspace: Optional[PrimeFieldMatrix] = None) -> list[np.ndarray]:
    """Minimal generating vectors of a submodule W, the span of subspace
    (default: M itself); W must be A-invariant, as radical_subspace needs.

    Greedy over the canonical basis columns against m*(submodule), so the
    choice is deterministic. Nakayama makes the count equal dim W/mW.
    """
    if subspace is None:
        cols, rad = PrimeFieldMatrix.identity(M.dim, M.algebra.p), M.radical_subspace()
    else:
        cols = linalg.column_space(subspace)
        rad = M.radical_subspace(cols)
    return [cols.column(j) for j in linalg.greedy_completion(rad, cols)]


def cover_matrix(M: FpModule, imgs: np.ndarray) -> np.ndarray:
    """The (..., dim_M, g * dim_A) matrix of A^g -> M sending e_k (x) e_j to
    e_j * imgs[..., k, :], columns generator major, algebra basis minor."""
    imgs = np.asarray(imgs, dtype=np.int64)
    ev = np.einsum("jnm,...km->...nkj", M.action, imgs)
    return linalg._residues(ev.reshape(imgs.shape[:-2] + (M.dim, imgs.shape[-2] * M.algebra.dim)), M.algebra.p)


class Resolution:
    """Minimal free resolution ... -> A^b2 -> A^b1 -> A^b0 -> M -> 0.

    Each step picks the syzygies as minimal_generators would on A^b_prev:
    greedy over the canonical (reduced echelon) basis of ker against m*ker.
    Every step after the small dense cover runs on sparse coordinate lists:
    the differentials are almost all zero, and neither their entries nor
    their linear maps A^b -> A^b_prev are ever built densely; each is handed
    over as its nonzero entries. ker is a submodule, so m*ker is the span of the products
    with the minimal generators of m, each acting on every block of dim_A
    coordinates as on A; and since m*ker lies in ker, a product's
    coordinates in the canonical basis of ker are its entries at the basis's
    leading columns. The kept basis vectors are the unit vectors a greedy
    scan adds to the span of those coordinates.

    Every step is certified by the identity of linalg.exactness, on sparse
    maps: current * lin = 0 puts the image of the new differential in ker,
    and rank lin = dim ker makes them equal. The rank comes from the
    reduction that gives the next step its ker.
    """

    def __init__(self, M: FpModule, steps: int):
        A = M.algebra
        p, d = A.p, A.dim
        self.module = M
        self.algebra = A
        gens = minimal_generators(M)
        self.betti: list[int] = [len(gens)]
        self.cover = cover_matrix(M, np.reshape(gens, (len(gens), M.dim)))  # A^b0 -> M
        self.differentials: list[RingMatrix] = []
        current = linalg.SparseMatrix.from_dense(self.cover)
        lead, ker = linalg.sparse_kernel_space(current, p)
        R = regular_module(A)
        mults = A.generator_mults()
        e = mults.shape[0]
        g, gi, ga = mults.nonzero()  # x_g e_ga has coordinate gi
        gv = mults[g, gi, ga]
        for _ in range(steps):
            b_prev, k = self.betti[-1], ker.shape[0]
            n = b_prev * d
            # m*ker in the coordinates of the canonical basis of ker: row
            # v * e + g of rad is x_g v at the leading columns. Column
            # j * e + g of on_lead is coordinate lead[j] of x_g times each
            # coordinate vector of A^b_prev.
            coord = np.full(n, -1)
            coord[lead] = np.arange(k)
            j = coord[np.arange(0, n, d)[:, None] + gi]  # (block, entry of mults)
            r, t = (j >= 0).nonzero()
            on_lead = linalg.SparseMatrix(r * d + ga[t], j[r, t] * e + g[t], gv[t], (n, k * e))
            prods = linalg.sparse_product(ker, on_lead, p)
            j, gen = np.divmod(prods.col, e)
            rad = linalg.SparseMatrix(prods.row * e + gen, j, prods.val, (k * e, k))
            picks = linalg.greedy_unit_completion(rad, p)
            # the picked basis vectors of ker are the columns of the differential
            b = picks.size
            column = np.full(k, -1)
            column[picks] = np.arange(b)
            c = column[ker.row]
            mine = c >= 0
            # coordinate s of entry (r, c) is ker.val: one row of val per
            # nonzero entry, the entries in row-major order
            r, s = np.divmod(ker.col[mine], d)
            pos, slot = np.unique(r * b + c[mine], return_inverse=True)
            val = np.zeros((pos.size, d), dtype=np.int64)
            val[slot, s] = ker.val[mine]
            r, c = np.divmod(pos, b)
            diff = RingMatrix._own(A, (b_prev, b), r, c, val)
            lin = diff.sparse_acting_on(R)  # the linear map A^b -> A^b_prev
            lead, next_ker = linalg.sparse_kernel_space(lin, p)
            if linalg.sparse_product(current, lin, p).val.size or b * d - next_ker.shape[0] != k:
                raise RuntimeError("resolution step failed to span the syzygy module")
            self.differentials.append(diff)
            self.betti.append(b)
            current, ker = lin, next_ker

    def differential(self, i: int) -> RingMatrix:
        """d_i: A^b_i -> A^b_{i-1}, defined for 1 <= i <= steps."""
        return self.differentials[i - 1]


def minimal_free_resolution(M: FpModule, steps: int) -> Resolution:
    return Resolution(M, steps)


def betti_numbers(M: FpModule, steps: int) -> list[int]:
    return minimal_free_resolution(M, steps).betti


def minimal_presentation(M: FpModule) -> FreePresentation:
    res = minimal_free_resolution(M, 1)
    return FreePresentation(res.differential(1), res.cover)


# -- derived functors ---------------------------------------------------------------------


def tor(M: FpModule, N: FpModule, i: int) -> int:
    """dim Tor_i(M, N), the homology at N^{b_i} of the minimal resolution of
    M tensored with N: b_i dim N - rank(d_i (x) N) - rank(d_{i+1} (x) N),
    with d_0 = 0. Each rank is the pivot count of a sparse reduction."""
    if i < 0:
        raise ValueError("negative homological degree")
    p = M.algebra.p
    res = minimal_free_resolution(M, i + 1)
    ranks = [np.count_nonzero(linalg.sparse_rref(res.differential(j).sparse_acting_on(N), p)[0])
             for j in (i, i + 1) if j]
    return res.betti[i] * N.dim - int(sum(ranks))


def _coboundary_projection(d1: RingMatrix, N: FpModule) -> tuple[np.ndarray, int]:
    """(proj, dim Hom(M, N)) for M presented by d1, from one reduction of
    D = d1^T acting on N: Hom(M, N) = ker D, and proj maps the cochains N^b1
    onto a complement of the coboundaries B^1 = im D, with kernel B^1."""
    D = d1.transpose().acting_on(N)
    proj = linalg.complement_projection(D)[0]
    return proj, D.cols - D.rows + proj.shape[0]


class Ext1Space:
    """Ext^1(X, L) = Z^1 / B^1 with representative cocycles against a fixed
    minimal resolution of X. reps[t] is a (dim_L, b1) matrix giving the
    images of the b1 free generators of F_1. Cochains are taken modulo B^1
    through proj (_coboundary_projection, which also gives hom_dim =
    dim Hom(X, L)); the reps are the canonical basis vectors of Z^1 at the
    pivot columns of rref(proj Z), a basis of Z^1 modulo B^1."""

    def __init__(self, X: FpModule, L: FpModule):
        if X.algebra is not L.algebra:
            raise ValueError("modules live over different algebras")
        p = X.algebra.p
        self.X = X
        self.L = L
        # resolved once per X: every space over it and its presentation share it
        if X._resolution is None:
            X._resolution = Resolution(X, 2)
        res = X._resolution
        self.beta0, self.beta1 = res.betti[0], res.betti[1]
        self.d1 = res.differential(1)
        self.cover0 = res.cover  # matrix dim_X x (beta0 * dim_A)
        # cocycles: phi with phi . d2 = 0, phi stored as L^{beta1}
        Z = linalg.kernel_basis(res.differential(2).transpose().acting_on(L)).array
        self.proj, self.hom_dim = _coboundary_projection(self.d1, L)
        picks = list(linalg.rref(PrimeFieldMatrix(self.proj @ Z, p)).pivots)
        self.reps = Z[:, picks].T.reshape(len(picks), self.beta1, L.dim).transpose(0, 2, 1)
        self.dim = len(picks)

    def cocycle(self, coeffs: Sequence[int]) -> np.ndarray:
        """The (dim_L, beta1) cocycle matrix for coordinates in the basis;
        a (..., dim) stack of coordinates gives the stack of matrices."""
        p = self.X.algebra.p
        return np.tensordot(np.asarray(coeffs, dtype=np.int64) % p, self.reps, axes=1) % p

    @functools.cached_property
    def split_sum(self) -> tuple[FpModule, np.ndarray]:
        """(L + F_0, -d1 as a linear map F_1 -> F_0): what every middle term
        (L + F_0) / {(phi(z), -d1(z))} shares, built once per space."""
        A = self.X.algebra
        return direct_sum(self.L, free_module(A, self.beta0)), (-self.d1.as_linear_map().array) % A.p

    def pushforward(self, maps: np.ndarray) -> Optional[np.ndarray]:
        """For a (k, dim_L, dim_L) stack of A-linear maps g: L -> L, the
        (k, dim, dim) matrices of xi -> [g phi_xi] on cocycle coordinates
        (column t is the image of reps[t]), from one solve against the reps,
        both through proj; None if some g phi_xi is not a cocycle."""
        p = self.X.algebra.p
        k, e = maps.shape[0], self.dim
        moved = np.einsum("gij,tjl->gtli", maps, self.reps).reshape(k * e, self.beta1 * self.L.dim)
        reps = self.reps.transpose(0, 2, 1).reshape(e, self.beta1 * self.L.dim)
        sol = linalg.solve_matrix(PrimeFieldMatrix(self.proj @ reps.T, p), PrimeFieldMatrix(self.proj @ moved.T, p))
        if sol is None:
            return None
        return sol.array.reshape(e, k, e).transpose(1, 0, 2)


def ext1(X: FpModule, L: FpModule) -> Ext1Space:
    return Ext1Space(X, L)


# -- pointwise invariants -----------------------------------------------------------------


def canonical_fingerprint(M: FpModule) -> tuple:
    """Sort key for module lists: dimension, the action ranks of the
    iso_profile sorted, then the raw action bytes as a final deterministic
    tiebreak."""
    return (M.dim, tuple(sorted(M.iso_profile()[2])), M.action.tobytes())


def splits_off_k(M: FpModule) -> Optional[np.ndarray]:
    """A witness v in socle(M) \\ mM when k is a direct summand, else None."""
    soc = M.socle_subspace()
    picks = linalg.greedy_completion(M.radical_subspace(), soc)
    return soc.column(picks[0]) if picks else None


def splitting_flags(modules: Sequence[FpModule]) -> list[bool]:
    """[splits_off_k(M) is not None for M in modules], each stack of modules
    of one algebra and dimension d at once (stacks), from three
    linalg.rank_batch calls.

    k splits off M iff soc M is not inside mM: a functional on M/mM that is
    nonzero at a socle vector v splits k v off, and a summand k is spanned by
    a socle vector outside mM = mN, N its complement. With G the actions of
    the minimal generators of m stacked (kernel soc M) and R the same placed
    side by side (column space mM), soc M meets mM in the kernel of G on
    im R, of dimension rank R - rank GR; so k splits off iff
    d - rank G > rank R - rank GR."""
    flags = [False] * len(modules)
    # three (e d)^2 stacks are alive at once: GR as floats, as integers and
    # as residues
    for (A, d), idx in stacks(modules, lambda M: (M.algebra, M.dim),
                              lambda k: 3 * (k[0].generator_indices.size * k[1]) ** 2):
        gens = A.generator_indices
        e = gens.size
        acts = np.stack([modules[i].action[gens] for i in idx])  # (B, e, d, d)
        G = acts.reshape(len(idx), e * d, d)
        R = acts.transpose(0, 2, 1, 3).reshape(len(idx), d, e * d)
        rank_G, rank_R = linalg.rank_batch(G, A.p), linalg.rank_batch(R, A.p)
        rank_GR = linalg.rank_batch(linalg.matmul_mod(G, R, A.p), A.p)
        for i, split in zip(idx, (d - rank_G > rank_R - rank_GR).tolist()):
            flags[i] = split
    return flags


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
    return FpModule(M.algebra, action)


def base_change(M: FpModule, qr: QuotientRing) -> FpModule:
    """M/IM as a module over the quotient algebra A/I."""
    p = M.algebra.p
    # I M, the span of b w over the basis vectors b of I and w of M
    I_action = np.tensordot(qr.ideal.basis.array.T, M.action, axes=(1, 0)) % p
    qm = quotient_module(M, linalg.span_of_products(I_action, np.eye(M.dim, dtype=np.int64), p))
    # the basis of A/I acts on M/IM through its lift to A
    lifted = np.tensordot(qr.lift.array.T, M.action, axes=(1, 0)) % p
    return FpModule(qr.algebra, qm.proj.matrix @ lifted @ qm.lift.array % p)


# -- hom spaces and isomorphism testing ------------------------------------------------------


def _presentation_data(M: FpModule) -> FreePresentation:
    """The presentation homs out of M are computed through: the one handed
    over by use_presentation (filt_enumerate gives R/(x) its 1x1 one and
    each class its verified triangular one), else the minimal one of the
    resolution an Ext1Space left on M (its steps do not depend on how many
    are taken), else that of Resolution(M, 1). A map out of coker(d1) is a
    tuple of generator images killed by the relations d1, for any
    presentation, so a hom out of M is a kernel element of d1 acting."""
    if M._presentation is None:
        res = M._resolution or Resolution(M, 1)
        M._presentation = FreePresentation(res.differentials[0], res.cover)
    return M._presentation


def cover_lift(M: FpModule) -> np.ndarray:
    """A linear section M -> A^b0 of the cover of _presentation_data(M),
    computed on first use; RuntimeError if that cover is not onto M."""
    if M._lift is None:
        p = M.algebra.p
        lift = linalg.solve_matrix(PrimeFieldMatrix(_presentation_data(M).cover, p), PrimeFieldMatrix.identity(M.dim, p))
        if lift is None:
            raise RuntimeError("the cover of the presentation is not onto the module")
        M._lift = lift.array
    return M._lift


def _hom_images(M: FpModule, N: FpModule) -> np.ndarray:
    """The canonical basis of Hom_A(M, N) as generator images, shape
    (h, b0, dim_N): the kernel of d1^T acting on N^b0, d1 the relations of
    _presentation_data(M), with b0 * dim_N unknowns instead of dim_M * dim_N."""
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    d1 = _presentation_data(M).relations
    ker = linalg.kernel_basis(d1.transpose().acting_on(N))
    return ker.array.T.reshape(ker.cols, d1.rows, N.dim)


def hom_dim(M: FpModule, N: FpModule) -> int:
    """dim Hom_A(M, N), the length of _hom_images."""
    if M.dim == 0 or N.dim == 0:
        return 0
    return len(_hom_images(M, N))


def _hom_matrices(N: FpModule, lift: np.ndarray, imgs: np.ndarray) -> np.ndarray:
    """The (..., dim_N, dim_M) matrices of the homs with generator images imgs."""
    return (cover_matrix(N, imgs) @ lift) % N.algebra.p


def hom_space_matrices(M: FpModule, N: FpModule) -> list[np.ndarray]:
    """Basis of Hom_A(M, N) as (dim_N, dim_M) matrices, canonically ordered:
    the homs with the generator images of _hom_images."""
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    if M.dim == 0 or N.dim == 0:
        return []
    return list(_hom_matrices(N, cover_lift(M), _hom_images(M, N)))


class HomSequenceKeys:
    """dim Hom(M, T) and dim Hom(T, M) for the middle terms M of the
    extensions 0 -> Y -> M -> X -> 0, against the tests T of a fixed list of
    spaces Ext1Space(X, T), read off the cocycle phi_xi of each extension
    rather than off M. filt_enumerate passes the spaces it builds for the
    previous level, so the tests are exactly that level's classes.

    The long exact sequences of Hom and Ext (Weibel, An Introduction to
    Homological Algebra, 2.5 and 3.4) give
      dim Hom(M, T) = dim Hom(X, T) + dim Hom(Y, T) - rank delta_xi,
      delta_xi: Hom(Y, T) -> Ext^1(X, T), f -> [f phi_xi];
      dim Hom(T, M) = dim Hom(T, Y) + dim Hom(T, X) - rank d_xi,
      d_xi: Hom(T, X) -> Ext^1(T, Y), g -> [phi_xi g_1],
    where g_1: F_1(T) -> F_1(X) lifts g through the presentations. Ext^1 can
    be computed from any projective resolution, so T's presentation is
    whichever _presentation_data gives (the triangular one of a filt class),
    while X's is the minimal one every Ext1Space(X, Y) takes its cocycles
    against, and so the spaces'. Both images are cocycles, so the ranks are
    taken modulo coboundaries, each through one _coboundary_projection that
    also gives its side's dim Hom: Ext1Space(X, T)'s for the out side, and
    one per class Y for the in side. No f is built as a matrix: its
    generator images (_hom_images) act on phi_xi lifted through Y's cover
    (cover_lift). Both maps are linear in xi: keys_for(ext) builds
    one tensor per test and side over the basis cocycles, and a block of
    cocycles then costs one tensordot and one rank_batch each.
    """

    def __init__(self, X: FpModule, spaces: Sequence[Ext1Space]):
        A = X.algebra
        p = A.p
        if any(es.X is not X for es in spaces):
            raise ValueError("every space must be an Ext^1 out of X")
        self.X = X
        self.tests = [es.L for es in spaces]
        # per test: dim Hom(X, T), the projection of T^b1(X) modulo
        # coboundaries, and every g in Hom(T, X) lifted to g_1
        self._per_test = []
        if not spaces:
            return
        d1, cover = spaces[0].d1, PrimeFieldMatrix(spaces[0].cover0, p)  # X's resolution, shared by all
        lift = linalg.solve_matrix(cover, PrimeFieldMatrix.identity(X.dim, p)).array
        d1_lin = d1.as_linear_map()
        for es in spaces:
            d1T = _presentation_data(es.L).relations
            imgs = _hom_images(es.L, X)
            h, b0T, b1T = imgs.shape[0], d1T.rows, d1T.cols
            # g_0 sends T's k-th generator to a lift in A^b0(X) of g(t_k) ...
            g0 = (imgs @ lift.T) % p
            g0 = g0.reshape(h, b0T, d1.rows, A.dim)
            # ... so g_0 d1(T) maps F_1(T) into im d1(X), and g_1 solves d1(X) g_1 = g_0 d1(T)
            rhs = np.einsum("gkja,abc,klc->jbgl", g0, A.mult_matrices(), d1T.entries) % p
            g1 = linalg.solve_matrix(d1_lin, PrimeFieldMatrix(rhs.reshape(d1_lin.rows, h * b1T), p))
            if g1 is None:
                raise RuntimeError("a hom T -> X did not lift through the presentations")
            self._per_test.append((es.hom_dim, es.proj, d1T, g1.array.reshape(d1_lin.cols, h, b1T)))

    def keys_for(self, ext: "Ext1Space"):
        """The function sending a (B, dim Ext^1(X, Y)) block of cocycle
        coordinates to its (B, tests) arrays (dim Hom(M, T), dim Hom(T, M))."""
        if ext.X is not self.X:
            raise ValueError("the cocycles are not taken against this X's presentation")
        Y = ext.L
        p = Y.algebra.p
        e = ext.dim
        reps = ext.reps  # (e, dim_Y, b1(X))
        cov = cover_matrix(Y, reps.transpose(0, 2, 1))  # phi_i: F_1(X) -> Y as matrices
        lifted = cover_lift(Y) @ reps % p  # phi_i lifted through Y's cover
        sides = []
        for T, (hom_XT, proj_out, d1T, g1) in zip(self.tests, self._per_test):
            F = cover_matrix(T, _hom_images(Y, T))  # Hom(Y, T) on A^b0(Y)
            f = len(F)
            # delta: column f holds f phi_i in T^b1(X), generator major
            out = (np.einsum("fta,ial->iflt", F, lifted).reshape(e, f, ext.beta1 * T.dim) % p) @ proj_out.T
            proj_in, hom_TY = _coboundary_projection(d1T, Y)
            # d: column g holds phi_i g_1 in Y^b1(T), generator major
            rows, h, b1T = g1.shape
            ins = (cov @ g1.reshape(rows, h * b1T)).reshape(e, Y.dim, h, b1T)
            ins = ins.transpose(0, 2, 3, 1).reshape(e, h, b1T * Y.dim) @ proj_in.T
            sides.append((hom_XT + f, np.ascontiguousarray(out.transpose(0, 2, 1) % p, dtype=np.float64),
                          hom_TY + h, np.ascontiguousarray(ins.transpose(0, 2, 1) % p, dtype=np.float64)))

        def keys(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # float64 products run through BLAS and are exact: an entry is a
            # sum of e products of residues below p < 2^16, and the orbit scan
            # holds p^e flags, so e < 64 and the sum stays below 2^38 < 2^53
            coeffs = np.asarray(coeffs, dtype=np.float64)
            homs_out = np.empty((coeffs.shape[0], len(sides)), dtype=np.int64)
            homs_in = np.empty_like(homs_out)
            for t, (base_out, out, base_in, ins) in enumerate(sides):
                homs_out[:, t] = base_out - linalg.rank_batch(np.tensordot(coeffs, out, axes=1).astype(np.int64), p)
                homs_in[:, t] = base_in - linalg.rank_batch(np.tensordot(coeffs, ins, axes=1).astype(np.int64), p)
            return homs_out, homs_in

        return keys


class IsoResult(NamedTuple):
    isomorphic: bool
    witness: Optional[ModuleMap]

    def __bool__(self) -> bool:
        return self.isomorphic


def is_isomorphic(M: FpModule, N: FpModule) -> IsoResult:
    """Decide M = N exactly. dim Hom(M, N) must equal dim End(M), cached on
    M, the first argument. By Nakayama, a hom between modules of equal
    dimension is an isomorphism iff its top map is invertible, so M = N iff
    the image of Hom(M, N) in Hom_k(M/mM, N/mN), spanned by r <= mu(M) mu(N)
    independent top maps, holds an invertible map: linalg.unit_combination,
    which raises ValueError past its cap. The combination it finds is lifted
    and checked to be A-linear and invertible before it is returned.

    Homs are taken through M's presentation, which may have more than
    mu(M) generators. A top map is fixed by its values on a basis of M/mM,
    so each is read on the generators whose tops form one: the pivots of
    the generators' top coordinates."""
    if M.algebra is not N.algebra:
        raise ValueError("modules live over different algebras")
    A = M.algebra
    p = A.p
    if M.dim != N.dim or M.iso_profile() != N.iso_profile():
        return IsoResult(False, None)
    if M.dim == 0:
        return IsoResult(True, ModuleMap(M, N, np.zeros((0, 0), dtype=np.int64)))
    # M = N would make Hom(M, N) = End(M): unequal dimensions are an exact no
    if M._end_dim is None:
        M._end_dim = hom_dim(M, M)
    imgs = _hom_images(M, N)  # a basis of Hom(M, N)
    if len(imgs) != M._end_dim:
        return IsoResult(False, None)
    # Equal profiles give dim mM = dim mN, so mu(M) = mu(N) and, once read
    # on a basis of M/mM, the top maps are square.
    top = linalg.complement_projection(N.radical_subspace())[0]
    tops = np.einsum("un,tin->tui", top, imgs) % p
    if imgs.shape[1] > len(top):
        # column k * dim_A of the cover is e_0 = 1 times generator k
        gens = _presentation_data(M).cover[:, :: A.dim]
        top_M = linalg.complement_projection(M.radical_subspace())[0]
        basis = list(linalg.rref(PrimeFieldMatrix(top_M @ gens, p)).pivots)
        tops = tops[:, :, basis]
    # the top maps of the first independent Hom basis elements span the image
    keep = list(linalg.rref(PrimeFieldMatrix(tops.reshape(len(tops), len(top) ** 2).T, p)).pivots)
    coeffs = linalg.unit_combination(tops[keep], p)
    if coeffs is None:
        return IsoResult(False, None)
    H = ModuleMap(M, N, _hom_matrices(N, cover_lift(M), np.tensordot(coeffs, imgs[keep], axes=(0, 0)) % p))
    if not H.is_linear() or linalg.rank_mod(H.matrix, p) != M.dim:
        raise RuntimeError("lifted top-space witness is not an isomorphism")
    return IsoResult(True, H)
