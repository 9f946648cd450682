"""Extensions, filtration categories, and triangular presentations.

The enumeration engine: build middle terms of short exact sequences
0 -> Y -> M -> X -> 0 from Ext^1 cocycles, expand the levels filt^n(X) of
X = R/(x) up to isomorphism, each node carrying its upper-triangular
presentation with diagonal x, and decide bounded-depth membership of k in
the extension closure of R/(x) by scanning every node for a k-summand.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .linalg import PrimeFieldMatrix
from .algebra import IdealSubspace, LocalAlgebra
from .modules import (
    Ext1Space,
    FpModule,
    FreePresentation,
    HomSequenceKeys,
    ModuleMap,
    RingMatrix,
    canonical_fingerprint,
    cover_lift,
    cover_matrix,
    direct_sum,
    ext1,
    free_module,
    hom_space_matrices,
    is_isomorphic,
    iso_profiles,
    quotient_module,
    regular_module,
    splits_off_k,
    splitting_flags,
    stacks,
)

DEFAULT_COCYCLE_BUDGET = 1 << 20


class LiftFailure(RuntimeError):
    """Chain data did not lift through a free cover; signals a bug upstream."""


class NotHypersurface(ValueError):
    pass


class EnumerationBudgetExceeded(RuntimeError):
    """Cocycle space at some level exceeds the configured bound."""

    def __init__(self, partial_levels, level: int, required: int, budget: int):
        super().__init__(
            f"level {level} needs {required} cocycles, budget is {budget}"
        )
        self.partial_levels = partial_levels
        self.level = level
        self.required = required
        self.budget = budget


class ExtensionWitness(NamedTuple):
    """Verified short exact sequence 0 -> sub -> middle -> quotient -> 0."""

    sub: FpModule
    middle: FpModule
    quotient: FpModule
    inject: ModuleMap
    project: ModuleMap

    def verify(self) -> list[str]:
        """What keeps this from being a short exact sequence of A-modules;
        empty when it is one: verify_extensions with this witness alone."""
        return verify_extensions([self])[0]


def _commutes(target: np.ndarray, maps: np.ndarray, source: np.ndarray, p: int) -> np.ndarray:
    """For each map f of a (B, 1, m, n) stack, whether target . f = f . source
    for every action of the stacks of module actions."""
    return (linalg.matmul_mod(target, maps, p) == linalg.matmul_mod(maps, source, p)).all(axis=(1, 2, 3))


def verify_extensions(witnesses: Sequence[ExtensionWitness]) -> list[list[str]]:
    """ExtensionWitness.verify for every witness, each stack of witnesses of
    one algebra and shape at once (stacks). Exactness at the middle is
    linalg.exactness on the stacks of maps: project . inject = 0 and
    rank inject + rank project = dim middle; linearity is one stacked
    commutator per map."""
    out: list[list[str]] = [[] for _ in witnesses]
    shape = lambda w: (w.middle.algebra, w.sub.dim, w.middle.dim, w.quotient.dim)
    for (A, ds, dm, dq), idx in stacks(witnesses, shape, lambda k: k[0].dim * k[2] ** 2):
        p = A.p
        part = [witnesses[i] for i in idx]
        sub = np.stack([w.sub.action for w in part])
        middle = np.stack([w.middle.action for w in part])
        quotient = np.stack([w.quotient.action for w in part])
        inject = np.stack([w.inject.matrix for w in part])
        project = np.stack([w.project.matrix for w in part])
        rank_in, rank_out, exact = linalg.exactness(inject, project, p)
        inject, project = inject[:, None], project[:, None]  # broadcast over the actions
        linear_in = _commutes(middle, inject, sub, p)
        linear_out = _commutes(quotient, project, middle, p)
        checks = zip(rank_in.tolist(), rank_out.tolist(), exact.tolist(), linear_in.tolist(), linear_out.tolist())
        for i, (r_in, r_out, ex, lin_in, lin_out) in zip(idx, checks):
            out[i] = [problem for problem, bad in (
                ("length is not additive", dm != ds + dq),
                ("inject has a kernel", r_in != ds),
                ("project is not onto", r_out != dq),
                ("image(inject) differs from kernel(project)", not ex),
                ("inject is not A-linear", not lin_in),
                ("project is not A-linear", not lin_out),
            ) if bad]
    return out


def certify_extensions(witnesses: Sequence[ExtensionWitness]) -> None:
    """Raise LiftFailure with the problems of the first witness that
    verify_extensions finds not to be a short exact sequence."""
    for problems in verify_extensions(witnesses):
        if problems:
            raise LiftFailure("cocycle produced a non-exact sequence: " + "; ".join(problems))


def extension_block(ext: Ext1Space, block: np.ndarray) -> tuple[list[ExtensionWitness], list[np.ndarray]]:
    """The middle terms (Y + F_0) / {(phi(z), -d1(z))} of the cocycles with
    the rows of block as coordinates in ext.reps, the zero cocycle giving
    Y + X, and gens: gens[i] (dim M, 1) is the class m of (0, 1) in the i-th
    middle term (no column when X = 0).

    The cocycles, their relation spans and the middle-term actions
    proj . action . lift are stacked, with each row's own
    complement_projection, in chunks (stacks); lift keeps the complement
    coordinates, so its product is a selection of columns. One product per
    chunk checks project . m = u, the class of 1 in R/(x) (X's
    first generator), and certify_extensions checks the whole block as
    verify() would."""
    X, Y = ext.X, ext.L
    A = X.algebra
    p = A.p
    D, neg_d1 = ext.split_sum
    spans = cover_matrix(Y, ext.cocycle(block).transpose(0, 2, 1))
    spans = np.concatenate([spans, np.broadcast_to(neg_d1, (len(block),) + neg_d1.shape)], axis=1)
    cuts = [linalg.complement_projection(PrimeFieldMatrix._own(W, p)) for W in spans]
    dm = Y.dim + X.dim
    if any(proj.shape[0] != dm for proj, _, _ in cuts):
        raise LiftFailure("cocycle produced a non-exact sequence: length is not additive")
    # project is cover0 . pr_F0 . lift: it factors through the quotient, so it
    # does not depend on the section lift
    cover = np.hstack([np.zeros((X.dim, Y.dim), dtype=np.int64), ext.cover0])
    witnesses, gens = [], []
    for _, idx in stacks(cuts, lambda cut: (A,), lambda _: A.dim * dm * D.dim):
        proj = np.stack([cuts[i][0] for i in idx])
        keep = np.array([cuts[i][2] for i in idx], dtype=np.int64).reshape(len(idx), dm)
        actions = np.take_along_axis(linalg.matmul_mod(proj[:, None], D.action, p), keep[:, None, None], axis=3)
        project = cover[:, keep].transpose(1, 0, 2)
        m = proj[:, :, Y.dim : Y.dim + 1]
        if ((project @ m - ext.cover0[:, :1]) % p).any():
            raise LiftFailure("the class of (0, 1) does not cover the generator of R/(x)")
        for act, inj, prj in zip(actions, proj[:, :, : Y.dim], project):
            M = FpModule(A, act)
            witnesses.append(ExtensionWitness(Y, M, X, ModuleMap(Y, M, inj), ModuleMap(M, X, prj)))
        gens.extend(m)
    certify_extensions(witnesses)
    return witnesses, gens


def extension_from_cocycle(ext: Ext1Space, coeffs: Sequence[int]) -> ExtensionWitness:
    """Middle term (Y + F_0) / {(phi(z), -d1(z))} for the cocycle with the
    given coordinates in ext.reps: extension_block with this cocycle alone.
    The zero cocycle yields Y + X."""
    return extension_block(ext, np.reshape(np.asarray(coeffs, dtype=np.int64), (1, ext.dim)))[0][0]


class FiltNode(NamedTuple):
    """Iso-class representative at one level of filt^n(R/(x)).

    chain holds the n-1 extension steps that realize the filtration;
    presentation is the upper-triangular matrix with diagonal x."""

    level: int
    module: FpModule
    chain: tuple[ExtensionWitness, ...]
    presentation: FreePresentation


def _base_presentation(A: LocalAlgebra, x: np.ndarray) -> tuple[FpModule, FreePresentation]:
    """The canonical cyclic module R/(x), presented by its 1x1 presentation (x)."""
    qm = quotient_module(regular_module(A), A.principal_ideal(x).basis)
    pres = FreePresentation(RingMatrix(A, np.reshape(x, (1, 1, A.dim))), qm.proj.matrix)
    _verify_presentations([pres])
    qm.module.use_presentation(pres)
    return qm.module, pres


def _verify_presentations(presentations: Sequence[FreePresentation]) -> None:
    """Certify that each presentation is an exact A^c -> A^r -> M -> 0, each
    stack of one algebra and shape at once (stacks): by linalg.exactness,
    cover . T = 0 and the ranks of T and cover add up to dim A^r, so the
    image of T is the kernel of cover; and rank cover = dim M, so the cover
    is onto."""
    shape = lambda pres: (pres.relations.algebra, *pres.relations.shape, *pres.cover.shape)
    # T and cover: (A, r, c, dim M, cols) holds cols * (c dim_A + dim M) cells
    for (A, _, _, dim, _), idx in stacks(presentations, shape, lambda k: k[4] * (k[2] * k[0].dim + k[3])):
        T = np.stack([presentations[i].relations.as_linear_map().array for i in idx])
        _, rank_cover, exact = linalg.exactness(T, np.stack([presentations[i].cover for i in idx]), A.p)
        if not exact.all():
            raise LiftFailure("matrix image does not match the cover kernel")
        if (rank_cover != dim).any():
            raise LiftFailure("the cover is not onto the module")


def _generator_syzygy(ext: Ext1Space, x: np.ndarray) -> np.ndarray:
    """z in F_1 with d1(z) = x e, e the first generator of F_0: in every
    middle term, (0, d1(z)) = (phi_xi(z), 0), so x m = inject(phi_xi(z)) for
    the class m of (0, e). When d1 = (d) and x = c d, z is c times the
    generator of F_1; an X that is free has F_1 = 0, and then x = 0."""
    A = ext.X.algebra
    rhs = np.zeros(ext.beta0 * A.dim, dtype=np.int64)
    rhs[: A.dim] = x
    z = linalg.solve(ext.d1.as_linear_map(), rhs)
    if z is None:
        raise LiftFailure("x times the generator of F_0 is not a relation of R/(x)")
    return z


def _syzygy_lifts(ext: Ext1Space, z: np.ndarray) -> np.ndarray:
    """(dim, b0(Y) * dim_A): row i lifts phi_i(z) in Y, for the i-th basis
    cocycle phi_i, through the cover of Y's presentation by its section
    cover_lift. The section is linear, so the lift for the cocycle with
    coordinates xi is xi times these rows."""
    p = ext.X.algebra.p
    y0 = cover_matrix(ext.L, ext.reps.transpose(0, 2, 1)) @ z % p  # (dim, dim_Y)
    return y0 @ cover_lift(ext.L).T % p


def _triangular_step(
    pres_Y: FreePresentation, witness: ExtensionWitness, x: np.ndarray, B: np.ndarray, m: np.ndarray
) -> FreePresentation:
    """Extend Y's n-1 triangular presentation through 0 -> Y -> M -> R/(x) -> 0,
    unverified (_verify_presentations certifies it).

    The new generator is m (a (dim M, 1) column), the class of (0, 1), and
    the new last column is (-B; x), where B lifts the y0 with
    inject(y0) = x * m through the cover of Y (_syzygy_lifts)."""
    A = pres_Y.relations.algebra
    p = A.p
    M = witness.middle
    nprev = pres_Y.relations.rows
    entries = np.zeros((nprev + 1, nprev + 1, A.dim), dtype=np.int64)
    entries[:nprev, :nprev] = pres_Y.relations.entries
    entries[:nprev, nprev] = -B.reshape(nprev, A.dim)
    entries[nprev, nprev] = x
    cover = np.hstack([(witness.inject.matrix @ pres_Y.cover) % p, cover_matrix(M, m.T)])
    return FreePresentation(RingMatrix(A, entries), cover)


def orbit_generators(ext: Ext1Space) -> tuple[np.ndarray, np.ndarray]:
    """(gs, acts): automorphisms of Y = ext.L, namely every g and every 1 + g
    that is invertible for g in the canonical basis of End(Y), and for each
    the (dim, dim) matrix of xi -> [g phi_xi] on Ext^1(X, Y) coordinates."""
    Y = ext.L
    p = Y.algebra.p
    homs = hom_space_matrices(Y, Y)
    basis = np.reshape(homs, (len(homs), Y.dim, Y.dim))
    cands = np.concatenate([basis, (basis + np.eye(Y.dim, dtype=np.int64)) % p])
    gs = cands[linalg.invertible_batch(cands, p)]
    acts = ext.pushforward(gs)
    if acts is None:
        raise LiftFailure("an automorphism of Y moved a cocycle out of Z^1")
    return gs, acts


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of a[i] and b[i] for every i in the forest root
    (root[n] <= n, equal at a root): find both roots, halving every path on
    the way up, and hang the larger under the smaller until each pair
    shares a root, so every root stays the least member of its tree."""
    while a.size:
        ends = np.concatenate([a, b])
        while (root[root[ends]] != root[ends]).any():
            root[ends] = root[root[ends]]
            ends = root[ends]
        a, b = np.split(root[ends], 2)
        apart = a != b
        a, b = np.minimum(a, b)[apart], np.maximum(a, b)[apart]
        np.minimum.at(root, b, a)


def _orbit_minima(ext: Ext1Space):
    """The least member of every orbit of the group G generated by
    orbit_generators(ext) and the unit scalars on Ext^1(X, Y), in increasing
    order as little-endian base-p integers, in blocks of at most
    linalg.BLOCK_ROWS rows.

    Scalars are central, so every orbit is closed under them and its least
    member is monic. One union-find pass (_join), about BLOCK_ROWS images at
    a time, joins every nonzero monic cocycle to the monic multiple
    (linalg.monic_index) of its image under each generator, which is how the
    scalars act; the roots are the orbit minima, and zero is an orbit of its
    own. The forest takes 8 p^dim bytes, the list of monic cocycles at most
    as much."""
    p, e = ext.X.algebra.p, ext.dim
    _, acts = orbit_generators(ext)
    monic = np.concatenate(list(linalg.monic_numbers(p, e)))
    root = np.arange(p**e, dtype=np.int64)
    per = max(1, linalg.BLOCK_ROWS // max(1, len(acts)))  # cocycles per chunk
    for lo in range(1, monic.size, per):
        nums = monic[lo : lo + per]
        images = linalg.digits(nums, p, e) @ acts.transpose(0, 2, 1) % p  # (G, rows, e)
        _join(root, np.tile(nums, len(acts)), linalg.monic_index(images.reshape(-1, e), p))
    minima = monic[root[monic] == monic]
    for lo in range(0, minima.size, linalg.BLOCK_ROWS):
        yield linalg.digits(minima[lo : lo + linalg.BLOCK_ROWS], p, e)


def filt_enumerate(
    A: LocalAlgebra, x: np.ndarray, n: int, *, budget: int = DEFAULT_COCYCLE_BUDGET
) -> list[list[FiltNode]]:
    """Levels 1..n of filt(X) for X = R/(x), each a deduplicated, canonically
    sorted list of nodes carrying their triangular presentations.

    For every class Y one level down, only the least member of each orbit
    of a group G of automorphisms of Y on Ext^1(X, Y) is built, in
    increasing order as little-endian base-p integers (_orbit_minima). G is
    generated by the unit scalars and orbit_generators(ext): every g and
    every 1 + g that is invertible, g in the canonical basis of End(Y),
    acting by xi -> [g phi_xi]. Pushing an extension out along an
    automorphism of Y gives an isomorphic middle term, so every class is a
    union of G-orbits and its least member is an orbit minimum. Each middle
    term is deduplicated as soon as it is built, by the exact is_isomorphic
    (ValueError past its cap), and a class keeps its first member, so that
    member, with its chain and presentation, is the one a scan of every
    cocycle in digit order would keep. The budget still counts all p^dim
    cocycles per class; it also bounds the orbit scan's union-find forest
    of 8 p^dim bytes and its list of monic cocycles."""
    if n < 1:
        raise ValueError("need at least one level")
    x = np.asarray(x, dtype=np.int64) % A.p
    X, base = _base_presentation(A, x)
    if X.dim == 0:
        raise ValueError("x must lie in the maximal ideal (R/(x) is zero)")
    levels: list[list[FiltNode]] = [[FiltNode(1, X, (), base)]]
    for lev in range(2, n + 1):
        prev = levels[-1]
        spaces = [ext1(X, node.module) for node in prev]
        required = sum(A.p**es.dim for es in spaces)
        if required > budget:
            raise EnumerationBudgetExceeded(levels, lev, required, budget)
        classes: list[FiltNode] = []
        buckets: dict = {}
        # bucket on iso invariants so candidates only ever face their
        # plausible classmates; hom dims against the previous level's
        # canonical classes separate most remaining distinct classes
        hom_keys = HomSequenceKeys(X, spaces)
        z = _generator_syzygy(spaces[0], x)
        for ynode, es in zip(prev, spaces):
            keys_of = hom_keys.keys_for(es)
            lifts = _syzygy_lifts(es, z)
            for block in _orbit_minima(es):
                homs_out, homs_in = keys_of(block)
                witnesses, gens = extension_block(es, block)
                iso_profiles([w.middle for w in witnesses])
                made = []
                for witness, m, B, out_row, in_row in zip(witnesses, gens, block @ lifts % A.p,
                                                          homs_out.tolist(), homs_in.tolist()):
                    M = witness.middle
                    key = (M.iso_profile(), tuple(out_row), tuple(in_row))
                    if any(is_isomorphic(classes[idx].module, M).isomorphic for idx in buckets.get(key, ())):
                        continue
                    pres = _triangular_step(ynode.presentation, witness, x, B, m)
                    M.use_presentation(pres)
                    made.append(pres)
                    buckets.setdefault(key, []).append(len(classes))
                    classes.append(FiltNode(lev, M, ynode.chain + (witness,), pres))
                _verify_presentations(made)
        order = sorted(range(len(classes)), key=lambda i: canonical_fingerprint(classes[i].module))
        levels.append([classes[i] for i in order])
    return levels


def splice_nodes(bottom: FiltNode, top: FiltNode) -> FiltNode:
    """A level-(p+q) node for bottom + top built by direct construction:
    bottom's chain, then top's chain extended identically on the summand.
    Its first step, the split 0 -> M -> M + X -> X -> 0, is the trivial
    0 -> 0 -> X -> X -> 0 extended the same way."""
    M = bottom.module
    A = M.algebra
    X = top.chain[0].sub if top.chain else top.module
    zero = FpModule(A, np.zeros((A.dim, 0, 0), dtype=np.int64))
    split = ExtensionWitness(zero, X, X, ModuleMap(zero, X, np.zeros((X.dim, 0))),
                             ModuleMap(X, X, np.eye(X.dim)))
    chain, carried = list(bottom.chain), M
    for w in (split, *top.chain):
        new_mid = direct_sum(M, w.middle)
        inj = np.zeros((new_mid.dim, carried.dim), dtype=np.int64)
        inj[: M.dim, : M.dim] = np.eye(M.dim, dtype=np.int64)
        inj[M.dim :, M.dim :] = w.inject.matrix
        prj = np.zeros((w.quotient.dim, new_mid.dim), dtype=np.int64)
        prj[:, M.dim :] = w.project.matrix
        lifted = ExtensionWitness(carried, new_mid, w.quotient,
                                  ModuleMap(carried, new_mid, inj),
                                  ModuleMap(new_mid, w.quotient, prj))
        if lifted.verify():
            raise LiftFailure("spliced step failed to verify")
        chain.append(lifted)
        carried = new_mid
    pres = _block_diag_presentation(bottom.presentation, top.presentation)
    return FiltNode(bottom.level + top.level, carried, tuple(chain), pres)


def _block_diag_presentation(pa: FreePresentation, pb: FreePresentation) -> FreePresentation:
    A = pa.relations.algebra
    na, nb = pa.relations.rows, pb.relations.rows
    entries = np.zeros((na + nb, na + nb, A.dim), dtype=np.int64)
    entries[:na, :na] = pa.relations.entries
    entries[na:, na:] = pb.relations.entries
    da, db = pa.cover.shape[0], pb.cover.shape[0]
    cover = np.zeros((da + db, (na + nb) * A.dim), dtype=np.int64)
    cover[:da, : na * A.dim] = pa.cover
    cover[da:, na * A.dim :] = pb.cover
    pres = FreePresentation(RingMatrix(A, entries), cover)
    _verify_presentations([pres])
    return pres


def build_presentation_matrix(node: FiltNode) -> FreePresentation:
    """The node's triangular presentation, certified against the node's
    module by a cokernel computation plus an isomorphism check."""
    pres = node.presentation
    A = pres.relations.algebra
    free = free_module(A, pres.relations.rows)
    coker = quotient_module(free, pres.relations.as_linear_map()).module
    if not is_isomorphic(coker, node.module):
        raise LiftFailure("presentation cokernel is not isomorphic to the module")
    return pres


def _validate_triangular(pres: FreePresentation, x: np.ndarray) -> None:
    A = pres.relations.algebra
    p = A.p
    ent = pres.relations.entries
    n = pres.relations.rows
    if pres.relations.cols != n:
        raise ValueError("presentation matrix must be square")
    xv = np.asarray(x, dtype=np.int64) % p
    if not A.is_in_maxideal(xv):
        raise ValueError("x must lie in the maximal ideal")
    for i in range(n):
        if not np.array_equal(ent[i, i], xv):
            raise ValueError("diagonal entries must all equal x")
        for j in range(i):
            if np.any(ent[i, j]):
                raise ValueError("matrix must be upper triangular")


def check_matrix_condition(pres: FreePresentation, x: np.ndarray) -> list[bool]:
    """Column condition for j = 2..n: the strict-upper column times (0:x)
    must land in the image of the leading (j-1) block over R."""
    A = pres.relations.algebra
    p = A.p
    _validate_triangular(pres, x)
    ann = A.annihilator(np.asarray(x, dtype=np.int64) % p)
    n = pres.relations.rows
    out = []
    for j in range(1, n):
        # column j above the diagonal, as a map A -> A^j, applied to (0:x)
        column = RingMatrix(A, pres.relations.entries[:j, j : j + 1]).as_linear_map()
        lhs = PrimeFieldMatrix._own(column.array @ ann.basis.array % p, p)
        leading = RingMatrix(A, pres.relations.entries[:j, :j])
        out.append(linalg.solve_matrix(leading.as_linear_map(), lhs) is not None)
    return out


class ReducedPresentation(NamedTuple):
    """Result of strict_upper_reduction: the new presentation plus the
    complement ideal I with m = (x) + I."""

    presentation: FreePresentation
    complement: IdealSubspace


def complement_ideal(A: LocalAlgebra, x: np.ndarray) -> IdealSubspace:
    """I = (other minimal generators) with m = (x) + I, chosen greedily over
    the basis so the result is canonical."""
    p = A.p
    xv = np.asarray(x, dtype=np.int64) % p
    if not A.is_in_maxideal(xv) or A.maxideal_power(2).contains(xv) or not np.any(xv):
        raise ValueError("x must be a minimal generator of the maximal ideal")
    x_ideal = A.principal_ideal(xv).basis.array
    span = PrimeFieldMatrix._own(np.hstack([x_ideal, A.maxideal_power(2).basis.array]), p)
    m = A.maxideal().basis
    I = A.ideal([m.column(j) for j in linalg.greedy_completion(span, m)])
    # (x) and I lie in m, so they span it exactly when their sum has its dimension
    if linalg.rank_mod(np.hstack([x_ideal, I.basis.array]), p) != A.dim - 1:
        raise LiftFailure("(x) + I failed to recover the maximal ideal")
    return I


def strict_upper_reduction(pres: FreePresentation) -> ReducedPresentation:
    """Column operations pushing every strict-upper entry into the complement
    ideal I. Entries must lie in m = (x) + I; a unit entry is rejected."""
    A = pres.relations.algebra
    p = A.p
    x = pres.relations.entries[0, 0].copy()
    _validate_triangular(pres, x)
    I = complement_ideal(A, x)
    decomp = PrimeFieldMatrix._own(np.hstack([A.mult_by(x), I.basis.array]), p)
    n = pres.relations.rows
    ent = pres.relations.entries.copy()
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            c = ent[i, j]
            if not np.any(c % p):
                continue
            sol = linalg.solve(decomp, c)
            if sol is None:
                raise ValueError(f"entry ({i + 1},{j + 1}) does not lie in (x) + I")
            a = sol[: A.dim]
            for l in range(i + 1):
                ent[l, j] = (ent[l, j] - A.mult(ent[l, i], a)) % p
    reduced = RingMatrix(A, ent)
    for i in range(n):
        for j in range(i + 1, n):
            if not I.contains(ent[i, j]):
                raise LiftFailure("reduction left an entry outside I")
    before = linalg.column_space(pres.relations.as_linear_map())
    if linalg.column_space(reduced.as_linear_map()) != before:
        raise LiftFailure("column operations changed the column space")
    return ReducedPresentation(FreePresentation(reduced, pres.cover), I)


# -- the extension closure question -------------------------------------------------------


class LevelCensus(NamedTuple):
    level: int
    count: int
    lengths: tuple[int, ...]
    splits: tuple[bool, ...]


def filt_census(
    A: LocalAlgebra, x: np.ndarray, depth: int, *, budget: int
) -> tuple[list[list[FiltNode]], list[LevelCensus], bool]:
    """(levels, census, complete): filt_enumerate to `depth` or, when the
    cocycle budget stops it, the levels it finished (complete is False),
    with one LevelCensus per level, its k-summand flags from splitting_flags."""
    try:
        levels, complete = filt_enumerate(A, x, depth, budget=budget), True
    except EnumerationBudgetExceeded as exc:
        levels, complete = exc.partial_levels, False
    census = []
    for nodes in levels:
        modules = [node.module for node in nodes]
        splits = tuple(splitting_flags(modules))
        census.append(LevelCensus(nodes[0].level, len(nodes), tuple(M.dim for M in modules), splits))
    return levels, census, complete


class ClosureVerdict(NamedTuple):
    """Bounded-depth answer to "does k lie in the extension closure of R/(x)".

    A positive answer carries a verified witness node plus the splitting
    vector; a negative answer is evidence up to the searched depth only,
    never a proof, and says so in the note."""

    x: np.ndarray
    depth: int
    contains_k: bool
    complete: bool
    census: list[LevelCensus]
    witness_node: Optional[FiltNode]
    witness_vector: Optional[np.ndarray]
    note: str


def ext_closure_contains_k(
    A: LocalAlgebra,
    x: np.ndarray,
    max_n: int,
    *,
    budget: int = DEFAULT_COCYCLE_BUDGET,
) -> ClosureVerdict:
    """Search every filt level <= max_n of R/(x) for a k-summand."""
    p = A.p
    xv = np.asarray(x, dtype=np.int64) % p
    if not np.any(xv):
        raise ValueError("x must be nonzero")
    if not A.is_in_maxideal(xv):
        raise ValueError("x must lie in the maximal ideal")
    if A.maxideal_power(2).contains(xv):
        raise ValueError("x must be a minimal generator (not in m^2)")
    levels, census, complete = filt_census(A, xv, max_n, budget=budget)
    witness_node = None
    witness_vector = None
    for level_nodes, level in zip(levels, census):
        if True in level.splits:
            witness_node = level_nodes[level.splits.index(True)]
            witness_vector = splits_off_k(witness_node.module)
            if witness_vector is None:
                raise LiftFailure("splitting_flags and splits_off_k disagree on a k-summand")
            break
    contains = witness_node is not None
    if contains:
        note = f"k splits off a verified node at level {witness_node.level}"
    else:
        note = (
            f"no k-summand through level {len(levels)}; bounded-depth evidence, "
            "not a proof for unbounded levels"
        )
        if not complete:
            note += "; enumeration stopped early on the cocycle budget"
    return ClosureVerdict(
        x=xv,
        depth=len(levels),
        contains_k=contains,
        complete=complete,
        census=census,
        witness_node=witness_node,
        witness_vector=witness_vector,
        note=note,
    )


# -- hypersurface ladder ---------------------------------------------------------------------


class LadderReport(NamedTuple):
    n: int
    x: Optional[np.ndarray]
    witnesses: list[ExtensionWitness]
    closures: dict[int, tuple[int, ...]]
    all_reached: bool


def hypersurface_ladder_check(A: LocalAlgebra) -> LadderReport:
    """For R = F_p[x]/(x^n): verify the n-1 exact sequences
    0 -> R/(x^i) -> R/(x^{i-1}) + R/(x^{i+1}) -> R/(x^i) -> 0
    (with x^0 = 1, so R/(x^0) = 0) and replay the reachability argument:
    from any seed R/(x^l) the closure reaches every cyclic including R."""
    if not A.classify().is_hypersurface:
        raise NotHypersurface("algebra has embedding dimension at least 2")
    n = A.dim
    if n == 1:
        return LadderReport(n=1, x=None, witnesses=[], closures={}, all_reached=True)
    x = A.generator_set.column(0)
    p = A.p
    reg = regular_module(A)
    quots = []
    for i in range(n + 1):
        power = A.element_power(x, i) if i else A.unit()
        quots.append(quotient_module(reg, A.principal_ideal(power).basis))
    witnesses = []
    X_mat = A.mult_by(x)
    for i in range(1, n):
        Ci, Cm, Cp_ = quots[i], quots[i - 1], quots[i + 1]
        mid = direct_sum(Cm.module, Cp_.module)
        f = np.vstack(
            [
                (Cm.proj.matrix @ Ci.lift.array) % p,
                (Cp_.proj.matrix @ X_mat @ Ci.lift.array) % p,
            ]
        )
        g = np.hstack(
            [
                (Ci.proj.matrix @ X_mat @ Cm.lift.array) % p,
                (-(Ci.proj.matrix @ Cp_.lift.array)) % p,
            ]
        )
        w = ExtensionWitness(
            sub=Ci.module,
            middle=mid,
            quotient=Ci.module,
            inject=ModuleMap(Ci.module, mid, f),
            project=ModuleMap(mid, Ci.module, g),
        )
        problems = w.verify()
        if problems:
            raise LiftFailure(f"ladder sequence i={i} not exact: " + "; ".join(problems))
        witnesses.append(w)
    closures = {}
    full = tuple(range(1, n + 1))
    for seed in range(1, n):
        reached = {seed}
        while True:
            grow = set(reached)
            for i in reached:
                if 1 <= i <= n - 1:
                    if i - 1 >= 1:
                        grow.add(i - 1)
                    grow.add(i + 1)
            if grow == reached:
                break
            reached = grow
        closures[seed] = tuple(sorted(reached))
    all_reached = all(closures[seed] == full for seed in closures)
    return LadderReport(n=n, x=x, witnesses=witnesses, closures=closures, all_reached=all_reached)
