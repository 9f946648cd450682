"""Extensions, filtration categories, and triangular presentations.

The enumeration engine: build middle terms of short exact sequences
0 -> Y -> M -> X -> 0 from Ext^1 cocycles, expand the levels filt^n(X) up
to isomorphism, attach the upper-triangular presentation with diagonal x
when X = R/(x), and decide bounded-depth membership of k in the extension
closure of R/(x) by scanning every node for a k-summand.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .linalg import PrimeFieldMatrix
from .algebra import IdealSubspace, LocalAlgebra
from .modules import (
    Ext1Space,
    FpModule,
    FreePresentation,
    ModuleMap,
    RingMatrix,
    SearchInconclusive,
    canonical_fingerprint,
    direct_sum,
    ext1,
    free_module,
    hom_dim,
    is_isomorphic,
    quotient_module,
    regular_module,
    splits_off_k,
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


@dataclass
class ExtensionWitness:
    """Verified short exact sequence 0 -> sub -> middle -> quotient -> 0."""

    sub: FpModule
    middle: FpModule
    quotient: FpModule
    inject: ModuleMap
    project: ModuleMap

    def verify(self) -> list[str]:
        problems = []
        if self.middle.dim != self.sub.dim + self.quotient.dim:
            problems.append("length is not additive")
        if not self.inject.is_injective():
            problems.append("inject has a kernel")
        if not self.project.is_surjective():
            problems.append("project is not onto")
        if self.inject.image() != linalg.column_space(self.project.kernel()):
            problems.append("image(inject) differs from kernel(project)")
        return problems


def extension_from_cocycle(ext: Ext1Space, coeffs: Sequence[int]) -> ExtensionWitness:
    """Middle term (Y + F_0) / {(phi(z), -d1(z))} for the cocycle with the
    given coordinates in ext.reps. The zero cocycle yields Y + X."""
    X, Y = ext.X, ext.L
    A = X.algebra
    p = A.p
    phi = ext.cocycle(coeffs)
    F0 = free_module(A, ext.beta0)
    D = direct_sum(Y, F0)
    d1lin = ext.d1.as_linear_map().array
    graph_cols = []
    for b in range(ext.beta1):
        for j in range(A.dim):
            y_part = (Y.action[j] @ phi[:, b]) % p
            f_part = (-d1lin[:, b * A.dim + j]) % p
            graph_cols.append(np.concatenate([y_part, f_part]))
    W = PrimeFieldMatrix.from_columns(graph_cols, Y.dim + F0.dim, p)
    qm = quotient_module(D, W)
    M = qm.module
    inject = ModuleMap(Y, M, qm.proj.matrix[:, : Y.dim], validate=True)
    # project factors cover0 . pr_F0 through the quotient; independent of lift
    proj_mat = (ext.cover0 @ qm.lift.array[Y.dim :, :]) % p
    project = ModuleMap(M, X, proj_mat, validate=True)
    witness = ExtensionWitness(sub=Y, middle=M, quotient=X, inject=inject, project=project)
    problems = witness.verify()
    if problems:
        raise LiftFailure("cocycle produced a non-exact sequence: " + "; ".join(problems))
    return witness


@dataclass
class FiltNode:
    """Iso-class representative at one level of filt^n(X).

    chain holds the n-1 extension steps that realize the filtration;
    presentation is the upper-triangular matrix with diagonal x, present
    whenever X was given as R/(x)."""

    level: int
    module: FpModule
    chain: tuple[ExtensionWitness, ...]
    presentation: Optional[FreePresentation] = None


def _digits(n: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(n % p)
        n //= p
    return tuple(out)


def _base_presentation(A: LocalAlgebra, x: np.ndarray, X: FpModule) -> FreePresentation:
    """The 1x1 presentation (x) of the canonical cyclic module R/(x)."""
    ideal = A.principal_ideal(x)
    qm = quotient_module(regular_module(A), ideal.basis)
    if qm.module.action.tobytes() != X.action.tobytes():
        raise ValueError("X must be the canonical cyclic module R/(x)")
    entries = np.zeros((1, 1, A.dim), dtype=np.int64)
    entries[0, 0] = np.asarray(x, dtype=np.int64) % A.p
    T = RingMatrix(A, entries)
    cover = ModuleMap(free_module(A, 1), X, qm.proj.matrix, validate=True)
    _verify_presents(T, cover)
    in_m = A.is_in_maxideal(x) and np.any(np.asarray(x) % A.p)
    return FreePresentation(relations=T, cover=cover, minimal=bool(in_m))


def _verify_presents(T: RingMatrix, cover: ModuleMap) -> None:
    """Exactness of A^c -> A^r -> M -> 0: image of T equals kernel of cover."""
    if linalg.column_space(T.as_linear_map()) != linalg.column_space(cover.kernel()):
        raise LiftFailure("matrix image does not match the cover kernel")


def _triangular_step(
    pres_Y: FreePresentation, witness: ExtensionWitness, x: np.ndarray, base: FreePresentation
) -> FreePresentation:
    """Extend Y's n-1 triangular presentation through 0 -> Y -> M -> R/(x) -> 0.

    The new last column is (-B; x) where B lifts the unique y0 with
    inject(y0) = x * m and m covers the class of 1 in R/(x)."""
    A = pres_Y.relations.algebra
    p = A.p
    M = witness.middle
    u = base.cover.matrix[:, 0]
    m_vec = linalg.solve(PrimeFieldMatrix(witness.project.matrix, p), u)
    if m_vec is None:
        raise LiftFailure("could not lift the generator of R/(x) through the projection")
    xm = (M.action_of(x) @ m_vec) % p
    y0 = linalg.solve(PrimeFieldMatrix(witness.inject.matrix, p), xm)
    if y0 is None:
        raise LiftFailure("x*m does not land in the submodule")
    B = linalg.solve(PrimeFieldMatrix(pres_Y.cover.matrix, p), y0)
    if B is None:
        raise LiftFailure("syzygy element does not lift through the free cover of Y")
    nprev = pres_Y.relations.rows
    entries = np.zeros((nprev + 1, nprev + 1, A.dim), dtype=np.int64)
    entries[:nprev, :nprev] = pres_Y.relations.entries
    negB = (-B) % p
    for i in range(nprev):
        entries[i, nprev] = negB[i * A.dim : (i + 1) * A.dim]
    entries[nprev, nprev] = np.asarray(x, dtype=np.int64) % p
    T = RingMatrix(A, entries)
    gen_cols = np.stack([(M.action[j] @ m_vec) % p for j in range(A.dim)], axis=1)
    cover_mat = np.hstack([(witness.inject.matrix @ pres_Y.cover.matrix) % p, gen_cols])
    cover = ModuleMap(free_module(A, nprev + 1), M, cover_mat, validate=True)
    _verify_presents(T, cover)
    return FreePresentation(relations=T, cover=cover, minimal=False)


def filt_enumerate(
    X: FpModule,
    n: int,
    *,
    x_element: Optional[np.ndarray] = None,
    budget: int = DEFAULT_COCYCLE_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> list[list[FiltNode]]:
    """Levels 1..n of filt(X), each a deduplicated, canonically sorted list.

    Every cocycle of Ext^1(X, Y) is enumerated for every class Y one level
    down (the full vector space, zero included). Isomorphism tests that
    stay inconclusive keep candidates as distinct classes rather than
    merging them. Worker count never changes the output."""
    if X.dim == 0:
        raise ValueError("X must be nonzero")
    if n < 1:
        raise ValueError("need at least one level")
    A = X.algebra
    base = _base_presentation(A, x_element, X) if x_element is not None else None
    levels: list[list[FiltNode]] = [[FiltNode(1, X, (), base)]]
    for lev in range(2, n + 1):
        prev = levels[-1]
        spaces = [ext1(X, node.module) for node in prev]
        counts = [A.p ** es.dim for es in spaces]
        required = sum(counts)
        if required > budget:
            raise EnumerationBudgetExceeded(levels, lev, required, budget)
        tasks = [
            (yi, ci)
            for yi in range(len(prev))
            for ci in range(counts[yi])
        ]

        def build(task: tuple[int, int]):
            yi, ci = task
            es = spaces[yi]
            return yi, extension_from_cocycle(es, _digits(ci, A.p, es.dim))

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(build, tasks, chunksize=16))
        else:
            results = [build(t) for t in tasks]

        classes: list[FiltNode] = []
        seen_bytes: set = set()
        buckets: dict = {}
        tests = [node.module for node in prev] + [X]
        for yi, witness in results:
            M = witness.middle
            fp = M.fingerprint()
            if fp in seen_bytes:
                continue
            seen_bytes.add(fp)
            # bucket on iso invariants so candidates only ever face their
            # plausible classmates; hom dims against the previous level's
            # canonical classes separate most remaining distinct classes
            key = (
                fp[1],
                M.iso_profile(),
                tuple(hom_dim(M, T) for T in tests),
                tuple(hom_dim(T, M) for T in tests),
            )
            matched = False
            for idx in buckets.get(key, ()):
                try:
                    if is_isomorphic(classes[idx].module, M, seed=seed).isomorphic:
                        matched = True
                        break
                except SearchInconclusive:
                    continue  # never merge without a witness
            if matched:
                continue
            ynode = prev[yi]
            pres = None
            if base is not None and ynode.presentation is not None:
                pres = _triangular_step(ynode.presentation, witness, x_element, base)
            buckets.setdefault(key, []).append(len(classes))
            classes.append(FiltNode(lev, M, ynode.chain + (witness,), pres))
        order = sorted(range(len(classes)), key=lambda i: canonical_fingerprint(classes[i].module))
        levels.append([classes[i] for i in order])
    return levels


def splice_nodes(bottom: FiltNode, top: FiltNode) -> FiltNode:
    """A level-(p+q) node for bottom + top built by direct construction:
    bottom's chain, then top's chain extended identically on the summand."""
    M = bottom.module
    A = M.algebra
    chain = list(bottom.chain)
    carried = M
    top_modules = [top.chain[0].sub if top.chain else top.module]
    steps = list(top.chain)
    # first spliced step: 0 -> M -> M + X -> X -> 0 split
    X = top_modules[0]
    mid = direct_sum(carried, X)
    inj = np.zeros((mid.dim, carried.dim), dtype=np.int64)
    inj[: carried.dim] = np.eye(carried.dim, dtype=np.int64)
    prj = np.zeros((X.dim, mid.dim), dtype=np.int64)
    prj[:, carried.dim :] = np.eye(X.dim, dtype=np.int64)
    w0 = ExtensionWitness(carried, mid, X,
                          ModuleMap(carried, mid, inj, validate=True),
                          ModuleMap(mid, X, prj, validate=True))
    if w0.verify():
        raise LiftFailure("split step failed to verify")
    chain.append(w0)
    carried = mid
    for w in steps:
        new_mid = direct_sum(M, w.middle)
        inj = np.zeros((new_mid.dim, carried.dim), dtype=np.int64)
        inj[: M.dim, : M.dim] = np.eye(M.dim, dtype=np.int64)
        inj[M.dim :, M.dim :] = w.inject.matrix
        prj = np.zeros((w.quotient.dim, new_mid.dim), dtype=np.int64)
        prj[:, M.dim :] = w.project.matrix
        lifted = ExtensionWitness(carried, new_mid, w.quotient,
                                  ModuleMap(carried, new_mid, inj, validate=True),
                                  ModuleMap(new_mid, w.quotient, prj, validate=True))
        if lifted.verify():
            raise LiftFailure("spliced step failed to verify")
        chain.append(lifted)
        carried = new_mid
    pres = None
    if bottom.presentation is not None and top.presentation is not None:
        pres = _block_diag_presentation(bottom.presentation, top.presentation, carried)
    return FiltNode(bottom.level + top.level, carried, tuple(chain), pres)


def _block_diag_presentation(
    pa: FreePresentation, pb: FreePresentation, M: FpModule
) -> FreePresentation:
    A = pa.relations.algebra
    na, nb = pa.relations.rows, pb.relations.rows
    entries = np.zeros((na + nb, na + nb, A.dim), dtype=np.int64)
    entries[:na, :na] = pa.relations.entries
    entries[na:, na:] = pb.relations.entries
    T = RingMatrix(A, entries)
    da, db = pa.cover.target.dim, pb.cover.target.dim
    cover_mat = np.zeros((da + db, (na + nb) * A.dim), dtype=np.int64)
    cover_mat[:da, : na * A.dim] = pa.cover.matrix
    cover_mat[da:, na * A.dim :] = pb.cover.matrix
    cover = ModuleMap(free_module(A, na + nb), M, cover_mat, validate=True)
    _verify_presents(T, cover)
    return FreePresentation(relations=T, cover=cover, minimal=pa.minimal and pb.minimal)


def build_presentation_matrix(node: FiltNode, x_element: Optional[np.ndarray] = None) -> FreePresentation:
    """Triangular presentation of a node, verified against the node's module
    by a cokernel computation plus an isomorphism check."""
    pres = node.presentation
    if pres is None:
        if x_element is None:
            raise ValueError("node carries no presentation and no x was supplied")
        if node.chain:
            X = node.chain[-1].quotient
        else:
            X = node.module
        A = X.algebra
        base = _base_presentation(A, x_element, X)
        pres = base
        for w in node.chain:
            pres = _triangular_step(pres, w, x_element, base)
    A = pres.relations.algebra
    free = free_module(A, pres.relations.rows)
    coker = quotient_module(free, linalg.column_space(pres.relations.as_linear_map())).module
    verdict = is_isomorphic(coker, node.module)
    if not verdict.isomorphic:
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
        cols = []
        for t in range(ann.dim):
            z = ann.basis.column(t)
            parts = [(A.mult_by(pres.relations.entries[i, j]) @ z) % p for i in range(j)]
            cols.append(np.concatenate(parts))
        lhs = PrimeFieldMatrix.from_columns(cols, j * A.dim, p)
        leading = RingMatrix(A, pres.relations.entries[:j, :j])
        rhs = linalg.column_space(leading.as_linear_map())
        out.append(linalg.is_subspace(linalg.column_space(lhs), rhs))
    return out


class ReducedPresentation:
    """Result of strict_upper_reduction: the new presentation plus the
    complement ideal I with m = (x) + I."""

    def __init__(self, presentation: FreePresentation, complement: IdealSubspace):
        self.presentation = presentation
        self.complement = complement


def complement_ideal(A: LocalAlgebra, x: np.ndarray) -> IdealSubspace:
    """I = (other minimal generators) with m = (x) + I, chosen greedily over
    the basis so the result is canonical."""
    p = A.p
    xv = np.asarray(x, dtype=np.int64) % p
    if not A.is_in_maxideal(xv) or A.maxideal().power(2).contains(xv) or not np.any(xv):
        raise ValueError("x must be a minimal generator of the maximal ideal")
    span = linalg.subspace_sum(A.principal_ideal(xv).basis, A.maxideal().power(2).basis)
    chosen = []
    for i in range(1, A.dim):
        v = A.basis_vector(i)
        if not linalg.contains_vector(span, v):
            chosen.append(v)
            span = linalg.subspace_sum(span, PrimeFieldMatrix(v.reshape(-1, 1), p))
    I = A.ideal(chosen)
    if linalg.subspace_sum(A.principal_ideal(xv).basis, I.basis) != A.maxideal().basis:
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
    mult_x = PrimeFieldMatrix(A.mult_by(x), p)
    decomp = mult_x.hstack(PrimeFieldMatrix(I.basis.array, p)) if I.dim else mult_x
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
    new_pres = FreePresentation(relations=reduced, cover=pres.cover, minimal=pres.minimal)
    return ReducedPresentation(new_pres, I)


# -- the extension closure question -------------------------------------------------------


@dataclass
class LevelCensus:
    level: int
    count: int
    lengths: tuple[int, ...]
    splits: tuple[bool, ...]


@dataclass
class ClosureVerdict:
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
    seed: int = 0,
    workers: int = 1,
) -> ClosureVerdict:
    """Search every filt level <= max_n of R/(x) for a k-summand."""
    p = A.p
    xv = np.asarray(x, dtype=np.int64) % p
    if not np.any(xv):
        raise ValueError("x must be nonzero")
    if not A.is_in_maxideal(xv):
        raise ValueError("x must lie in the maximal ideal")
    if A.maxideal().power(2).contains(xv):
        raise ValueError("x must be a minimal generator (not in m^2)")
    X = quotient_module(regular_module(A), A.principal_ideal(xv).basis).module
    complete = True
    try:
        levels = filt_enumerate(
            X, max_n, x_element=xv, budget=budget, seed=seed, workers=workers
        )
    except EnumerationBudgetExceeded as exc:
        levels = exc.partial_levels
        complete = False
    census: list[LevelCensus] = []
    witness_node = None
    witness_vector = None
    for level_nodes in levels:
        splits = []
        for node in level_nodes:
            w = splits_off_k(node.module)
            if w is not None and witness_node is None:
                witness_node = node
                witness_vector = w
            splits.append(w is not None)
        census.append(
            LevelCensus(
                level=level_nodes[0].level if level_nodes else len(census) + 1,
                count=len(level_nodes),
                lengths=tuple(n.module.dim for n in level_nodes),
                splits=tuple(splits),
            )
        )
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


@dataclass
class LadderReport:
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
            inject=ModuleMap(Ci.module, mid, f, validate=True),
            project=ModuleMap(mid, Ci.module, g, validate=True),
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
