"""Finite-dimensional local F_p-algebras given by multiplication tables.

A LocalAlgebra stores an F_p-basis with the unit at index 0 and the maximal
ideal m spanned by indices 1..dim-1 (every constructor arranges this), plus
the full structure-constant table. Algebras arise from polynomial
presentations F_p[x_1..x_n]/I with I m-primary, from idealizations S x N,
from tensor products, and from quotients by ideals.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .linalg import PrimeFieldMatrix
from . import polyparse
from .polyparse import InfiniteDimensionError, Monomial, Polynomial


class NotLocalError(ValueError):
    """The presented quotient is not local with nilpotent variables."""


class EdimTooSmallError(ValueError):
    """An operation needs at least two minimal generators of m."""


class Presentation:
    """Polynomial origin of an algebra F_p[variables]/(relations): the
    matrices X_v multiplying by each variable v on the standard monomials,
    the least t with v^t = 0 for each v, and the coordinates of the
    monomials evaluated so far, seeded with the standard monomials.
    Presentations compare by identity."""

    __slots__ = ("variables", "p", "relations", "variable_matrices", "nilpotency", "coordinates")

    def __init__(self, variables: tuple[str, ...], p: int, relations: tuple[Polynomial, ...],
                 variable_matrices: np.ndarray, nilpotency: tuple[int, ...],
                 coordinates: dict[Monomial, np.ndarray]):
        self.variables = variables
        self.p = p
        self.relations = relations
        self.variable_matrices = variable_matrices
        self.nilpotency = nilpotency
        self.coordinates = coordinates

    def monomial_vector(self, u: Monomial) -> np.ndarray:
        """Coordinates of the monomial with exponents u (not to be written
        to): zero once an exponent reaches its variable's nilpotency index,
        else X_v times those of u - e_v, v the first variable in u."""
        if any(e >= t for e, t in zip(u, self.nilpotency)):
            return np.zeros(self.variable_matrices.shape[1], dtype=np.int64)
        chain = []
        while u not in self.coordinates:  # 1 is standard, so u has a variable
            v = next(i for i, e in enumerate(u) if e)
            chain.append((u, v))
            u = u[:v] + (u[v] - 1,) + u[v + 1 :]
        w = self.coordinates[u]
        for u, v in reversed(chain):
            w = self.coordinates[u] = self.variable_matrices[v] @ w % self.p
        return w


class AlgebraInvariants(NamedTuple):
    length: int
    edim: int
    hilbert: tuple[int, ...]
    socle_dim: int
    top_socle_degree: int


class AlgebraClass(NamedTuple):
    is_field: bool
    is_hypersurface: bool
    is_gorenstein: bool
    is_stretched: bool


class IdealSubspace:
    """An ideal of a LocalAlgebra stored as a canonical subspace basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: "LocalAlgebra", basis: PrimeFieldMatrix):
        self.ambient = ambient
        self.basis = linalg.column_space(basis)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains(self, v: np.ndarray) -> bool:
        return linalg.solve(self.basis, v) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdealSubspace)
            and self.ambient is other.ambient
            and self.basis == other.basis
        )

    def sum(self, other: "IdealSubspace") -> "IdealSubspace":
        both = np.hstack([self.basis.array, other.basis.array])
        return IdealSubspace(self.ambient, PrimeFieldMatrix._own(both, self.ambient.p))

    def intersection(self, other: "IdealSubspace") -> "IdealSubspace":
        """u a = v b for the bases u, v: the kernel of [u | -v], read on u."""
        u, v, p = self.basis.array, other.basis.array, self.ambient.p
        ker = linalg.kernel_basis(PrimeFieldMatrix._own(np.hstack([u, -v % p]), p))
        return IdealSubspace(self.ambient, PrimeFieldMatrix._own(u @ ker.array[: u.shape[1]] % p, p))

    def product(self, other: "IdealSubspace") -> "IdealSubspace":
        """I J, the span of u * v over the basis vectors u of I and v of J."""
        A = self.ambient
        prods = linalg.span_of_products(A.mult_stack(self.basis.array), other.basis.array, A.p)
        return IdealSubspace(A, prods)

    def power(self, n: int) -> "IdealSubspace":
        if n < 0:
            raise ValueError("negative ideal power")
        if n == 0:
            return self.ambient.unit_ideal()
        acc = self
        for _ in range(n - 1):
            if acc.is_zero():
                break
            acc = acc.product(self)
        return acc

    def __repr__(self) -> str:
        return f"IdealSubspace(dim={self.dim} of {self.ambient.dim})"


class LocalAlgebra:
    """Commutative local F_p-algebra with unit e_0 and m = span(e_1..e_{d-1}).

    Only the table's shape and label count are checked: the package's own
    constructors build valid tables, and check_axioms is for hand-built ones."""

    def __init__(
        self,
        p: int,
        table: np.ndarray,
        labels: Sequence[str],
        presentation: Optional[Presentation] = None,
    ):
        table = np.mod(np.asarray(table, dtype=np.int64), p)
        if table.ndim != 3 or table.shape[0] != table.shape[1] or table.shape[1] != table.shape[2]:
            raise ValueError("structure table must have shape (dim, dim, dim)")
        table.setflags(write=False)
        self.p = p
        self.dim = table.shape[0]
        self.table = table
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match dimension")
        self.presentation = presentation
        self._mult_matrices: Optional[np.ndarray] = None
        self._generator_mults: Optional[np.ndarray] = None
        self._maxideal_square: Optional[IdealSubspace] = None
        self._maxideal_powers: Optional[tuple[IdealSubspace, ...]] = None
        self._invariants: Optional[AlgebraInvariants] = None

    # -- elements ---------------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def unit(self) -> np.ndarray:
        v = self.zero()
        v[0] = 1
        return v

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.zero()
        v[i] = 1
        return v

    def mult_matrices(self) -> np.ndarray:
        """The (dim, dim, dim) stack whose i-th matrix multiplies by e_i."""
        if self._mult_matrices is None:
            m = np.transpose(self.table, (0, 2, 1)).copy()
            m.setflags(write=False)
            self._mult_matrices = m
        return self._mult_matrices

    def mult_stack(self, elements: np.ndarray) -> np.ndarray:
        """The (k, dim, dim) stack multiplying by each column of the
        (dim, k) array elements, reduced mod p."""
        c = np.asarray(elements, dtype=np.int64) % self.p
        return np.tensordot(c, self.table, axes=(0, 0)).transpose(0, 2, 1) % self.p

    def mult_by(self, v: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by the element with coordinates v."""
        return self.mult_stack(np.reshape(v, (self.dim, 1)))[0]

    def mult(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (self.mult_by(u) @ (np.asarray(v, dtype=np.int64) % self.p)) % self.p

    def element_power(self, v: np.ndarray, n: int) -> np.ndarray:
        acc = self.unit()
        for _ in range(n):
            acc = self.mult(acc, v)
        return acc

    def element_from_string(self, text: str) -> np.ndarray:
        pres = self.presentation
        if pres is None:
            raise ValueError("algebra has no polynomial presentation")
        v = self.zero()
        for m, c in polyparse.parse_polynomial(text, pres.variables, self.p).terms.items():
            v = (v + c * pres.monomial_vector(m)) % self.p
        return v

    # -- ideals -------------------------------------------------------------------

    def zero_ideal(self) -> IdealSubspace:
        return IdealSubspace(self, PrimeFieldMatrix.zeros(self.dim, 0, self.p))

    def unit_ideal(self) -> IdealSubspace:
        return IdealSubspace(self, PrimeFieldMatrix.identity(self.dim, self.p))

    def maxideal(self) -> IdealSubspace:
        basis = np.eye(self.dim, dtype=np.int64)[:, 1:]
        return IdealSubspace(self, PrimeFieldMatrix(basis, self.p))

    def ideal(self, generators: Sequence[np.ndarray]) -> IdealSubspace:
        """Ideal generated by the given elements: span of g * e_i."""
        gens = self.mult_stack(np.reshape(generators, (len(generators), self.dim)).T)
        return IdealSubspace(self, linalg.span_of_products(gens, np.eye(self.dim, dtype=np.int64), self.p))

    def principal_ideal(self, v: np.ndarray) -> IdealSubspace:
        return self.ideal([v])

    def colon(self, ideal: IdealSubspace, x) -> IdealSubspace:
        """(ideal : x) for an element, or (ideal : J) for an ideal J."""
        if isinstance(x, IdealSubspace):
            acc = self.unit_ideal()
            for j in range(x.dim):
                acc = acc.intersection(self.colon(ideal, x.basis.column(j)))
            return acc
        # x a = i for some i in the ideal: the kernel of [x | -ideal], read on a
        aug = np.hstack([self.mult_by(x), -ideal.basis.array % self.p])
        ker = linalg.kernel_basis(PrimeFieldMatrix._own(aug, self.p))
        return IdealSubspace(self, PrimeFieldMatrix._own(ker.array[: self.dim], self.p))

    def annihilator(self, x) -> IdealSubspace:
        return self.colon(self.zero_ideal(), x)

    def socle(self) -> IdealSubspace:
        """(0 : m), the simultaneous kernel of the actions of the minimal
        generators of m, which generate m as an ideal."""
        stacked = self.generator_mults().reshape(-1, self.dim)
        return IdealSubspace(self, linalg.kernel_basis(PrimeFieldMatrix._own(stacked, self.p)))

    # -- invariants ------------------------------------------------------------------

    @functools.cached_property
    def generator_indices(self) -> np.ndarray:
        """The basis indices i of the minimal generators e_i of m: the
        lexicographically first basis completion of m^2 inside m over the
        stored basis order. A module's m-action is action[generator_indices]."""
        picks = linalg.greedy_completion(self.maxideal_square().basis, self.maxideal().basis)
        idx = np.array(picks, dtype=np.int64) + 1
        idx.setflags(write=False)
        return idx

    @functools.cached_property
    def generator_set(self) -> PrimeFieldMatrix:
        """Minimal generators of m, as the columns e_i, i in generator_indices."""
        return PrimeFieldMatrix._own(np.eye(self.dim, dtype=np.int64)[:, self.generator_indices], self.p)

    def generator_mults(self) -> np.ndarray:
        """The (e, dim, dim) stack multiplying by each minimal generator of m:
        table slices, as the generators are basis vectors (never sliced out
        of mult_matrices(), which would build the whole (dim, dim, dim) stack)."""
        if self._generator_mults is None:
            mults = np.transpose(self.table[self.generator_indices], (0, 2, 1)).copy()
            mults.setflags(write=False)
            self._generator_mults = mults
        return self._generator_mults

    def maxideal_square(self) -> IdealSubspace:
        """m^2, the span of the table products e_i e_j with i, j >= 1."""
        if self._maxideal_square is None:
            i, j = np.triu_indices(self.dim - 1)
            products = self.table[i + 1, j + 1].T
            self._maxideal_square = IdealSubspace(self, PrimeFieldMatrix._own(products, self.p))
        return self._maxideal_square

    def times_maxideal(self, ideal: IdealSubspace) -> IdealSubspace:
        """m * I for an ideal I, as the span of g * I over the minimal
        generators g of m: m = span(g) + m^2 and m is nilpotent, so the g
        generate m (Nakayama) and m I = sum_g g A I = sum_g g I."""
        return IdealSubspace(self, linalg.span_of_products(self.generator_mults(), ideal.basis.array, self.p))

    def maxideal_powers(self) -> tuple[IdealSubspace, ...]:
        """(m^0, m^1, ...) down to the first zero power, computed once.

        The powers are generator products (times_maxideal), which are m^k
        only when the generators g generate m as an ideal, i.e. when
        g m = m^2: then m = span(g) + g m lies in the ideal (g). Raises
        NotLocalError when that fails or when m^dim is not zero (the powers
        of a nilpotent m fall in dimension at every step).
        """
        if self._maxideal_powers is None:
            powers = [self.unit_ideal(), self.maxideal()]
            while not powers[-1].is_zero():
                powers.append(self.times_maxideal(powers[-1]))
                if len(powers) > self.dim + 1 or powers[2] != self.maxideal_square():
                    raise NotLocalError("maximal ideal is not nilpotent")
            self._maxideal_powers = tuple(powers)
        return self._maxideal_powers

    def maxideal_power(self, k: int) -> IdealSubspace:
        """m^k; the zero ideal past the nilpotency index."""
        if k < 0:
            raise ValueError("negative ideal power")
        powers = self.maxideal_powers()
        return powers[k] if k < len(powers) else powers[-1]

    def invariants(self) -> AlgebraInvariants:
        if self._invariants is None:
            dims = [pw.dim for pw in self.maxideal_powers()]
            self._invariants = AlgebraInvariants(
                length=self.dim,
                edim=self.generator_set.cols,
                hilbert=tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1)),
                socle_dim=self.socle().dim,
                top_socle_degree=len(dims) - 2,  # largest i with m^i != 0
            )
        return self._invariants

    def classify(self) -> AlgebraClass:
        inv = self.invariants()
        # stretched means m^(length - edim) != 0
        stretched = (inv.length - inv.edim) <= inv.top_socle_degree
        return AlgebraClass(
            is_field=self.dim == 1,
            is_hypersurface=inv.edim <= 1,
            is_gorenstein=inv.socle_dim == 1,
            is_stretched=stretched,
        )

    def is_in_maxideal(self, v: np.ndarray) -> bool:
        return (np.asarray(v, dtype=np.int64) % self.p)[0] == 0

    def render_element(self, v: np.ndarray) -> str:
        """Human-readable form of a coordinate vector, e.g. 'x + 2y'."""
        v = np.asarray(v, dtype=np.int64) % self.p
        pieces = []
        for i in range(self.dim):
            c = int(v[i])
            if c == 0:
                continue
            label = self.labels[i]
            if label == "1":
                pieces.append(str(c))
            elif c == 1:
                pieces.append(label)
            else:
                pieces.append(f"{c}{label}")
        return " + ".join(pieces) if pieces else "0"

    def find_orthogonal_generator_pair(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """First pair (x, y) = (gens a, gens b) with x*y = 0 and a, b (so x, y
        modulo m^2) independent, scanning a, then b, over the base-p digits of
        1..p^e-1, first generator least significant. Both conditions hold for
        (ux, vy), u and v units, when they hold for (x, y), so only the first
        linalg.SCAN_LINES monic a are scanned (linalg.monic_blocks); None when
        they hold no x. The partners of x are the b in ker K_a off a's line,
        K_a the (dim, e) matrix of the x*g_j, so x has one when e - rank K_a is
        >= 2, or is 1 and K_a a = x^2 != 0. The first b is v_1 of the canonical
        kernel basis of K_a, top-monic at free columns f_1 < f_2 < ..., if it
        is off a's line; else v_2, the least monic v_2 + c v_1 (its digit at
        f_1 is c, and the digits above do not depend on c)."""
        gens = self.generator_set
        p, e = self.p, gens.cols
        if e < 2:
            raise EdimTooSmallError("need edim >= 2 for an orthogonal generator pair")
        prods = self.generator_mults()[:, :, self.generator_indices]  # [j, :, i] = g_j g_i
        for block in itertools.islice(linalg.monic_blocks(p, e), linalg.SCAN_LINES // linalg.BLOCK_ROWS):
            K = np.einsum("jdi,bi->bdj", prods, block) % p
            null = e - linalg.rank_batch(K, p)
            squares = np.einsum("bdj,bj->bd", K, block) % p
            hits = ((null >= 2) | (null == 1) & squares.any(axis=1)) & block.any(axis=1)  # x != 0
            if hits.any():
                h = hits.argmax()
                ker = linalg.kernel_basis(PrimeFieldMatrix._own(K[h], p)).array
                b = ker[:, 1] if np.array_equal(ker[:, 0], block[h]) else ker[:, 0]
                return gens.array @ block[h] % p, gens.array @ b % p
        return None

    def __repr__(self) -> str:
        return f"LocalAlgebra(p={self.p}, dim={self.dim})"


def check_axioms(A: LocalAlgebra) -> list[str]:
    """Violations of the algebra axioms; empty list when everything holds.

    Checks: e_0 is a two-sided unit, the table is commutative and
    associative, span(e_1..e_{d-1}) is an ideal, and that ideal is nilpotent.
    LocalAlgebra never runs it: it is for tables built outside the package.
    """
    problems = []
    d, p, t = A.dim, A.p, A.table
    if d == 0:
        return ["zero algebra"]
    for i in range(d):
        if not np.array_equal(t[0, i] % p, A.basis_vector(i)):
            problems.append(f"e_0 * e_{i} != e_{i}")
        if not np.array_equal(t[i, 0] % p, A.basis_vector(i)):
            problems.append(f"e_{i} * e_0 != e_{i}")
    for i in range(d):
        for j in range(i + 1, d):
            if not np.array_equal(t[i, j], t[j, i]):
                problems.append(f"e_{i} * e_{j} != e_{j} * e_{i}")
    # associativity via multiplication matrices: M_i M_j = sum_k t[i,j,k] M_k
    mats = A.mult_matrices()
    for i in range(d):
        for j in range(i, d):
            lhs = (mats[i] @ mats[j]) % p
            rhs = np.tensordot(t[i, j], mats, axes=(0, 0)) % p
            if not np.array_equal(lhs, rhs):
                problems.append(f"associativity fails at (e_{i}, e_{j})")
    if problems:
        return problems
    # m = span(e_1..) must be an ideal: products of m-elements avoid e_0
    if d > 1 and np.any(t[1:, 1:, 0] % p):
        problems.append("span(e_1..e_{d-1}) is not closed under multiplication")
        return problems
    try:
        A.maxideal_powers()
    except NotLocalError:
        problems.append("maximal ideal is not nilpotent")
    return problems


def digit_codes(digits: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """One int64 code per row of the (rows, n) array digits, digit v below
    radices[v]: equal rows get equal codes, and codes increase with the rows
    in lexicographic order. The digits are read as one mixed-radix number;
    where that could pass 2^62, the codes so far are first replaced by their
    ranks, which keeps their order."""
    codes = np.zeros(digits.shape[0], dtype=np.int64)
    size = 1
    for v, radix in enumerate(radices):
        if size * radix >= 1 << 62:
            size, codes = codes.size, np.unique(codes, return_index=True, return_inverse=True)[2]
        codes, size = codes * radix + digits[:, v], size * radix
    return codes


def from_presentation(variables: Sequence[str], relations: Sequence[Polynomial]) -> LocalAlgebra:
    """Quotient F_p[variables]/(relations) as a LocalAlgebra.

    The relations must generate an m-primary ideal (every variable nilpotent
    in the quotient); otherwise NotLocalError or InfiniteDimensionError.
    Basis labels are the standard monomials, degree-then-degrevlex sorted,
    so index 0 is the monomial 1. The Groebner basis only builds the X_v
    of Presentation; the table is evaluated from them (Cox, Little & O'Shea,
    Using Algebraic Geometry, ch. 2 sec. 4).
    """
    variables = tuple(variables)
    if not relations:
        raise InfiniteDimensionError("no relations; quotient is the polynomial ring")
    p = relations[0].p
    linalg.check_modulus(p)
    for f in relations:
        if f.variables != variables or f.p != p:
            raise ValueError("relations live in different rings")
    gb = polyparse.buchberger(relations)
    monomials = polyparse.standard_monomial_basis(gb, variables)
    dim = len(monomials)
    if dim == 0:
        raise NotLocalError("relations generate the unit ideal")
    index = {m: i for i, m in enumerate(monomials)}
    n = len(variables)
    # column j of X_v holds the coordinates of v * m_j
    X = np.zeros((n, dim, dim), dtype=np.int64)
    for v in range(n):
        for j, m in enumerate(monomials):
            u = m[:v] + (m[v] + 1,) + m[v + 1 :]
            terms = {u: 1} if u in index else polyparse.normal_form(Polynomial(variables, p, {u: 1}), gb).terms
            for mono, c in terms.items():
                X[v, index[mono], j] = c
    # every variable must be nilpotent, else the quotient is not local:
    # X_v is nilpotent exactly when v^dim = X_v^dim e_0 vanishes
    unit_vectors = np.eye(dim, dtype=np.int64)
    nilpotency = []
    for v, name in enumerate(variables):
        w, t = unit_vectors[0], 0
        while w.any():
            if t == dim:
                raise NotLocalError(f"variable {name} is not nilpotent in the quotient")
            w, t = X[v] @ w % p, t + 1
        nilpotency.append(t)
    coordinates = dict(zip(monomials, unit_vectors))
    pres = Presentation(variables, p, tuple(relations), X, tuple(nilpotency), coordinates)
    # e_i e_j is the monomial m_i m_j: evaluate each distinct product once.
    # An exponent past its variable's nilpotency index t_v gives the same
    # zero as t_v itself, so capped at t_v the exponents are digits in radix
    # t_v + 1, and each product is one integer code
    exps = np.array(monomials, dtype=np.int64).reshape(dim, n)
    sums = np.minimum((exps[:, None] + exps[None]).reshape(dim * dim, n), nilpotency)
    codes = digit_codes(sums, [t + 1 for t in nilpotency])
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    coords = np.array([pres.monomial_vector(tuple(u)) for u in sums[first].tolist()])
    table = coords[inverse.reshape(dim, dim)]
    labels = [polyparse.monomial_label(m, variables) for m in monomials]
    return LocalAlgebra(p, table, labels, presentation=pres)


def idealization(S: LocalAlgebra, action: np.ndarray, labels: Optional[Sequence[str]] = None) -> LocalAlgebra:
    """Trivial extension S x N for an S-module given by its action tensor.

    `action` has shape (dim_S, n, n) with action[i] the matrix of e_i on N.
    The result has basis (S-basis, N-basis), N embedded as a square-zero
    ideal spanned by the trailing n coordinates.
    """
    action = np.mod(np.asarray(action, dtype=np.int64), S.p)
    n = action.shape[1]
    d = S.dim + n
    table = np.zeros((d, d, d), dtype=np.int64)
    table[: S.dim, : S.dim, : S.dim] = S.table
    # e_i * n_j = sum_k action[i, k, j] n_k, on either side
    mixed = action.transpose(0, 2, 1)
    table[: S.dim, S.dim :, S.dim :] = mixed
    table[S.dim :, : S.dim, S.dim :] = mixed.transpose(1, 0, 2)
    if labels is None:
        labels = [f"n{j}" for j in range(n)]
    return LocalAlgebra(S.p, table, list(S.labels) + list(labels))


def tensor_product(S: LocalAlgebra, T: LocalAlgebra) -> LocalAlgebra:
    """S tensor T over F_p, basis ordered lexicographically by (i, j)."""
    if S.p != T.p:
        raise ValueError("tensor factors must share the prime")
    ds, dt = S.dim, T.dim
    d = ds * dt
    # (e_i(x)f_j)(e_k(x)f_l) = (e_i e_k)(x)(f_j f_l)
    full = np.einsum("ikx,jly->ijklxy", S.table, T.table).reshape(d, d, d) % S.p
    labels = [
        f"{S.labels[i]}(x){T.labels[j]}" if i or j else "1"
        for i in range(ds)
        for j in range(dt)
    ]
    return LocalAlgebra(S.p, full, labels)


class QuotientRing(NamedTuple):
    """A/I as a LocalAlgebra plus the projection and a linear section."""

    algebra: LocalAlgebra
    proj: PrimeFieldMatrix  # dim(B) x dim(A)
    lift: PrimeFieldMatrix  # dim(A) x dim(B)
    ideal: IdealSubspace


def quotient_ring(A: LocalAlgebra, ideal: IdealSubspace) -> QuotientRing:
    """Quotient algebra A/I with canonical complement coordinates.

    The surviving coordinates are the non-pivot rows of the rref of I, so
    the unit coordinate always survives at index 0 for proper ideals.
    """
    if ideal.ambient is not A:
        raise ValueError("ideal does not live in this algebra")
    proj, lift, keep = linalg.complement_projection(ideal.basis)
    if 0 not in keep:
        raise ValueError("cannot form the quotient by the unit ideal")
    # the product of surviving basis elements e_i e_j is table[i, j], projected
    table = (A.table[keep][:, keep] @ proj.T) % A.p
    labels = [f"[{A.labels[c]}]" for c in keep]
    B = LocalAlgebra(A.p, table, labels)
    return QuotientRing(
        algebra=B,
        proj=PrimeFieldMatrix(proj, A.p),
        lift=PrimeFieldMatrix(lift, A.p),
        ideal=ideal,
    )
