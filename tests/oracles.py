"""Independent cross-check routines used by the tests.

Nothing here imports artloc. Quotient dimensions are computed by brute-force
truncation: dim R/(I + m^(D+1)) is the monomial count up to degree D minus
the rank of all truncated multiples of the generators, and the sequence of
those dimensions stabilizes exactly when it hits the true dimension (once
m^(D+1) lands inside I + m^(D+2), multiplying by m keeps it there).

Polynomials are plain dicts mapping exponent tuples to integer coefficients,
so the oracle never touches the package's parser either.
"""

from __future__ import annotations

import itertools

import numpy as np


def _rref_fp(rows, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p and its pivot columns, by
    straightforward Gauss-Jordan elimination."""
    a = np.array(rows, dtype=np.int64) % p
    pivots: list[int] = []
    if a.ndim != 2 or a.size == 0:
        return a, pivots
    for c in range(a.shape[1]):
        rank = len(pivots)
        below = np.nonzero(a[rank:, c])[0]
        if below.size == 0:
            continue
        piv = rank + int(below[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, c]), p - 2, p)) % p
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != rank]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, c], a[rank])) % p
        pivots.append(c)
        if len(pivots) == a.shape[0]:
            break
    return a, pivots


def rank_fp(rows, p: int) -> int:
    """Rank over F_p."""
    return len(_rref_fp(rows, p)[1])


def null_space_fp(rows, p: int, ncols: int) -> list[np.ndarray]:
    """Basis of {v : rows v = 0} in F_p^ncols, one free variable each."""
    a, pivots = _rref_fp(rows, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -a[r, f] % p
        basis.append(v)
    return basis


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=nvars):
            if sum(exps) == total:
                out.append(exps)
    return out


def _truncated_dim(gens, nvars: int, p: int, degree: int) -> int:
    mons = monomials_upto(nvars, degree)
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for shift in mons:
        for g in gens:
            row = [0] * len(mons)
            hit = False
            for mono, coeff in g.items():
                shifted = tuple(a + b for a, b in zip(mono, shift))
                if sum(shifted) <= degree:
                    row[index[shifted]] = (row[index[shifted]] + coeff) % p
                    hit = True
            if hit and any(row):
                rows.append(row)
    return len(mons) - rank_fp(rows, p)


def quotient_dim(gens, nvars: int, p: int, cap: int = 24):
    """dim F_p[x_1..x_nvars]/(gens), or None when the ideal is not
    m-primary up to the degree cap (the truncated dims keep growing)."""
    prev = None
    for degree in range(1, cap + 1):
        cur = _truncated_dim(gens, nvars, p, degree)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    return None


def dict_to_text(term_dict, variables) -> str:
    """Render an exponent-dict polynomial in the workbench's input grammar."""
    pieces = []
    for mono, coeff in term_dict.items():
        factors = "".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(variables, mono)
            if e
        )
        if not factors:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(factors)
        else:
            pieces.append(f"{coeff}{factors}")
    return " + ".join(pieces) if pieces else "0"


def _kron_constraints(M_action: np.ndarray, N_action: np.ndarray, p: int) -> np.ndarray:
    """The commuting constraints (A_i^T (x) I) - (I (x) B_i) on column-major
    vec(H), stacked over the non-unit basis elements."""
    dm, dn = M_action.shape[1], N_action.shape[1]
    blocks = [np.zeros((0, dm * dn), dtype=np.int64)]
    for i in range(1, M_action.shape[0]):
        left = np.kron(M_action[i].T, np.eye(dn, dtype=np.int64))
        right = np.kron(np.eye(dm, dtype=np.int64), N_action[i])
        blocks.append((left - right) % p)
    return np.vstack(blocks)


def hom_dim_kron(M_action: np.ndarray, N_action: np.ndarray, p: int) -> int:
    """dim Hom over the algebra by the textbook construction: stack the
    commuting constraints and take the nullity."""
    dm, dn = M_action.shape[1], N_action.shape[1]
    return dm * dn - rank_fp(_kron_constraints(M_action, N_action, p), p)


def hom_basis_kron(M_action: np.ndarray, N_action: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of Hom over the algebra as (dim N, dim M) matrices: the null
    space of the same constraints, read back from column-major vec(H)."""
    dm, dn = M_action.shape[1], N_action.shape[1]
    null = null_space_fp(_kron_constraints(M_action, N_action, p), p, dm * dn)
    return [v.reshape(dm, dn).T for v in null]


def is_isomorphic_brute(M_action: np.ndarray, N_action: np.ndarray, p: int) -> bool:
    """M = N iff some combination of a Hom basis has full rank; every one of
    the p^h combinations is tried, so keep h small."""
    n = M_action.shape[1]
    if N_action.shape[1] != n:
        return False
    basis = hom_basis_kron(M_action, N_action, p)
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        H = sum((c * B for c, B in zip(coeffs, basis)), np.zeros((n, n), dtype=np.int64))
        if rank_fp(H, p) == n:
            return True
    return False
