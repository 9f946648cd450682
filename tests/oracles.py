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


def kernel_basis_loop(rows, p: int, ncols: int) -> np.ndarray:
    """The (ncols, nullity) null-space basis read off the rref one entry at a
    time: free variables set to unit vectors in increasing column order."""
    a, pivots = _rref_fp(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for r, c in enumerate(pivots):
            basis[c, k] = (-a[r, f]) % p
    return basis


def null_space_fp(rows, p: int, ncols: int) -> list[np.ndarray]:
    """Basis of {v : rows v = 0} in F_p^ncols, one free variable each."""
    return list(kernel_basis_loop(rows, p, ncols).T)


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


def hilbert_function(gens, nvars: int, p: int, cap: int = 24):
    """(H(0), ..., H(s)) with H(i) = dim m^i/m^(i+1) of F_p[x_1..x_nvars]/(gens),
    from dim F_p[x]/(I + M^k) = sum_{i<k} H(i): differences of the truncated
    dims, up to the first H(i) = 0 (then m^i = m^(i+1), which is zero when I
    is m-primary). Homogeneity is never used. None when no H(i) vanishes up
    to the degree cap."""
    dims = [0]
    for degree in range(cap + 1):
        dims.append(_truncated_dim(gens, nvars, p, degree))
        if dims[-1] == dims[-2]:
            return tuple(b - a for a, b in zip(dims[:-2], dims[1:-1]))
    return None


def _span_basis(vectors, p: int, n: int) -> np.ndarray:
    """Canonical (n, rank) basis of the span: the nonzero rref rows, as columns."""
    if not len(vectors):
        return np.zeros((n, 0), dtype=np.int64)
    a, pivots = _rref_fp(vectors, p)
    return a[: len(pivots)].T


def maxideal_powers_loop(table, p: int) -> list[np.ndarray]:
    """Canonical bases of m^0, m^1, ... down to the first zero power, by the
    per-column chain: m^(k+1) is spanned by every u * e_j with u in the basis
    of m^k and j >= 1, one product at a time."""
    table = np.asarray(table, dtype=np.int64) % p
    d = table.shape[0]
    powers = [np.eye(d, dtype=np.int64)]
    m = [np.eye(d, dtype=np.int64)[j] for j in range(1, d)]
    powers.append(_span_basis(m, p, d))
    while powers[-1].shape[1]:
        prods = [np.tensordot(u, table[:, j], axes=(0, 0)) % p for u in powers[-1].T for j in range(1, d)]
        powers.append(_span_basis(prods, p, d))
    return powers


def socle_loop(table, p: int) -> np.ndarray:
    """Canonical basis of (0 : m): the common null space of multiplication by
    every e_j, j >= 1, as the nonzero rref rows of its kernel basis."""
    table = np.asarray(table, dtype=np.int64) % p
    d = table.shape[0]
    rows = [table[j, :, k] for j in range(1, d) for k in range(d)]
    if not rows:
        return np.eye(d, dtype=np.int64)
    return _span_basis(list(kernel_basis_loop(rows, p, d).T), p, d)


def orthogonal_pair_brute(table, gens, p: int):
    """First (x, y) = (gens a, gens b) with x y = 0 and rank [a; b] = 2, with
    a, then b, running over the base-p digits of 1..p^e - 1 (first digit
    least significant); None when there is none. One product at a time."""
    table = np.asarray(table, dtype=np.int64) % p
    gens = np.asarray(gens, dtype=np.int64) % p
    e = gens.shape[1]
    for na in range(1, p**e):
        a = np.array(base_p_digits(na, p, e), dtype=np.int64)
        x = gens @ a % p
        for nb in range(1, p**e):
            b = np.array(base_p_digits(nb, p, e), dtype=np.int64)
            if rank_fp([a, b], p) != 2:
                continue
            y = gens @ b % p
            if not np.any(np.tensordot(np.outer(x, y), table, axes=([0, 1], [0, 1])) % p):
                return x, y
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


def unit_in_span_brute(stack, p: int) -> bool:
    """Whether some combination of the (r, n, n) stack of matrices has rank
    n over F_p; every one of the p^r combinations is tried, so keep r small."""
    stack = np.asarray(stack, dtype=np.int64)
    n = stack.shape[1]
    for coeffs in itertools.product(range(p), repeat=stack.shape[0]):
        if rank_fp(np.tensordot(np.array(coeffs, dtype=np.int64), stack, axes=1), p) == n:
            return True
    return False


def is_isomorphic_brute(M_action: np.ndarray, N_action: np.ndarray, p: int) -> bool:
    """M = N iff some combination of a Hom basis has full rank; every one of
    the p^h combinations is tried, so keep h small."""
    n = M_action.shape[1]
    if N_action.shape[1] != n:
        return False
    basis = hom_basis_kron(M_action, N_action, p)
    return unit_in_span_brute(np.array(basis, dtype=np.int64).reshape(len(basis), n, n), p)


def top_map_basis(M_action: np.ndarray, N_action: np.ndarray, homs, p: int) -> np.ndarray:
    """An independent (r, mu(N), mu(M)) stack spanning the top maps
    M/mM -> N/mN of the homs (a Hom basis such as hom_basis_kron). mM is the
    span of every e_i w, i >= 1 (the non-unit basis elements span m); M/mM
    gets the basis vectors that greedy_picks keeps over mM, and N/mN the
    functionals vanishing on mN."""
    n, m = N_action.shape[1], M_action.shape[1]
    mM = span_of_products_loop(M_action[1:], np.eye(m, dtype=np.int64), p)
    mN = span_of_products_loop(N_action[1:], np.eye(n, dtype=np.int64), p)
    picks = greedy_picks(mM.T, np.eye(m, dtype=np.int64), p)
    funcs = np.array(null_space_fp(mN.T, p, n), dtype=np.int64).reshape(-1, n)
    tops = [((funcs @ h[:, picks]) % p).ravel() for h in homs]
    rows, pivots = _rref_fp(tops, p) if tops else (None, [])
    return np.array(rows[: len(pivots)], dtype=np.int64).reshape(len(pivots), len(funcs), len(picks))


def is_isomorphic_top_brute(M_action: np.ndarray, N_action: np.ndarray, p: int, homs=None) -> bool:
    """is_isomorphic_brute over the top maps only: by Nakayama a hom between
    modules of equal dimension is invertible iff its top map is, so M = N
    iff mu(M) = mu(N) and some combination of top_map_basis has full rank;
    every one of its p^r combinations is tried, r <= mu(M) mu(N). homs is a
    Hom basis when the caller has one (default hom_basis_kron)."""
    if N_action.shape[1] != M_action.shape[1]:
        return False
    if homs is None:
        homs = hom_basis_kron(M_action, N_action, p)
    tops = top_map_basis(M_action, N_action, homs, p)
    return tops.shape[1] == tops.shape[2] and unit_in_span_brute(tops, p)


def greedy_picks(span_vectors, candidates, p: int) -> list[int]:
    """Indices of the candidates a per-vector greedy scan keeps: each kept
    one raises the rank of the span vectors plus the candidates kept so far."""
    basis = [list(v) for v in span_vectors]
    picks = []
    for j, v in enumerate(candidates):
        if rank_fp(basis + [list(v)], p) > rank_fp(basis, p):
            picks.append(j)
            basis.append(list(v))
    return picks


def base_p_digits(n: int, p: int, width: int) -> list[int]:
    """Little-endian base-p digits of n, truncated to width."""
    return [(n // p**i) % p for i in range(width)]


def monic_rows_brute(p: int, width: int) -> list[list[int]]:
    """Zero, then every base-p digit row (little-endian) whose last nonzero
    digit is 1, in increasing order: all p^width rows, filtered."""
    rows = [base_p_digits(n, p, width) for n in range(p**width)]
    return [r for r in rows if [c for c in r if c][-1:] in ([], [1])]


def orbit_closure_minima(acts, p: int, width: int) -> list[tuple[int, ...]]:
    """Least member (as a little-endian base-p integer) of every orbit on
    F_p^width of the group generated by the (width, width) matrices acts,
    acting by v -> g v, and the unit scalars: every vector, in increasing
    order, starts a plain graph search unless an earlier orbit holds it."""
    gens = [np.asarray(g, dtype=np.int64).tolist() for g in acts]
    seen, minima = set(), []
    for n in range(p**width):
        start = tuple(base_p_digits(n, p, width))
        if start in seen:
            continue
        minima.append(start)
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            images = [tuple(c * u % p for c in v) for u in range(1, p)]
            images += [tuple(sum(a * c for a, c in zip(row, v)) % p for row in g) for g in gens]
            for image in images:
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return minima


def bounded_betti_brute(table, p: int):
    """First x = (0, digits of n), n = 1..p^(d-1) - 1 (first non-unit basis
    vector least significant), outside m^2 with (0:x) = (x); None when there
    is none. Every tuple is tried; subspaces are compared by rank."""
    table = np.asarray(table, dtype=np.int64) % p
    d = table.shape[0]
    m2 = [table[i, j] for i in range(1, d) for j in range(1, d)]
    m2_rank = rank_fp(m2, p)
    for n in range(1, p ** (d - 1)):
        x = np.array([0] + base_p_digits(n, p, d - 1), dtype=np.int64)
        if rank_fp(m2 + [x], p) == m2_rank:
            continue
        times_x = np.tensordot(x, table, axes=(0, 0)) % p  # row j is x e_j
        principal = list(times_x)
        ann = null_space_fp(times_x.T, p, d)
        if rank_fp(principal, p) == len(ann) == rank_fp(principal + ann, p):
            return x
    return None


def project_by_pivots(span_vectors, p: int, n: int) -> tuple[np.ndarray, list[int]]:
    """(proj, keep) for F_p^n -> F_p^n / span: keep is the non-pivot
    coordinates of the rref of the span vectors, and each unit vector is
    reduced against the rref rows one pivot at a time."""
    a, pivots = _rref_fp(span_vectors, p)
    keep = [i for i in range(n) if i not in pivots]
    cols = []
    for i in range(n):
        v = np.zeros(n, dtype=np.int64)
        v[i] = 1
        for r, c in enumerate(pivots):
            v = (v - v[c] * a[r]) % p
        cols.append(v[keep])
    return np.array(cols, dtype=np.int64).reshape(n, len(keep)).T, keep


def module_axioms_hold(table, action, p: int) -> bool:
    """Whether action[i] (the matrix of basis element e_i) is a module over
    the algebra with structure constants table: e_0 acts as the identity and
    action[i] @ action[j] == sum_k table[i, j, k] action[k] for every i, j."""
    table = np.asarray(table, dtype=np.int64) % p
    action = np.asarray(action, dtype=np.int64) % p
    d, n = table.shape[0], action.shape[1]
    if action.shape != (d, n, n) or not np.array_equal(action[0], np.eye(n, dtype=np.int64)):
        return False
    for i in range(d):
        for j in range(d):
            rhs = np.zeros((n, n), dtype=np.int64)
            for k in range(d):
                rhs = (rhs + table[i, j, k] * action[k]) % p
            if not np.array_equal((action[i] @ action[j]) % p, rhs):
                return False
    return True


def commutes_with_action(source_action, target_action, matrix, p: int) -> bool:
    """Whether matrix (target x source) intertwines the two actions."""
    for a, b in zip(np.asarray(source_action), np.asarray(target_action)):
        if np.any((b @ matrix - matrix @ a) % p):
            return False
    return True


def tensor_table(s_table, t_table, p: int) -> np.ndarray:
    """Structure constants of S (x) T over F_p on the basis e_i (x) f_j,
    ordered lexicographically by (i, j), one product at a time."""
    ds, dt = s_table.shape[0], t_table.shape[0]
    d = ds * dt
    out = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k, l in itertools.product(range(ds), range(dt), range(ds), range(dt)):
        for x, y in itertools.product(range(ds), range(dt)):
            out[i * dt + j, k * dt + l, x * dt + y] = s_table[i, k, x] * t_table[j, l, y] % p
    return out


def idealization_table(s_table, action, p: int) -> np.ndarray:
    """Structure constants of S x N on the basis (S-basis, N-basis): S acts
    on N through action[i] from either side, and N * N = 0."""
    ds, n = s_table.shape[0], action.shape[1]
    out = np.zeros((ds + n, ds + n, ds + n), dtype=np.int64)
    out[:ds, :ds, :ds] = s_table
    for i, j, k in itertools.product(range(ds), range(n), range(n)):
        out[i, ds + j, ds + k] = out[ds + j, i, ds + k] = action[i, k, j] % p
    return out


def cover_columns(action, imgs, p: int) -> np.ndarray:
    """Columns e_j * imgs[g], g major and j minor, one product at a time."""
    n = action.shape[1]
    cols = [(action[j] @ g) % p for g in np.asarray(imgs) for j in range(action.shape[0])]
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0), dtype=np.int64)


def span_of_products_loop(mats, W, p: int) -> np.ndarray:
    """Canonical basis of the span of every g w, each g of the (k, n, n) stack
    acting on every n-row block of each column w of W, one block at a time."""
    mats = np.asarray(mats, dtype=np.int64) % p
    W = np.asarray(W, dtype=np.int64) % p
    n, rows = mats.shape[1], W.shape[0]
    vectors = []
    for g in mats:
        for w in W.T:
            blocks = [(g @ w[s : s + n]) % p for s in range(0, rows, n)] if rows else [w]
            vectors.append(np.concatenate(blocks))
    return _span_basis(vectors, p, rows)


def iso_profile_loop(action, gens, p: int) -> tuple:
    """(dim M, dim mM, rank of the action of each basis element of m) of a
    module, one module at a time: dim mM is the dimension of the span of
    the g M over the generator actions g = action[gens]."""
    action = np.asarray(action, dtype=np.int64) % p
    n = action.shape[1]
    prods = [action[g] for g in gens]
    rad = _span_basis(np.hstack(prods).T if prods else [], p, n).shape[1]
    return n, rad, tuple(rank_fp(action[i], p) if n else 0 for i in range(1, action.shape[0]))


def free_action(mult, rank: int) -> np.ndarray:
    """Action on A^rank: one Kronecker product per basis element of A."""
    eye = np.eye(rank, dtype=np.int64)
    return np.stack([np.kron(eye, m) for m in mult])


def orbit_minima_brute(y_action, end_basis, reps, d1_entries, p: int) -> list[tuple[int, ...]]:
    """Least member (as a little-endian base-p integer) of every orbit on
    Ext^1(X, Y) = Z^1 / B^1 of the group generated by the unit scalars and
    by every g and every 1 + g of rank dim Y, g in end_basis, acting by
    xi -> [g phi_xi]. reps[t] is the (dim Y, b1) matrix of the t-th basis
    cocycle and d1_entries the (b0, b1, dim A) first differential of X.

    Classes are compared directly: each cocycle matrix is reduced against
    the rref of the coboundaries f d1 (f sending one generator of F_0 to one
    basis vector of Y), a reduced cocycle is looked up among all p^e
    coordinate vectors, and orbits are closed by a plain graph search."""
    y_action = np.asarray(y_action, dtype=np.int64) % p
    reps = np.asarray(reps, dtype=np.int64) % p
    e, n, b1 = reps.shape
    eye = np.eye(n, dtype=np.int64)
    gens = [h for B in end_basis for h in (np.asarray(B) % p, (eye + B) % p) if rank_fp(h, p) == n]
    cobounds = []
    for row in np.asarray(d1_entries, dtype=np.int64):
        acts = [np.tensordot(entry, y_action, axes=(0, 0)) % p for entry in row]
        for u in eye:
            cobounds.append(np.stack([a @ u % p for a in acts], axis=1).reshape(-1))
    a, pivots = _rref_fp(cobounds, p) if cobounds else (np.zeros((0, n * b1)), [])

    def reduced(phi) -> tuple[int, ...]:
        v = np.asarray(phi, dtype=np.int64).reshape(-1) % p
        for r, c in enumerate(pivots):
            v = (v - v[c] * a[r]) % p
        return tuple(v.tolist())

    vectors = list(itertools.product(range(p), repeat=e))
    cocycle = {xi: sum((c * R for c, R in zip(xi, reps)), np.zeros((n, b1), dtype=np.int64)) for xi in vectors}
    lookup = {reduced(phi): xi for xi, phi in cocycle.items()}
    value = lambda xi: sum(c * p**i for i, c in enumerate(xi))
    seen, minima = set(), []
    for start in vectors:
        if start in seen:
            continue
        orbit, stack = {start}, [start]
        while stack:
            xi = stack.pop()
            images = [tuple(c * lam % p for c in xi) for lam in range(1, p)]
            images += [lookup[reduced(g @ cocycle[xi])] for g in gens]
            for image in images:
                if image not in orbit:
                    orbit.add(image)
                    stack.append(image)
        seen |= orbit
        minima.append(min(orbit, key=value))
    return sorted(minima, key=value)



def pencil_jordan_type(gen_actions, p: int):
    """The Jordan type (block sizes, largest first) of u^-1 v on M/mM, for a
    module M over k[x, y]/(x, y)^2 given by the matrices of its two
    generators, where u and v are the maps M/mM -> mM they induce and u is
    the invertible one; None when neither is invertible or u^-1 v is not
    nilpotent.

    Since m^2 = 0, both matrices kill mM, the span of their columns, so the
    maps only see a complement T of mM (unit vectors, picked greedily).
    N = u^-1 v solves (u T) N = v T and is read off the rref of [u T | v T].
    The number of blocks of size at least k is rank N^(k-1) - rank N^k."""
    a, b = (np.asarray(g, dtype=np.int64) % p for g in gen_actions)
    d = a.shape[0]
    radical = np.hstack([a, b]).T  # its rows span mM
    r = rank_fp(radical, p)
    unit = np.eye(d, dtype=np.int64)
    picks: list[int] = []
    for j in range(d):
        if rank_fp(np.vstack([radical, unit[picks + [j]]]), p) == r + len(picks) + 1:
            picks.append(j)
    T, t = unit[:, picks], len(picks)
    for u, v in ((a, b), (b, a)):
        if t == r and rank_fp((u @ T % p).T, p) == t:
            N = _rref_fp(np.hstack([u @ T, v @ T]) % p, p)[0][:t, t:]
            break
    else:
        return None
    ranks, power = [t], np.eye(t, dtype=np.int64)
    for _ in range(t):
        power = power @ N % p
        ranks.append(rank_fp(power, p))
    if ranks[-1]:
        return None
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, t + 1)] + [0]
    return tuple(k for k in range(t, 0, -1) for _ in range(at_least[k - 1] - at_least[k]))
