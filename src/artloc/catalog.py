"""Named example rings and the built-in verification corpus.

Each corpus entry recomputes one documented fact about the example rings
from scratch and compares against the frozen expected value, so a corpus
run certifies the whole pipeline end to end. Entries are keyed by stable
ids and run in id order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import (
    AlgebraClass,
    AlgebraInvariants,
    LocalAlgebra,
    from_presentation,
    idealization,
    quotient_ring,
    tensor_product,
)
from .diagnose import (
    VERDICT_HYPERSURFACE,
    VERDICT_PAIR,
    VERDICT_STRETCHED_GORENSTEIN,
    diagnose,
)
from .extensions import build_presentation_matrix, complement_ideal, filt_enumerate
from .modules import (
    base_change,
    betti_numbers,
    cyclic_module,
    matlis_dual,
    regular_module,
    residue_field,
    tor,
)
from .polyparse import parse_polynomial


def make_ring(variables: list[str], relation_texts: list[str], p: int) -> LocalAlgebra:
    relations = [parse_polynomial(t, variables, p) for t in relation_texts]
    return from_presentation(variables, relations)


def example1_ring(p: int = 2) -> LocalAlgebra:
    """Dim-6 Gorenstein ring k[x,y,z,w]/(x^2,xy,xz-yw,xw,y^2,yz,z^2,zw,w^2)."""
    return make_ring(
        ["x", "y", "z", "w"],
        ["x^2", "xy", "xz-yw", "xw", "y^2", "yz", "z^2", "zw", "w^2"],
        p,
    )


def stretched_ring(p: int = 3) -> LocalAlgebra:
    """Dim-6 stretched Gorenstein ring k[x,y,z]/(xy,xz,yz,x^3-y^2,x^3-z^2)."""
    return make_ring(["x", "y", "z"], ["xy", "xz", "yz", "x^3-y^2", "x^3-z^2"], p)


def pair_ring(p: int = 2) -> LocalAlgebra:
    """k[x,y]/(x^2,xy,y^2): the smallest ring with an orthogonal pair."""
    return make_ring(["x", "y"], ["x^2", "xy", "y^2"], p)


def dual_numbers(p: int = 2, var: str = "x") -> LocalAlgebra:
    return make_ring([var], [f"{var}^2"], p)


def hypersurface_ring(p: int, n: int) -> LocalAlgebra:
    return make_ring(["x"], [f"x^{n}"], p)


def complete_intersection_ring(p: int = 2, n: int = 2, m: int = 2) -> LocalAlgebra:
    return make_ring(["x", "y"], [f"x^{n}", f"y^{m}"], p)


def goto_ring(p: int = 2) -> LocalAlgebra:
    return make_ring(["x", "y"], ["x^3", "x^2y^2", "y^3"], p)


def invariants_payload(inv: AlgebraInvariants, cls: AlgebraClass) -> tuple[dict, dict]:
    """The report fields for invariants and for classification flags,
    shared by `analyze` and `diagnose`."""
    return inv._asdict(), {name.removeprefix("is_"): flag for name, flag in cls._asdict().items()}


def analyze_payload(A: LocalAlgebra) -> dict:
    """The `analyze` report body: invariants plus classification flags."""
    invariants, flags = invariants_payload(A.invariants(), A.classify())
    return {**invariants, "classify": flags, "basis": list(A.labels)}


class CorpusResult(NamedTuple):
    id: str
    description: str
    ok: bool
    expected: str
    got: str


def _check_parse_xz_minus_yw():
    f = parse_polynomial("xz-yw", ["x", "y", "z", "w"], 2)
    got = dict(f.terms)
    expected = {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}
    return got == expected, str(expected), str(got)


def _check_parse_cubic_minus_square():
    f = parse_polynomial("x^3-y^2", ["x", "y", "z"], 3)
    got = dict(f.terms)
    expected = {(3, 0, 0): 1, (0, 2, 0): 2}
    return got == expected, str(expected), str(got)


def _check_stretched_length_edim():
    inv = stretched_ring().invariants()
    got = (inv.length, inv.edim)
    return got == (6, 3), "(6, 3)", str(got)


def _check_stretched_profile():
    inv = stretched_ring().invariants()
    got = (inv.hilbert, inv.top_socle_degree >= 3)
    return got == ((1, 3, 1, 1), True), "((1, 3, 1, 1), m^3 != 0)", str(got)


def _check_stretched_classify():
    cls = stretched_ring().classify()
    got = (cls.is_gorenstein, cls.is_stretched, cls.is_hypersurface)
    return got == (True, True, False), "(True, True, False)", str(got)


def _check_example1_colon():
    A = example1_ring()
    x = A.element_from_string("x")
    ann = A.annihilator(x)
    target = A.ideal(
        [A.element_from_string("x"), A.element_from_string("y"), A.element_from_string("w")]
    )
    got = (ann == target, ann.dim)
    return got == (True, 4), "(0:x) = (x,y,w), dim 4", str(got)


def _check_stretched_socle_power():
    A = stretched_ring()
    m3 = A.maxideal_power(3)
    x3 = A.principal_ideal(A.element_from_string("x^3"))
    got = (m3 == x3, m3.dim)
    return got == (True, 1), "m^3 = (x^3), dim 1", str(got)


def _check_idealization_invariants():
    S = pair_ring()
    E = matlis_dual(regular_module(S))
    R = idealization(S, E.action)
    inv = R.invariants()
    cls = R.classify()
    got = (inv.length, inv.hilbert, cls.is_gorenstein)
    return got == (6, (1, 4, 1), True), "(6, (1, 4, 1), True)", str(got)


def _check_tensor_dual_numbers():
    T = tensor_product(dual_numbers(var="x"), dual_numbers(var="y"))
    direct = complete_intersection_ring()
    got = (T.invariants(), T.classify())
    expected = (direct.invariants(), direct.classify())
    return got == expected, str(expected), str(got)


def _check_betti_k_edim():
    results = []
    for A in (example1_ring(), stretched_ring()):
        b1 = betti_numbers(residue_field(A), 1)[1]
        results.append((b1, A.invariants().edim))
    ok = all(b == e for b, e in results)
    return ok, "beta_1(k) = edim on both rings", str(results)


def _check_example1_tor_xz():
    A = example1_ring()
    Mx = cyclic_module(A, A.principal_ideal(A.element_from_string("x")))
    Mz = cyclic_module(A, A.principal_ideal(A.element_from_string("z")))
    dim = tor(Mx, Mz, 1)
    return dim == 0, "0", str(dim)


def _check_example1_tor_xk():
    A = example1_ring()
    Mx = cyclic_module(A, A.principal_ideal(A.element_from_string("x")))
    dim = tor(Mx, residue_field(A), 1)
    b1 = betti_numbers(Mx, 1)[1]
    got = (dim, b1)
    return dim == b1 and dim > 0, "dim = beta_1(R/(x)) > 0", str(got)


def _check_ci_tor_xy():
    A = complete_intersection_ring()
    Mx = cyclic_module(A, A.principal_ideal(A.element_from_string("x")))
    My = cyclic_module(A, A.principal_ideal(A.element_from_string("y")))
    dim = tor(Mx, My, 1)
    return dim == 0, "0", str(dim)


def _check_matlis_rebuild():
    S = pair_ring()
    E = matlis_dual(regular_module(S))
    soc = E.socle_subspace().cols
    R = idealization(S, E.action)
    got = (E.dim, soc, R.classify().is_gorenstein)
    return got == (3, 1, True), "(3, 1, True)", str(got)


def _check_filt_base_change():
    A = pair_ring()
    x = A.element_from_string("x")
    I = complement_ideal(A, x)
    qr = quotient_ring(A, I)
    levels = filt_enumerate(A, x, 3)
    checked = []
    for level_nodes in levels:
        for node in level_nodes:
            N = base_change(node.module, qr)
            is_kn = N.dim == node.level and N.radical_subspace().cols == 0
            checked.append(is_kn)
    return all(checked), "M/IM = k^n for every node", str(checked)


def _check_filt_length_additive():
    results = []
    for A, xt in ((pair_ring(), "x"), (dual_numbers(), "x")):
        x = A.element_from_string(xt)
        levels = filt_enumerate(A, x, 3)
        X = levels[0][0].module
        for level_nodes in levels:
            for node in level_nodes:
                results.append(node.module.dim == node.level * X.dim)
    return all(results), "length n*l(X) at every level", str(results)


def _check_presentation_level1():
    A = pair_ring()
    x = A.element_from_string("x")
    node = filt_enumerate(A, x, 1)[0][0]
    pres = build_presentation_matrix(node)
    got = (pres.relations.rows, np.array_equal(pres.relations.entries[0, 0], x))
    return got == (1, True), "1x1 matrix (x)", str(got)


def _check_diagnose_hypersurface():
    rep = diagnose(hypersurface_ring(3, 4))
    return rep.verdict == VERDICT_HYPERSURFACE, VERDICT_HYPERSURFACE, rep.verdict


def _check_diagnose_stretched():
    A = stretched_ring()
    rep = diagnose(A, depth=2)
    pair_ok = rep.pair is not None and (
        A.render_element(rep.pair[0]),
        A.render_element(rep.pair[1]),
    ) == ("x", "y")
    ok = (
        rep.verdict == VERDICT_PAIR
        and pair_ok
        and VERDICT_STRETCHED_GORENSTEIN in rep.applicable
    )
    got = (rep.verdict, rep.applicable)
    return ok, f"{VERDICT_PAIR} with (x, y), stretched-Gorenstein also listed", str(got)


def _check_analyze_example1():
    payload = analyze_payload(example1_ring())
    ok = payload["classify"]["gorenstein"] is True and payload["length"] == 6
    return ok, "gorenstein=true, length 6", str(
        {"gorenstein": payload["classify"]["gorenstein"], "length": payload["length"]}
    )


CORPUS = [
    ("parse-xz-minus-yw", "xz-yw over (x,y,z,w), p=2, equals xz + yw", _check_parse_xz_minus_yw),
    ("parse-cubic-minus-square", "x^3-y^2 over (x,y,z), p=3, equals x^3 + 2y^2", _check_parse_cubic_minus_square),
    ("stretched-length-edim", "stretched ring has length 6 and edim 3", _check_stretched_length_edim),
    ("stretched-hilbert", "stretched ring has hilbert (1,3,1,1) and m^3 != 0", _check_stretched_profile),
    ("stretched-classify", "stretched ring is Gorenstein, stretched, not a hypersurface", _check_stretched_classify),
    ("example1-colon", "(0:x) = (x,y,w) of dim 4 in the dim-6 Gorenstein ring", _check_example1_colon),
    ("stretched-socle-power", "m^3 = (x^3) has dim 1 in the stretched ring", _check_stretched_socle_power),
    ("idealization-invariants", "idealization of the pair ring by its dual has length 6, hilbert (1,4,1), Gorenstein", _check_idealization_invariants),
    ("tensor-dual-numbers", "dual numbers tensor dual numbers matches k[x,y]/(x^2,y^2)", _check_tensor_dual_numbers),
    ("betti-k-edim", "beta_1(k) equals the embedding dimension", _check_betti_k_edim),
    ("example1-tor-xz", "Tor_1(R/(x), R/(z)) = 0 in the dim-6 Gorenstein ring", _check_example1_tor_xz),
    ("example1-tor-xk", "Tor_1(R/(x), k) = beta_1(R/(x)) > 0 there", _check_example1_tor_xk),
    ("ci-tor-xy", "Tor_1(R/(x), R/(y)) = 0 over k[x,y]/(x^2,y^2)", _check_ci_tor_xy),
    ("matlis-rebuild", "Matlis dual of the pair ring is the dim-3 hull with simple socle", _check_matlis_rebuild),
    ("filt-base-change", "every filt node base-changes to k^n modulo the complement ideal", _check_filt_base_change),
    ("filt-length-additive", "every level-n node has length n times the base length", _check_filt_length_additive),
    ("presentation-level1", "level-1 presentation is the 1x1 matrix (x)", _check_presentation_level1),
    ("diagnose-hypersurface", "F_3[x]/(x^4) gets the only-trivial verdict", _check_diagnose_hypersurface),
    ("diagnose-stretched", "stretched ring gets the orthogonal-pair verdict with (x, y)", _check_diagnose_stretched),
    ("analyze-example1", "analyze payload reports gorenstein=true for the dim-6 ring", _check_analyze_example1),
]


def run_corpus() -> list[CorpusResult]:
    out = []
    for id_, description, fn in sorted(CORPUS, key=lambda e: e[0]):
        try:
            ok, expected, got = fn()
        except Exception as exc:  # a crash is a failure, reported not raised
            ok, expected, got = False, "no exception", f"{type(exc).__name__}: {exc}"
        out.append(CorpusResult(id=id_, description=description, ok=ok, expected=expected, got=got))
    return out
