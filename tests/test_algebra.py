from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artloc.algebra import (
    EdimTooSmallError,
    LocalAlgebra,
    NotLocalError,
    check_axioms,
    digit_codes,
    from_presentation,
    idealization,
    quotient_ring,
    tensor_product,
)
from artloc import catalog
from artloc.catalog import dual_numbers, make_ring
from artloc.cli import load_ring
from artloc.diagnose import diagnose, goto_check
from artloc.extensions import complement_ideal
from artloc.modules import matlis_dual, regular_module
from artloc import polyparse
from artloc.polyparse import InfiniteDimensionError, Polynomial, parse_polynomial

from oracles import (
    hom_dim_kron,
    idealization_table,
    maxideal_powers_loop,
    orthogonal_pair_brute,
    quotient_dim,
    socle_loop,
    span_of_products_loop,
    tensor_table,
)

RINGS = Path(__file__).resolve().parent.parent / "rings"


def test_example1_invariants(example1):
    inv = example1.invariants()
    assert inv.length == 6
    assert inv.edim == 4
    assert inv.hilbert == (1, 4, 1)
    assert inv.socle_dim == 1
    assert inv.top_socle_degree == 2
    assert example1.labels == ("1", "x", "y", "z", "w", "yw")


def test_example1_classification(example1):
    cls = example1.classify()
    assert not cls.is_field
    assert not cls.is_hypersurface
    assert cls.is_gorenstein
    # length - edim = 2 and m^2 != 0, so the ring counts as stretched
    assert cls.is_stretched


def test_example1_multiplication_table(example1):
    x = example1.element_from_string("x")
    z = example1.element_from_string("z")
    yw = example1.element_from_string("yw")
    assert (example1.mult(x, z) == yw).all()
    assert not example1.mult(z, z).any()
    assert not example1.mult(x, yw).any()


def test_example1_annihilator_is_x_y_w(example1):
    x = example1.element_from_string("x")
    want = example1.ideal(
        [x, example1.element_from_string("y"), example1.element_from_string("w")]
    )
    assert example1.annihilator(x) == want
    assert want.dim == 4


def test_example1_socle_is_spanned_by_yw(example1):
    soc = example1.socle()
    assert soc.dim == 1
    assert soc.contains(example1.element_from_string("yw"))


def test_colon_ideal_by_ideal(example1):
    x = example1.element_from_string("x")
    m = example1.maxideal()
    # (0 : m) computed through colon agrees with the socle
    assert example1.colon(example1.zero_ideal(), m) == example1.socle()
    assert example1.colon(example1.principal_ideal(x), x).contains(example1.unit())


def test_maxideal_powers_chain(example1):
    powers = example1.maxideal_powers()
    assert [pw.dim for pw in powers] == [6, 5, 1, 0]
    assert powers[2].contains(example1.element_from_string("yw"))


def test_ideal_operations(example1):
    x = example1.element_from_string("x")
    y = example1.element_from_string("y")
    ix, iy = example1.principal_ideal(x), example1.principal_ideal(y)
    assert ix.dim == 2  # x and xz = yw
    assert iy.dim == 2  # y and yw
    assert ix.sum(iy).dim == 3
    assert ix.intersection(iy).dim == 1
    assert ix.product(iy).is_zero()
    assert ix.power(2).is_zero()


def test_stretched_ring_profile(stretched):
    inv = stretched.invariants()
    assert inv.length == 6
    assert inv.edim == 3
    assert inv.hilbert == (1, 3, 1, 1)
    assert inv.socle_dim == 1
    cls = stretched.classify()
    assert cls.is_gorenstein and cls.is_stretched
    x = stretched.element_from_string("x")
    cube = stretched.element_power(x, 3)
    assert (cube == stretched.element_from_string("y^2")).all()
    assert (cube == stretched.element_from_string("z^2")).all()


def test_orthogonal_pair_search(example1, pair, ci, dual):
    for A in (example1, pair):
        found = A.find_orthogonal_generator_pair()
        assert found is not None
        x, y = found
        assert not A.mult(x, y).any()
        assert not A.maxideal().power(2).contains(x)
        assert not A.maxideal().power(2).contains(y)
    assert ci.find_orthogonal_generator_pair() is None
    with pytest.raises(EdimTooSmallError):
        dual.find_orthogonal_generator_pair()


def _all_monomials(variables, degree):
    return ["".join(m) for m in itertools.combinations_with_replacement(variables, degree)]


def test_orthogonal_pair_search_matches_the_brute_scan(example1, pair, stretched, ci, goto, inconclusive_ring):
    rings = [example1, pair, stretched, ci, goto, inconclusive_ring, catalog.pair_ring(5),
             catalog.pair_ring(7), catalog.example1_ring(3), catalog.complete_intersection_ring(3, 2, 3),
             make_ring(["x", "y"], ["x^2", "y^2"], 5), make_ring(["x", "y", "z"], ["x^2", "y^2", "z^2", "yz"], 3),
             make_ring(["x", "y"], ["x^2-y^2", "x^3"], 5),  # first pair (x + y, x - y)
             catalog.pair_ring(31),  # kernel of dimension 2: y skips the line of x
             make_ring(["x", "y"], ["x^2", "y^3"], 3),  # kernel is the line of x: x is rejected
             make_ring(list("xyz"), _all_monomials("xyz", 3), 3),  # m^3 = 0: no pair
             make_ring(list("xyz"), _all_monomials("xyz", 3), 5)]
    for A in rings:
        want = orthogonal_pair_brute(A.table, A.generator_set.array, A.p)
        got = A.find_orthogonal_generator_pair()
        if want is None:
            assert got is None, A
        else:
            assert got is not None and all(np.array_equal(g, w) for g, w in zip(got, want)), A


def test_orthogonal_pair_search_at_the_largest_modulus():
    """At p = 65521, where p^4 overflows int64, all of m^2 vanishing makes
    the first two generators the first pair."""
    A = make_ring(list("abcd"), _all_monomials("abcd", 2), 65521)
    x, y = A.find_orthogonal_generator_pair()
    assert np.array_equal(x, A.element_from_string("a")) and np.array_equal(y, A.element_from_string("b"))


def test_orthogonal_pair_search_is_empty_when_only_m_cubed_vanishes():
    """A product of two independent linear forms is a nonzero quadric, and
    m^3 = 0 leaves degree 2 alone: no pair among the 3,907 lines at p = 5."""
    assert make_ring(list("abcdef"), _all_monomials("abcdef", 3), 5).find_orthogonal_generator_pair() is None


def test_check_axioms_accepts_corpus_rings(example1, stretched, pair):
    for A in (example1, stretched, pair):
        assert check_axioms(A) == []


def test_check_axioms_accepts_every_ring_file():
    paths = sorted(RINGS.glob("*.ring"))
    assert len(paths) == 7
    for path in paths:
        assert check_axioms(load_ring(str(path)).algebra) == [], path.name


def test_check_axioms_accepts_every_constructed_ring():
    pair = catalog.pair_ring()
    x = pair.element_from_string("x")
    rings = [
        catalog.example1_ring(), catalog.example1_ring(3), catalog.stretched_ring(),
        catalog.stretched_ring(5), pair, catalog.dual_numbers(3, "t"),
        catalog.hypersurface_ring(3, 4), catalog.complete_intersection_ring(3, 2, 3),
        catalog.goto_ring(), idealization(pair, matlis_dual(regular_module(pair)).action),
        tensor_product(dual_numbers(var="x"), dual_numbers(var="y")),
        tensor_product(pair, catalog.hypersurface_ring(2, 3)),
        quotient_ring(pair, complement_ideal(pair, x)).algebra,
        quotient_ring(pair, pair.principal_ideal(x)).algebra,
    ]
    for A in rings:
        assert check_axioms(A) == [], A


def test_table_constructors_match_loop_oracles(pair, stretched):
    for S, T in ((pair, catalog.goto_ring()), (stretched, dual_numbers(3)), (dual_numbers(2), pair)):
        assert tensor_product(S, T).table.tobytes() == tensor_table(S.table, T.table, S.p).tobytes()
    for S in (pair, stretched):
        for N in (matlis_dual(regular_module(S)), regular_module(S)):
            got = idealization(S, N.action).table
            assert got.tobytes() == idealization_table(S.table, N.action, S.p).tobytes()


def test_check_axioms_flags_tampered_table(pair):
    table = pair.table.copy()
    table[1, 2] = pair.basis_vector(0)  # make x*y a unit: breaks ideal closure
    bad = LocalAlgebra(pair.p, table, pair.labels)
    problems = check_axioms(bad)
    assert problems
    assert any("e_1" in msg or "span" in msg for msg in problems)


def _table_algebra(p: int, products: dict) -> LocalAlgebra:
    """Algebra on e_0..e_(d-1) with unit e_0 and e_i e_j = products[(i, j)]
    (a coordinate vector, zero when absent), made commutative."""
    d = len(next(iter(products.values())))
    table = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        table[0, i, i] = table[i, 0, i] = 1
    for (i, j), v in products.items():
        table[i, j] = table[j, i] = v
    return LocalAlgebra(p, table, [f"e{i}" for i in range(d)])


non_nilpotent_tables = pytest.mark.parametrize(
    "products",
    [
        {(1, 1): [0, 1]},  # e_1 idempotent: m = m^2 has no minimal generators
        {(1, 1): [0, 1, 0]},  # e_1 idempotent beside e_2 with e_2^2 = 0: g m = 0 != m^2
        {(1, 1): [0, 0, 1], (1, 2): [0, 0, 1], (2, 2): [0, 0, 1]},  # F_2[x]/(x^2 - x^3)
    ],
    ids=["idempotent", "idempotent-plus-square-zero", "x2-equals-x3"],
)


@non_nilpotent_tables
def test_check_axioms_flags_non_nilpotent_maximal_ideal(products):
    bad = _table_algebra(2, products)
    assert check_axioms(bad) == ["maximal ideal is not nilpotent"]


@non_nilpotent_tables
def test_invariants_reject_a_non_nilpotent_maximal_ideal(products):
    """The powers of m raise instead of returning wrong invariants or
    never reaching a zero power."""
    bad = _table_algebra(2, products)
    with pytest.raises(NotLocalError, match="not nilpotent"):
        bad.invariants()
    with pytest.raises(NotLocalError):
        bad.classify()


def test_ideal_and_product_match_the_product_loop(pair, stretched, example1):
    """A.ideal and IdealSubspace.product give the canonical span of the
    products one at a time: every e_j g, and every u v over two bases."""
    rng = np.random.default_rng(7)
    for A in (pair, stretched, example1, catalog.goto_ring(65521)):
        p, d = A.p, A.dim
        mults = A.table.transpose(0, 2, 1)  # mults[j] multiplies by e_j
        for count in (0, 1, 3):
            gens = rng.integers(0, p, size=(count, d))
            gens[:, 0] = 0
            got = A.ideal(list(gens))
            want = span_of_products_loop(mults, gens.T, p)
            assert got.basis.shape == want.shape and got.basis.array.tobytes() == want.tobytes(), A
        ideals = [A.zero_ideal(), A.maxideal(), A.maxideal_power(2), A.ideal([gens[0]])]
        for I in ideals:
            for J in ideals:
                u_mults = np.einsum("iu,ijl->ulj", I.basis.array, A.table) % p
                want = span_of_products_loop(u_mults, J.basis.array, p)
                got = I.product(J).basis
                assert got.shape == want.shape and got.array.tobytes() == want.tobytes(), A


def test_invariants_never_build_the_full_multiplication_stack(monkeypatch):
    """invariants() and classify() on a length-64 ring act through table
    slices for the minimal generators only, never through the (64, 64, 64)
    stack of mult_matrices()."""
    calls = []
    original = LocalAlgebra.mult_matrices

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LocalAlgebra, "mult_matrices", spy)
    A = load_ring(str(RINGS.parent / "perfbench" / "rings" / "monomial64.ring")).algebra
    assert A.dim == 64
    A.invariants()
    A.classify()
    assert calls == []


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**31 - 1), st.integers(0, 50), st.lists(st.integers(1, 2**40), max_size=8))
@example(0, 30, [2**40] * 8)  # past 2^62 twice: the codes are re-ranked
@example(1, 0, [3, 5])
@example(2, 9, [])
def test_digit_codes_order_rows_as_a_row_sort(seed, rows, radices):
    """Equal rows get equal codes and the codes rank the rows as
    np.unique(..., axis=0) does, also where the mixed-radix number would
    overflow int64."""
    rng = np.random.default_rng(seed)
    digits = np.zeros((rows, len(radices)), dtype=np.int64)
    for v, radix in enumerate(radices):
        digits[:, v] = rng.integers(0, min(radix, 3), size=rows) * (radix // min(radix, 3))
    codes = digit_codes(digits, radices)
    want = np.unique(digits, axis=0, return_index=True, return_inverse=True)[2].reshape(-1)
    got = np.unique(codes, return_index=True, return_inverse=True)[2]
    assert got.tolist() == want.tolist()


def test_product_codes_give_the_row_sorted_tables():
    """from_presentation keys each product exponent by one code; its tables
    equal those of a row sort of the exponents on every ring file and on
    F_2[x,y]/(x^12,y^12)."""
    paths = sorted(RINGS.glob("*.ring")) + [RINGS.parent / "perfbench" / "rings" / "monomial64.ring"]
    algebras = [load_ring(str(path)).algebra for path in paths] + [make_ring(["x", "y"], ["x^12", "y^12"], 2)]
    for A in algebras:
        pres = A.presentation
        gb = polyparse.buchberger(list(pres.relations))
        exps = np.array(polyparse.standard_monomial_basis(gb, pres.variables))
        n, dim = len(pres.variables), A.dim
        sums = (exps[:, None] + exps[None]).reshape(dim * dim, n)
        products, inverse = np.unique(sums, axis=0, return_index=True, return_inverse=True)[::2]
        coords = np.array([pres.monomial_vector(tuple(u)) for u in products.tolist()])
        assert coords[inverse.reshape(dim, dim)].tobytes() == A.table.tobytes()


def test_normal_forms_only_build_the_variable_matrices(monkeypatch):
    """Past buchberger, from_presentation reduces at most one monomial
    v * m_j per variable v and standard monomial m_j; element_from_string,
    goto_check and diagnose reduce none."""
    paths = sorted(RINGS.glob("*.ring")) + [RINGS.parent / "perfbench" / "rings" / "monomial64.ring"]
    rings = [load_ring(str(path)).algebra.presentation for path in paths]
    rings.append(make_ring(["x", "y"], ["x - y^2", "y^7"], 3).presentation)  # x is not standard
    calls = []
    original = polyparse.normal_form

    def spy(f, basis):
        calls.append(f)
        return original(f, basis)

    for pres in rings:
        gb = polyparse.buchberger(list(pres.relations))
        monkeypatch.setattr(polyparse, "buchberger", lambda relations: gb)
        monkeypatch.setattr(polyparse, "normal_form", spy)
        calls.clear()
        A = from_presentation(pres.variables, list(pres.relations))
        assert 0 < len(calls) <= len(pres.variables) * A.dim, pres.variables
        calls.clear()
        for v in pres.variables:
            A.element_from_string(f"1 + {v}^3 + 2{v}^1048576 + {''.join(pres.variables)}")
        goto_check(A, A.presentation)
        if A.dim <= 8:  # scan_bounded_betti walks p^(d-1) tuples
            diagnose(A, depth=1)
        assert calls == []
        monkeypatch.undo()


def _non_monomial_rings(pair, stretched, example1):
    """Tensor products, idealizations and quotients, whose bases are not
    standard monomials of a presentation."""
    x1 = example1.element_from_string("x")
    return [
        tensor_product(pair, catalog.hypersurface_ring(2, 3)),
        tensor_product(dual_numbers(3, "x"), stretched),
        idealization(pair, matlis_dual(regular_module(pair)).action),
        idealization(stretched, regular_module(stretched).action),
        quotient_ring(example1, example1.principal_ideal(x1 + example1.element_from_string("y"))).algebra,
        quotient_ring(stretched, stretched.principal_ideal(stretched.element_from_string("x - y"))).algebra,
        quotient_ring(pair, complement_ideal(pair, pair.element_from_string("x"))).algebra,
    ]


def test_maxideal_powers_and_socle_match_the_per_column_chain(pair, stretched, example1):
    """The generator products give the same canonical bases, byte for byte,
    as multiplying by every basis vector of m."""
    for A in _non_monomial_rings(pair, stretched, example1):
        want = maxideal_powers_loop(A.table, A.p)
        got = A.maxideal_powers()
        assert len(got) == len(want), A
        for k, (ideal, basis) in enumerate(zip(got, want)):
            assert ideal.basis.shape == basis.shape and ideal.basis.array.tobytes() == basis.tobytes(), (A, k)
            assert A.maxideal_power(k) is ideal
            assert A.maxideal().power(k) == ideal
        assert A.maxideal_power(len(got)).is_zero()
        soc = socle_loop(A.table, A.p)
        assert A.socle().basis.shape == soc.shape and A.socle().basis.array.tobytes() == soc.tobytes(), A
        assert check_axioms(A) == [], A


def test_long_monomial_ring_invariants():
    """F_2[x,y]/(x^12, y^12): length 144, Hilbert function 1, 2, ..., 12, ..., 2, 1."""
    A = make_ring(["x", "y"], ["x^12", "y^12"], 2)
    inv = A.invariants()
    assert inv.length == 144
    assert inv.hilbert == tuple(range(1, 13)) + tuple(range(11, 0, -1))
    assert inv.edim == 2
    assert inv.socle_dim == 1


def test_from_presentation_rejects_non_primary_ideals():
    rels = [parse_polynomial("x^2", ("x", "y"), 2)]
    with pytest.raises((InfiniteDimensionError, NotLocalError)):
        from_presentation(("x", "y"), rels)


def test_from_presentation_rejects_bad_moduli():
    for p in (4, 65537):
        with pytest.raises(ValueError):
            from_presentation(("x",), [Polynomial(("x",), p, {(2,): 1})])


def test_from_presentation_rejects_unit_ideal():
    rels = [parse_polynomial("x+1", ("x",), 2), parse_polynomial("x^2", ("x",), 2)]
    with pytest.raises(NotLocalError):
        from_presentation(("x",), rels)


def test_element_from_string_respects_relations(example1):
    v = example1.element_from_string("xz + x")
    assert (v == (example1.element_from_string("yw") + example1.element_from_string("x")) % 2).all()
    assert example1.render_element(v) == "x + yw"
    assert example1.render_element(example1.zero()) == "0"


def test_render_element_with_coefficients(stretched):
    v = stretched.element_from_string("2x + z^2")
    assert stretched.render_element(v) == "2x + z^2"


def test_idealization_of_injective_hull(pair):
    hull = matlis_dual(regular_module(pair))
    A = idealization(pair, hull.action)
    inv = A.invariants()
    assert inv.length == 6
    assert inv.hilbert == (1, 4, 1)
    assert A.classify().is_gorenstein
    assert check_axioms(A) == []


def test_tensor_product_of_dual_numbers(ci):
    T = tensor_product(dual_numbers(2, "x"), dual_numbers(2, "y"))
    assert check_axioms(T) == []
    assert T.invariants() == ci.invariants()
    assert T.classify() == ci.classify()


def test_tensor_product_requires_matching_prime():
    with pytest.raises(ValueError):
        tensor_product(dual_numbers(2), dual_numbers(3))


def test_quotient_ring_of_example1(example1):
    x = example1.element_from_string("x")
    qr = quotient_ring(example1, example1.principal_ideal(x))
    assert qr.algebra.dim == 4
    assert qr.algebra.labels == ("[1]", "[y]", "[z]", "[w]")
    assert check_axioms(qr.algebra) == []
    # projection then lift is the identity on the quotient
    assert ((qr.proj.array @ qr.lift.array) % 2 == np.eye(4, dtype=np.int64)).all()


def test_quotient_ring_rejects_unit_ideal(example1):
    with pytest.raises(ValueError):
        quotient_ring(example1, example1.unit_ideal())


def test_quotient_dims_against_truncation_oracle():
    cases = [
        (["x^2", "xy", "y^2"], [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], ("x", "y"), 2),
        (["x^3", "x^2y^2", "y^3"], [{(3, 0): 1}, {(2, 2): 1}, {(0, 3): 1}], ("x", "y"), 2),
        (["x^2+y^2", "x^3"], [{(2, 0): 1, (0, 2): 1}, {(3, 0): 1}], ("x", "y"), 3),
    ]
    for texts, dicts, variables, p in cases:
        A = make_ring(list(variables), texts, p)
        assert A.dim == quotient_dim(dicts, len(variables), p)


def test_hom_dim_kron_oracle_on_regular_module(pair):
    R = regular_module(pair)
    # End(R) = R for the regular module
    assert hom_dim_kron(R.action, R.action, pair.p) == pair.dim
