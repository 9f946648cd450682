from __future__ import annotations

import itertools
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artloc.algebra import check_axioms, from_presentation
from artloc.cli import load_ring
from artloc.polyparse import (
    EXPONENT_CAP,
    InfiniteDimensionError,
    PolyParseError,
    Polynomial,
    buchberger,
    degrevlex_key,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normal_form,
    parse_polynomial,
    s_polynomial,
    standard_monomial_basis,
)

from oracles import dict_to_text, hilbert_function, quotient_dim

XY = ("x", "y")
XYZW = ("x", "y", "z", "w")
ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted(path.stem for path in (ROOT / "rings").glob("*.ring"))


def test_parse_juxtaposition_products():
    f = parse_polynomial("xz-yw", XYZW, 2)
    assert dict(f.terms) == {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}


def test_parse_coefficients_and_powers():
    f = parse_polynomial("3x^2y + y^3", XY, 5)
    assert dict(f.terms) == {(2, 1): 3, (0, 3): 1}
    assert f.degree() == 3
    assert f.order() == 3


def test_parse_repeated_variable_multiplies():
    f = parse_polynomial("xx + y", XY, 2)
    assert dict(f.terms) == {(2, 0): 1, (0, 1): 1}


def test_parse_integer_reduces_mod_p():
    assert parse_polynomial("2", XY, 2).is_zero()
    assert dict(parse_polynomial("7", XY, 5).terms) == {(0, 0): 2}


@pytest.mark.parametrize("text, rendered", [
    ("3x^2y - 1 + z", "3x^2y + z + 4"),
    ("x", "x"),
    ("1", "1"),
    ("0", "0"),
    ("y^2+x^2", "x^2 + y^2"),
])
def test_render_terms_in_order_with_constant_last(text, rendered):
    assert parse_polynomial(text, ("x", "y", "z"), 5).render() == rendered


def test_parse_minus_binds_per_term():
    f = parse_polynomial("x^3-y^2", ("x", "y", "z"), 3)
    assert dict(f.terms) == {(3, 0, 0): 1, (0, 2, 0): 2}


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("x*2", "'*' is not part of the grammar; write products by juxtaposition", 1),
        ("x+", "expected a term", 2),
        ("(x+y)", "unknown symbol '('", 0),
        ("x^0 + q", "unknown symbol 'q'", 6),
        ("", "empty input", 0),
        ("x^^2", "expected an integer", 2),
    ],
)
def test_parse_errors_carry_position(text, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(text, XY, 2)
    assert message in str(err.value)
    assert f"(at position {position})" in str(err.value)
    assert err.value.position == position


def _gb(texts, variables, p):
    return buchberger([parse_polynomial(t, variables, p) for t in texts])


def test_normal_form_divides_out_lead_terms():
    gb = _gb(["x^2", "xy", "y^3"], XY, 2)
    nf = normal_form(parse_polynomial("x^2y + y^2 + xy", XY, 2), gb)
    assert dict(nf.terms) == {(0, 2): 1}


def test_normal_form_cancels_inside_a_term():
    # the divisor's lead must cancel against the term being processed even
    # when the reduction rewrites that same monomial
    gb = _gb(
        ["x^2", "xy", "xz-yw", "xw", "y^2", "yz", "z^2", "zw", "w^2"], XYZW, 2
    )
    nf = normal_form(parse_polynomial("xz", XYZW, 2), gb)
    assert dict(nf.terms) == {(0, 1, 0, 1): 1}
    assert normal_form(parse_polynomial("yw^2", XYZW, 2), gb).is_zero()


def test_buchberger_closes_under_s_polynomials():
    rng = np.random.default_rng(3)
    mons = ["x^2", "xy", "y^2", "x^3", "y^3", "x^2y", "xy^2"]
    for _ in range(25):
        p = int(rng.choice([2, 3, 5]))
        picks = rng.choice(len(mons), size=3, replace=False)
        texts = [mons[i] for i in picks]
        if rng.integers(2):
            texts[0] = texts[0] + "+" + mons[int(rng.integers(len(mons)))]
        gb = _gb(texts, XY, p)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()


def test_standard_monomials_of_stretched_ring():
    gb = _gb(["xy", "xz", "yz", "x^3-y^2", "x^3-z^2"], ("x", "y", "z"), 3)
    basis = standard_monomial_basis(gb, ("x", "y", "z"))
    assert set(basis) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (0, 0, 2),
    }


def test_quotient_dim_matches_truncation_oracle():
    cases = [
        (["xy", "xz", "yz", "x^3-y^2", "x^3-z^2"],
         [{(1, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 1, 1): 1},
          {(3, 0, 0): 1, (0, 2, 0): 2}, {(3, 0, 0): 1, (0, 0, 2): 2}],
         ("x", "y", "z"), 3),
        (["x^2", "xy", "y^3"],
         [{(2, 0): 1}, {(1, 1): 1}, {(0, 3): 1}],
         XY, 2),
    ]
    for texts, dicts, variables, p in cases:
        gb = _gb(texts, variables, p)
        assert len(standard_monomial_basis(gb, variables)) == quotient_dim(
            dicts, len(variables), p
        )


def test_standard_monomials_reject_infinite_quotients():
    gb = _gb(["x^2"], XY, 2)
    with pytest.raises(InfiniteDimensionError):
        standard_monomial_basis(gb, XY)



def _assert_matches_sympy(dicts, variables, p):
    """buchberger equals sympy's reduced grevlex basis, made monic, term by term."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(variables)
    exprs = [
        sum(c * sympy.prod([v**e for v, e in zip(gens, mono)]) for mono, c in d.items())
        for d in dicts
    ]
    want = set()
    for g in sympy.groebner(exprs, *gens, order="grevlex", modulus=p).exprs:
        terms = sympy.Poly(g, *gens, modulus=p).terms(order="grevlex")  # leading term first
        inv = pow(int(terms[0][1]) % p, p - 2, p)
        want.add(frozenset((mono, int(c) * inv % p) for mono, c in terms))
    gb = buchberger([Polynomial(variables, p, d) for d in dicts])
    assert {frozenset(g.terms.items()) for g in gb} == want


_TERM = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 4))

# (p, nvars, pure-power exponents, extra generators as term lists)
_M_PRIMARY = (
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.tuples(*[st.integers(1, 4)] * 3),
    st.lists(st.lists(_TERM, min_size=1, max_size=3), max_size=3),
)


def _m_primary_ideal(nvars, powers, extra):
    """Variables and exponent dicts of a generated ideal. Pure powers make it
    m-primary; the extra generators have no constant term."""
    variables = ("x", "y", "z")[:nvars]
    dicts = []
    for i in range(nvars):
        mono = [0] * nvars
        mono[i] = powers[i]
        dicts.append({tuple(mono): 1})
    for terms in extra:
        d = {}
        for mono, c in terms:
            if any(mono[:nvars]):
                d[mono[:nvars]] = d.get(mono[:nvars], 0) + c
        dicts.append(d)
    return variables, dicts


@settings(deadline=None, max_examples=40)
@given(*_M_PRIMARY)
@example(2, 2, (1, 1, 1), [])
@example(3, 2, (2, 3, 1), [[((0, 2, 0), 1), ((1, 0, 0), 2)]])  # lex and grevlex leads differ
def test_buchberger_matches_sympy_groebner(p, nvars, powers, extra):
    variables, dicts = _m_primary_ideal(nvars, powers, extra)
    _assert_matches_sympy(dicts, variables, p)


@settings(deadline=None, max_examples=40)
@given(*_M_PRIMARY)
def test_from_presentation_tables_satisfy_the_axioms(p, nvars, powers, extra):
    """LocalAlgebra trusts from_presentation's table; check_axioms certifies it."""
    variables, dicts = _m_primary_ideal(nvars, powers, extra)
    A = from_presentation(variables, [Polynomial(variables, p, d) for d in dicts])
    assert check_axioms(A) == []


@settings(deadline=None, max_examples=40)
@given(*_M_PRIMARY)
@example(3, 2, (4, 4, 1), [[((3, 0, 0), 1), ((0, 2, 0), 2)]])  # x^3 - y^2: not homogeneous
@example(5, 3, (2, 3, 4), [[((1, 1, 0), 1), ((0, 0, 2), 4)], [((0, 1, 1), 1), ((3, 0, 0), 1)]])
def test_invariants_match_the_hilbert_function_oracle(p, nvars, powers, extra):
    """hilbert and edim against differences of truncated quotient dims:
    dim F_p[x]/(I + M^k) = H(0) + ... + H(k-1), for any m-primary I."""
    variables, dicts = _m_primary_ideal(nvars, powers, extra)
    A = from_presentation(variables, [Polynomial(variables, p, d) for d in dicts])
    want = hilbert_function(dicts, nvars, p)
    inv = A.invariants()
    assert inv.hilbert == want
    assert inv.edim == (want[1] if len(want) > 1 else 0)
    assert sum(want) == A.dim


def _buchberger_by_sorted_pairs(generators):
    """buchberger's pair loop as it was before the heap: the whole pair list
    re-sorted by (degrevlex of lcm, i, j) on every iteration, and every
    leading monomial recomputed; the interreduction is the same."""

    def lead(g):
        return max(g.terms, key=degrevlex_key)

    basis = [g.monic() for g in generators if not g.is_zero()]
    if not basis:
        return []
    pairs = list(itertools.combinations(range(len(basis)), 2))

    def pair_key(ij):
        i, j = ij
        return (degrevlex_key(monomial_lcm(lead(basis[i]), lead(basis[j]))), i, j)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        lf, lg = lead(basis[i]), lead(basis[j])
        if monomial_lcm(lf, lg) == monomial_mul(lf, lg):
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        k = len(basis) - 1
        pairs.extend((t, k) for t in range(k))
    basis.sort(key=lambda g: degrevlex_key(lead(g)))
    kept = []
    for i, g in enumerate(basis):
        lm = lead(g)
        others = basis[:i] + basis[i + 1 :]
        if any(monomial_divides(lead(h), lm) for h in kept):
            continue
        if any(monomial_divides(lead(h), lm) and lead(h) != lm for h in others):
            continue
        kept.append(g)
    reduced = [normal_form(g, kept[:i] + kept[i + 1 :]).monic() for i, g in enumerate(kept)]
    reduced.sort(key=lambda g: degrevlex_key(lead(g)))
    return reduced


def _assert_same_basis(relations):
    got = buchberger(relations)
    want = _buchberger_by_sorted_pairs(relations)
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]


def test_buchberger_heap_matches_the_sorted_pair_loop_on_the_corpus():
    rings = [_corpus_ring(name) for name in CORPUS]
    rings.append(load_ring(str(ROOT / "perfbench" / "rings" / "monomial64.ring")).algebra)
    for A in rings:
        _assert_same_basis(list(A.presentation.relations))
    # the seed-0 Gorenstein ring of the benchmark: three quartics over F_3
    _assert_same_basis([parse_polynomial(t, ("x", "y", "z"), 3) for t in ("x^4+y^3z", "y^4+z^3x", "z^4+x^3y")])


@settings(deadline=None, max_examples=40)
@given(*_M_PRIMARY)
@example(3, 2, (4, 4, 1), [[((3, 0, 0), 1), ((0, 2, 0), 2)]])
@example(5, 3, (2, 3, 4), [[((1, 1, 0), 1), ((0, 0, 2), 4)], [((0, 1, 1), 1), ((3, 0, 0), 1)]])
def test_buchberger_heap_matches_the_sorted_pair_loop(p, nvars, powers, extra):
    variables, dicts = _m_primary_ideal(nvars, powers, extra)
    _assert_same_basis([Polynomial(variables, p, d) for d in dicts])


def test_buchberger_matches_sympy_on_the_stretched_ring():
    # xy, xz, yz, x^3 - y^2, x^3 - z^2 over F_3
    dicts = [{(1, 1, 0): 1}, {(1, 0, 1): 1}, {(0, 1, 1): 1},
             {(3, 0, 0): 1, (0, 2, 0): 2}, {(3, 0, 0): 1, (0, 0, 2): 2}]
    _assert_matches_sympy(dicts, ("x", "y", "z"), 3)


def _coordinates_by_normal_form(f, gb, monomials):
    """f's coordinates on the standard monomials, by Groebner normal form."""
    index = {m: i for i, m in enumerate(monomials)}
    v = np.zeros(len(monomials), dtype=np.int64)
    for m, c in normal_form(f, gb).terms.items():
        v[index[m]] = c
    return v


def _table_by_normal_forms(variables, relations):
    """The structure table by one normal form per product of standard
    monomials, the construction the variable matrices replace."""
    gb = buchberger(relations)
    monomials = standard_monomial_basis(gb, variables)
    p, d = relations[0].p, len(monomials)
    table = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(i, d):
            product = Polynomial(variables, p, {monomial_mul(monomials[i], monomials[j]): 1})
            table[i, j] = table[j, i] = _coordinates_by_normal_form(product, gb, monomials)
    return table


@lru_cache(maxsize=None)
def _corpus_ring(name):
    return load_ring(str(ROOT / "rings" / f"{name}.ring")).algebra


@settings(deadline=None, max_examples=40)
@given(*_M_PRIMARY)
@example(3, 2, (4, 4, 1), [[((3, 0, 0), 1), ((0, 2, 0), 2)]])  # x^3 - y^2: not homogeneous
@example(3, 2, (3, 3, 1), [[((1, 0, 0), 1), ((0, 1, 0), 2)]])  # x - y: x is not a standard monomial
@example(5, 3, (3, 4, 2), [[((1, 0, 0), 1), ((0, 2, 0), 4)], [((0, 1, 1), 1), ((2, 0, 0), 1)]])
def test_tables_match_the_per_product_normal_forms(p, nvars, powers, extra):
    variables, dicts = _m_primary_ideal(nvars, powers, extra)
    relations = [Polynomial(variables, p, d) for d in dicts]
    got = from_presentation(variables, relations).table
    want = _table_by_normal_forms(variables, relations)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_corpus_tables_match_the_per_product_normal_forms():
    rings = [_corpus_ring(name) for name in CORPUS]
    rings.append(load_ring(str(ROOT / "perfbench" / "rings" / "monomial64.ring")).algebra)
    for A in rings:
        pres = A.presentation
        want = _table_by_normal_forms(pres.variables, list(pres.relations))
        assert A.table.shape == want.shape and A.table.tobytes() == want.tobytes(), A


_EXPONENT = st.one_of(st.integers(0, 6), st.just(EXPONENT_CAP))


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(CORPUS),
    st.lists(st.tuples(st.tuples(*[_EXPONENT] * 4), st.integers(0, 6)), min_size=1, max_size=4),
)
@example("example1", [((EXPONENT_CAP, 0, 0, 0), 1)])
@example("stretched", [((EXPONENT_CAP - 1, 0, 0, 0), 2), ((1, 1, 0, 0), 1), ((0, 0, 0, 0), 1)])
def test_elements_match_normal_form_reduction(name, terms):
    """element_from_string against the Groebner normal form of the same
    text, on the standard monomials; exponents reach the parser's cap."""
    A = _corpus_ring(name)
    variables = A.presentation.variables
    term_dict = {}
    for mono, c in terms:
        term_dict[mono[: len(variables)]] = term_dict.get(mono[: len(variables)], 0) + c
    text = dict_to_text(term_dict, variables)
    gb = buchberger(list(A.presentation.relations))
    want = _coordinates_by_normal_form(parse_polynomial(text, variables, A.p), gb, standard_monomial_basis(gb, variables))
    assert A.element_from_string(text).tolist() == want.tolist()
