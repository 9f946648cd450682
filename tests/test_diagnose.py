from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from artloc import linalg
from artloc.algebra import LocalAlgebra, idealization
from artloc.catalog import (
    complete_intersection_ring,
    example1_ring,
    goto_ring,
    hypersurface_ring,
    make_ring,
    pair_ring,
    stretched_ring,
)
from artloc.diagnose import (
    VERDICT_BOUNDED_BETTI,
    VERDICT_GOTO,
    VERDICT_HYPERSURFACE,
    VERDICT_INCONCLUSIVE,
    VERDICT_NECESSARY_FAIL,
    VERDICT_PAIR,
    VERDICT_STRETCHED_GORENSTEIN,
    diagnose,
    goto_check,
    scan_bounded_betti,
)
from artloc.cli import load_ring
from artloc.modules import matlis_dual, regular_module
from artloc.polyparse import Polynomial, buchberger, normal_form

from oracles import bounded_betti_brute

import artloc.diagnose  # noqa: F401  (the package re-exports the function under this name)
import sys

diagnose_module = sys.modules["artloc.diagnose"]


def test_hypersurface_verdict_is_exclusive():
    rep = diagnose(hypersurface_ring(2, 4))
    assert rep.verdict == VERDICT_HYPERSURFACE
    assert rep.applicable == [VERDICT_HYPERSURFACE]
    assert rep.census is None


def test_pair_ring_verdict(pair):
    rep = diagnose(pair, depth=2)
    assert rep.verdict == VERDICT_PAIR
    assert rep.applicable == [VERDICT_PAIR, VERDICT_GOTO, VERDICT_NECESSARY_FAIL]
    assert pair.render_element(rep.pair[0]) == "x"
    assert pair.render_element(rep.pair[1]) == "y"
    assert rep.census is not None
    assert [c.count for c in rep.census.census] == [1, 2]
    assert not rep.census.contains_k
    assert any("Gorenstein" in note for note in rep.notes)


def test_example1_verdict(example1):
    rep = diagnose(example1, depth=1)
    assert rep.verdict == VERDICT_PAIR
    assert rep.applicable == [VERDICT_PAIR, VERDICT_STRETCHED_GORENSTEIN, VERDICT_GOTO]
    assert not rep.census.contains_k


def test_stretched_ring_verdict(stretched):
    rep = diagnose(stretched, depth=1)
    assert rep.verdict == VERDICT_PAIR
    assert rep.applicable == [VERDICT_PAIR, VERDICT_STRETCHED_GORENSTEIN]


def test_complete_intersection_verdict(ci):
    rep = diagnose(ci, depth=1)
    assert rep.verdict == VERDICT_STRETCHED_GORENSTEIN
    assert rep.applicable == [
        VERDICT_STRETCHED_GORENSTEIN,
        VERDICT_BOUNDED_BETTI,
        VERDICT_GOTO,
    ]
    assert ci.render_element(rep.bounded_betti_x) == "x"
    assert rep.bounded_betti_sequence == [1, 1, 1, 1, 1, 1, 1]
    assert rep.census is None


def test_goto_ring_verdict(goto):
    rep = diagnose(goto, depth=1)
    assert rep.verdict == VERDICT_GOTO
    assert rep.applicable == [VERDICT_GOTO, VERDICT_NECESSARY_FAIL]
    assert rep.goto_variable == "x"
    assert rep.goto_l == 2


def test_inconclusive_ring(inconclusive_ring):
    rep = diagnose(inconclusive_ring, depth=1)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.applicable == []
    cls = rep.classification
    assert cls.is_gorenstein and not cls.is_stretched and not cls.is_hypersurface


def test_scan_bounded_betti_finds_ci_witness(ci, pair):
    x = scan_bounded_betti(ci)
    assert x is not None
    assert ci.annihilator(x) == ci.principal_ideal(x)
    assert scan_bounded_betti(pair) is None  # (0:x) = m strictly exceeds (x)


def test_scan_bounded_betti_stops_at_its_cap(monkeypatch):
    """Capped at one block, the scan over goto at p = 5 (19,532 monic lines
    of F_5^7) takes exactly one block, finds nothing there, and diagnose
    says that the scan stopped undecided."""
    A = goto_ring(5)
    monkeypatch.setattr(linalg, "SCAN_LINES", linalg.BLOCK_ROWS)
    real, blocks = linalg.monic_blocks, []

    def counted(p, width):
        for block in real(p, width):
            blocks.append(len(block))
            yield block

    monkeypatch.setattr(linalg, "monic_blocks", counted)
    assert scan_bounded_betti(A) is None
    assert blocks == [linalg.BLOCK_ROWS]
    note = f"bounded-Betti scan stopped after {linalg.BLOCK_ROWS} of 19532 lines; not decided"
    assert note in diagnose(A, depth=1).notes


def test_orthogonal_pair_scan_stops_at_its_cap(monkeypatch):
    """Capped at one block, the pair search over k[a,b,c,d]/(all cubics)
    at p = 31 (30,785 monic lines of F_31^4) takes exactly one block, finds
    no pair there, and diagnose says that the scan stopped undecided."""
    cubics = ["".join(m) for m in itertools.combinations_with_replacement("abcd", 3)]
    A = make_ring(list("abcd"), cubics, 31)
    monkeypatch.setattr(linalg, "SCAN_LINES", linalg.BLOCK_ROWS)
    real, blocks = linalg.monic_blocks, []

    def counted(p, width):
        for block in real(p, width):
            blocks.append(len(block))
            yield block

    monkeypatch.setattr(linalg, "monic_blocks", counted)
    assert A.find_orthogonal_generator_pair() is None
    assert blocks == [linalg.BLOCK_ROWS]
    note = f"orthogonal-pair scan stopped after {linalg.BLOCK_ROWS} of 30785 lines; not decided"
    assert note in diagnose(A, depth=1).notes


def test_scan_bounded_betti_matches_the_brute_scan(inconclusive_ring):
    """The monic scan finds the first hit of a scan of every tuple. Over
    k[x,y]/(x^2 - y^2, xy) the hits are ax + by with a^2 + b^2 = 0: x + y
    at p = 2, 2x + y first at p = 5 (3x + y and 4x + 2y come later), none
    at p = 3."""
    hits = 0
    rings = [complete_intersection_ring(p) for p in (2, 3, 5)] + [
        make_ring(["x", "y"], ["x^2-y^2", "xy"], p) for p in (2, 3, 5)]
    for A in rings + [pair_ring(3), pair_ring(5), example1_ring(2), stretched_ring(3), inconclusive_ring]:
        want = bounded_betti_brute(A.table, A.p)
        got = scan_bounded_betti(A)
        if want is None:
            assert got is None, A
        else:
            hits += 1
            assert got is not None and np.array_equal(got, want), A
    assert hits == 5


def test_goto_check_reads_the_presentation(goto, ci):
    assert goto_check(goto, goto.presentation) == ("x", 2)
    assert goto_check(ci, ci.presentation) == ("x", 1)
    hyp = hypersurface_ring(3, 4)
    assert goto_check(hyp, hyp.presentation) is None  # single variable


def _goto_by_normal_forms(A):
    """goto_check as a loop over normal forms of v, v^2, ..., v^(dim+1)."""
    pres = A.presentation
    variables = pres.variables
    if len(variables) < 2:
        return None
    gb = buchberger(list(pres.relations))
    min_order = min(r.order() for r in pres.relations if not r.is_zero())
    for vi, name in enumerate(variables):
        for t in range(1, A.dim + 2):
            exps = [0] * len(variables)
            exps[vi] = t
            if normal_form(Polynomial(variables, A.p, {tuple(exps): 1}), gb).is_zero():
                break
        else:
            continue
        if t - 1 >= 1 and min_order >= t:
            return name, t - 1
    return None


def test_goto_check_matches_the_normal_form_loop_on_the_corpus():
    rings = sorted((Path(__file__).resolve().parent.parent / "rings").glob("*.ring"))
    assert len(rings) == 7
    hits = 0
    for path in rings:
        A = load_ring(str(path)).algebra
        want = _goto_by_normal_forms(A)
        assert goto_check(A, A.presentation) == want, path
        hits += want is not None
    assert hits == 4


def test_extension_field_note_when_searches_come_back_empty(ci, monkeypatch):
    monkeypatch.setattr(
        LocalAlgebra, "find_orthogonal_generator_pair", lambda self: None
    )
    monkeypatch.setattr(diagnose_module, "scan_bounded_betti", lambda A: None)
    rep = diagnose(ci, depth=1)
    assert rep.verdict == VERDICT_STRETCHED_GORENSTEIN
    assert "witness over extension field not searched" in rep.notes


def test_missing_presentation_note(pair):
    hull = matlis_dual(regular_module(pair))
    A = idealization(pair, hull.action)
    rep = diagnose(A, depth=1)
    assert any("Goto check skipped" in note for note in rep.notes)
    assert VERDICT_GOTO not in rep.applicable
