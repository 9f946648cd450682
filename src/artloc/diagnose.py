"""Decision procedure: which sufficient condition for a nontrivial
extension-closed module subcategory applies to a given algebra.

Checks run in a fixed precedence order and every applicable condition is
recorded; the primary verdict is the first hit. A hypersurface verdict is
exclusive (triviality rules out the rest)."""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from . import linalg
from .algebra import AlgebraClass, AlgebraInvariants, LocalAlgebra, Presentation
from .extensions import DEFAULT_COCYCLE_BUDGET, ClosureVerdict, ext_closure_contains_k
from .modules import betti_numbers, cyclic_module

VERDICT_HYPERSURFACE = "OnlyTrivial_Hypersurface"
VERDICT_PAIR = "Nontrivial_OrthogonalPair"
VERDICT_STRETCHED_GORENSTEIN = "Nontrivial_StretchedGorenstein"
VERDICT_BOUNDED_BETTI = "Nontrivial_BoundedBetti"
VERDICT_GOTO = "Nontrivial_GotoCondition"
VERDICT_NECESSARY_FAIL = "NecessaryConditionsFail"
VERDICT_INCONCLUSIVE = "Inconclusive"


class DiagnosisReport:
    """What diagnose found, filled in check by check."""

    __slots__ = ("invariants", "classification", "verdict", "applicable", "pair", "bounded_betti_x",
                 "bounded_betti_sequence", "goto_variable", "goto_l", "census", "notes")

    def __init__(self, invariants: AlgebraInvariants, classification: AlgebraClass, verdict: str,
                 applicable: list[str]):
        self.invariants = invariants
        self.classification = classification
        self.verdict = verdict
        self.applicable = applicable
        self.pair: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.bounded_betti_x: Optional[np.ndarray] = None
        self.bounded_betti_sequence: Optional[list[int]] = None
        self.goto_variable: Optional[str] = None
        self.goto_l: Optional[int] = None
        self.census: Optional[ClosureVerdict] = None
        self.notes: list[str] = []


def scan_bounded_betti(A: LocalAlgebra) -> Optional[np.ndarray]:
    """First minimal generator x with (0:x) = (x), scanning coordinate
    tuples over the non-unit basis as base-p digits of 1, 2, 3, ... Both
    conditions hold for x exactly when they hold for its unit multiples, so
    only the monic tuples are scanned (linalg.monic_blocks), the first
    linalg.SCAN_LINES of them, as in the orthogonal-pair search.

    (x) lies in (0:x) exactly when x^2 = 0, and then the two are equal
    exactly when their dimensions r and d - r agree, r the rank of
    multiplication by x. So a block of candidates costs one projection onto
    the complement of m^2, one stack of multiplication matrices, one
    product for x^2 and one rank_batch."""
    p, d = A.p, A.dim
    proj, _, _ = linalg.complement_projection(A.maxideal_power(2).basis)
    for block in itertools.islice(linalg.monic_blocks(p, d - 1), linalg.SCAN_LINES // linalg.BLOCK_ROWS):
        coords = np.hstack([np.zeros((block.shape[0], 1), dtype=np.int64), block])
        coords = coords[(coords @ proj.T % p).any(axis=1)]  # x outside m^2
        mults = A.mult_stack(coords.T)
        hits = ~(np.einsum("bij,bj->bi", mults, coords) % p).any(axis=1)  # x^2 = 0
        hits[hits] = 2 * linalg.rank_batch(mults[hits], p) == d
        if hits.any():
            return coords[hits.argmax()].copy()
    return None


def goto_check(A: LocalAlgebra, presentation: Presentation) -> Optional[tuple[str, int]]:
    """Syntactic check on the given presentation: a variable v and l >= 1
    with v^(l+1) in the ideal while every relation has order >= l+1. The
    least such l + 1 is the nilpotency index t of v, so the check is
    2 <= t <= min order. The variable order is as presented; no coordinate
    changes are tried."""
    relations = [r for r in presentation.relations if not r.is_zero()]
    if len(presentation.variables) < 2 or not relations:
        return None
    min_order = min(r.order() for r in relations)
    for name, t in zip(presentation.variables, presentation.nilpotency):
        if 2 <= t <= min_order:
            return name, t - 1
    return None


def diagnose(
    A: LocalAlgebra, *, depth: int = 3, budget: int = DEFAULT_COCYCLE_BUDGET
) -> DiagnosisReport:
    inv = A.invariants()
    cls = A.classify()
    report = DiagnosisReport(
        invariants=inv,
        classification=cls,
        verdict=VERDICT_INCONCLUSIVE,
        applicable=[],
    )

    if cls.is_hypersurface:
        report.verdict = VERDICT_HYPERSURFACE
        report.applicable = [VERDICT_HYPERSURFACE]
        return report

    pair = A.find_orthogonal_generator_pair()
    if pair is not None:
        report.applicable.append(VERDICT_PAIR)
        report.pair = pair

    if cls.is_stretched and cls.is_gorenstein and inv.edim >= 2:
        report.applicable.append(VERDICT_STRETCHED_GORENSTEIN)

    bb = scan_bounded_betti(A)
    if bb is not None:
        report.applicable.append(VERDICT_BOUNDED_BETTI)
        report.bounded_betti_x = bb
        witness = cyclic_module(A, A.principal_ideal(bb))
        report.bounded_betti_sequence = betti_numbers(witness, 6)
    # an empty scan decides nothing when the monic lines of F_p^width outnumber its cap
    for scan, found, width in (("orthogonal-pair", pair, inv.edim), ("bounded-Betti", bb, A.dim - 1)):
        if found is None and (lines := 1 + sum(A.p**j for j in range(width))) > linalg.SCAN_LINES:
            report.notes.append(f"{scan} scan stopped after {linalg.SCAN_LINES} of {lines} lines; not decided")

    if A.presentation is not None:
        hit = goto_check(A, A.presentation)
        if hit is not None:
            report.applicable.append(VERDICT_GOTO)
            report.goto_variable, report.goto_l = hit
    else:
        report.notes.append("no presentation attached; Goto check skipped")

    if not cls.is_gorenstein:
        report.applicable.append(VERDICT_NECESSARY_FAIL)
        report.notes.append(
            "not Gorenstein: rings with only trivial extension-closed "
            "subcategories must be Gorenstein, so a nontrivial one exists"
        )

    if not report.applicable:
        report.verdict = VERDICT_INCONCLUSIVE
        return report

    report.verdict = report.applicable[0]
    if report.verdict == VERDICT_PAIR:
        report.census = ext_closure_contains_k(A, report.pair[0], depth, budget=budget)
    if (
        report.verdict == VERDICT_STRETCHED_GORENSTEIN
        and VERDICT_PAIR not in report.applicable
        and VERDICT_BOUNDED_BETTI not in report.applicable
    ):
        report.notes.append("witness over extension field not searched")
    return report
