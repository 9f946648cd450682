from __future__ import annotations

import numpy as np
import pytest

from artloc.algebra import EdimTooSmallError
from artloc.catalog import (
    complete_intersection_ring,
    dual_numbers,
    example1_ring,
    goto_ring,
    hypersurface_ring,
    make_ring,
    pair_ring,
    stretched_ring,
)
from artloc.extensions import ext_closure_contains_k, filt_enumerate


@pytest.fixture(scope="session")
def example1():
    return example1_ring()


@pytest.fixture(scope="session")
def stretched():
    return stretched_ring()


@pytest.fixture(scope="session")
def pair():
    return pair_ring()


@pytest.fixture(scope="session")
def dual():
    return dual_numbers()


@pytest.fixture(scope="session")
def ci():
    return complete_intersection_ring()


@pytest.fixture(scope="session")
def goto():
    return goto_ring()


@pytest.fixture(scope="session")
def y3ring():
    return make_ring(["x", "y"], ["x^2", "xy", "y^3"], 2)


@pytest.fixture(scope="session")
def inconclusive_ring():
    # Gorenstein, not stretched, no orthogonal pair over F_3, no bounded-betti
    # element, no power-gap relation pattern: every sufficient test comes back
    # empty, so the decision procedure must answer Inconclusive.
    return make_ring(["x", "y"], ["x^2+y^2", "x^3"], 3)


def closure_element(A) -> np.ndarray:
    """The element the CLI would pick: an orthogonal-pair member when one
    exists, else the first minimal generator."""
    try:
        found = A.find_orthogonal_generator_pair()
    except EdimTooSmallError:
        found = None
    if found is not None:
        return found[0]
    return A.generator_set.column(0)


@pytest.fixture(scope="session")
def filt_pool(example1, stretched, pair, dual, ci, goto, y3ring):
    """Enumerated filt levels for every corpus ring, computed once.

    Values are (algebra, x, levels) keyed by ring name; the expected class
    counts per level are pinned here so every consumer re-checks them."""
    specs = [
        ("dual", dual, 4, [1, 2, 2, 3]),
        ("pair", pair, 4, [1, 2, 3, 5]),
        ("y3", y3ring, 4, [1, 2, 3, 5]),
        ("ci", ci, 4, [1, 3, 4, 8]),
        ("goto", goto, 3, [1, 4, 13]),
        ("stretched", stretched, 2, [1, 5]),
        ("example1", example1, 3, [1, 8, 134]),
    ]
    pool = {}
    for name, A, depth, expected_counts in specs:
        x = closure_element(A)
        levels = filt_enumerate(A, x, depth)
        assert [len(level) for level in levels] == expected_counts
        pool[name] = (A, x, levels)
    return pool


@pytest.fixture(scope="session")
def closure_pair(pair):
    return ext_closure_contains_k(pair, closure_element(pair), 4)


@pytest.fixture(scope="session")
def closure_y3(y3ring):
    return ext_closure_contains_k(y3ring, closure_element(y3ring), 4)


@pytest.fixture(scope="session")
def closure_example1(example1):
    return ext_closure_contains_k(example1, closure_element(example1), 3)
