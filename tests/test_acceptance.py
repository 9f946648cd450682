"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything here goes through public entry points only; the expected values
are either pinned small examples or checked against the independent
truncation oracle in oracles.py.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artloc import linalg
from artloc.algebra import (
    EdimTooSmallError,
    idealization,
    quotient_ring,
    tensor_product,
)
from artloc.catalog import dual_numbers, hypersurface_ring, make_ring
from artloc.diagnose import diagnose
from artloc.extensions import (
    check_matrix_condition,
    complement_ideal,
    hypersurface_ladder_check,
    splice_nodes,
)
from artloc.modules import (
    RingMatrix,
    base_change,
    betti_numbers,
    cyclic_module,
    free_module,
    hom_dim,
    is_isomorphic,
    matlis_dual,
    minimal_presentation,
    quotient_module,
    regular_module,
    residue_field,
    tor,
)

from oracles import dict_to_text, quotient_dim


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _report(n: int, desc: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL criterion {n:2d}: {desc}", flush=True)
            raise
        with capsys.disabled():
            print(f"PASS criterion {n:2d}: {desc}", flush=True)

    return _report


def _cyclic(A, text):
    return cyclic_module(A, A.principal_ideal(A.element_from_string(text)))


def _definitely_distinct(M, N) -> bool:
    """True when an invariant separates the modules or the exact isomorphism
    decision finds no invertible top map."""
    if M.dim != N.dim or M.iso_profile() != N.iso_profile():
        return True
    if hom_dim(M, M) != hom_dim(N, N) or hom_dim(M, N) != hom_dim(N, M):
        return True
    return not bool(is_isomorphic(M, N))


def test_criterion_01_hypersurface_ladder(report):
    with report(1, "hypersurface ladders n=2..5 verify and reach every class"):
        for n in (2, 3, 4, 5):
            rep = hypersurface_ladder_check(hypersurface_ring(2, n))
            assert rep.all_reached
            assert len(rep.witnesses) == n - 1
            for w in rep.witnesses:
                assert w.verify() == []
            full = tuple(range(1, n + 1))
            assert set(rep.closures) == set(range(1, n))
            for reached in rep.closures.values():
                assert reached == full


def test_criterion_02_closure_censuses(
    report, pair, y3ring, example1, closure_pair, closure_y3, closure_example1
):
    with report(2, "closure searches complete with contains_k false"):
        for A, verdict, depth in (
            (pair, closure_pair, 4),
            (y3ring, closure_y3, 4),
            (example1, closure_example1, 3),
        ):
            found = A.find_orthogonal_generator_pair()
            assert found is not None
            assert not A.mult(found[0], found[1]).any()
            assert (verdict.x == found[0]).all()
            assert verdict.complete
            assert not verdict.contains_k
            assert verdict.depth == depth
            assert all(not any(c.splits) for c in verdict.census)


def test_criterion_03_example1_verbatim(report, example1):
    with report(3, "dim-6 Gorenstein example: Tor, annihilator, socle, Hilbert"):
        X = _cyclic(example1, "x")
        Z = _cyclic(example1, "z")
        k = residue_field(example1)
        assert tor(X, Z, 1) == 0
        assert tor(X, k, 1) != 0
        x = example1.element_from_string("x")
        want = example1.ideal(
            [
                x,
                example1.element_from_string("y"),
                example1.element_from_string("w"),
            ]
        )
        assert example1.annihilator(x) == want
        inv = example1.invariants()
        assert inv.socle_dim == 1
        assert inv.hilbert == (1, 4, 1)


def test_criterion_04_tensor_square(report, ci):
    with report(4, "vanishing Tor over the tensor square of dual numbers"):
        X = _cyclic(ci, "x")
        Y = _cyclic(ci, "y")
        k = residue_field(ci)
        assert tor(X, Y, 1) == 0
        assert tor(X, k, 1) != 0
        T = tensor_product(dual_numbers(2, "x"), dual_numbers(2, "y"))
        assert T.invariants() == ci.invariants()
        assert T.classify() == ci.classify()


def test_criterion_05_stretched_profile(report, stretched):
    with report(5, "stretched Gorenstein profile and a nontrivial verdict"):
        inv = stretched.invariants()
        assert inv.length == 6
        assert inv.edim == 3
        assert stretched.maxideal().power(3).dim > 0
        cls = stretched.classify()
        assert cls.is_gorenstein and cls.is_stretched
        assert diagnose(stretched, depth=1).verdict.startswith("Nontrivial")


def test_criterion_06_filt_laws(report, filt_pool):
    with report(6, "filt laws hold on 200 sampled enumerated nodes"):
        flat = []
        ring_data = {}
        for name, (A, x, levels) in filt_pool.items():
            X_len = levels[0][0].module.dim
            I = complement_ideal(A, x)
            qr = quotient_ring(A, I)
            try:
                pair = A.find_orthogonal_generator_pair()
            except EdimTooSmallError:
                pair = None
            from_pair = pair is not None and np.array_equal(pair[0], x)
            ring_data[name] = (A, x, X_len, qr, levels, from_pair)
            for level_nodes in levels:
                # level disjointness: length separates the levels completely
                assert len({n.module.dim for n in level_nodes}) == 1
                for node in level_nodes:
                    flat.append((name, node))
        rng = np.random.default_rng(20260815)
        picks = rng.choice(len(flat), size=200, replace=False)
        for idx in picks:
            name, node = flat[idx]
            A, x, X_len, qr, levels, from_pair = ring_data[name]
            n = node.level
            assert node.module.dim == n * X_len
            assert minimal_presentation(node.module).betti1 <= n
            verdicts = check_matrix_condition(node.presentation, x)
            assert all(verdicts)
            # The base-change collapse M/IM ~ k^n needs x to be part of an
            # orthogonal generator pair. Without one (dual numbers, the
            # complete intersection, the power-gap ring) unit entries occur
            # legitimately: over F_2[x,y]/(x^2,y^2) the module R itself sits
            # in filt^2(R/(x)) and R/IR is the dual numbers, not k^2.
            if from_pair:
                reduced = base_change(node.module, qr)
                assert reduced.dim == n
                assert reduced.radical_subspace().cols == 0  # trivial action: k^n
        # same-level classes are genuinely distinct (spot check)
        for name in ("pair", "dual", "y3"):
            levels = ring_data[name][4]
            for level_nodes in levels:
                for i in range(len(level_nodes)):
                    for j in range(i + 1, len(level_nodes)):
                        assert _definitely_distinct(
                            level_nodes[i].module, level_nodes[j].module
                        )
        # splice law: spliced nodes land among the enumerated classes
        plevels = ring_data["pair"][4]
        for a, b in ((1, 1), (1, 2), (2, 2), (1, 3)):
            bottom = plevels[a - 1][0]
            top = plevels[b - 1][-1]
            spliced = splice_nodes(bottom, top)
            assert spliced.level == a + b
            assert all(step.verify() == [] for step in spliced.chain)
            assert any(
                bool(is_isomorphic(spliced.module, node.module))
                for node in plevels[a + b - 1]
            )


def test_criterion_07_betti_bounds(report, filt_pool, ci, inconclusive_ring):
    with report(7, "Betti facts: beta_1(k) = edim, flat bounds under base change"):
        rings = [entry[0] for entry in filt_pool.values()] + [inconclusive_ring]
        for A in rings:
            assert minimal_presentation(residue_field(A)).betti1 == A.invariants().edim
        assert betti_numbers(_cyclic(ci, "x"), 6) == [1] * 7
        rng = np.random.default_rng(7)
        ring_list = [entry[0] for entry in filt_pool.values()]
        for _ in range(50):
            A = ring_list[int(rng.integers(len(ring_list)))]
            p, d = A.p, A.dim
            entries = rng.integers(0, p, size=(2, 2, d))
            entries[:, :, 0] = 0  # keep the relations inside m
            T = RingMatrix(A, entries)
            F = free_module(A, 2)
            N = quotient_module(F, linalg.column_space(T.as_linear_map())).module
            beta1_N = minimal_presentation(N).betti1
            gens = A.generator_set
            coeffs = rng.integers(0, p, size=gens.cols)
            if not coeffs.any():
                coeffs[0] = 1
            x = (gens.array @ coeffs) % p
            qr = quotient_ring(A, complement_ideal(A, x))
            assert minimal_presentation(residue_field(qr.algebra)).betti1 == 1
            reduced = base_change(N, qr)
            assert minimal_presentation(reduced).betti1 <= beta1_N


def test_criterion_08_gorenstein_toolkit(report, pair, example1, stretched, ci, dual):
    with report(8, "idealization, Matlis self-duality, power-gap detection"):
        hull = matlis_dual(regular_module(pair))
        A = idealization(pair, hull.action)
        inv = A.invariants()
        assert inv.length == 6
        assert inv.hilbert == (1, 4, 1)
        assert A.classify().is_gorenstein
        for G in (example1, stretched, ci, dual, hypersurface_ring(2, 4)):
            R = regular_module(G)
            assert bool(is_isomorphic(R, matlis_dual(R)))
        rep = diagnose(make_ring(["x", "y"], ["x^3", "x^2y^2", "y^3"], 2), depth=1)
        assert "Nontrivial_GotoCondition" in rep.applicable
        assert rep.goto_l == 2


def test_criterion_09_oracle_cross_checks(report):
    with report(9, "30 quotient dims match the truncation oracle; 1000 rank checks"):
        rng = np.random.default_rng(90)
        primes = [2, 3, 5]
        checked = 0
        while checked < 30:
            p = primes[int(rng.integers(3))]
            nvars = 2 if rng.integers(2) else 3
            variables = ["x", "y", "z"][:nvars]
            gens = []
            for v in range(nvars):
                power = [0] * nvars
                power[v] = int(rng.integers(2, 4 if nvars == 3 else 5))
                gens.append({tuple(power): 1})
            for _ in range(int(rng.integers(1, 3))):
                exps = tuple(int(e) for e in rng.integers(0, 3, size=nvars))
                if sum(exps) < 2:
                    continue
                term = {exps: int(rng.integers(1, p))}
                if rng.integers(2):
                    other = tuple(int(e) for e in rng.integers(0, 3, size=nvars))
                    if sum(other) >= 2 and other != exps:
                        term[other] = int(rng.integers(1, p))
                gens.append(term)
            expected = quotient_dim(gens, nvars, p)
            assert expected is not None
            texts = [dict_to_text(g, variables) for g in gens]
            A = make_ring(variables, texts, p)
            assert A.dim == expected
            checked += 1
        for i in range(1000):
            p = primes[i % 3]
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = linalg.PrimeFieldMatrix(rng.integers(0, p, size=(rows, cols)), p)
            assert a.rank + linalg.kernel_basis(a).cols == cols
            once = linalg.rref(a)
            again = linalg.rref(once.matrix)
            assert once.matrix.array.tolist() == again.matrix.array.tolist()


def test_criterion_10_verify_paper_determinism(report):
    with report(10, "verification corpus passes, byte-identical across runs"):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "artloc", "verify-paper", "--quiet", "--json", "-"],
                capture_output=True,
                check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["results"]["failed"] == 0
        assert payload["results"]["passed"] >= 20
