"""Outside-in tracing of artloc's layers, installed inside a job's process.

The tracer rebinds each wrapped function in every artloc module namespace
that holds it (`from .modules import hom_dim` copies the name, so patching
only the defining module would leave calls from extensions, cli, diagnose and
catalog untimed). Each call becomes a span: name, start, end, parent span and
the job it belongs to, plus one integer note measured at the call:

- linalg entry points: rows * cols of the matrix they eliminate;
- modules.is_isomorphic: 1 when the verdict is "isomorphic";
- extensions.filt_enumerate: classes kept above level 1.

Spans stay in memory and are written out once, when the job ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

import numpy as np

SPAN_DTYPE = np.dtype(
    [("job", "i4"), ("name", "i4"), ("parent", "i8"), ("start", "f8"), ("end", "f8"), ("note", "i8")]
)


def _cells_of_matrix(m, *rest) -> int:
    return m.rows * m.cols


def _cells_of_solve(m, b) -> int:
    return m.rows * (m.cols + b.cols)


def _cells_of_array(a, *rest) -> int:
    return int(np.asarray(a).size)


def _iso_verdict(result) -> int:
    return int(bool(result.isomorphic))


def _classes_kept(levels) -> int:
    return sum(len(level) for level in levels[1:])


# (layer, function or Class.method, note taken from the arguments, note taken from the result)
WRAPPED = (
    ("cli", "main", None, None),
    ("cli", "load_ring", None, None),
    ("polyparse", "parse_polynomial", None, None),
    ("polyparse", "buchberger", None, None),
    ("polyparse", "normal_form", None, None),
    ("algebra", "from_presentation", None, None),
    ("algebra", "check_axioms", None, None),
    ("algebra", "LocalAlgebra.invariants", None, None),
    ("algebra", "LocalAlgebra.classify", None, None),
    ("algebra", "LocalAlgebra.find_orthogonal_generator_pair", None, None),
    ("algebra", "quotient_ring", None, None),
    ("algebra", "tensor_product", None, None),
    ("algebra", "idealization", None, None),
    ("linalg", "rref", _cells_of_matrix, None),
    ("linalg", "kernel_basis", _cells_of_matrix, None),
    ("linalg", "column_space", _cells_of_matrix, None),
    ("linalg", "solve_matrix", _cells_of_solve, None),
    ("linalg", "rank_mod", _cells_of_array, None),
    ("linalg", "invertible_batch", _cells_of_array, None),
    ("modules", "minimal_generators", None, None),
    ("modules", "minimal_free_resolution", None, None),
    ("modules", "RingMatrix.acting_on", None, None),
    ("modules", "tor", None, None),
    ("modules", "ext1", None, None),
    ("modules", "hom_dim", None, None),
    ("modules", "hom_space_matrices", None, None),
    ("modules", "is_isomorphic", None, _iso_verdict),
    ("modules", "FpModule.iso_profile", None, None),
    ("modules", "quotient_module", None, None),
    ("extensions", "filt_enumerate", None, _classes_kept),
    ("extensions", "ext_closure_contains_k", None, None),
    ("extensions", "extension_from_cocycle", None, None),
    ("diagnose", "diagnose", None, None),
    ("diagnose", "scan_bounded_betti", None, None),
    ("catalog", "run_corpus", None, None),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn, _, _ in WRAPPED)


class Tracer:
    """Span recorder for one job. Install after `artloc.cli` is imported."""

    def __init__(self, job: int):
        self.job = job
        self.rows: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        for name_idx, (layer, fn, note_args, note_result) in enumerate(WRAPPED):
            module = sys.modules[f"artloc.{layer}"]
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self._wrap(original, name_idx, note_args, note_result))
                continue
            original = getattr(module, fn)
            wrapper = self._wrap(original, name_idx, note_args, note_result)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "artloc" or mod_name.startswith("artloc."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def _wrap(self, fn, name_idx, note_args, note_result):
        rows = self.rows
        ids = self._ids
        stack_of = self._stack
        job = self.job
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            sid = next(ids)
            note = note_args(*args, **kwargs) if note_args is not None else 0
            stack.append(sid)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                if returned and note_result is not None:
                    note = note_result(result)
                rows.append((sid, job, name_idx, parent, start, end, note))

        return wrapper

    def spans(self) -> np.ndarray:
        """All spans, row i being span id i."""
        out = np.zeros(len(self.rows), dtype=SPAN_DTYPE)
        for sid, job, name_idx, parent, start, end, note in self.rows:
            out[sid] = (job, name_idx, parent, start, end, note)
        return out


def summarize(spans: np.ndarray, small_cells: int) -> dict:
    """Per-span-name calls, total and self time, and the counters built on notes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    n_names = len(SPAN_NAMES)
    dur = spans["end"] - spans["start"]
    names = spans["name"]
    parents = spans["parent"]
    child_time = np.zeros(len(spans))
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], dur[has_parent])
    calls = np.bincount(names, minlength=n_names)
    total = np.bincount(names, weights=dur, minlength=n_names)
    self_time = np.bincount(names, weights=dur - child_time, minlength=n_names)
    out: dict = {}
    for i, name in enumerate(SPAN_NAMES):
        out[name] = {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_time[i])}

    linalg_ids = np.array([i for i, n in enumerate(SPAN_NAMES) if n.startswith("linalg.")])
    is_linalg = np.isin(names, linalg_ids)
    parent_linalg = np.zeros(len(spans), dtype=bool)
    parent_linalg[has_parent] = is_linalg[parents[has_parent]]
    entry = is_linalg & ~parent_linalg
    cells = spans["note"][entry]

    def note_sum(name: str) -> int:
        return int(spans["note"][names == SPAN_NAMES.index(name)].sum())

    return {
        "spans": out,
        "linalg_entry_calls": int(entry.sum()),
        "linalg_cells": int(cells.sum()),
        "linalg_small_calls": int((cells < small_cells).sum()),
        "iso_hits": note_sum("modules.is_isomorphic"),
        "classes_kept": note_sum("extensions.filt_enumerate"),
    }
