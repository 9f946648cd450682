"""Command-line surface.

Subcommands: analyze, resolve, tor, ext1, filt, closure, matrix-check,
diagnose, verify-paper. Ring definition files are plain text:

    file      = header { line }
    header    = "p=" integer " vars=" name { "," name }
    line      = relation | binding | comment | blank
    relation  = polynomial
    binding   = "@" name " = " polynomial
    comment   = "#" any-text  (also allowed after content on a line)

Polynomials follow the parser grammar (juxtaposition products, "^" powers,
no "*" token). Reports are JSON with sorted keys and schema version 1;
given the same input and configuration they are byte-identical across runs.
Elapsed time goes to stderr only.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import linalg
from .algebra import LocalAlgebra, NotLocalError, from_presentation
from .catalog import analyze_payload, invariants_payload, run_corpus
from .diagnose import VERDICT_INCONCLUSIVE, DiagnosisReport, diagnose
from .extensions import (
    DEFAULT_COCYCLE_BUDGET,
    check_matrix_condition,
    ext_closure_contains_k,
    filt_census,
    strict_upper_reduction,
)
from .modules import (
    FpModule,
    FreePresentation,
    RingMatrix,
    cyclic_module,
    ext1,
    free_module,
    minimal_free_resolution,
    quotient_module,
    regular_module,
    residue_field,
    tor,
)
from .polyparse import InfiniteDimensionError, PolyParseError, parse_polynomial


class CliError(Exception):
    """Input problem: bad file, bad expression, bad flag value."""


class RingFile(NamedTuple):
    algebra: LocalAlgebra
    named: dict
    p: int
    variables: list[str]
    relation_texts: list[str]


def load_ring(path: str, p_override: Optional[int] = None) -> RingFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    header = None
    relations: list[tuple[int, str]] = []
    bindings: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if header is None:
            header = (lineno, text)
            continue
        if text.startswith("@"):
            if "=" not in text:
                raise CliError(f"{path}:{lineno}: binding needs '@name = polynomial'")
            name, expr = text[1:].split("=", 1)
            name = name.strip()
            if not name.isidentifier():
                raise CliError(f"{path}:{lineno}: '{name}' is not a valid name")
            bindings.append((lineno, name, expr.strip()))
        else:
            relations.append((lineno, text))
    if header is None:
        raise CliError(f"{path}: empty file, expected 'p=<prime> vars=<names>'")
    lineno, text = header
    tokens = text.split()
    p = None
    variables: list[str] = []
    for tok in tokens:
        if tok.startswith("p="):
            try:
                p = int(tok[2:])
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad characteristic '{tok}'")
        elif tok.startswith("vars="):
            variables = [v.strip() for v in tok[5:].split(",") if v.strip()]
            for i, name in enumerate(variables):
                if not name.isidentifier():
                    raise CliError(f"{path}:{lineno}: '{name}' is not a valid variable name")
                if name in variables[:i]:
                    raise CliError(f"{path}:{lineno}: duplicate variable '{name}'")
        else:
            raise CliError(f"{path}:{lineno}: unexpected token '{tok}' in header")
    if p is None or not variables:
        raise CliError(f"{path}:{lineno}: header must be 'p=<prime> vars=<names>'")
    if p_override is not None:
        p = p_override
    if not linalg.is_prime(p):
        raise CliError(f"{path}:{lineno}: characteristic {p} is not prime")
    if p >= linalg.MAX_MODULUS:
        raise CliError(f"{path}:{lineno}: characteristic {p} is not below 2^16")
    polys = []
    for rel_lineno, rel_text in relations:
        try:
            polys.append(parse_polynomial(rel_text, variables, p))
        except PolyParseError as exc:
            raise CliError(f"{path}:{rel_lineno}: {exc}") from exc
    try:
        A = from_presentation(variables, polys)
    except (InfiniteDimensionError, NotLocalError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    named = {}
    for bind_lineno, name, expr in bindings:
        if name in named:
            raise CliError(f"{path}:{bind_lineno}: '@{name}' is already bound")
        try:
            named[name] = A.element_from_string(expr)
        except PolyParseError as exc:
            raise CliError(f"{path}:{bind_lineno}: {exc}") from exc
        # resolve_element reads a bound name before the polynomial it spells
        try:
            spelled = A.element_from_string(name)
        except PolyParseError:
            continue
        if not np.array_equal(named[name], spelled):
            raise CliError(f"{path}:{bind_lineno}: '@{name}' would shadow the polynomial '{name}'")
    return RingFile(
        algebra=A,
        named=named,
        p=p,
        variables=variables,
        relation_texts=[t for _, t in relations],
    )


def resolve_element(rf: RingFile, text: str) -> np.ndarray:
    text = text.strip()
    if text.startswith("@"):
        name = text[1:]
        if name not in rf.named:
            raise CliError(f"no element named '@{name}' in the ring file")
        return rf.named[name]
    if text in rf.named:
        return rf.named[text]
    try:
        return rf.algebra.element_from_string(text)
    except PolyParseError as exc:
        raise CliError(f"bad element '{text}': {exc}") from exc


def parse_module_expr(rf: RingFile, text: str) -> FpModule:
    """"k", "R", or "R/(g1,g2,...)" with polynomial or @name generators."""
    A = rf.algebra
    t = text.strip()
    if t == "k":
        return residue_field(A)
    if t == "R":
        return regular_module(A)
    if t.startswith("R/(") and t.endswith(")"):
        inner = t[3:-1].strip()
        gens = []
        if inner:
            for piece in inner.split(","):
                gens.append(resolve_element(rf, piece))
        return cyclic_module(A, A.ideal(gens)) if gens else regular_module(A)
    raise CliError(f"bad module expression '{text}' (want k, R, or R/(...))")


def _element_arg(rf: RingFile, text: Optional[str]) -> np.ndarray:
    """The --element of filt, closure and matrix-check; by default the first
    member of an orthogonal generator pair when one exists, else the first
    minimal generator."""
    if text:
        return resolve_element(rf, text)
    A = rf.algebra
    if A.generator_set.cols >= 2:
        pair = A.find_orthogonal_generator_pair()
        if pair is not None:
            return pair[0]
    if A.generator_set.cols == 0:
        raise CliError("the ring is a field; no maximal-ideal element to use")
    return A.generator_set.column(0)


def _render_matrix(A: LocalAlgebra, rm: RingMatrix) -> list[list[str]]:
    """Rendered entries: every row starts as the zero entry, rendered once,
    and each distinct nonzero entry is rendered once and placed where it
    occurs. Nonzero entries are keyed by their coordinate bytes: a base-p
    code overflows int64, and np.unique(axis=0) compares field by field,
    over ten times slower."""
    vals = np.ascontiguousarray(rm.val)
    keys = vals.view(np.dtype((np.void, vals.dtype.itemsize * A.dim))).reshape(len(vals))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    names = [A.render_element(vals[i]) for i in first]
    zero = A.render_element(np.zeros(A.dim, dtype=np.int64))
    grid = [[zero] * rm.cols for _ in range(rm.rows)]
    for r, c, t in zip(rm.row.tolist(), rm.col.tolist(), inverse.tolist()):
        grid[r][c] = names[t]
    return grid


def _census_payload(verdict) -> dict:
    return {
        "contains_k": verdict.contains_k,
        "complete": verdict.complete,
        "depth": verdict.depth,
        "note": verdict.note,
        "census": [c._asdict() for c in verdict.census],
        "witness": {"level": verdict.witness_node.level, "vector": verdict.witness_vector.tolist()}
        if verdict.witness_node is not None
        else None,
    }


# -- command handlers; each takes the parsed arguments and the loaded ring file
# (None for verify-paper) and returns (results, human_lines, exit_code) ----------


def _cmd_analyze(args, rf: RingFile) -> tuple[dict, list[str], int]:
    payload = analyze_payload(rf.algebra)
    lines = [
        f"length {payload['length']}, edim {payload['edim']}, "
        f"hilbert {tuple(payload['hilbert'])}, socle dim {payload['socle_dim']}",
        "flags: " + ", ".join(name for name, on in payload["classify"].items() if on),
        "basis: " + " ".join(payload["basis"]),
    ]
    return payload, lines, 0


def _cmd_resolve(args, rf: RingFile) -> tuple[dict, list[str], int]:
    M = parse_module_expr(rf, args.module)
    res = minimal_free_resolution(M, args.steps)
    results = {
        "module": args.module,
        "betti": list(res.betti),
        "differentials": [_render_matrix(rf.algebra, d) for d in res.differentials],
    }
    lines = ["betti: " + ", ".join(str(b) for b in res.betti)]
    return results, lines, 0


def _cmd_tor(args, rf: RingFile) -> tuple[dict, list[str], int]:
    left = parse_module_expr(rf, args.left)
    right = parse_module_expr(rf, args.right)
    dim = tor(left, right, args.i)
    results = {"left": args.left, "right": args.right, "i": args.i, "dim": dim}
    return results, [f"dim Tor_{args.i}({args.left}, {args.right}) = {dim}"], 0


def _cmd_ext1(args, rf: RingFile) -> tuple[dict, list[str], int]:
    X = parse_module_expr(rf, args.left)
    L = parse_module_expr(rf, args.right)
    es = ext1(X, L)
    results = {
        "left": args.left,
        "right": args.right,
        "dim": es.dim,
        "beta0": es.beta0,
        "beta1": es.beta1,
    }
    return results, [f"dim Ext^1({args.left}, {args.right}) = {es.dim}"], 0


def _cmd_filt(args, rf: RingFile) -> tuple[dict, list[str], int]:
    A = rf.algebra
    x = _element_arg(rf, args.element)
    levels, census, complete = filt_census(A, x, args.depth, budget=args.budget)
    level_payload = [
        {
            "level": c.level,
            "count": c.count,
            "modules": [
                {
                    "dim": dim,
                    "splits_off_k": split,
                    "presentation": _render_matrix(A, node.presentation.relations),
                }
                for node, dim, split in zip(nodes, c.lengths, c.splits)
            ],
        }
        for nodes, c in zip(levels, census)
    ]
    results = {
        "element": A.render_element(x),
        "levels": level_payload,
        "budget_exceeded": not complete,
    }
    lines = [f"level {c.level}: {c.count} classes, dims " + ", ".join(map(str, c.lengths)) for c in census]
    if not complete:
        lines.append("enumeration stopped early: cocycle budget exceeded")
    return results, lines, 0


def _cmd_closure(args, rf: RingFile) -> tuple[dict, list[str], int]:
    A = rf.algebra
    x = _element_arg(rf, args.element)
    verdict = ext_closure_contains_k(A, x, args.depth, budget=args.budget)
    results = {"element": A.render_element(x), **_census_payload(verdict)}
    lines = [
        f"contains_k = {verdict.contains_k} through level {verdict.depth} "
        f"(complete = {verdict.complete})",
        verdict.note,
    ]
    return results, lines, 0


def _cmd_matrix_check(args, rf: RingFile) -> tuple[dict, list[str], int]:
    A = rf.algebra
    x = _element_arg(rf, args.element)
    columns = []
    if args.upper:
        for j, col_text in enumerate(args.upper.split(";"), start=2):
            entries = [resolve_element(rf, piece) for piece in col_text.split(",")]
            if len(entries) != j - 1:
                raise CliError(
                    f"column {j} needs {j - 1} entries, got {len(entries)} "
                    "(format: 'c12;c13,c23;c14,c24,c34')"
                )
            columns.append(entries)
    n = len(columns) + 1
    entries = np.zeros((n, n, A.dim), dtype=np.int64)
    for i in range(n):
        entries[i, i] = x
    for j, col in enumerate(columns, start=1):
        for i, e in enumerate(col):
            entries[i, j] = e
    T = RingMatrix(A, entries)
    qm = quotient_module(free_module(A, n), T.as_linear_map())
    pres = FreePresentation(T, qm.proj.matrix)
    verdicts = check_matrix_condition(pres, x)
    reduction: dict
    try:
        red = strict_upper_reduction(pres)
        reduction = {
            "matrix": _render_matrix(A, red.presentation.relations),
            "complement_ideal_dim": red.complement.dim,
        }
    except ValueError as exc:
        reduction = {"error": str(exc)}
    results = {
        "element": A.render_element(x),
        "matrix": _render_matrix(A, T),
        "columns_pass": verdicts,
        "all_pass": all(verdicts),
        "cokernel_dim": qm.module.dim,
        "reduction": reduction,
    }
    lines = [
        f"matrix {n}x{n}, diagonal {A.render_element(x)}",
        "columns 2..n pass: " + (", ".join(str(v) for v in verdicts) if verdicts else "(none)"),
    ]
    code = 0 if all(verdicts) else 1
    return results, lines, code


def _diagnosis_payload(A: LocalAlgebra, rep: DiagnosisReport) -> dict:
    invariants, flags = invariants_payload(rep.invariants, rep.classification)
    payload = {
        "verdict": rep.verdict,
        "applicable": list(rep.applicable),
        "invariants": invariants,
        "classify": flags,
        "pair": [A.render_element(rep.pair[0]), A.render_element(rep.pair[1])]
        if rep.pair is not None
        else None,
        "bounded_betti": {
            "x": A.render_element(rep.bounded_betti_x),
            "betti": list(rep.bounded_betti_sequence),
        }
        if rep.bounded_betti_x is not None
        else None,
        "goto": {"variable": rep.goto_variable, "l": rep.goto_l}
        if rep.goto_variable is not None
        else None,
        "notes": list(rep.notes),
        "census": _census_payload(rep.census) if rep.census is not None else None,
    }
    return payload


def _cmd_diagnose(args, rf: RingFile) -> tuple[dict, list[str], int]:
    rep = diagnose(rf.algebra, depth=args.depth, budget=args.budget)
    results = _diagnosis_payload(rf.algebra, rep)
    lines = [f"verdict: {rep.verdict}"]
    if len(rep.applicable) > 1:
        lines.append("also applicable: " + ", ".join(rep.applicable[1:]))
    if results["pair"] is not None:
        lines.append("pair: ({}, {})".format(*results["pair"]))
    for note in rep.notes:
        lines.append("note: " + note)
    code = 1 if rep.verdict == VERDICT_INCONCLUSIVE else 0
    return results, lines, code


def _cmd_verify_paper(args, rf) -> tuple[dict, list[str], int]:
    results_list = run_corpus()
    failed = [r for r in results_list if not r.ok]
    results = {
        "passed": len(results_list) - len(failed),
        "failed": len(failed),
        "entries": [r._asdict() for r in results_list],
    }
    lines = []
    for r in results_list:
        mark = "ok  " if r.ok else "FAIL"
        lines.append(f"{mark} {r.id}: {r.description}")
        if not r.ok:
            lines.append(f"     expected {r.expected}, got {r.got}")
    lines.append(f"{results['passed']} passed, {results['failed']} failed")
    return results, lines, 0 if not failed else 1


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artloc",
        description="Exact workbench for Artinian local algebras over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, ring_file=True):
        if ring_file:
            sp.add_argument("ring_file", help="ring definition file")
            sp.add_argument("--p", type=int, default=None, help="override the characteristic")
        sp.add_argument("--json", metavar="PATH", help="write the JSON report here ('-': stdout)")
        sp.add_argument("--quiet", action="store_true", help="no text output, no timing")

    def enumflags(sp):
        sp.add_argument("--depth", type=_int_at_least(1), default=3, help="filt/closure levels (default 3)")
        sp.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_COCYCLE_BUDGET, help="cocycle cap per level")

    sp = sub.add_parser("analyze", help="invariants and classification")
    common(sp)
    sp.set_defaults(handler=_cmd_analyze)

    sp = sub.add_parser("resolve", help="minimal free resolution and Betti numbers")
    common(sp)
    sp.add_argument("--module", default="k", help="k, R, or R/(g1,g2,...)")
    sp.add_argument("--steps", type=_int_at_least(0), default=5, help="resolution steps (default 5)")
    sp.set_defaults(handler=_cmd_resolve)

    sp = sub.add_parser("tor", help="dimension of Tor_i(left, right)")
    common(sp)
    sp.add_argument("--left", default="k")
    sp.add_argument("--right", default="k")
    sp.add_argument("--i", type=_int_at_least(0), default=1)
    sp.set_defaults(handler=_cmd_tor)

    sp = sub.add_parser("ext1", help="dimension of Ext^1(left, right)")
    common(sp)
    sp.add_argument("--left", default="k")
    sp.add_argument("--right", default="k")
    sp.set_defaults(handler=_cmd_ext1)

    sp = sub.add_parser("filt", help="enumerate filt levels of R/(x)")
    common(sp)
    sp.add_argument("--element", default=None, help="x (polynomial or @name); default: auto")
    enumflags(sp)
    sp.set_defaults(handler=_cmd_filt)

    sp = sub.add_parser("closure", help="bounded-depth: does k join the extension closure of R/(x)?")
    common(sp)
    sp.add_argument("--element", default=None, help="x (polynomial or @name); default: auto")
    enumflags(sp)
    sp.set_defaults(handler=_cmd_closure)

    sp = sub.add_parser("matrix-check", help="column condition for a triangular matrix")
    common(sp)
    sp.add_argument("--element", default=None, help="diagonal x; default: auto")
    sp.add_argument(
        "--upper",
        default="",
        help="strict upper entries by column: 'c12;c13,c23;c14,c24,c34'",
    )
    sp.set_defaults(handler=_cmd_matrix_check)

    sp = sub.add_parser("diagnose", help="which nontriviality condition applies")
    common(sp)
    enumflags(sp)
    sp.set_defaults(handler=_cmd_diagnose)

    sp = sub.add_parser("verify-paper", help="run the built-in verification corpus")
    common(sp, ring_file=False)
    sp.set_defaults(handler=_cmd_verify_paper)

    return parser


def json_chunks(value, newline: str = "\n") -> Iterator[str]:
    """The text of json.dumps(value, sort_keys=True, indent=2), byte for
    byte, in pieces, for the text after `newline` (a newline and the current
    indent). Joined, the pieces are the whole text; written one by one, no
    piece is larger than the largest flat list or dict.

    With an indent the json module walks every value in Python. Here only
    the nesting is walked: a nonempty list or dict of scalars, the bulk of a
    report (rows of rendered matrices), goes to the C encoder in one call
    with the indented item separator, and so does every scalar."""
    if not isinstance(value, (list, tuple, dict)) or not value:
        yield json.dumps(value)
        return
    inner = newline + "  "
    is_dict = isinstance(value, dict)
    kinds = set(map(type, value.values() if is_dict else value))
    if not any(issubclass(t, (list, tuple, dict)) for t in kinds):
        flat = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        yield flat[0] + inner + flat[1:-1] + newline + flat[-1]
        return
    if is_dict:
        # json quotes a non-string key's scalar text
        items = ((encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)) + ": ", v)
                 for k, v in sorted(value.items()))
    else:
        items = (("", v) for v in value)
    opening = "{" if is_dict else "["
    for key, v in items:
        yield opening + inner + key
        yield from json_chunks(v, inner)
        opening = ","
    yield newline + ("}" if is_dict else "]")


def _write_report(report: dict, destination: str) -> None:
    """Write the report's JSON text, piece by piece, to the file at
    `destination` or, for '-', to stdout."""
    out = sys.stdout if destination == "-" else open(destination, "w", encoding="utf-8")
    if out is None:  # the interpreter started with stdout closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        out.writelines(json_chunks(report))
        out.write("\n")
        out.flush()
    finally:
        if out is not sys.stdout:
            out.close()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        rf = load_ring(args.ring_file, args.p) if "ring_file" in args else None
        results, lines, code = args.handler(args, rf)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    config = {}
    for key in ("depth", "budget", "steps", "i", "module", "left", "right", "element", "upper"):
        if hasattr(args, key) and getattr(args, key) is not None:
            config[key] = getattr(args, key)
    report = {"schema": 1, "command": args.command, "config": config, "results": results}
    if args.json:
        try:
            _write_report(report, args.json)
        except OSError as exc:
            where = "stdout" if args.json == "-" else args.json
            print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    if not args.quiet and args.json != "-":
        for line in lines:
            print(line)
    if not args.quiet:
        elapsed = time.perf_counter() - start
        print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    return code


# Every command runs in a fresh interpreter that imports this module first.
# The ~22,000 objects the collector tracks by now (numpy's and artloc's module
# state) live until exit; frozen, the collections at exit no longer walk them.
# Not in main(): tests call it many times in one process, and each call would
# pin their uncollected garbage. Not in artloc/__init__: a program using the
# library keeps its collector as it was.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
