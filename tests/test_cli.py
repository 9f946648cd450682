from __future__ import annotations

import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import artloc.cli as cli
from artloc import linalg
from artloc.algebra import check_axioms
from artloc.catalog import complete_intersection_ring, example1_ring
from artloc.cli import CliError, load_ring, main, parse_module_expr, resolve_element
from artloc.modules import Resolution, RingMatrix, residue_field

ROOT = Path(__file__).resolve().parent.parent
RINGS = ROOT / "rings"


def _ring(name: str) -> str:
    return str(RINGS / name)


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "ring.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_ring_parses_header_comments_and_bindings(tmp_path):
    path = _write(
        tmp_path,
        "# a comment line\n"
        "p=2 vars=x,y\n"
        "x^2  # trailing comment\n"
        "xy\n"
        "y^2\n"
        "\n"
        "@u = x + y\n",
    )
    rf = load_ring(path)
    assert rf.p == 2
    assert rf.variables == ["x", "y"]
    assert rf.algebra.dim == 3
    assert rf.relation_texts == ["x^2", "xy", "y^2"]
    assert "u" in rf.named
    assert resolve_element(rf, "@u").tolist() == [0, 1, 1]
    assert resolve_element(rf, "u").tolist() == [0, 1, 1]


def test_load_ring_characteristic_override(tmp_path):
    path = _write(tmp_path, "p=2 vars=x\nx^3\n")
    assert load_ring(path).algebra.dim == 3
    assert load_ring(path, p_override=5).algebra.p == 5


def test_load_ring_error_positions(tmp_path):
    bad_rel = _write(tmp_path, "p=2 vars=x,y\nx*2\n")
    with pytest.raises(CliError) as err:
        load_ring(bad_rel)
    assert ":2:" in str(err.value)
    assert "juxtaposition" in str(err.value)
    duplicate = _write(tmp_path, "# x twice\np=2 vars=x,y,x\nx^2\ny^2\n")
    with pytest.raises(CliError) as err:
        load_ring(duplicate)
    assert str(err.value) == f"{duplicate}:2: duplicate variable 'x'"
    with pytest.raises(CliError) as err:
        load_ring(_write(tmp_path, "p=2 vars=x,2x\nx^2\n"))
    assert ":1: '2x' is not a valid variable name" in str(err.value)
    with pytest.raises(CliError) as err:
        load_ring(_write(tmp_path, "p=65537 vars=x\nx^2\n"))
    assert ":1: characteristic 65537 is not below 2^16" in str(err.value)
    shadow = _write(tmp_path, "p=2 vars=x,y\nx^2\nxy\ny^2\n@x = x\n@y = x\n")
    with pytest.raises(CliError) as err:
        load_ring(shadow)
    assert str(err.value) == f"{shadow}:6: '@y' would shadow the polynomial 'y'"
    rebound = _write(tmp_path, "p=2 vars=x,y\nx^2\nxy\ny^2\n@u = x\n# again\n@u = y\n")
    with pytest.raises(CliError) as err:
        load_ring(rebound)
    assert str(err.value) == f"{rebound}:7: '@u' is already bound"


def test_load_ring_rejects_bad_headers(tmp_path):
    for text in ("", "vars=x\nx^2\n", "p=4 vars=x\nx^2\n", "p=2 bogus\nx^2\n"):
        with pytest.raises(CliError):
            load_ring(_write(tmp_path, text))


def test_parse_module_expressions(tmp_path):
    rf = load_ring(_ring("example1.ring"))
    assert parse_module_expr(rf, "k").dim == 1
    assert parse_module_expr(rf, "R").dim == 6
    assert parse_module_expr(rf, "R/(x)").dim == 4
    assert parse_module_expr(rf, "R/(x, y)").dim == 3
    with pytest.raises(CliError):
        parse_module_expr(rf, "Q/(x)")
    with pytest.raises(CliError):
        resolve_element(rf, "@missing")


def test_analyze_human_output(capsys):
    code = main(["analyze", _ring("example1.ring")])
    out = capsys.readouterr()
    assert code == 0
    assert "length 6, edim 4, hilbert (1, 4, 1), socle dim 1" in out.out
    assert "gorenstein" in out.out
    assert "elapsed" in out.err


def test_analyze_json_stdout_is_pure(capsys):
    code = main(["analyze", _ring("example1.ring"), "--json", "-"])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)  # would fail if human lines were mixed in
    assert report["schema"] == 1
    assert report["command"] == "analyze"
    assert report["results"]["hilbert"] == [1, 4, 1]
    assert report["results"]["basis"] == ["1", "x", "y", "z", "w", "yw"]


def test_quiet_suppresses_everything(capsys):
    code = main(["analyze", _ring("example1.ring"), "--quiet"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == ""
    assert out.err == ""


def test_resolve_betti_line(capsys):
    code = main(
        ["resolve", _ring("dual_numbers.ring"), "--module", "k", "--steps", "3"]
    )
    out = capsys.readouterr()
    assert code == 0
    assert "betti: 1, 1, 1, 1" in out.out


def test_resolve_stops_before_a_dense_block_over_the_cap(monkeypatch, capsys):
    """sparse_rref raises before it allocates a dense block of more than
    linalg.DENSE_CELL_CAP cells, and resolve exits 2 naming the block and
    the cap. Capped at 56 x 264 cells, the resolution of k over example1
    runs four steps, that block's exactly at the cap, and stops at step 5's
    209 x 988 block."""
    monkeypatch.setattr(linalg, "DENSE_CELL_CAP", 56 * 264)
    assert main(["resolve", _ring("example1.ring"), "--steps", "4", "--quiet"]) == 0
    assert main(["resolve", _ring("example1.ring"), "--steps", "5", "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: dense elimination block too large: 209 x 988 = 206492 cells, over the cap of 14784\n")


def test_resolve_json_includes_differentials(tmp_path):
    target = tmp_path / "report.json"
    code = main(
        [
            "resolve",
            _ring("example1.ring"),
            "--module",
            "R/(x)",
            "--steps",
            "2",
            "--json",
            str(target),
            "--quiet",
        ]
    )
    assert code == 0
    report = json.loads(target.read_text())
    assert report["results"]["betti"] == [1, 1, 3]
    assert report["results"]["differentials"][0] == [["x"]]


@lru_cache(maxsize=None)
def _render_ring(name, p):
    return {"ci": complete_intersection_ring, "example1": example1_ring}[name](p)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([2, 3, 5, 65521]),
    st.sampled_from(["ci", "example1"]),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(1, 4),
)
@example(0, 65521, "example1", 3, 2, 3)
@example(0, 5, "ci", 0, 3, 2)
@example(0, 3, "example1", 2, 0, 2)
def test_render_matrix_matches_per_entry_rendering(seed, p, name, rows, cols, distinct):
    """Rendering each distinct entry once gives the per-entry lists, also
    over F_65521, where p^dim passes 2^63 and base-p codes would collide."""
    A = _render_ring(name, p)
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, p, size=(distinct, A.dim))
    if A.dim >= 5 and p > 2**12:
        # its base-p code is 2^64, which wraps to the code of 0 in int64
        wrap = [(2**64 - p**4) // p**i % p for i in range(4)] + [1] + [0] * (A.dim - 5)
        assert sum(c * p**i for i, c in enumerate(wrap)) == 2**64
        pool = np.vstack([pool, np.zeros(A.dim, dtype=np.int64), wrap])
    rm = RingMatrix(A, pool[rng.integers(0, len(pool), size=(rows, cols))])
    want = [[A.render_element(rm.entries[i, j]) for j in range(cols)] for i in range(rows)]
    assert cli._render_matrix(A, rm) == want


@pytest.mark.parametrize(
    "rows, cols, nonzero",
    [(0, 0, ()), (0, 4, ()), (4, 0, ()), (3, 5, ()), (3, 5, ((0, 4), (2, 0), (2, 1))), (2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))],
)
def test_render_matrix_fills_the_zero_entries(rows, cols, nonzero):
    """Empty, all-zero, mostly-zero and all-nonzero matrices: the zero
    entry fills every position no nonzero entry holds."""
    A = _render_ring("example1", 3)
    entries = np.zeros((rows, cols, A.dim), dtype=np.int64)
    for t, (i, j) in enumerate(nonzero):
        entries[i, j, 1 + t % (A.dim - 1)] = 1 + t % 2
    rm = RingMatrix(A, entries)
    want = [[A.render_element(entries[i, j]) for j in range(cols)] for i in range(rows)]
    assert cli._render_matrix(A, rm) == want


def test_render_matrix_memory_stays_near_its_output():
    """Rendering the 209 x 780 differential of k over example1 (988 nonzero
    entries) keeps its traced peak under 6 MB: only the nonzero entries are
    keyed. Keying all 163,020 entries peaked at 18.8 MB."""
    A = example1_ring(2)
    d = Resolution(residue_field(A), 5).differential(5)
    tracemalloc.start()
    try:
        cli._render_matrix(A, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("argv", [("filt", _ring("goto.ring"), "--depth", "2"), ("verify-paper",)])
def test_commands_do_not_import_numpy_ma(argv, tmp_path):
    """np.unique without return_index checks for a masked array and so
    imports numpy.ma (about 20 ms); a fresh interpreter never loads it."""
    script = (
        "import sys\n"
        "from artloc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.exit(3 if 'numpy.ma' in sys.modules else code)\n"
    )
    argv = [*argv, "--quiet", "--json", str(tmp_path / "report.json")]
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_importing_the_cli_leaves_out_dataclasses():
    """The package's records are NamedTuples and slots classes: importing
    dataclasses (and copy) and decorating 14 classes took about 15 ms of
    every command's start."""
    script = "import sys, artloc.cli\nsys.exit(3 if 'dataclasses' in sys.modules else 0)\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_the_cli_freezes_the_heap_once_at_import():
    """Importing the CLI moves the import-time heap to the permanent
    generation, so the collections at exit skip it; calling `main` freezes
    nothing more, or each in-process call would pin the caller's garbage."""
    script = "import gc, sys, artloc.cli\nsys.exit(0 if gc.get_freeze_count() > 0 else 3)\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    frozen = gc.get_freeze_count()
    for _ in range(2):
        assert main(["resolve", _ring("example1.ring"), "--steps", "2", "--quiet"]) == 0
    assert gc.get_freeze_count() == frozen


def test_module_entrypoint_writes_the_pinned_report(tmp_path):
    """`python -m artloc` exits with the heap frozen; the report it wrote
    keeps the bytes pinned for filt-example1-3 in
    test_json_reports_keep_their_pinned_bytes."""
    target = tmp_path / "report.json"
    argv = ["filt", _ring("example1.ring"), "--depth", "3", "--quiet", "--json", str(target)]
    subprocess.run([sys.executable, "-m", "artloc", *argv], capture_output=True, timeout=120, check=True)
    digest = "a7396f37d3d0862b2718ede7a55aa9a0278fd9773dfb9d47167c2a37dad539fe"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_tor_command(capsys):
    code = main(
        [
            "tor",
            _ring("complete_intersection.ring"),
            "--left",
            "R/(x)",
            "--right",
            "R/(y)",
            "--i",
            "1",
        ]
    )
    out = capsys.readouterr()
    assert code == 0
    assert "dim Tor_1(R/(x), R/(y)) = 0" in out.out


def test_ext1_command(capsys):
    code = main(["ext1", _ring("dual_numbers.ring"), "--left", "k", "--right", "k"])
    out = capsys.readouterr()
    assert code == 0
    assert "dim Ext^1(k, k) = 1" in out.out


def test_filt_command_levels(capsys):
    code = main(["filt", _ring("pair.ring"), "--element", "x", "--depth", "3"])
    out = capsys.readouterr()
    assert code == 0
    assert "level 1: 1 classes" in out.out
    assert "level 2: 2 classes" in out.out
    assert "level 3: 3 classes" in out.out


def test_closure_positive_exit_zero(capsys):
    code = main(["closure", _ring("dual_numbers.ring"), "--depth", "2"])
    out = capsys.readouterr()
    assert code == 0
    assert "contains_k = True" in out.out


def test_closure_negative_still_exit_zero(capsys):
    code = main(["closure", _ring("pair.ring"), "--depth", "2"])
    out = capsys.readouterr()
    assert code == 0
    assert "contains_k = False" in out.out
    assert "bounded-depth evidence" in out.out


def test_matrix_check_pass_and_fail(capsys):
    code_ok = main(
        ["matrix-check", _ring("dual_numbers.ring"), "--element", "x", "--upper", "1"]
    )
    assert code_ok == 0
    code_bad = main(
        ["matrix-check", _ring("pair.ring"), "--element", "x", "--upper", "1"]
    )
    assert code_bad == 1
    out = capsys.readouterr()
    assert "columns 2..n pass: False" in out.out


def test_matrix_check_needs_full_columns():
    code = main(
        [
            "matrix-check",
            _ring("pair.ring"),
            "--element",
            "x",
            "--upper",
            "y;y",
            "--quiet",
        ]
    )
    assert code == 2


def test_diagnose_exit_codes(tmp_path, capsys):
    code = main(["diagnose", _ring("pair.ring"), "--depth", "2"])
    out = capsys.readouterr()
    assert code == 0
    assert "verdict: Nontrivial_OrthogonalPair" in out.out
    assert "pair: (x, y)" in out.out
    inconclusive = _write(tmp_path, "p=3 vars=x,y\nx^2+y^2\nx^3\n")
    code = main(["diagnose", inconclusive, "--quiet"])
    assert code == 1


def test_missing_ring_file_is_a_usage_error(capsys):
    code = main(["analyze", "no-such-file.ring"])
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err


def test_isomorphism_decision_over_its_cap_is_a_usage_error(monkeypatch, capsys):
    """A top-map determinant past the cap stops the census with exit 2 and
    one error line naming r, mu and the cap, not a traceback."""
    monkeypatch.setattr(linalg, "DETERMINANT_CELL_CAP", 1)
    code = main(["filt", _ring("goto.ring"), "--depth", "3"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: top-map determinant too large: r = ")
    assert ", mu = " in out.err and "cap of 1\n" in out.err
    assert "Traceback" not in out.err + out.out


@pytest.mark.parametrize(
    "message, line",
    [("Unable to allocate 4.16 GiB", "error: out of memory: Unable to allocate 4.16 GiB\n"), ("", "error: out of memory\n")],
    ids=["message", "empty"],
)
def test_out_of_memory_is_a_usage_error(monkeypatch, capsys, message, line):
    """A MemoryError from a handler's computation exits 2 with one error
    line, not a traceback; the handler's callee raises it, so nothing large
    is allocated."""

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "tor", exhausted)
    code = main(["tor", _ring("complete_intersection.ring"), "--left", "R/(x)", "--right", "R/(y)", "--i", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == line and out.out == ""


def test_bad_relation_reports_position(tmp_path, capsys):
    path = _write(tmp_path, "p=2 vars=x,y\nx*2\n")
    code = main(["analyze", path])
    out = capsys.readouterr()
    assert code == 2
    assert "position 1" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "example1.ring", "--p", "65537"],
        ["tor", "example1.ring", "--left", "k", "--right", "k", "--i", "-1"],
        ["filt", "example1.ring", "--element", "1"],
        ["filt", "example1.ring", "--depth", "0"],
        ["filt", "pair.ring", "--budget", "0"],
        ["resolve", "example1.ring", "--module", "k", "--steps", "-1"],
        ["analyze", "p=2 vars=x,y,x\nx^2\ny^2\n"],
        ["matrix-check", "pair.ring", "--element", "1"],
    ],
)
def test_bad_flag_values_exit_2_without_traceback(argv, tmp_path):
    """argv[1] names a corpus ring file, or is the text of a ring file."""
    ring = _ring(argv[1]) if argv[1].endswith(".ring") else _write(tmp_path, argv[1])
    argv = [argv[0], ring, *argv[2:], "--quiet"]
    out = subprocess.run(
        [sys.executable, "-m", "artloc", *argv], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("target", ["missing-dir", "directory", "/dev/full"])
def test_unwritable_report_destination_exits_2_without_traceback(target, tmp_path):
    """A report path that cannot be opened, and a device that fails the
    write after the file is open, end in one error line naming the path."""
    if target == "/dev/full" and not Path(target).exists():
        pytest.skip("no /dev/full")
    path = {"missing-dir": str(tmp_path / "no" / "r.json"), "directory": str(tmp_path)}.get(target, target)
    argv = ["resolve", _ring("example1.ring"), "--steps", "3", "--quiet", "--json", path]
    out = subprocess.run(
        [sys.executable, "-m", "artloc", *argv], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in out.stderr


def test_closed_stdout_pipe_exits_2_without_traceback():
    """A reader that stops after the first bytes of a streamed report."""
    argv = ["resolve", _ring("example1.ring"), "--steps", "5", "--quiet", "--json", "-"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "artloc", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    assert err == "error: stdout: Broken pipe\n"


def test_stdout_closed_at_start_exits_2_without_traceback():
    """With file descriptor 1 closed, the interpreter has no sys.stdout."""
    argv = ["resolve", _ring("example1.ring"), "--steps", "2", "--quiet", "--json", "-"]
    out = subprocess.run(
        [sys.executable, "-m", "artloc", *argv], stderr=subprocess.PIPE, text=True, timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert out.returncode == 2
    assert out.stderr == "error: stdout: Bad file descriptor\n"


def test_readme_examples_exit_0(monkeypatch, capsys):
    """Every command of README's Examples block runs as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "artloc" for argv in commands)
    monkeypatch.chdir(ROOT)
    for argv in commands:
        assert main([*argv[1:], "--quiet"]) == 0, argv


def test_json_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(
            [
                "filt",
                _ring("pair.ring"),
                "--element",
                "x",
                "--depth",
                "3",
                "--json",
                str(target),
                "--quiet",
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["filt", "example1.ring", "--depth", "3"],
         "a7396f37d3d0862b2718ede7a55aa9a0278fd9773dfb9d47167c2a37dad539fe"),
        (["filt", "goto.ring", "--depth", "4"],
         "808a5a2506dfebe2e779d926e1095297f85101066d1e99bc37542598de4fa40f"),
        (["closure", "stretched.ring", "--depth", "3"],
         "741655e94f82d322230d72dc10992a5f8d82eb040cbc073edc33a518009bdb61"),
        (["closure", "stretched.ring", "--depth", "4"],
         "6e3f56fcc09b313e23842a63298aba334d72e73c9c5f9db138f66610808409bd"),
        # the only corpus census whose scans reach Ext^1 dimension 12: 4,096 monic cocycles
        (["closure", "goto.ring", "--depth", "5"],
         "dfa63a1339aeb8a1e6aa7044fbd2195e78bfc99895d7e25772becc7fe1a4e863"),
        # over F_5 the depth-4 merges are decided by the reduced top-map determinant
        (["filt", "pair.ring", "--p", "5", "--depth", "4"],
         "86aef7c2e68edf0c09c2fdff3bd46d4ca3d84bc0fcfcf5249de93d6f99751ff6"),
        # the budget stops level 3: the reports keep the finished levels
        (["filt", "goto.ring", "--depth", "4", "--budget", "10"],
         "2b424a2ad7ad1518953dcc929704234cc7f7dbceac79fcd1b3327294dc19552c"),
        (["closure", "goto.ring", "--depth", "4", "--budget", "10"],
         "265e7cc3169365149ebd3242591c14720a2b58cd35e31727a21ad66d98c6b455"),
        (["diagnose", "complete_intersection.ring", "--depth", "2"],
         "3bbf2aae5a32d2151bcb4c93ffb823eb9534f96ea53a0a205e4515d5b9f758a9"),
        (["diagnose", "dual_numbers.ring", "--depth", "2"],
         "d8ec85ba2ef4245c37b3539d8cff3c828d330483164c371faadd5fa46eb528b5"),
        (["diagnose", "example1.ring", "--depth", "2"],
         "60f0577ea4d5ded471c1de3fccf1c49a2e2cac7da6266c3619c1dbce9a0d7673"),
        (["diagnose", "goto.ring", "--depth", "2"],
         "bf43a265cbbdda975e370e8e0a9675658f38729eded60d9d61f09770cc098eb8"),
        (["diagnose", "hypersurface4.ring", "--depth", "2"],
         "6cd6387ee26f8e8a9a4560253c325cf9064a7db97cc36f1df12506db51076ca2"),
        (["diagnose", "pair.ring", "--depth", "2"],
         "2df11a42b3f41f3b064785824f3c9da3d5e230f5fe01019ce87153be8e03c438"),
        (["diagnose", "stretched.ring", "--depth", "2"],
         "d07997c7ccd07cdb4153bc698002e5595ef26d6fe7097d72c5a73b0d4488817a"),
        (["ext1", "goto.ring", "--left", "k", "--right", "R"],
         "838a983a9b85919194cb8164abfaad95264a81f45c28b7aa89083197b9daa7d9"),
        (["matrix-check", "dual_numbers.ring", "--element", "x", "--upper", "1"],
         "92b1406bf7b3321345027d81a693d2fee321ceecc7b4b76fd9489a359e03dc46"),
        (["analyze", "complete_intersection.ring"],
         "e576cd4bc37a4f6659f3f3208acf7bd7698b811c081d57daeabfe1e4bbd4fdb9"),
        (["analyze", "dual_numbers.ring"],
         "569f1956432ceb6e55a3534e83c9963989b299c1cc2c1d9c284c583f896a38ee"),
        (["analyze", "example1.ring"],
         "3445ae5fbe944f8df61e241939afc01d3ac3844433918a0332d6c8ebc855bfd2"),
        (["analyze", "goto.ring"],
         "f818aa91d6e9a517535496943c48287333d342e03f60bfa90dfc4a736094248c"),
        (["analyze", "hypersurface4.ring"],
         "6e6209ed9073446623f904d5d86f0c0ae94b465a76965ceeeeef8363277dc299"),
        (["analyze", "pair.ring"],
         "732a43cbb67444038bdcf0dcfab71e7880f964e9135fd8918978f8ce5a2025e3"),
        # the one ring file that is not graded: m^k has a part below degree k
        (["analyze", "stretched.ring"],
         "81aa6286891abf52e806439b85d95b1b06b481e28e120ef143fdcc2c7a8f8a9e"),
        (["analyze", "monomial64.ring"],
         "41285335e0241fcf8fc7dcb98b3aca831e8e32e62a44d12fa8b9670c608f3de8"),
        (["analyze", "gorenstein64-seed0.ring"],
         "c10dfa160751c540f2a86cee141d2cf8c459b9a2eca7b3576800ad70e7836963"),
    ],
    ids=["filt-example1-3", "filt-goto-4", "closure-stretched-3", "closure-stretched-4", "closure-goto-5",
         "filt-pair5-4", "filt-goto-4-budget10", "closure-goto-4-budget10", "diagnose-ci-2", "diagnose-dual-2",
         "diagnose-example1-2", "diagnose-goto-2", "diagnose-hypersurface4-2", "diagnose-pair-2",
         "diagnose-stretched-2", "ext1-goto-kR", "matrix-check-dual-x-1", "analyze-ci", "analyze-dual",
         "analyze-example1", "analyze-goto", "analyze-hypersurface4", "analyze-pair", "analyze-stretched",
         "analyze-monomial64", "analyze-gorenstein64-seed0"],
)
def test_json_reports_keep_their_pinned_bytes(argv, digest, tmp_path):
    """Which cocycles filt builds may change; the reported classes, their
    order, presentations and verdicts may not. These reports are pinned by
    SHA-256 to the bytes the full scan of monic cocycles produced; the
    diagnose, ext1, matrix-check and budget-stopped reports to the bytes
    they had before they were built from the library's records; the
    analyze reports to the bytes they had while every power of m was
    eliminated whole."""
    target = tmp_path / "report.json"
    assert main([argv[0], _pinned_ring(argv[1], tmp_path), *argv[2:], "--json", str(target), "--quiet"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# the ring-load draw of seed 0: every coefficient of the three quartics is 1
GORENSTEIN64_SEED0 = ("# seeded ring-load draw (seed 0): three quartics over F_3, coefficients (1, 1, 1, 1, 1, 1)\n"
                      "p=3 vars=x,y,z\nx^4+y^3z\ny^4+z^3x\nz^4+x^3y\n")


def _pinned_ring(name: str, tmp_path) -> str:
    """A file of rings/, the benchmark's monomial64.ring, or the seed-0
    ring-load draw written to tmp_path."""
    if name == "monomial64.ring":
        return str(ROOT / "perfbench" / "rings" / name)
    if name == "gorenstein64-seed0.ring":
        return _write(tmp_path, GORENSTEIN64_SEED0)
    return _ring(name)


@pytest.mark.parametrize(
    "ring, argv",
    [
        ("goto.ring", ["--depth", "4", "--budget", "10"]),
        ("pair.ring", ["--element", "y", "--depth", "3"]),
        ("hypersurface4.ring", ["--depth", "2"]),
    ],
    ids=["goto-budget-stopped", "pair-y", "hypersurface4-splits"],
)
def test_filt_and_closure_report_the_same_census(ring, argv, tmp_path):
    """filt and closure on one ring, element and budget report the same
    classes per level, their lengths and k-summand flags, and filt's
    budget_exceeded is closure's complete negated."""
    reports = {}
    for command in ("filt", "closure"):
        target = tmp_path / f"{command}.json"
        assert main([command, _ring(ring), *argv, "--json", str(target), "--quiet"]) == 0
        reports[command] = json.loads(target.read_text())["results"]
    filt, closure = reports["filt"], reports["closure"]
    assert [
        {"level": level["level"], "count": level["count"], "lengths": [m["dim"] for m in level["modules"]],
         "splits": [m["splits_off_k"] for m in level["modules"]]}
        for level in filt["levels"]
    ] == closure["census"]
    assert filt["budget_exceeded"] == (not closure["complete"])


def test_verify_paper_report_keeps_its_pinned_bytes(tmp_path):
    """The verify-paper report, one entry per corpus check, keeps its bytes."""
    target = tmp_path / "report.json"
    assert main(["verify-paper", "--json", str(target), "--quiet"]) == 0
    digest = "413c94413b7e5ad418e092c2b67228d18410bd094fe77d123039031e196cf3d3"
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "ring, element, dims, splits, digest",
    [
        ("goto.ring", "0", [8, 16, 24], False,
         "1860679eea40c29080678e2656276c38879f13420d4eee04dd4a7cf4e0daa91c"),
        ("p=2 vars=x\nx^1\n", "x", [1, 2, 3], True,
         "bb3c7d9af32505ff2067a8225cb3c368b2592cbbc9948349e863d8b6feddc5c5"),
    ],
    ids=["goto-free-x", "field"],
)
def test_filt_edge_censuses_keep_their_pinned_bytes(ring, element, dims, splits, digest, tmp_path):
    """Two censuses at the edges of the block build, to depth 3: over goto
    with x = 0, X = R is free, so F_1 = 0 and every Ext^1(X, Y) is zero;
    over the field F_2 (embedding dimension 0) each level is one k^n, and
    k splits off every class. Each level has one class of the given
    dimension, and the reports keep the bytes they had before the blocks
    were built in bulk."""
    path = _ring(ring) if ring.endswith(".ring") else _write(tmp_path, ring)
    target = tmp_path / "report.json"
    assert main(["filt", path, "--element", element, "--depth", "3", "--json", str(target), "--quiet"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
    levels = json.loads(target.read_text())["results"]["levels"]
    assert [[m["dim"] for m in level["modules"]] for level in levels] == [[d] for d in dims]
    assert all(m["splits_off_k"] == splits for level in levels for m in level["modules"])


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["resolve", "example1.ring", "--module", "k", "--steps", "5"],
         "746dd22393c1f51cada433cd8fb0f8415c000ccb37d33750566834060377e327"),
        (["tor", "stretched.ring", "--left", "k", "--right", "k", "--i", "5"],
         "a59049ddfbba85ae36b833054d433819eaf30b47f365b20e73ec36549beef64f"),
        (["resolve", "stretched.ring", "--module", "k", "--steps", "4"],
         "62cd57bab9adc7c86cf42006d29b4eb8f70c8627dd7946d4ff4db6b048e59e30"),
        (["tor", "example1.ring", "--left", "k", "--right", "R", "--i", "4"],
         "3da5097acd459f83d5fad910ffd49183e27cbb254e04a019d3c8291cdaeac8de"),
    ],
    ids=["resolve-example1-5", "tor-stretched-5", "resolve-stretched-4", "tor-example1-kR-4"],
)
def test_resolution_reports_keep_their_pinned_bytes(argv, digest, tmp_path):
    """Resolution steps that skip zero blocks, and the report writer, leave
    the resolve and tor reports as the dense steps and json.dumps wrote them."""
    target = tmp_path / "report.json"
    assert main([argv[0], _ring(argv[1]), *argv[2:], "--json", str(target), "--quiet"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.text(max_size=6)
)


@settings(deadline=None, max_examples=200)
@given(st.recursive(_json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=30))
@example([])
@example({})
@example({"a": [[], {}, [1, -2]], "\u00e9\u4e2d": [True, None, "\u00fc\n"]})
def test_json_text_matches_json_dumps(value):
    """The report writer's pieces, joined, give the bytes of
    json.dumps(sort_keys=True, indent=2) on nested values: empty lists and
    dicts, non-ASCII strings, bools, None and negative ints, at every depth."""
    assert "".join(cli.json_chunks(value)) == json.dumps(value, sort_keys=True, indent=2)


def test_report_write_memory_stays_near_one_row(monkeypatch, tmp_path):
    """Writing the resolve report of k over example1 to step 5 (2.6 MB of
    JSON) traces under 1 MB once the results are built: the text goes to the
    file piece by piece. Building it as one string peaked at 7.56 MB."""
    handler = cli._cmd_resolve

    def traced_from_return(args, rf):
        out = handler(args, rf)
        tracemalloc.start()
        return out

    monkeypatch.setattr(cli, "_cmd_resolve", traced_from_return)
    target = tmp_path / "report.json"
    try:
        assert main(["resolve", _ring("example1.ring"), "--module", "k", "--steps", "5",
                     "--json", str(target), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 2 * 2**20
    assert peak < 2**20


def test_json_stdout_matches_the_report_file(tmp_path):
    """`--json -` streams the same bytes to stdout as `--json PATH` writes."""
    argv = ["resolve", _ring("example1.ring"), "--module", "k", "--steps", "3", "--quiet"]
    target = tmp_path / "report.json"
    assert main([*argv, "--json", str(target)]) == 0
    out = subprocess.run(
        [sys.executable, "-m", "artloc", *argv, "--json", "-"], capture_output=True, timeout=60, check=True
    )
    assert out.stdout == target.read_bytes()


@pytest.mark.parametrize(
    "text, digest",
    [
        (None, "41285335e0241fcf8fc7dcb98b3aca831e8e32e62a44d12fa8b9670c608f3de8"),
        ("p=3 vars=x,y,z\nx^4+y^3z\ny^4+z^3x\nz^4+x^3y\n",
         "c10dfa160751c540f2a86cee141d2cf8c459b9a2eca7b3576800ad70e7836963"),
    ],
    ids=["monomial64", "gorenstein64"],
)
def test_analyze_reports_on_long_rings_keep_their_pinned_bytes(text, digest, tmp_path):
    """Length-64 rings: F_2[x,y]/(x^8, y^8) from the benchmark's ring file and
    the Gorenstein ring of three quartics over F_3, pinned by SHA-256."""
    ring = str(ROOT / "perfbench" / "rings" / "monomial64.ring") if text is None else _write(tmp_path, text)
    target = tmp_path / "report.json"
    assert main(["analyze", ring, "--json", str(target), "--quiet"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_verify_paper_module_entrypoint():
    out = subprocess.run(
        [sys.executable, "-m", "artloc", "verify-paper", "--quiet", "--json", "-"],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(out.stdout)
    assert report["results"]["failed"] == 0
    assert report["results"]["passed"] >= 20
    assert all(entry["ok"] for entry in report["results"]["entries"])


def test_verify_paper_human_lines(capsys):
    code = main(["verify-paper"])
    out = capsys.readouterr()
    assert code == 0
    lines = [l for l in out.out.splitlines() if l.startswith("ok  ")]
    assert len(lines) >= 20
    assert "0 failed" in out.out


_JUNK = st.sampled_from(["*", "(", ")", "^^", "@", "=", "x^", "1/2", "--", "p=", "vars=", "2x"])


@st.composite
def _ring_text(draw):
    """Ring files from a small grammar: a header with one or two variables,
    pure powers and mixed relations with exponents up to 3, a binding, and
    junk tokens or a bad header now and then."""
    def rare():
        return draw(st.integers(0, 5)) == 5

    variables = draw(st.lists(st.sampled_from(["x", "y", "t"]), min_size=1, max_size=2, unique=True))
    names = variables + ([draw(st.sampled_from(["x", "", "2x", "y^"]))] if rare() else [])
    p = draw(st.sampled_from(["4", "1", "q", "65537"] if rare() else ["2", "3", "5"]))
    header = [f"p={p}", "vars=" + ",".join(names)] + ([draw(_JUNK)] if rare() else [])
    lines = [" ".join(draw(st.permutations(header)))]
    for v in variables:
        if not rare():
            lines.append(f"{v}^{draw(st.integers(1, 3))}")
    for _ in range(draw(st.integers(0, 2))):
        line = ""
        for _ in range(draw(st.integers(1, 3))):
            line += draw(st.sampled_from(["+", "-", "+2", "-3"]))
            line += "".join(f"{v}^{draw(st.integers(0, 3))}" for v in variables)
        lines.append(line.lstrip("+") + (" " + draw(_JUNK) if rare() else ""))
    if draw(st.booleans()):
        tail = draw(st.sampled_from(["", " + 1", " =", " + z"]))
        lines.append(f"@u = {draw(st.sampled_from(variables))}{tail}")
    return "\n".join(lines) + "\n"


_FLAGS = st.one_of(
    st.just(["analyze"]),
    st.builds(lambda n: ["resolve", "--steps", str(n)], st.integers(-1, 3)),
    st.builds(lambda n: ["tor", "--i", str(n)], st.integers(-1, 3)),
    st.builds(
        lambda e: ["filt", "--depth", "2"] + (["--element", e] if e else []),
        st.sampled_from([None, "x", "y", "1", "0", "@u", "x^2", "q"]),
    ),
)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ring_text(), _FLAGS)
@example("p=2 vars=x,y\nx^2\ny^2\n", ["filt", "--depth", "2", "--element", "1"])
@example("p=65537 vars=x\nx^2\n", ["tor", "--i", "1"])
def test_cli_contract_holds_for_generated_inputs(tmp_path, text, flags):
    path = _write(tmp_path, text)
    try:
        code = main([flags[0], path, *flags[1:], "--quiet"])
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    assert code in (0, 1, 2)
    # a ring that loads is trusted from then on, so its table must be sound
    try:
        A = load_ring(path).algebra
    except (CliError, ValueError):
        return
    assert check_axioms(A) == []
