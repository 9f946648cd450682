from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import artloc.cli as cli
from artloc.cli import CliError, load_ring, main, parse_module_expr, resolve_element

RINGS = Path(__file__).resolve().parent.parent / "rings"


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
        ["resolve", "example1.ring", "--module", "k", "--steps", "-1"],
    ],
)
def test_bad_flag_values_exit_2_without_traceback(argv):
    argv = [argv[0], _ring(argv[1]), *argv[2:], "--quiet"]
    out = subprocess.run(
        [sys.executable, "-m", "artloc", *argv], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr


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
