import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import symbpow
from symbpow import geometry, lp
from symbpow.cli import main
from symbpow.geometry import alpha_polyhedron

ROT3 = "vars: x y z\ngens:\n  x*y^2\n  y*z^2\n  z*x^2\n  x*y*z\n"


@pytest.fixture
def rot3_file(tmp_path):
    p = tmp_path / "rot3.ideal"
    p.write_text(ROT3)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_text(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "info", rot3_file)
    assert code == 0
    assert "waldschmidt: 2" in out
    assert "big_height: 2" in out
    assert "ass: ['(x,y)', '(x,z)', '(y,z)']" in out


def test_info_structured(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "info", rot3_file, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["waldschmidt"] == "2"
    assert payload["sigma"] == 2


def test_scalar_commands(rot3_file, capsys):
    for cmd, expect in (("alpha", "3"), ("beta", "3"), ("bigheight", "2"),
                        ("sigma", "2"), ("waldschmidt", "2")):
        code, out, _ = run_cli(capsys, cmd, rot3_file)
        assert code == 0
        assert out.strip() == expect


def test_ass_text(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "ass", rot3_file)
    assert code == 0
    assert out.splitlines() == ["(x,y)", "(x,z)", "(y,z)"]


def test_maxass_structured(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "maxass", rot3_file, "--format", "structured")
    assert json.loads(out) == {"maxass": [["x", "y"], ["x", "z"], ["y", "z"]]}


def test_symbolic_round_trips(rot3_file, capsys):
    from symbpow.parsing import parse_ideal
    from symbpow.symbolic import symbolic_power

    code, out, _ = run_cli(capsys, "symbolic", rot3_file, "-m", "2")
    assert code == 0
    doc = parse_ideal(out)
    assert doc.ideal == symbolic_power(parse_ideal(ROT3).ideal, 2)


def test_polyhedron_dump(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "polyhedron", rot3_file, "--dump", "--vertices")
    assert code == 0
    lines = out.splitlines()
    assert "P x y" in lines
    assert "G 0 1 0" in lines
    assert "V 2/3 2/3 2/3" in lines


def test_polyhedron_summary(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "polyhedron", rot3_file)
    assert "alpha: 2" in out
    assert "components: 3" in out


def test_containment_exploration(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "containment", rot3_file,
                           "--m", "3", "--s", "1", "--r", "2")
    assert code == 0  # exploratory: a failing containment is a finding
    assert "fails" in out
    assert "x^2*y^2*z^2" in out


def test_suite_exit_zero(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "suite", rot3_file,
                           "--checks", "refined_containment,chudnovsky")
    assert code == 0
    assert "candidate" in out


def test_suite_structured_jsonl(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "suite", rot3_file, "--checks", "chudnovsky",
                           "--format", "structured")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["type"] == "ideal"
    assert rows[0]["vars"] == ["x", "y", "z"]


def test_parse_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: x\ngens:\n  y\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "unknown variable" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "info", "/no/such/file.ideal")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["alpha", "{dir}"],
    ["alpha", "{latin1}"],
    ["alpha", "{rot3}", "--output", "{dir}/missing/out.txt"],
    ["scan", "--count", "1", "--findings", "{dir}"],
], ids=["ideal-is-dir", "not-utf8", "output-dir-missing", "findings-is-dir"])
def test_unreadable_file_is_exit_2(argv, rot3_file, tmp_path, capsys):
    """Exit 1 means a proven statement failed; a file that cannot be read
    or written is bad input, reported on one error line."""
    latin1 = tmp_path / "latin1.ideal"
    latin1.write_bytes(b"vars: x\ngens:\n  x # caf\xe9\n")
    paths = {"dir": tmp_path, "latin1": latin1, "rot3": rot3_file}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    lines = [line for line in err.splitlines() if not line.startswith("note: ")]
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "{latin1}" in argv:
        assert str(latin1) in lines[0] and "(line 3)" in lines[0]


def test_resource_limit_is_exit_3(tmp_path, capsys):
    # the edge ideal of the complete graph on 9 vertices: its symbolic
    # polyhedron has more vertices than the default ray budget allows
    names = " ".join(f"x{i}" for i in range(9))
    gens = "\n".join(f"  x{i}*x{j}" for i in range(9) for j in range(i + 1, 9))
    p = tmp_path / "big.ideal"
    p.write_text(f"vars: {names}\ngens:\n{gens}\n")
    code, _, err = run_cli(capsys, "polyhedron", str(p), "--vertices")
    assert code == 3
    assert "resource limit" in err


def test_verification_failure_is_exit_4(rot3_file, capsys, monkeypatch):
    # an alpha LP whose reported optimum lies outside the polyhedron
    monkeypatch.setattr(lp, "solve_ge", lambda prog: lp.LPResult(
        lp.OPTIMAL, Fraction(0), (Fraction(0),) * len(prog.objective)))
    alpha_polyhedron.cache_clear()
    code, out, err = run_cli(capsys, "waldschmidt", rot3_file)
    assert code == 4
    assert out == ""
    assert err == "verification failed: LP point escapes a component\n"


def test_internal_error_is_exit_5(rot3_file, capsys, monkeypatch):
    """Exit 1 means a proven statement failed; a crash anywhere else is
    exit 5, reported on one line and without a traceback."""
    def crash(Q):
        return 1 // 0

    monkeypatch.setattr(geometry, "alpha_polyhedron", crash)
    code, out, err = run_cli(capsys, "waldschmidt", rot3_file)
    assert code == 5
    assert out == ""
    assert err.splitlines() == [
        "internal error: ZeroDivisionError: integer division or modulo by zero"]


def test_polyhedron_vertices_in_7_variables(tmp_path, capsys):
    names = " ".join(f"x{i}" for i in range(7))
    gens = "\n".join(f"  x{i}" for i in range(7))
    p = tmp_path / "max7.ideal"
    p.write_text(f"vars: {names}\ngens:\n{gens}\n")
    code, out, _ = run_cli(capsys, "polyhedron", str(p), "--vertices")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("V ")] == [
        "V " + " ".join("1" if j == i else "0" for j in range(7)) for i in reversed(range(7))]


def test_unknown_check_rejected(rot3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", rot3_file, "--checks", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["suite", "ROT3", "--checks", ","],
                                  ["scan", "--count", "1", "--checks", ""]],
                         ids=["suite-comma", "scan-empty"])
def test_empty_check_list_is_usage_error(argv, rot3_file, capsys):
    """An empty selection is a usage error, not a request for every check."""
    with pytest.raises(SystemExit) as exc:
        main([rot3_file if a == "ROT3" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error: argument" in line] == [
        f"symbpow {argv[0]}: error: argument --checks: empty check list: {argv[-1]!r}"]


def test_output_flag(rot3_file, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "alpha", rot3_file, "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "3"


def test_scan_findings_file(tmp_path, capsys):
    findings = tmp_path / "findings.jsonl"
    code, out, _ = run_cli(capsys, "scan", "--count", "3", "--seed", "2",
                           "--vars", "3", "--findings", str(findings))
    assert code == 0
    assert findings.exists()
    assert "scan summary:" in out


def test_scan_structured_deterministic(tmp_path, capsys):
    args = ["scan", "--count", "4", "--seed", "9", "--format", "structured"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point(rot3_file):
    # the child imports the package this test imported, whether that came
    # from PYTHONPATH or from pytest's own pythonpath setting
    src = str(Path(symbpow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "symbpow", "alpha", rot3_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3"


def test_cli_import_leaves_numpy_out():
    src = str(Path(symbpow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, symbpow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["symbpow.cli", "symbpow.harness"])
def test_import_leaves_heavy_stdlib_out(module):
    """The command line and the scan machinery (a bench worker's import)
    load no dataclasses, inspect, typing, pathlib or hashlib: start-up
    costs every command.  -S keeps site (and any .pth file) from loading
    them first."""
    src = str(Path(symbpow.__file__).resolve().parent.parent)
    heavy = ("dataclasses", "inspect", "typing", "pathlib", "hashlib")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import {module}; "
         f"print(sorted(m for m in sys.modules if m in {heavy!r}))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_timings_flag(rot3_file, capsys):
    code, out, _ = run_cli(capsys, "suite", rot3_file, "--checks", "chudnovsky",
                           "--timings")
    assert code == 0
    assert "[" in out and "s]" in out


def test_scan_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "scan", "--count", "1", "--checks", "chudnovsky",
                           "--timings")
    assert code == 0
    assert "[" in out and "s]" in out


@pytest.mark.parametrize("argv", [["info"], ["waldschmidt"], ["symbolic", "-m", "2"],
                                  ["polyhedron"], ["alpha"],
                                  ["containment", "--m", "2", "--s", "0", "--r", "1"]])
def test_timings_flag_only_where_it_times(argv, rot3_file, capsys):
    """Only suite and scan print per-check lines to time; elsewhere the flag
    is a usage error, not silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, rot3_file, "--timings"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timings" in capsys.readouterr().err


def test_scan_one_variable_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--vars", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --vars" in err
    assert "Traceback" not in err


def test_containment_negative_s_is_usage_error(rot3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["containment", rot3_file, "--m", "2", "--r", "1", "--s", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --s: must be at least 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--m-max", "-1"), ("--t-max", "0"),
                                         ("--r-max", "0")])
def test_suite_empty_grid_is_usage_error(rot3_file, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["suite", rot3_file, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error: argument" in line] == [
        f"symbpow suite: error: argument {flag}: must be at least 1, got {value}"]
    assert "Traceback" not in err


def test_info_on_zero_ideal_is_exit_2(tmp_path, capsys):
    empty = tmp_path / "zero.ideal"
    empty.write_text("vars: x y\ngens:\n")
    code, out, err = run_cli(capsys, "info", str(empty))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "zero ideal" in err
