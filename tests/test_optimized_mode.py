"""Verification must not rest on assert statements, which `python -O`
strips: the package holds no assert statement, and the LP and geometry
tests, the tampered-result ones included, run again in an interpreter
started with -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lp_and_geometry_tests_pass_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_lp.py", "tests/test_geometry.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "symbpow").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
