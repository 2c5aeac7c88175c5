"""Every module of the package reads each name it imports: an import left
behind by a change costs start-up time and misleads the reader.  Names a
module lists in __all__ count as read.  And each command imports only the
modules it runs: the package namespace resolves its names lazily."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symbpow
from symbpow.cli import COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src" / "symbpow"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\n__all__ = ['d']\n") == [
        "b (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


# the only lru_caches: kernel memos keyed by integers, not by an ideal
KERNEL_MEMOS = {"_compositions", "_step_gathers", "_upper_set"}


def lru_cached(source: str) -> list[str]:
    """The functions and classes that functools.lru_cache or cache
    decorates, by any spelling: @lru_cache, @lru_cache(...), @cache,
    @functools.cache."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for dec in getattr(node, "decorator_list", ()):
            target = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
                found.append(node.name)
    return found


def test_the_check_sees_every_lru_cache():
    assert lru_cached("@lru_cache(maxsize=2)\ndef f(I): pass\n@functools.cache\n"
                      "def g(): pass\n@cached_property\ndef h(): pass\n"
                      "class C:\n    @functools.lru_cache\n    def k(self): pass\n") == ["f", "g", "k"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_lru_cache_but_the_kernel_memos(path):
    """A process-wide memo keyed by an ideal would outlive the ideal and
    evict by count: an ideal's facts live on it (`monomial._fact`)."""
    assert set(lru_cached(path.read_text())) <= KERNEL_MEMOS


# `python -m symbpow ARGV` as a statement, so that sys.modules can be read after it
RUN_MAIN = ("import runpy\n"
            "try:\n"
            "    runpy.run_module('symbpow', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    if exc.code:\n"
            "        raise\n")


def loaded(tmp_path, statement, *argv) -> set[str]:
    """The symbpow modules, without the package prefix, in sys.modules of
    a fresh interpreter once it has run statement with sys.argv[1:] =
    argv, beside an rot3.ideal file.  Read from sys.modules, not from an
    -X importtime log, which leaves out what importlib.import_module loads."""
    (tmp_path / "rot3.ideal").write_text("vars: x y z\ngens:\n  x*y^2\n  y*z^2\n"
                                         "  z*x^2\n  x*y*z\n")
    # the child imports the package this test imported
    src = str(Path(symbpow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (f"import sys\nsys.argv[1:] = {list(argv)!r}\n{statement}\n"
            "print(*(m for m in sys.modules if m.split('.')[0] == 'symbpow'), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("symbpow.") for name in proc.stderr.splitlines()[-1].split()}


# what each command loads, as the README's start-up table lists it
CLI = {"symbpow", "cli", "errors", "parsing", "monomial", "results"}
DECOMPOSITION = CLI | {"decomposition"}
GEOMETRY = DECOMPOSITION | {"geometry", "lp"}
INVARIANTS = GEOMETRY | {"symbolic", "invariants"}
HARNESS = INVARIANTS | {"harness", "rng"}
# each command's arguments and the modules it loads; a command missing
# here fails its case
COMMAND_RUNS = {
    "info": (["rot3.ideal"], INVARIANTS),
    "ass": (["rot3.ideal"], DECOMPOSITION),
    "maxass": (["rot3.ideal"], DECOMPOSITION),
    "bigheight": (["rot3.ideal"], DECOMPOSITION),
    "sigma": (["rot3.ideal"], DECOMPOSITION),
    "symbolic": (["rot3.ideal", "-m", "2"], DECOMPOSITION | {"symbolic"}),
    "alpha": (["rot3.ideal"], INVARIANTS),
    "beta": (["rot3.ideal"], INVARIANTS),
    "waldschmidt": (["rot3.ideal"], GEOMETRY),
    "polyhedron": (["rot3.ideal", "--vertices"], GEOMETRY),
    "containment": (["rot3.ideal", "--m", "2", "--s", "1", "--r", "1"], HARNESS),
    "suite": (["rot3.ideal"], HARNESS),
    "scan": (["--count", "1"], HARNESS),
}


def test_cli_import_loads_only_what_every_command_needs(tmp_path):
    assert loaded(tmp_path, "import symbpow.cli") == CLI


@pytest.mark.parametrize("command", COMMANDS)
def test_command_imports_only_what_it_runs(tmp_path, command):
    args, modules = COMMAND_RUNS[command]
    assert loaded(tmp_path, RUN_MAIN, command, *args) == modules


def test_lazy_namespace():
    """Every public name resolves to the object its home module defines,
    the home modules resolve as attributes, and dir lists every name."""
    for name in symbpow.__all__:
        value = getattr(symbpow, name)
        assert value.__module__.startswith("symbpow.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert symbpow.geometry is sys.modules["symbpow.geometry"]
    assert set(symbpow.__all__) <= set(dir(symbpow))
    with pytest.raises(AttributeError, match="no_such_name"):
        symbpow.no_such_name
