"""Structured output has one encoder.  `results.json_line` is the only
place in the package that calls json.dumps, and the check records that
harness builds reach it unencoded, so harness.py names no encode_value."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symbpow"


def dumps_sites(source: str, module: str) -> list[str]:
    """module.function for each top-level function or class that names
    `dumps`, as json.dumps or bare; module.<module> for a statement
    outside them."""
    sites = []
    for node in ast.parse(source).body:
        if any(isinstance(sub, ast.Attribute) and sub.attr == "dumps"
               or isinstance(sub, ast.Name) and sub.id == "dumps"
               or isinstance(sub, ast.alias) and sub.name == "dumps"
               for sub in ast.walk(node)):
            sites.append(f"{module}.{getattr(node, 'name', '<module>')}")
    return sites


def names(source: str) -> set[str]:
    """Every name the module reads, imports or looks up as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_the_checks_see_what_they_look_for():
    source = "import json\nfrom json import dumps\ndef f(x):\n    return json.dumps(x)\n"
    assert dumps_sites(source, "m") == ["m.<module>", "m.f"]
    assert {"encode_value", "R"} <= names("R.encode_value(1)\n")


def test_json_line_is_the_only_json_writer():
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in dumps_sites(path.read_text(), path.stem)]
    assert sites == ["results.json_line"]


def test_harness_leaves_encoding_to_json_line():
    assert "encode_value" not in names((SRC / "harness.py").read_text())
