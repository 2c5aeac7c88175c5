"""Reading and writing the plain-text ideal file format.

A document names the variables once and then lists one generator per line,
either as a monomial expression or as a bracketed exponent vector::

    # lines starting with # are comments
    vars: x y z
    gens:
      x*y^2
      [2 0 1]

A generator of ``1`` denotes the unit ideal; ``gens:`` with no entries
denotes the zero ideal.  Exponents must be positive (``x^0`` is rejected;
omit the variable instead); repeating a variable multiplies, so ``x*x``
means ``x^2``.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from .monomial import Monomial, MonomialIdeal

_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+))?\Z")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VECTOR = re.compile(r"\[\s*((?:[0-9]+\s*)*)\]\Z")


class ParseError(ValueError):
    """A syntax or consistency error in an ideal file, with its location."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {col}" if col else "") + ")"
        super().__init__(message + where)


class IdealDocument(namedtuple("IdealDocument", "names ideal label", defaults=(None,))):
    """A parsed file: the variable names, the ideal, and a label (the file
    name without its extension, for a loaded file)."""

    __slots__ = ()


def default_names(dim: int) -> tuple[str, ...]:
    if dim <= 4:
        return ("x", "y", "z", "w")[:dim]
    return tuple(f"x{i}" for i in range(dim))


def _parse_generator(text: str, names: tuple[str, ...], line: int) -> Monomial:
    if text.startswith("["):
        m = _VECTOR.match(text)
        if m is None:
            raise ParseError(f"malformed exponent vector {text!r}", line)
        entries = m.group(1).split()
        if len(entries) != len(names):
            raise ParseError(
                f"exponent vector has {len(entries)} entries, "
                f"expected {len(names)}", line)
        return Monomial(tuple(int(e) for e in entries))
    if text == "1":
        return Monomial((0,) * len(names))
    exps, start = [0] * len(names), 1  # start: the column where the next piece begins
    for piece in text.split("*"):
        factor = piece.strip()
        col, start = start + len(piece) - len(piece.lstrip()), start + len(piece) + 1
        m = _FACTOR.match(factor)
        if m is None:
            raise ParseError(f"malformed factor {factor!r}", line, col)
        name, exp = m.group(1), m.group(2)
        if name not in names:
            raise ParseError(f"unknown variable {name!r}", line, col)
        if exp is not None and int(exp) == 0:
            raise ParseError(
                f"zero exponent on {name!r} (omit the variable instead)", line, col)
        exps[names.index(name)] += 1 if exp is None else int(exp)
    return Monomial(tuple(exps))


def parse_ideal(text: str, label: str | None = None) -> IdealDocument:
    names: tuple[str, ...] | None = None
    gen_lines: list[tuple[int, str]] = []
    in_gens = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        line = (raw if hash_at < 0 else raw[:hash_at]).strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if names is not None:
                raise ParseError("duplicate vars line", lineno)
            if in_gens:
                raise ParseError("vars must come before gens", lineno)
            fields = tuple(line[len("vars:"):].split())
            if not fields:
                raise ParseError("vars line names no variables", lineno)
            for name in fields:
                if _IDENT.match(name) is None:
                    raise ParseError(f"bad variable name {name!r}", lineno)
            if len(set(fields)) != len(fields):
                raise ParseError("repeated variable name", lineno)
            names = fields
        elif line.startswith("gens:"):
            if names is None:
                raise ParseError("vars must come before gens", lineno)
            if in_gens:
                raise ParseError("duplicate gens line", lineno)
            in_gens = True
            rest = line[len("gens:"):].strip()
            if rest:
                gen_lines.append((lineno, rest))
        elif in_gens:
            gen_lines.append((lineno, line))
        else:
            raise ParseError(f"expected a vars: or gens: line, got {line!r}",
                             lineno)
    if names is None:
        raise ParseError("missing vars line")
    if not in_gens:
        raise ParseError("missing gens line")
    gens = [_parse_generator(s, names, n) for n, s in gen_lines]
    return IdealDocument(names, MonomialIdeal.make(len(names), gens), label)


def load_ideal(path) -> IdealDocument:
    """Parse a UTF-8 ideal file, with or without a leading byte order mark;
    bytes that are not UTF-8 are a ParseError naming the file and the line
    of the first bad byte."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        # not the utf-8-sig codec: its error offsets omit the mark's 3 bytes
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text, byte 0x{data[exc.start]:02x} "
                         f"cannot be decoded", data.count(b"\n", 0, exc.start) + 1) from None
    # the label is the file name without its last suffix, as in pathlib
    name = os.path.basename(path)
    dot = name.rfind(".")
    return parse_ideal(text, label=name[:dot] if 0 < dot < len(name) - 1 else name)


def format_ideal(I: MonomialIdeal, names: tuple[str, ...] | None = None) -> str:
    if names is None:
        names = default_names(I.ambient_dim)
    if len(names) != I.ambient_dim:
        raise ValueError("name count does not match the ambient dimension")
    lines = ["vars: " + " ".join(names), "gens:"]
    lines.extend("  " + g for g in I.rendered_gens(names))
    return "\n".join(lines) + "\n"
