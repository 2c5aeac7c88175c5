"""Compare two recorded outputs field by field, so that a change of pinned
bytes can be stated and bounded.

    python tests/record_diff.py OLD NEW [--allow PATH ...]

A file is read as JSONL when every non-blank line is a JSON value, else as
text; two files of different kinds are compared as text.

JSONL records are paired across the files.  A check record (one with
`check` and `params`) is paired by (ideal, check, params), where the ideal
is the label of the `ideal` record that heads it, or its position
(`#0`, `#1`, ...) when it has no label.  Any other record is paired by its
`type`, its ideal and its rank among the records of that type and ideal.
Every key path whose value differs is listed (`details.prime`, `gens.3`),
and so is every record added or dropped.  Text is compared line by line.

An `--allow PATH` lets the value at PATH, or below it, differ in every
record.  The exit status is 0 when every difference is allowed, 1
otherwise: a record added or dropped and a text line that differs are
never allowed.

Standard library only, like `cli_pins.py`, whose `--dump DIR` writes the
outputs it compares.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ABSENT = object()  # the value on the side that lacks a key, an item or a line


def _show(value) -> str:
    return "<absent>" if value is _ABSENT else json.dumps(value)


def _records(text: str) -> list | None:
    """The JSON values of the non-blank lines, or None if one is not JSON."""
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return None


def _keyed(records: list) -> dict:
    """Each record under its pairing key, in file order."""
    out, ideal, heads, ranks = {}, None, 0, {}
    for rec in records:
        if isinstance(rec, dict) and rec.get("type") == "ideal":
            ideal = rec.get("label") or f"#{heads}"
            heads += 1
        if isinstance(rec, dict) and "check" in rec and "params" in rec:
            base = (ideal, rec["check"], json.dumps(rec["params"], sort_keys=True))
        else:
            base = (ideal, rec.get("type") if isinstance(rec, dict) else None)
        rank = ranks[base] = ranks.get(base, -1) + 1
        out[base + (rank,)] = rec
    return out


def _label(key: tuple) -> str:
    """The pairing key as the report names a record, its rank only when
    it is not the first."""
    *base, rank = key
    return " ".join([str(part) for part in base if part is not None]
                    + ([f"#{rank}"] if rank else []))


def _same(a, b) -> bool:
    """JSON equality that tells true from 1 and 1 from 1.0."""
    return type(a) is type(b) and a == b


def _diffs(old, new, path: str = ""):
    """(path, old, new) for every leaf where the two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in [*old, *(k for k in new if k not in old)]:
            yield from _diffs(old.get(k, _ABSENT), new.get(k, _ABSENT),
                              f"{path}.{k}" if path else k)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _diffs(old[i] if i < len(old) else _ABSENT,
                              new[i] if i < len(new) else _ABSENT,
                              f"{path}.{i}" if path else str(i))
    elif not _same(old, new):
        yield path, old, new


def _allowed(allow: list[str], path: str) -> bool:
    return any(path == a or path.startswith(a + ".") for a in allow)


def compare(old_text: str, new_text: str, allow: list[str]) -> tuple[list[str], int]:
    """The report lines and the number of differences not allowed."""
    old, new = _records(old_text), _records(new_text)
    lines, bad = [], 0
    if old is None or new is None:
        a, b = old_text.splitlines(), new_text.splitlines()
        for i in range(max(len(a), len(b))):
            x, y = (a[i] if i < len(a) else _ABSENT), (b[i] if i < len(b) else _ABSENT)
            if x != y:
                lines.append(f"changed  line {i + 1}: {_show(x)} -> {_show(y)}")
                bad += 1
        return lines, bad
    old, new = _keyed(old), _keyed(new)
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in new:
            lines.append(f"dropped  {_label(key)}")
            bad += 1
        elif key not in old:
            lines.append(f"added    {_label(key)}")
            bad += 1
        else:
            for path, x, y in _diffs(old[key], new[key]):
                ok = _allowed(allow, path)
                bad += not ok
                lines.append(f"{'allowed' if ok else 'changed'}  {_label(key)}  "
                             f"{path or '<record>'}: {_show(x)} -> {_show(y)}")
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two recorded outputs field by field.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--allow", nargs="+", action="extend", default=[], metavar="PATH",
                        help="a key path whose value, and what lies below it, may differ")
    args = parser.parse_args(argv)
    lines, bad = compare(args.old.read_text(), args.new.read_text(), args.allow)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences, {bad} not allowed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
