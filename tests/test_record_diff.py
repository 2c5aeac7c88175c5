"""`record_diff.py` on a synthetic pair of recorded outputs."""

import json

import pytest

import record_diff

_OLD = [
    {"type": "ideal", "label": "ic4", "vars": ["x", "y"], "gens": ["x^2", "x*y"]},
    {"type": "check", "check": "integrally_closed_bound", "verdict": "holds",
     "params": {}, "details": {"prime": "(x0,x1)", "budget": 3}},
    {"type": "check", "check": "alpha_slope", "verdict": "holds",
     "params": {"m": 2}, "details": {"alpha": "3/2"}},
    {"type": "check", "check": "alpha_slope", "verdict": "holds",
     "params": {"m": 3}, "details": {"alpha": "3/2"}},
    {"type": "summary", "holds": 3, "bug": 0},
]


def _jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _moved(**changes):
    """_OLD with details.prime of the integrally_closed_bound row, and
    details.alpha of the m = 3 alpha_slope row, set as given."""
    records = json.loads(json.dumps(_OLD))
    if "prime" in changes:
        records[1]["details"]["prime"] = changes["prime"]
    if "alpha" in changes:
        records[3]["details"]["alpha"] = changes["alpha"]
    return records


def _run(tmp_path, old: str, new: str, *allow) -> int:
    (tmp_path / "old").write_text(old)
    (tmp_path / "new").write_text(new)
    argv = [str(tmp_path / "old"), str(tmp_path / "new")]
    return record_diff.main(argv + (["--allow", *allow] if allow else []))


def test_an_allowed_change_passes(tmp_path, capsys):
    new = _jsonl(_moved(prime="(x,y)"))
    assert _run(tmp_path, _jsonl(_OLD), new, "details.prime") == 0
    out = capsys.readouterr().out
    assert 'allowed  ic4 integrally_closed_bound {}  details.prime: "(x0,x1)" -> "(x,y)"' in out
    assert out.endswith("1 differences, 0 not allowed\n")
    assert _run(tmp_path, _jsonl(_OLD), new, "details") == 0  # a prefix allows what is below it


def test_a_change_outside_the_allowed_paths_fails(tmp_path, capsys):
    new = _jsonl(_moved(prime="(x,y)", alpha="2"))
    assert _run(tmp_path, _jsonl(_OLD), new, "details.prime") == 1
    out = capsys.readouterr().out
    assert 'changed  ic4 alpha_slope {"m": 3}  details.alpha: "3/2" -> "2"' in out
    assert out.endswith("2 differences, 1 not allowed\n")
    # a path that only shares a prefix string with the one that differs
    assert _run(tmp_path, _jsonl(_OLD), new, "details.prime", "details.alph") == 1
    assert _run(tmp_path, _jsonl(_OLD), _jsonl(_moved(alpha=1.5))) == 1


def test_a_dropped_or_added_record_fails(tmp_path, capsys):
    dropped = _OLD[:2] + _OLD[3:]
    assert _run(tmp_path, _jsonl(_OLD), _jsonl(dropped), "details", "verdict") == 1
    assert 'dropped  ic4 alpha_slope {"m": 2}' in capsys.readouterr().out
    assert _run(tmp_path, _jsonl(dropped), _jsonl(_OLD), "details") == 1
    assert 'added    ic4 alpha_slope {"m": 2}' in capsys.readouterr().out


def test_records_pair_by_check_and_params_not_by_line(tmp_path, capsys):
    swapped = [_OLD[0], _OLD[3], _OLD[2], _OLD[1], _OLD[4]]
    assert _run(tmp_path, _jsonl(_OLD), _jsonl(swapped)) == 0
    assert capsys.readouterr().out == "0 differences, 0 not allowed\n"


@pytest.mark.parametrize("new, bad", [("a\nb\nc\n", 0), ("a\nB\nc\n", 1), ("a\nb\n", 1)])
def test_text_is_compared_line_by_line(tmp_path, new, bad):
    assert _run(tmp_path, "a\nb\nc\n", new, "details") == bad
