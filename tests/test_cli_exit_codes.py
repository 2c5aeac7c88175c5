"""The exit-code contract of the command line, as a property over random
argv: every command, option values in and out of range, and ideal files
that are valid, zero or unit, malformed, not UTF-8, a directory or
missing.

    0  ran to completion        2  bad input, nothing on stdout, no traceback
    1  a proven statement failed: suite or scan only, with a bug in the summary
    3  a resource budget was exceeded

Exit 4 (a result failed its own verification) or 5 (an internal error) is
a defect wherever it comes from.  Sizes stay small (-m at most 3, --count
at most 2, grid tops at most 2) so that the test takes seconds.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from symbpow.cli import COMMANDS, main
from symbpow.harness import CHECK_NAMES

# an ideal file, as (kind, contents): a directory or a missing path has none
VALID = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=4).map(
    lambda rows: ("file", f"vars: {' '.join(f'x{i}' for i in range(n))}\ngens:\n"
                          + "".join(f"[{' '.join(map(str, r))}]\n" for r in rows))))
BAD_FILES = st.one_of(
    st.just(("file", "vars: x y\ngens:\n")),                    # the zero ideal
    st.just(("file", "vars: x y\ngens:\n1\n")),                 # the unit ideal
    st.sampled_from([("file", "vars: x\ngens:\n  y\n"), ("file", "gens:\n x\n"),
                     ("file", "vars: x y\ngens:\n[1 2 3]\n"), ("file", "")]),
    st.text(max_size=30).map(lambda text: ("file", text)),    # malformed
    st.just(("bytes", b"vars: x\ngens:\n  x # caf\xe9\n")),  # not UTF-8
    st.sampled_from([("dir", None), ("missing", None)]),
)
NOT_INT = ["x", "1.5", ""]
CHECK_LISTS = st.lists(st.sampled_from(CHECK_NAMES), min_size=1, max_size=3).map(",".join)
BAD_CHECK_LISTS = st.sampled_from(["", ",", "bogus", "stairs,bogus"])


def values(listed):
    return st.sampled_from(listed) if isinstance(listed, list) else listed


def option(name, good, bad=None, valid=True, required=False):
    """The option with a value from good, or (valid False) from bad too, or
    left out unless required."""
    drawn = values(good) if valid or bad is None else values(good) | values(bad)
    given = drawn.map(lambda v: [name, str(v)])
    return given if required and valid else st.just([]) | given


def switch(name):
    return st.sampled_from([[], [name]])


def options(command, valid):
    """The option groups of command: values in range only, or (valid False)
    out of range too, where a required option may also be missing."""
    def o(name, good, bad=None, required=False):
        return option(name, good, bad, valid, required)
    own = {
        "symbolic": [o("-m", [0, 1, 2, 3], [-1, *NOT_INT], required=True)],
        "polyhedron": [switch("--dump"), switch("--vertices")],
        "containment": [o(f"--{p}", [0, 1, 2, 3], [-1, *NOT_INT], required=True)
                        for p in "msr"],
        "suite": [o("--checks", CHECK_LISTS, BAD_CHECK_LISTS),
                  o("--seed", [-2, 0, 5], NOT_INT),
                  *(o(f"--{p}-max", [1, 2], [-1, 0, "1.5"]) for p in "mtr")],
        "scan": [o("--count", [0, 1, 2], [-1, *NOT_INT]),
                 o("--seed", [-3, 0, 7], ["x"]),
                 o("--vars", ["2", "3", "4", "2,4"], ["1", "3,x", ""]),
                 o("--max-exp", [1, 3], [-1, 0, "x"]),
                 o("--max-gens", [2, 4], [0, 1, "x"]),
                 switch("--sqfree"),
                 o("--checks", CHECK_LISTS, BAD_CHECK_LISTS),
                 o("--findings", ["{out}"], ["{dir}"])],
    }.get(command, [])
    # suite and scan time their checks, and the others refuse --timings
    timed = command in ("suite", "scan")
    return own + [o("--format", ["text", "structured"], ["json"]),
                  o("--output", ["{out}"], ["{dir}/missing/out"]),
                  switch("--timings") if timed or not valid else st.just([])]


def argv_for(command, valid):
    """(command, ideal file or None, option groups in a random order)."""
    file = (VALID if valid else VALID | BAD_FILES) if COMMANDS[command].file else st.none()
    return st.tuples(st.just(command), file, st.permutations(options(command, valid)).flatmap(
        lambda groups: st.tuples(*groups)))


ARGV = st.tuples(st.sampled_from(sorted(COMMANDS)), st.booleans()).flatmap(
    lambda drawn: argv_for(*drawn))


def bugs_in(report: str) -> int | None:
    """The bug count of a suite or scan report's summary, in either format."""
    lines = report.splitlines()
    if not lines:
        return None
    if lines[-1].startswith("{"):
        return json.loads(lines[-1])["bug"]
    counts = re.findall(r"(\d+) bugs", lines[-1])
    return int(counts[-1]) if counts else None


def run(command, ideal, groups, directory):
    paths = {"out": os.path.join(directory, "out.txt"), "dir": directory}
    argv = [command]
    if ideal is not None:
        kind, contents = ideal
        path = os.path.join(directory, "input.ideal")
        if kind == "file":
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(contents)
        elif kind == "bytes":
            with open(path, "wb") as fh:
                fh.write(contents)
        elif kind == "dir":
            path = directory
        argv.append(path)
    argv += [token.format(**paths) for group in groups for token in group]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error
            code = exc.code
    report = out.getvalue()
    if "--output" in argv and code in (0, 1):
        with open(paths["out"], encoding="utf-8") as fh:
            report = fh.read()
    return argv, code, out.getvalue(), err.getvalue(), report


@settings(max_examples=400, deadline=None)
@given(ARGV)
def test_exit_codes_keep_their_contract(drawn):
    command, ideal, groups = drawn
    with tempfile.TemporaryDirectory() as directory:
        argv, code, out, err, report = run(command, ideal, groups, directory)
    event(f"{command} exit {code}")  # pytest --hypothesis-show-statistics lists the spread
    assert code in (0, 1, 2, 3), (argv, code, err)
    if command in ("suite", "scan") and code in (0, 1):
        assert (bugs_in(report) > 0) == (code == 1), (argv, code, report[-300:])
    else:
        assert code != 1, (argv, err)
    if code == 2:
        assert out == "", argv
        assert "Traceback" not in err, (argv, err)
