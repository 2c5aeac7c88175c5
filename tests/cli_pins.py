"""The command-line outputs pinned byte for byte.

Each pin runs one or more `symbpow` commands, in order, on the input files
of INPUTS, and compares the sha256 of their joined stdout with its digest.
Standard library only, so that a bare install (no numpy, no pytest) can
run it; two runners read the table:

    python tests/cli_pins.py    # each command as `python -m symbpow`, in a
                                # subprocess of this interpreter
    pytest tests/test_cli_pins.py   # each command in-process, through cli.main

`python tests/cli_pins.py --dump DIR` also writes each pin's joined stdout
to DIR/<pin name>, so that two trees' outputs can be compared field by
field.  The tier-1 digests that restate a pin read it from DIGESTS.

A digest is never re-recorded to make a change pass: a pin that moves is a
change of output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from itertools import combinations
from pathlib import Path


def _rows(names, rows) -> str:
    """An ideal file with one bracketed exponent row per generator."""
    return (f"vars: {' '.join(names)}\ngens:\n"
            + "".join(f"[{' '.join(map(str, row))}]\n" for row in rows))


X7, XYZW = [f"x{i}" for i in range(7)], ["x", "y", "z", "w"]

INPUTS = {
    "rot3.ideal": "vars: x y z\ngens:\nx*y^2\ny*z^2\nz*x^2\nx*y*z\n",
    # two 7-variable general ideals, the 1st and 4th of the random.Random(5)
    # draw
    "g7a.ideal": _rows(X7, [(3, 1, 5, 0, 1, 0, 2), (1, 0, 1, 4, 4, 3, 1),
                            (0, 5, 1, 3, 2, 1, 3), (3, 1, 3, 4, 0, 4, 1),
                            (5, 2, 5, 5, 5, 4, 0)]),
    "g7b.ideal": _rows(X7, [(3, 0, 5, 1, 4, 1, 0), (0, 4, 3, 2, 3, 4, 0),
                            (1, 2, 2, 5, 4, 0, 2), (3, 0, 1, 2, 4, 4, 2),
                            (3, 0, 4, 5, 2, 2, 0), (1, 3, 2, 4, 2, 4, 2)]),
    # ideal v5-07 of the benchmark's Waldschmidt corpus, whose optimum is
    # not unique
    "v5-07.ideal": _rows(X7[:5], [(3, 2, 1, 0, 4), (5, 2, 0, 1, 2)]),
    # every degree-5 square-free monomial in 10 variables: 210 prime
    # components
    "sq10-5.ideal": _rows([f"x{i}" for i in range(10)],
                          [[int(i in s) for i in range(10)]
                           for s in combinations(range(10), 5)]),
    "ic4.ideal": _rows(XYZW, [(2, 4, 4, 0), (3, 4, 1, 4), (4, 1, 3, 0),
                              (3, 2, 4, 4), (1, 4, 3, 3)]),
    "be4.ideal": _rows(XYZW, [(2, 1, 1, 3), (2, 0, 3, 4), (0, 1, 2, 0)]),
    # (x,y)^5 * (z,w)^4: 30 generators, integrally closed
    "xyzw.ideal": _rows(XYZW, [(a, 5 - a, b, 4 - b)
                               for a in range(6) for b in range(5)]),
    # (x0^500, x1^500): not integrally closed (x0^250*x1^250), with a box of
    # 251,001 lattice points below its generators
    "x500.ideal": "vars: x0 x1\ngens:\nx0^500\nx1^500\n",
    # (x1, ..., x6, x0*x7), the meet of two 7-variable primes in 8 variables
    "wide8.ideal": ("vars: x0 x1 x2 x3 x4 x5 x6 x7\ngens:\n"
                    "x1\nx2\nx3\nx4\nx5\nx6\nx0*x7\n"),
    # the sum of three ideals on disjoint variables: (x1^2, x0*x1*x2,
    # x0^2*x2), whose localizations are (x0, x1)^2 and (x1^2, x2), the
    # pure power (x3^2), and (x4^2*x5, x4*x5^3)
    "split6.ideal": _rows(X7[:6], [(0, 2, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0),
                                   (2, 0, 1, 0, 0, 0), (0, 0, 0, 2, 0, 0),
                                   (0, 0, 0, 0, 2, 1), (0, 0, 0, 0, 1, 3)]),
}


class Pin(namedtuple("Pin", "name commands sha256")):
    """commands: the argument lists run in order, their stdout joined."""

    __slots__ = ()


def _pin(name, commands, sha256) -> Pin:
    """commands given as strings, split at whitespace."""
    return Pin(name, tuple(c.split() for c in commands), sha256)


_S = "--format structured"
_ROT3_STRUCTURED = ["info", "waldschmidt", "symbolic -m 3", "polyhedron --vertices",
                    "containment --m 3 --s 1 --r 2", "suite"]
_ROT3_TEXT = ["info", "waldschmidt", "symbolic -m 3", "polyhedron",
              "polyhedron --vertices", "polyhedron --dump",
              "containment --m 3 --s 1 --r 2", "suite", "ass", "maxass",
              "bigheight", "sigma", "alpha", "beta"]

PINS = [
    # the default structured scan
    _pin("c10.jsonl", [f"scan --count 50 --seed 7 {_S}"],
         "8f2b90ce4e4409561b57fb1374179c5d4caf3d52083fd3348a2c70b2afa8b0e5"),
    # the square-free sweep of the sweep-sqfree bench corpus
    _pin("sweep.jsonl", ["scan --count 100 --seed 2026 --vars 3,4,5 --sqfree "
                         f"--checks squarefree_containment {_S}"],
         "05664d3c571b7d244af954a173b5c79e29860f9bb321ec5969432bc5a22a7211"),
    # every row on that corpus, where equal_exponent_containment asks
    # squarefree_containment's questions again, and refined_containment
    # those at m = 1, r = 1: the kernel's memo answers each repeat
    _pin("sqfree-all.jsonl", [f"scan --count 100 --seed 2026 --vars 3,4,5 --sqfree {_S}"],
         "71a13377d168704cb5151cf7b70139caa420d94203800b614791313f357b90a4"),
    # general 5-variable ideals, whose components put the facet-table
    # membership of polyhedron_bound to work
    _pin("seed5.jsonl", [f"scan --count 30 --seed 5 --vars 5 {_S}"],
         "523c7158b421c8a1e68d579178ddececc1a098df5d99f796043d31e0c7c88d9f"),
    # general 6-variable ideals, whose symbolic powers meet up to eleven
    # general components each
    _pin("seed3.jsonl", [f"scan --count 12 --seed 3 --vars 6 {_S}"],
         "204f2c04f7227b4f77d92ade73916cd10934cdae77bfdf2fe52c899c61ec57b2"),
    # 7-variable ideals, every row: the widest alpha LP has 105 GE rows,
    # more than any LP of the other scans
    _pin("seed3-v7.jsonl", [f"scan --count 6 --seed 3 --vars 7 {_S}"],
         "1a3d68f03d8e18145719bcb63aee35a14e0f011502c4a051053eb6d2a1fa532b"),
    # rendering and witnesses, the Monomial edge, on rot3
    _pin("rot3.jsonl", [f"{c} rot3.ideal {_S}" for c in _ROT3_STRUCTURED],
         "dea42f516f9fdfbdf3d76e2a30bae0460e623174b003f00e593839c4550a57fb"),
    # the text reports: the default scan, and every command on rot3
    _pin("c10.txt", ["scan --count 50 --seed 7"],
         "0387871405926f6464450ecb12bb0c3b607e518a7632e56971bd932e636c947c"),
    _pin("rot3.txt", [f"{c} rot3.ideal" for c in _ROT3_TEXT],
         "f0076dc9ea0a6481d64a02b3f89b0c514f484d8f9e5a83ea2e3232ac6ef6f5d2"),
    # the Waldschmidt value and point of two 7-variable general ideals,
    # pinned before the scaled-row pivots: an LP change that moves a point
    # fails here
    _pin("g7a.jsonl", [f"waldschmidt g7a.ideal {_S}"],
         "6ea54a332c62cca0c214cc314da178ab7b250e1d949891810ffae2c5165259c9"),
    _pin("g7b.jsonl", [f"waldschmidt g7b.ideal {_S}"],
         "1d4eda06d84e0cb6b4972279e3ded38532c4f8e519f1c93ac4d4e74bcccdd0d1"),
    # a tie: the facet-row LP reaches another optimal point, and the V-block
    # LP's point is the one returned
    _pin("v5-07.jsonl", [f"waldschmidt v5-07.ideal {_S}"],
         "511a65a7d65332e4a7660ad8e58e83ef7faa7b7479bd65a5d585c02f4524caa3"),
    # the 69 vertices of g7a's symbolic polyhedron, over 12 general
    # components: vertex enumeration off the worked examples
    _pin("g7a-vertices.jsonl", [f"polyhedron --vertices g7a.ideal {_S}"],
         "73bd41cb7fd54f5723f69807ee99c6a051ab09c40c3650ab7f99f25d2962d68b"),
    # the widest alpha LP pinned here (210 GE rows)
    _pin("sq10-5.jsonl", [f"waldschmidt sq10-5.ideal {_S}"],
         "8db6b8da385632bb433a28ae57194cb89946e72ba7c20b7334627a4f0fdabd69"),
    # the suites of two 4-variable general ideals (the file stem is the
    # label): ic4 has a localization that is not integrally closed, and be4
    # has beta above e * alpha, so alpha_equality skips its containment;
    # ic4 re-recorded when that localization's prime took the file's names
    _pin("ic4.jsonl", [f"suite ic4.ideal {_S}"],
         "2172b036d45a514f56072c7a5a65b376d9f015a2f21ec10e17ab70ac18ec97f1"),
    _pin("be4.jsonl", [f"suite be4.ideal {_S}"],
         "49c0163a1e7029d94fcae75411abaf0e3da836f1fcb29ec57fae622261c3ec1f"),
    # the one setting a suite passes to a row: --seed reaches the samples of
    # the three stairs rows, which print it
    _pin("rot3-seed5.jsonl", [f"suite rot3.ideal --seed 5 {_S}"],
         "84c1b62aa6b163d57acf728e659019fce7d05538a8060c0d3f03e98e3f1fe2b7"),
    # integrally closed: the closure test finds, for each irreducible
    # component, a facet row that cuts off its corner
    _pin("xyzw-info.jsonl", [f"info xyzw.ideal {_S}"],
         "5443ac0e52646da2abb0243ece553c793259ae551d42a0652ed93c1a78bcfb5e"),
    # decided by its one component's corner, x0^499*x1^499, which lies in
    # the Newton polyhedron; no box of lattice points is scanned
    _pin("x500-info.jsonl", [f"info x500.ideal {_S}"],
         "6de6d3b540684ab40aacaec8473bf3e83ec74a98a7d6b40b1fe3c189c3fe1bbc"),
    # square-free, so radical and integrally closed with no facet table
    # (N(I)'s would need 257 double-description rays, one over MAX_RAYS)
    _pin("sq10-5-info.jsonl", [f"info sq10-5.ideal {_S}"],
         "3d99e023a859a4b7aeae63da64d21ec0f58e769583ea39bf67e885d298b28631"),
    # I^(12): 18,564 generators, read off set-bit masks of the prime-power
    # kernel that are as wide
    _pin("wide8-m12.jsonl", [f"symbolic -m 12 wide8.ideal {_S}"],
         "d88be7a5f17d0199885080267f14dfb8c167608968ee1c2b07ae92b4d56ae41b"),
    # I^(17): 100,947 generators, whose second prime step groups 100,947
    # inputs under 18 keys and builds each group's upper set once
    _pin("wide8-m17.jsonl", [f"symbolic -m 17 wide8.ideal {_S}"],
         "eaed5d5ca5ad3a11d07c0a476085186a4da12b6a98db2b0baeb318190141d308"),
    # every row on wide8, whose containments are decided on its twin
    # quotient; recorded when both sides of each were built in full
    _pin("wide8-suite.jsonl", [f"suite wide8.ideal {_S}"],
         "aa1da404e54a2200ba7236c95e8a5c4d342ea24de39eba56db8f78d69e51918e"),
    # a symbolic power and every row on a sum of ideals on disjoint
    # variables; recorded when each summand's powers were still met by
    # the prime steps and intersections of the whole ideal
    _pin("split6.jsonl", [f"symbolic -m 8 split6.ideal {_S}", f"suite split6.ideal {_S}"],
         "1fe50ea8ffa79b282f61d8b6f4c3234b451fd822dd12660f725f5efca65b1893"),
]

DIGESTS = {pin.name: pin.sha256 for pin in PINS}


def write_inputs(directory: Path) -> None:
    for name, text in INPUTS.items():
        (Path(directory) / name).write_text(text)


def output(pin: Pin, run) -> bytes:
    """The joined stdout of pin's commands; run(argv) gives one command's
    stdout as bytes, and raises if it does not exit 0."""
    return b"".join(run(argv) for argv in pin.commands)


def digest(pin: Pin, run) -> str:
    return hashlib.sha256(output(pin, run)).hexdigest()


def check_pins(pins, run, dump: Path | None = None) -> int:
    """Each pin's output against its digest, one line per pin, written to
    dump/<pin name> as well when dump is set; the number of mismatches."""
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
    failed = 0
    for pin in pins:
        out = output(pin, run)
        if dump is not None:
            (dump / pin.name).write_bytes(out)
        got = hashlib.sha256(out).hexdigest()
        ok = got == pin.sha256
        failed += not ok
        print(f"{'ok' if ok else 'MISMATCH'}  {pin.name}  {got}", flush=True)
    return failed


def subprocess_runner(directory):
    """run(argv) for `output`: the command as `python -m symbpow` in a
    subprocess of this interpreter, started in directory.  Its PYTHONPATH
    entries are made absolute first, so that `PYTHONPATH=src` given at the
    root of a checkout still finds the package from there."""
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = os.pathsep.join(
            map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))

    def run(argv):
        return subprocess.run([sys.executable, "-m", "symbpow", *argv], cwd=directory,
                              env=env, stdout=subprocess.PIPE, check=True).stdout

    return run


def main(argv=None) -> int:
    """Every pin, each command in a subprocess (`subprocess_runner`); exit
    1 on a mismatch."""
    parser = argparse.ArgumentParser(description="Check the pinned CLI outputs.")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each pin's joined stdout to DIR/<pin name>")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        failed = check_pins(PINS, subprocess_runner(directory), args.dump)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
