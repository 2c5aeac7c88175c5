"""End-to-end acceptance criteria.

Each test exercises one promised behavior at its stated budget and prints a
single ``ACCEPTANCE <tag>: PASS/FAIL`` line (visible with ``pytest -s``; the
per-test PASSED/FAILED of ``pytest -v`` mirrors it).  Budgets are wall-clock
upper bounds chosen with a wide margin on desk hardware.
"""

import hashlib
import time
from fractions import Fraction

import symbpow.results as R
from symbpow.cli import main
from symbpow.geometry import (alpha_polyhedron, enumerate_vertices,
                              member_scaled, symbolic_polyhedron)
from symbpow.harness import ScanConfig, check, run_suite, scan
from symbpow.invariants import alpha, waldschmidt
from symbpow.monomial import Monomial, power
from symbpow.symbolic import symbolic_power

from cli_pins import DIGESTS
from conftest import (ideal_of, random_general_corpus, random_primary_corpus,
                      random_squarefree_corpus)
from oracles import realizing_denominator, symbolic_power_oracle_sqfree

ROT3 = ideal_of(3, (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1))
TRIPLES4 = ideal_of(4, (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))


def conclude(tag: str, ok: bool, note: str = ""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  ({note})"
    print(line)
    assert ok, line


def mixed_corpus():
    """The deterministic sample used by criteria 6-8."""
    ideals = [ROT3, TRIPLES4]
    ideals += [I for I, _ in random_squarefree_corpus(14, 601, dims=(3, 4, 5))]
    ideals += random_general_corpus(6, 602, dims=(3, 4))
    return ideals


def test_c01_counterexample_suite_under_a_second():
    start = time.perf_counter()
    report = run_suite(ROT3, names=("x", "y", "z"))
    elapsed = time.perf_counter() - start
    flagged = [res for res in report.results
               if res.name == "refined_containment" and res.params.get("r") == 2]
    ok = (not report.has_bug
          and len(flagged) == 1
          and flagged[0].classify() == "candidate"
          and flagged[0].witness == Monomial((2, 2, 2))
          and flagged[0].details.get("witness_in_plain_power") is True
          and elapsed < 1.0)
    conclude("01 counterexample-suite", ok, f"{elapsed:.2f}s, budget 1s")


def test_c02_support_step_on_four_variables():
    from symbpow.decomposition import big_height, sigma

    start = time.perf_counter()
    ok = big_height(TRIPLES4) == 2 and sigma(TRIPLES4) == 3
    for r in (1, 2, 3):
        ok = ok and check("support_step", TRIPLES4, {"r": r}).verdict == R.HOLDS
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    conclude("02 support-step", ok, f"{elapsed:.2f}s, budget 10s")


def test_c03_squarefree_containment_sweep():
    start = time.perf_counter()
    cfg = ScanConfig(count=200, seed=2026, num_vars=(3, 4, 5),
                     squarefree_only=True, checks=("squarefree_containment",))
    report = scan(cfg)
    elapsed = time.perf_counter() - start
    s = report.summary
    ok = (s["ideals"] == 200
          and s["bug"] == 0 and s["candidate"] == 0 and s["fails"] == 0
          and s["not_applicable"] == 0 and s["resource_limit"] == 0
          and s["holds"] == 200 * (27 + 1)  # 27 grid points + ass oracle
          and elapsed < 600.0)
    conclude("03 squarefree-sweep",
             ok, f"200 ideals x 27 combos, {elapsed:.1f}s, budget 600s")


def test_c04_symbolic_power_agreement():
    ok = True
    for I, _fam in random_squarefree_corpus(100, 42):
        for m in (1, 2, 3):
            if symbolic_power(I, m) != symbolic_power_oracle_sqfree(I, m):
                ok = False
    primaries = random_primary_corpus(60, 43)[:50]
    assert len(primaries) == 50
    for I in primaries:
        for m in (1, 2, 3):
            if symbolic_power(I, m) != power(I, m):
                ok = False
    conclude("04 symbolic-agreement", ok,
             "100 square-free vs oracle, 50 primary vs ordinary powers")


def test_c05_alpha_matches_vertex_minimum():
    ok = True
    for I, _fam in random_squarefree_corpus(50, 77, dims=(3, 4)):
        Q = symbolic_polyhedron(I)
        value, _ = alpha_polyhedron(Q)
        best = min(sum(v) for v in enumerate_vertices(Q))
        if value != best:
            ok = False
    ok = ok and waldschmidt(ROT3) == Fraction(2) and waldschmidt(TRIPLES4) == Fraction(2)
    conclude("05 alpha-vs-vertices", ok, "50 seeded + both worked examples")


def test_c06_alpha_lower_bound_and_equality():
    ok = True
    equality_seen = 0
    checked = 0
    for I in mixed_corpus():
        w = waldschmidt(I)
        for m in range(1, 7):
            if Fraction(alpha(symbolic_power(I, m))) < m * w:
                ok = False
        _, pt = alpha_polyhedron(symbolic_polyhedron(I))
        b = realizing_denominator(I, pt)
        if b <= 12:
            checked += 1
            if Fraction(alpha(symbolic_power(I, b))) == b * w:
                equality_seen += 1
            else:
                ok = False
    note = f"lower bound m<=6 on {len(mixed_corpus())} ideals; " \
           f"equality checked at b<=12 on {checked}, observed {equality_seen}"
    if checked == 0:
        note += " [no ideal had small enough denominator; equality unobserved]"
    conclude("06 alpha-lower-and-equality", ok, note)


def test_c07_generators_inside_scaled_polyhedron():
    ok = True
    for I in mixed_corpus():
        Q = symbolic_polyhedron(I)
        for m in (1, 2, 3):
            for g in symbolic_power(I, m).gens:
                if not member_scaled(Q, g.exponents, m):
                    ok = False
    conclude("07 polyhedron-bound", ok, "all generators of I^(m), m<=3, exact")


def test_c08_step_and_slope_theorems():
    ok = True
    for I in mixed_corpus():
        for r in (1, 2, 3):
            if check("symbolic_step", I, {"r": r}).classify() == "bug":
                ok = False
            if check("support_step", I, {"r": r}).classify() == "bug":
                ok = False
            if check("alpha_slope", I, {"r": r}).classify() == "bug":
                ok = False
    conclude("08 step-and-slope", ok, "zero tolerance over the mixed corpus")


def test_c09_chudnovsky_and_candidate_flags():
    ok = True
    for I, _fam in random_squarefree_corpus(60, 91):
        if check("chudnovsky", I).verdict != R.HOLDS:
            ok = False  # proven for square-free: a failure is a bug
    candidates = 0
    for I in random_general_corpus(40, 92):
        res = check("chudnovsky", I)
        if res.verdict == R.FAILS:
            candidates += 1
            if res.classify() != "candidate":
                ok = False
    direct = run_suite(ROT3, checks=("refined_containment",))
    ok = ok and direct.summary["candidate"] == 1 and not direct.has_bug
    conclude("09 chudnovsky-and-flags", ok,
             f"60 square-free hold; {candidates} general violations all "
             "flagged candidate; direct feed flagged")


# sha256 of the default structured scan (seed 7, 50 ideals, 1,148,863
# bytes), recorded before the checks became one table: the c10.jsonl pin
# of the CLI table; it equals the scan-50 digest in deskbench/reference.json
C10_SHA256 = DIGESTS["c10.jsonl"]


def test_c10_byte_identical_scan(tmp_path):
    args = ["scan", "--count", "50", "--seed", "7", "--format", "structured"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code_a = main(args + ["--output", str(a)])
    code_b = main(args + ["--output", str(b)])
    ok = code_a == code_b == 0 and a.read_bytes() == b.read_bytes()
    ok = ok and hashlib.sha256(a.read_bytes()).hexdigest() == C10_SHA256
    conclude("10 deterministic-scan", ok,
             f"{len(a.read_bytes())} bytes, identical across runs and pinned")
