import hashlib
import json
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import symbpow.results as R
from symbpow import geometry, harness, monomial, symbolic
from symbpow.decomposition import MonomialPrime, big_height
from symbpow.errors import (PowersCoincideWarning, ResourceLimitError,
                            VerificationError)
from symbpow.geometry import newton_polyhedron
from symbpow.harness import (CHECK_NAMES, CHECKS, Check, ScanConfig, SuiteRanges,
                             check, findings_jsonl, result_to_dict, run_suite,
                             scan, scan_jsonl, suite_jsonl, suite_text)
from symbpow.invariants import chudnovsky_bound, invariant_report
from symbpow.monomial import (Monomial, MonomialIdeal, containment_witness, contains,
                              intersect, power)
from symbpow.parsing import default_names
from symbpow.results import CheckResult, encode_value
from symbpow.symbolic import symbolic_power, twin_quotient

from cli_pins import DIGESTS
from conftest import ideal_of
from oracles import by_definition


def test_encode_value():
    assert encode_value(Fraction(2, 3)) == "2/3"
    assert encode_value(Fraction(4, 1)) == "4"
    assert encode_value({"a": Fraction(1, 2), "b": [True, None]}) == {
        "a": "1/2", "b": [True, None]}
    # what has no exact encoding is refused, not written as a string; a
    # witness reaches a record rendered, never as a Monomial
    for value in (0.5, {1, 2}, [Fraction(1, 2), 0.5], Monomial((1, 0, 2))):
        with pytest.raises(TypeError, match="cannot encode a (float|set|Monomial)"):
            encode_value(value)


# the bucket of every verdict and kind: a verdict is its own bucket unless
# it is fails, which the kind files
BUCKET_OF = {
    (R.HOLDS, R.THEOREM): "holds",
    (R.HOLDS, R.CONJECTURE): "holds",
    (R.HOLDS, R.EXPLORATION): "holds",
    (R.FAILS, R.THEOREM): "bug",
    (R.FAILS, R.CONJECTURE): "candidate",
    (R.FAILS, R.EXPLORATION): "fails",
    (R.NOT_APPLICABLE, R.THEOREM): "not_applicable",
    (R.NOT_APPLICABLE, R.CONJECTURE): "not_applicable",
    (R.NOT_APPLICABLE, R.EXPLORATION): "not_applicable",
    (R.RESOURCE_LIMIT, R.THEOREM): "resource_limit",
    (R.RESOURCE_LIMIT, R.CONJECTURE): "resource_limit",
    (R.RESOURCE_LIMIT, R.EXPLORATION): "resource_limit",
}


def test_classification():
    """Each of the 12 verdict and kind pairs lands in its bucket, and
    in_hypothesis is false exactly for not_applicable.  The kind defaults
    to theorem, and the tally lists every bucket, in order."""
    results = []
    for (verdict, kind), bucket in BUCKET_OF.items():
        res = CheckResult("x", verdict, kind=kind)
        assert res.classify() == bucket, (verdict, kind)
        assert res.in_hypothesis == (verdict != R.NOT_APPLICABLE), (verdict, kind)
        results.append(res)
    assert CheckResult("x", R.FAILS).classify() == "bug"
    assert R.tally(results) == {"holds": 3, "bug": 1, "candidate": 1, "fails": 1,
                                "not_applicable": 3, "resource_limit": 3}
    assert tuple(R.tally([])) == R.BUCKETS == (
        "holds", "bug", "candidate", "fails", "not_applicable", "resource_limit")


def test_records_are_immutable_and_share_no_default():
    """Records are named tuples: compared by fields, immutable, and each
    gets its own empty params, details and grid dicts."""
    a, b = CheckResult("x", R.HOLDS), CheckResult(name="x", verdict=R.HOLDS)
    assert a == b == CheckResult("x", R.HOLDS, R.THEOREM, {}, {}, None, 0.0)
    assert len(a) == 7
    with pytest.raises(TypeError):  # derived from the verdict, not stored
        CheckResult("x", R.HOLDS, in_hypothesis=True)
    assert a.params is not b.params and a.details is not b.details
    a.details["seen"] = True
    assert b.details == {}
    with pytest.raises(AttributeError):
        a.verdict = R.FAILS
    assert a._replace(verdict=R.FAILS).classify() == "bug"
    rows = [Check("x", R.THEOREM, lambda I: None) for _ in range(2)]
    assert rows[0].grid == {} and rows[0].grid is not rows[1].grid
    assert SuiteRanges() == SuiteRanges(3, 3, 3, 6)


def test_polyhedron_bound_check(rot3):
    for m in (1, 2, 3):
        assert check("polyhedron_bound", rot3, {"m": m}).verdict == R.HOLDS


def test_run_suite_rot3(rot3):
    report = run_suite(rot3, names=("x", "y", "z"))
    assert not report.has_bug
    summary = report.summary
    assert summary["bug"] == 0
    assert summary["candidate"] == 1  # the refined containment at r = 2
    flagged = [res for res in report.results if res.classify() == "candidate"]
    assert flagged[0].name == "refined_containment"
    assert flagged[0].witness == Monomial((2, 2, 2))


def test_run_suite_refuses_a_wrong_number_of_names(rot3, monkeypatch):
    """Names are paired with exponents, so two names for rot3's three
    variables would report it as (y, x*y, x*y^2, x^2) with the witness
    x^2*y^2: run_suite refuses them before any row runs."""
    ran = []
    monkeypatch.setattr(Check, "run", lambda *args, **kwargs: ran.append(args))
    for names in (("x", "y"), ("x", "y", "z", "w")):
        with pytest.raises(ValueError, match="variable names for 3 variables"):
            run_suite(rot3, names=names)
    assert ran == []


def test_run_suite_refuses_a_grid_top_below_1(rot3, monkeypatch):
    """A top below 1 empties the grid of every row it bounds: m_max = 0
    would drop the squarefree_containment, equal_exponent_containment and
    polyhedron_bound rows from a clean-looking report.  run_suite names
    each such field before any row runs."""
    ran = []
    monkeypatch.setattr(Check, "run", lambda *args, **kwargs: ran.append(args))
    with pytest.raises(ValueError, match="^m_max, t_max must be at least 1$"):
        run_suite(rot3, ranges=SuiteRanges(m_max=0, t_max=-2, r_max=1))
    with pytest.raises(ValueError, match="^alpha_m_cap must be at least 1$"):
        run_suite(rot3, ranges=SuiteRanges(alpha_m_cap=0))
    assert ran == []


def test_run_suite_subset_of_checks(triples4):
    report = run_suite(triples4, checks=("chudnovsky", "symbolic_step"))
    assert {res.name for res in report.results} == {"chudnovsky", "symbolic_step"}
    assert report.summary["holds"] == 4


def test_run_suite_rejects_unknown_check(rot3):
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(rot3, checks=("no_such_check",))


def test_run_suite_rejects_empty_selection(rot3):
    """Only checks=None means every check; an empty selection is an error,
    in a suite and in a scan."""
    with pytest.raises(ValueError, match="empty check selection"):
        run_suite(rot3, checks=())
    with pytest.raises(ValueError, match="empty check selection"):
        scan(ScanConfig(count=1, checks=()))


@pytest.mark.parametrize("fields, message", [
    ({"num_vars": (1,)}, "num_vars"),
    ({"num_vars": ()}, "num_vars"),
    ({"num_vars": (3, 1)}, "num_vars"),
    ({"max_gens": 1}, "max_gens must be at least 2"),
    ({"max_exp": 0}, "max_exp must be at least 1"),
    ({"count": -1}, "count must be at least 0"),
    ({"count": 0, "checks": ("nope",)}, "unknown check 'nope'"),
    ({"count": 0, "checks": ()}, "empty check selection"),
    ({"count": -1, "num_vars": (2, 1), "max_exp": 0, "max_gens": 1},
     "^count must be at least 0; max_exp must be at least 1; max_gens must be "
     "at least 2; num_vars must hold variable counts of at least 2$"),
])
def test_scan_refuses_a_config_it_cannot_draw_from(fields, message):
    """One ValueError, before any draw, names every field out of range."""
    with pytest.raises(ValueError, match=message):
        scan(ScanConfig(**fields))


@pytest.mark.parametrize("fields, named", [
    ({"count": 2, "max_exp": 2.5}, "max_exp"),
    ({"count": 2.5, "max_gens": 4.5, "num_vars": (3.0,)}, "count, num_vars, max_gens"),
    ({"count": "3"}, "count"),
    ({"count": 1, "seed": 1.5}, "seed"),
    ({"count": 1, "seed": "7", "num_vars": 3}, "seed, num_vars"),
], ids=["float-exponent", "three-floats", "string-count", "float-seed",
        "string-seed-and-scalar-vars"])
def test_scan_reads_its_fields_as_integers(fields, named, monkeypatch):
    """A float exponent would build ideals with float exponents, and a
    float or string count fails inside range() or a comparison: one
    ValueError names every field that is not an integer, before any draw."""
    drawn = []
    monkeypatch.setattr(harness, "run_suite", lambda *args, **kwargs: drawn.append(args))
    with pytest.raises(ValueError, match=f"^not an integer: {named}$"):
        scan(ScanConfig(**fields))
    assert drawn == []


def test_scan_reads_a_bool_as_an_integer():
    as_bools = scan(ScanConfig(count=True, seed=False, num_vars=[3], max_exp=True + 2))
    as_ints = scan(ScanConfig(count=1, seed=0, num_vars=(3,), max_exp=3))
    assert as_bools.config == as_ints.config
    assert [type(v) for v in as_bools.config[:5]] == [int, int, tuple, int, int]
    assert scan_jsonl(as_bools) == scan_jsonl(as_ints)


def test_run_suite_reads_its_tops_and_seed_as_integers(rot3, monkeypatch):
    """A float seed would run the stairs rows with its floor and record the
    float, which the encoder refuses, and a string top would fail in a
    comparison: one ValueError names each before any row runs.  A bool
    reads as 0 or 1."""
    ran = []
    with monkeypatch.context() as patch:
        patch.setattr(Check, "run", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValueError, match="^not an integer: m_max, r_max, seed$"):
            run_suite(rot3, ranges=SuiteRanges(m_max="3", r_max=None), seed=1.5)
        with pytest.raises(ValueError, match="^not an integer: seed$"):
            run_suite(rot3, seed="7")
    assert ran == []
    ranges = SuiteRanges(m_max=True, t_max=1, r_max=1, alpha_m_cap=1)
    as_bool = run_suite(rot3, checks=("stairs",), ranges=ranges, seed=True)
    as_int = run_suite(rot3, checks=("stairs",), ranges=SuiteRanges(1, 1, 1, 1), seed=1)
    assert suite_jsonl(as_bool) == suite_jsonl(as_int)
    assert '"seed": 1' in suite_jsonl(as_bool)


def test_check_reads_its_parameters_as_integers(rot3):
    with pytest.raises(ValueError, match="^not an integer: r$"):
        check("symbolic_step", rot3, {"r": "2"})
    with pytest.raises(ValueError, match="^not an integer: m, r$"):
        check("squarefree_containment", rot3, {"m": 1.0, "t": 2, "r": None})
    res = check("symbolic_step", rot3, {"r": True})
    assert res.params == {"r": 1} and type(res.params["r"]) is int
    names = ("x", "y", "z")
    assert result_to_dict(res, names) == result_to_dict(
        check("symbolic_step", rot3, {"r": 1}), names)


def test_run_suite_rejects_unit():
    with pytest.raises(ValueError):
        run_suite(MonomialIdeal.unit(2))


def test_suite_text_shape(rot3):
    text = suite_text(run_suite(rot3, checks=("chudnovsky",),
                                names=("x", "y", "z")))
    lines = text.splitlines()
    assert lines[0].startswith("ideal:")
    assert "  chudnovsky: holds" in lines
    assert lines[-1].startswith("summary:")


def test_suite_jsonl_is_valid_and_timing_free(rot3):
    out = suite_jsonl(run_suite(rot3, checks=("refined_containment",),
                                names=("x", "y", "z")))
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["type"] == "ideal"
    assert rows[-1]["type"] == "summary"
    checks = [r for r in rows if r["type"] == "check"]
    assert all("elapsed" not in r for r in rows)
    flagged = [r for r in checks if r["classification"] == "candidate"]
    assert flagged and flagged[0]["witness"] == "x^2*y^2*z^2"


def test_scan_deterministic():
    cfg = ScanConfig(count=6, seed=11, num_vars=(3,))
    a, b = scan(cfg), scan(cfg)
    assert scan_jsonl(a) == scan_jsonl(b)
    assert a.summary == b.summary


# sha256 of the structured half c03 sweep (the sweep-sqfree bench corpus:
# seed 2026, 100 square-free ideals in 3-5 variables), recorded before
# symbolic powers streamed through the prime-power kernel: the sweep.jsonl
# pin of the CLI table
SWEEP_SHA256 = DIGESTS["sweep.jsonl"]


def test_squarefree_sweep_bytes_are_pinned():
    report = scan(ScanConfig(count=100, seed=2026, num_vars=(3, 4, 5),
                             squarefree_only=True,
                             checks=("squarefree_containment",)))
    assert hashlib.sha256(scan_jsonl(report).encode()).hexdigest() == SWEEP_SHA256


# sha256 of the 8-variable scan, whose three square-free ideals are one
# hypergraph up to relabelling (two primes of 7 and 4 variables that share
# 3), recorded before containments were decided on the twin quotient
SCAN8_SHA256 = "7089b82534f6b3641efddfa42c0a7d92bfacc08f67c2c42330554ed1ef90f67f"


def test_eight_variable_scan_bytes_are_pinned(dump_records):
    out = scan_jsonl(scan(ScanConfig(count=6, seed=3, num_vars=(8,))))
    dump_records("scan8.jsonl", [json.loads(line) for line in out.splitlines()])
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN8_SHA256


def test_scan_different_seeds_differ():
    a = scan(ScanConfig(count=5, seed=1, num_vars=(3,)))
    b = scan(ScanConfig(count=5, seed=2, num_vars=(3,)))
    assert scan_jsonl(a) != scan_jsonl(b)


def test_scan_squarefree_has_ass_oracle():
    rep = scan(ScanConfig(count=4, seed=5, num_vars=(3, 4), squarefree_only=True,
                          checks=("chudnovsky",)))
    assert rep.summary["bug"] == 0
    for suite in rep.suites:
        names = [res.name for res in suite.results]
        assert "ass_oracle" in names


# sha256 of the findings report below, the one structured writer that no
# CLI pin and no bench scan reaches, recorded before check rows reached
# json_line unencoded
FINDINGS_SHA256 = "31029cc59b46e7157dd5d5d255f054d884f801e4e3fca330b877904c03e7348e"


def test_findings_output(rot3, dump_records):
    """A suite containing the candidate shows up in findings form, byte for
    byte."""
    from symbpow.harness import ScanReport

    suite = run_suite(rot3, checks=("refined_containment",), names=("x", "y", "z"),
                      label="direct")
    rep = ScanReport(ScanConfig(count=0), (suite,))
    out = findings_jsonl(rep)
    rows = [json.loads(line) for line in out.splitlines()]
    dump_records("findings.jsonl", rows)
    assert len(rows) == 1
    assert rows[0]["classification"] == "candidate"
    assert "vars: x y z" in rows[0]["ideal"]
    assert rows[0]["result"]["check"] == "refined_containment"
    assert hashlib.sha256(out.encode()).hexdigest() == FINDINGS_SHA256


def test_result_to_dict_keeps_values_raw(rot3):
    """result_to_dict leaves params and details as the row gave them, and
    json_line is the one pass that encodes them."""
    res = CheckResult("demo", R.HOLDS, params={"m": 2, "w": Fraction(1, 2)})
    d = result_to_dict(res, ("x", "y", "z"))
    assert d["params"] == {"m": 2, "w": Fraction(1, 2)}
    assert type(d["params"]["w"]) is Fraction
    assert d["witness"] is None
    assert json.loads(R.json_line(d))["params"] == {"m": 2, "w": "1/2"}


def test_check_names_cover_plan():
    assert CHECK_NAMES == tuple(CHECKS) == (
        "squarefree_containment", "equal_exponent_containment",
        "symbolic_step", "support_step", "refined_containment",
        "polyhedron_bound", "alpha_lower", "stairs", "alpha_slope",
        "chudnovsky", "equigenerated_containment", "alpha_equality",
        "integrally_closed_bound")


ONES = SuiteRanges(m_max=1, t_max=1, r_max=1, alpha_m_cap=1)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_check_gives_the_suite_result(name, triples4):
    """check reaches every suite row, and at a grid point it gives what the
    suite gives there."""
    row = CHECKS[name]
    got = check(name, triples4, row.points(ONES)[0])
    suite = run_suite(triples4, checks=[name], ranges=ONES)
    names = suite.names
    assert [result_to_dict(got, names)] == [result_to_dict(res, names)
                                            for res in suite.results]


# ic4 reaches integrally_closed_bound's localization that is not integrally
# closed, and be4 alpha_equality's skipped containment
IC4 = ideal_of(4, (2, 4, 4, 0), (3, 4, 1, 4), (4, 1, 3, 0), (3, 2, 4, 4), (1, 4, 3, 3))
BE4 = ideal_of(4, (2, 1, 1, 3), (2, 0, 3, 4), (0, 1, 2, 0))

# sha256 of the check() results below, recorded before each row's body
# decided its own hypothesis, and re-recorded when the closure test went
# exact: only ic4's prime (now in the ideal's names) and the reason of the
# call forced over a limit (now MAX_RAYS) moved
CHECK_ROWS_SHA256 = "0a6e0c4d3c67e0a45f0c943f1af91ef4a98cd09b7d3f581a0f275fc32f10a89d"


@pytest.mark.filterwarnings("ignore::symbpow.errors.PowersCoincideWarning")
def test_every_row_and_its_rare_branches_are_pinned(rot3, triples4, edges3, monkeypatch,
                                                    dump_records):
    """check() on six ideals: every CHECKS row at its first grid point, and
    the branches no scan pin reaches: alpha_slope below its threshold and
    over THRESHOLD_CAP, the closure test over MAX_RAYS, and
    symbolic_in_mpower with its witness probe.  A limit is lowered for its
    own call only, and the memoized facet tables are dropped first, so
    that the call builds its own under the lowered limit.  The dump heads
    each ideal's rows with a record of the ideal."""
    calls = [(name, CHECKS[name].points(ONES)[0], ()) for name in CHECK_NAMES]
    calls += [("alpha_slope", {"r": 1, "m": 1}, ()),
              ("alpha_slope", {"r": 1}, ((harness, "THRESHOLD_CAP", 1),)),
              ("integrally_closed_bound", {}, ((geometry, "MAX_RAYS", 1),)),
              ("symbolic_in_mpower", {"m": 3, "s": 1, "r": 2}, ())]
    ideals = {"rot3": rot3, "triples4": triples4, "edges3": edges3,
              "x2y5": ideal_of(2, (2, 0), (0, 5)), "ic4": IC4, "be4": BE4}

    def run(name, I, params, limits):
        with monkeypatch.context() as patch:
            for module, limit, value in limits:
                patch.setattr(module, limit, value)
            if limits:
                newton_polyhedron.cache_clear()
            return encode_value(result_to_dict(check(name, I, params),
                                               default_names(I.ambient_dim)))

    per_ideal = {label: [run(name, I, params, limits) for name, params, limits in calls]
                 for label, I in ideals.items()}
    rows = [row for ideal_rows in per_ideal.values() for row in ideal_rows]
    dump_records("check-rows.jsonl", [
        record for label, ideal_rows in per_ideal.items()
        for record in [{"type": "ideal", "label": label}, *ideal_rows]])
    details = [row["details"] for row in rows]
    assert {"threshold": "5/2", "reason": "m below threshold"} in details
    assert {"threshold": "5/2", "threshold_cap": 1} in details
    assert {"n": 3, "alpha": 8, "prime": "(x,y,z)",
            "reason": "a localization is not integrally closed"} in details
    assert [row["details"] for row in rows if row["check"] == "integrally_closed_bound"
            and row["verdict"] == R.RESOURCE_LIMIT] == [
        {"n": 3, "alpha": 8, "reason": "double-description rays: needs 5, budget is 1"}]
    assert sum(d.get("reason_skipped") == "beta exceeds e * alpha" for d in details) == 2
    assert sum("witness_in_plain_power" in d for d in details) == 1
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == CHECK_ROWS_SHA256


def test_a_prime_in_the_details_takes_the_suite_names():
    """A row keeps its prime as a MonomialPrime, and result_to_dict renders
    it with the names it is given, as it renders a witness."""
    res = check("integrally_closed_bound", IC4)
    assert res.details["prime"] == MonomialPrime(4, (0, 1, 2))
    assert result_to_dict(res, ("a", "b", "c", "d"))["details"]["prime"] == "(a,b,c)"


@pytest.mark.parametrize("name, params, message", [
    ("alpha_slope", {"r": 1, "m": 0}, "^m must be at least 1$"),
    ("squarefree_containment", {"m": 0, "t": 2, "r": 0}, "^m, r must be at least 1$"),
    ("symbolic_in_mpower", {"m": 2, "s": -1, "r": -2}, "^s, r must be at least 0$"),
])
def test_check_names_only_the_parameters_below_the_minimum(name, params, message, rot3):
    with pytest.raises(ValueError, match=message):
        check(name, rot3, params)


def test_check_rejects_an_unknown_name(rot3):
    with pytest.raises(ValueError, match="unknown check 'stair'"):
        check("stair", rot3, {"r": 1})


@pytest.mark.parametrize("name, params, options", [
    ("equigenerated_containment", {"r": 1, "q": 2}, {}),
    ("integrally_closed_bound", {}, {"max_point": 10}),
    ("alpha_slope", {"r": 1, "m": 1, "t": 2}, {}),
    ("symbolic_in_mpower", {"m": 3, "s": 0}, {}),
    ("integrally_closed_bound", {"max_points": 10}, {}),
    ("alpha_slope", {"r": 1, "threshold_cap": 1}, {}),
    ("alpha_slope", {"r": 1}, {"threshold_cap": 1}),
    ("stairs", {"r": 1, "sample_count": 4}, {}),
    ("stairs", {"r": 1}, {"max_rays": 1}),
])
def test_check_rejects_a_misspelled_argument(name, params, options):
    """A TypeError, also where the hypothesis answers not_applicable before
    the body runs: x^2, y^5 is not equigenerated, its alpha is too small for
    the closure bound, and m = 1 is below the slope threshold 5/2.  A budget
    or a sample size is neither a parameter nor an option: check takes
    none."""
    I = ideal_of(2, (2, 0), (0, 5))
    with pytest.raises(TypeError):
        check(name, I, params, **options)


# seed 1 draws 3 two-variable ideals of 4 whose big height is 2
SCAN_COINCIDING = ScanConfig(count=4, seed=1, num_vars=(2,),
                             checks=("symbolic_step",))


@pytest.mark.parametrize("call", [run_suite, big_height, chudnovsky_bound,
                                  invariant_report,
                                  lambda I: check("support_step", I, {"r": 1}),
                                  lambda I: scan(SCAN_COINCIDING)],
                         ids=["run_suite", "big_height", "chudnovsky_bound",
                              "invariant_report", "check_support_step", "scan"])
def test_powers_coincide_warns_once_per_call(call):
    """One warning per public call: a whole suite (every row, every grid
    point) warns once, a whole scan once, and so does every entry point
    that reads the big height internally."""
    I = ideal_of(2, (2, 0), (1, 1))  # x * (x, y): (x, y) is associated
    with pytest.warns(PowersCoincideWarning) as record:
        call(I)
    assert sum(issubclass(w.category, PowersCoincideWarning) for w in record) == 1
    assert all(w.filename == __file__ for w in record)


def test_scan_warning_names_its_ideals():
    with pytest.warns(PowersCoincideWarning, match=r"^3 of 4 scanned ideals "
                                                   r"\(first scan-1-000\)"):
        scan(SCAN_COINCIDING)


def test_a_resource_limit_keeps_its_rows_kind_and_time(monkeypatch, rot3):
    """A budget exceeded inside a body is the row's resource_limit: the
    chudnovsky row stays a conjecture, and its time is measured."""
    def over_budget(I):
        raise ResourceLimitError("vertex candidates", 11, 10)

    monkeypatch.setattr(harness, "waldschmidt", over_budget)
    res = check("chudnovsky", rot3)
    assert (res.verdict, res.kind) == (R.RESOURCE_LIMIT, R.CONJECTURE)
    assert res.classify() == "resource_limit" and res.elapsed > 0
    assert res.details == {"reason": "vertex candidates: needs 11, budget is 10"}


def test_equal_exponent_rows_reuse_the_squarefree_answers(monkeypatch, triples4):
    """On a square-free ideal the equal-exponent rows ask the square-free
    rows' 27 questions again, and the kernel answers them from its memo."""
    first = run_suite(triples4, checks=["squarefree_containment"])
    queries, real = [], monomial._first_outside
    monkeypatch.setattr(monomial, "_first_outside",
                        lambda *args: queries.append(args) or real(*args))
    again = run_suite(triples4, checks=["equal_exponent_containment"])
    assert queries == []
    assert len(again.results) == 27
    assert ([(r.verdict, r.details, r.witness) for r in again.results]
            == [(r.verdict, r.details, r.witness) for r in first.results])


def test_the_plain_power_rows_reuse_the_main_theorems_answers(monkeypatch, triples4, net6):
    """refined_containment is the main theorem at (m, t, r) = (1, r, 1), and
    equigenerated_containment and alpha_equality ask it at (1, r, e): once
    the square-free row has answered those points, the kernel answers each
    row from its memo wherever the row's hypothesis holds (alpha_equality's
    does not on triples4, whose Waldschmidt constant 2 is below alpha)."""
    rows = {triples4: ("refined_containment", "equigenerated_containment"),
            net6: ("refined_containment", "equigenerated_containment", "alpha_equality")}
    asks = [(I, name, r) for I, names in rows.items() for name in names for r in (1, 2, 3)]
    first = [check("squarefree_containment", I, {
                 "m": 1, "t": r, "r": 1 if name == "refined_containment" else big_height(I)})
             for I, name, r in asks]
    queries, real = [], monomial._first_outside
    monkeypatch.setattr(monomial, "_first_outside",
                        lambda *args: queries.append(args) or real(*args))
    again = [check(name, I, {"r": r}) for I, name, r in asks]
    assert queries == []
    assert all(res.in_hypothesis for res in again)
    assert ([(res.verdict, res.witness) for res in again]
            == [(res.verdict, res.witness) for res in first])


# every containment row at a point where its hypothesis and containment hold
CONTAINMENT_POINTS = [
    ("squarefree_containment", "triples4", {"m": 1, "t": 2, "r": 2}),
    ("equal_exponent_containment", "triples4", {"m": 2, "t": 2, "r": 1}),
    ("symbolic_step", "rot3", {"r": 1}),
    ("support_step", "rot3", {"r": 1}),
    ("refined_containment", "triples4", {"r": 2}),
    ("alpha_slope", "triples4", {"r": 1}),
    ("equigenerated_containment", "triples4", {"r": 2}),
    ("alpha_equality", "net6", {"r": 2}),
    ("symbolic_in_mpower", "rot3", {"m": 2, "s": 1, "r": 1}),
    # decided on the twin quotient: the kernel's witness is mapped back
    ("symbolic_step", "wide8", {"r": 2}),
]


@pytest.mark.parametrize("name, ideal, params", CONTAINMENT_POINTS,
                         ids=[name if ideal != "wide8" else f"{name}-{ideal}"
                              for name, ideal, _ in CONTAINMENT_POINTS])
def test_a_witness_inside_the_right_hand_side_raises(monkeypatch, request, name, ideal, params):
    """Every generator of the left-hand side lies in m^s * rhs (the
    containment holds), so a kernel that names one as a witness is caught
    before the verdict: every containment row goes through the re-test."""
    I = request.getfixturevalue(ideal)
    assert check(name, I, params).verdict == R.HOLDS
    monkeypatch.setattr(harness, "containment_witness",
                        lambda lhs, rhs, s: Monomial(lhs.vectors[0]))
    with pytest.raises(VerificationError, match="witness"):
        check(name, I, params)


def test_a_mapped_witness_off_the_generators_raises(monkeypatch, wide8):
    """A quotient with one prime's exponent raised, (y0, y1)^2 meet (y1, y2)
    for wide8's (y1, y0*y2), fails I' <= m * I' at y1^2, which maps to
    x6^2: in I, but not a minimal generator of it."""
    J, classes = twin_quotient(wide8)
    raised = intersect(power(ideal_of(3, (1, 0, 0), (0, 1, 0)), 2),
                       ideal_of(3, (0, 1, 0), (0, 0, 1)))
    monkeypatch.setattr(harness, "twin_quotient", lambda I: (raised, classes))
    with pytest.raises(VerificationError, match="not a minimal generator"):
        check("symbolic_in_mpower", wide8, {"m": 1, "s": 1, "r": 1})


def test_a_holding_containment_builds_no_side_of_the_ideal(monkeypatch, wide8):
    """The main theorem at (m, t, r) = (3, 3, 3) on wide8 asks I^(23) <=
    m^14 * (I^(3))^3: it holds on the twin quotient, and no symbolic or
    plain power of wide8 past the first is built."""
    calls = []
    for name in ("symbolic_power", "power"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda I, n, real=real: (
            calls.append((I, n)) or real(I, n)))
    assert check("squarefree_containment", wide8, {"m": 3, "t": 3, "r": 3}).verdict == R.HOLDS
    assert calls and all(I != wide8 or n < 2 for I, n in calls)


@st.composite
def prime_power_meets(draw):
    """(dim, ((P, k), ...)): an antichain of 1-3 primes in 3-7 variables,
    each with an exponent k in {1, 2}; the ideal is the meet of the P^k."""
    dim = draw(st.integers(3, 7))
    primes = draw(st.lists(st.frozensets(st.integers(0, dim - 1), min_size=1),
                           min_size=1, max_size=3))
    maximal = sorted({tuple(sorted(P)) for P in primes if not any(P < Q for Q in primes)})
    return dim, tuple((P, draw(st.integers(1, 2))) for P in maximal)


@given(prime_power_meets(), st.integers(1, 5), st.integers(1, 2), st.integers(1, 2),
       st.integers(0, 3))
@example((2, (((0, 1), 2),)), 3, 1, 2, 1)  # one prime power, (x0, x1)^2
@example((5, (((0, 1, 2), 1), ((1, 2, 3), 2))), 2, 1, 2, 3)  # x4 in no prime
@settings(max_examples=60, deadline=None)
def test_the_twin_quotient_decides_as_the_full_kernel(meet, a, b, t, s):
    """On ideals with twin variables, _contained gives the kernel's verdict
    and witness on the sides built in full, and symbolic_in_mpower's
    generator counts are those of the full sides."""
    dim, primes = meet
    I = reduce(intersect, [power(MonomialPrime(dim, P).to_ideal(), k) for P, k in primes])
    assume(twin_quotient(I) is not None)
    lhs = symbolic_power(I, a)
    for b_, row in ((b, harness._contained(I, a, b, t, s, {})),
                    (1, harness._symbolic_in_mpower(I, a, s, t))):
        rhs = power(symbolic_power(I, b_), t)
        witness = containment_witness(lhs, rhs, s)
        assert (row.verdict, row.witness) == (R.HOLDS if witness is None else R.FAILS, witness)
    assert row.details == {"lhs_gens": len(lhs.vectors), "rhs_gens": len(rhs.vectors)} | (
        {} if witness is None else {"witness_in_symbolic_power": True,
                                    "witness_in_plain_power": contains(rhs, witness)})


@st.composite
def split_prime_meets(draw):
    """A sum of 2-3 ideals on disjoint blocks of 2-4 variables, in up to 13
    variables, one of which may lie in no prime.  Each summand is the meet
    of the parts of a partition of its block into 2-3 primes, whose
    variables in one part are twins, and at times one more prime on the
    block; only the maximal primes are kept.  A sum has a twin quotient
    only when every localization, a sum of one localization per summand,
    is a prime power, so only when each is a prime: hence primes, not
    their powers."""
    blocks = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    dim = sum(blocks) + draw(st.integers(0, 1))
    order, at, vectors = draw(st.permutations(range(dim))), 0, []
    for size in blocks:
        block, at = order[at:at + size], at + size
        part_of = [0, 1] + [draw(st.integers(0, 2)) for _ in range(size - 2)]
        primes = {frozenset(v for v, n in zip(block, part_of) if n == k) for k in set(part_of)}
        primes |= set(draw(st.lists(st.frozensets(st.sampled_from(block), min_size=1),
                                    max_size=1)))
        maximal = {tuple(sorted(P)) for P in primes if not any(P < Q for Q in primes)}
        vectors += reduce(intersect, [MonomialPrime(dim, P).to_ideal()
                                      for P in sorted(maximal)]).vectors
    return ideal_of(dim, *vectors)


@given(split_prime_meets(), st.integers(1, 5), st.integers(1, 2), st.integers(1, 2),
       st.integers(0, 3))
@example(ideal_of(6, (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                  (0, 0, 0, 0, 1, 1)), 3, 1, 2, 1)
@settings(max_examples=60, deadline=None)
def test_a_split_twin_quotient_decides_as_the_full_ideal(I, a, b, t, s):
    """When the twin quotient of a sum on disjoint variables splits,
    _contained gives the verdict and witness of the kernel on the full
    sides, built by by_definition, which meets the localizations' powers
    and takes no split route."""
    J = twin_quotient(I)
    assume(J is not None and symbolic._split(J[0]) is not None)
    lhs, rhs = by_definition(I, a), power(by_definition(I, b), t)
    witness = containment_witness(lhs, rhs, s)
    row = harness._contained(I, a, b, t, s, {})
    assert (row.verdict, row.witness) == (R.HOLDS if witness is None else R.FAILS, witness)
