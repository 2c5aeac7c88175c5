import hashlib
import json
from fractions import Fraction

import pytest

import symbpow.results as R
from symbpow.decomposition import big_height
from symbpow.errors import PowersCoincideWarning
from symbpow.harness import (CHECK_NAMES, CHECKS, Check, ScanConfig, SuiteRanges,
                             check, findings_jsonl, result_to_dict, run_suite,
                             scan, scan_jsonl, suite_jsonl, suite_text)
from symbpow.invariants import chudnovsky_bound, invariant_report
from symbpow.monomial import Monomial, MonomialIdeal
from symbpow.parsing import default_names
from symbpow.results import CheckResult, encode_value

from conftest import ideal_of


def test_encode_value():
    assert encode_value(Fraction(2, 3)) == "2/3"
    assert encode_value(Fraction(4, 1)) == "4"
    assert encode_value(Monomial((1, 0, 2))) == [1, 0, 2]
    assert encode_value({"a": Fraction(1, 2), "b": [True, None]}) == {
        "a": "1/2", "b": [True, None]}


def test_classification():
    assert CheckResult("x", R.HOLDS).classify() == "holds"
    assert CheckResult("x", R.FAILS, kind=R.THEOREM).classify() == "bug"
    assert CheckResult("x", R.FAILS, kind=R.CONJECTURE).classify() == "candidate"
    assert CheckResult("x", R.NOT_APPLICABLE).classify() == "not_applicable"
    assert CheckResult("x", R.RESOURCE_LIMIT).classify() == "resource_limit"


def test_records_are_immutable_and_share_no_default():
    """Records are named tuples: compared by fields, immutable, and each
    gets its own empty params, details and grid dicts."""
    a, b = CheckResult("x", R.HOLDS), CheckResult(name="x", verdict=R.HOLDS)
    assert a == b == CheckResult("x", R.HOLDS, R.THEOREM, {}, {}, None, True, 0.0)
    assert a.params is not b.params and a.details is not b.details
    a.details["seen"] = True
    assert b.details == {}
    with pytest.raises(AttributeError):
        a.verdict = R.FAILS
    assert a._replace(verdict=R.FAILS).classify() == "bug"
    rows = [Check("x", R.THEOREM, lambda I: None) for _ in range(2)]
    assert rows[0].grid == {} and rows[0].grid is not rows[1].grid
    assert SuiteRanges() == SuiteRanges(3, 3, 3, 6)
    assert ScanConfig(count=5).ranges == SuiteRanges()


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
# symbolic powers streamed through the prime-power kernel
SWEEP_SHA256 = "05664d3c571b7d244af954a173b5c79e29860f9bb321ec5969432bc5a22a7211"


def test_squarefree_sweep_bytes_are_pinned():
    report = scan(ScanConfig(count=100, seed=2026, num_vars=(3, 4, 5),
                             squarefree_only=True,
                             checks=("squarefree_containment",)))
    assert hashlib.sha256(scan_jsonl(report).encode()).hexdigest() == SWEEP_SHA256


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


def test_findings_output(rot3):
    """A suite containing the candidate shows up in findings form."""
    from symbpow.harness import ScanReport, SuiteReport

    suite = run_suite(rot3, checks=("refined_containment",), names=("x", "y", "z"),
                      label="direct")
    rep = ScanReport(ScanConfig(count=0), (suite,))
    rows = [json.loads(line) for line in findings_jsonl(rep).splitlines()]
    assert len(rows) == 1
    assert rows[0]["classification"] == "candidate"
    assert "vars: x y z" in rows[0]["ideal"]
    assert rows[0]["result"]["check"] == "refined_containment"


def test_result_to_dict_encodes_params(rot3):
    res = CheckResult("demo", R.HOLDS, params={"m": 2, "w": Fraction(1, 2)})
    d = result_to_dict(res, ("x", "y", "z"))
    assert d["params"] == {"m": 2, "w": "1/2"}
    assert d["witness"] is None


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
    got = check(name, triples4, row.points(ONES)[0], **row.options(ONES, 0))
    suite = run_suite(triples4, checks=[name], ranges=ONES)
    names = suite.names
    assert [result_to_dict(got, names)] == [result_to_dict(res, names)
                                            for res in suite.results]


# ic4 reaches integrally_closed_bound's localization that is not integrally
# closed, and be4 alpha_equality's skipped containment
IC4 = ideal_of(4, (2, 4, 4, 0), (3, 4, 1, 4), (4, 1, 3, 0), (3, 2, 4, 4), (1, 4, 3, 3))
BE4 = ideal_of(4, (2, 1, 1, 3), (2, 0, 3, 4), (0, 1, 2, 0))

# sha256 of the check() results below, recorded before each row's body
# decided its own hypothesis
CHECK_ROWS_SHA256 = "91d9dd037884187732dd27f050c825ee925822cd59bd2592b58f526e4b3888e2"


@pytest.mark.filterwarnings("ignore::symbpow.errors.PowersCoincideWarning")
def test_every_row_and_its_rare_branches_are_pinned(rot3, triples4, edges3):
    """check() on six ideals: every CHECKS row at its first grid point, and
    the branches no scan pin reaches: alpha_slope below its threshold and
    over its threshold_cap, the closure test over its budget, and
    symbolic_in_mpower with its witness probe."""
    calls = [(name, CHECKS[name].points(ONES)[0], CHECKS[name].options(ONES, 0))
             for name in CHECK_NAMES]
    calls += [("alpha_slope", {"r": 1, "m": 1}, {}),
              ("alpha_slope", {"r": 1}, {"threshold_cap": 1}),
              ("integrally_closed_bound", {}, {"max_points": 1}),
              ("symbolic_in_mpower", {"m": 3, "s": 1, "r": 2}, {})]
    ideals = (rot3, triples4, edges3, ideal_of(2, (2, 0), (0, 5)), IC4, BE4)
    rows = [result_to_dict(check(name, I, params, **options), default_names(I.ambient_dim))
            for I in ideals for name, params, options in calls]
    details = [row["details"] for row in rows]
    assert {"threshold": "5/2", "reason": "m below threshold"} in details
    assert {"threshold": "5/2", "threshold_cap": 1} in details
    assert {"n": 3, "alpha": 8, "prime": "(x0,x1,x2)",
            "reason": "a localization is not integrally closed"} in details
    assert sum(d.get("reason_skipped") == "beta exceeds e * alpha" for d in details) == 2
    assert sum("witness_in_plain_power" in d for d in details) == 1
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == CHECK_ROWS_SHA256


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
])
def test_check_rejects_a_misspelled_argument(name, params, options):
    """A TypeError, also where the hypothesis answers not_applicable before
    the body runs: x^2, y^5 is not equigenerated, its alpha is too small for
    the closure bound, and m = 1 is below the slope threshold 5/2."""
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
