"""Batch machinery: the check table, suites over one ideal, randomized scans.

Every named check is one row of the check table (CHECKS): a parameter grid
read from SuiteRanges and a body that decides the statement's hypothesis
and returns one Outcome, not_applicable when the hypothesis fails; a
containment goes to the kernel through `_contained`, which asks whether
lhs sits inside m^s * rhs.  `Check.run` alone turns an Outcome into a
CheckResult, for the suite rows, the command-line containment and the
scan's associated-primes oracle alike.  A suite runs a selection of rows
over their grids against one ideal and tallies the outcomes.  A scan
generates a pseudo-random corpus (square-free ideals come from
intersecting a minimal family of monomial primes, which doubles as a free
oracle for the associated primes) and runs a suite on each member,
collecting failures of proven statements (bugs) and failures of
conjectured ones (candidate counterexamples) into a findings list with
enough detail to reproduce each one.

Reports serialize two ways: human-oriented text, and line-delimited JSON
with sorted keys, exact "p/q" rationals, and no wall-clock timings, so a
rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from itertools import product
from math import ceil

from . import results as R
from .decomposition import (MonomialPrime, _big_height, associated_primes,
                            localize, max_associated_primes, sigma,
                            warn_if_powers_coincide)
from .errors import PowersCoincideWarning, ResourceLimitError
from .geometry import (DEFAULT_MAX_RAYS, member_scaled, probe_points,
                       symbolic_polyhedron)
from .invariants import (DEFAULT_CLOSURE_BUDGET, _chudnovsky_bound, alpha,
                         beta, is_equigenerated, is_integrally_closed,
                         waldschmidt)
from .monomial import (Monomial, MonomialIdeal, _from_vectors,
                       containment_witness, contains, intersect, is_squarefree,
                       power, require_proper)
from .parsing import default_names, format_ideal
from .results import CheckResult, encode_value
from .rng import SplitRng
from .symbolic import equal_exponent_condition, symbolic_power


class SuiteRanges(namedtuple("SuiteRanges", "m_max t_max r_max alpha_m_cap",
                             defaults=(3, 3, 3, 6))):
    """The largest value of each grid parameter a suite runs."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# the check table


class Outcome(namedtuple("Outcome", "verdict details witness params kind",
                         defaults=(None, None, None))):
    """A body's verdict, not_applicable when the hypothesis fails.  witness
    is a failing Monomial or None; params and kind, when set, replace the
    requested params and the row's kind in the result."""

    __slots__ = ()


def _holds(ok: bool) -> str:
    return R.HOLDS if ok else R.FAILS


def _contained(lhs, rhs, s, details, probe_witness=False, params=None, kind=None):
    """Whether the ideal lhs sits inside m^s * rhs, by the containment
    kernel.  probe_witness: on failure, also record whether the witness
    lies in rhs itself."""
    witness = containment_witness(lhs, rhs, s)
    if witness is not None and probe_witness:
        details |= {"witness_in_symbolic_power": True,
                    "witness_in_plain_power": contains(rhs, witness)}
    return Outcome(_holds(witness is None), details, witness, params, kind)


class Check(namedtuple("Check", "name kind body grid options low")):
    """One row of the check table.

    grid maps each parameter to the SuiteRanges field holding its largest
    value (a new empty dict by default), and options(ranges, seed) gives
    the keyword arguments a suite adds.  body(I, **params, **options)
    decides the hypothesis and returns an Outcome.  Every parameter must be
    at least low."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, body: Callable[..., Outcome],
                grid: dict[str, str] | None = None,
                options: Callable[[SuiteRanges, int], dict] = lambda ranges, seed: {},
                low: int = 1):
        return super().__new__(cls, name, kind, body, {} if grid is None else grid,
                               options, low)

    def points(self, ranges: SuiteRanges) -> list[dict]:
        """Every assignment of 1..largest to each parameter, the last one
        varying fastest."""
        axes = (range(1, getattr(ranges, top) + 1) for top in self.grid.values())
        return [dict(zip(self.grid, values)) for values in product(*axes)]

    def run(self, I: MonomialIdeal, params: dict, **options) -> CheckResult:
        """This check on I at one parameter point, with no proper-ideal
        check and no warning: `check` makes them once per call, a suite
        once for all its rows.  A budget exceeded anywhere in the row is
        its verdict, resource_limit, with the budget's message as reason."""
        low = [name for name, v in params.items() if v < self.low]
        if low:
            raise ValueError(f"{', '.join(low)} must be at least {self.low}")
        start = time.perf_counter()
        try:
            out = self.body(I, **params, **options)
        except ResourceLimitError as exc:
            return CheckResult(name=self.name, verdict=R.RESOURCE_LIMIT,
                               params=params, details={"reason": str(exc)})
        return CheckResult(
            name=self.name, verdict=out.verdict, kind=out.kind or self.kind,
            params=out.params or params, details=out.details, witness=out.witness,
            in_hypothesis=out.verdict != R.NOT_APPLICABLE,
            elapsed=time.perf_counter() - start)


def _main_theorem(I, m, t, r):
    """I^(t(m+e-1)-e+r) <= m^((t-1)(e-1)+r-1) * (I^(m))^t, e the big height:
    proven for square-free I, and it transfers verbatim to ideals whose
    components raise each variable to a single common exponent
    (substituting x_v^a -> y_v turns them square-free without changing
    heights)."""
    e = _big_height(I)
    lhs_exp = t * (m + e - 1) - e + r
    s = (t - 1) * (e - 1) + r - 1
    return _contained(
        symbolic_power(I, lhs_exp), power(symbolic_power(I, m), t), s,
        {"e": e, "lhs_symbolic_exponent": lhs_exp, "maximal_ideal_exponent": s})


def _squarefree_containment(I, m, t, r):
    """The main theorem where it is proven: I square-free."""
    if not is_squarefree(I):
        return Outcome(R.NOT_APPLICABLE, {"reason": "ideal is not square-free"})
    return _main_theorem(I, m, t, r)


def _equal_exponent_containment(I, m, t, r):
    """The main theorem where it transfers: one exponent per variable."""
    if not equal_exponent_condition(I):
        return Outcome(R.NOT_APPLICABLE, {
            "reason": "some variable occurs with two different exponents"})
    return _main_theorem(I, m, t, r)


def _symbolic_step(I, r):
    """I^(r+1) <= m * I^(r) for every r >= 1 (unconditional theorem)."""
    return _contained(symbolic_power(I, r + 1), symbolic_power(I, r), 1, {})


def _support_step(I, r):
    """I^(r+e) <= m^sigma(I) * I^(r) with e the big height (theorem)."""
    e, s = _big_height(I), sigma(I)
    return _contained(symbolic_power(I, r + e), symbolic_power(I, r), s,
                      {"e": e, "sigma": s})


def _refined_containment(I, r):
    """I^(re-e+1) <= m^((r-1)(e-1)) * I^r.

    Square-free: a consequence of the square-free containment theorem
    (kind theorem).  In general it is the monomial form of a containment
    conjecture with known counterexamples, so failures on non-square-free
    input are candidate counterexamples, not bugs.
    """
    e = _big_height(I)
    sqfree = is_squarefree(I)
    m_exp = r * e - e + 1
    s = (r - 1) * (e - 1)
    return _contained(
        symbolic_power(I, m_exp), power(I, r), s,
        {"e": e, "lhs_symbolic_exponent": m_exp, "maximal_ideal_exponent": s,
         "squarefree": sqfree},
        probe_witness=True, params={"r": r, "m": m_exp, "s": s},
        kind=R.THEOREM if sqfree else R.CONJECTURE)


def _symbolic_in_mpower(I, m, s, r):
    """Exploratory membership check I^(m) <= m^s * I^r."""
    lhs, rhs = symbolic_power(I, m), power(I, r)
    return _contained(lhs, rhs, s,
                      {"lhs_gens": len(lhs.vectors), "rhs_gens": len(rhs.vectors)},
                      probe_witness=True)


def _polyhedron_bound(I, m):
    """Every minimal generator of the m-th symbolic power has exponent
    vector inside m times the symbolic polyhedron."""
    Q = symbolic_polyhedron(I)
    sym = symbolic_power(I, m)
    bad = next((g for g in sym.vectors if not member_scaled(Q, g, m)), None)
    return Outcome(_holds(bad is None), {"gens_checked": len(sym.vectors)},
                   None if bad is None else Monomial(bad))


def _alpha_lower(I, m):
    """alpha of the m-th symbolic power is at least m times the Waldschmidt
    constant (the sequence alpha(I^(m))/m decreases to its infimum)."""
    w = waldschmidt(I)
    am = alpha(symbolic_power(I, m))
    return Outcome(_holds(am >= m * w),
                   {"alpha_symbolic": am, "m_times_waldschmidt": m * w,
                    "equality": am == m * w})


def _stairs(I, r, sample_count=8, seed=0, max_rays=DEFAULT_MAX_RAYS):
    """e*r*Q sits inside the staircase region of I^r: checked on every
    vertex of Q plus pseudo-random convex combinations; if vertex
    enumeration is over budget, on sampled LP optima of random positive
    objectives instead (flagged sampled_only)."""
    e = _big_height(I)
    Ir = power(I, r)
    points, vertex_count, sampled_only = probe_points(
        symbolic_polyhedron(I), sample_count, SplitRng(seed, ("stairs", r)), max_rays)
    # e*r*v/den lies above g exactly when g*den <= e*r*v, in integers
    bad = next(((v, den) for v, den in points
                if not any(all(a * den <= e * r * x for a, x in zip(g, v))
                           for g in Ir.vectors)), None)
    details = {"e": e, "vertices": vertex_count, "samples": sample_count,
               "sampled_only": sampled_only, "seed": seed}
    if bad is not None:
        v, den = bad
        details["witness_point"] = [str(Fraction(x, den)) for x in v]
    return Outcome(_holds(bad is None), details)


def _alpha_slope(I, r, m=None, threshold_cap=12):
    """For m at least max(e*r, beta(I^r)/waldschmidt), the m-th symbolic
    power sits in m^s * I^r with s = ceil(waldschmidt * m) - beta(I^r).

    With m omitted, the least integer satisfying the hypothesis is used;
    if that exceeds threshold_cap the check reports a resource limit
    instead of computing an enormous symbolic power.
    """
    w, Ir = waldschmidt(I), power(I, r)
    br = beta(Ir)
    threshold = max(Fraction(_big_height(I) * r), Fraction(br) / w)
    if m is None:
        m = ceil(threshold)
        if m > threshold_cap:
            return Outcome(R.RESOURCE_LIMIT, {"threshold": threshold,
                                              "threshold_cap": threshold_cap})
    elif m < threshold:
        return Outcome(R.NOT_APPLICABLE, {"threshold": threshold,
                                          "reason": "m below threshold"})
    s = ceil(w * m) - br
    return _contained(
        symbolic_power(I, m), Ir, max(s, 0),
        {"s": max(s, 0), "clamped": s < 0, "threshold": threshold,
         "beta_power": br, "waldschmidt": w},
        params={"r": r, "m": m})


def _chudnovsky(I):
    """Conjectured lower bound: the Waldschmidt constant is at least
    (alpha(I) + e - 1) / e.  A failure is a candidate counterexample, not a
    bug."""
    w, bound = waldschmidt(I), _chudnovsky_bound(I)
    return Outcome(_holds(w >= bound),
                   {"alpha": alpha(I), "e": _big_height(I), "waldschmidt": w,
                    "bound": bound, "slack": w - bound})


def _equigenerated_containment(I, r):
    """When I is generated in one degree and the Chudnovsky-style bound
    holds for it, I^(e*r) sits in m^((e-1)*r) * I^r."""
    if not is_equigenerated(I):
        return Outcome(R.NOT_APPLICABLE, {"reason": "not equigenerated"})
    if waldschmidt(I) < _chudnovsky_bound(I):
        return Outcome(R.NOT_APPLICABLE, {"reason": "degree bound hypothesis fails"})
    e = _big_height(I)
    s = (e - 1) * r
    return _contained(symbolic_power(I, e * r), power(I, r), s, {"e": e, "s": s})


def _alpha_equality(I, r):
    """When the Waldschmidt constant equals alpha(I): the Chudnovsky-style
    bound follows, and if additionally beta(I) <= e * alpha(I) so does
    I^(e*r) inside m^((e-1)*r) * I^r."""
    a, w = alpha(I), waldschmidt(I)
    if w != a:
        return Outcome(R.NOT_APPLICABLE, {"alpha": a, "waldschmidt": w,
                                          "reason": "waldschmidt differs from alpha"})
    e = _big_height(I)
    holds = w >= _chudnovsky_bound(I)
    details = {"alpha": a, "e": e, "chudnovsky_holds": holds}
    if beta(I) > e * a:
        return Outcome(_holds(holds), details | {
            "containment_checked": False,
            "reason_skipped": "beta exceeds e * alpha"})
    s = (e - 1) * r
    out = _contained(symbolic_power(I, e * r), power(I, r), s,
                     details | {"containment_checked": True, "s": s})
    return out if holds else out._replace(verdict=R.FAILS)


def _integrally_closed_bound(I, max_points=DEFAULT_CLOSURE_BUDGET):
    """For ideals in n+1 variables whose localizations at the maximal
    associated primes are all integrally closed, with alpha(I) large
    relative to n (alpha >= n+4 for n >= 3, alpha >= 8 for n = 2), the
    Waldschmidt constant is at least (alpha(I) + n - 1) / n."""
    n, a = I.ambient_dim - 1, alpha(I)
    details = {"n": n, "alpha": a}
    if not ((n >= 3 and a >= n + 4) or (n == 2 and a >= 8)):
        return Outcome(R.NOT_APPLICABLE, details | {"reason": "alpha too small for this n"})
    # going over the closure test's budget is this row's verdict, with the
    # details so far, not a bare resource limit
    try:
        for P in max_associated_primes(I):
            if not is_integrally_closed(localize(I, P), max_points):
                return Outcome(R.NOT_APPLICABLE, details | {
                    "reason": "a localization is not integrally closed",
                    "prime": P.render()})
    except ResourceLimitError as exc:
        return Outcome(R.RESOURCE_LIMIT, details | {"reason": str(exc)})
    w, bound = waldschmidt(I), Fraction(a + n - 1, n)
    return Outcome(_holds(w >= bound), details | {"waldschmidt": w, "bound": bound})


# The suite runs these rows in this order; CHECK_NAMES is their key order.
CHECKS: dict[str, Check] = {c.name: c for c in (
    Check("squarefree_containment", R.THEOREM, _squarefree_containment,
          grid={"m": "m_max", "t": "t_max", "r": "r_max"}),
    Check("equal_exponent_containment", R.THEOREM, _equal_exponent_containment,
          grid={"m": "m_max", "t": "t_max", "r": "r_max"}),
    Check("symbolic_step", R.THEOREM, _symbolic_step, grid={"r": "r_max"}),
    Check("support_step", R.THEOREM, _support_step, grid={"r": "r_max"}),
    Check("refined_containment", R.THEOREM, _refined_containment,
          grid={"r": "r_max"}),
    Check("polyhedron_bound", R.THEOREM, _polyhedron_bound, grid={"m": "m_max"}),
    Check("alpha_lower", R.THEOREM, _alpha_lower, grid={"m": "alpha_m_cap"}),
    Check("stairs", R.THEOREM, _stairs, grid={"r": "r_max"},
          options=lambda ranges, seed: {"seed": seed}),
    Check("alpha_slope", R.THEOREM, _alpha_slope, grid={"r": "r_max"}),
    Check("chudnovsky", R.CONJECTURE, _chudnovsky),
    Check("equigenerated_containment", R.THEOREM, _equigenerated_containment,
          grid={"r": "r_max"}),
    Check("alpha_equality", R.THEOREM, _alpha_equality, grid={"r": "r_max"}),
    Check("integrally_closed_bound", R.THEOREM, _integrally_closed_bound),
)}
CHECK_NAMES = tuple(CHECKS)

# The exploratory command-line containment: same runner, not a suite row.
SYMBOLIC_IN_MPOWER = Check("symbolic_in_mpower", R.EXPLORATION,
                           _symbolic_in_mpower, low=0)


def check(name: str, I: MonomialIdeal, params: dict | None = None,
          **options) -> CheckResult:
    """The check `name`, a CHECKS row or "symbolic_in_mpower", on I at one
    parameter point.  params holds the row's parameters, e.g. {"r": 1} or
    {"r": 1, "m": 4} for alpha_slope; options are its body's keywords, such
    as sample_count or threshold_cap.  A parameter or option the body does
    not take raises TypeError.  It warns once, naming the line that called
    it."""
    row = SYMBOLIC_IN_MPOWER if name == SYMBOLIC_IN_MPOWER.name else CHECKS.get(name)
    if row is None:
        raise ValueError(f"unknown check {name!r}")
    require_proper(I)
    warn_if_powers_coincide(I)
    return row.run(I, params or {}, **options)


# every classification a result can get, the keys of a report's summary
_TALLY_KEYS = ("holds", "bug", "candidate", "fails", "not_applicable",
               "resource_limit")


class SuiteReport(namedtuple("SuiteReport", "ideal names results label",
                             defaults=(None,))):
    """One suite over an ideal: its variable names, its CheckResults and
    its label."""

    __slots__ = ()

    @property
    def summary(self) -> dict:
        tally = dict.fromkeys(_TALLY_KEYS, 0)
        for res in self.results:
            tally[res.classify()] += 1
        return tally

    @property
    def has_bug(self) -> bool:
        return any(res.classify() == "bug" for res in self.results)


def run_suite(I: MonomialIdeal, checks=None, ranges: SuiteRanges | None = None,
              seed: int = 0, names=None, label: str | None = None) -> SuiteReport:
    require_proper(I)
    ranges = ranges or SuiteRanges()
    selected = CHECK_NAMES if checks is None else tuple(checks)
    if not selected:
        raise ValueError("empty check selection; pass checks=None for every check")
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    warn_if_powers_coincide(I)
    results = []
    for name in selected:
        row = CHECKS[name]
        for params in row.points(ranges):
            results.append(row.run(I, params, **row.options(ranges, seed)))
    if names is None:
        names = default_names(I.ambient_dim)
    return SuiteReport(I, tuple(names), tuple(results), label)


# ---------------------------------------------------------------------------
# randomized scans


class ScanConfig(namedtuple("ScanConfig", "count seed num_vars max_exp max_gens "
                                         "squarefree_only checks ranges",
                            defaults=(20, 0, (3, 4), 4, 6, False, None, SuiteRanges()))):
    """A scan: count ideals drawn from seed, each in one of num_vars
    variables, with exponents up to max_exp and up to max_gens generators,
    square-free ones only if squarefree_only; checks (None for all) run
    over ranges."""

    __slots__ = ()


def _random_prime_family(rng: SplitRng, nvars: int):
    """A minimal family (no containments) of at least two variable subsets."""
    for _ in range(64):
        count = rng.randint(2, min(4, nvars + 1))
        fam: list[tuple[int, ...]] = []
        for j in range(count):
            size = rng.child(f"size{j}").randint(1, max(1, nvars - 1))
            fam.append(tuple(rng.child(f"pick{j}").subset(range(nvars), size)))
        fam = sorted(set(fam))
        fam = [p for p in fam
               if not any(q != p and set(q) <= set(p) for q in fam)]
        if len(fam) >= 2:
            return fam
        rng = rng.child("retry")
    raise RuntimeError("could not draw a minimal prime family")


def _random_squarefree(rng: SplitRng, nvars: int):
    fam = _random_prime_family(rng, nvars)
    ideal = None
    for p in fam:
        prime = MonomialPrime(nvars, p).to_ideal()
        ideal = prime if ideal is None else intersect(ideal, prime)
    return ideal, fam


def _random_general(rng: SplitRng, nvars: int, max_exp: int, max_gens: int):
    for attempt in range(64):
        sub = rng.child(f"try{attempt}")
        count = sub.randint(2, max_gens)
        vecs = []
        for j in range(count):
            g = sub.child(f"gen{j}")
            vecs.append(tuple(g.randint(0, max_exp) for _ in range(nvars)))
        I = _from_vectors(nvars, vecs)
        if I.is_proper:
            return I
    raise RuntimeError("could not draw a proper ideal")


def _ass_oracle(I: MonomialIdeal, family) -> Outcome:
    """The associated primes of an intersection of a minimal prime family
    must be exactly that family; anything else is a bug."""
    expected = sorted(tuple(p) for p in family)
    got = sorted(P.variables for P in associated_primes(I))
    return Outcome(_holds(expected == got), {"expected": [list(p) for p in expected],
                                             "got": [list(p) for p in got]})


# The scan's oracle for its square-free ideals: same runner, not a suite row.
ASS_ORACLE = Check("ass_oracle", R.THEOREM, _ass_oracle)


class ScanReport(namedtuple("ScanReport", "config suites")):
    """A scan's config and one SuiteReport per ideal."""

    __slots__ = ()

    @property
    def summary(self) -> dict:
        tally = {"ideals": len(self.suites)} | dict.fromkeys(_TALLY_KEYS, 0)
        for suite in self.suites:
            for key, val in suite.summary.items():
                tally[key] += val
        return tally

    @property
    def has_bug(self) -> bool:
        return any(s.has_bug for s in self.suites)

    def findings(self) -> list[dict]:
        out = []
        for suite in self.suites:
            for res in suite.results:
                cls = res.classify()
                if cls in ("bug", "candidate"):
                    out.append({
                        "classification": cls,
                        "label": suite.label,
                        "ideal": format_ideal(suite.ideal, suite.names),
                        "result": result_to_dict(res, suite.names),
                    })
        return out


def _scan_suite(rng: SplitRng, i: int, config: ScanConfig) -> SuiteReport:
    nvars = config.num_vars[rng.randint(0, len(config.num_vars) - 1)]
    sqfree = config.squarefree_only or rng.randint(0, 1) == 0
    extra = []
    if sqfree:
        I, fam = _random_squarefree(rng.child("sqfree"), nvars)
        extra.append(ASS_ORACLE.run(I, {}, family=fam))
    else:
        I = _random_general(rng.child("general"), nvars,
                            config.max_exp, config.max_gens)
    label = f"scan-{config.seed}-{i:03d}"
    suite = run_suite(I, checks=config.checks, ranges=config.ranges,
                      seed=config.seed, label=label)
    return SuiteReport(suite.ideal, suite.names,
                       tuple(extra) + suite.results, label)


def scan(config: ScanConfig) -> ScanReport:
    """One suite per pseudo-random ideal.  The suites' own
    PowersCoincideWarnings are held back, and the scan gives one at its
    caller's line, naming how many ideals it concerns."""
    root = SplitRng(config.seed, ("scan",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PowersCoincideWarning)
        suites = tuple(_scan_suite(root.child(f"ideal{i}"), i, config)
                       for i in range(config.count))
    coincide = [s.label for s in suites
                if _big_height(s.ideal) == s.ideal.ambient_dim]
    if coincide:
        warnings.warn(
            f"{len(coincide)} of {len(suites)} scanned ideals (first "
            f"{coincide[0]}) have big-height equal to the number of "
            "variables: their symbolic powers are their ordinary powers",
            PowersCoincideWarning, stacklevel=2)
    return ScanReport(config, suites)


# ---------------------------------------------------------------------------
# serialization


def result_to_dict(res: CheckResult, names) -> dict:
    return {
        "check": res.name,
        "verdict": res.verdict,
        "kind": res.kind,
        "classification": res.classify(),
        "in_hypothesis": res.in_hypothesis,
        "params": {k: encode_value(v) for k, v in sorted(res.params.items())},
        "details": {k: encode_value(v) for k, v in sorted(res.details.items())},
        "witness": None if res.witness is None else res.witness.render(names),
    }


def _result_line(res: CheckResult, names, timings: bool) -> str:
    bits = [res.name]
    if res.params:
        bits.append(" ".join(f"{k}={encode_value(v)}"
                             for k, v in sorted(res.params.items())))
    verdict = res.classify()
    line = f"  {' '.join(bits)}: {verdict}"
    if verdict == "candidate":
        line += " (conjecture fails)"
    if res.witness is not None:
        line += f"  witness={res.witness.render(names)}"
    if timings:
        line += f"  [{res.elapsed:.3f}s]"
    return line


def _tally_text(s: dict) -> str:
    return (f"{s['holds']} holds, {s['bug']} bugs, {s['candidate']} candidates, "
            f"{s['not_applicable']} not applicable, "
            f"{s['resource_limit']} resource-limited")


def suite_text(report: SuiteReport, timings: bool = False) -> str:
    head = report.label or report.ideal.render(report.names)
    lines = [f"ideal: {head}"]
    lines.extend(_result_line(res, report.names, timings)
                 for res in report.results)
    lines.append(f"summary: {_tally_text(report.summary)}")
    return "\n".join(lines) + "\n"


def suite_jsonl(report: SuiteReport) -> str:
    lines = [json.dumps({
        "type": "ideal",
        "label": report.label,
        "vars": list(report.names),
        "gens": [g.render(report.names) for g in report.ideal.gens],
    }, sort_keys=True)]
    for res in report.results:
        lines.append(json.dumps({"type": "check"} | result_to_dict(res, report.names),
                                sort_keys=True))
    lines.append(json.dumps({"type": "summary"} | report.summary, sort_keys=True))
    return "\n".join(lines) + "\n"


def scan_text(report: ScanReport, timings: bool = False) -> str:
    parts = [suite_text(s, timings) for s in report.suites]
    s = report.summary
    parts.append(f"scan summary: {s['ideals']} ideals, {_tally_text(s)}\n")
    return "\n".join(parts)


def scan_jsonl(report: ScanReport) -> str:
    lines = []
    for suite in report.suites:
        lines.append(suite_jsonl(suite).rstrip("\n"))
    lines.append(json.dumps({"type": "scan_summary"} | report.summary,
                            sort_keys=True))
    return "\n".join(lines) + "\n"


def findings_jsonl(report: ScanReport) -> str:
    return "".join(json.dumps(f, sort_keys=True) + "\n"
                   for f in report.findings())
