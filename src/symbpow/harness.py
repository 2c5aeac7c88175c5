"""Batch machinery: the check table, suites over one ideal, randomized scans.

Every named check is one row of the check table (CHECKS): a parameter
grid read from SuiteRanges and a body that decides the statement's
hypothesis and returns one Outcome, not_applicable when the hypothesis
fails.  Every containment has one shape, I^(a) <= m^s * (I^(b))^t: a row
passes its exponents to `_contained`, which alone builds both sides, on
the twin quotient (Herzog-Hibi-Trung) when every localization is a prime
power and twins exist, with I's exponents; a failing witness is mapped
back and checked on I.  Cycles have no twins.
With e the big height, (a, b, t, s) is (t(m+e-1)-e+r, m, t,
(t-1)(e-1)+r-1) for the main theorem's two rows, (r+1, r, 1, 1) for
symbolic_step, (r+e, r, 1, sigma) for support_step, (re-e+1, 1, r,
(r-1)(e-1)) for refined_containment, (m, 1, r, max(s, 0)) for
alpha_slope, (er, 1, r, (e-1)r) for equigenerated_containment and
alpha_equality, and (m, 1, r, s) for symbolic_in_mpower.  `Check.run`
alone turns an Outcome into a CheckResult, for the suite rows, the
command-line containment and the scan's associated-primes oracle alike.
A row takes its parameters only: budgets and sample sizes are module
constants, read where they bind.  A suite runs a selection of rows over
their grids against one ideal and tallies the outcomes.  A scan
generates a pseudo-random corpus (square-free ideals come from
intersecting a minimal family of monomial primes, which doubles as a
free oracle for the associated primes) and runs a suite on each member,
collecting failures of proven statements (bugs) and failures of
conjectured ones (candidate counterexamples) into a findings list with
enough detail to reproduce each one.

Reports serialize two ways: human-oriented text, and line-delimited JSON
with sorted keys, exact "p/q" rationals, and no wall-clock timings, so a
rerun with the same seed is byte-identical.
"""

from __future__ import annotations

import operator
import time
import warnings
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from itertools import product
from math import ceil, comb, prod

from . import results as R
from .decomposition import (MonomialPrime, _big_height, associated_primes,
                            localizations, sigma, warn_if_powers_coincide)
from .errors import (PowersCoincideWarning, ResourceLimitError,
                     VerificationError)
from .geometry import member_scaled, probe_points, symbolic_polyhedron
from .invariants import (_chudnovsky_bound, alpha, beta, is_equigenerated,
                         is_integrally_closed, waldschmidt)
from .monomial import (Monomial, MonomialIdeal, _divisor_index, _first_outside,
                       _from_vectors, _in_staircase, containment_witness,
                       contains, intersect, is_squarefree, power, require_proper)
from .parsing import default_names, format_ideal
from .results import CheckResult
from .rng import SplitRng
from .symbolic import equal_exponent_condition, symbolic_power, twin_quotient


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


def _integers(values: dict, lists=()) -> dict:
    """values read through operator.index, which takes an int or a bool and
    refuses a float or a string; a key in lists holds a sequence, read entry
    by entry into a tuple.  One ValueError names every key that does not."""
    read, bad = {}, []
    for key, value in values.items():
        try:
            read[key] = (tuple(map(operator.index, value)) if key in lists
                         else operator.index(value))
        except TypeError:
            bad.append(key)
    if bad:
        raise ValueError(f"not an integer: {', '.join(bad)}")
    return read


def _holds(ok: bool) -> str:
    return R.HOLDS if ok else R.FAILS


def _contained(I, a, b, t, s, details, probe_witness=False, params=None, kind=None):
    """Whether I^(a) <= m^s * (I^(b))^t, by the containment kernel: the
    one place where the sides lhs = I^(a) and rhs = (I^(b))^t are built
    (b = 1 gives I^t, t = 1 gives I^(b)).  details is a dict, or a
    callable of the sides' generator counts giving one.  When every
    localization of I is a prime power and I has twin variables, membership
    in either side depends only on the class sums (Herzog, Hibi and Trung,
    Adv. Math. 210, 2007): the kernel decides on the sides of the
    `twin_quotient` I', with a, b, t, s taken from I, and the counts are
    fibre counts.  A holding verdict builds no side of I.  A failing one's
    witness, the canonical-first failing generator of I^(a), is the
    lex-least of I'^(a)'s failing generators of least degree, each class's
    mass put on its highest-index variable, and must be a minimal generator
    of I^(a) (`_lifted`).  Twin-free inputs (cycles) gain nothing.  Either
    way the witness f is re-tested by a plain scan over the full rhs, not
    the kernel's index: it lies outside exactly when no generator h divides
    it with deg f - deg h >= s; else VerificationError.  probe_witness: on
    failure, also record whether the witness lies in rhs itself."""
    J, classes = twin_quotient(I) or (I, None)
    lhs, rhs = symbolic_power(J, a), power(symbolic_power(J, b), t)
    if callable(details):  # c's fibre: prod over classes C of C(c_C + |C| - 1, c_C)
        details = details(*(sum(prod(comb(n + len(C) - 1, n) for n, C in zip(c, classes or ()))
                                for c in K.vectors) for K in (lhs, rhs)))
    witness = containment_witness(lhs, rhs, s)
    if witness is not None and classes:
        witness = _lifted(I, a, s, lhs, rhs, classes, witness.exponents)
        rhs = power(symbolic_power(I, b), t)
    if witness is not None:
        f = witness.exponents
        if any(sum(h) <= sum(f) - s and all(map(operator.le, h, f))
               for h in rhs.vectors):
            raise VerificationError(f"the containment witness {witness} "
                                    f"lies in m^{s} * rhs after all")
        if probe_witness:
            details |= {"witness_in_symbolic_power": True,
                        "witness_in_plain_power": contains(rhs, witness)}
    return Outcome(_holds(witness is None), details, witness, params, kind)


def _lifted(I, a, s, qlhs, qrhs, classes, first):
    """The witness on I of first, the kernel's on the quotient, by
    `_contained`'s rule.  It must be a minimal generator of I^(a), the meet
    of P^(ka) over the localizations P^k: at least ka on each P, every
    variable it uses in a P where it has exactly ka; else VerificationError."""
    rest = iter([c for c in qlhs.vectors if sum(c) == sum(first)])
    index, top = _divisor_index(qrhs), {C[-1]: j for j, C in enumerate(classes)}
    f = min(tuple(c[top[v]] if v in top else 0 for v in range(I.ambient_dim))
            for c in [first, *iter(lambda: _first_outside(index, rest, s), None)])
    gaps = [(sum(f[v] for v in S) - k * a, S) for S, k in
            (L.simplex_power for _, L in localizations(I))]
    tight = {v for gap, S in gaps if gap == 0 for v in S}
    if min(gaps)[0] < 0 or any(e and v not in tight for v, e in enumerate(f)):
        raise VerificationError(f"the mapped witness {Monomial(f)} is not a "
                                f"minimal generator of the symbolic power {a}")
    return Monomial(f)


class Check(namedtuple("Check", "name kind body grid options low")):
    """One row of the check table.

    grid maps each parameter to the SuiteRanges field holding its largest
    value (a new empty dict by default), and options(seed) gives the
    keyword arguments a suite adds (the stairs row's seed).  body(I,
    **params, **options) decides the hypothesis and returns an Outcome.
    Every parameter must be an integer of at least low."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, body: Callable[..., Outcome],
                grid: dict[str, str] | None = None,
                options: Callable[[int], dict] = lambda seed: {},
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
        its verdict, resource_limit, with the budget's message as reason;
        the result keeps the row's kind and the time the row took."""
        params = _integers(params)
        low = [name for name, v in params.items() if v < self.low]
        if low:
            raise ValueError(f"{', '.join(low)} must be at least {self.low}")
        start = time.perf_counter()
        try:
            out = self.body(I, **params, **options)
        except ResourceLimitError as exc:
            out = Outcome(R.RESOURCE_LIMIT, {"reason": str(exc)})
        return CheckResult(self.name, out.verdict, out.kind or self.kind,
                           out.params or params, out.details, out.witness,
                           time.perf_counter() - start)


def _main_theorem(I, m, t, r):
    """I^(t(m+e-1)-e+r) <= m^((t-1)(e-1)+r-1) * (I^(m))^t, e the big height:
    proven for square-free I, and it transfers verbatim to ideals whose
    components raise each variable to a single common exponent
    (substituting x_v^a -> y_v turns them square-free without changing
    heights)."""
    e = _big_height(I)
    a, s = t * (m + e - 1) - e + r, (t - 1) * (e - 1) + r - 1
    return _contained(I, a, m, t, s, {"e": e, "lhs_symbolic_exponent": a,
                                      "maximal_ideal_exponent": s})


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
    return _contained(I, r + 1, r, 1, 1, {})


def _support_step(I, r):
    """I^(r+e) <= m^sigma(I) * I^(r) with e the big height (theorem)."""
    e, s = _big_height(I), sigma(I)
    return _contained(I, r + e, r, 1, s, {"e": e, "sigma": s})


def _refined_containment(I, r):
    """I^(re-e+1) <= m^((r-1)(e-1)) * I^r.

    Square-free: a consequence of the square-free containment theorem
    (kind theorem).  In general it is the monomial form of a containment
    conjecture with known counterexamples, so failures on non-square-free
    input are candidate counterexamples, not bugs.
    """
    e, sqfree = _big_height(I), is_squarefree(I)
    a, s = r * e - e + 1, (r - 1) * (e - 1)
    return _contained(I, a, 1, r, s, {
        "e": e, "lhs_symbolic_exponent": a, "maximal_ideal_exponent": s,
        "squarefree": sqfree}, probe_witness=True, params={"r": r, "m": a, "s": s},
        kind=R.THEOREM if sqfree else R.CONJECTURE)


def _symbolic_in_mpower(I, m, s, r):
    """Exploratory membership check I^(m) <= m^s * I^r."""
    return _contained(I, m, 1, r, s, lambda lhs_gens, rhs_gens: {
        "lhs_gens": lhs_gens, "rhs_gens": rhs_gens}, probe_witness=True)


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


def _stairs(I, r, seed=0):
    """e*r*Q sits inside the staircase region of I^r: checked on every
    vertex of Q plus pseudo-random convex combinations; if vertex
    enumeration is over budget, on sampled LP optima of random positive
    objectives instead (flagged sampled_only), drawn from seed."""
    e = _big_height(I)
    Ir = power(I, r)
    points, vertex_count, sampled_only = probe_points(
        symbolic_polyhedron(I), SplitRng(seed, ("stairs", r)))
    # an integer g lies below e*r*v/den exactly when it lies below its floor
    bad = next(((v, den) for v, den in points
                if not _in_staircase(Ir, [e * r * x // den for x in v])), None)
    details = {"e": e, "vertices": vertex_count, "samples": len(points) - vertex_count,
               "sampled_only": sampled_only, "seed": seed}
    if bad is not None:
        v, den = bad
        details["witness_point"] = [Fraction(x, den) for x in v]
    return Outcome(_holds(bad is None), details)


THRESHOLD_CAP = 12  # the largest m that alpha_slope picks for itself


def _alpha_slope(I, r, m=None):
    """For m at least max(e*r, beta(I^r)/waldschmidt), the m-th symbolic
    power sits in m^s * I^r with s = ceil(waldschmidt * m) - beta(I^r).

    With m omitted, the least integer satisfying the hypothesis is used;
    if that exceeds THRESHOLD_CAP the check reports a resource limit
    instead of computing an enormous symbolic power.
    """
    w, br = waldschmidt(I), beta(power(I, r))
    threshold = max(Fraction(_big_height(I) * r), Fraction(br) / w)
    if m is None:
        m = ceil(threshold)
        if m > THRESHOLD_CAP:
            return Outcome(R.RESOURCE_LIMIT, {"threshold": threshold,
                                              "threshold_cap": THRESHOLD_CAP})
    elif m < threshold:
        return Outcome(R.NOT_APPLICABLE, {"threshold": threshold,
                                          "reason": "m below threshold"})
    s = ceil(w * m) - br
    return _contained(I, m, 1, r, max(s, 0), {
        "s": max(s, 0), "clamped": s < 0, "threshold": threshold,
        "beta_power": br, "waldschmidt": w}, params={"r": r, "m": m})


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
    return _contained(I, e * r, 1, r, s, {"e": e, "s": s})


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
    out = _contained(I, e * r, 1, r, s, details | {"containment_checked": True, "s": s})
    return out if holds else out._replace(verdict=R.FAILS)


def _integrally_closed_bound(I):
    """For ideals in n+1 variables whose localizations at the maximal
    associated primes are all integrally closed, with alpha(I) large
    relative to n (alpha >= n+4 for n >= 3, alpha >= 8 for n = 2), the
    Waldschmidt constant is at least (alpha(I) + n - 1) / n."""
    n, a = I.ambient_dim - 1, alpha(I)
    details = {"n": n, "alpha": a}
    if not ((n >= 3 and a >= n + 4) or (n == 2 and a >= 8)):
        return Outcome(R.NOT_APPLICABLE, details | {"reason": "alpha too small for this n"})
    # a facet table over MAX_RAYS is this row's verdict, with the details
    # so far, not a bare resource limit
    try:
        for P, L in localizations(I):
            if not is_integrally_closed(L):
                return Outcome(R.NOT_APPLICABLE, details | {
                    "reason": "a localization is not integrally closed",
                    "prime": P})
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
          options=lambda seed: {"seed": seed}),
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


def check(name: str, I: MonomialIdeal, params: dict | None = None) -> CheckResult:
    """The check `name`, a CHECKS row or "symbolic_in_mpower", on I at one
    parameter point.  params holds the row's parameters, e.g. {"r": 1} or
    {"r": 1, "m": 4} for alpha_slope; a parameter the body does not take
    raises TypeError.  The stairs row samples with seed 0, as a suite does
    by default.  It warns once, naming the line that called it."""
    row = SYMBOLIC_IN_MPOWER if name == SYMBOLIC_IN_MPOWER.name else CHECKS.get(name)
    if row is None:
        raise ValueError(f"unknown check {name!r}")
    require_proper(I)
    warn_if_powers_coincide(I)
    return row.run(I, params or {})


class SuiteReport(namedtuple("SuiteReport", "ideal names results label",
                             defaults=(None,))):
    """One suite over an ideal: its variable names, its CheckResults and
    its label."""

    __slots__ = ()

    @property
    def summary(self) -> dict:
        return R.tally(self.results)

    @property
    def has_bug(self) -> bool:
        return self.summary["bug"] > 0


def _selection(checks) -> tuple[str, ...]:
    """The names of the rows to run: checks, or every row for None.  An
    empty selection or an unknown name raises ValueError."""
    selected = CHECK_NAMES if checks is None else tuple(checks)
    if not selected:
        raise ValueError("empty check selection; pass checks=None for every check")
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    return selected


def run_suite(I: MonomialIdeal, checks=None, ranges: SuiteRanges | None = None,
              seed: int = 0, names=None, label: str | None = None) -> SuiteReport:
    require_proper(I)
    names = default_names(I.ambient_dim) if names is None else tuple(names)
    if len(names) != I.ambient_dim:
        raise ValueError(f"{len(names)} variable names for {I.ambient_dim} variables")
    read = _integers((ranges or SuiteRanges())._asdict() | {"seed": seed})
    seed, ranges = read.pop("seed"), SuiteRanges(**read)
    # a top below 1 would leave its rows' grids empty, and the rows missing
    low = [field for field, top in ranges._asdict().items() if top < 1]
    if low:
        raise ValueError(f"{', '.join(low)} must be at least 1")
    selected = _selection(checks)
    warn_if_powers_coincide(I)
    results = []
    for name in selected:
        row = CHECKS[name]
        for params in row.points(ranges):
            results.append(row.run(I, params, **row.options(seed)))
    return SuiteReport(I, names, tuple(results), label)


# ---------------------------------------------------------------------------
# randomized scans


class ScanConfig(namedtuple("ScanConfig", "count seed num_vars max_exp max_gens "
                                         "squarefree_only checks",
                            defaults=(20, 0, (3, 4), 4, 6, False, None))):
    """A scan: count ideals drawn from seed, each in one of num_vars
    variables, with exponents up to max_exp and up to max_gens generators,
    square-free ones only if squarefree_only; checks (None for all) run
    over the default SuiteRanges."""

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
        return {"ideals": len(self.suites)} | R.tally(
            res for suite in self.suites for res in suite.results)

    @property
    def has_bug(self) -> bool:
        return self.summary["bug"] > 0

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
    suite = run_suite(I, checks=config.checks, seed=config.seed, label=label)
    return suite._replace(results=tuple(extra) + suite.results)


def scan(config: ScanConfig) -> ScanReport:
    """One suite per pseudo-random ideal.  The suites' own
    PowersCoincideWarnings are held back, and the scan gives one at its
    caller's line, naming how many ideals it concerns.  Before any draw,
    a config it cannot draw from raises ValueError naming every field that
    is not an integer or out of range, and so does an empty or unknown
    check selection."""
    config = config._replace(**_integers(
        {field: getattr(config, field)
         for field in ("count", "seed", "num_vars", "max_exp", "max_gens")},
        lists=("num_vars",)))
    # the draws need two variables, a positive exponent and two generators
    bad = [f"{field} must be at least {least}"
           for field, least in (("count", 0), ("max_exp", 1), ("max_gens", 2))
           if getattr(config, field) < least]
    if not config.num_vars or min(config.num_vars) < 2:
        bad.append("num_vars must hold variable counts of at least 2")
    if bad:
        raise ValueError("; ".join(bad))
    _selection(config.checks)
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
    """One check row as a record: params and details as the row gave them,
    encoded only by `results.json_line`, and the witness and a prime
    among the details rendered with the suite's names."""
    return {
        "check": res.name,
        "verdict": res.verdict,
        "kind": res.kind,
        "classification": res.classify(),
        "in_hypothesis": res.in_hypothesis,
        "params": dict(res.params),
        "details": {k: v.render(names) if isinstance(v, MonomialPrime) else v
                    for k, v in res.details.items()},
        "witness": None if res.witness is None else res.witness.render(names),
    }


def _result_line(res: CheckResult, names, timings: bool) -> str:
    bits = [res.name]
    if res.params:
        bits.append(" ".join(f"{k}={v}" for k, v in sorted(res.params.items())))
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
    names = report.names
    head = {"type": "ideal", "label": report.label, "vars": names,
            "gens": report.ideal.rendered_gens(names)}
    return "".join([R.json_line(head),
                    *(R.json_line({"type": "check"} | result_to_dict(res, names))
                      for res in report.results),
                    R.json_line({"type": "summary"} | report.summary)])


def scan_text(report: ScanReport, timings: bool = False) -> str:
    parts = [suite_text(s, timings) for s in report.suites]
    s = report.summary
    parts.append(f"scan summary: {s['ideals']} ideals, {_tally_text(s)}\n")
    return "\n".join(parts)


def scan_jsonl(report: ScanReport) -> str:
    summary = R.json_line({"type": "scan_summary"} | report.summary)
    return "".join(map(suite_jsonl, report.suites)) + summary


def findings_jsonl(report: ScanReport) -> str:
    return "".join(map(R.json_line, report.findings()))
