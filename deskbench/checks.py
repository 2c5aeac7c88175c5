"""Output checks, run after the timed phase.

Every op's output is checked two ways:

* against reference digests recorded on the seed commit (reference.json),
  where the workload has one for this op and seed;
* by checks that hold for any seed: no `bug` classification, the
  documented exit code, and every Waldschmidt value agreeing with
  scipy.optimize.linprog, a float LP solver independent of symbpow.lp.

Digests hash the output bytes (scan blocks: the JSONL lines of one ideal;
CLI: the exit code and stdout), so a byte change in the c10 report shows.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def waldschmidt_float(dim: int, vectors) -> float:
    """min sum(a) over the symbolic polyhedron, by scipy's HiGHS in floats.

    The components come from symbpow (one Newton polyhedron per maximal
    associated prime: the irreducible decomposition is verified inside
    symbpow); the LP over them is solved here, independently of lp.py:
    a - G_c lambda_c >= 0, sum lambda_c = 1, a, lambda >= 0."""
    from scipy.optimize import linprog
    from symbpow.geometry import symbolic_polyhedron
    from symbpow.monomial import Monomial, MonomialIdeal

    Q = symbolic_polyhedron(MonomialIdeal.make(dim, [Monomial(tuple(v)) for v in vectors]))
    blocks = [N.gens for _, N in Q.components]
    ncols = dim + sum(len(g) for g in blocks)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    col = dim
    for gens in blocks:
        for i in range(dim):
            row = [0.0] * ncols
            row[i] = -1.0
            for j, g in enumerate(gens):
                row[col + j] = float(g[i])
            a_ub.append(row)
            b_ub.append(0.0)
        row = [0.0] * ncols
        for j in range(len(gens)):
            row[col + j] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
        col += len(gens)
    cost = [1.0] * dim + [0.0] * (ncols - dim)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"scipy linprog ended with status {res.status}")
    return float(res.fun)


class Checker:
    """Collects failures per op.  `fail(op, reason)` marks one op failed."""

    def __init__(self, workload: str, seed: int):
        ref = load_reference().get(workload, {})
        self.ref = ref.get("ops", {}) if ref.get("seed") in (None, seed) else {}
        self.shared_ref = ref.get("seed_free_ops", {})
        self.failures: dict[str, str] = {}
        self.observed: dict[str, str] = {}
        self._lp_cache: dict[str, float] = {}

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def _compare_digest(self, key: str, value: str, op: str | None = None) -> None:
        """Compare with the digest recorded under `key`; a mismatch fails
        `op` (default: the key itself)."""
        self.observed[key] = value
        expected = self.ref.get(key, self.shared_ref.get(key))
        if expected is not None and expected != value:
            self.fail(op or key, "output differs from the reference digest")

    def _agrees(self, op: str, dim: int, vectors, value: Fraction) -> None:
        key = json.dumps([dim, vectors])
        if key not in self._lp_cache:
            self._lp_cache[key] = waldschmidt_float(dim, vectors)
        expected = self._lp_cache[key]
        if abs(expected - float(value)) > 1e-6 * max(1.0, abs(expected)):
            self.fail(op, f"waldschmidt {value} but scipy gives {expected}")

    # -- scans ---------------------------------------------------------

    def scan(self, text: str, count: int) -> None:
        """The structured JSONL of one scan: one block per ideal."""
        from symbpow.parsing import parse_ideal

        blocks: list[list[str]] = []
        summary = None
        for line in text.splitlines():
            record = json.loads(line)
            kind = record.get("type")
            if kind == "ideal":
                blocks.append([line])
            elif kind == "scan_summary":
                summary = record
            elif blocks:
                blocks[-1].append(line)
        if summary is None or summary.get("bug") != 0 or summary.get("ideals") != count:
            self.fail("scan", f"bad scan summary {summary}")
        if len(blocks) != count:
            self.fail("scan", f"{len(blocks)} ideal blocks for {count} ideals")
        self._compare_digest(f"scan-{count}", digest(text), op="scan")
        for index, block in enumerate(blocks):
            op = str(index)
            self._compare_digest(op, digest("\n".join(block)))
            records = [json.loads(line) for line in block]
            head = records[0]
            for rec in records[1:]:
                if rec.get("classification") == "bug":
                    self.fail(op, f"check {rec.get('check')} classified bug")
                if rec.get("type") == "summary" and rec.get("bug") != 0:
                    self.fail(op, "suite summary counts a bug")
                if rec.get("check") == "chudnovsky" and "waldschmidt" in rec["details"]:
                    doc = parse_ideal("vars: " + " ".join(head["vars"]) + "\ngens:\n"
                                      + "\n".join(head["gens"]) + "\n")
                    self._agrees(op, doc.ideal.ambient_dim,
                                 [list(v) for v in doc.ideal.vectors],
                                 Fraction(rec["details"]["waldschmidt"]))

    # -- waldschmidt ---------------------------------------------------

    def waldschmidt(self, op: dict) -> None:
        name = op["id"]
        value = Fraction(op["value"])
        point = [Fraction(x) for x in op["point"]]
        self._compare_digest(name, digest(json.dumps([op["value"], op["point"]])))
        if sum(point) != value or any(x < 0 for x in point):
            self.fail(name, "point does not attain the value")
        self._agrees(name, op["dim"], op["gens"], value)

    # -- cli -----------------------------------------------------------

    def cli(self, op: str, command: str, ideal, code: int, stdout: bytes) -> None:
        """One CLI invocation; `ideal` is (variable count, vectors)."""
        self._compare_digest(op, digest(f"{code}\n".encode() + stdout))
        if code != 0:
            self.fail(op, f"exit code {code}")
            return
        try:
            records = [json.loads(line) for line in stdout.decode().splitlines()]
        except ValueError:
            self.fail(op, "stdout is not JSON lines")
            return
        if not records:
            self.fail(op, "no output")
            return
        first = records[0]
        dim, vectors = ideal
        if command == "info":
            self._agrees(op, dim, vectors, Fraction(first["waldschmidt"]))
        elif command == "waldschmidt":
            value = Fraction(first["waldschmidt"])
            if sum(Fraction(x) for x in first["point"]) != value:
                self.fail(op, "point does not attain the value")
            self._agrees(op, dim, vectors, value)
        elif command == "polyhedron":
            value = Fraction(first["alpha"])
            least = min(sum(Fraction(x) for x in v) for v in first["vertices"])
            if least != value:
                self.fail(op, f"alpha {value} but least vertex sum {least}")
            self._agrees(op, dim, vectors, value)
        elif command == "suite":
            if any(r.get("classification") == "bug" for r in records):
                self.fail(op, "a check is classified bug")
            if records[-1].get("type") != "summary" or records[-1].get("bug") != 0:
                self.fail(op, "suite summary missing or counts a bug")
        elif command == "symbolic":
            if not first.get("gens"):
                self.fail(op, "symbolic power without generators")
        elif command == "containment":
            if first.get("classification") == "bug":
                self.fail(op, "containment classified bug")
