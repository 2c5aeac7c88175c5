"""Tests of the benchmark itself:  python3 -m pytest deskbench

They run small slices of the workloads in fresh interpreters, as the
benchmark does, and keep their files under .deskbench_work/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import yardstick  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


def worker(work: Path, workload: str, limit: int, trace: bool = True) -> dict:
    result = work / f"result-{len(list(work.iterdir()))}.json"
    spec = {"workload": workload, "seed": 3, "mode": "run", "trace": trace,
            "limit": limit, "result": str(result), "output": str(work / "out.jsonl")}
    subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                   env=run._env(), check=True)
    return json.loads(result.read_text())


def exact_counts(report: dict) -> dict:
    return {name: (st["calls"], st["raised"], st["counts"])
            for name, st in report["layers"].items()}


def python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=run._env(), cwd=HERE,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_absent_layer_is_reported_not_raised():
    tracer = layers.Tracer([layers.Layer("geometry", "no_such_function"),
                            layers.Layer("no_such_module", "f")]).install()
    report = tracer.report()
    assert report["absent"] == ["geometry.no_such_function", "no_such_module.f"]
    assert report["layers"] == {}
    merged = run.merge_traces([report])
    assert run.layer_value("geometry.no_such_function.calls", merged, {}) is None
    assert run.layer_value("no_such_module.f.cache_hit_ratio", merged, {}) is None


def test_every_namespace_is_patched_and_caches_stay_readable():
    out = python(
        "import json, layers\n"
        "tracer = layers.Tracer().install()\n"
        "import symbpow.monomial as M, symbpow.symbolic as S, symbpow.geometry as G\n"
        "from symbpow.monomial import Monomial, MonomialIdeal\n"
        "I = MonomialIdeal.make(3, [Monomial(v) for v in ((1,1,0),(1,0,1),(0,1,1))])\n"
        "S.symbolic_power(I, 3)\n"
        "print(json.dumps({'same': S.power is M.power is G.power,\n"
        "  'wrapped': hasattr(S.power, '__wrapped__'),\n"
        "  'report': tracer.report()}))\n")
    res = json.loads(out)
    assert res["same"] and res["wrapped"]
    report = res["report"]
    assert report["layers"]["monomial.power"]["calls"] >= 1
    assert report["caches"]["symbolic.symbolic_power"]["misses"] == 1
    assert report["absent"] == []


def test_every_per_layer_metric_resolves_on_this_commit(work):
    scan = worker(work, "scan-mixed", 2)["trace"]
    merged = run.merge_traces([scan])
    extra = {"trace.overhead_frac": 0.0, "harness.check.stairs.sampled_only": 0,
             "cli.import_s": 0.0}
    missing = [m["name"] for m in SPEC["per_layer"]
               if run.layer_value(m["name"], merged, extra) is None]
    assert missing == []


@pytest.mark.parametrize("workload,limit", [("scan-mixed", 3), ("sweep-sqfree", 8),
                                            ("waldschmidt-general", 3)])
def test_cold_start_and_exact_counts_repeat(work, workload, limit):
    first = worker(work, workload, limit)["trace"]
    second = worker(work, workload, limit)["trace"]
    misses = {name: c["misses"] for name, c in first["caches"].items()}
    assert misses == {name: c["misses"] for name, c in second["caches"].items()}
    assert sum(misses.values()) > 0
    assert exact_counts(first) == exact_counts(second)


def test_cli_counts_repeat(work):
    ideal = work / "rot3.txt"
    ideal.write_text(run.W.ideal_file_text(*run.W.WORKED["rot3"]))
    reports = []
    for i in range(2):
        trace_file = work / f"trace{i}.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--cli", str(trace_file),
                        "suite", str(ideal), "--format", "structured"],
                       env=run._env(), check=True, capture_output=True)
        reports.append(json.loads(trace_file.read_text()))
    assert exact_counts(reports[0]) == exact_counts(reports[1])
    assert reports[0]["layers"]["cli.main"]["calls"] == 1
    assert reports[0]["import_s"] > 0


def test_checks_catch_wrong_outputs(work):
    out = worker(work, "waldschmidt-general", 2, trace=False)
    checker = checks.Checker("waldschmidt-general", 1)
    good, bad = out["ops"][0], dict(out["ops"][1])
    checker.waldschmidt(good)
    assert checker.failures == {}
    bad["value"] = str(Fraction(bad["value"]) + Fraction(1, 7))
    bad["point"] = [str(Fraction(bad["point"][0]) + Fraction(1, 7))] + bad["point"][1:]
    checker.waldschmidt(bad)
    assert set(checker.failures) == {bad["id"]}

    worker(work, "scan-mixed", 2, trace=False)
    scan_text = (work / "out.jsonl").read_text()
    checker = checks.Checker("scan-mixed", 1)
    checker.scan(scan_text, 2)
    assert checker.failures == {}
    checker.scan(scan_text.replace('"verdict": "holds"', '"verdict": "held"', 1), 2)
    assert "0" in checker.failures


def test_tail_mean():
    assert run.tail_mean([float(i) for i in range(1, 101)]) == (95.5, 10)
    assert run.tail_mean([float(i) for i in range(1, 26)]) == (23.0, 5)
    assert run.tail_mean([3.0, 1.0]) == (2.0, 2)


def test_rescale_uses_the_samples_in_and_near_a_span():
    sampler = yardstick.Sampler()
    for i in range(100):  # the machine runs at half the reference speed
        sampler._ends.append(i * 0.01)
        sampler.samples.append((i * 0.01, 2 * yardstick.REFERENCE_S))
    in_handler = 2 * yardstick.REFERENCE_S * 51  # samples at 0.00, 0.01, ..., 0.50
    assert sampler.rescale(0.0, 0.5) == pytest.approx((0.5 - in_handler) / 2)
    # a span with no sample inside borrows its neighbours' speed
    assert sampler.rescale(0.1001, 0.1002) == pytest.approx(0.0001 / 2)
    assert yardstick.rescale_summary(1.0, {"handler_s": 0.006, "yard_mean": 0.0006}) == \
        pytest.approx((1.0 - 0.006) * yardstick.REFERENCE_S / 0.0006)
    # a stretched sample does not move the mean
    assert yardstick.robust_mean([1.0, 1.2, 0.8, 1.0, 9.0]) == pytest.approx(1.0)


def test_sampled_run_reports_rescaled_metrics(work):
    res = run.run_workload("cli-desk", 1, 1, False, SPEC, work)
    assert res["correct"] and res["failed"] == 0, res["lines"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert any("wall" in line for line in res["lines"])


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.W.NAMES)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128


def test_fails_without_the_program(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "deskbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "deskbench/run.py", "--workload", "cli-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
