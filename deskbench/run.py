"""Desk benchmark for symbpow.

    python3 deskbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from src/ next to this
directory.  Each repetition starts in a fresh interpreter, so the
lru_caches start empty as in a user's run.  Closed loop, one client: ops
run one after another, and cli-desk starts one child process at a time.

--trace 0 measures the end-to-end metrics with nothing patched, op times
rescaled to a machine of fixed speed by the yardstick sampler
(yardstick.py); --trace 1 runs one repetition untraced and one traced
(layers.py), both without the sampler, and reports the per-layer metrics.  Metric names and units come from BENCHMARK.json.  Every
output is checked after the last child has run (checks.py).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as W
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".deskbench_work"
SETUP_PROBES = 5
TAIL_MIN = 5
RUN_BUDGET_S = 150.0  # children are killed after this; checks and output follow


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], stdout_path: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run a child to completion, killing it at the deadline.  Returns
    (exit code, start, end, peak RSS in MB).

    A child's peak RSS includes its parent's RSS at spawn time (Linux keeps
    the high-water mark across exec), so this process imports neither
    symbpow nor scipy until its last child has run."""
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024


def tail_mean(samples: list[float]) -> tuple[float, int]:
    """(mean, count) of the slowest tenth of the samples, at least TAIL_MIN
    of them.  A mean over several ops spans seconds of the run, where one
    percentile reads a single op and follows the VM's speed at that moment."""
    ordered = sorted(samples, reverse=True)
    k = min(len(ordered), max(TAIL_MIN, len(ordered) // 10))
    return statistics.fmean(ordered[:k]), k


def count_sampled_only(jsonl: str) -> int:
    """Stairs checks that fell back to sampling, read from structured output."""
    return sum(1 for line in jsonl.splitlines()
               if '"check": "stairs"' in line and '"sampled_only": true' in line)


class Run:
    """One workload at one seed: repetitions, samples and check results."""

    def __init__(self, workload: str, seed: int, work: Path, sample: bool):
        self.workload, self.seed, self.work, self.sample = workload, seed, work, sample
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.setup: list[float] = []
        self.reps: list[dict] = []  # ops and timed: wall seconds; ref_*: rescaled
        self.rss: list[float] = []
        self.traces: list[dict] = []
        self.pending: list = []  # (op count, output) to check at the end
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sampled_only = 0
        self._n = 0
        if workload == "cli-desk":
            self._write_ideal_files()

    def _path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:04d}-{stem}"

    def _worker(self, mode: str, trace: bool = False) -> dict | None:
        result, output = self._path("result.json"), self._path("output.jsonl")
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "trace": trace, "sample": self.sample and mode != "files",
                "result": str(result), "output": str(output)}
        code, start, _, rss = spawn(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            self._path("stdout"), self.deadline)
        if code != 0 or not result.exists():
            self.errors.append(f"worker exited {code} in {mode} mode")
            return None
        out = json.loads(result.read_text())
        if "first_op" in out:
            self.setup.append(out["first_op"] - start)
        out["rss_mb"] = rss
        out["output_path"] = str(output)
        return out

    def setup_probe(self) -> None:
        if self.workload != "cli-desk":
            self._worker("setup")
            return
        code, start, end, _ = spawn([sys.executable, "-c", "import symbpow.cli"],
                                    self._path("stdout"), self.deadline)
        if code == 0:
            self.setup.append(end - start)
        else:
            self.errors.append(f"import symbpow.cli exited {code}")

    def repetition(self, trace: bool) -> float:
        """Run every op once; returns the timed-phase seconds."""
        if self.workload == "cli-desk":
            return self._cli_repetition(trace)
        ops = (sum(W.WALD_COUNTS.values()) if self.workload == "waldschmidt-general"
               else W.scan_config(self.workload)["count"])
        self.attempted += ops
        out = self._worker("run", trace)
        if out is None:
            self.failed += ops
            return 0.0
        self.rss.append(out["rss_mb"])
        if trace:
            self.traces.append(out["trace"])
        self.pending.append((ops, out))
        self.reps.append({"ops": [op["s"] for op in out["ops"]], "timed": out["timed_s"],
                          "ref_ops": [op.get("ref_s") for op in out["ops"]],
                          "ref_timed": out.get("timed_ref_s")})
        if self.sample and out.get("timed_ref_s") is None:
            self.errors.append("a repetition has no rescaled times")
        return out["timed_s"]

    # -- cli-desk ------------------------------------------------------

    def _write_ideal_files(self) -> None:
        out = self._worker("files")
        self.ideals = out["ideals"] if out else {}
        self.files = {}
        for name, (dim, vectors) in self.ideals.items():
            path = self.work / f"{name}.txt"
            path.write_text(W.ideal_file_text(dim, vectors))
            self.files[name] = path
        self.cli_ops = [(name, command) for name in self.ideals for command in W.CLI_COMMANDS]

    def _cli_repetition(self, trace: bool) -> float:
        ops, ref_ops, outputs = [], [], []
        for name, command in self.cli_ops:
            args = (W.CLI_COMMANDS[command] + [str(self.files[name])]
                    + ["--format", "structured"])
            stdout, report = self._path("stdout"), self._path("report.json")
            if trace:
                argv = [sys.executable, str(HERE / "worker.py"), "--cli", str(report)] + args
            elif self.sample:
                argv = [sys.executable, str(HERE / "worker.py"), "--cli-sampled",
                        str(report)] + args
            else:
                argv = [sys.executable, "-m", "symbpow"] + args
            code, start, end, rss = spawn(argv, stdout, self.deadline)
            ops.append(end - start)
            self.rss.append(rss)
            if (trace or self.sample) and report.exists():
                data = json.loads(report.read_text())
                if trace:
                    self.traces.append(data)
                else:
                    ref_ops.append(yardstick.rescale_summary(end - start, data))
            outputs.append((name, command, code, stdout))
        self.attempted += len(self.cli_ops)
        self.pending.append((len(self.cli_ops), outputs))
        complete = len(ref_ops) == len(ops)
        if self.sample and not complete:
            self.errors.append("a cli-desk repetition has no rescaled times")
        self.reps.append({"ops": ops, "timed": sum(ops),
                          "ref_ops": ref_ops if complete else [None],
                          "ref_timed": sum(ref_ops) if complete else None})
        return sum(ops)

    # -- checks, after the last child ------------------------------------

    def check(self) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import checks

        checker = checks.Checker(self.workload, self.seed)
        for ops, output in self.pending:
            checker.failures = {}
            try:
                self._check_one(checker, ops, output)
            except (ValueError, KeyError, TypeError) as exc:
                checker.fail("output", f"unreadable output: {exc!r}")
            bad = len([k for k in checker.failures if k not in ("scan", "output")])
            if "output" in checker.failures:
                bad = ops
            elif checker.failures and not bad:
                bad = 1
            self.failed += min(bad, ops)
            self.errors.extend(f"{op}: {why}" for op, why in sorted(checker.failures.items()))
        self.observed = checker.observed

    def _check_one(self, checker, ops: int, output) -> None:
        if self.workload == "cli-desk":
            for name, command, code, stdout in output:
                data = stdout.read_bytes()
                checker.cli(f"{name}:{command}", command, self.ideals[name], code, data)
                if command == "suite":
                    self.sampled_only += count_sampled_only(data.decode())
        elif self.workload == "waldschmidt-general":
            for op in output["ops"]:
                checker.waldschmidt(op)
        else:
            text = Path(output["output_path"]).read_text()
            checker.scan(text, ops)
            self.sampled_only += count_sampled_only(text)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run) -> tuple[dict, dict]:
    """ops_per_s, op_p50_ms and op_tail_ms come from rescaled times
    (yardstick.py) and pool the run's repetitions; the text notes give the
    wall times beside them.  setup_s is wall time: the import reads files
    and faults in pages, which the yardstick's speed does not track."""
    reps = [r for r in run.reps if r["ops"] and r["ref_timed"]
            and None not in r["ref_ops"]]
    done = sum(len(r["ops"]) for r in reps)
    timed = sum(r["ref_timed"] for r in reps)
    wall = sum(r["timed"] for r in reps)
    tails = [tail_mean(r["ref_ops"]) for r in reps]
    wall_tails = [tail_mean(r["ops"])[0] for r in reps]
    # one latency per op, its mean over the repetitions
    per_op = [statistics.fmean(op) for op in zip(*(r["ref_ops"] for r in reps))]
    wall_per_op = [statistics.fmean(op) for op in zip(*(r["ops"] for r in reps))]
    values = {
        "setup_s": statistics.median(run.setup) if run.setup else 0.0,
        "ops_per_s": done / timed if timed else 0.0,
        "op_p50_ms": statistics.median(per_op) * 1000 if per_op else 0.0,
        "op_tail_ms": statistics.fmean(mean for mean, _ in tails) * 1000 if tails else 0.0,
        "peak_rss_mb": max(run.rss) if run.rss else 0.0,
        "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
    }
    notes = {
        "setup_s": f"median of {len(run.setup)} set-ups, wall time",
        "ops_per_s": (f"{done} ops in {timed:.3f} s over {len(reps)} repetitions; "
                      f"wall {done / wall if wall else 0.0:.4f}/s"),
        "op_p50_ms": (f"median of {len(per_op)} ops, each the mean of {len(reps)} "
                      f"repetitions; wall {statistics.median(wall_per_op) * 1000:.1f} ms"
                      if per_op else "no repetition"),
        "op_tail_ms": (f"mean of the slowest {tails[0][1]} of {len(reps[0]['ops'])} ops, "
                       f"averaged over {len(reps)} repetitions; wall "
                       f"{statistics.fmean(wall_tails) * 1000:.1f} ms" if tails
                       else "no repetition"),
        "peak_rss_mb": f"max of {len(run.rss)} processes",
        "failed_frac": f"{run.failed} of {run.attempted} ops",
    }
    return values, notes


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-process trace reports of one repetition."""
    layers: dict = {}
    caches: dict = {}
    for report in traces:
        for name, st in report["layers"].items():
            agg = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                           "raised": 0, "counts": {},
                                           "module": st["module"]})
            for key in ("calls", "self_s", "total_s", "raised"):
                agg[key] += st[key]
            for key, value in st["counts"].items():
                merge = max if key.startswith("max_") else (lambda a, b: a + b)
                agg["counts"][key] = merge(agg["counts"].get(key, 0), value)
        for name, info in report["caches"].items():
            agg = caches.setdefault(name, {"hits": 0, "misses": 0})
            agg["hits"] += info["hits"]
            agg["misses"] += info["misses"]
    return {"layers": layers, "caches": caches,
            "absent": sorted({a for r in traces for a in r["absent"]}),
            "import_s": [r["import_s"] for r in traces if "import_s" in r]}


def layer_value(name: str, merged: dict, extra: dict):
    """Value of one per-layer metric, or None when its layer is absent."""
    if name in extra:
        return extra[name]
    base, _, stat = name.rpartition(".")
    if stat == "cache_hit_ratio":
        info = merged["caches"].get(base)
        if info is None:
            return None
        looked = info["hits"] + info["misses"]
        return info["hits"] / looked if looked else 0.0
    layer = merged["layers"].get(base)
    if layer is None:
        return None
    if stat in ("calls", "self_s", "total_s"):
        return layer[stat]
    if stat == "over_budget":
        return layer["raised"]
    if stat == "fast_path_ratio":
        return layer["counts"].get("fast_path", 0) / layer["calls"] if layer["calls"] else 0.0
    return layer["counts"].get(stat, 0)


def module_split(merged: dict, wall: float) -> dict:
    """Share of the traced wall time spent as self time in each module."""
    split: dict = {}
    for st in merged["layers"].values():
        split[st["module"]] = split.get(st["module"], 0.0) + st["self_s"]
    split["(outside traced layers)"] = wall - sum(split.values())
    return {k: v / wall for k, v in sorted(split.items(), key=lambda kv: -kv[1])}


# ---------------------------------------------------------------------------
# entry point


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, work: Path) -> dict:
    run = Run(workload, seed, work, sample=not trace)
    lines = [f"{workload}  seed {seed}"]
    if not trace:
        for _ in range(SETUP_PROBES):
            run.setup_probe()
        reps = W.repetitions(workload, seconds)
        for _ in range(reps):
            run.repetition(trace=False)
        run.check()
        values, notes = end_to_end(run)
        lines[0] += f"  {reps} repetition(s)"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, value in values.items():
            unit = metrics[name]["unit"] if name in metrics else "1"
            lines.append(f"  {name:<12} {value:>12.4f} {unit:<6} ({notes[name]})")
    else:
        untraced = run.repetition(trace=False)
        untraced_median = statistics.median(run.reps[0]["ops"]) if run.reps else 0.0
        traced = run.repetition(trace=True)
        run.check()
        merged = merge_traces(run.traces)
        extra = {"trace.overhead_frac": traced / untraced - 1 if untraced else 0.0,
                 # both repetitions' outputs were counted
                 "harness.check.stairs.sampled_only": run.sampled_only // 2,
                 "cli.import_s": (statistics.median(merged["import_s"])
                                  if merged["import_s"] else 0.0)}
        metrics = {}
        lines[0] += f"  untraced {untraced:.3f} s, traced {traced:.3f} s"
        for m in spec["per_layer"]:
            value = layer_value(m["name"], merged, extra)
            if value is None:
                lines.append(f"  {m['name']}: absent")
            metrics[m["name"]] = {"value": value or 0, "unit": m["unit"]}
        if traced:
            for name, share in module_split(merged, traced).items():
                lines.append(f"  self-time share {name:<24} {share:7.1%}")
        if workload == "cli-desk":
            lines.append(f"  cli.import_s / untraced median op: "
                         f"{extra['cli.import_s'] / untraced_median if untraced_median else 0.0:.1%}")
        for name, layer in merged["layers"].items():
            if layer["counts"].get("counter_errors"):
                lines.append(f"  {name}: {layer['counts']['counter_errors']} calls not counted")
        for name, info in sorted(merged["caches"].items()):
            lines.append(f"  lru_cache {name}: {info['misses']} misses, {info['hits']} hits")
        for name, m in metrics.items():
            lines.append(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for err in run.errors[:20]:
        lines.append(f"  FAILED {err}")
    return {"lines": lines, "metrics": metrics, "attempted": run.attempted,
            "failed": run.failed, "correct": run.failed == 0 and not run.errors,
            "observed": run.observed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=W.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symbpow" / "__init__.py").is_file():
        print(f"error: no symbpow package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print("\n".join(res["lines"]))
    print(json.dumps({key: res[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that no parent RSS
    carries over; metric names get the workload as a prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
