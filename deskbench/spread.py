"""Run-to-run spread of the benchmark, and the baseline file.

    python3 deskbench/spread.py [--runs 10] [--first-seed 1] [--traced 2]
                                [--workload NAME ...] [--out FILE]

For each workload, runs run.py once per seed (--trace 0) and reports each
end-to-end metric's median, its quartiles as statistics.quantiles(values,
n=4) gives them, and the quartile spread as a share of the median, next to
the metric's bound.  Then makes --traced traced runs, which must repeat
every exact count, and writes everything to FILE with the machine it ran
on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    """One run.py run: its JSON line, plus its text lines under "lines"."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) | {"lines": lines[:-1]}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def exact(metrics: dict) -> dict:
    """The per-layer metrics that must repeat exactly: all but times."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] != "s" and k != "trace.overhead_frac"}


def machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--workload", nargs="*", default=list(W.NAMES))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "seeds": seeds, "workloads": {}}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    ok = True
    for name in args.workload:
        runs = [bench(name, seed, 0) for seed in seeds]
        entry = {"why": why[name],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "first_run": runs[0]["lines"], "end_to_end": {}}
        print(f"{name}: {entry['attempted']} ops, {entry['failed']} failed")
        for metric, spec in bounds.items():
            stats = summary([r["metrics"][metric]["value"] for r in runs])
            stats |= {"unit": spec["unit"], "bound": spec["bound"]}
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] <= spec["bound"] / 3 else "  (over a third of the bound)"
            print(f"  {metric:<12} median {stats['median']:10.4f} {spec['unit']:<4} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:6.1%} bound {spec['bound']:.0%}{flag}")
        traced = [bench(name, args.first_seed, 1) for _ in range(args.traced)]
        if traced:
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            entry["traced_run"] = [line for line in traced[0]["lines"]
                                   if "share" in line or "lru_cache" in line
                                   or "absent" in line or "import_s /" in line]
            entry["overhead_frac"] = [t["metrics"]["trace.overhead_frac"]["value"]
                                      for t in traced]
            entry["counts_repeat_exactly"] = all(
                exact(t["metrics"]) == exact(traced[0]["metrics"]) for t in traced)
            print(f"  traced: counts repeat exactly: {entry['counts_repeat_exactly']}, "
                  f"overhead {', '.join(f'{x:.1%}' for x in entry['overhead_frac'])}")
            ok = ok and entry["counts_repeat_exactly"]
        ok = ok and entry["correct"]
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
