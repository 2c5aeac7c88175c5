"""Record reference.json: a digest of every op's output at the default seeds.

    python3 deskbench/record_reference.py

Run it on a commit whose outputs are known good; run.py then compares each
op's output with these digests.  The fixed corpora (scan-mixed,
sweep-sqfree, waldschmidt-general) and cli-desk's worked examples hold for
every seed; cli-desk's seeded files only for the seed recorded here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads as W


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = {}
    for name in W.NAMES:
        work = run.WORK / f"record-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            res = run.run_workload(name, W.DEFAULT_SEED, 0, False, spec, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not res["correct"]:
            print("\n".join(res["lines"]), file=sys.stderr)
            return 1
        observed = res["observed"]
        if name == "cli-desk":
            worked = {op: d for op, d in observed.items() if op.split(":")[0] in W.WORKED}
            seeded = {op: d for op, d in observed.items() if op not in worked}
            reference[name] = {"seed": W.DEFAULT_SEED, "ops": seeded,
                               "seed_free_ops": worked}
        else:
            reference[name] = {"seed": None, "ops": observed}
        print(f"{name}: {len(observed)} digests")
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
