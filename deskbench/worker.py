"""One repetition of a workload, in a fresh interpreter.

    python3 worker.py '<json spec>'              in-process workloads
    python3 worker.py --cli <trace file> ARGS      one traced CLI invocation
    python3 worker.py --cli-sampled <file> ARGS    one CLI invocation under
                                                   the yardstick sampler

The spec names the workload, the seed, the mode ("setup": stop where the
first op would start; "run": run every op), whether to trace, whether to run
the yardstick sampler (yardstick.py) and rescale each op's time, an optional
op limit (the benchmark's own tests use it) and the file that receives the
result as JSON.  For cli-desk the worker only draws the seeded ideals.  The
worker prints nothing on stdout, and the sampler never runs with tracing.
"""

from __future__ import annotations

import json
import sys
import time

import yardstick

perf_counter = time.perf_counter


def _rescaled(sampler, out: dict, spans: list) -> None:
    """Add the rescaled op times to `out`; spans are the ops' (start, end)
    times."""
    if sampler is None:
        return
    sampler.stop()
    for op, (start, end) in zip(out["ops"], spans):
        op["ref_s"] = sampler.rescale(start, end)
    out["timed_ref_s"] = sum(op["ref_s"] for op in out["ops"])


def _sampler(spec: dict):
    return yardstick.Sampler().start() if spec.get("sample") else None


def _scan(workload: str, spec: dict, out: dict) -> None:
    from symbpow import harness
    import workloads

    config = workloads.scan_config(workload)
    if spec.get("limit"):
        config["count"] = min(config["count"], spec["limit"])
    config = harness.ScanConfig(**config)
    tracer = _tracer(spec)
    ends: list[float] = []
    run_suite = harness.run_suite

    def timed_suite(*args, **kwargs):
        # one op runs from the end of the previous suite to the end of this one
        result = run_suite(*args, **kwargs)
        ends.append(perf_counter())
        return result

    harness.run_suite = timed_suite
    out["first_op"] = perf_counter()
    if spec["mode"] == "setup":
        return
    sampler = _sampler(spec)
    start = perf_counter()
    report = harness.scan(config)
    text = harness.scan_jsonl(report)
    out["timed_s"] = perf_counter() - start
    if len(ends) != config.count:
        raise RuntimeError(
            f"harness.scan called harness.run_suite {len(ends)} times for "
            f"{config.count} ideals; the per-op hook needs one call per ideal")
    spans = list(zip([start] + ends, ends))
    out["ops"] = [{"id": i, "s": b - a} for i, (a, b) in enumerate(spans)]
    _rescaled(sampler, out, spans)
    with open(spec["output"], "w") as fh:
        fh.write(text)
    if tracer is not None:
        out["trace"] = tracer.report()


def _waldschmidt(spec: dict, out: dict) -> None:
    from symbpow.invariants import waldschmidt, waldschmidt_point
    import workloads

    corpus = workloads.wald_corpus()
    if spec.get("limit"):
        corpus = corpus[:spec["limit"]]
    tracer = _tracer(spec)
    out["first_op"] = perf_counter()
    if spec["mode"] == "setup":
        return
    sampler = _sampler(spec)
    ops, spans = [], []
    for op_id, ideal in corpus:
        t0 = perf_counter()
        value = waldschmidt(ideal)
        point = waldschmidt_point(ideal)
        t1 = perf_counter()
        spans.append((t0, t1))
        ops.append({"id": op_id, "s": t1 - t0, "dim": ideal.ambient_dim,
                    "gens": [list(v) for v in ideal.vectors],
                    "value": str(value), "point": [str(x) for x in point]})
    out["timed_s"] = sum(op["s"] for op in ops)
    out["ops"] = ops
    _rescaled(sampler, out, spans)
    if tracer is not None:
        out["trace"] = tracer.report()


def _tracer(spec: dict):
    if not spec.get("trace"):
        return None
    import layers
    return layers.Tracer().install()


def run_spec(spec: dict) -> None:
    out: dict = {}
    if spec["workload"] in ("scan-mixed", "sweep-sqfree"):
        _scan(spec["workload"], spec, out)
    elif spec["workload"] == "waldschmidt-general":
        _waldschmidt(spec, out)
    elif spec["workload"] == "cli-desk":
        import workloads
        out["ideals"] = workloads.cli_ideals(spec["seed"])
    else:
        raise ValueError(f"no in-process workload {spec['workload']!r}")
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


def run_cli(trace_file: str, argv: list[str]) -> int:
    """`python -m symbpow ARGS`, with the import timed and layers traced."""
    start = perf_counter()
    import symbpow.cli
    import_s = perf_counter() - start
    import layers
    tracer = layers.Tracer().install()
    try:
        code = symbpow.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    report = tracer.report()
    report["import_s"] = import_s
    with open(trace_file, "w") as fh:
        json.dump(report, fh)
    return code


def run_cli_sampled(summary_file: str, argv: list[str]) -> int:
    """`python -m symbpow ARGS` under the sampler; the parent times the
    process and rescales it with the summary written to `summary_file`."""
    sampler = yardstick.Sampler().start()
    import symbpow.cli
    try:
        code = symbpow.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    sampler.stop()
    with open(summary_file, "w") as fh:
        json.dump(sampler.summary(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    if sys.argv[1] == "--cli-sampled":
        sys.exit(run_cli_sampled(sys.argv[2], sys.argv[3:]))
    run_spec(json.loads(sys.argv[1]))
