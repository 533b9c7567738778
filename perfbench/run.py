"""Run one ppcstore benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the store is imported from ./src, and all
scratch files go under ./.ppcbench (removed again, except results and the
span dump of a traced run). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it holds the full report: provenance, every timing as median, tail
percentile and count, counters and the workload-specific figures.

A traced run first repeats the untraced run in the same process, then runs
the workload again with spans installed, and reports the difference of
each timing-dependent end-to-end metric between the two as
trace.overhead.<metric>.
"""

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".ppcbench"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "ppcstore" / "__init__.py").is_file():
        # measure the checkout's source, never an installed copy
        print(f"no ppcstore package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    steal0 = harness.host_steal_s()
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        corpus = harness.make_corpus(work / "corpus.jsonl", args.seed)
        run_workload, write_buffer = workloads.WORKLOADS[args.workload]

        def one_run(label, tracer=None):
            run = workloads.Run(args.workload, work / label, corpus, args.seed, args.seconds, tracer)
            run.work.mkdir()
            run_workload(run)
            return run

        untraced = one_run("untraced")
        runs = [untraced]
        report = {"untraced": untraced.report()}
        if args.trace:
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                traced = one_run("traced", tracer)
            layer_values = layers.layer_metrics(tracer, traced.counters)
            for name in layers.OVERHEAD:
                layer_values[f"trace.overhead.{name}"] = traced.e2e[name] - untraced.e2e[name]
            units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
            units.update({f"trace.overhead.{n}": layers.END_TO_END[n] for n in layers.OVERHEAD})
            metrics = _metric_block(layer_values, units)
            report["traced"] = traced.report()
            trace_dir = OUT / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}.spans")  # latest traced run only
            runs.append(traced)
        else:
            metrics = _metric_block(untraced.e2e, layers.END_TO_END)
        report["provenance"] = harness.provenance(
            ROOT, args.seed, corpus, harness.store_config("-", write_buffer)
        )
        report["provenance"]["host_steal_s"] = harness.host_steal_s() - steal0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(run.tally.attempted for run in runs)
    failed = sum(run.tally.failed for run in runs)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["result"] = result
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
