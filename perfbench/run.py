"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it times the ops with
no instrumentation and reports the end-to-end metrics; with ``--trace 1``
it runs the ops under ``spans.instrument``, replays the same windows
untraced, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is the result object; the line before it
carries the trace digest and the figures that are not metrics.  Exit code
0 means every op passed its check.
"""

from __future__ import annotations

import argparse
import json
import sys

import program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "claim_race", "resubmit_chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.use_checkout_src()
    import measure
    import workloads

    measure.warm_up(args.workload, args.seed)
    if args.trace:
        spans_path = (program.ROOT / "perfbench" / "out"
                      / f"spans-{args.workload}.csv")
        tally, metrics, differing = measure.traced(
            args.workload, args.seed, args.seconds, spans_path)
        info = measure.summary(args.workload, args.seed, tally)
        info["trace_overhead_pct"] = metrics["trace.overhead_pct"][0]
        info["units_differing_from_untraced"] = differing
        info["spans"] = str(spans_path.relative_to(program.ROOT))
    else:
        tally = measure.drive(workloads.make(args.workload, args.seed),
                              args.seconds)
        # Before any sorting below adds the benchmark's own memory.
        rss_mb = measure.peak_rss_mb()
        setup = measure.setup_samples(args.workload, args.seed)
        metrics = measure.end_to_end(tally, setup, rss_mb)
        info = measure.summary(args.workload, args.seed, tally)
        info["setup_s_samples"] = setup
    for error in tally.errors:
        print(error, file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
