"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/repeat.py --runs 10 [--trace 0] [--first-seed 1]
                                [--write FILE]

Runs ``perfbench/run.py`` once per seed on every workload of
``BENCHMARK.json``, for its ``run_seconds``, one run after another, and
prints for every metric the median, the quartiles and their distance as
a share of the median, beside the bound ``BENCHMARK.json`` gives it.  With
``--write`` it merges the figures into a baseline file: ``--trace 0`` runs
fill ``end_to_end`` and ``--trace 1`` runs fill ``per_layer``.
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

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in SPEC[section]}
    report = {}
    for workload in WORKLOADS:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(workload, seed, args.trace) for seed in seeds]
        metrics = {}
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            metrics[name] = {
                "unit": runs[0][1]["metrics"][name]["unit"],
                **spread(values), "bound": bound, "values": values,
            }
            figures = metrics[name]
            line = (f"{workload:15} {name:40} {figures['unit']:6}"
                    f" median {figures['median']:<12.6g}"
                    f" q1 {figures['q1']:<12.6g} q3 {figures['q3']:<12.6g}"
                    f" spread {figures['spread']:.4f}")
            if bound is not None:
                line += f" bound {bound} ({figures['spread'] / bound:.2f} of it)"
            print(line, flush=True)
        report[workload] = {
            "seeds": seeds,
            "metrics": metrics,
            "trace_digests": {str(s): info["trace_digest"]
                              for s, (info, _) in zip(seeds, runs)},
            "failed_ops_ratio": [info["failed_ops_ratio"] for info, _ in runs],
            "op_ms_p99": [info.get("op_ms_p99") for info, _ in runs],
        }
    if args.write:
        baseline = (json.loads(args.write.read_text())
                    if args.write.exists() else {})
        baseline["python"] = platform.python_version()
        baseline["cpus"] = os.cpu_count()
        baseline["run_seconds"] = SECONDS
        baseline.setdefault(section, {}).update(report)
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
