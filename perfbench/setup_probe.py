"""One set-up sample: start, ``import teescrow``, one warm-up op, exit.

Run by the benchmark as ``setup_probe.py <workload> <seed>``.  Prints the
CLOCK_MONOTONIC time (ns) at which the warm-up op returned, and the ns
spent drawing its inputs, which the parent leaves out of ``setup_s``.
"""

import time

if __name__ == "__main__":
    import sys

    import program

    program.use_checkout_src()
    import workloads

    name, seed = sys.argv[1], sys.argv[2]
    workload = workloads.make(name, seed)
    plan_begin = time.perf_counter_ns()
    plan = workload.plan(0)
    plan_ns = time.perf_counter_ns() - plan_begin
    workload.prepare(plan).ops[0]()
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), plan_ns)
