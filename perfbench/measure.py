"""The closed loop that times the ops, and the metrics made from it.

One thread, one op at a time: an op starts only after the previous one
returned, because the program is a batch simulator, not a server.  Only
the ops are timed; planning, preparing and checking a unit happen between
them.  A run stops at the first window boundary after ``seconds``.

The host this runs on changes speed by up to a factor of two, for stretches
of a fraction of a second to tens of seconds, for reasons outside the
program; a run can fall wholly inside a slow stretch.  So the ops are
grouped into windows (a fixed mix of units, about a tenth of a second of
work each), a fixed reference task is timed at every window boundary, and
each op's latency is scaled by ``REFERENCE_NS`` over the reference time
around its window.  The timing metrics are host time at the speed the
reference task was calibrated on; the reference does not touch the program,
so a change to the program moves them as it moves raw host time.

The loop's own memory does not grow with the number of ops: the percentile
sample is allocated at its full size up front, unit fingerprints are kept
for the first window only (the traced comparison keeps them all), and the
per-window figures add a few numbers per tenth of a second.  So a faster
program does not read as a larger ``peak_rss_mb``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from workloads import FAILED

HERE = Path(__file__).resolve().parent

#: Fresh processes whose set-up time ``setup_s`` takes the median of.
SETUP_PROBES = 9

#: Scaled op latencies kept for the percentiles (a uniform sample).
SAMPLE_SIZE = 100_000

#: Best-of-three time of ``_reference_task`` on a quiet 2-core x86-64 host
#: under Python 3.11; the scale all timing metrics are reported at.
REFERENCE_NS = 1_000_000


class _Item:
    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def _reference_task() -> int:
    """Fixed interpreter work of the program's kind: arithmetic, objects,
    canonical JSON and SHA-256."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    items = [_Item(i, [i, str(i)]) for i in range(1000)]
    blob = json.dumps([{"k": it.key, "v": it.value} for it in items[:200]],
                      sort_keys=True)
    for _ in range(5):
        blob = hashlib.sha256(blob.encode()).hexdigest() + blob
    return total + len(blob)


def reference_ns() -> int:
    """Current host speed: the best of three timings of the reference task."""
    best = None
    for _ in range(3):
        begin = time.perf_counter_ns()
        _reference_task()
        elapsed = time.perf_counter_ns() - begin
        best = elapsed if best is None else min(best, elapsed)
    return best


@dataclass
class Tally:
    """What one pass of the loop did."""

    window_ops: list[int] = field(default_factory=list)
    window_ns: list[int] = field(default_factory=list)  # raw op time
    window_blocks: list[int] = field(default_factory=list)
    window_scale: list[float] = field(default_factory=list)
    sample: array = field(
        default_factory=lambda: array("d", bytes(8 * SAMPLE_SIZE)))
    attempted: int = 0
    failed: int = 0
    units: int = 0
    unit_digests: list[str] = field(default_factory=list)
    digest_limit: int | None = None  # fingerprints kept; None keeps all
    first_window_sim: list[int] = field(default_factory=lambda: [0, 0])
    errors: list[str] = field(default_factory=list)
    _sampler: random.Random = field(default_factory=lambda: random.Random(0))

    @property
    def ops(self) -> int:
        return sum(self.window_ops)

    def close_window(self, latency: array, blocks: int, scale: float) -> None:
        """Record one window and feed its scaled latencies to the sample."""
        seen = self.ops
        self.window_ops.append(len(latency))
        self.window_ns.append(sum(latency))
        self.window_blocks.append(blocks)
        self.window_scale.append(scale)
        for ns in latency:  # reservoir sampling, algorithm R
            if seen < SAMPLE_SIZE:
                self.sample[seen] = ns * scale
            else:
                slot = self._sampler.randrange(seen + 1)
                if slot < SAMPLE_SIZE:
                    self.sample[slot] = ns * scale
            seen += 1

    def sorted_sample(self) -> list[float]:
        return sorted(self.sample[:min(self.ops, SAMPLE_SIZE)])

    def keep_digest(self, digest: str) -> None:
        limit = self.digest_limit
        if limit is None or len(self.unit_digests) < limit:
            self.unit_digests.append(digest)

    def digest(self, units: int) -> str:
        """SHA-256 over the fingerprints (traceIds) of the first ``units``."""
        return hashlib.sha256(
            "\n".join(self.unit_digests[:units]).encode()).hexdigest()[:16]

    def note_error(self) -> None:
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc())


def drive(workload, seconds: float = 0.0, windows: int | None = None,
          call=None, every_digest: bool = False) -> Tally:
    """Run windows of ``workload`` for ``seconds``, or exactly ``windows``.

    ``call(op)`` runs one op; the traced run passes ``SpanLog.run_op``.
    ``every_digest`` keeps every unit's fingerprint digest, not only the
    first window's.
    """
    tally = Tally(digest_limit=None if every_digest else workload.window)
    clock = time.perf_counter_ns
    deadline = time.monotonic() + seconds
    latency = array("q")
    blocks = 0
    index = 0
    ref_ns = reference_ns()
    while True:
        if index % workload.window == 0 and index:
            end_ref_ns = reference_ns()
            tally.close_window(latency, blocks,
                               2 * REFERENCE_NS / (ref_ns + end_ref_ns))
            latency = array("q")
            blocks = 0
            if (len(tally.window_ops) == windows if windows is not None
                    else time.monotonic() >= deadline):
                break
            ref_ns = reference_ns()
        plan = workload.plan(index)
        index += 1
        tally.units += 1
        tally.attempted += plan.size
        try:
            unit = workload.prepare(plan)
        except Exception:
            tally.note_error()
            tally.failed += plan.size
            tally.keep_digest("prepare-failed")
            continue
        results = []
        for op in unit.ops:
            begin = clock()
            try:
                result = op() if call is None else call(op)
            except Exception:
                result = FAILED
                tally.note_error()
            latency.append(clock() - begin)
            results.append(result)
        try:
            ok = unit.check(results)
            fingerprints = unit.fingerprints(results)
            unit_blocks, sim_seconds = unit.sim(results)
        except Exception:
            tally.note_error()
            ok, fingerprints = [False] * len(results), ["check-failed"]
            unit_blocks = sim_seconds = 0
        tally.failed += ok.count(False) + len(results) - len(ok)
        blocks += unit_blocks
        tally.keep_digest(
            hashlib.sha256("\n".join(fingerprints).encode()).hexdigest())
        if index <= workload.window:
            tally.first_window_sim[0] += unit_blocks
            tally.first_window_sim[1] += sim_seconds
    return tally


def warm_up(name: str, seed) -> None:
    """One untimed, unchecked window from a separate stream, to fill caches."""
    drive(workloads.make(name, f"{seed}:warmup"), windows=1)
    gc.collect()


def percentile_ms(sorted_ns, q: float) -> float:
    """Nearest-rank percentile of sorted latencies, in milliseconds."""
    rank = max(1, -(-len(sorted_ns) * q // 100))
    return sorted_ns[int(rank) - 1] / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_samples(name: str, seed) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, one after another:
    start, ``import teescrow``, one warm-up op.

    Each probe reports when its warm-up op ended and how long it spent
    drawing inputs; the latter is the benchmark's own work and is removed.
    Each sample is scaled to the reference host speed timed before it.
    """
    samples = []
    for probe in range(SETUP_PROBES):
        scale = REFERENCE_NS / reference_ns()
        begin = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name,
             f"{seed}:setup:{probe}"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        end_ns, plan_ns = (int(x) for x in done.stdout.split())
        samples.append((end_ns - begin - plan_ns) * scale / 1e9)
    return samples


def end_to_end(tally: Tally, setup: list[float], rss_mb: float) -> dict:
    """Rates are medians over windows; percentiles come from the sample."""
    rates, block_rates = [], []
    for ops, raw_ns, blocks, scale in zip(tally.window_ops, tally.window_ns,
                                          tally.window_blocks,
                                          tally.window_scale):
        seconds = raw_ns * scale / 1e9
        rates.append(ops / seconds)
        block_rates.append(blocks / seconds)
    ordered = tally.sorted_sample()
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (percentile_ms(ordered, 50), "ms"),
        "op_ms_p90": (percentile_ms(ordered, 90), "ms"),
        "blocks_per_s": (statistics.median(block_rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def summary(name: str, seed, tally: Tally) -> dict:
    """Figures printed beside the metrics that are not benchmark metrics."""
    window = workloads.make(name, seed).window
    info = {
        "workload": name,
        "seed": seed,
        "ops": tally.ops,
        "units": tally.units,
        "windows": len(tally.window_ops),
        "op_seconds": round(sum(tally.window_ns) / 1e9, 3),
        "failed_ops_ratio": tally.failed / max(tally.attempted, 1),
        "trace_digest": tally.digest(window),
        "trace_digest_units": window,
        "host_scale_median": statistics.median(tally.window_scale),
    }
    # Only where at least ten samples lie beyond it.
    if tally.ops >= 1000:
        info["op_ms_p99"] = percentile_ms(tally.sorted_sample(), 99)
    return info


def traced(name: str, seed, seconds: float, spans_path: Path | None):
    """Traced pass for ``seconds``, then an untraced replay of its windows.

    The ops of a unit whose fingerprints (traceIds) differ between the two
    passes count as failed.  The overhead is the median over windows of
    traced over untraced op time.  Returns the traced tally, the per-layer
    metrics and the number of differing units.
    """
    log = spans.SpanLog()
    with spans.instrument(log):
        tally = drive(workloads.make(name, seed), seconds, call=log.run_op,
                      every_digest=True)
    workload = workloads.make(name, seed)
    plain = drive(workload, windows=len(tally.window_ops), every_digest=True)
    differing = [i for i, (a, b) in enumerate(zip(tally.unit_digests,
                                                  plain.unit_digests))
                 if a != b]
    tally.failed += sum(workload.plan(i).size for i in differing)
    overhead = statistics.median(
        (t_ns * t_scale) / (p_ns * p_scale)
        for t_ns, t_scale, p_ns, p_scale in zip(
            tally.window_ns, tally.window_scale,
            plain.window_ns, plain.window_scale))
    metrics = log.per_layer()
    first_window_ops = tally.window_ops[0]
    blocks, sim_seconds = tally.first_window_sim
    metrics["sim.blocks"] = (blocks / first_window_ops, "count")
    metrics["sim.seconds"] = (sim_seconds / first_window_ops, "sim_s")
    metrics["trace.overhead_pct"] = ((overhead - 1) * 100, "%")
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        log.write(spans_path)
    return tally, metrics, len(differing)
