"""Spans and counters recorded around the program's public functions.

``instrument(log)`` replaces public functions of ``ledger``, ``contract``,
``crypto``, ``enclave``, ``actors`` and ``harness`` by attribute with
wrappers that record a span (name, start, end, parent, op id) or add to a
counter, and puts every original back on exit.  The program's files are
not touched; the untimed replay and the end-to-end runs see no wrapper.

Spans are kept in memory in flat arrays and written out once, at the end.
A span's self time is its duration minus the time its child spans cover;
the benchmark's op itself is the root span ``op``.  Only work inside an op
is reported; set-up between ops (building a race's ledger) is recorded as
op ``-1`` and left out of the per-op figures.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

from teescrow import actors, contract, crypto, enclave, harness, ledger

#: Spans reported as ``<name>.self_us`` (microseconds per op).
SELF_TIME = (
    "ledger.submit_transaction",
    "ledger.assert_conservation",
    "contract.dispatch",
    "crypto.new_result_keys",
    "crypto.protect_result",
    "crypto.open_result",
    "crypto.verify_result_signature",
    "enclave.instantiate",
    "enclave.attest",
    "enclave.provision",
    "enclave.execute",
    "enclave.destroy",
    "actors.requestor.step",
    "actors.node.step",
    "harness.init",
    "harness.run",
    "harness.trace.content_id",
    "op",
)

#: Spans and counted functions reported as ``<name>.calls`` (per op).
CALLS = (
    "ledger.submit_transaction",
    "contract.dispatch",
    "actors.requestor.step",
    "actors.node.step",
    "crypto.signing_key",
    "crypto.canonical_json_bytes",
    "enclave.measurement",
    "enclave.grant",
)


class SpanLog:
    """In-memory spans of one traced run, plus counters per op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.op_id = -1
        self.ops = 0
        self._stack: list[int] = []
        self._op_span = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(index)
        return index

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once it returns."""
        name_id = self._name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = self._open(name_id)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.start[index] = begin
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name: str, fn, after=None):
        """``fn`` wrapped to count its calls made inside ops."""
        calls = f"{name}.calls"

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op_id >= 0:
                self.counters[calls] += 1
            if after is not None:
                after(args, result)
            return result

        return counting

    def add(self, counter: str, amount: int) -> None:
        if self.op_id >= 0:
            self.counters[counter] += amount

    def run_op(self, op):
        """Run one benchmark op as the root span ``op``."""
        if self._op_span is None:
            self._op_span = self.span("op", lambda op: op())
        self.op_id = self.ops
        self.ops += 1
        try:
            return self._op_span(op)
        finally:
            self.op_id = -1

    # ------------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Self time in ns and call count per span name, inside ops only."""
        covered = [0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, name_id in enumerate(self.name):
            if self.op[i] < 0:
                continue
            name = self.names[name_id]
            self_ns[name] += self.end[i] - self.start[i] - covered[i]
            calls[name] += 1
        return self_ns, calls

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value per op, unit)``."""
        ops = max(self.ops, 1)
        self_ns, calls = self.totals()
        counters = self.counters
        metrics = {}
        for name in SELF_TIME:
            metrics[f"{name}.self_us"] = (self_ns[name] / 1e3 / ops, "us")
        for name in CALLS:
            count = calls[name] or counters[f"{name}.calls"]
            metrics[f"{name}.calls"] = (count / ops, "count")
        transactions = calls["ledger.submit_transaction"]
        metrics["ledger.accounts"] = (
            counters["ledger.accounts"] / max(transactions, 1), "count")
        dispatched = calls["contract.dispatch"]
        metrics["contract.accepted_ratio"] = (
            counters["contract.accepted"] / max(dispatched, 1), "ratio")
        for name, unit in (("crypto.canonical_json_bytes.bytes", "bytes"),
                           ("harness.trace.records", "count"),
                           ("harness.trace.bytes", "bytes")):
            metrics[name] = (counters[name] / ops, unit)
        return metrics

    def write(self, path) -> None:
        """One CSV line per span: op, name, start_ns, end_ns, parent index."""
        names = self.names
        with open(path, "w", encoding="ascii") as handle:
            handle.write("op,name,start_ns,end_ns,parent\n")
            handle.writelines(
                f"{self.op[i]},{names[self.name[i]]},{self.start[i]},"
                f"{self.end[i]},{self.parent[i]}\n"
                for i in range(len(self.start))
            )


@contextlib.contextmanager
def instrument(log: SpanLog):
    """Wrap the program's public functions for the duration of the block."""
    saved = []

    def swap(owner, attr, make):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(owner, attr, name, after=None):
        swap(owner, attr, lambda fn: log.span(name, fn, after))

    def counted(owner, attr, name, after=None):
        swap(owner, attr, lambda fn: log.counted(name, fn, after))

    # ledger.accounts: the accounts each transaction's conservation sum walks.
    def on_submit(args, _result):
        log.add("ledger.accounts", len(args[0]._accounts))

    def on_dispatch(_args, result):
        log.add("contract.accepted", int(result.accepted))

    def on_run(args, _result):
        log.add("harness.trace.records", len(args[0].trace.records))

    span(ledger.Ledger, "submit_transaction", "ledger.submit_transaction",
         on_submit)
    span(ledger.Ledger, "assert_conservation", "ledger.assert_conservation")
    span(contract.EscrowContract, "dispatch", "contract.dispatch", on_dispatch)

    for fn in ("new_result_keys", "protect_result", "open_result",
               "verify_result_signature"):
        span(crypto, fn, f"crypto.{fn}")
    counted(crypto.ResultKeyPair, "signing_key", "crypto.signing_key")
    counted(crypto, "canonical_json_bytes", "crypto.canonical_json_bytes",
            lambda _args, result: log.add(
                "crypto.canonical_json_bytes.bytes", len(result)))

    for fn in ("instantiate", "attest", "provision", "execute", "destroy"):
        span(enclave.EnclaveHost, fn, f"enclave.{fn}")
    swap(enclave.FunctionImage, "measurement", lambda prop: property(
        log.counted("enclave.measurement", prop.fget)))
    counted(enclave.InfoFlowLedger, "grant", "enclave.grant")

    span(actors.RequestorActor, "step", "actors.requestor.step")
    span(actors.ExecutionNodeActor, "step", "actors.node.step")

    span(harness.ScenarioRunner, "__init__", "harness.init")
    span(harness.ScenarioRunner, "run", "harness.run", on_run)
    span(harness.Trace, "content_id", "harness.trace.content_id")
    swap(harness.Trace, "to_jsonl", lambda fn: _after(
        fn, lambda _args, result: log.add("harness.trace.bytes", len(result))))
    try:
        yield log
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _after(fn, hook):
    def hooked(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result

    return hooked
