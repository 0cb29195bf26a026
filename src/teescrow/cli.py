"""Command-line front end.

Subcommands:

* ``scenario``  run one strategy pair, print the outcome
* ``payoffs``   run the full strategy matrix (optionally over a grid file)
* ``gas``       per-function gas and cost for a tier
* ``latency``   honest-run end-to-end latency for a tier
* ``inspect``   replay the config a trace file records; exit 1 on any byte
                difference from the replay, naming the first differing line,
                or on a trace of another format than this build writes

Exit codes: 0 success, 1 scenario assertion failure (information-flow
violation, dominance violation, or a trace that is malformed or not its
config's replay), 2 usage or config error,
141 standard output closed before everything was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest

from .config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
    load_json_file,
)
from .harness import (
    TRACE_FORMAT,
    ScenarioRunner,
    dominance_check,
    gas_report,
    latency_report,
    payoff_matrix,
)
from .ledger import TIERS


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _kv_table(obj: dict) -> str:
    width = max(len(k) for k in obj)
    lines = []
    for key, value in obj.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key.ljust(width)}  {value}")
    return "\n".join(lines)


def _payoff_table(cells: dict) -> str:
    """Requestor strategies down, node strategies across; each cell reads
    "requestor payoff / node payoff"."""
    rows = [["requestor \\ node", *NODE_STRATEGIES]]
    for r in REQUESTOR_STRATEGIES:
        rows.append([r, *(f"{cells[r, n].requestor_payoff} / "
                          f"{cells[r, n].node_payoff}"
                          for n in NODE_STRATEGIES)])
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths))
                     for row in rows)


def _gas_table(report: dict) -> str:
    gas, cost = report["perFunctionGas"], report["perFunctionCostWei"]
    rows = [("Function", "Gas", "Cost (wei)"),
            *((name, gas[name], cost[name]) for name in gas),
            ("Total per task", report["totalPerTaskGas"],
             report["totalPerTaskCostWei"])]
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {g:>9}  {c:>22}"
                     for name, g, c in rows)


def _config(data, seed: int | None) -> ScenarioConfig:
    """The config ``data`` holds, built once, with ``seed`` as its
    ``rng_seed`` if one is given."""
    if seed is not None and isinstance(data, dict):
        data = {**data, "rng_seed": seed}
    return ScenarioConfig.from_dict(data)


def _load_config(path: str | None, seed: int | None) -> ScenarioConfig:
    return _config(load_json_file(path, "config") if path else {}, seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teescrow",
        description="Deterministic escrow-protocol simulator for outsourced "
                    "computation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    scenario = sub.add_parser("scenario", help="run one scenario")
    # Without the flag, the config's strategy (by default "honest") runs.
    scenario.add_argument("--requestor", choices=REQUESTOR_STRATEGIES)
    scenario.add_argument("--node", choices=NODE_STRATEGIES)
    scenario.add_argument("--config", metavar="FILE")
    scenario.add_argument("--seed", type=int)

    payoffs = sub.add_parser("payoffs", help="strategy payoff matrix")
    source = payoffs.add_mutually_exclusive_group()
    source.add_argument("--grid", metavar="FILE",
                        help="JSON list of config objects, one matrix each")
    source.add_argument("--config", metavar="FILE")
    payoffs.add_argument("--seed", type=int)

    for name, summary in (("gas", "gas cost report"),
                          ("latency", "honest-run latency report")):
        report = sub.add_parser(name, help=summary)
        report.add_argument("--tier", choices=TIERS, required=True)
        report.add_argument("--config", metavar="FILE")

    inspect = sub.add_parser("inspect", help="check an exported trace")
    inspect.add_argument("--trace", metavar="FILE", required=True)

    for command in sub.choices.values():
        command.add_argument("--format", choices=("json", "table"),
                             default="table")
    # Last, so that scenario's usage line lists it after --format.
    scenario.add_argument("--export-trace", metavar="FILE")
    return parser


def _cmd_scenario(args) -> int:
    config = _load_config(args.config, args.seed)
    config = config.with_strategies(
        args.requestor or config.requestor_strategy,
        args.node or config.node_strategy)
    runner = ScenarioRunner(config)
    outcome = runner.run()
    if args.export_trace:
        # newline="": the file holds the trace's own bytes on every OS.
        with open(args.export_trace, "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(runner.trace.to_jsonl())
    obj = outcome.to_json_obj()
    print(_json(obj) if args.format == "json" else _kv_table(obj))
    return 1 if outcome.infoflow_violations else 0


def _payoff_matrices(args) -> list:
    """The (config, payoff matrix) of each entry ``payoffs`` prints, all
    built first, so a refused grid entry leaves nothing printed."""
    if not args.grid:
        config = _load_config(args.config, args.seed)
        return [(config, payoff_matrix(config))]
    entries = load_json_file(args.grid, "grid")
    if not isinstance(entries, list):
        raise ConfigInvalid("grid file must hold a JSON list")
    matrices = []
    for entry, data in enumerate(entries, 1):
        try:
            config = _config(data, args.seed)
            matrices.append((config, payoff_matrix(config)))
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"entry {entry}: {exc}") from None
    return matrices


def _cmd_payoffs(args) -> int:
    exit_code = 0
    docs = []
    for entry, (config, cells) in enumerate(_payoff_matrices(args), 1):
        if args.format == "json":
            docs.append({"config": config.to_json_obj(),
                         "cells": {f"{r}/{n}": outcome.to_json_obj()
                                   for (r, n), outcome in cells.items()}})
        else:
            print(_payoff_table(cells))
        if any(o.infoflow_violations for o in cells.values()):
            exit_code = 1
        for violation in dominance_check(cells):
            where = f"entry {entry}: " if args.grid else ""
            print(f"dominance violation: {where}{violation}", file=sys.stderr)
            exit_code = 1
    if args.format == "json":
        # A grid prints one list, so its output is one JSON value.
        print(_json(docs if args.grid else docs[0]))
    return exit_code


def _cmd_gas(args) -> int:
    config = _load_config(args.config, None)
    report = gas_report(args.tier, config.gas_schedule)
    print(_json(report) if args.format == "json" else _gas_table(report))
    return 0


def _cmd_latency(args) -> int:
    config = _load_config(args.config, None)
    report = latency_report(args.tier, config)
    print(_json(report) if args.format == "json" else _kv_table(report))
    return 0


def _first_difference(data: bytes, replay: bytes) -> int:
    """The number, from 1, of the first line where two traces differ."""
    pairs = zip_longest(data.splitlines(True), replay.splitlines(True))
    return next(n for n, (ours, theirs) in enumerate(pairs, 1)
                if ours != theirs)


def _cmd_inspect(args) -> int:
    """Rerun the config on the trace's first line, if the line names this
    build's trace format; the file passes only if it is the replay's trace
    and the replay saw no information-flow violation."""
    with open(args.trace, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
        first = json.loads(text.partition("\n")[0])
        trace_format = first.get("traceFormat", 1)
        if trace_format != TRACE_FORMAT:
            print(f"trace format {trace_format!r}, this build writes "
                  f"{TRACE_FORMAT}", file=sys.stderr)
            return 1
        config = ScenarioConfig.from_dict(first["config"])
        runner = ScenarioRunner(config)
        # A run with k submitTask calls made k - 1 resubmits, and the replay
        # may make no more: a forged max_resubmits cannot keep it running.
        # Counting a line too many only loosens the bound.
        runner.requestor.resubmit_limit = min(
            config.max_resubmits,
            max(text.count('"function":"submitTask"') - 1, 0))
        outcome = runner.run()
    except (ValueError, RecursionError, AttributeError, KeyError, TypeError,
            ConfigInvalid) as exc:
        # Not UTF-8 or not JSON (or nested too deep to parse), a first line
        # that is not an object or holds no config object, or a config the
        # simulator refuses.
        print(f"malformed trace: {exc!r}", file=sys.stderr)
        return 1
    replay = runner.trace.to_jsonl().encode()
    if data != replay:
        print(f"trace mismatch: line {_first_difference(data, replay)} "
              f"differs from the replay", file=sys.stderr)
    ok = data == replay and not outcome.infoflow_violations
    obj = outcome.to_json_obj()
    obj["reconstructionOk"] = ok
    print(_json(obj) if args.format == "json" else _kv_table(obj))
    return 0 if ok else 1


#: The ``OSError`` subclasses with a wording of their own.
_OPEN_ERRORS = {FileNotFoundError: "file not found",
                IsADirectoryError: "not a file"}

#: Exit code when the reader closes standard output early (``| head``):
#: 128 + SIGPIPE, what a shell reports for a process that signal ended.
EXIT_CLOSED_STDOUT = 141


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "scenario": _cmd_scenario,
        "payoffs": _cmd_payoffs,
        "gas": _cmd_gas,
        "latency": _cmd_latency,
        "inspect": _cmd_inspect,
    }[args.subcommand]
    try:
        code = handler(args)
        # Flush here rather than at exit, so that a closed pipe is caught
        # below however little was printed.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point standard output at the null device, so the interpreter's
        # flush at exit cannot fail again on what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A path that is missing, a directory, or otherwise cannot be opened;
        # any other error with no path is not a usage error.
        if exc.filename is None:
            raise
        reason = _OPEN_ERRORS.get(type(exc), "cannot open")
        print(f"{reason}: {exc.filename}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
