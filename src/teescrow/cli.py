"""Command-line front end.

Subcommands:

* ``scenario``  run one strategy pair, print the outcome
* ``payoffs``   run the full strategy matrix (optionally over a grid file)
* ``gas``       per-function gas and cost for a tier
* ``latency``   honest-run end-to-end latency for a tier
* ``inspect``   re-derive and check the outcome stored in a trace file

Exit codes: 0 success, 1 scenario assertion failure (information-flow
violation, dominance violation or trace mismatch), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import (
    NODE_STRATEGIES,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
    load_json_file,
)
from .harness import (
    ScenarioRunner,
    gas_report,
    latency_report,
    load_trace,
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


def _load_config(path: str | None, seed: int | None) -> ScenarioConfig:
    config = ScenarioConfig.from_file(path) if path else ScenarioConfig()
    if seed is not None:
        config = replace(config, rng_seed=seed)
    return config


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
    scenario.add_argument("--format", choices=("json", "table"),
                          default="table")
    scenario.add_argument("--export-trace", metavar="FILE")

    payoffs = sub.add_parser("payoffs", help="strategy payoff matrix")
    payoffs.add_argument("--grid", metavar="FILE",
                         help="JSON list of config objects, one matrix each")
    payoffs.add_argument("--config", metavar="FILE")
    payoffs.add_argument("--seed", type=int)
    payoffs.add_argument("--format", choices=("json", "table"),
                         default="table")

    gas = sub.add_parser("gas", help="gas cost report")
    gas.add_argument("--tier", choices=TIERS, required=True)
    gas.add_argument("--config", metavar="FILE")
    gas.add_argument("--format", choices=("json", "table"), default="table")

    latency = sub.add_parser("latency", help="honest-run latency report")
    latency.add_argument("--tier", choices=TIERS, required=True)
    latency.add_argument("--config", metavar="FILE")
    latency.add_argument("--format", choices=("json", "table"),
                         default="table")

    inspect = sub.add_parser("inspect", help="check an exported trace")
    inspect.add_argument("--trace", metavar="FILE", required=True)
    inspect.add_argument("--format", choices=("json", "table"),
                         default="table")
    return parser


def _cmd_scenario(args) -> int:
    config = _load_config(args.config, args.seed)
    config = config.with_strategies(
        args.requestor or config.requestor_strategy,
        args.node or config.node_strategy)
    runner = ScenarioRunner(config)
    outcome = runner.run()
    if args.export_trace:
        with open(args.export_trace, "w", encoding="utf-8") as handle:
            handle.write(runner.trace.to_jsonl())
    obj = outcome.to_json_obj()
    print(_json(obj) if args.format == "json" else _kv_table(obj))
    return 1 if outcome.infoflow_violations else 0


def _cmd_payoffs(args) -> int:
    configs = []
    if args.grid:
        entries = load_json_file(args.grid, "grid")
        if not isinstance(entries, list):
            raise ConfigInvalid("grid file must hold a JSON list")
        configs = [ScenarioConfig.from_dict(entry) for entry in entries]
    else:
        configs = [_load_config(args.config, args.seed)]
    exit_code = 0
    for config in configs:
        matrix = payoff_matrix(config)
        if args.format == "json":
            print(_json(matrix.to_json_obj()))
        else:
            print(matrix.to_text_table())
        if any(o.infoflow_violations for o in matrix.cells.values()):
            exit_code = 1
    return exit_code


def _cmd_gas(args) -> int:
    config = _load_config(args.config, None)
    report = gas_report(args.tier, config.gas_schedule())
    print(_json(report.to_json_obj()) if args.format == "json"
          else report.to_text_table())
    return 0


def _cmd_latency(args) -> int:
    config = _load_config(args.config, None)
    report = latency_report(args.tier, config)
    obj = report.to_json_obj()
    print(_json(obj) if args.format == "json" else _kv_table(obj))
    return 0


def _cmd_inspect(args) -> int:
    try:
        records = load_trace(args.trace)
        config_rec = next(
            (r for r in records if r.get("type") == "scenario"), None)
        outcome_rec = next(
            (r for r in records if r.get("type") == "outcome"), None)
        if config_rec is None or outcome_rec is None:
            print("trace is missing its scenario or outcome record",
                  file=sys.stderr)
            return 1
        value = config_rec["config"]["value_of_result"]
        expected_requestor = outcome_rec["requestorBalanceDelta"] + (
            value if outcome_rec["receivedValidResult"] else 0
        )
        expected_node = (outcome_rec["nodeBalanceDelta"]
                         - outcome_rec["resourceCostConsumed"])
        ok = (expected_requestor == outcome_rec["requestorPayoff"]
              and expected_node == outcome_rec["nodePayoff"]
              and not outcome_rec["infoFlowViolations"])
    except (ValueError, RecursionError, KeyError, TypeError,
            AttributeError) as exc:
        # Not JSON lines (or nested too deep to parse), a record that is no
        # object, or a missing field.
        print(f"malformed trace: {exc!r}", file=sys.stderr)
        return 1
    obj = dict(outcome_rec)
    obj.pop("type", None)
    obj["reconstructionOk"] = ok
    print(_json(obj) if args.format == "json" else _kv_table(obj))
    return 0 if ok else 1


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
        return handler(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"not a file: {exc.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
