"""Scenario runner, payoff accounting and report generation.

``ScenarioRunner`` wires one ledger, one escrow contract, one requestor and
one execution node together and steps them to quiescence, producing a
``ScenarioOutcome`` and a JSON-lines trace.  Runs are deterministic: the
same config (seed included) yields a byte-identical trace.

Payoffs follow the convention
    payoff = balance delta + (result value if a valid result was received)
             - (compute cost if execution happened)
with gas excluded by default; one utility unit equals one currency unit.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass, field, replace

from . import crypto
from .actors import (
    Deliver,
    Destroy,
    ExecutionDone,
    ExecutionNodeActor,
    Expiry,
    Instantiate,
    InstanceCreated,
    Provision,
    RequestorActor,
    Start,
    SubmitTx,
    ThirdPartyAck,
)
from .config import (
    NODE_HONEST,
    NODE_STRATEGIES,
    REQUESTOR_HONEST,
    REQUESTOR_STRATEGIES,
    ConfigInvalid,
    ScenarioConfig,
)
from .contract import EscrowContract, TaskState
from .enclave import (
    NODE_HOST,
    REQUESTOR,
    BUILTIN_BODIES,
    EnclaveError,
    EnclaveHost,
    EnclaveInstance,
    FunctionImage,
    FunctionStore,
    InfoFlowLedger,
)
from .ledger import (
    CONTRACT_ACCOUNT,
    NULL_ACCOUNT,
    GasSchedule,
    Ledger,
    Receipt,
)

PARTY_REQUESTOR = "requestor"
PARTY_NODE = "node"
PARTY_THIRD = "third-party"


# ----------------------------------------------------------------------
# trace


_ENCODER = crypto.CANONICAL_JSON

# ``Trace`` writes each line itself, exactly as ``_ENCODER`` would: keys
# sorted, ints as ``str``, bytes as hex, strings quoted and escaped by ``_q``
# (the encoder's own ASCII escaper).  A new key or record shape goes into its
# writer; the tests compare every line with ``json.dumps``.  Names from a
# fixed set (function, event kind, enclave op) are written unescaped.
_q = json.encoder.encode_basestring_ascii
_BOOL = {True: "true", False: "false"}


_CALL_ARGS = {
    "submitTask": lambda a: (
        f'{{"expires":{a["expires"]},"function_name":{_q(a["function_name"])},'
        f'"hash_lock":"{a["hash_lock"].hex()}"}}'),
    "finalizeExecutionNode": lambda a: (
        f'{{"secret":"{a["secret"].hex()}","task_id":{a["task_id"]}}}'),
    **dict.fromkeys(("claimTask", "finalizeRequestor", "timeout"),
                    lambda a: f'{{"task_id":{a["task_id"]}}}'),
}

_EVENT_PAYLOAD = {
    "TaskSubmitted": lambda p: (
        f'{{"expires":{p["expires"]},"functionName":{_q(p["functionName"])},'
        f'"hashLock":{_q(p["hashLock"])},"payment":{p["payment"]},'
        f'"requestor":{_q(p["requestor"])},'
        f'"requestorDeposit":{p["requestorDeposit"]}}}'),
    "TaskClaimed": lambda p: (
        f'{{"executionNode":{_q(p["executionNode"])},'
        f'"executionNodeDeposit":{p["executionNodeDeposit"]}}}'),
    "TaskFinished": lambda p: (
        f'{{"depositReturned":{p["depositReturned"]},'
        f'"executionNode":{_q(p["executionNode"])}}}'),
    "TaskTimedOut": lambda p: (
        f'{{"lockedExecutionNodeDeposit":{p["lockedExecutionNodeDeposit"]},'
        f'"lockedRequestorDeposit":{p["lockedRequestorDeposit"]},'
        f'"paymentReturned":{p["paymentReturned"]}}}'),
}


class Trace:
    """Append-only JSON-lines trace: each record is stored as its line.

    Every record kind has a writer method that builds its line from the
    values the run already holds: a transaction's receipt, a clock advance,
    an enclave step, a message, and the once-per-run config, contract and
    outcome.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []

    @property
    def records(self) -> list[dict]:
        """The records, parsed from the stored lines."""
        return [json.loads(line) for line in self._lines]

    def call(self, sender: str, receipt: Receipt) -> None:
        """The call line, then one event line per event the call emitted."""
        call, o = receipt.call, receipt.outcome
        outcome = (f'{{"accepted":true,"taskId":{o.task_id}}}' if o.accepted
                   else f'{{"accepted":false,"reason":{_q(o.reason.value)}}}')
        self._lines.append(
            f'{{"args":{_CALL_ARGS[call.function](call.args)},'
            f'"blockHeight":{receipt.block_height},'
            # submit_transaction raises otherwise.
            f'"conservationOk":true,'
            f'"function":"{call.function}","gasCost":{receipt.gas_cost},'
            f'"gasUsed":{receipt.gas_used},"outcome":{outcome},'
            f'"sender":{_q(sender)},"tier":{_q(receipt.tier)},'
            f'"timestamp":{receipt.timestamp},"type":"call",'
            f'"value":{receipt.value}}}\n')
        for e in receipt.events:
            self._lines.append(
                f'{{"blockHeight":{e.block_height},"kind":"{e.kind}",'
                f'"payload":{_EVENT_PAYLOAD[e.kind](e.payload)},'
                f'"taskId":{e.task_id},"type":"event"}}\n')

    def clock(self, now: int, reason: str) -> None:
        self._lines.append(
            f'{{"now":{now},"reason":{_q(reason)},"type":"clock"}}\n')

    def enclave(self, op: str, instance: EnclaveInstance) -> None:
        """A successful ``instantiate``, ``attest``, ``provision``,
        ``execute`` or ``destroy`` of ``instance``."""
        if op == "destroy":
            self._lines.append('{"ok":true,"op":"destroy","type":"enclave"}\n')
            return
        measurement = (f'"measurement":"{instance.image.measurement.hex()}",'
                       if op == "instantiate" else "")
        cost = (f'"resourceCost":{instance.image.resource_cost},'
                if op == "execute" else "")
        self._lines.append(
            f'{{"instanceId":{instance.instance_id},{measurement}"ok":true,'
            f'"op":"{op}",{cost}"type":"enclave"}}\n')

    def enclave_failed(self, op: str, detail: str) -> None:
        self._lines.append(
            f'{{"detail":{_q(detail)},"ok":false,"op":"{op}",'
            f'"type":"enclave"}}\n')

    def result_delivery(self, action: Deliver) -> None:
        self._lines.append(
            f'{{"destination":{_q(action.destination)},'
            f'"keyId":{_q(action.protected.key_id)},'
            f'"kind":"result-delivery","taskId":{action.task_id},'
            f'"type":"message"}}\n')

    def third_party_ack(self, ack: ThirdPartyAck) -> None:
        self._lines.append(
            f'{{"kind":"third-party-ack",'
            f'"signatureValid":{_BOOL[ack.signature_valid]},'
            f'"taskId":{ack.task_id},"type":"message"}}\n')

    def scenario(self, c: ScenarioConfig) -> None:
        self._lines.append(
            f'{{"config":{{"compute_cost":{c.compute_cost},'
            f'"confirmation_delay_per_tier":'
            f'{_ENCODER.encode(c.confirmation_delay_per_tier)},'
            f'"deliver_to_third_party":{_BOOL[c.deliver_to_third_party]},'
            f'"execution_delay":{c.execution_delay},"expires":{c.expires},'
            f'"function_name":{_q(c.function_name)},'
            f'"gas_charging":{_BOOL[c.gas_charging]},'
            f'"gas_per_function":{_ENCODER.encode(c.gas_per_function)},'
            f'"gas_price_per_tier":{_ENCODER.encode(c.gas_price_per_tier)},'
            f'"include_gas_in_payoffs":{_BOOL[c.include_gas_in_payoffs]},'
            f'"initial_balance":{c.initial_balance},'
            f'"inputs":{c.inputs_json()},"max_resubmits":{c.max_resubmits},'
            f'"node_deposit":{c.node_deposit},'
            f'"node_strategy":{_q(c.node_strategy)},"payment":{c.payment},'
            f'"requestor_deposit":{c.requestor_deposit},'
            f'"requestor_strategy":{_q(c.requestor_strategy)},'
            f'"rng_seed":{c.rng_seed},"threshold":{c.threshold},'
            f'"tier":{_q(c.tier)},"value_of_result":{c.value_of_result}}},'
            f'"type":"scenario"}}\n')

    def contract_state(self, contract: EscrowContract) -> None:
        # Task ids are keys, so they sort as strings: "10" before "2".
        tasks = ",".join(
            f'"{task_id}":{{'
            f'"claimed":{_BOOL[t.execution_node != NULL_ACCOUNT]},'
            f'"completed":{_BOOL[t.state is TaskState.COMPLETED]},'
            f'"executionNode":"{t.execution_node.hex()}",'
            f'"executionNodeDeposit":{t.execution_node_deposit},'
            f'"expires":{t.expires},"functionName":{_q(t.function_name)},'
            f'"hashLock":"{t.hash_lock.hex()}","payment":{t.payment},'
            f'"requestor":"{t.requestor.hex()}",'
            f'"requestorDeposit":{t.requestor_deposit},"start":{t.start},'
            f'"state":"{t.state.value}"}}'
            for task_id, t in sorted(
                (str(task_id), t) for task_id, t in contract.tasks.items()))
        self._lines.append(
            f'{{"state":{{"numTasks":{contract.num_tasks},"tasks":{{{tasks}}},'
            f'"threshold":{contract.threshold}}},"type":"contract_state"}}\n')

    def outcome(self, o: ScenarioOutcome) -> None:
        self._lines.append(
            f'{{"endToEndSeconds":{o.end_to_end_seconds},'
            f'"gasByParty":{_ENCODER.encode(o.gas_by_party)},'
            f'"infoFlowViolations":{_ENCODER.encode(o.infoflow_violations)},'
            f'"lockedInContract":{o.locked_in_contract},'
            f'"nodeBalanceDelta":{o.node_balance_delta},'
            f'"nodePayoff":{o.node_payoff},'
            f'"receivedValidResult":{_BOOL[o.received_valid_result]},'
            f'"requestorBalanceDelta":{o.requestor_balance_delta},'
            f'"requestorPayoff":{o.requestor_payoff},'
            f'"resourceCostConsumed":{o.resource_cost_consumed},'
            f'"traceId":{_q(o.trace_id)},"type":"outcome"}}\n')

    def to_jsonl(self) -> str:
        return "".join(self._lines)

    def content_id(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()[:16]


def load_trace(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# outcome


@dataclass(frozen=True)
class ScenarioOutcome:
    requestor_payoff: int
    node_payoff: int
    locked_in_contract: int
    gas_by_party: dict[str, int]
    trace_id: str
    received_valid_result: bool
    resource_cost_consumed: int
    requestor_balance_delta: int
    node_balance_delta: int
    end_to_end_seconds: int
    infoflow_violations: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "requestorPayoff": self.requestor_payoff,
            "nodePayoff": self.node_payoff,
            "lockedInContract": self.locked_in_contract,
            "gasByParty": dict(self.gas_by_party),
            "traceId": self.trace_id,
            "receivedValidResult": self.received_valid_result,
            "resourceCostConsumed": self.resource_cost_consumed,
            "requestorBalanceDelta": self.requestor_balance_delta,
            "nodeBalanceDelta": self.node_balance_delta,
            "endToEndSeconds": self.end_to_end_seconds,
            "infoFlowViolations": list(self.infoflow_violations),
        }


# ----------------------------------------------------------------------
# runner


class ScenarioRunner:
    """One deterministic protocol run for a single task."""

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.ledger = Ledger(config.gas_schedule(),
                             gas_charging=config.gas_charging)
        self.contract = EscrowContract(self.ledger, config.threshold)
        self.requestor_account = self.ledger.create_account(
            config.initial_balance)
        self.node_account = self.ledger.create_account(config.initial_balance)
        self.flow = InfoFlowLedger()
        self.store = self._scenario_store()
        self.host = EnclaveHost(
            self.store, self.flow,
            random.Random(f"{config.rng_seed}:host"),
        )
        name = config.function_name
        self.requestor = RequestorActor(
            config, random.Random(f"{config.rng_seed}:requestor"),
            self.flow, {name: self.store.measurement_of(name)},
        )
        self.node = ExecutionNodeActor(config)
        self.trace = Trace()
        self._queue: deque = deque()
        self._next_expiry = 0  # lowest task id not yet armed or skipped
        self._last_receipt_time = 0
        self._ran = False

    def _scenario_store(self) -> FunctionStore:
        cfg = self.config
        if cfg.function_name not in BUILTIN_BODIES:
            raise ConfigInvalid(f"unknown function {cfg.function_name!r}")
        store = FunctionStore()
        store.register(FunctionImage(
            name=cfg.function_name,
            version="1",
            body_id=cfg.function_name,
            body=BUILTIN_BODIES[cfg.function_name],
            resource_cost=cfg.compute_cost,
        ))
        return store

    # ------------------------------------------------------------------

    def run(self) -> ScenarioOutcome:
        if self._ran:
            raise RuntimeError("a runner is single-use")
        self._ran = True
        self.trace.scenario(self.config)
        self._queue.append((PARTY_REQUESTOR, Start()))
        while True:
            self._drain()
            if not self._arm_expiry():
                break
        return self._finish()

    def _drain(self) -> None:
        while self._queue:
            recipient, obs = self._queue.popleft()
            if recipient == PARTY_THIRD:
                self._third_party(obs)
                continue
            actor = self.requestor if recipient == PARTY_REQUESTOR else self.node
            for action in actor.step(obs):
                self._execute(recipient, action)

    def _arm_expiry(self) -> bool:
        """Advance to the expiry of a still-open task, once per task.

        Task ids only grow, and a task that is dead, deleted or already
        armed never becomes eligible again, so a cursor over the ids finds
        the lowest eligible one.
        """
        while self._next_expiry < self.contract.num_tasks:
            task_id = self._next_expiry
            self._next_expiry += 1
            task = self.contract.tasks.get(task_id)
            if task is None or task.state is TaskState.TIMED_OUT_DEAD:
                continue
            deadline = task.start + task.expires + 1
            if self.ledger.now < deadline:
                self.ledger.advance_time(deadline - self.ledger.now)
                self.trace.clock(self.ledger.now, f"expiry of task {task_id}")
            self._queue.append((PARTY_REQUESTOR, Expiry(task_id)))
            return True
        return False

    # ------------------------------------------------------------------

    def _execute(self, who: str, action) -> None:
        handler = self._ACTIONS.get(type(action))
        if handler is None:
            raise TypeError(f"unknown action {action!r}")
        handler(self, who, action)

    def _do_tx(self, who: str, action: SubmitTx) -> None:
        sender = (self.requestor_account if who == PARTY_REQUESTOR
                  else self.node_account)
        receipt = self.ledger.submit_transaction(
            sender, action.call, action.value, self.config.tier)
        self._last_receipt_time = receipt.timestamp
        self.trace.call(who, receipt)
        self._queue.append((who, receipt))
        for event in receipt.events:
            self._queue.append((PARTY_NODE, event))

    def _do_instantiate(self, who: str, action: Instantiate) -> None:
        try:
            instance = self.host.instantiate(action.function_name)
        except EnclaveError as exc:
            self.trace.enclave_failed("instantiate", str(exc))
            return
        self.trace.enclave("instantiate", instance)
        self._queue.append((PARTY_REQUESTOR,
                            InstanceCreated(instance, action.task_id)))

    def _do_provision(self, who: str, action: Provision) -> None:
        """The attested session: attest, provision, execute; stops at the
        first enclave error and destroys the instance."""
        instance = action.instance
        try:
            self.host.attest(instance, action.expected_measurement,
                             action.nonce, requestor=REQUESTOR)
        except EnclaveError as exc:
            self.trace.enclave_failed("attest", str(exc))
            self._do_destroy(who, Destroy(instance))
            return
        self.trace.enclave("attest", instance)
        self.host.provision(
            instance, REQUESTOR, action.secret, action.inputs,
            action.result_keys, label_prefix=f"task{action.task_id}",
        )
        self.flow.grant(f"task{action.task_id}:inputs", REQUESTOR)
        self.trace.enclave("provision", instance)
        try:
            protected, secret = self.host.execute(instance)
        except EnclaveError as exc:
            # The instance holds the secret and inputs: it must not outlive
            # the failed session.
            self.trace.enclave_failed("execute", str(exc))
            self._do_destroy(who, Destroy(instance))
            return
        if self.config.execution_delay:
            self.ledger.advance_time(self.config.execution_delay)
        self.trace.enclave("execute", instance)
        self._queue.append((PARTY_NODE, ExecutionDone(
            instance, action.task_id, protected, secret,
        )))

    def _do_deliver(self, who: str, action: Deliver) -> None:
        self.trace.result_delivery(action)
        # The destination names the recipient party.
        self._queue.append((action.destination, action))

    def _do_destroy(self, who: str, action: Destroy) -> None:
        self.host.destroy(action.instance)
        self.trace.enclave("destroy", action.instance)

    _ACTIONS = {
        SubmitTx: _do_tx,
        Instantiate: _do_instantiate,
        Provision: _do_provision,
        Deliver: _do_deliver,
        Destroy: _do_destroy,
    }

    def _third_party(self, obs: Deliver) -> None:
        """The cloud endpoint: checks the public signature, acks back."""
        valid = crypto.verify_result_signature(
            obs.protected, self.requestor.verify_key(obs.task_id))
        ack = ThirdPartyAck(obs.task_id, valid)
        self.trace.third_party_ack(ack)
        self._queue.append((PARTY_REQUESTOR, ack))

    # ------------------------------------------------------------------

    def _infoflow_violations(self) -> tuple[str, ...]:
        violations = []
        for task_id in range(self.contract.num_tasks):
            prefix = f"task{task_id}"
            for label in (f"{prefix}:enc-key", f"{prefix}:result"):
                if self.flow.ever_seen(label, NODE_HOST):
                    violations.append(f"{NODE_HOST} saw {label}")
            secret_seen = self.flow.first_seen(f"{prefix}:secret", NODE_HOST)
            if secret_seen is not None:
                executed_at = self.flow.mark_step(f"{prefix}:executed")
                if executed_at is None or secret_seen < executed_at:
                    violations.append(
                        f"{NODE_HOST} saw {prefix}:secret before execution"
                    )
        return tuple(violations)

    def _finish(self) -> ScenarioOutcome:
        cfg = self.config
        gas_requestor = self.ledger.gas_cost_by_account.get(
            self.requestor_account, 0)
        gas_node = self.ledger.gas_cost_by_account.get(self.node_account, 0)
        requestor_delta = (self.ledger.balance(self.requestor_account)
                           - cfg.initial_balance)
        node_delta = self.ledger.balance(self.node_account) - cfg.initial_balance
        if not cfg.include_gas_in_payoffs:
            requestor_delta += gas_requestor
            node_delta += gas_node
        value_received = (cfg.value_of_result
                          if self.requestor.received_valid_result else 0)
        self.trace.contract_state(self.contract)
        trace_id = self.trace.content_id()
        outcome = ScenarioOutcome(
            requestor_payoff=requestor_delta + value_received,
            node_payoff=node_delta - self.host.resource_consumed,
            locked_in_contract=self.ledger.balance(CONTRACT_ACCOUNT),
            gas_by_party={"requestor": gas_requestor, "node": gas_node},
            trace_id=trace_id,
            received_valid_result=self.requestor.received_valid_result,
            resource_cost_consumed=self.host.resource_consumed,
            requestor_balance_delta=requestor_delta,
            node_balance_delta=node_delta,
            end_to_end_seconds=self._last_receipt_time,
            infoflow_violations=self._infoflow_violations(),
        )
        self.trace.outcome(outcome)
        return outcome


def run_scenario(config: ScenarioConfig) -> ScenarioOutcome:
    return ScenarioRunner(config).run()


# ----------------------------------------------------------------------
# payoff matrix and dominance


class PayoffMatrix:
    """Outcomes for every (requestor strategy, node strategy) pair."""

    def __init__(self, config: ScenarioConfig,
                 cells: dict[tuple[str, str], ScenarioOutcome]) -> None:
        self.config = config
        self.cells = cells

    def to_json_obj(self) -> dict:
        return {
            "config": self.config.to_json_obj(),
            "cells": {
                f"{r}/{n}": outcome.to_json_obj()
                for (r, n), outcome in sorted(self.cells.items())
            },
        }

    def to_text_table(self) -> str:
        header = ["requestor \\ node"] + list(NODE_STRATEGIES)
        rows = [header]
        for r in REQUESTOR_STRATEGIES:
            row = [r]
            for n in NODE_STRATEGIES:
                o = self.cells[(r, n)]
                row.append(f"{o.requestor_payoff} / {o.node_payoff}")
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        return "\n".join(lines)


def payoff_matrix(config: ScenarioConfig) -> PayoffMatrix:
    if not config.in_rational_regime:
        raise ConfigInvalid(
            "parameters outside the rational regime "
            "(need value > payment > cost > 0 and positive deposits)"
        )
    cells = {}
    for r in REQUESTOR_STRATEGIES:
        for n in NODE_STRATEGIES:
            cells[(r, n)] = run_scenario(config.with_strategies(r, n))
    return PayoffMatrix(config, cells)


@dataclass
class DominanceReport:
    draws: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def dominance_check(configs) -> DominanceReport:
    """Honesty strictly dominates every same-party deviation against an
    honest counterparty; the honest pair is the only one where both gain.

    A cheating requestor that skips confirmation can still net a positive
    absolute payoff when the result is valuable enough; that is not
    asserted against.
    """
    report = DominanceReport()
    for config in configs:
        if not config.in_rational_regime:
            raise ConfigInvalid("dominance check needs the rational regime")
        report.draws += 1
        honest = run_scenario(
            config.with_strategies(REQUESTOR_HONEST, NODE_HONEST))
        if honest.requestor_payoff <= 0 or honest.node_payoff <= 0:
            report.violations.append(
                f"draw {report.draws}: honest/honest payoffs not both positive"
            )
        for deviation in REQUESTOR_STRATEGIES:
            if deviation == REQUESTOR_HONEST:
                continue
            outcome = run_scenario(
                config.with_strategies(deviation, NODE_HONEST))
            if outcome.requestor_payoff >= honest.requestor_payoff:
                report.violations.append(
                    f"draw {report.draws}: requestor {deviation} "
                    f"({outcome.requestor_payoff}) not dominated by honest "
                    f"({honest.requestor_payoff})"
                )
        for deviation in NODE_STRATEGIES:
            if deviation == NODE_HONEST:
                continue
            outcome = run_scenario(
                config.with_strategies(REQUESTOR_HONEST, deviation))
            if outcome.node_payoff >= honest.node_payoff:
                report.violations.append(
                    f"draw {report.draws}: node {deviation} "
                    f"({outcome.node_payoff}) not dominated by honest "
                    f"({honest.node_payoff})"
                )
            if outcome.node_payoff >= 0:
                report.violations.append(
                    f"draw {report.draws}: cheating node {deviation} "
                    f"did not lose funds ({outcome.node_payoff})"
                )
    return report


# ----------------------------------------------------------------------
# gas and latency reports


@dataclass(frozen=True)
class GasReport:
    tier: str
    per_function_gas: dict[str, int]
    total_per_task_gas: int
    gas_price: int
    per_function_cost_wei: dict[str, int]
    total_per_task_cost_wei: int

    def to_json_obj(self) -> dict:
        return {
            "tier": self.tier,
            "perFunctionGas": dict(self.per_function_gas),
            "totalPerTaskGas": self.total_per_task_gas,
            "gasPriceWei": self.gas_price,
            "perFunctionCostWei": dict(self.per_function_cost_wei),
            "totalPerTaskCostWei": self.total_per_task_cost_wei,
            "totalPerTaskCostEther": self.total_per_task_cost_wei / 10**18,
        }

    def to_text_table(self) -> str:
        names = list(self.per_function_gas)
        width = max(len(n) for n in names + ["Total per task"])
        lines = [f"{'Function'.ljust(width)}  {'Gas':>9}  {'Cost (wei)':>22}"]
        for name in names:
            lines.append(
                f"{name.ljust(width)}  {self.per_function_gas[name]:>9}  "
                f"{self.per_function_cost_wei[name]:>22}"
            )
        lines.append(
            f"{'Total per task'.ljust(width)}  {self.total_per_task_gas:>9}  "
            f"{self.total_per_task_cost_wei:>22}"
        )
        return "\n".join(lines)


def gas_report(tier: str, schedule: GasSchedule | None = None) -> GasReport:
    schedule = schedule or GasSchedule()
    price = schedule.gas_price_per_tier[tier]
    per_function = dict(schedule.per_function)
    per_cost = {name: gas * price for name, gas in per_function.items()}
    total_gas = schedule.total_per_task_gas
    return GasReport(
        tier=tier,
        per_function_gas=per_function,
        total_per_task_gas=total_gas,
        gas_price=price,
        per_function_cost_wei=per_cost,
        total_per_task_cost_wei=total_gas * price,
    )


@dataclass(frozen=True)
class LatencyReport:
    tier: str
    confirmation_delay: int
    on_chain_seconds: int
    execution_delay: int
    total_seconds: int

    def to_json_obj(self) -> dict:
        return {
            "tier": self.tier,
            "confirmationDelaySeconds": self.confirmation_delay,
            "onChainSeconds": self.on_chain_seconds,
            "executionDelaySeconds": self.execution_delay,
            "totalSeconds": self.total_seconds,
        }


def latency_report(tier: str,
                   config: ScenarioConfig | None = None) -> LatencyReport:
    """End-to-end honest-run latency: four sequential confirmations (one
    per contract call) plus the configured execution delay."""
    config = config or ScenarioConfig()
    config = replace(config, tier=tier,
                     requestor_strategy=REQUESTOR_HONEST,
                     node_strategy=NODE_HONEST)
    outcome = run_scenario(config)
    schedule = config.gas_schedule()
    return LatencyReport(
        tier=tier,
        confirmation_delay=schedule.confirmation_delay_per_tier[tier],
        on_chain_seconds=outcome.end_to_end_seconds - config.execution_delay,
        execution_delay=config.execution_delay,
        total_seconds=outcome.end_to_end_seconds,
    )
