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
from collections import namedtuple
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from itertools import count

from .actors import ExecutionNodeActor, RequestorActor, ThirdParty
from .config import (
    NODE_CLAIM_ONLY,
    NODE_HONEST,
    NODE_STRATEGIES,
    REQUESTOR_HONEST,
    REQUESTOR_STRATEGIES,
    REQUESTOR_WITHHOLD_INPUT,
    ConfigInvalid,
    ScenarioConfig,
)
from .contract import EscrowContract, TaskState
from .crypto import ProtectedResult, ResultKeyPair
from .enclave import (
    REQUESTOR,
    BUILTIN_BODIES,
    EnclaveError,
    EnclaveHost,
    EnclaveInstance,
    FunctionImage,
    InfoFlowLedger,
)
from .ledger import (
    CONTRACT_ACCOUNT,
    NULL_ACCOUNT,
    ContractCall,
    GasSchedule,
    Ledger,
    Receipt,
)
from .streams import ByteStream

PARTY_REQUESTOR = "requestor"
PARTY_NODE = "node"
PARTY_THIRD = "third-party"


# ----------------------------------------------------------------------
# trace


# ``Trace`` writes each line itself, exactly as ``crypto.CANONICAL_JSON``
# would: keys sorted, ints as ``str``, bytes as hex, strings quoted and
# escaped by ``_q`` (the encoder's own ASCII escaper).  A new key or record
# shape goes into its writer; the tests compare every line with
# ``json.dumps``.  Names from a fixed set (function, event kind, enclave op)
# are written unescaped.  The scenario line's config is the encoder's own
# output (the config's ``json_parts``), so a new config key needs no edit.
_q = json.encoder.encode_basestring_ascii
_BOOL = {True: "true", False: "false"}


def _int_map(mapping: dict[str, int]) -> str:
    """An object of integers with string keys."""
    if not mapping:
        return "{}"
    items = ",".join(f"{_q(key)}:{mapping[key]}" for key in sorted(mapping))
    return f"{{{items}}}"


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

    def result_delivery(self, task_id: int, key_id: str,
                        destination: str) -> None:
        self._lines.append(
            f'{{"destination":{_q(destination)},"keyId":{_q(key_id)},'
            f'"kind":"result-delivery","taskId":{task_id},'
            f'"type":"message"}}\n')

    def third_party_ack(self, task_id: int, signature_valid: bool) -> None:
        self._lines.append(
            f'{{"kind":"third-party-ack",'
            f'"signatureValid":{_BOOL[signature_valid]},'
            f'"taskId":{task_id},"type":"message"}}\n')

    def scenario(self, c: ScenarioConfig) -> None:
        head, middle, tail = c.json_parts
        self._lines.append(f'{{"config":{head}{_q(c.node_strategy)}{middle}'
                           f'{_q(c.requestor_strategy)}{tail},'
                           f'"type":"scenario"}}\n')

    def contract_state(self, contract: EscrowContract) -> None:
        # Task ids are keys, so they sort as strings: "10" before "2".  A
        # state is a str enum, so ``_q`` writes its value.
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
            f'"state":{_q(t.state)}}}'
            for task_id, t in sorted(
                (str(task_id), t) for task_id, t in contract.tasks.items()))
        self._lines.append(
            f'{{"state":{{"numTasks":{contract.num_tasks},"tasks":{{{tasks}}},'
            f'"threshold":{contract.threshold}}},"type":"contract_state"}}\n')

    def outcome(self, o: ScenarioOutcome) -> None:
        self._lines.append(
            f'{{"endToEndSeconds":{o.end_to_end_seconds},'
            f'"gasByParty":{_int_map(o.gas_by_party)},'
            f'"infoFlowViolations":[{",".join(map(_q, o.infoflow_violations))}],'
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


def _image(c: ScenarioConfig) -> FunctionImage:
    """The image of ``c``'s function, which every run of the family runs."""
    return FunctionImage(c.function_name, "1", c.function_name,
                         BUILTIN_BODIES[c.function_name], c.compute_cost)


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


#: A config family's state at a fork point: the six snapshots, the trace
#: lines after ``scenario``, the queued calls in order as (time, party,
#: handler, args) and the last receipt time.
_Fork = namedtuple("_Fork", "ledger contract requestor node host flow lines "
                            "pending last_receipt_time")


def _start(c: ScenarioConfig) -> _Fork:
    """The family's record before any step, where its first run resumes:
    each account holds ``initial_balance``, and the requestor's
    ``on_start`` is the one queued call."""
    return _Fork(((0, 0, c.initial_balance, c.initial_balance), 0, 0, 0, ()),
                 (0, ()), ((), False, 0, 0), ((), ()), (0, 0, frozenset(), 0),
                 (frozenset(), frozenset()), (),
                 ((0, "requestor", RequestorActor.on_start, ()),), 0)


class ScenarioRunner:
    """One deterministic protocol run for a single task.  It shares every
    step its config family's earlier runs played alike: when built, it
    picks the latest record (``_record``) of the family that it shares, or
    the family's start record, and builds its objects from it.  So a run
    hooked before ``run()`` needs a family of its own
    (``dataclasses.replace``)."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        family = config.family
        points = _FORK_POINTS[config.requestor_strategy, config.node_strategy]
        self._records, fork = [], family.share(_start, config)
        for point in points:  # a claimed point holds None until it is passed
            if point not in family:
                self._records.append(point)
            fork = family.setdefault(point, None) or fork
        self.ledger = Ledger(config.gas_schedule,
                             gas_charging=config.gas_charging)
        self.contract = EscrowContract(self.ledger, config.threshold)
        # The supply is the config's; run() checks the record against it.
        self.requestor_account = self.ledger.create_account(
            config.initial_balance)
        self.node_account = self.ledger.create_account(config.initial_balance)
        self.ledger.restore(fork.ledger)
        self.contract.restore(fork.contract)
        self.flow = InfoFlowLedger(fork.flow)
        image = family.share(_image, config)
        self.host = EnclaveHost({image.name: image}, self.flow,
                                ByteStream(f"{config.rng_seed}:host"),
                                fork.host)
        self.requestor = RequestorActor(
            config, ByteStream(f"{config.rng_seed}:requestor"),
            image.measurement, fork.requestor)
        self.node = ExecutionNodeActor(config, fork.node)
        self.third_party = ThirdParty()
        self.trace = Trace()
        self.trace.scenario(config)
        self.trace._lines += fork.lines
        # A heap of (time, seq, party, handler, args), each run as
        # party.step(self, handler, *args) at max(time, ledger clock).
        self._seq = count()  # equal times run in queue order
        self._queue = [(time, next(self._seq), getattr(self, role), h, args)
                       for time, role, h, args in fork.pending]  # a heap
        self._last_receipt_time = fork.last_receipt_time
        self._ran = False

    # ------------------------------------------------------------------

    def run(self) -> ScenarioOutcome:
        if self._ran:
            raise RuntimeError("a runner is single-use")
        self._ran = True
        queue, ledger = self._queue, self.ledger
        ledger.assert_conservation()  # the record's balances, the supply
        while queue:
            time, _, party, handler, args = heappop(queue)
            if handler is RequestorActor.on_expiry:
                task = self.contract.tasks.get(args[0])
                if task is None or task.state is TaskState.TIMED_OUT_DEAD:
                    continue
                if ledger.now < time:
                    self.trace.clock(time, f"expiry of task {args[0]}")
            if ledger.now < time:
                ledger.advance_time(time - ledger.now)
            party.step(self, handler, *args)
        return self._finish()

    def _queue_call(self, party, handler, *args, at: int | None = None):
        heappush(self._queue, (self.ledger.now if at is None else at,
                               next(self._seq), party, handler, args))

    # ------------------------------------------------------------------
    # The protocol steps the parties take.  Each applies at once, writes
    # its trace lines and queues the handler calls it produces.

    def submit(self, actor: RequestorActor | ExecutionNodeActor,
               call: ContractCall, value: int = 0) -> None:
        """Submit the call and queue only what a party acts on: the receipt
        if the sender's ``ON_RECEIPT`` names the call, each event the node's
        ``ON_EVENT`` names, and a new task's expiry at its deadline."""
        if actor is self.requestor:
            who, sender = PARTY_REQUESTOR, self.requestor_account
        else:
            who, sender = PARTY_NODE, self.node_account
        receipt = self.ledger.submit_transaction(
            sender, call, value, self.config.tier)
        self._last_receipt_time = receipt.timestamp
        self.trace.call(who, receipt)
        queue, now, seq = self._queue, receipt.timestamp, self._seq
        handler = actor.ON_RECEIPT.get(call.function)
        if handler is not None:
            heappush(queue, (now, next(seq), actor, handler, (receipt,)))
        for event in receipt.events:
            if event.kind == "TaskSubmitted":
                heappush(queue, (self.contract.tasks[event.task_id].deadline,
                                 next(seq), self.requestor,
                                 RequestorActor.on_expiry, (event.task_id,)))
            handler = self.node.ON_EVENT.get(event.kind)
            if handler is not None:
                heappush(queue, (now, next(seq), self.node, handler, (event,)))

    def claim(self, task_id: int) -> None:
        """Submit the node's claim with its deposit: a fork point."""
        self.submit(self.node, ContractCall("claimTask", {"task_id": task_id}),
                    self.config.node_deposit)
        if self._records:  # skips the call once nothing is left to record
            self._record(ScenarioRunner.claim)

    def instantiate(self, function_name: str, task_id: int) -> None:
        # A config names only built-in functions, and the host holds its
        # image, so instantiation cannot fail.
        instance = self.host.instantiate(function_name)
        self.trace.enclave("instantiate", instance)
        self._queue_call(self.requestor, RequestorActor.on_instance_created,
                         instance, task_id)

    def provision(self, instance: EnclaveInstance, task_id: int,
                  expected_measurement: bytes, nonce: bytes, secret: bytes,
                  inputs: object, result_keys: ResultKeyPair) -> None:
        """The attested session: attest, provision, execute; stops at the
        first enclave error and destroys the instance."""
        try:
            self.host.attest(instance, expected_measurement, nonce,
                             requestor=REQUESTOR)
        except EnclaveError as exc:
            self.trace.enclave_failed("attest", str(exc))
            self.destroy(instance)
            return
        self.trace.enclave("attest", instance)
        self.host.provision(instance, REQUESTOR, secret, inputs, result_keys,
                            task_id=task_id)
        self.trace.enclave("provision", instance)
        try:
            protected, secret = self.host.execute(instance)
        except EnclaveError as exc:
            # The instance holds the secret and inputs: it must not outlive
            # the failed session.
            self.trace.enclave_failed("execute", str(exc))
            self.destroy(instance)
            return
        self.trace.enclave("execute", instance)
        self._queue_call(self.node, ExecutionNodeActor.on_execution_done,
                         instance, task_id, protected, secret,
                         at=self.ledger.now + self.config.execution_delay)

    def deliver(self, task_id: int, protected: ProtectedResult,
                destination: str) -> None:
        self.trace.result_delivery(task_id, protected.key_id, destination)
        recipient = (self.third_party if destination == PARTY_THIRD
                     else self.requestor)
        self._queue_call(recipient, type(recipient).on_delivery, task_id,
                         protected)

    def destroy(self, instance: EnclaveInstance) -> None:
        self.host.destroy(instance)
        self.trace.enclave("destroy", instance)

    def acknowledge(self, task_id: int, signature_valid: bool) -> None:
        """The third party's ack of a delivered result, to the requestor."""
        self.trace.third_party_ack(task_id, signature_valid)
        self._queue_call(self.requestor, RequestorActor.on_third_party_ack,
                         task_id, signature_valid)

    def revealed(self, task_id: int) -> None:
        """Queue the node's decision after its accepted reveal: a fork
        point."""
        self._queue_call(self.node, ExecutionNodeActor.on_revealed, task_id)
        self._record(ScenarioRunner.revealed)

    def accept(self, task_id: int) -> None:
        """Queue the requestor's decision on a valid result: a fork point."""
        self._queue_call(self.requestor, RequestorActor.on_valid_result,
                         task_id)
        self._record(ScenarioRunner.accept)

    def _record(self, point) -> None:
        """Record the family's state at ``point`` if this run records it."""
        if point in self._records:
            self._records.remove(point)
            self.config.family[point] = _Fork(
                self.ledger.snapshot(), self.contract.snapshot(),
                self.requestor.snapshot(), self.node.snapshot(),
                self.host.snapshot(), self.flow.snapshot(),
                tuple(self.trace._lines[1:]),
                tuple((time, "node" if party is self.node else "requestor",
                       handler, args)
                      for time, _, party, handler, args in sorted(self._queue)),
                self._last_receipt_time)

    # ------------------------------------------------------------------

    def _finish(self) -> ScenarioOutcome:
        cfg, ledger = self.config, self.ledger
        gas_requestor = ledger.gas_cost_by_account.get(self.requestor_account, 0)
        gas_node = ledger.gas_cost_by_account.get(self.node_account, 0)
        requestor_delta = (ledger.balance(self.requestor_account)
                           - cfg.initial_balance)
        node_delta = ledger.balance(self.node_account) - cfg.initial_balance
        if not cfg.include_gas_in_payoffs:
            requestor_delta += gas_requestor
            node_delta += gas_node
        value_received = (cfg.value_of_result
                          if self.requestor.received_valid_result else 0)
        self.trace.contract_state(self.contract)
        trace_id = self.trace.content_id()
        # Its fields set at once: a frozen dataclass's __init__ pays for
        # object.__setattr__ on each.
        outcome = object.__new__(ScenarioOutcome)
        outcome.__dict__.update(
            requestor_payoff=requestor_delta + value_received,
            node_payoff=node_delta - self.host.resource_consumed,
            locked_in_contract=ledger.balance(CONTRACT_ACCOUNT),
            gas_by_party={"requestor": gas_requestor, "node": gas_node},
            trace_id=trace_id,
            received_valid_result=self.requestor.received_valid_result,
            resource_cost_consumed=self.host.resource_consumed,
            requestor_balance_delta=requestor_delta,
            node_balance_delta=node_delta,
            end_to_end_seconds=self._last_receipt_time,
            infoflow_violations=self.flow.violations(),
        )
        self.trace.outcome(outcome)
        return outcome


#: Each strategy pair's fork points, in the order its run passes them: the
#: node's claim, which every run plays alike; the node's reveal, if the
#: requestor provisions and the node executes; the confirm decision, if the
#: node is also honest.  The family's first run to pass each point records
#: it, or ``None`` if it never gets there.
_FORK_POINTS = {
    (r, n): (ScenarioRunner.claim,) + (
        () if n == NODE_CLAIM_ONLY or r == REQUESTOR_WITHHOLD_INPUT
        else (ScenarioRunner.revealed, ScenarioRunner.accept)
        if n == NODE_HONEST else (ScenarioRunner.revealed,))
    for r in REQUESTOR_STRATEGIES for n in NODE_STRATEGIES}


def run_scenario(config: ScenarioConfig) -> ScenarioOutcome:
    return ScenarioRunner(config).run()


# ----------------------------------------------------------------------
# payoff matrix and dominance


def payoff_matrix(
        config: ScenarioConfig) -> dict[tuple[str, str], ScenarioOutcome]:
    """The outcome of every (requestor strategy, node strategy) pair."""
    if not config.in_rational_regime:
        raise ConfigInvalid(
            "parameters outside the rational regime (need cost > 0, value - "
            "payment > g(submitTask) + g(finalizeRequestor), payment - cost > "
            "g(claimTask) + g(finalizeExecutionNode), threshold > "
            "g(finalizeRequestor) and 2 * confirmation delay + execution_delay"
            " <= expires, g(f) being f's gas cost if payoffs count gas)")
    return {(r, n): run_scenario(config.with_strategies(r, n))
            for r in REQUESTOR_STRATEGIES for n in NODE_STRATEGIES}


def dominance_check(cells: dict) -> list[str]:
    """The verdict on one payoff matrix's ``cells``: one message per
    violation, none when honesty strictly dominates every same-party
    deviation against an honest counterparty and the honest pair gives both
    parties a gain.  A requestor that skips confirmation may still gain
    outright when the result is valuable enough; that is allowed."""
    honest = cells[REQUESTOR_HONEST, NODE_HONEST]
    violations = []
    if honest.requestor_payoff <= 0 or honest.node_payoff <= 0:
        violations.append("honest/honest payoffs not both positive")
    for deviation in REQUESTOR_STRATEGIES[1:]:  # honest is first
        payoff = cells[deviation, NODE_HONEST].requestor_payoff
        if payoff >= honest.requestor_payoff:
            violations.append(
                f"requestor {deviation} ({payoff}) not dominated by honest "
                f"({honest.requestor_payoff})")
    for deviation in NODE_STRATEGIES[1:]:
        payoff = cells[REQUESTOR_HONEST, deviation].node_payoff
        if payoff >= honest.node_payoff:
            violations.append(
                f"node {deviation} ({payoff}) not dominated by honest "
                f"({honest.node_payoff})")
        if payoff >= 0:
            violations.append(
                f"cheating node {deviation} did not lose funds ({payoff})")
    return violations


# ----------------------------------------------------------------------
# gas and latency reports, as ``teescrow gas`` and ``teescrow latency``
# print them with ``--format json``


def gas_report(tier: str, schedule: GasSchedule | None = None) -> dict:
    """Each function's gas and its cost at ``tier``'s gas price, and the
    per-task totals."""
    schedule = schedule or GasSchedule()
    price = schedule.gas_price_per_tier[tier]
    total_gas = schedule.total_per_task_gas
    total_cost = total_gas * price
    return {
        "tier": tier,
        "perFunctionGas": dict(schedule.per_function),
        "totalPerTaskGas": total_gas,
        "gasPriceWei": price,
        "perFunctionCostWei": {name: gas * price
                               for name, gas in schedule.per_function.items()},
        "totalPerTaskCostWei": total_cost,
        "totalPerTaskCostEther": total_cost / 10**18,
    }


def latency_report(tier: str, config: ScenarioConfig | None = None) -> dict:
    """End-to-end honest-run latency: four sequential confirmations (one
    per contract call) plus the configured execution delay."""
    config = config or ScenarioConfig()
    config = replace(config, tier=tier,
                     requestor_strategy=REQUESTOR_HONEST,
                     node_strategy=NODE_HONEST)
    if not config.in_time:
        raise ConfigInvalid(f"the result arrives late at {tier}: need 2 * "
                            "confirmation delay + execution_delay <= expires")
    outcome = run_scenario(config)
    return {
        "tier": tier,
        "confirmationDelaySeconds":
            config.gas_schedule.confirmation_delay_per_tier[tier],
        "onChainSeconds": outcome.end_to_end_seconds - config.execution_delay,
        "executionDelaySeconds": config.execution_delay,
        "totalSeconds": outcome.end_to_end_seconds,
    }
