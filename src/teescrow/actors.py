"""Strategy-driven requestor and execution-node behaviours.

Actors are deterministic state machines: the scheduler feeds them one
observation at a time and they answer with a list of protocol actions for
the scheduler to execute.  They never issue a dependent chain call before
the previous call's receipt has been observed.  Each actor's ``step`` looks
the observation's type up in one handler table and ignores any type the
table does not name.  The runner routes each message to one party:

    Start               requestor
    ledger.Receipt      the party that sent the transaction
    ledger.LedgerEvent  node (the requestor acts on no chain event)
    InstanceCreated     requestor
    ExecutionDone       node
    Deliver             its ``destination``: requestor or third party
    ThirdPartyAck       requestor
    Expiry              requestor

Honest behaviour follows the protocol sequence: the requestor generates a
secret, submits the task with payment + deposit, provisions the claimed
enclave (the runner attests it, provisions it and runs the function in one
session, since no party decides anything in between), and confirms once a
valid result arrives; the node claims, instantiates the enclave, reveals
the secret on-chain and delivers the result.  Deviations cut the sequence
short:

* ``no-confirm``   requestor keeps the result but never confirms;
* ``withhold-input``  requestor never provisions after the claim;
* ``claim-only``   node claims and goes silent;
* ``compute-no-deliver``  node recovers its deposit but keeps the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import crypto
from .config import (
    NODE_CLAIM_ONLY,
    NODE_HONEST,
    REQUESTOR_HONEST,
    REQUESTOR_WITHHOLD_INPUT,
    ScenarioConfig,
)
from .crypto import ProtectedResult, ResultKeyPair
from .enclave import REQUESTOR, EnclaveInstance, InfoFlowLedger
from .ledger import ContractCall, LedgerEvent, Receipt

# ----------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class Start:
    pass


@dataclass(frozen=True)
class InstanceCreated:
    instance: EnclaveInstance
    task_id: int


@dataclass(frozen=True)
class ExecutionDone:
    instance: EnclaveInstance
    task_id: int
    protected: ProtectedResult
    secret: bytes


@dataclass(frozen=True)
class ThirdPartyAck:
    task_id: int
    signature_valid: bool


@dataclass(frozen=True)
class Expiry:
    task_id: int


# ----------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class SubmitTx:
    call: ContractCall
    value: int = 0


@dataclass(frozen=True)
class Instantiate:
    function_name: str
    task_id: int


@dataclass(frozen=True)
class Provision:
    """Attest the instance, provision it and run the function."""

    instance: EnclaveInstance
    task_id: int
    expected_measurement: bytes
    nonce: bytes
    secret: bytes
    inputs: object
    result_keys: ResultKeyPair


@dataclass(frozen=True)
class Destroy:
    instance: EnclaveInstance


@dataclass(frozen=True)
class Deliver:
    task_id: int
    protected: ProtectedResult
    destination: str  # "requestor" or "third-party"


Action = object
Observation = object


# ----------------------------------------------------------------------


@dataclass
class _TaskKeys:
    secret: bytes
    hash_lock: bytes
    result_keys: ResultKeyPair


class RequestorActor:
    """The requesting device: submits, attests, provisions, confirms."""

    def __init__(self, config: ScenarioConfig, rng: random.Random,
                 flow: InfoFlowLedger,
                 measurement_allow_list: dict[str, bytes]) -> None:
        self.config = config
        self.rng = rng
        self.flow = flow
        self.allow_list = measurement_allow_list
        self.received_valid_result = False
        self._keys_by_task: dict[int, _TaskKeys] = {}
        self._resubmits_left = config.max_resubmits

    def verify_key(self, task_id: int) -> bytes:
        """The public key that checks the signature on a task's result."""
        return self._keys_by_task[task_id].result_keys.verify_key

    # A single requestor driving a fresh contract gets sequential task ids,
    # so the ordinal of the submission doubles as the info-flow prefix.
    def _prepare_task(self) -> _TaskKeys:
        ordinal = len(self._keys_by_task)
        secret = crypto.generate_secret(self.rng)
        keys = _TaskKeys(secret, crypto.hash_secret(secret),
                         crypto.new_result_keys(self.rng))
        self._keys_by_task[ordinal] = keys
        self.flow.grant(f"task{ordinal}:secret", REQUESTOR)
        self.flow.grant(f"task{ordinal}:enc-key", REQUESTOR)
        return keys

    def _submit_action(self) -> SubmitTx:
        keys = self._prepare_task()
        return SubmitTx(
            call=ContractCall("submitTask", {
                "function_name": self.config.function_name,
                "hash_lock": keys.hash_lock,
                "expires": self.config.expires,
            }),
            value=self.config.payment + self.config.threshold,
        )

    def step(self, obs: Observation) -> list[Action]:
        handler = self._HANDLERS.get(type(obs))
        return handler(self, obs) if handler else []

    def _on_start(self, obs: Start) -> list[Action]:
        return [self._submit_action()]

    def _on_receipt(self, receipt: Receipt) -> list[Action]:
        if (receipt.call.function == "timeout" and receipt.outcome.accepted
                and self._resubmits_left > 0):
            # A resubmission always carries a fresh secret and hash.
            self._resubmits_left -= 1
            self.received_valid_result = False
            return [self._submit_action()]
        return []

    def _on_instance_created(self, obs: InstanceCreated) -> list[Action]:
        if self.config.requestor_strategy == REQUESTOR_WITHHOLD_INPUT:
            return []
        keys = self._keys_by_task[obs.task_id]
        return [Provision(
            instance=obs.instance,
            task_id=obs.task_id,
            expected_measurement=self.allow_list[self.config.function_name],
            nonce=self.rng.randbytes(16),
            secret=keys.secret,
            inputs=self.config.inputs,
            result_keys=keys.result_keys,
        )]

    def _on_delivery(self, obs: Deliver) -> list[Action]:
        keys = self._keys_by_task[obs.task_id]
        try:
            crypto.open_result(obs.protected, keys.result_keys)
        except crypto.CryptoError:
            # Bad delivery: fall through to the timeout path.
            return []
        self.received_valid_result = True
        self.flow.grant(f"task{obs.task_id}:result", REQUESTOR)
        return self._maybe_confirm(obs.task_id)

    def _on_third_party_ack(self, obs: ThirdPartyAck) -> list[Action]:
        if not obs.signature_valid:
            return []
        self.received_valid_result = True
        return self._maybe_confirm(obs.task_id)

    def _on_expiry(self, obs: Expiry) -> list[Action]:
        if not self.received_valid_result:
            return [SubmitTx(ContractCall("timeout", {"task_id": obs.task_id}))]
        return []

    def _maybe_confirm(self, task_id: int) -> list[Action]:
        if self.config.requestor_strategy != REQUESTOR_HONEST:
            return []
        return [SubmitTx(ContractCall("finalizeRequestor", {"task_id": task_id}))]

    _HANDLERS = {
        Start: _on_start,
        Receipt: _on_receipt,
        InstanceCreated: _on_instance_created,
        Deliver: _on_delivery,
        ThirdPartyAck: _on_third_party_ack,
        Expiry: _on_expiry,
    }


class ExecutionNodeActor:
    """The executing node's untrusted host-side client."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self._function_by_task: dict[int, str] = {}
        self._done_by_task: dict[int, ExecutionDone] = {}

    def step(self, obs: Observation) -> list[Action]:
        handler = self._HANDLERS.get(type(obs))
        return handler(self, obs) if handler else []

    def _on_event(self, event: LedgerEvent) -> list[Action]:
        if event.kind != "TaskSubmitted":
            return []
        self._function_by_task[event.task_id] = event.payload["functionName"]
        return [SubmitTx(
            call=ContractCall("claimTask", {"task_id": event.task_id}),
            value=self.config.node_deposit,
        )]

    def _on_receipt(self, receipt: Receipt) -> list[Action]:
        if not receipt.outcome.accepted:
            return []
        task_id = receipt.call.args["task_id"]
        if receipt.call.function == "claimTask":
            if self.config.node_strategy == NODE_CLAIM_ONLY:
                return []
            return [Instantiate(
                function_name=self._function_by_task[task_id],
                task_id=task_id,
            )]
        if receipt.call.function == "finalizeExecutionNode":
            done = self._done_by_task[task_id]
            actions: list[Action] = []
            if self.config.node_strategy == NODE_HONEST:
                destination = (
                    "third-party" if self.config.deliver_to_third_party
                    else "requestor"
                )
                actions.append(Deliver(
                    task_id=task_id,
                    protected=done.protected,
                    destination=destination,
                ))
            actions.append(Destroy(done.instance))
            return actions
        return []

    def _on_execution_done(self, obs: ExecutionDone) -> list[Action]:
        self._done_by_task[obs.task_id] = obs
        return [SubmitTx(ContractCall("finalizeExecutionNode", {
            "task_id": obs.task_id,
            "secret": obs.secret,
        }))]

    _HANDLERS = {
        LedgerEvent: _on_event,
        Receipt: _on_receipt,
        ExecutionDone: _on_execution_done,
    }
