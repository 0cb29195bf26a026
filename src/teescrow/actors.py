"""Strategy-driven requestor and execution-node behaviours.

Actors are deterministic state machines that act by calling the runner
(``submit``, ``instantiate``, ``provision``, ``revealed``, ``deliver``,
``destroy``, ``acknowledge``, ``accept``), which applies the step at once
and queues the handler call it produces.  An actor never issues a
dependent chain call before the previous call's receipt has been handled.
The runner names each handler and delivers the call through the party's
``step``; it queues a receipt or an event for no one unless a table names
it.  The runner is passed in as ``run``, never kept, so a finished run
holds no reference cycle.

    handler                    party                   queued by
    on_start                   requestor               the run's start
    ON_RECEIPT[call function]  the sender              ``submit``
    ON_EVENT[event kind]       node                    ``submit``
    on_instance_created        requestor               ``instantiate``
    on_execution_done          node                    ``provision``
    on_revealed                node                    ``revealed``
    on_delivery                requestor, third party  ``deliver``
    on_third_party_ack         requestor               ``acknowledge``
    on_valid_result            requestor               ``accept``
    on_expiry                  requestor               the task's deadline

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

from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from . import crypto
from .config import (
    NODE_CLAIM_ONLY,
    NODE_HONEST,
    REQUESTOR_HONEST,
    REQUESTOR_WITHHOLD_INPUT,
    ScenarioConfig,
)
from .crypto import ProtectedResult, ResultKeyPair
from .enclave import EnclaveInstance
from .ledger import ContractCall, LedgerEvent, Receipt
from .streams import ByteStream

if TYPE_CHECKING:
    from .harness import ScenarioRunner


class _TaskKeys(NamedTuple):
    secret: bytes
    hash_lock: bytes
    result_keys: ResultKeyPair


class RequestorActor:
    """The requesting device: submits, attests, provisions, confirms."""

    def __init__(self, config: ScenarioConfig, rng: ByteStream,
                 expected_measurement: bytes) -> None:
        self.config = config
        self.rng = rng
        self.expected_measurement = expected_measurement
        self.received_valid_result = False
        self._keys_by_task: dict[int, _TaskKeys] = {}
        self.resubmits = 0
        # Read only after an accepted timeout, so lowering it before a run
        # to the number of resubmits that run made changes nothing.
        self.resubmit_limit = config.max_resubmits

    def snapshot(self) -> tuple:
        """What protocol steps write: not a hook's measurement or limit."""
        return (tuple(self._keys_by_task.items()), self.received_valid_result,
                self.resubmits, self.rng.pos)

    def restore(self, state: tuple) -> None:
        keys, self.received_valid_result, self.resubmits, self.rng.pos = state
        self._keys_by_task = dict(keys)

    def verify_key(self, task_id: int) -> bytes:
        """The public key that checks the signature on a task's result."""
        return self._keys_by_task[task_id].result_keys.verify_key

    def step(self, run: ScenarioRunner, handler, *args) -> None:
        handler(self, run, *args)

    # A single requestor driving a fresh contract gets sequential task ids,
    # so the ordinal of the submission doubles as the task id.
    def _submit_task(self, run: ScenarioRunner) -> None:
        ordinal = len(self._keys_by_task)
        secret = crypto.generate_secret(self.rng)
        keys = _TaskKeys(secret, crypto.hash_secret(secret),
                         crypto.new_result_keys(self.rng))
        self._keys_by_task[ordinal] = keys
        run.submit(self, ContractCall("submitTask", {
            "function_name": self.config.function_name,
            "hash_lock": keys.hash_lock,
            "expires": self.config.expires,
        }), self.config.payment + self.config.threshold)

    def on_start(self, run: ScenarioRunner) -> None:
        self._submit_task(run)

    def _on_timeout(self, run: ScenarioRunner, receipt: Receipt) -> None:
        if receipt.outcome.accepted and self.resubmits < self.resubmit_limit:
            # A resubmission always carries a fresh secret and hash.
            self.resubmits += 1
            self.received_valid_result = False
            self._submit_task(run)

    def on_instance_created(self, run: ScenarioRunner,
                            instance: EnclaveInstance, task_id: int) -> None:
        if self.config.requestor_strategy == REQUESTOR_WITHHOLD_INPUT:
            return
        keys = self._keys_by_task[task_id]
        run.provision(instance, task_id, self.expected_measurement,
                      self.rng.randbytes(16), keys.secret, self.config.inputs,
                      keys.result_keys)

    def on_delivery(self, run: ScenarioRunner, task_id: int,
                    protected: ProtectedResult) -> None:
        try:
            crypto.open_result(protected,
                               self._keys_by_task[task_id].result_keys)
        except crypto.CryptoError:
            # Bad delivery: fall through to the timeout path.
            return
        run.accept(task_id)

    def on_third_party_ack(self, run: ScenarioRunner, task_id: int,
                           signature_valid: bool) -> None:
        if signature_valid:
            run.accept(task_id)

    def on_expiry(self, run: ScenarioRunner, task_id: int) -> None:
        if not self.received_valid_result:
            run.submit(self, ContractCall("timeout", {"task_id": task_id}))

    def on_valid_result(self, run: ScenarioRunner, task_id: int) -> None:
        self.received_valid_result = True
        if self.config.requestor_strategy == REQUESTOR_HONEST:
            run.submit(self, ContractCall("finalizeRequestor",
                                          {"task_id": task_id}))

    #: Call function -> handler of its receipt; the runner drops the rest.
    ON_RECEIPT = {"timeout": _on_timeout}


class ExecutionNodeActor:
    """The executing node's untrusted host-side client."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self._function_by_task: dict[int, str] = {}
        self._done_by_task: dict[
            int, tuple[EnclaveInstance, ProtectedResult]] = {}

    _instance_values = attrgetter(*EnclaveInstance.__slots__)

    def snapshot(self) -> tuple:
        """The function of each task, and each executed instance the node
        holds as its field values, with its protected result."""
        return (tuple(self._function_by_task.items()),
                tuple((task_id, self._instance_values(instance), protected)
                      for task_id, (instance, protected)
                      in self._done_by_task.items()))

    def restore(self, state: tuple) -> None:
        functions, done = state
        self._function_by_task = dict(functions)
        self._done_by_task = {task_id: (EnclaveInstance(*fields), protected)
                              for task_id, fields, protected in done}

    def step(self, run: ScenarioRunner, handler, *args) -> None:
        handler(self, run, *args)

    def _on_task_submitted(self, run: ScenarioRunner,
                           event: LedgerEvent) -> None:
        self._function_by_task[event.task_id] = event.payload["functionName"]
        run.submit(self, ContractCall("claimTask", {"task_id": event.task_id}),
                   self.config.node_deposit)

    def _on_claimed(self, run: ScenarioRunner, receipt: Receipt) -> None:
        if (receipt.outcome.accepted
                and self.config.node_strategy != NODE_CLAIM_ONLY):
            task_id = receipt.call.args["task_id"]
            run.instantiate(self._function_by_task[task_id], task_id)

    def _on_finalized(self, run: ScenarioRunner, receipt: Receipt) -> None:
        if receipt.outcome.accepted:
            run.revealed(receipt.call.args["task_id"])

    def on_revealed(self, run: ScenarioRunner, task_id: int) -> None:
        instance, protected = self._done_by_task.pop(task_id)
        if self.config.node_strategy == NODE_HONEST:
            run.deliver(task_id, protected,
                        "third-party" if self.config.deliver_to_third_party
                        else "requestor")
        run.destroy(instance)

    def on_execution_done(self, run: ScenarioRunner,
                          instance: EnclaveInstance, task_id: int,
                          protected: ProtectedResult, secret: bytes) -> None:
        self._done_by_task[task_id] = instance, protected
        run.submit(self, ContractCall("finalizeExecutionNode",
                                      {"task_id": task_id, "secret": secret}))

    #: Event kind or call function -> handler; the runner drops the rest.
    ON_EVENT = {"TaskSubmitted": _on_task_submitted}
    ON_RECEIPT = {"claimTask": _on_claimed,
                  "finalizeExecutionNode": _on_finalized}


class ThirdParty:
    """The cloud endpoint a result can be delivered to instead: it checks
    the result's public signature and acks back to the requestor."""

    def step(self, run: ScenarioRunner, handler, *args) -> None:
        handler(self, run, *args)

    def on_delivery(self, run: ScenarioRunner, task_id: int,
                    protected: ProtectedResult) -> None:
        run.acknowledge(task_id, crypto.verify_result_signature(
            protected, run.requestor.verify_key(task_id)))
