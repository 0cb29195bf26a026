"""Simulated trusted execution environment on the execution node's host.

An enclave instance walks the state machine

    Created -> Attested -> Provisioned -> Executed -> Destroyed

The information-flow ledger records each task value the untrusted host is
granted that it may not hold.  It is the mechanism behind the simulator's
confidentiality claims: the untrusted host is never granted the task
inputs, the result-encryption key or the plaintext result, and is granted
the task secret only when execution releases it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import crypto
from .crypto import ProtectedResult, ResultKeyPair
from .streams import ByteStream

REQUESTOR = "requestor"
NODE_HOST = "node-host"


class EnclaveError(Exception):
    pass


class UnknownFunction(EnclaveError):
    pass


class MeasurementMismatch(EnclaveError):
    pass


class StaleNonce(EnclaveError):
    pass


class NotAttested(EnclaveError):
    pass


class WrongPrincipal(EnclaveError):
    pass


class BadState(EnclaveError):
    """Call does not fit the instance's current lifecycle state."""


class ExecutionFault(EnclaveError):
    """The measured function body raised; the task cannot be finalized."""


# ----------------------------------------------------------------------
# information flow


#: A task's values the node host may never be granted (the secret only
#: once the task has executed), in the order ``violations`` lists them.
HOST_LEAKS = ("inputs", "enc-key", "result", "secret")


class InfoFlowLedger:
    """The task values granted to the node host that it may not hold,
    keyed by task id."""

    def __init__(self) -> None:
        self._executed: set[int] = set()
        self._leaks: set[tuple[int, int]] = set()  # (task id, HOST_LEAKS index)

    def snapshot(self) -> tuple:
        """The executed tasks and the leaks, as order-free values."""
        return frozenset(self._executed), frozenset(self._leaks)

    def restore(self, state: tuple) -> None:
        self._executed, self._leaks = map(set, state)

    def executed(self, task_id: int) -> None:
        self._executed.add(task_id)

    def grant(self, task_id: int, name: str) -> None:
        """The host is handed task ``task_id``'s value ``name``, one of
        ``HOST_LEAKS``: a leak, unless it is the secret of a task that has
        already executed."""
        if name != "secret" or task_id not in self._executed:
            self._leaks.add((task_id, HOST_LEAKS.index(name)))

    def violations(self) -> tuple[str, ...]:
        """Each leak, by task id and then in ``HOST_LEAKS`` order."""
        if not self._leaks:  # every run reads it
            return ()
        return tuple(
            f"{NODE_HOST} saw task{task_id}:{HOST_LEAKS[index]}"
            + (" before execution" if HOST_LEAKS[index] == "secret" else "")
            for task_id, index in sorted(self._leaks))


# ----------------------------------------------------------------------
# function images


@dataclass(frozen=True)
class FunctionImage:
    """A measured, deterministic function the node can instantiate."""

    name: str
    version: str
    body_id: str
    body: object  # callable inputs -> result, excluded from the measurement hash
    resource_cost: int

    def __post_init__(self) -> None:
        # The hash of the three measured fields, taken once per image.
        object.__setattr__(self, "_measurement", crypto.sha256_digest(
            crypto.canonical_json_bytes({
                "name": self.name,
                "bodyId": self.body_id,
                "version": self.version,
            })))

    @property
    def measurement(self) -> bytes:
        return self._measurement


def _body_sum(inputs):
    return sum(inputs)


def _body_sha256_hex(inputs):
    return crypto.sha256_digest(crypto.canonical_json_bytes(inputs)).hex()


BUILTIN_BODIES = {
    "identity": lambda inputs: inputs,
    "sum": _body_sum,
    "sha256-hex": _body_sha256_hex,
}


# ----------------------------------------------------------------------
# instances


class EnclaveState(str, Enum):
    CREATED = "Created"
    ATTESTED = "Attested"
    PROVISIONED = "Provisioned"
    EXECUTED = "Executed"
    DESTROYED = "Destroyed"


class Provisioned(NamedTuple):
    """What an instance is provisioned with: a value, which a snapshot of
    the node holding the instance shares."""

    secret: bytes
    inputs: object
    result_keys: ResultKeyPair


@dataclass(slots=True)
class EnclaveInstance:
    instance_id: int
    image: FunctionImage
    state: EnclaveState = EnclaveState.CREATED
    channel_requestor: str | None = None
    channel_binding_key: bytes = b""
    provisioned: Provisioned | None = None
    task_id: int = -1  # the task it runs, set at provision


class EnclaveHost:
    """The untrusted host process managing enclave instances on one node.

    The host drives the lifecycle but, per the information-flow ledger,
    never reads provisioned material; the only value it receives in clear
    is the secret released at execution time.
    """

    def __init__(self, images: dict[str, FunctionImage], flow: InfoFlowLedger,
                 rng: ByteStream) -> None:
        self.images = images  # the instantiable images, keyed by name
        self.flow = flow
        # Drawn from at attestation and execution only, so a run that never
        # attests never seeds a generator for it.
        self.rng = rng
        self.resource_consumed = 0
        self._instance_counter = 0
        self._seen_nonces: set[bytes] = set()

    def snapshot(self) -> tuple:
        """Instances made, resource consumed, nonces seen, stream position."""
        return (self._instance_counter, self.resource_consumed,
                frozenset(self._seen_nonces), self.rng.pos)

    def restore(self, state: tuple) -> None:
        (self._instance_counter, self.resource_consumed, nonces,
         self.rng.pos) = state
        self._seen_nonces = set(nonces)

    # -- lifecycle ------------------------------------------------------

    def instantiate(self, function_name: str) -> EnclaveInstance:
        try:
            image = self.images[function_name]
        except KeyError:
            raise UnknownFunction(function_name) from None
        self._instance_counter += 1
        return EnclaveInstance(instance_id=self._instance_counter, image=image)

    def attest(self, instance: EnclaveInstance, expected_measurement: bytes,
               nonce: bytes, requestor: str = REQUESTOR) -> None:
        """Verify the instance against the requestor's expected measurement.

        On success the instance is Attested and the secure channel is bound
        to the verifying requestor principal.
        """
        if instance.state is not EnclaveState.CREATED:
            raise BadState(f"attest in state {instance.state.value}")
        if nonce in self._seen_nonces:
            raise StaleNonce(nonce.hex())
        self._seen_nonces.add(nonce)
        if instance.image.measurement != expected_measurement:
            raise MeasurementMismatch(
                f"enclave reports {instance.image.measurement.hex()}, "
                f"expected {expected_measurement.hex()}"
            )
        instance.state = EnclaveState.ATTESTED
        instance.channel_requestor = requestor
        instance.channel_binding_key = self.rng.randbytes(32)

    def provision(self, instance: EnclaveInstance, requestor: str,
                  secret: bytes, inputs: object,
                  result_keys: ResultKeyPair, task_id: int) -> None:
        if instance.state is not EnclaveState.ATTESTED:
            raise NotAttested(f"provision in state {instance.state.value}")
        if requestor != instance.channel_requestor:
            raise WrongPrincipal(requestor)
        instance.provisioned = Provisioned(
            secret=secret, inputs=inputs, result_keys=result_keys
        )
        instance.task_id = task_id
        instance.state = EnclaveState.PROVISIONED

    def execute(self, instance: EnclaveInstance) -> tuple[ProtectedResult, bytes]:
        """Run the measured body; release (protected result, clear secret).

        The secret goes to the host in clear: it is about to be published
        on-chain anyway.  The plaintext result and the encryption key never
        leave the enclave.
        """
        if instance.state is not EnclaveState.PROVISIONED:
            raise BadState(f"execute in state {instance.state.value}")
        data = instance.provisioned
        assert data is not None
        # A result canonical JSON cannot hold is the body's fault too.
        try:
            result = instance.image.body(data.inputs)
            encoded = crypto.canonical_json_bytes(result)
        except Exception as exc:
            raise ExecutionFault(str(exc)) from exc
        protected = crypto.protect_result(encoded, data.result_keys, self.rng)
        self.resource_consumed += instance.image.resource_cost
        instance.state = EnclaveState.EXECUTED
        self.flow.executed(instance.task_id)
        self.flow.grant(instance.task_id, "secret")
        return protected, data.secret

    def destroy(self, instance: EnclaveInstance) -> None:
        instance.provisioned = None
        instance.state = EnclaveState.DESTROYED
