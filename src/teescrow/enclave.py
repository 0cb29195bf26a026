"""Simulated trusted execution environment on the execution node's host.

An enclave instance walks the state machine

    Created -> Attested -> Provisioned -> Executed -> Destroyed

The information-flow ledger records which principal is granted which value
at which step.  It is the mechanism behind the simulator's confidentiality
claims: the untrusted host is never granted the task inputs, the
result-encryption key or the plaintext result, and is granted the task
secret only when execution releases it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


class InfoFlowLedger:
    """First grant step per principal and label, with a monotone step
    counter."""

    def __init__(self) -> None:
        self._first_seen: dict[str, dict[str, int]] = {}
        self._marks: dict[str, int] = {}
        self._step = 0

    def _tick(self) -> int:
        self._step += 1
        return self._step

    def grant(self, label: str, principal: str) -> None:
        step = self._tick()
        self._first_seen.setdefault(principal, {}).setdefault(label, step)

    def mark(self, name: str) -> None:
        self._marks[name] = self._tick()

    def mark_step(self, name: str) -> int | None:
        return self._marks.get(name)

    def granted_to(self, principal: str) -> dict[str, int]:
        """Every label ``principal`` was granted, with its first grant's
        step."""
        return dict(self._first_seen.get(principal, {}))


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


class FunctionStore:
    """The node's store of instantiable images, keyed by name."""

    def __init__(self) -> None:
        self._images: dict[str, FunctionImage] = {}

    def register(self, image: FunctionImage) -> None:
        self._images[image.name] = image

    def get(self, name: str) -> FunctionImage:
        try:
            return self._images[name]
        except KeyError:
            raise UnknownFunction(name) from None

    def measurement_of(self, name: str) -> bytes:
        return self.get(name).measurement


# ----------------------------------------------------------------------
# instances


class EnclaveState(str, Enum):
    CREATED = "Created"
    ATTESTED = "Attested"
    PROVISIONED = "Provisioned"
    EXECUTED = "Executed"
    DESTROYED = "Destroyed"


@dataclass(slots=True)
class Provisioned:
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
    label_prefix: str = ""  # namespace for info-flow labels, set at provision


class EnclaveHost:
    """The untrusted host process managing enclave instances on one node.

    The host drives the lifecycle but, per the information-flow ledger,
    never reads provisioned material; the only value it receives in clear
    is the secret released at execution time.
    """

    def __init__(self, store: FunctionStore, flow: InfoFlowLedger,
                 rng: ByteStream) -> None:
        self.store = store
        self.flow = flow
        # Drawn from at attestation and execution only, so a run that never
        # attests never seeds a generator for it.
        self.rng = rng
        self.resource_consumed = 0
        self._instance_counter = 0
        self._seen_nonces: set[bytes] = set()

    # -- lifecycle ------------------------------------------------------

    def instantiate(self, function_name: str) -> EnclaveInstance:
        image = self.store.get(function_name)
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
                  result_keys: ResultKeyPair,
                  label_prefix: str) -> None:
        if instance.state is not EnclaveState.ATTESTED:
            raise NotAttested(f"provision in state {instance.state.value}")
        if requestor != instance.channel_requestor:
            raise WrongPrincipal(requestor)
        instance.provisioned = Provisioned(
            secret=secret, inputs=inputs, result_keys=result_keys
        )
        instance.label_prefix = label_prefix
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
        self.flow.mark(f"{instance.label_prefix}:executed")
        self.flow.grant(f"{instance.label_prefix}:secret", NODE_HOST)
        return protected, data.secret

    def destroy(self, instance: EnclaveInstance) -> None:
        instance.provisioned = None
        instance.state = EnclaveState.DESTROYED
