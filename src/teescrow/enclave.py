"""Simulated trusted execution environment on the execution node's host.

An enclave instance walks the state machine

    Created -> Attested -> Provisioned -> Executed -> Destroyed

with sealing/unsealing as the restart shortcut: a Provisioned instance can
seal its state to a measurement-bound blob, and a fresh instance of the
same image can restore from it without a new attestation.

The information-flow ledger records which principal can see which value at
which step.  It is the mechanism behind the simulator's confidentiality
claims: the untrusted host never appears in the visibility set of the
result-encryption key or the plaintext result, and sees the task secret
only when execution releases it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum

from . import crypto
from .crypto import ProtectedResult, ResultKeyPair, SealedBlob

REQUESTOR = "requestor"
NODE_HOST = "node-host"


def enclave_principal(instance_id: int) -> str:
    return f"enclave:{instance_id}"


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
    """Visibility sets per labelled value, with a monotone step counter."""

    def __init__(self) -> None:
        self._visibility: dict[str, set[str]] = {}
        self._first_seen: dict[tuple[str, str], int] = {}
        self._marks: dict[str, int] = {}
        self._step = 0

    def _tick(self) -> int:
        self._step += 1
        return self._step

    def grant(self, label: str, principal: str) -> None:
        step = self._tick()
        self._visibility.setdefault(label, set()).add(principal)
        self._first_seen.setdefault((label, principal), step)

    def mark(self, name: str) -> None:
        self._marks[name] = self._tick()

    def mark_step(self, name: str) -> int | None:
        return self._marks.get(name)

    def visible(self, label: str) -> frozenset[str]:
        return frozenset(self._visibility.get(label, ()))

    def first_seen(self, label: str, principal: str) -> int | None:
        return self._first_seen.get((label, principal))

    def ever_seen(self, label: str, principal: str) -> bool:
        return (label, principal) in self._first_seen

    def erase_principal(self, principal: str) -> None:
        """Drop a principal's live access (its copies are destroyed)."""
        for holders in self._visibility.values():
            holders.discard(principal)

    def labels(self) -> list[str]:
        return sorted(self._visibility)


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


@dataclass
class Provisioned:
    secret: bytes
    inputs: object
    result_keys: ResultKeyPair


@dataclass
class EnclaveInstance:
    instance_id: int
    image: FunctionImage
    state: EnclaveState = EnclaveState.CREATED
    channel_requestor: str | None = None
    channel_binding_key: bytes = b""
    provisioned: Provisioned | None = None
    label_prefix: str = ""  # namespace for info-flow labels, set at provision

    @property
    def principal(self) -> str:
        return enclave_principal(self.instance_id)


class EnclaveHost:
    """The untrusted host process managing enclave instances on one node.

    The host drives the lifecycle but, per the information-flow ledger,
    never reads provisioned material; the only value it receives in clear
    is the secret released at execution time.
    """

    def __init__(self, store: FunctionStore, flow: InfoFlowLedger,
                 rng: random.Random) -> None:
        self.store = store
        self.flow = flow
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
                  label_prefix: str | None = None) -> None:
        if instance.state is not EnclaveState.ATTESTED:
            raise NotAttested(f"provision in state {instance.state.value}")
        if requestor != instance.channel_requestor:
            raise WrongPrincipal(requestor)
        instance.provisioned = Provisioned(
            secret=secret, inputs=inputs, result_keys=result_keys
        )
        instance.label_prefix = label_prefix or instance.principal
        instance.state = EnclaveState.PROVISIONED
        for label in ("secret", "inputs", "enc-key"):
            self.flow.grant(f"{instance.label_prefix}:{label}", instance.principal)

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
        try:
            result = instance.image.body(data.inputs)
        except Exception as exc:
            raise ExecutionFault(str(exc)) from exc
        protected = crypto.protect_result(
            crypto.canonical_json_bytes(result), data.result_keys, self.rng
        )
        self.resource_consumed += instance.image.resource_cost
        instance.state = EnclaveState.EXECUTED
        self.flow.mark(f"{instance.label_prefix}:executed")
        self.flow.grant(f"{instance.label_prefix}:secret", NODE_HOST)
        self.flow.grant(f"{instance.label_prefix}:result", instance.principal)
        return protected, data.secret

    def destroy(self, instance: EnclaveInstance) -> None:
        instance.provisioned = None
        instance.state = EnclaveState.DESTROYED
        self.flow.erase_principal(instance.principal)

    # -- seal/restore restart path -------------------------------------

    def seal_state(self, instance: EnclaveInstance) -> SealedBlob:
        if instance.state is not EnclaveState.PROVISIONED:
            raise BadState(f"seal in state {instance.state.value}")
        data = instance.provisioned
        assert data is not None
        payload = crypto.canonical_json_bytes({
            "secret": data.secret.hex(),
            "inputs": data.inputs,
            "requestor": instance.channel_requestor,
            "labelPrefix": instance.label_prefix,
            "keys": {
                "encryptionKey": data.result_keys.encryption_key.hex(),
                "signingKeySeed": data.result_keys.signing_key_seed.hex(),
                "verifyKey": data.result_keys.verify_key.hex(),
                "keyId": data.result_keys.key_id,
            },
        })
        return crypto.seal(instance.image.measurement, payload, self.rng)

    def restore(self, instance: EnclaveInstance, blob: SealedBlob) -> None:
        """Unseal into a fresh instance, skipping a new attestation."""
        if instance.state is not EnclaveState.CREATED:
            raise BadState(f"restore in state {instance.state.value}")
        payload = json.loads(crypto.unseal(instance.image.measurement, blob))
        keys = payload["keys"]
        instance.provisioned = Provisioned(
            secret=bytes.fromhex(payload["secret"]),
            inputs=payload["inputs"],
            # The verify key and key id are derived again from the seed.
            result_keys=ResultKeyPair(
                encryption_key=bytes.fromhex(keys["encryptionKey"]),
                signing_key_seed=bytes.fromhex(keys["signingKeySeed"]),
            ),
        )
        instance.channel_requestor = payload["requestor"]
        instance.label_prefix = payload["labelPrefix"] or instance.principal
        instance.state = EnclaveState.PROVISIONED
        for label in ("secret", "inputs", "enc-key"):
            self.flow.grant(f"{instance.label_prefix}:{label}", instance.principal)
