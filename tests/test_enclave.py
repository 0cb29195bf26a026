from __future__ import annotations

import json
import random

import pytest

from teescrow import crypto
from teescrow.enclave import (
    BUILTIN_BODIES,
    NODE_HOST,
    REQUESTOR,
    BadState,
    EnclaveHost,
    EnclaveState,
    ExecutionFault,
    FunctionImage,
    FunctionStore,
    InfoFlowLedger,
    MeasurementMismatch,
    NotAttested,
    StaleNonce,
    UnknownFunction,
    WrongPrincipal,
)


@pytest.fixture
def host():
    store = FunctionStore()
    for name, cost in (("identity", 3), ("sum", 5), ("sha256-hex", 7)):
        store.register(FunctionImage(name, "1", name, BUILTIN_BODIES[name],
                                     cost))
    return EnclaveHost(store, InfoFlowLedger(), random.Random(0))


def provisioning_material(seed=0):
    rng = random.Random(seed)
    return crypto.generate_secret(rng), [1, 2, 3], crypto.new_result_keys(rng)


def attested(host, name="identity", requestor=REQUESTOR):
    instance = host.instantiate(name)
    expected = host.store.measurement_of(name)
    host.attest(instance, expected, host.rng.randbytes(16),
                requestor=requestor)
    return instance


def provisioned(host, seed=0):
    instance = attested(host)
    secret, inputs, keys = provisioning_material(seed)
    host.provision(instance, REQUESTOR, secret, inputs, keys,
                   label_prefix="task0")
    return instance, secret, inputs, keys


# ----------------------------------------------------------------------
# instantiate / attest


def test_instantiate_twice_same_measurement(host):
    a = host.instantiate("identity")
    b = host.instantiate("identity")
    assert a is not b
    assert a.image.measurement == b.image.measurement


def test_instantiate_unknown_function(host):
    with pytest.raises(UnknownFunction):
        host.instantiate("nonexistent")


def test_measurement_tracks_body_identifier():
    image = FunctionImage("f", "1", "identity", lambda x: x, 1)
    changed = FunctionImage("f", "1", "sum", lambda x: x, 1)
    assert image.measurement != changed.measurement
    # Independent recomputation of the canonical-serialization hash.
    expected = crypto.sha256_digest(json.dumps(
        {"bodyId": "identity", "name": "f", "version": "1"},
        sort_keys=True, separators=(",", ":"),
    ).encode())
    assert image.measurement == expected


def test_attest_success_binds_channel(host):
    instance = host.instantiate("identity")
    host.attest(instance, host.store.measurement_of("identity"), b"nonce-1")
    assert instance.state is EnclaveState.ATTESTED
    assert instance.channel_requestor == REQUESTOR
    assert len(instance.channel_binding_key) == 32


def test_attest_measurement_mismatch(host):
    instance = host.instantiate("identity")
    with pytest.raises(MeasurementMismatch):
        host.attest(instance, host.store.measurement_of("sum"), b"nonce-1")
    assert instance.state is EnclaveState.CREATED


def test_attest_replayed_nonce(host):
    first = host.instantiate("identity")
    expected = host.store.measurement_of("identity")
    host.attest(first, expected, b"nonce-1")
    second = host.instantiate("identity")
    with pytest.raises(StaleNonce):
        host.attest(second, expected, b"nonce-1")
    assert second.state is EnclaveState.CREATED


# ----------------------------------------------------------------------
# provision / execute


def test_provision_before_attest(host):
    instance = host.instantiate("identity")
    secret, inputs, keys = provisioning_material()
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR, secret, inputs, keys)


def test_provision_wrong_principal(host):
    instance = attested(host)
    secret, inputs, keys = provisioning_material()
    with pytest.raises(WrongPrincipal):
        host.provision(instance, "somebody-else", secret, inputs, keys)


def test_provisioned_values_hidden_from_host(host):
    provisioned(host)
    for label in ("task0:secret", "task0:inputs", "task0:enc-key"):
        assert NODE_HOST not in host.flow.visible(label)


def test_execute_identity_roundtrip(host):
    instance, secret, inputs, keys = provisioned(host)
    protected, released = host.execute(instance)
    assert released == secret
    assert json.loads(crypto.open_result(protected, keys)) == inputs


def test_released_secret_matches_hash_lock(host):
    instance, secret, _, _ = provisioned(host)
    _, released = host.execute(instance)
    assert crypto.hash_secret(released) == crypto.hash_secret(secret)


def test_resource_meter_charges_image_cost(host):
    instance, *_ = provisioned(host)
    before = host.resource_consumed
    host.execute(instance)
    assert host.resource_consumed == before + instance.image.resource_cost


def test_secret_reaches_host_only_at_execute(host):
    instance, *_ = provisioned(host)
    assert host.flow.first_seen("task0:secret", NODE_HOST) is None
    host.execute(instance)
    seen = host.flow.first_seen("task0:secret", NODE_HOST)
    executed = host.flow.mark_step("task0:executed")
    assert seen is not None and executed is not None
    assert seen >= executed


def test_execute_requires_provisioned_state(host):
    instance = attested(host)
    with pytest.raises(BadState):
        host.execute(instance)


def test_execution_fault_propagates(host):
    store = FunctionStore()
    store.register(FunctionImage("boom", "1", "boom",
                                 lambda _: 1 / 0, 1))
    failing = EnclaveHost(store, InfoFlowLedger(), random.Random(0))
    instance = failing.instantiate("boom")
    failing.attest(instance, store.measurement_of("boom"), b"n")
    secret, inputs, keys = provisioning_material()
    failing.provision(instance, REQUESTOR, secret, inputs, keys)
    with pytest.raises(ExecutionFault):
        failing.execute(instance)


# ----------------------------------------------------------------------
# destroy and restart


def test_destroy_then_provision_refused(host):
    instance = attested(host)
    host.destroy(instance)
    secret, inputs, keys = provisioning_material()
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR, secret, inputs, keys)


def test_destroy_erases_enclave_visibility(host):
    instance, *_ = provisioned(host)
    host.destroy(instance)
    assert instance.provisioned is None
    for label in host.flow.labels():
        assert instance.principal not in host.flow.visible(label)


def test_seal_restore_skips_reattestation(host):
    instance, secret, inputs, keys = provisioned(host)
    blob = host.seal_state(instance)
    host.destroy(instance)
    restarted = host.instantiate("identity")
    host.restore(restarted, blob)
    assert restarted.state is EnclaveState.PROVISIONED
    protected, released = host.execute(restarted)
    assert released == secret
    assert json.loads(crypto.open_result(protected, keys)) == inputs


def test_sealed_payload_format_and_restored_keys(host):
    instance, secret, inputs, keys = provisioned(host)
    blob = host.seal_state(instance)
    payload = json.loads(crypto.unseal(instance.image.measurement, blob))
    assert payload == {
        "secret": secret.hex(),
        "inputs": inputs,
        "requestor": REQUESTOR,
        "labelPrefix": "task0",
        "keys": {
            "encryptionKey": keys.encryption_key.hex(),
            "signingKeySeed": keys.signing_key_seed.hex(),
            "verifyKey": keys.verify_key.hex(),
            "keyId": keys.key_id,
        },
    }
    restarted = host.instantiate("identity")
    host.restore(restarted, blob)
    restored = restarted.provisioned.result_keys
    assert restored == keys
    assert restored.verify_key.hex() == payload["keys"]["verifyKey"]
    assert restored.key_id == payload["keys"]["keyId"]


def test_restore_rejects_other_image(host):
    instance, *_ = provisioned(host)
    blob = host.seal_state(instance)
    other = host.instantiate("sum")
    with pytest.raises(crypto.IdentityMismatch):
        host.restore(other, blob)


# ----------------------------------------------------------------------
# lifecycle safety


def test_only_forward_sequences_accepted(host):
    instance, *_ = provisioned(host)
    expected = host.store.measurement_of("identity")
    with pytest.raises(BadState):
        host.attest(instance, expected, host.rng.randbytes(16))
    host.execute(instance)
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR,
                       *provisioning_material())
    with pytest.raises(BadState):
        host.execute(instance)
    host.destroy(instance)
    assert instance.state is EnclaveState.DESTROYED
