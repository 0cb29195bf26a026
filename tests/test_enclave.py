from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@given(name=st.text(), body_ids=st.lists(st.text(), min_size=2, max_size=2,
                                         unique=True), version=st.text())
def test_measurement_hashes_the_measured_fields(name, body_ids, version):
    # Two images that differ only in the body identifier, each built twice.
    for body_id in body_ids:
        expected = hashlib.sha256(crypto.canonical_json_bytes(
            {"name": name, "bodyId": body_id, "version": version})).digest()
        for _ in range(2):
            image = FunctionImage(name, version, body_id, None, 1)
            assert image.measurement == expected
    first, second = (FunctionImage(name, version, body_id, None, 1)
                     for body_id in body_ids)
    assert first.measurement != second.measurement


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
        host.provision(instance, REQUESTOR, secret, inputs, keys,
                       label_prefix="task0")


def test_provision_wrong_principal(host):
    instance = attested(host)
    secret, inputs, keys = provisioning_material()
    with pytest.raises(WrongPrincipal):
        host.provision(instance, "somebody-else", secret, inputs, keys,
                       label_prefix="task0")


def test_provisioned_values_hidden_from_host(host):
    provisioned(host)
    for label in ("task0:secret", "task0:inputs", "task0:enc-key"):
        assert label not in host.flow.granted_to(NODE_HOST)


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
    assert "task0:secret" not in host.flow.granted_to(NODE_HOST)
    host.execute(instance)
    seen = host.flow.granted_to(NODE_HOST).get("task0:secret")
    executed = host.flow.mark_step("task0:executed")
    assert seen is not None and executed is not None
    assert seen >= executed


def test_execute_requires_provisioned_state(host):
    instance = attested(host)
    with pytest.raises(BadState):
        host.execute(instance)


def test_execution_fault_propagates(host):
    # A body that raises, and one whose result canonical JSON cannot hold.
    for body in (lambda _: 1 / 0, lambda _: {1, 2}):
        store = FunctionStore()
        store.register(FunctionImage("boom", "1", "boom", body, 1))
        failing = EnclaveHost(store, InfoFlowLedger(), random.Random(0))
        instance = failing.instantiate("boom")
        failing.attest(instance, store.measurement_of("boom"), b"n")
        secret, inputs, keys = provisioning_material()
        failing.provision(instance, REQUESTOR, secret, inputs, keys,
                          label_prefix="task0")
        with pytest.raises(ExecutionFault):
            failing.execute(instance)


# ----------------------------------------------------------------------
# destroy


def test_destroy_then_provision_refused(host):
    instance = attested(host)
    host.destroy(instance)
    secret, inputs, keys = provisioning_material()
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR, secret, inputs, keys,
                       label_prefix="task0")


def test_destroy_erases_enclave_visibility(host):
    instance, *_ = provisioned(host)
    host.destroy(instance)
    assert instance.state is EnclaveState.DESTROYED
    assert instance.provisioned is None
    with pytest.raises(BadState):
        host.execute(instance)


# ----------------------------------------------------------------------
# lifecycle safety


def test_only_forward_sequences_accepted(host):
    instance, *_ = provisioned(host)
    expected = host.store.measurement_of("identity")
    with pytest.raises(BadState):
        host.attest(instance, expected, host.rng.randbytes(16))
    host.execute(instance)
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR, *provisioning_material(),
                       label_prefix="task0")
    with pytest.raises(BadState):
        host.execute(instance)
    host.destroy(instance)
    assert instance.state is EnclaveState.DESTROYED
