from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import record_grants

from teescrow import crypto
from teescrow.enclave import (
    BUILTIN_BODIES,
    HOST_LEAKS,
    REQUESTOR,
    BadState,
    EnclaveHost,
    EnclaveState,
    ExecutionFault,
    FunctionImage,
    InfoFlowLedger,
    MeasurementMismatch,
    NotAttested,
    StaleNonce,
    WrongPrincipal,
)


#: The host's one image, and another whose measurement attestation refuses.
IMAGES = {name: FunctionImage(name, "1", name, BUILTIN_BODIES[name], cost)
          for name, cost in (("identity", 3), ("sum", 5))}


@pytest.fixture
def host():
    return EnclaveHost(IMAGES["identity"], InfoFlowLedger(), random.Random(0))


def measurement(name):
    return IMAGES[name].measurement


def provisioning_material(seed=0):
    rng = random.Random(seed)
    return crypto.generate_secret(rng), [1, 2, 3], crypto.new_result_keys(rng)


def attested(host, requestor=REQUESTOR):
    instance = host.instantiate()
    expected = host.image.measurement
    host.attest(instance, expected, host.rng.randbytes(16),
                requestor=requestor)
    return instance


def provisioned(host, seed=0):
    instance = attested(host)
    secret, inputs, keys = provisioning_material(seed)
    host.provision(instance, REQUESTOR, secret, inputs, keys,
                   task_id=0)
    return instance, secret, inputs, keys


# ----------------------------------------------------------------------
# instantiate / attest


def test_instantiate_twice_same_measurement(host):
    a = host.instantiate()
    b = host.instantiate()
    assert a is not b
    assert (a.instance_id, b.instance_id) == (1, 2)
    assert a.image.measurement == b.image.measurement
    assert a.image is b.image is host.image


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
    instance = host.instantiate()
    host.attest(instance, measurement("identity"), b"nonce-1")
    assert instance.state is EnclaveState.ATTESTED
    assert instance.channel_requestor == REQUESTOR
    assert len(instance.channel_binding_key) == 32


def test_attest_measurement_mismatch(host):
    instance = host.instantiate()
    with pytest.raises(MeasurementMismatch):
        host.attest(instance, measurement("sum"), b"nonce-1")
    assert instance.state is EnclaveState.CREATED


def test_attest_replayed_nonce(host):
    first = host.instantiate()
    expected = measurement("identity")
    host.attest(first, expected, b"nonce-1")
    second = host.instantiate()
    with pytest.raises(StaleNonce):
        host.attest(second, expected, b"nonce-1")
    assert second.state is EnclaveState.CREATED


# ----------------------------------------------------------------------
# provision / execute


def test_provision_before_attest(host):
    instance = host.instantiate()
    secret, inputs, keys = provisioning_material()
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR, secret, inputs, keys,
                       task_id=0)


def test_provision_wrong_principal(host):
    instance = attested(host)
    secret, inputs, keys = provisioning_material()
    with pytest.raises(WrongPrincipal):
        host.provision(instance, "somebody-else", secret, inputs, keys,
                       task_id=0)


def test_provisioned_values_hidden_from_host(host):
    grants = record_grants(host)
    provisioned(host)
    assert grants == []
    assert host.flow.violations() == ()


def first_grant_step_violations(calls):
    """The rule the ledger replaced, as its reference.

    Every call ticks a step counter.  A task's ``executed`` call records its
    step; a grant is kept at its first step per task and value.  Each
    granted value is a violation, except a secret first granted at or after
    its task's executed step.  Sorted by task, then ``HOST_LEAKS`` order.
    """
    step = 0
    first_seen, executed_at = {}, {}
    for call in calls:
        step += 1
        if call[0] == "executed":
            executed_at[call[1]] = step
        else:
            first_seen.setdefault(call[1:], step)
    violations = []
    for (task_id, name), seen in first_seen.items():
        label = f"task{task_id}:{name}"
        if name == "secret":
            if task_id in executed_at and seen >= executed_at[task_id]:
                continue
            label += " before execution"
        violations.append((task_id, HOST_LEAKS.index(name),
                           f"node-host saw {label}"))
    return tuple(text for _, _, text in sorted(violations))


_TASK_IDS = st.integers(min_value=0, max_value=3)


@given(st.lists(st.one_of(
    st.tuples(st.just("executed"), _TASK_IDS),
    st.tuples(st.just("grant"), _TASK_IDS, st.sampled_from(HOST_LEAKS)),
)))
def test_violations_follow_the_first_grant_step_rule(calls):
    # The host executes each task once: drop a task's later ``executed``.
    executed, once = set(), []
    for call in calls:
        if call[0] == "executed":
            if call[1] in executed:
                continue
            executed.add(call[1])
        once.append(call)
    flow = InfoFlowLedger()
    for kind, *args in once:
        getattr(flow, kind)(*args)
    assert flow.violations() == first_grant_step_violations(once)


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
    grants = record_grants(host)
    instance, *_ = provisioned(host)
    assert grants == []
    host.execute(instance)
    assert grants == [(0, "secret", EnclaveState.EXECUTED)]
    assert host.flow.violations() == ()


def test_execute_requires_provisioned_state(host):
    instance = attested(host)
    with pytest.raises(BadState):
        host.execute(instance)


def test_execution_fault_propagates(host):
    # A body that raises, and one whose result canonical JSON cannot hold.
    for body in (lambda _: 1 / 0, lambda _: {1, 2}):
        image = FunctionImage("boom", "1", "boom", body, 1)
        failing = EnclaveHost(image, InfoFlowLedger(), random.Random(0))
        instance = failing.instantiate()
        failing.attest(instance, image.measurement, b"n")
        secret, inputs, keys = provisioning_material()
        failing.provision(instance, REQUESTOR, secret, inputs, keys,
                          task_id=0)
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
                       task_id=0)


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
    expected = measurement("identity")
    with pytest.raises(BadState):
        host.attest(instance, expected, host.rng.randbytes(16))
    host.execute(instance)
    with pytest.raises(NotAttested):
        host.provision(instance, REQUESTOR, *provisioning_material(),
                       task_id=0)
    with pytest.raises(BadState):
        host.execute(instance)
    host.destroy(instance)
    assert instance.state is EnclaveState.DESTROYED
