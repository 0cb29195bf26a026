from __future__ import annotations

import dataclasses

import pytest
from conftest import flip_first_ciphertext_bit

from teescrow.config import ScenarioConfig
from teescrow.enclave import EnclaveState
from teescrow.harness import ScenarioRunner

CFG = ScenarioConfig(value_of_result=100, payment=10, compute_cost=3,
                     threshold=5, initial_balance=1000)


def run(requestor="honest", node="honest", **overrides):
    config = dataclasses.replace(
        CFG.with_strategies(requestor, node), **overrides)
    runner = ScenarioRunner(config)
    outcome = runner.run()
    return runner, outcome


def calls(runner):
    return [r["function"] for r in runner.trace.records
            if r["type"] == "call"]


def enclave_ops(runner):
    return [r["op"] for r in runner.trace.records if r["type"] == "enclave"]


def events(runner):
    return [r["kind"] for r in runner.trace.records if r["type"] == "event"]


def record_instances(runner):
    """Return a list that collects every enclave instance ``runner`` creates."""
    created = []
    instantiate = runner.host.instantiate

    def recording():
        created.append(instantiate())
        return created[-1]

    runner.host.instantiate = recording
    return created


def assert_enclave_erased(runner, created):
    """The session ends by destroying its one instance, which no longer
    holds task 0's secret or inputs."""
    assert enclave_ops(runner)[-1] == "destroy"
    [instance] = created
    assert instance.state is EnclaveState.DESTROYED
    assert instance.provisioned is None


def test_honest_run_call_sequence():
    runner, outcome = run()
    assert calls(runner) == ["submitTask", "claimTask",
                             "finalizeExecutionNode", "finalizeRequestor"]
    assert enclave_ops(runner) == ["instantiate", "attest", "provision",
                                   "execute", "destroy"]
    assert events(runner) == ["TaskSubmitted", "TaskClaimed", "TaskFinished"]
    assert outcome.received_valid_result
    assert runner.contract.tasks == {}


def test_no_confirm_skips_finalize_requestor():
    runner, outcome = run(requestor="no-confirm")
    assert calls(runner) == ["submitTask", "claimTask",
                             "finalizeExecutionNode"]
    assert outcome.received_valid_result
    # Payment and the requestor's deposit stay locked.
    assert outcome.locked_in_contract == CFG.payment + CFG.threshold


def test_withhold_input_never_provisions_then_times_out():
    runner, outcome = run(requestor="withhold-input")
    assert calls(runner) == ["submitTask", "claimTask", "timeout"]
    assert "attest" not in enclave_ops(runner)
    assert outcome.locked_in_contract == CFG.threshold + CFG.node_deposit


def test_claim_only_node_goes_silent():
    runner, outcome = run(node="claim-only")
    assert calls(runner) == ["submitTask", "claimTask", "timeout"]
    assert enclave_ops(runner) == []
    assert not outcome.received_valid_result


def test_compute_no_deliver_keeps_result():
    runner, outcome = run(node="compute-no-deliver")
    assert calls(runner) == ["submitTask", "claimTask",
                             "finalizeExecutionNode", "timeout"]
    timeout_record = [r for r in runner.trace.records
                      if r["type"] == "call"][-1]
    assert timeout_record["outcome"] == {"accepted": False,
                                         "reason": "AlreadyCompleted"}
    assert not any(r["type"] == "message" for r in runner.trace.records)
    assert not outcome.received_valid_result


def test_on_chain_outcome_identical_for_both_starvation_causes():
    # The contract cannot tell a node that will not execute from a
    # requestor that withholds the inputs; payoffs must coincide.
    _, withheld = run(requestor="withhold-input")
    _, silent = run(node="claim-only")
    assert withheld.requestor_payoff == silent.requestor_payoff
    assert withheld.node_payoff == silent.node_payoff
    assert withheld.locked_in_contract == silent.locked_in_contract


def test_wrong_measurement_stops_before_provision():
    runner = ScenarioRunner(CFG.with_strategies("honest", "honest"))
    runner.requestor.expected_measurement = bytes(32)
    created = record_instances(runner)
    outcome = runner.run()
    attest = [r for r in runner.trace.records if r["type"] == "enclave"][-2]
    assert attest["op"] == "attest" and attest["ok"] is False
    assert enclave_ops(runner) == ["instantiate", "attest", "destroy"]
    assert_enclave_erased(runner, created)
    assert calls(runner) == ["submitTask", "claimTask", "timeout"]
    timeout_record = [r for r in runner.trace.records
                      if r["type"] == "call"][-1]
    assert timeout_record["outcome"]["accepted"]
    assert (outcome.requestor_payoff, outcome.node_payoff) == (-5, -5)


def test_execution_fault_stops_before_finalize():
    runner = ScenarioRunner(dataclasses.replace(
        CFG, function_name="sum", inputs=["a", "b"]))
    created = record_instances(runner)
    outcome = runner.run()
    execute = [r for r in runner.trace.records if r["type"] == "enclave"][-2]
    assert execute["op"] == "execute" and execute["ok"] is False
    assert enclave_ops(runner) == ["instantiate", "attest", "provision",
                                   "execute", "destroy"]
    assert_enclave_erased(runner, created)
    assert calls(runner) == ["submitTask", "claimTask", "timeout"]
    assert not outcome.received_valid_result


def test_result_strict_json_cannot_hold_is_an_execution_fault():
    # Two finite inputs whose sum overflows to infinity: canonical JSON
    # refuses it, so no `Infinity` plaintext is delivered or accepted.
    runner = ScenarioRunner(dataclasses.replace(
        CFG, function_name="sum", inputs=(1e308, 1e308)))
    created = record_instances(runner)
    outcome = runner.run()
    execute = [r for r in runner.trace.records if r["type"] == "enclave"][-2]
    assert execute == {
        "detail": "Out of range float values are not JSON compliant",
        "ok": False, "op": "execute", "type": "enclave"}
    assert_enclave_erased(runner, created)
    assert calls(runner) == ["submitTask", "claimTask", "timeout"]
    assert not outcome.received_valid_result


def run_tampered(**overrides):
    """A run whose enclave result has its first ciphertext bit flipped."""
    config = dataclasses.replace(
        CFG.with_strategies("honest", "honest"), **overrides)
    runner = ScenarioRunner(config)
    flip_first_ciphertext_bit(runner)
    return runner, runner.run()


def test_tampered_delivery_is_not_confirmed():
    runner, outcome = run_tampered()
    assert not outcome.received_valid_result
    assert "finalizeRequestor" not in calls(runner)
    # Escalates to the timeout path, which the completed task refuses.
    assert calls(runner)[-1] == "timeout"
    assert outcome.requestor_payoff == -(CFG.payment + CFG.threshold)


def test_tampered_third_party_delivery_is_not_confirmed():
    runner, outcome = run_tampered(deliver_to_third_party=True)
    [ack] = [r for r in runner.trace.records
             if r["type"] == "message" and r["kind"] == "third-party-ack"]
    assert ack["signatureValid"] is False
    assert not outcome.received_valid_result
    assert "finalizeRequestor" not in calls(runner)
    timeout = [r for r in runner.trace.records if r["type"] == "call"][-1]
    assert timeout["function"] == "timeout"
    assert timeout["outcome"] == {"accepted": False,
                                  "reason": "AlreadyCompleted"}
    assert outcome.requestor_payoff == -(CFG.payment + CFG.threshold)


@pytest.mark.parametrize("third_party", [False, True])
def test_tamper_after_an_honest_run_still_fails_the_checks(third_party):
    """An honest run of the same config before it changes nothing: every
    check still runs on what is delivered."""
    honest, _ = run(deliver_to_third_party=third_party)
    assert calls(honest)[-1] == "finalizeRequestor"
    runner, outcome = run_tampered(deliver_to_third_party=third_party)
    assert not outcome.received_valid_result
    assert "finalizeRequestor" not in calls(runner)
    acks = [r["signatureValid"] for r in runner.trace.records
            if r["type"] == "message" and r["kind"] == "third-party-ack"]
    assert acks == ([False] if third_party else [])


def test_third_party_delivery_confirms_on_ack():
    runner, outcome = run(deliver_to_third_party=True)
    kinds = [r["kind"] for r in runner.trace.records
             if r["type"] == "message"]
    assert kinds == ["result-delivery", "third-party-ack"]
    assert calls(runner)[-1] == "finalizeRequestor"
    assert outcome.requestor_payoff == CFG.value_of_result - CFG.payment
    assert outcome.node_payoff == CFG.payment - CFG.compute_cost


def test_resubmission_uses_fresh_secret():
    runner, _ = run(node="claim-only", max_resubmits=1)
    submitted = [r for r in runner.trace.records
                 if r["type"] == "event" and r["kind"] == "TaskSubmitted"]
    assert len(submitted) == 2
    locks = {r["payload"]["hashLock"] for r in submitted}
    assert len(locks) == 2
    assert calls(runner).count("timeout") == 2


def test_actors_wait_for_confirmation_between_calls():
    runner, _ = run()
    heights = [r["blockHeight"] for r in runner.trace.records
               if r["type"] == "call"]
    assert heights == sorted(set(heights))


def test_unknown_strategy_rejected():
    with pytest.raises(Exception):
        run(requestor="chaotic-neutral")
