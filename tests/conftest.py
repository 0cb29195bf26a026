from __future__ import annotations

import dataclasses

import pytest

from teescrow.contract import EscrowContract
from teescrow.harness import ScenarioRunner
from teescrow.ledger import ContractCall, GasSchedule, Ledger, Receipt

THRESHOLD = 5


def zero_delay_schedule() -> GasSchedule:
    """Schedule whose confirmations are instant, so tests control `now`."""
    return GasSchedule(
        confirmation_delay_per_tier={"slow": 0, "standard": 0, "fast": 0}
    )


def call(ledger: Ledger, sender: bytes, function: str, value: int = 0,
         tier: str = "standard", **args):
    return ledger.submit_transaction(
        sender, ContractCall(function, args), value, tier
    )


@pytest.fixture
def chain():
    ledger = Ledger(zero_delay_schedule())
    contract = EscrowContract(ledger, threshold=THRESHOLD)
    return ledger, contract


@pytest.fixture
def funded(chain):
    ledger, contract = chain
    requestor = ledger.create_account(1000)
    node = ledger.create_account(1000)
    return ledger, contract, requestor, node


def run_claim_race(arrival_deposits: list[int], threshold: int = 5,
                   payment: int = 10) -> tuple[list[Receipt], EscrowContract, Ledger]:
    """Submit one task, then fire one claim per arrival in order.

    ``arrival_deposits[i]`` is the value the i-th claimant attaches.  Used
    to check first-claim exclusivity over seeded arrival permutations.
    """
    ledger = Ledger()
    contract = EscrowContract(ledger, threshold)
    requestor = ledger.create_account(10**6)
    receipt = ledger.submit_transaction(
        requestor,
        ContractCall("submitTask", {
            "function_name": "identity",
            "hash_lock": bytes(32),
            "expires": 10_000,
        }),
        payment + threshold, "standard",
    )
    task_id = receipt.outcome.task_id
    receipts = []
    for deposit in arrival_deposits:
        claimant = ledger.create_account(10**6)
        receipts.append(ledger.submit_transaction(
            claimant, ContractCall("claimTask", {"task_id": task_id}),
            deposit, "standard",
        ))
    return receipts, contract, ledger


def flip_first_ciphertext_bit(runner: ScenarioRunner) -> None:
    """The runner's enclave returns its result with one ciphertext bit
    flipped, so the delivery that carries it fails to open and verify."""
    execute = runner.host.execute

    def tampered(instance):
        protected, secret = execute(instance)
        return dataclasses.replace(
            protected,
            ciphertext=bytes([protected.ciphertext[0] ^ 1])
            + protected.ciphertext[1:],
        ), secret

    runner.host.execute = tampered
