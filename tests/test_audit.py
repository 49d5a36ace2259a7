"""Audit trails and the independent replay oracle."""

import random

import pytest

from consentledger import blocklog
from consentledger.audit import (
    ReplayMismatchError,
    TamperedLogError,
    audit_consumer,
    audit_individual,
    audit_watchdog,
    replay_check,
    replay_oracle,
)
from consentledger.blocklog import MemoryLogStore, parse_block, serialize_block, make_block
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.membership import population_registry
from consentledger.pipeline import PipelineConfig, Status, SyncLedger
from consentledger.transactions import (
    access_request,
    assign_role,
    grant_consent,
    revoke_consent,
    revoke_role,
)

DESIGN = WorldStateDesign.IWS


def _scripted_ledger():
    """i0 grants, i1 grants then revokes, c0 asks before and after role grant."""
    registry = population_registry(3)
    ledger = SyncLedger(DESIGN, registry, PipelineConfig(block_size=1))
    fact0 = ConsentFact("i0", "r0", "d0", "w0", "t0")
    fact1 = ConsentFact("i1", "r0", "d0", "w0", "t0")
    steps = [
        grant_consent("i0", fact0),
        grant_consent("i1", fact1),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),  # denied, no role yet
        assign_role("w0", "d0", "c0", "w0"),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),  # granted, i0 and i1
        revoke_consent("i1", fact1),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),  # granted, i0 only
        revoke_role("w0", "d0", "c0", "w0"),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),  # denied again
    ]
    # one step per submission so each endorses against the previous commit
    for step in steps:
        receipt = ledger.submit_one(step)
        assert receipt.status is Status.COMMITTED
    return ledger, registry


def test_individual_trail():
    ledger, _registry = _scripted_ledger()
    events = audit_individual(ledger.log.store, "i1")
    kinds = [e.kind for e in events]
    assert kinds == ["grant_consent", "access_grant", "revoke_consent"]
    assert "granted=true" in events[1].detail
    line = events[0].to_line()
    assert line.startswith(f"{events[0].height} {events[0].tx_id} grant_consent")

    events_i0 = audit_individual(ledger.log.store, "i0")
    kinds_i0 = [e.kind for e in events_i0]
    assert kinds_i0 == ["grant_consent", "access_grant", "access_grant"]


def test_consumer_trail_includes_denials():
    ledger, _registry = _scripted_ledger()
    events = audit_consumer(ledger.log.store, "c0")
    assert len(events) == 4
    granted = ["granted=true" in e.detail for e in events]
    assert granted == [False, True, True, False]
    assert audit_consumer(ledger.log.store, "c9") == []


def test_watchdog_trail():
    ledger, _registry = _scripted_ledger()
    events = audit_watchdog(ledger.log.store, "w0")
    assert [e.kind for e in events] == ["assign_role", "revoke_role"]
    assert audit_watchdog(ledger.log.store, "w9") == []


def test_audit_refuses_tampered_log():
    ledger, _registry = _scripted_ledger()
    records = list(ledger.log.store)
    target = len(records) // 2
    broken = bytearray(records[target])
    broken[-1] ^= 0x01
    tampered = MemoryLogStore()
    for index, record in enumerate(records):
        tampered.append(bytes(broken) if index == target else record)
    with pytest.raises(TamperedLogError) as excinfo:
        audit_individual(tampered, "i0")
    assert excinfo.value.height <= target


def test_replay_reproduces_state_and_answers():
    ledger, registry = _scripted_ledger()
    report = replay_check(ledger.log.store, ledger.state, registry=registry)
    assert report.clean()
    assert report.interpreted
    assert report.matches_state(ledger.state)
    assert report.committed == 9


def test_replay_random_history_all_designs():
    rng = random.Random(53)
    registry = population_registry(5)
    for design in (WorldStateDesign.IWS, WorldStateDesign.RWS, WorldStateDesign.ROWS):
        ledger = SyncLedger(design, registry, PipelineConfig(block_size=7))
        payloads = [assign_role("w0", "d0", "c0", "w0")]
        for _ in range(60):
            roll = rng.random()
            ind = f"i{rng.randrange(5)}"
            fact = ConsentFact(ind, f"r{rng.randrange(3)}", "d0", "w0", "t0")
            if roll < 0.45:
                payloads.append(grant_consent(ind, fact))
            elif roll < 0.7:
                payloads.append(revoke_consent(ind, fact))
            else:
                payloads.append(
                    access_request("c0", "c0", "d0", "w0", f"r{rng.randrange(3)}", "t0")
                )
        ledger.submit_batch(payloads)
        report = replay_check(ledger.log.store, ledger.state, registry=registry)
        assert report.clean() and report.interpreted


def test_replay_flags_rewritten_decision():
    """Re-sealing a block with a doctored access answer must not replay clean."""
    ledger, registry = _scripted_ledger()
    records = list(ledger.log.store)
    doctored = MemoryLogStore()
    prev_hash = None
    changed = False
    for index, record in enumerate(records):
        block = parse_block(record)
        txs = []
        for tx in block.transactions:
            if (
                not changed
                and tx.result is not None
                and tx.result.granted
                and tx.result.consenting_individuals == ("i0",)
            ):
                from dataclasses import replace

                doctored_result = replace(
                    tx.result, consenting_individuals=("i0", "i2")
                )
                tx = replace(tx, result=doctored_result)
                changed = True
            txs.append(tx)
        rebuilt = make_block(
            block.height,
            prev_hash if prev_hash is not None else block.prev_hash,
            tuple(txs),
            block.validity,
        )
        prev_hash = rebuilt.block_hash
        doctored.append(serialize_block(rebuilt))
    assert changed
    report = replay_oracle(doctored, registry=registry)
    assert report.access_mismatches
    with pytest.raises(ReplayMismatchError):
        replay_check(doctored, ledger.state, registry=registry)


def test_replay_flags_authorization_breach():
    ledger, _registry = _scripted_ledger()
    # a registry that no longer contains c0 makes the history unauthorized
    thin_registry = population_registry(3, n_watchdogs=1, n_consumers=0)
    report = replay_oracle(ledger.log.store, registry=thin_registry)
    assert report.authorization_failures


def test_replay_parses_each_block_once(monkeypatch):
    ledger, registry = _scripted_ledger()
    parsed = []
    original = blocklog.parse_block

    def counting(record):
        parsed.append(record)
        return original(record)

    monkeypatch.setattr(blocklog, "parse_block", counting)
    report = replay_check(ledger.log.store, ledger.state, registry=registry)
    assert report.blocks == len(ledger.log.store)
    assert parsed == list(ledger.log.store)
