"""Audit trails and the independent replay oracle."""

import random

import pytest

from consentledger import audit, blocklog
from consentledger.audit import (
    ReplayMismatchError,
    TamperedLogError,
    audit_consumer,
    audit_individual,
    audit_watchdog,
    iter_committed,
    replay_check,
    replay_oracle,
)
from consentledger.blocklog import MemoryLogStore, parse_block, serialize_block, make_block
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.membership import population_registry
from consentledger.pipeline import PipelineConfig, Status, SyncLedger
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    PayloadKind,
    access_request,
    assign_role,
    grant_consent,
    revoke_consent,
    revoke_role,
)
from consentledger.worldstate import digest_entries

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
        receipt = ledger.run([[step]]).receipts[0]
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
        ledger.run([payloads])
        report = replay_check(ledger.log.store, ledger.state, registry=registry)
        assert report.clean() and report.interpreted


def _preloaded_ledger(design):
    """A partial preload grid, one role grant and one consent grant."""
    spec = PreloadSpec(
        design,
        n_individuals=3,
        n_resources=4,
        n_roles=3,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=7,
        value_space=2,
    )
    registry = population_registry(3)
    ledger = SyncLedger(design, registry)
    ledger.bootstrap(spec, [assign_role("w0", "d0", "c0", "w0")])
    fact = ConsentFact("i2", "r3", "d2", "w0", "t0")
    assert ledger.run([[grant_consent("i2", fact)]]).receipts[0].status is Status.COMMITTED
    return ledger, registry


def _first_key(state):
    return next(key for key, _entry in state.items())


def _remove_key(state):
    del state._entries[_first_key(state)]


def _add_key(state):
    state.apply_write("extra|w0|d0|t0", frozenset({"i0"}))


def _move_key(state):
    # same key count, so only the per-key comparison can catch it
    state._entries["extra|w0|d0|t0"] = state._entries.pop(_first_key(state))


def _bump_version(state):
    key = _first_key(state)
    state.apply_write(key, state._entries[key][0])


def _swap_value(state):
    key = _first_key(state)
    state._entries[key] = (frozenset({"i9"}), state._entries[key][1])


@pytest.mark.parametrize("design", list(WorldStateDesign), ids=lambda d: d.value)
def test_replay_check_on_preloaded_chain(design):
    ledger, registry = _preloaded_ledger(design)
    report = replay_check(ledger.log.store, ledger.state, registry=registry)
    assert report.clean()
    assert digest_entries(report.entries) == digest_entries(dict(ledger.state.items()))

    # an equal value held in a distinct object still matches
    key = _first_key(ledger.state)
    value, version = ledger.state._entries[key]
    ledger.state._entries[key] = (frozenset(set(value)), version)
    assert ledger.state._entries[key][0] is not value
    replay_check(ledger.log.store, ledger.state, registry=registry)

    for mutate in (_remove_key, _add_key, _move_key, _bump_version, _swap_value):
        ledger, registry = _preloaded_ledger(design)
        mutate(ledger.state)
        with pytest.raises(ReplayMismatchError, match="replayed state differs"):
            replay_check(ledger.log.store, ledger.state, registry=registry)


def _brute_force_answers(store):
    """Reference access answers: a scan of every consent fact per request.

    Also counts the history's edge cases, so a test can require them."""
    facts, roles, answers = set(), {}, []
    seen = {"regrant": 0, "phantom_revoke": 0, "emptied": 0}
    revoked = set()
    for _height, tx in iter_committed(store):
        p = tx.payload
        if p.kind is PayloadKind.GRANT_CONSENT:
            seen["regrant"] += p.fact in revoked
            facts.add(p.fact)
        elif p.kind is PayloadKind.REVOKE_CONSENT:
            present = p.fact in facts
            seen["phantom_revoke"] += not present
            facts.discard(p.fact)
            revoked.add(p.fact)
            group = (p.fact.res_id, p.fact.role_id, p.fact.wd_id, p.fact.time_id)
            seen["emptied"] += present and not any(
                (f.res_id, f.role_id, f.wd_id, f.time_id) == group for f in facts
            )
        elif p.kind in (PayloadKind.ASSIGN_ROLE, PayloadKind.REVOKE_ROLE):
            roles[(p.role_id, p.dc_id, p.wd_id)] = p.kind is PayloadKind.ASSIGN_ROLE
        elif p.kind is PayloadKind.ACCESS_REQUEST:
            if not roles.get((p.role_id, p.dc_id, p.wd_id)):
                answers.append((False, ()))
                continue
            consenting = sorted(
                f.ind_id
                for f in facts
                if f.res_id == p.res_id
                and f.role_id == p.role_id
                and f.wd_id == p.wd_id
                and f.time_id == p.time_id
            )
            answers.append((True, tuple(consenting)))
    return answers, seen


def test_indexed_oracle_matches_brute_force(monkeypatch):
    """The oracle's consent index answers every request as a full scan does."""
    answered = []
    indexed = audit._oracle_answer

    def recording(consent, roles, payload):
        answer = indexed(consent, roles, payload)
        answered.append(answer)
        return answer

    monkeypatch.setattr(audit, "_oracle_answer", recording)
    registry = population_registry(6)
    fact = ConsentFact("i0", "r0", "d0", "w0", "t0")
    # grant, revoke to an empty group, re-grant, and revoke what was never
    # granted, each asked about; then a random history over few groups
    script = [
        assign_role("w0", "d0", "c0", "w0"),
        grant_consent("i0", fact),
        revoke_consent("i0", fact),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),
        grant_consent("i0", fact),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),
        revoke_consent("i1", ConsentFact("i1", "r1", "d0", "w0", "t0")),
        access_request("c0", "c0", "d0", "w0", "r1", "t0"),
    ]
    for seed, design in enumerate(WorldStateDesign):
        rng = random.Random(900 + seed)
        ledger = SyncLedger(design, registry, PipelineConfig(block_size=5))
        for step in script:
            assert ledger.run([[step]]).receipts[0].status is Status.COMMITTED
        payloads = []
        for _ in range(150):
            roll = rng.random()
            ind = f"i{rng.randrange(6)}"
            res, role = f"r{rng.randrange(3)}", f"d{rng.randrange(2)}"
            fact = ConsentFact(ind, res, role, "w0", f"t{rng.randrange(2)}")
            if roll < 0.35:
                payloads.append(grant_consent(ind, fact))
            elif roll < 0.6:
                payloads.append(revoke_consent(ind, fact))
            elif roll < 0.65:
                make = assign_role if rng.random() < 0.7 else revoke_role
                payloads.append(make("w0", role, "c0", "w0"))
            else:
                payloads.append(
                    access_request("c0", "c0", role, "w0", res, f"t{rng.randrange(2)}")
                )
        ledger.run([payloads])

        answered.clear()
        report = replay_check(ledger.log.store, ledger.state, registry=registry)
        expected, seen = _brute_force_answers(ledger.log.store)
        assert report.clean() and report.interpreted
        assert answered == expected
        assert len(expected) > 40
        assert sum(granted and not who for granted, who in expected) > 0
        assert all(seen.values()), seen


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


def test_resealed_record_cannot_name_another_resource():
    """A re-sealed access record cannot claim another resource or consumer.

    The record holds no coordinates of its own: rewriting them alone cannot
    be encoded, and rewriting the payload with them breaks the endorsement.
    """
    from dataclasses import replace

    ledger, registry = _scripted_ledger()
    blocks = [parse_block(record) for record in ledger.log.store]
    block, tx = next(
        (block, tx)
        for block in blocks
        for tx, valid in zip(block.transactions, block.validity)
        if valid and tx.result is not None and tx.result.granted
    )
    moved = dict(res_id="r3", dc_id="c9")
    forged = replace(tx, result=replace(tx.result, **moved))
    with pytest.raises(ValueError, match="coordinates"):
        make_block(block.height, block.prev_hash, (forged,), block.validity)

    forged = replace(forged, payload=replace(tx.payload, **moved))
    doctored = MemoryLogStore()
    prev_hash = None
    for block in blocks:
        txs = tuple(forged if t is tx else t for t in block.transactions)
        rebuilt = make_block(
            block.height,
            prev_hash if prev_hash is not None else block.prev_hash,
            txs,
            block.validity,
        )
        prev_hash = rebuilt.block_hash
        doctored.append(serialize_block(rebuilt))
    assert blocklog.verify_chain(doctored) is None
    report = replay_oracle(doctored, registry=registry)
    assert report.flag_mismatches
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
