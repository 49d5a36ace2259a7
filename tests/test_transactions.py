"""Wire format roundtrips and endorsement stubs."""

import random
from dataclasses import replace

import pytest

from consentledger import wire
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    AccessGrantRecord,
    EndorsedTransaction,
    PayloadKind,
    TransactionPayload,
    access_request,
    assign_role,
    endorsement_stub,
    grant_consent,
    raw_read,
    raw_write,
    revoke_consent,
    revoke_role,
    state_init,
    verify_endorsement,
)
from consentledger.worldstate import ReadWriteSet

FACT = ConsentFact("i1", "r1", "d1", "w1", "t1")


def _roundtrip_payload(payload: TransactionPayload) -> TransactionPayload:
    reader = wire.Reader(payload.to_bytes())
    back = TransactionPayload.from_reader(reader)
    reader.expect_end()
    return back


def test_payload_roundtrip_all_kinds():
    spec = PreloadSpec(
        design=WorldStateDesign.IWS,
        n_individuals=3,
        n_resources=4,
        n_roles=1,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=4,
        value_space=2,
    )
    payloads = [
        grant_consent("i1", FACT),
        revoke_consent("i1", FACT),
        assign_role("w1", "d1", "c9", "w1"),
        revoke_role("w1", "d1", "c9", "w1"),
        access_request("c9", "c9", "d1", "w1", "r1", "t1"),
        raw_read("c9", ["a|b|c|d", "e|f|g|h"]),
        raw_write("c9", [("a|b|c|d", frozenset({"m1", "m2"})), ("k|l|m|n", "assign")]),
        state_init("w1", spec),
    ]
    for payload in payloads:
        assert _roundtrip_payload(payload) == payload


def test_payload_requires_fact_for_consent():
    broken = TransactionPayload(kind=PayloadKind.GRANT_CONSENT, actor="i1")
    with pytest.raises(ValueError):
        broken.to_bytes()


def test_access_record_roundtrip():
    record = AccessGrantRecord(
        dc_id="c9",
        role_id="d1",
        wd_id="w1",
        res_id="r1",
        time_id="t1",
        granted=True,
        consenting_individuals=("i1", "i2", "i3"),
    )
    reader = wire.Reader(record.to_bytes())
    assert AccessGrantRecord.from_reader(reader) == record
    reader.expect_end()


def _sample_tx(rng: random.Random) -> EndorsedTransaction:
    payload = grant_consent("i1", FACT)
    rws = ReadWriteSet(
        reads=(("r1|w1|d1|t1", rng.randrange(4)),),
        writes=(("r1|w1|d1|t1", frozenset({"i1"})),),
    )
    endorsers = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
    return EndorsedTransaction(
        tx_id=f"tx-{rng.randrange(10**6):06d}",
        payload=payload,
        rwset=rws,
        endorser_ids=endorsers,
        endorsement_stub=endorsement_stub(payload, rws, endorsers),
        result=None,
    )


def test_endorsed_tx_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        tx = _sample_tx(rng)
        reader = wire.Reader(tx.to_bytes())
        assert EndorsedTransaction.from_reader(reader) == tx
        reader.expect_end()


def test_endorsed_tx_roundtrip_with_result():
    payload = access_request("c9", "c9", "d1", "w1", "r1", "t1")
    rws = ReadWriteSet(reads=(("d1|c9|w1", 1), ("r1|w1|d1|t1", 2)))
    result = AccessGrantRecord("c9", "d1", "w1", "r1", "t1", True, ("i1",))
    tx = EndorsedTransaction(
        tx_id="tx-000001",
        payload=payload,
        rwset=rws,
        endorser_ids=("e0",),
        endorsement_stub=endorsement_stub(payload, rws, ("e0",)),
        result=result,
    )
    reader = wire.Reader(tx.to_bytes())
    back = EndorsedTransaction.from_reader(reader)
    assert back.result == result
    assert verify_endorsement(back, 1)


def test_routing_metadata_stays_off_the_wire():
    rng = random.Random(12)
    tx = replace(_sample_tx(rng), client_id="client3", seq=17, retry_count=2)
    reader = wire.Reader(tx.to_bytes())
    back = EndorsedTransaction.from_reader(reader)
    assert back.client_id == "" and back.seq == 0 and back.retry_count == 0
    assert back == tx  # routing fields do not participate in equality


def test_verify_endorsement_rejects_tampering():
    rng = random.Random(13)
    tx = _sample_tx(rng)
    assert verify_endorsement(tx, 1)
    forged = EndorsedTransaction(
        tx_id=tx.tx_id,
        payload=tx.payload,
        rwset=ReadWriteSet(writes=(("r1|w1|d1|t1", frozenset({"i1", "intruder"})),)),
        endorser_ids=tx.endorser_ids,
        endorsement_stub=tx.endorsement_stub,
        result=None,
    )
    assert not verify_endorsement(forged, 1)


def test_verify_endorsement_counts_distinct_endorsers():
    payload = grant_consent("i1", FACT)
    rws = ReadWriteSet()
    doubled = ("e0", "e0")
    tx = EndorsedTransaction(
        tx_id="tx-1",
        payload=payload,
        rwset=rws,
        endorser_ids=doubled,
        endorsement_stub=endorsement_stub(payload, rws, doubled),
    )
    assert verify_endorsement(tx, 1)
    assert not verify_endorsement(tx, 2)


def test_stub_changes_with_inputs():
    payload = grant_consent("i1", FACT)
    rws = ReadWriteSet()
    base = endorsement_stub(payload, rws, ("e0",))
    assert base == endorsement_stub(payload, rws, ("e0",))
    assert base != endorsement_stub(payload, rws, ("e1",))
    other = ReadWriteSet(reads=(("r1|w1|d1|t1", 0),))
    assert base != endorsement_stub(payload, other, ("e0",))


def test_unknown_kind_code_rejected():
    with pytest.raises(wire.WireError):
        TransactionPayload.from_reader(wire.Reader(bytes([99]) + wire.pack_str("a")))
