"""Wire format roundtrips and endorsement stubs."""

import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consentledger import wire
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    ACCESS_FIELDS,
    AccessGrantRecord,
    EndorsedTransaction,
    PayloadKind,
    TransactionPayload,
    access_coordinates,
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
    with pytest.raises(ValueError):
        TransactionPayload(kind=PayloadKind.STATE_INIT, actor="w1").to_bytes()


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
        endorsement_stub=endorsement_stub(payload.to_bytes(), rws.to_bytes(), endorsers),
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
        endorsement_stub=endorsement_stub(payload.to_bytes(), rws.to_bytes(), ("e0",)),
        result=result,
    )
    reader = wire.Reader(tx.to_bytes())
    back = EndorsedTransaction.from_reader(reader)
    assert back.result == result
    assert verify_endorsement(back, 1)
    # the record's coordinates are not on the wire: they are the parsed
    # payload's own strings
    for name in ACCESS_FIELDS:
        assert getattr(back.result, name) is getattr(back.payload, name)


@pytest.mark.parametrize("field", ACCESS_FIELDS)
def test_to_bytes_refuses_a_result_for_another_request(field):
    payload = access_request("c9", "c9", "d1", "w1", "r1", "t1")
    result = replace(
        AccessGrantRecord(*access_coordinates(payload), True, ("i1",)), **{field: "x9"}
    )
    tx = EndorsedTransaction(
        tx_id="tx-000001", payload=payload, rwset=ReadWriteSet(), result=result
    )
    with pytest.raises(ValueError, match="coordinates"):
        tx.to_bytes()


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
        endorsement_stub=endorsement_stub(payload.to_bytes(), rws.to_bytes(), doubled),
    )
    assert verify_endorsement(tx, 1)
    assert not verify_endorsement(tx, 2)


def test_stub_changes_with_inputs():
    payload = grant_consent("i1", FACT)
    rws = ReadWriteSet()
    base = endorsement_stub(payload.to_bytes(), rws.to_bytes(), ("e0",))
    assert base == endorsement_stub(payload.to_bytes(), rws.to_bytes(), ("e0",))
    assert base != endorsement_stub(payload.to_bytes(), rws.to_bytes(), ("e1",))
    other = ReadWriteSet(reads=(("r1|w1|d1|t1", 0),))
    assert base != endorsement_stub(payload.to_bytes(), other.to_bytes(), ("e0",))


def test_unknown_kind_code_rejected():
    with pytest.raises(wire.WireError):
        TransactionPayload.from_reader(wire.Reader(bytes([99]) + wire.pack_str("a")))


def test_take_strs_rejects_bad_lists():
    assert wire.Reader(wire.pack_str("a,b")).take_strs() == ("a", "b")
    assert wire.Reader(wire.pack_str("")).take_strs() == ()
    # an empty item at either end or in the middle
    for text in (",a", "a,", "a,,b", ","):
        with pytest.raises(wire.WireError):
            wire.Reader(wire.pack_str(text)).take_strs()
    # a length past the end, and bytes that are not UTF-8
    with pytest.raises(wire.WireError):
        wire.Reader(wire.pack_u32(9) + b"a,b").take_strs()
    with pytest.raises(wire.WireError):
        wire.Reader(wire.pack_chunk(b"a,\xff")).take_strs()


def test_pack_strs_refuses_items_that_cannot_be_joined():
    assert wire.pack_strs(()) == wire.pack_str("")
    assert wire.pack_strs(("a", "b")) == wire.pack_str("a,b")
    for items in ([""], ["a", ""], ["a,b"], ["a", "b,"], [","]):
        with pytest.raises(wire.WireError):
            wire.pack_strs(items)


# one valid frame per Reader field method, after one leading u8, so each
# field is read at a non-zero offset
READER_FIELDS = {
    "take_u8": (wire.pack_u8(200), 200),
    "take_flag": (wire.pack_u8(1), True),
    "take_u32": (wire.pack_u32(0xDEADBEEF), 0xDEADBEEF),
    "take_u64": (wire.pack_u64(2**64 - 1), 2**64 - 1),
    "take_chunk": (wire.pack_chunk(b"\x00abc"), b"\x00abc"),
    "take_str": (wire.pack_str("é|w0"), "é|w0"),
}


@pytest.mark.parametrize("method", sorted(READER_FIELDS))
def test_reader_field_cut_at_every_offset_raises_only_wire_error(method):
    frame, value = READER_FIELDS[method]
    data = wire.pack_u8(9) + frame
    reader = wire.Reader(data)
    assert reader.take_u8() == 9
    assert getattr(reader, method)() == value
    reader.expect_end()
    for cut in range(1, len(data)):
        reader = wire.Reader(data[:cut])
        reader.take_u8()
        # pytest.raises lets an IndexError or struct.error through as a failure
        with pytest.raises(wire.WireError):
            getattr(reader, method)()


@pytest.mark.parametrize(
    "data, method, message",
    [
        (b"", "take_u8", "need 1 bytes at offset 0, have 0"),
        (b"\x00\x00", "take_u32", "need 4 bytes at offset 0, have 2"),
        (bytes(7), "take_u64", "need 8 bytes at offset 0, have 7"),
        (b"\x00\x00\x00", "take_chunk", "need 4 bytes at offset 0, have 3"),
        (wire.pack_u32(5) + b"ab", "take_chunk", "need 5 bytes at offset 4, have 2"),
        (wire.pack_u32(9) + b"abc", "take_str", "need 9 bytes at offset 4, have 3"),
    ],
)
def test_reader_truncation_message(data, method, message):
    with pytest.raises(wire.WireError, match=f"^truncated frame: {message}$"):
        getattr(wire.Reader(data), method)()


def test_reader_truncation_message_at_later_offset():
    reader = wire.Reader(wire.pack_u32(1) + wire.pack_str("a") + bytes(3))
    assert reader.take_u32() == 1
    assert reader.take_str() == "a"
    with pytest.raises(wire.WireError, match="^truncated frame: need 8 bytes at offset 9, have 3$"):
        reader.take_u64()


def test_reader_rejects_bad_utf8_and_flag_bytes():
    with pytest.raises(wire.WireError, match="not valid UTF-8"):
        wire.Reader(wire.pack_chunk(b"a\xff")).take_str()
    assert wire.Reader(wire.pack_chunk(b"a\xff")).take_chunk() == b"a\xff"
    with pytest.raises(wire.WireError, match="flag byte must be 0 or 1, got 2"):
        wire.Reader(wire.pack_u8(2)).take_flag()
    assert wire.Reader(wire.pack_u8(0)).take_flag() is False


TOKENS = st.from_regex(r"[A-Za-z0-9_-]{1,6}", fullmatch=True)
KEYS = st.lists(TOKENS, min_size=3, max_size=4).map("|".join)
VALUES = st.one_of(st.frozensets(TOKENS, max_size=5), TOKENS)


@st.composite
def _preload_specs(draw):
    counts = [draw(st.integers(1, 4)) for _ in range(5)]
    spec = PreloadSpec(draw(st.sampled_from(WorldStateDesign)), *counts, 0, 0)
    return replace(
        spec,
        key_space=draw(st.integers(0, spec.grid_size())),
        value_space=draw(st.integers(0, spec.member_pool_size())),
    )


FACTS = st.builds(ConsentFact, TOKENS, TOKENS, TOKENS, TOKENS, TOKENS)
PAYLOADS = {
    PayloadKind.GRANT_CONSENT: st.builds(grant_consent, TOKENS, FACTS),
    PayloadKind.REVOKE_CONSENT: st.builds(revoke_consent, TOKENS, FACTS),
    PayloadKind.ASSIGN_ROLE: st.builds(assign_role, TOKENS, TOKENS, TOKENS, TOKENS),
    PayloadKind.REVOKE_ROLE: st.builds(revoke_role, TOKENS, TOKENS, TOKENS, TOKENS),
    PayloadKind.ACCESS_REQUEST: st.builds(access_request, TOKENS, *[TOKENS] * 5),
    PayloadKind.RAW_READ: st.builds(raw_read, TOKENS, st.lists(KEYS, max_size=6)),
    PayloadKind.RAW_WRITE: st.builds(
        raw_write, TOKENS, st.lists(st.tuples(KEYS, VALUES), max_size=4)
    ),
    PayloadKind.STATE_INIT: st.builds(state_init, TOKENS, _preload_specs()),
}
ANY_PAYLOAD = st.sampled_from(PayloadKind).flatmap(PAYLOADS.__getitem__)


@given(ANY_PAYLOAD)
def test_payload_codec_roundtrips_and_is_canonical(payload):
    data = payload.to_bytes()
    back = _roundtrip_payload(payload)
    assert back == payload
    assert back.to_bytes() == data


@given(
    ANY_PAYLOAD,
    st.lists(st.tuples(KEYS, st.integers(0, 2**64 - 1)), max_size=4),
    st.lists(st.tuples(KEYS, VALUES), max_size=4),
    st.lists(TOKENS, max_size=4),
    st.none() | st.tuples(st.booleans(), st.lists(TOKENS).map(tuple)),
)
def test_endorsed_tx_codec_roundtrips_and_is_canonical(payload, reads, writes, endorsers, decision):
    rws = ReadWriteSet(reads=tuple(reads), writes=tuple(writes))
    # a result answers its own payload's request
    result = None
    if decision is not None:
        result = AccessGrantRecord(*access_coordinates(payload), *decision)
    tx = EndorsedTransaction(
        tx_id="tx-1",
        payload=payload,
        rwset=rws,
        endorser_ids=tuple(endorsers),
        endorsement_stub=endorsement_stub(payload.to_bytes(), rws.to_bytes(), endorsers),
        result=result,
    )
    data = tx.to_bytes()
    reader = wire.Reader(data)
    back = EndorsedTransaction.from_reader(reader)
    reader.expect_end()
    assert back == tx
    assert back.to_bytes() == data
    assert verify_endorsement(back, len(set(endorsers)))


def _rwset_bytes_reader(data: bytes) -> ReadWriteSet:
    return wire.decode_exact(data, ReadWriteSet.from_reader)


def test_rwset_cut_at_every_offset_raises_only_wire_error():
    rws = ReadWriteSet(
        reads=(("i0|w0|d0|t0", 1), ("é|w0|d0|t0", 2**64 - 1), ("d0|c0|w0", 0)),
        writes=(("i0|w0|d0|t0", frozenset({"r1", "r2"})), ("d0|c0|w0", "assign")),
    )
    data = rws.to_bytes()
    assert _rwset_bytes_reader(data) == rws
    for cut in range(len(data)):
        with pytest.raises(wire.WireError):
            _rwset_bytes_reader(data[:cut])


def test_read_version_column_must_match_the_key_count():
    keys = wire.pack_strs(("a",))
    writes = wire.pack_u32(0)
    good = keys + wire.pack_chunk(wire.pack_u64(7)) + writes
    assert _rwset_bytes_reader(good) == ReadWriteSet(reads=(("a", 7),))
    assert ReadWriteSet(reads=(("a", 7),)).to_bytes() == good
    for size in (0, 7, 9):
        with pytest.raises(wire.WireError):
            _rwset_bytes_reader(keys + wire.pack_chunk(bytes(size)) + writes)
    for cut in range(len(good)):
        with pytest.raises(wire.WireError):
            _rwset_bytes_reader(good[:cut])


READ_KEYS = st.text(min_size=1).filter(lambda key: "," not in key)


@given(
    st.lists(st.tuples(READ_KEYS, st.integers(0, 2**64 - 1))),
    st.lists(st.tuples(st.text(), VALUES), max_size=4),
)
def test_rwset_codec_roundtrips_and_is_canonical(reads, writes):
    rws = ReadWriteSet(reads=tuple(reads), writes=tuple(writes))
    data = rws.to_bytes()
    back = _rwset_bytes_reader(data)
    assert back == rws
    assert back.to_bytes() == data


def test_endorser_memos_are_the_encoded_payload_and_rwset():
    from collections import Counter

    from consentledger.membership import population_registry
    from consentledger.pipeline import SyncLedger, _Pending

    registry = population_registry(3)
    ledger = SyncLedger(WorldStateDesign.RWS, registry)
    ledger.run([[assign_role("w0", "d0", "c0", "w0")]])
    payload = access_request("c0", "c0", "d0", "w0", "r0", "t0")
    tx = ledger.endorse_pending(_Pending("c0", 0, "c0-000000", payload), Counter())
    assert len(tx.rwset.reads) == 4  # the role key and three consent keys
    assert tx._rwset_memo == tx.rwset.to_bytes()
    assert tx._payload_memo == tx.payload.to_bytes()
    assert tx._stub_memo == endorsement_stub(
        tx._payload_memo, tx._rwset_memo, tx.endorser_ids
    )
    copy = replace(tx)
    assert copy._rwset_memo is copy._payload_memo is copy._stub_memo is None
    assert copy.to_bytes() == tx.to_bytes()
    assert verify_endorsement(copy, 1)
    # parsed transactions keep no second copy of what was read
    back = wire.decode_exact(tx.to_bytes(), EndorsedTransaction.from_reader)
    assert back._rwset_memo is back._payload_memo is None
    assert back == tx
