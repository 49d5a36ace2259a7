"""Block sealing, hash chaining, stores, and tamper detection."""

import random
from dataclasses import replace

import pytest

from consentledger import wire
from consentledger.blocklog import (
    REASON_CONFLICT,
    REASON_ENDORSEMENT,
    REASON_INIT,
    VALID,
    ZERO_HASH,
    BlockLog,
    ChainError,
    FileLogStore,
    MemoryLogStore,
    commit_block,
    execute_transactions,
    genesis_block,
    make_block,
    parse_block,
    serialize_block,
    verify_chain,
)
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.membership import population_registry
from consentledger.pipeline import PipelineConfig, Status, SyncLedger
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    EndorsedTransaction,
    PayloadKind,
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
from consentledger.worldstate import ReadWriteSet, VersionedWorldState, value_from_reader

FACT = ConsentFact("i1", "r1", "d1", "w1", "t1")
KEY = "r1|w1|d1|t1"


def _tx(tx_id: str, read_version: int, members) -> EndorsedTransaction:
    payload = grant_consent("i1", FACT)
    rws = ReadWriteSet(
        reads=((KEY, read_version),),
        writes=((KEY, frozenset(members)),),
    )
    return EndorsedTransaction(
        tx_id=tx_id,
        payload=payload,
        rwset=rws,
        endorser_ids=("e0",),
        endorsement_stub=endorsement_stub(payload.to_bytes(), rws.to_bytes(), ("e0",)),
    )


def test_genesis_roundtrip():
    genesis = genesis_block()
    assert genesis.height == 0
    assert genesis.prev_hash == ZERO_HASH
    assert parse_block(serialize_block(genesis)) == genesis


def test_record_zero_must_be_the_genesis_block():
    """A sound block at height 0 that carries transactions is refused."""
    store = MemoryLogStore()
    store.append(serialize_block(make_block(0, ZERO_HASH, (_tx("tx-1", 0, {"i1"}),), (True,))))
    assert verify_chain(store) == 0
    with pytest.raises(ChainError, match="not the genesis block"):
        BlockLog(store)


def test_fresh_log_starts_at_genesis():
    log = BlockLog()
    assert log.height == 0
    assert verify_chain(log.store) is None


def test_append_enforces_continuity():
    log = BlockLog()
    block = make_block(2, log.tip_hash, (), ())
    with pytest.raises(ChainError):
        log.append_block(block)
    wrong_parent = make_block(1, b"\x01" * 32, (), ())
    with pytest.raises(ChainError):
        log.append_block(wrong_parent)
    good = make_block(1, log.tip_hash, (), ())
    log.append_block(good)
    assert log.height == 1


def test_execute_transactions_reasons():
    state = VersionedWorldState()
    first = _tx("tx-1", 0, {"i1"})
    stale = _tx("tx-2", 0, {"i1", "i2"})
    fresh = _tx("tx-3", 1, {"i1", "i2"})
    forged = EndorsedTransaction(
        tx_id="tx-4",
        payload=first.payload,
        rwset=first.rwset,
        endorser_ids=("e0",),
        endorsement_stub="0" * 64,
    )
    reasons = execute_transactions(state, [first, stale, fresh, forged], policy_m=1)
    assert reasons == [VALID, REASON_CONFLICT, VALID, REASON_ENDORSEMENT]
    assert dict(state.items())[KEY] == (frozenset({"i1", "i2"}), 2)


def test_commit_block_appends_and_flags():
    state = VersionedWorldState()
    log = BlockLog()
    block, reasons = commit_block(state, log, [_tx("tx-1", 0, {"i1"})], policy_m=1)
    assert block.height == 1
    assert block.validity == (True,)
    assert reasons == [VALID]
    assert verify_chain(log.store) is None


def _init_tx() -> EndorsedTransaction:
    spec = PreloadSpec(
        design=WorldStateDesign.IWS,
        n_individuals=2,
        n_resources=2,
        n_roles=1,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=2,
        value_space=1,
    )
    return EndorsedTransaction(
        tx_id="tx-init",
        payload=state_init("w0", spec),
        rwset=ReadWriteSet(),
        endorser_ids=(),
        endorsement_stub="",
    )


def test_state_init_rejected_on_populated_state():
    init = _init_tx()
    fresh = VersionedWorldState()
    assert execute_transactions(fresh, [init], policy_m=1) == [VALID]
    assert fresh.key_count() == 2
    assert execute_transactions(fresh, [init], policy_m=1) == [REASON_INIT]


def test_file_store_roundtrip_and_reopen(tmp_path):
    path = tmp_path / "chain.log"
    store = FileLogStore(path)
    log = BlockLog(store)
    state = VersionedWorldState()
    for i in range(5):
        commit_block(state, log, [_tx(f"tx-{i}", i, {"i1"})], policy_m=1)
    store.close()

    reopened = FileLogStore(path)
    assert sum(1 for _ in reopened) == 6
    assert verify_chain(reopened) is None
    resumed = BlockLog(reopened)
    assert resumed.height == 5
    commit_block(state, resumed, [_tx("tx-5", 5, {"i1"})], policy_m=1)
    assert verify_chain(reopened) is None
    reopened.close()


def test_single_byte_mutations_detected(tmp_path):
    store = MemoryLogStore()
    log = BlockLog(store)
    state = VersionedWorldState()
    for i in range(10):
        commit_block(state, log, [_tx(f"tx-{i}", i, {"i1"})], policy_m=1)
    clean = list(store)
    assert verify_chain(store) is None

    rng = random.Random(29)
    for _ in range(80):
        target = rng.randrange(len(clean))
        record = bytearray(clean[target])
        offset = rng.randrange(len(record))
        record[offset] ^= 1 << rng.randrange(8)
        mutated = MemoryLogStore()
        for index, original in enumerate(clean):
            mutated.append(bytes(record) if index == target else original)
        bad = verify_chain(mutated)
        assert bad is not None and bad >= target


def test_state_init_single_byte_mutations_give_height_1():
    store = MemoryLogStore()
    log = BlockLog(store)
    state = VersionedWorldState()
    commit_block(state, log, [_init_tx()], policy_m=1)
    commit_block(state, log, [_tx("tx-1", 0, {"i1"})], policy_m=1)
    genesis, init, tail = list(store)
    assert verify_chain(store) is None
    for offset in range(len(init)):
        for value in range(256):
            if value == init[offset]:
                continue
            mutated = MemoryLogStore()
            mutated.append(genesis)
            mutated.append(init[:offset] + bytes((value,)) + init[offset + 1 :])
            mutated.append(tail)
            assert verify_chain(mutated) == 1, (offset, value)


def test_validity_flag_flip_breaks_descendants():
    store = MemoryLogStore()
    log = BlockLog(store)
    state = VersionedWorldState()
    commit_block(state, log, [_tx("tx-0", 0, {"i1"})], policy_m=1)
    commit_block(state, log, [_tx("tx-1", 1, {"i1"})], policy_m=1)
    block = parse_block(store._records[1])
    # a re-sealed block is self-consistent, so the break surfaces at its child
    flipped = make_block(block.height, block.prev_hash, block.transactions, (False,))
    store._records[1] = serialize_block(flipped)
    assert verify_chain(store) == 2


def test_truncated_record_rejected():
    record = serialize_block(genesis_block())
    with pytest.raises(wire.WireError):
        parse_block(record[:-1])
    with pytest.raises(wire.WireError):
        parse_block(record + b"\x00")


def _mixed_chain() -> list:
    """Records of a small chain holding every endorsed payload kind."""
    ledger = SyncLedger(
        WorldStateDesign.IWS, population_registry(3), PipelineConfig(block_size=2)
    )
    fact = ConsentFact("i0", "r0", "d0", "w0", "t0")
    for step in (
        grant_consent("i0", fact),
        assign_role("w0", "d0", "c0", "w0"),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),
        revoke_consent("i0", fact),
        revoke_role("w0", "d0", "c0", "w0"),
    ):
        assert ledger.run([[step]]).receipts[0].status is Status.COMMITTED
    receipts = ledger.run([
        [
            raw_read("i1", ["r0|w0|d0|t0", "d0|c0|w0"]),
            raw_write("i2", [("r1|w0|d0|t0", frozenset({"i1", "i2"})), ("d1|c0|w0", "assign")]),
        ]
    ]).receipts
    assert all(r.status is Status.COMMITTED for r in receipts)
    return list(ledger.log.store)


def test_parse_reencodes_every_payload_kind():
    kinds = set()
    for record in _mixed_chain():
        block = parse_block(record)
        # a parsed block keeps no chunks, so this re-encodes every transaction
        assert serialize_block(block) == record
        for tx in block.transactions:
            kinds.add(tx.payload.kind)
            assert tx._stub_memo == endorsement_stub(
                tx.payload.to_bytes(), tx.rwset.to_bytes(), tx.endorser_ids
            )
    assert kinds == set(PayloadKind) - {PayloadKind.STATE_INIT}


def test_every_byte_mutation_of_mixed_chain_detected():
    clean = _mixed_chain()
    assert verify_chain(clean) is None
    for target, record in enumerate(clean):
        for offset in range(len(record)):
            for mask in (0x01, 0x80, 0xFF):
                mutated = bytearray(record)
                mutated[offset] ^= mask
                mutated = bytes(mutated)
                try:
                    parsed = parse_block(mutated)
                except wire.WireError:
                    pass
                else:
                    # decoding is canonical: whatever parses re-encodes as read
                    assert serialize_block(parsed) == mutated, (target, offset, mask)
                store = clean[:target] + [mutated] + clean[target + 1 :]
                bad = verify_chain(store)
                assert bad is not None and bad <= target, (target, offset, mask)


def test_unsorted_member_set_rejected():
    value = bytes([0x02]) + wire.pack_str("b,a")
    with pytest.raises(wire.WireError):
        value_from_reader(wire.Reader(value))
    twice = bytes([0x02]) + wire.pack_str("a,a")
    with pytest.raises(wire.WireError):
        value_from_reader(wire.Reader(twice))
    assert value_from_reader(wire.Reader(bytes([0x02]) + wire.pack_str("a,b"))) == {"a", "b"}


def test_reopen_refuses_torn_tail(tmp_path):
    path = tmp_path / "chain.log"
    store = FileLogStore(path)
    log = BlockLog(store)
    state = VersionedWorldState()
    for i in range(3):
        commit_block(state, log, [_tx(f"tx-{i}", i, {"i1"})], policy_m=1)
    store.close()
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01")
    torn = path.read_bytes()
    with pytest.raises(ChainError, match="height 4"):
        BlockLog(FileLogStore(path))
    assert path.read_bytes() == torn


def test_parsed_stub_memo_comes_from_the_bytes_read():
    state = VersionedWorldState()
    log = BlockLog()
    good = _tx("tx-1", 0, {"i1"})
    forged = replace(good, tx_id="tx-2", endorsement_stub="0" * 64)
    _, reasons = commit_block(state, log, [good, forged], policy_m=1)
    assert reasons == [VALID, REASON_ENDORSEMENT]
    parsed = parse_block(list(log.store)[-1]).transactions
    assert [verify_endorsement(tx, 1) for tx in parsed] == [True, False]
    # a copy with other fields carries no memo and is checked from scratch
    assert not verify_endorsement(replace(parsed[0], endorser_ids=("e1",)), 1)
    assert verify_endorsement(replace(parsed[1], endorsement_stub=good.endorsement_stub), 1)


def _fuzzed(rng: random.Random, record: bytes) -> bytes:
    """record with random bytes, a rewritten length field, or a cut or splice."""
    data = bytearray(record)
    roll = rng.random()
    if roll < 0.4:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif roll < 0.8:
        # a u32 that fits in what follows it is likely a count or a length
        offsets = [
            i for i in range(len(data) - 3)
            if 0 < int.from_bytes(data[i : i + 4], "big") <= len(data) - i - 4
        ]
        at = rng.choice(offsets)
        old = int.from_bytes(data[at : at + 4], "big")
        new = rng.choice((0, old - 1, old + 1, 2 * old, rng.randrange(len(data)), 2**32 - 1))
        data[at : at + 4] = new.to_bytes(4, "big")
    elif roll < 0.9:
        del data[rng.randrange(len(data)) :]
    else:
        at = rng.randrange(len(data))
        data[at:at] = rng.randbytes(rng.randint(1, 8))
    return bytes(data)


def test_parse_block_fuzz_raises_only_wire_errors():
    store = MemoryLogStore()
    commit_block(VersionedWorldState(), BlockLog(store), [_init_tx()], policy_m=1)
    records = _mixed_chain()[1:] + list(store)[1:]
    rng = random.Random(2014)
    parsed = 0
    for _ in range(3_000):
        mutated = _fuzzed(rng, rng.choice(records))
        try:
            block = parse_block(mutated)
        except wire.WireError:
            continue
        parsed += 1
        assert serialize_block(block) == mutated
    # the fuzz also reaches the decoders past the first broken field
    assert parsed > 0
