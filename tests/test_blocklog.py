"""Block sealing, hash chaining, stores, and tamper detection."""

import random

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
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    EndorsedTransaction,
    endorsement_stub,
    grant_consent,
    state_init,
)
from consentledger.worldstate import ReadWriteSet, VersionedWorldState

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
        endorsement_stub=endorsement_stub(payload, rws, ("e0",)),
    )


def test_genesis_roundtrip():
    genesis = genesis_block()
    assert genesis.height == 0
    assert genesis.prev_hash == ZERO_HASH
    assert parse_block(serialize_block(genesis)) == genesis


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
    assert state.get(KEY) == (frozenset({"i1", "i2"}), 2)


def test_commit_block_appends_and_flags():
    state = VersionedWorldState()
    log = BlockLog()
    block, reasons = commit_block(state, log, [_tx("tx-1", 0, {"i1"})], policy_m=1)
    assert block.height == 1
    assert block.validity == (True,)
    assert reasons == [VALID]
    assert state.height == 1
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
    assert len(reopened) == 6
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
