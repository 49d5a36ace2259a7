"""Hash-chained block log and the serial validate-and-commit loop.

Record layout (one block), all chunks length-prefixed:

    u64   height
    chunk prev_hash      (32 bytes; zeros for the genesis block)
    chunk payload_hash   (32 bytes; SHA-256 over the tx chunks)
    u32   tx count, then one chunk per endorsed transaction
    u32   flag count, then u8 per transaction (1 valid, 0 invalidated)
    chunk block_hash     (32 bytes)

block_hash = SHA-256("block-v1", height, prev_hash, payload_hash, flags),
so every byte of the record is covered either directly or through
payload_hash, and each block's hash is pinned by its successor's
prev_hash. Validity flags sit inside the hash: flipping a flag on the tip
block still breaks its own stored hash.

A file-backed log is a sequence of [u32 record length][record]. Heights
are dense from 0 (the genesis block, which carries no transactions).

Commit semantics: transactions in a block are validated serially against
the live state. A transaction is valid when its endorsement checks out
and every key it read is still at the version it observed (version 0 for
keys read as absent); valid transactions apply their writes immediately,
so the second of two same-key writers in one block observes the bumped
version and is invalidated.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

from consentledger import wire
from consentledger.transactions import EndorsedTransaction, PayloadKind, verify_endorsement
from consentledger.preload import PreloadError, apply_preload
from consentledger.worldstate import (
    VersionedWorldState,
    apply_rwset,
    validate_rwset,
)

ZERO_HASH = bytes(32)

VALID = ""
REASON_CONFLICT = "conflict"
REASON_ENDORSEMENT = "endorsement"
REASON_INIT = "init-on-populated-state"


class ChainError(Exception):
    """Raised when appends or reads violate chain structure."""


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    payload_hash: bytes
    transactions: tuple
    validity: tuple
    block_hash: bytes


def _payload_hash(tx_chunks) -> bytes:
    h = hashlib.sha256(b"txs-v1")
    for chunk in tx_chunks:
        h.update(wire.pack_chunk(chunk))
    return h.digest()


def _block_hash(height: int, prev_hash: bytes, payload_hash: bytes, validity) -> bytes:
    h = hashlib.sha256(b"block-v1")
    h.update(wire.pack_u64(height))
    h.update(prev_hash)
    h.update(payload_hash)
    h.update(bytes(1 if v else 0 for v in validity))
    return h.digest()


def make_block(height: int, prev_hash: bytes, transactions, validity) -> Block:
    transactions = tuple(transactions)
    validity = tuple(bool(v) for v in validity)
    if len(transactions) != len(validity):
        raise ChainError("one validity flag per transaction required")
    payload_hash = _payload_hash(tx.to_bytes() for tx in transactions)
    return Block(
        height=height,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        transactions=transactions,
        validity=validity,
        block_hash=_block_hash(height, prev_hash, payload_hash, validity),
    )


def genesis_block() -> Block:
    return make_block(0, ZERO_HASH, (), ())


def serialize_block(block: Block) -> bytes:
    out = [
        wire.pack_u64(block.height),
        wire.pack_chunk(block.prev_hash),
        wire.pack_chunk(block.payload_hash),
        wire.pack_u32(len(block.transactions)),
    ]
    out += [wire.pack_chunk(tx.to_bytes()) for tx in block.transactions]
    out.append(wire.pack_u32(len(block.validity)))
    out += [wire.pack_u8(1 if v else 0) for v in block.validity]
    out.append(wire.pack_chunk(block.block_hash))
    return b"".join(out)


def parse_block(record: bytes) -> Block:
    reader = wire.Reader(record)
    height = reader.take_u64()
    prev_hash = reader.take_chunk()
    payload_hash = reader.take_chunk()
    if len(prev_hash) != 32 or len(payload_hash) != 32:
        raise wire.WireError("hash fields must be 32 bytes")
    n_txs = reader.take_u32()
    transactions = []
    for _ in range(n_txs):
        sub = wire.Reader(reader.take_chunk())
        transactions.append(EndorsedTransaction.from_reader(sub))
        sub.expect_end()
    n_flags = reader.take_u32()
    validity = tuple(reader.take_flag() for _ in range(n_flags))
    block_hash = reader.take_chunk()
    if len(block_hash) != 32:
        raise wire.WireError("hash fields must be 32 bytes")
    reader.expect_end()
    if n_flags != n_txs:
        raise wire.WireError(f"{n_txs} transactions but {n_flags} validity flags")
    return Block(
        height=height,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        transactions=tuple(transactions),
        validity=validity,
        block_hash=block_hash,
    )


class MemoryLogStore:
    """Raw block records in memory; the default for tests and short runs."""

    def __init__(self):
        self._records: list = []

    def append(self, record: bytes) -> None:
        self._records.append(bytes(record))

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


class FileLogStore:
    """Append-only log file of [u32 record length][record bytes].

    Opening a store reads and creates nothing: the file is created by the
    first append, so read-only users never touch the filesystem. Reading
    a torn record raises WireError.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._handle = None

    def append(self, record: bytes) -> None:
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(wire.pack_u32(len(record)))
        self._handle.write(record)
        self._handle.flush()

    def __iter__(self):
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            while True:
                head = fh.read(4)
                if not head:
                    return
                if len(head) != 4:
                    raise wire.WireError("truncated record length")
                (length,) = struct.unpack(">I", head)
                record = fh.read(length)
                if len(record) != length:
                    raise wire.WireError("truncated record")
                yield record

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


class BlockLog:
    """Store wrapper that enforces height and prev-hash continuity.

    A fresh log gets the genesis block appended immediately; reopening an
    existing store picks up its tip instead.
    """

    def __init__(self, store=None):
        self.store = store if store is not None else MemoryLogStore()
        self.height = -1
        self.tip_hash = ZERO_HASH
        for record in self.store:
            block = parse_block(record)
            self.height = block.height
            self.tip_hash = block.block_hash
        if self.height == -1:
            genesis = genesis_block()
            self.store.append(serialize_block(genesis))
            self.height = 0
            self.tip_hash = genesis.block_hash

    def append_block(self, block: Block) -> None:
        if block.height != self.height + 1:
            raise ChainError(
                f"expected height {self.height + 1}, got block {block.height}"
            )
        if block.prev_hash != self.tip_hash:
            raise ChainError(f"block {block.height} does not extend the tip")
        self.store.append(serialize_block(block))
        self.height = block.height
        self.tip_hash = block.block_hash

    def blocks(self):
        for record in self.store:
            yield parse_block(record)


def verify_chain(store) -> int | None:
    """Return the first bad height, or None when the whole chain is intact.

    A record that cannot be read or parsed, such as a torn tail, is bad.
    """
    prev_hash = ZERO_HASH
    index = 0
    try:
        for record in store:
            block = parse_block(record)
            if block.height != index or block.prev_hash != prev_hash:
                return index
            if _payload_hash(tx.to_bytes() for tx in block.transactions) != block.payload_hash:
                return index
            if _block_hash(
                block.height, block.prev_hash, block.payload_hash, block.validity
            ) != block.block_hash:
                return index
            prev_hash = block.block_hash
            index += 1
    except wire.WireError:
        return index
    return None


def execute_transactions(
    state: VersionedWorldState, transactions, policy_m: int
) -> list:
    """Serially validate and apply a block's transactions against live state.

    Returns one reason string per transaction: VALID (empty) or why it was
    invalidated. Writes of valid transactions are applied immediately so
    later transactions in the same block see them.
    """
    reasons = []
    for tx in transactions:
        if tx.payload.kind is PayloadKind.STATE_INIT:
            if state.key_count() != 0:
                reasons.append(REASON_INIT)
                continue
            try:
                apply_preload(state, tx.payload.init_spec)
            except PreloadError:
                reasons.append(REASON_INIT)
                continue
            reasons.append(VALID)
            continue
        if not verify_endorsement(tx, policy_m):
            reasons.append(REASON_ENDORSEMENT)
            continue
        if not validate_rwset(state, tx.rwset):
            reasons.append(REASON_CONFLICT)
            continue
        apply_rwset(state, tx.rwset)
        reasons.append(VALID)
    return reasons


def commit_block(
    state: VersionedWorldState, log: BlockLog, transactions, policy_m: int
):
    """Validate, apply, seal, and append one block. Returns (block, reasons)."""
    transactions = tuple(transactions)
    reasons = execute_transactions(state, transactions, policy_m)
    block = make_block(
        height=log.height + 1,
        prev_hash=log.tip_hash,
        transactions=transactions,
        validity=tuple(r == VALID for r in reasons),
    )
    log.append_block(block)
    state.height = block.height
    return block, reasons
