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

Each record is encoded once and parsed once. `make_block` encodes every
transaction once, straight into the record while hashing the chunks into
payload_hash, and keeps that record on the block until `BlockLog`
appends it; `serialize_block` returns it. `parse_block` hashes the tx
chunks exactly as it read them, so `verified_blocks` (and `verify_chain`
through it) checks payload_hash against the bytes in the record and
never re-encodes. Decoding is canonical, so those bytes are also what
re-encoding the parsed transactions would give. Both memos stay off the
wire and out of equality, and a `dataclasses.replace` copy of a block
carries neither.

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
from dataclasses import dataclass, field
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


class TamperedLogError(ChainError):
    """Raised when a log fails verification; names the first bad height."""

    def __init__(self, height: int, reason: str = ""):
        message = f"chain verification failed at height {height}"
        super().__init__(f"{message}: {reason}" if reason else message)
        self.height = height


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    payload_hash: bytes
    transactions: tuple
    validity: tuple
    block_hash: bytes
    # the record make_block sealed, which serialize_block returns
    record: bytes | None = field(default=None, init=False, repr=False, compare=False)
    # parse_block's hash over the tx chunks as read, checked against payload_hash
    read_payload_hash: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )


def _payload_hasher():
    return hashlib.sha256(b"txs-v1")


def _block_hash(height: int, prev_hash: bytes, payload_hash: bytes, validity) -> bytes:
    h = hashlib.sha256(b"block-v1")
    h.update(wire.pack_u64(height))
    h.update(prev_hash)
    h.update(payload_hash)
    h.update(bytes(1 if v else 0 for v in validity))
    return h.digest()


def _encode_record(
    height: int, prev_hash: bytes, transactions, validity, payload_hash=None, block_hash=None
):
    """Encode one block record, each transaction exactly once.

    Without hashes, payload_hash is computed from the transaction chunks
    as they are written and block_hash from it (sealing a new block);
    given hashes are written as they are. Transactions are encoded one
    at a time into a single buffer, so no list of chunks is ever held.
    Returns (record, payload_hash, block_hash).
    """
    out = bytearray()
    out += wire.pack_u64(height)
    out += wire.pack_chunk(prev_hash)
    out += wire.pack_chunk(payload_hash if payload_hash is not None else ZERO_HASH)
    hash_at = len(out) - 32
    out += wire.pack_u32(len(transactions))
    h = _payload_hasher()
    for tx in transactions:
        chunk = tx.to_bytes()
        wire.hash_chunk(h, chunk)
        out += wire.pack_u32(len(chunk))
        out += chunk
    if payload_hash is None:
        payload_hash = h.digest()
        out[hash_at : hash_at + 32] = payload_hash
        block_hash = _block_hash(height, prev_hash, payload_hash, validity)
    out += wire.pack_u32(len(validity))
    out += bytes(1 if v else 0 for v in validity)
    out += wire.pack_chunk(block_hash)
    return bytes(out), payload_hash, block_hash


def make_block(height: int, prev_hash: bytes, transactions, validity) -> Block:
    transactions = tuple(transactions)
    validity = tuple(bool(v) for v in validity)
    if len(transactions) != len(validity):
        raise ChainError("one validity flag per transaction required")
    record, payload_hash, block_hash = _encode_record(
        height, prev_hash, transactions, validity
    )
    block = Block(
        height=height,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        transactions=transactions,
        validity=validity,
        block_hash=block_hash,
    )
    object.__setattr__(block, "record", record)
    return block


def genesis_block() -> Block:
    return make_block(0, ZERO_HASH, (), ())


def serialize_block(block: Block) -> bytes:
    if block.record is not None:
        return block.record
    return _encode_record(
        block.height,
        block.prev_hash,
        block.transactions,
        block.validity,
        block.payload_hash,
        block.block_hash,
    )[0]


def parse_block(record: bytes) -> Block:
    reader = wire.Reader(record)
    height = reader.take_u64()
    prev_hash = reader.take_chunk()
    payload_hash = reader.take_chunk()
    if len(prev_hash) != 32 or len(payload_hash) != 32:
        raise wire.WireError("hash fields must be 32 bytes")
    n_txs = reader.take_u32()
    transactions = []
    read_hash = _payload_hasher()
    for _ in range(n_txs):
        chunk = reader.take_chunk()
        wire.hash_chunk(read_hash, chunk)
        sub = wire.Reader(chunk)
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
    block = Block(
        height=height,
        prev_hash=prev_hash,
        payload_hash=payload_hash,
        transactions=tuple(transactions),
        validity=validity,
        block_hash=block_hash,
    )
    object.__setattr__(block, "read_payload_hash", read_hash.digest())
    return block


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
    existing store verifies it and picks up its tip instead. A store that
    fails verification, such as a file with a torn tail, is refused with
    a TamperedLogError (a ChainError) naming the first bad height; it is
    never truncated.
    """

    def __init__(self, store=None):
        self.store = store if store is not None else MemoryLogStore()
        self.height = -1
        self.tip_hash = ZERO_HASH
        for block in verified_blocks(self.store):
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
        # the record served this one write; a block its caller keeps
        # should not pin a copy of it
        object.__setattr__(block, "record", None)
        self.height = block.height
        self.tip_hash = block.block_hash


def verified_blocks(store):
    """Parse each record once and yield its block once it checks out.

    A block checks out when its height and prev_hash continue the chain,
    the tx chunks it was read from hash to its payload_hash, and its
    block_hash matches. The first record that cannot be read or parsed
    (such as a torn tail) or fails a check raises TamperedLogError naming
    its height, after every block before it has been yielded.
    """
    prev_hash = ZERO_HASH
    height = 0
    try:
        for record in store:
            block = parse_block(record)
            if block.height != height:
                raise TamperedLogError(height, f"record claims height {block.height}")
            if block.prev_hash != prev_hash:
                raise TamperedLogError(height, "prev_hash does not match the chain")
            if block.read_payload_hash != block.payload_hash:
                raise TamperedLogError(height, "transactions do not match payload_hash")
            if _block_hash(
                block.height, block.prev_hash, block.payload_hash, block.validity
            ) != block.block_hash:
                raise TamperedLogError(height, "block_hash does not match the block")
            yield block
            prev_hash = block.block_hash
            height += 1
    except wire.WireError as exc:
        raise TamperedLogError(height, f"unreadable record ({exc})") from exc


def verify_chain(store) -> int | None:
    """Return the first bad height, or None when the whole chain is intact."""
    try:
        for _ in verified_blocks(store):
            pass
    except TamperedLogError as exc:
        return exc.height
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
