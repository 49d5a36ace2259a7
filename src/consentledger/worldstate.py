"""Versioned key-value world state with MVCC read-write set validation.

Every committed key carries a monotonically increasing version, starting
at 1 the first time it is written. Version 0 means "never written"; reads
of absent keys are recorded at version 0 and validated like any other
read, so a key that springs into existence between endorsement and commit
invalidates the transactions that observed its absence.

A value is either a frozenset of member tokens (consent sets) or a short
string marker (role assignments). Canonical value bytes, used for
hashing and on-disk records, are tagged: 0x01 marker string, 0x02 sorted
member set (one `wire` string list). A read set is stored as two
columns: its keys as one `wire` string list, then its versions as one
chunk of big-endian u64s, 8 bytes per key. The writes follow as a u32
count and, per write, its key string and its value bytes inline.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterator, Union

from consentledger import wire
from consentledger.keys import split_key

Value = Union[frozenset, str]

ABSENT_VERSION = 0

_TAG_MARKER = 0x01
_TAG_MEMBERS = 0x02


def value_to_bytes(value: Value) -> bytes:
    if isinstance(value, str):
        return wire.pack_u8(_TAG_MARKER) + wire.pack_str(value)
    if isinstance(value, frozenset):
        return wire.pack_u8(_TAG_MEMBERS) + wire.pack_strs(sorted(value))
    raise TypeError(f"unsupported value type {type(value).__name__}")


def value_from_reader(reader: wire.Reader) -> Value:
    tag = reader.take_u8()
    if tag == _TAG_MARKER:
        return reader.take_str()
    if tag == _TAG_MEMBERS:
        members = reader.take_strs()
        # value_to_bytes writes members sorted and distinct; any other
        # order would re-encode differently from the bytes that were read
        # and hashed
        if any(a >= b for a, b in zip(members, members[1:])):
            raise wire.WireError("value members must be sorted and distinct")
        return frozenset(members)
    raise wire.WireError(f"unknown value tag 0x{tag:02x}")


def pack_writes(writes) -> bytes:
    """A u32 count, then per write its key and its value bytes."""
    out = [wire.pack_u32(len(writes))]
    for key, value in writes:
        out += (wire.pack_str(key), value_to_bytes(value))
    return b"".join(out)


def take_writes(reader: wire.Reader) -> tuple:
    """The (key, value) pairs written by `pack_writes`."""
    return tuple(
        (reader.take_str(), value_from_reader(reader)) for _ in range(reader.take_u32())
    )


@dataclass(frozen=True)
class ReadWriteSet:
    """What one simulated transaction observed and intends to write.

    reads:  (key, version-at-read) pairs, one per distinct key, in first-
            read order. Version 0 records that the key was absent.
    writes: (key, value) pairs in first-write order; later puts to the
            same key replace the staged value, so keys are unique here too.

    snapshot_writes is endorse-time bookkeeping, not part of the record:
    the state's write_count captured before the simulation's first read.
    It never hits the wire, so parsed sets carry None and validate key by
    key, which must reach the same verdict.
    """

    reads: tuple = ()
    writes: tuple = ()
    snapshot_writes: int | None = field(default=None, compare=False)

    def touch_count(self) -> int:
        """Distinct keys read or written."""
        count = len(self.reads) + len(self.writes)
        if self.writes:
            # keys are distinct within each side: subtract the ones on both
            read = dict(self.reads)
            count -= sum(1 for key, _ in self.writes if key in read)
        return count

    def to_bytes(self) -> bytes:
        keys, versions = zip(*self.reads) if self.reads else ((), ())
        column = struct.pack(f">{len(versions)}Q", *versions)
        return wire.pack_strs(keys) + wire.pack_chunk(column) + pack_writes(self.writes)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "ReadWriteSet":
        keys = reader.take_strs()
        column = reader.take_chunk()
        if len(column) != 8 * len(keys):
            raise wire.WireError(
                f"{len(keys)} read keys need {8 * len(keys)} version bytes, got {len(column)}"
            )
        versions = struct.unpack(f">{len(keys)}Q", column)
        return cls(reads=tuple(zip(keys, versions)), writes=take_writes(reader))


class VersionedWorldState:
    """The committed (key -> value, version) map.

    write_count increments on every committed write, including preloads.
    Simulations capture it before their first read; validation can then
    prove "no key has moved since this snapshot" with one comparison
    instead of probing every read key.
    """

    def __init__(self):
        self._entries: dict = {}
        self.write_count = 0

    def version_of(self, key: str) -> int:
        entry = self._entries.get(key)
        return entry[1] if entry is not None else ABSENT_VERSION

    def key_count(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator:
        return iter(self._entries.items())

    def apply_write(self, key: str, value: Value) -> int:
        """Commit one write, bumping the key's version. Returns new version."""
        version = self.version_of(key) + 1
        self._entries[key] = (value, version)
        self.write_count += 1
        return version

    def bulk_load(self, keys, value) -> int:
        """Install fresh keys at version 1, all sharing one (value, 1) entry.

        Preloads repeat one value across many keys, so one shared entry
        tuple keeps lookups on warm memory. Raises ValueError, leaving the
        entries and write_count as they were, when any key is already
        present. Returns the number of keys loaded.
        """
        loaded = dict.fromkeys(keys, (value, 1))
        clash = loaded.keys() & self._entries.keys()
        if clash:
            raise ValueError(f"bulk_load over existing key {min(clash)!r}")
        self._entries.update(loaded)
        self.write_count += len(loaded)
        return len(loaded)


def digest_entries(entries: dict) -> str:
    """Order-independent SHA-256 over a key -> (value, version) map.

    Two levels: each distinct value object is hashed once, then, per key
    in sorted order, the digest takes the key as a string, its value's
    32-byte hash and its version as a u64.
    """
    h = hashlib.sha256()
    # preloads share one value object across many keys, and a value can
    # hold thousands of members: hash each object once, not once per key
    value_hashes: dict = {}
    for key in sorted(entries):
        value, version = entries[key]
        value_hash = value_hashes.get(id(value))
        if value_hash is None:
            value_hash = hashlib.sha256(value_to_bytes(value)).digest()
            value_hashes[id(value)] = value_hash
        h.update(wire.pack_str(key) + value_hash + wire.pack_u64(version))
    return h.hexdigest()


class SimulationContext:
    """Endorser-side sandbox: reads hit a state snapshot, writes are staged.

    The first read of each key records (key, committed-version); re-reads
    return the same observation without growing the read set. As with
    Fabric's GetState, a read returns the committed value even for a key
    this transaction has already staged: its own writes are not visible
    to it.

    Every read probes the committed state once, and the version and the
    value come from that one entry. Keys enter the state in three places,
    and each checks the key grammar: `put` (the engine commits only write
    sets its endorser staged here), the preload grid (its keys join
    generated pool tokens) and state-init (which regenerates that grid).
    A key found in the state has therefore passed `split_key` already, so
    only the first read of an absent key runs it. A read that fails the
    check records nothing, so a re-read fails again.
    """

    def __init__(self, state: VersionedWorldState):
        # the state's own dict lookup: one probe per read, and no Python
        # frame for it
        self._probe = state._entries.get
        # captured before the first read so an unchanged count at commit
        # time proves every observed version is still current
        self._snapshot_writes = state.write_count
        self._reads: dict = {}
        self._writes: dict = {}

    def get_value(self, key: str):
        """The committed value at key, or None when absent."""
        entry = self._probe(key)
        if key not in self._reads:
            if entry is None:
                split_key(key)
                self._reads[key] = ABSENT_VERSION
            else:
                self._reads[key] = entry[1]
        return None if entry is None else entry[0]

    def put(self, key: str, value: Value) -> None:
        split_key(key)
        if not isinstance(value, (str, frozenset)):
            raise TypeError(f"unsupported value type {type(value).__name__}")
        self._writes[key] = value

    def rwset(self) -> ReadWriteSet:
        return ReadWriteSet(
            reads=tuple(self._reads.items()),
            writes=tuple(self._writes.items()),
            snapshot_writes=self._snapshot_writes,
        )


def validate_rwset(state: VersionedWorldState, rws: ReadWriteSet) -> bool:
    """MVCC check: every read key must still be at the version observed."""
    if rws.snapshot_writes is not None and rws.snapshot_writes == state.write_count:
        # no write committed since the snapshot, so no version has moved
        return True
    for key, version in rws.reads:
        if state.version_of(key) != version:
            return False
    return True


def apply_rwset(state: VersionedWorldState, rws: ReadWriteSet) -> None:
    for key, value in rws.writes:
        state.apply_write(key, value)
