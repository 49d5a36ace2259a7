"""Versioned key-value world state with MVCC read-write set validation.

Every committed key carries a monotonically increasing version, starting
at 1 the first time it is written. Version 0 means "never written"; reads
of absent keys are recorded at version 0 and validated like any other
read, so a key that springs into existence between endorsement and commit
invalidates the transactions that observed its absence.

A value is either a frozenset of member tokens (consent sets) or a short
string marker (role assignments). Canonical value bytes, used for
hashing and on-disk records, are tagged: 0x01 marker string, 0x02 sorted
member set.
"""

from __future__ import annotations

import hashlib
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
        out = [wire.pack_u8(_TAG_MEMBERS), wire.pack_u32(len(value))]
        for member in sorted(value):
            out.append(wire.pack_str(member))
        return b"".join(out)
    raise TypeError(f"unsupported value type {type(value).__name__}")


def value_from_reader(reader: wire.Reader) -> Value:
    tag = reader.take_u8()
    if tag == _TAG_MARKER:
        return reader.take_str()
    if tag == _TAG_MEMBERS:
        count = reader.take_u32()
        members = [reader.take_str() for _ in range(count)]
        # value_to_bytes writes members sorted and distinct; any other
        # order would re-encode differently from the bytes that were read
        # and hashed
        if any(a >= b for a, b in zip(members, members[1:])):
            raise wire.WireError("value members must be sorted and distinct")
        return frozenset(members)
    raise wire.WireError(f"unknown value tag 0x{tag:02x}")


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

    def read_keys(self) -> tuple:
        return tuple(k for k, _ in self.reads)

    def write_keys(self) -> tuple:
        return tuple(k for k, _ in self.writes)

    def touched_keys(self) -> frozenset:
        return frozenset(self.read_keys()) | frozenset(self.write_keys())

    def touch_count(self) -> int:
        return len(self.touched_keys())

    def to_bytes(self) -> bytes:
        out = [wire.pack_u32(len(self.reads))]
        for key, version in self.reads:
            out.append(wire.pack_str(key))
            out.append(wire.pack_u64(version))
        out.append(wire.pack_u32(len(self.writes)))
        for key, value in self.writes:
            out.append(wire.pack_str(key))
            out.append(wire.pack_chunk(value_to_bytes(value)))
        return b"".join(out)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "ReadWriteSet":
        n_reads = reader.take_u32()
        reads = tuple((reader.take_str(), reader.take_u64()) for _ in range(n_reads))
        n_writes = reader.take_u32()
        writes = []
        for _ in range(n_writes):
            key = reader.take_str()
            sub = wire.Reader(reader.take_chunk())
            value = value_from_reader(sub)
            sub.expect_end()
            writes.append((key, value))
        return cls(reads=reads, writes=tuple(writes))


class VersionedWorldState:
    """The committed (key -> value, version) map plus the chain height.

    write_count increments on every committed write, including preloads.
    Simulations capture it before their first read; validation can then
    prove "no key has moved since this snapshot" with one comparison
    instead of probing every read key.
    """

    def __init__(self):
        self._entries: dict = {}
        self.height = 0
        self.write_count = 0

    def get(self, key: str):
        """Return (value, version) or None when the key was never written."""
        return self._entries.get(key)

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

    def bulk_load(self, items) -> int:
        """Install preload entries at version 1; keys must be fresh."""
        count = 0
        # preloads repeat one value object across many keys: reuse one
        # entry tuple per distinct object so lookups hit warm memory
        shared_entries: dict = {}
        for key, value in items:
            if key in self._entries:
                raise ValueError(f"bulk_load over existing key {key!r}")
            entry = shared_entries.get(id(value))
            if entry is None:
                entry = (value, 1)
                shared_entries[id(value)] = entry
            self._entries[key] = entry
            count += 1
        self.write_count += count
        return count

    def digest(self) -> str:
        """Order-independent SHA-256 over (key, value, version) triples."""
        return digest_entries(self._entries)


def digest_entries(entries: dict) -> str:
    """Order-independent SHA-256 over a key -> (value, version) map."""
    h = hashlib.sha256()
    # preloads share one value object across many keys: serialize each
    # distinct object once instead of once per key
    by_object: dict = {}
    for key in sorted(entries):
        value, version = entries[key]
        encoded = by_object.get(id(value))
        if encoded is None:
            encoded = value_to_bytes(value)
            by_object[id(value)] = encoded
        h.update(wire.pack_str(key))
        h.update(wire.pack_chunk(encoded))
        h.update(wire.pack_u64(version))
    return h.hexdigest()


class SimulationContext:
    """Endorser-side sandbox: reads hit a state snapshot, writes are staged.

    The first read of each key records (key, committed-version); re-reads
    return the same observation without growing the read set. Reads of a
    key this transaction already staged return the staged value
    (read-your-writes) but still record the committed version underneath.
    """

    def __init__(self, state: VersionedWorldState):
        self._state = state
        # captured before the first read so an unchanged count at commit
        # time proves every observed version is still current
        self._snapshot_writes = state.write_count
        self._reads: dict = {}
        self._writes: dict = {}

    def get(self, key: str):
        split_key(key)
        if key not in self._reads:
            self._reads[key] = self._state.version_of(key)
        if key in self._writes:
            return self._writes[key], self._reads[key]
        entry = self._state.get(key)
        return entry if entry is not None else None

    def get_value(self, key: str, default: Value = None):
        entry = self.get(key)
        return entry[0] if entry is not None else default

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
