"""Deterministic world-state preloading for benchmarks.

Populating a million consent keys through individual transactions is not
workable at desk scale, so benchmark runs commit one state-init
transaction whose payload is a PreloadSpec. Committing it regenerates the
same entries the generator produced at submission time, which keeps the
chain fully replayable: an auditor re-runs the generator from the logged
parameters instead of reading a million logged writes.

Generation is pure grid enumeration, no RNG involved: keys walk the
coordinate grid for the chosen design in its segment order
(`keys.LAYOUTS`), each segment drawn from the ID pool that POOLS names
for its field, and every key carries the same shared member set (the
first `value_space` tokens of the member field's pool). The walk is one
chain of C-level iterators, and the state and the replay oracle each
install the whole grid in one call with a single shared (members, 1)
entry, so a preload runs no Python code per key. Sharing one entry across keys keeps a million-key preload within
desk memory.

ID pools are fixed-prefix, zero-based: individuals i0.., resources r0..,
roles d0.., watchdogs w0.., timeframes t0.., consumers c0.. .
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Iterator

from consentledger import wire
from consentledger.keys import LAYOUTS, SEPARATOR, KeyCodecError, WorldStateDesign


class PreloadError(ValueError):
    """Raised when a PreloadSpec cannot produce the requested key count."""


def make_pool(prefix: str, count: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(count))


# ConsentFact field -> (its ID pool's prefix, the PreloadSpec count sizing it)
POOLS = {
    "ind_id": ("i", "n_individuals"),
    "res_id": ("r", "n_resources"),
    "role_id": ("d", "n_roles"),
    "wd_id": ("w", "n_watchdogs"),
    "time_id": ("t", "n_timeframes"),
}


@dataclass(frozen=True)
class PreloadSpec:
    """Parameters that fully determine a generated world state."""

    design: WorldStateDesign
    n_individuals: int
    n_resources: int
    n_roles: int
    n_watchdogs: int
    n_timeframes: int
    key_space: int
    value_space: int

    def validate(self) -> "PreloadSpec":
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            # every pool needs a member; the key and value spaces may be empty
            floor = 0 if name in ("key_space", "value_space") else 1
            if value < floor:
                raise PreloadError(f"{name} must be >= {floor}, got {value}")
        if self.key_space > self.grid_size():
            raise PreloadError(
                f"key_space {self.key_space} exceeds the coordinate grid "
                f"({self.grid_size()} keys) for design {self.design.value}"
            )
        pool = self.member_pool_size()
        if self.value_space > pool:
            raise PreloadError(
                f"value_space {self.value_space} exceeds the member pool "
                f"({pool}) for design {self.design.value}"
            )
        return self

    def _pool(self, field: str) -> tuple:
        prefix, count_field = POOLS[field]
        return prefix, getattr(self, count_field)

    def key_axes(self) -> tuple:
        """(prefix, count) of the four key segments' pools, in segment order."""
        return tuple(map(self._pool, LAYOUTS[self.design].segments))

    def grid_size(self) -> int:
        return math.prod(count for _, count in self.key_axes())

    def member_pool_size(self) -> int:
        return self._pool(LAYOUTS[self.design].member)[1]

    def shared_members(self) -> frozenset:
        prefix, _ = self._pool(LAYOUTS[self.design].member)
        return frozenset(make_pool(prefix, self.value_space))

    def keys(self) -> Iterator[str]:
        """The first key_space keys of the grid, slowest axis first.

        One chain of C-level iterators does the walk (product over the
        four pools, islice to key_space, join, intern), so no Python frame
        runs per key. Keys are interned: the preload apply, the replay
        oracle and the workload generator each enumerate this grid
        separately, and interning makes them hold the same string objects,
        so state lookups during a run hit on identity instead of comparing
        a million keys by value. It also stores each key once.
        """
        pools = [make_pool(prefix, count) for prefix, count in self.key_axes()]
        grid = itertools.islice(itertools.product(*pools), self.key_space)
        return map(sys.intern, map(SEPARATOR.join, grid))

    def to_bytes(self) -> bytes:
        counts = [wire.pack_u64(getattr(self, name)) for name in COUNT_FIELDS]
        return wire.pack_str(self.design.value) + b"".join(counts)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "PreloadSpec":
        text = reader.take_str()
        design = WorldStateDesign.parse(text)
        if design.value != text:
            # parse() also accepts "IWS", which reserializes as "iws": the
            # hash check over reserialized bytes would miss the changed byte
            raise KeyCodecError(f"non-canonical design {text!r}")
        return cls(design, *[reader.take_u64() for _ in COUNT_FIELDS]).validate()


# the seven counts after the design, in field and wire order
COUNT_FIELDS = tuple(f.name for f in fields(PreloadSpec))[1:]


def apply_preload(state, spec: PreloadSpec) -> int:
    """Install the grid's keys at version 1. Returns the key count."""
    spec.validate()
    return state.bulk_load(spec.keys(), spec.shared_members())
