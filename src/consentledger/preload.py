"""Deterministic world-state preloading for benchmarks.

Populating a million consent keys through individual transactions is not
workable at desk scale, so benchmark runs commit one state-init
transaction whose payload is a PreloadSpec. Committing it regenerates the
same entries the generator produced at submission time, which keeps the
chain fully replayable: an auditor re-runs the generator from the logged
parameters instead of reading a million logged writes.

Generation is pure grid enumeration, no RNG involved: keys walk the
coordinate grid for the chosen design in a fixed segment order and every
key carries the same shared member set (the first `value_space` tokens of
the member pool). Sharing one frozenset across keys keeps a million-key
preload within desk memory.

ID pools are fixed-prefix, zero-based: individuals i0.., resources r0..,
roles d0.., watchdogs w0.., timeframes t0.., consumers c0.. .
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterator

from consentledger import wire
from consentledger.keys import SEPARATOR, KeyCodecError, WorldStateDesign


class PreloadError(ValueError):
    """Raised when a PreloadSpec cannot produce the requested key count."""


def make_pool(prefix: str, count: int) -> tuple:
    return tuple(f"{prefix}{i}" for i in range(count))


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
        for name in (
            "n_individuals",
            "n_resources",
            "n_roles",
            "n_watchdogs",
            "n_timeframes",
        ):
            if getattr(self, name) < 1:
                raise PreloadError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.key_space < 0 or self.value_space < 0:
            raise PreloadError("key_space and value_space must be >= 0")
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

    def key_axes(self) -> tuple:
        """Pool sizes for the four key segments, in segment order."""
        if self.design is WorldStateDesign.IWS:
            return (
                ("r", self.n_resources),
                ("w", self.n_watchdogs),
                ("d", self.n_roles),
                ("t", self.n_timeframes),
            )
        if self.design is WorldStateDesign.RWS:
            return (
                ("i", self.n_individuals),
                ("w", self.n_watchdogs),
                ("d", self.n_roles),
                ("t", self.n_timeframes),
            )
        return (
            ("r", self.n_resources),
            ("i", self.n_individuals),
            ("w", self.n_watchdogs),
            ("t", self.n_timeframes),
        )

    def grid_size(self) -> int:
        size = 1
        for _, count in self.key_axes():
            size *= count
        return size

    def member_pool_size(self) -> int:
        if self.design is WorldStateDesign.IWS:
            return self.n_individuals
        if self.design is WorldStateDesign.RWS:
            return self.n_resources
        return self.n_roles

    def member_pool_prefix(self) -> str:
        if self.design is WorldStateDesign.IWS:
            return "i"
        if self.design is WorldStateDesign.RWS:
            return "r"
        return "d"

    def shared_members(self) -> frozenset:
        return frozenset(make_pool(self.member_pool_prefix(), self.value_space))

    def keys(self) -> Iterator[str]:
        """The first key_space keys of the grid, slowest axis first.

        Keys are interned: the preload apply and the workload generator
        each enumerate this grid separately, and interning makes both
        sides hold the same string objects, so state lookups during a
        run hit on identity instead of comparing a million keys by
        value. It also stores each key once instead of twice.
        """
        axes = [make_pool(prefix, count) for prefix, count in self.key_axes()]
        produced = 0
        for combo in itertools.product(*axes):
            if produced >= self.key_space:
                return
            produced += 1
            yield sys.intern(SEPARATOR.join(combo))

    def entries(self) -> Iterator:
        members = self.shared_members()
        for key in self.keys():
            yield key, members

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                wire.pack_str(self.design.value),
                wire.pack_u64(self.n_individuals),
                wire.pack_u64(self.n_resources),
                wire.pack_u64(self.n_roles),
                wire.pack_u64(self.n_watchdogs),
                wire.pack_u64(self.n_timeframes),
                wire.pack_u64(self.key_space),
                wire.pack_u64(self.value_space),
            )
        )

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "PreloadSpec":
        text = reader.take_str()
        design = WorldStateDesign.parse(text)
        if design.value != text:
            # parse() also accepts "IWS", which reserializes as "iws": the
            # hash check over reserialized bytes would miss the changed byte
            raise KeyCodecError(f"non-canonical design {text!r}")
        return cls(
            design=design,
            n_individuals=reader.take_u64(),
            n_resources=reader.take_u64(),
            n_roles=reader.take_u64(),
            n_watchdogs=reader.take_u64(),
            n_timeframes=reader.take_u64(),
            key_space=reader.take_u64(),
            value_space=reader.take_u64(),
        ).validate()


def apply_preload(state, spec: PreloadSpec) -> int:
    """Install the generated entries at version 1. Returns the key count."""
    spec.validate()
    return state.bulk_load(spec.entries())
