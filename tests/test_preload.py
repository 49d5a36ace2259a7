"""The preload grid: key order, interning, and how a preload is installed."""

import sys

import pytest

from consentledger.keys import WorldStateDesign
from consentledger.preload import PreloadSpec, apply_preload
from consentledger.worldstate import VersionedWorldState

# grid sizes: iws 4*2*3*2 = 48, rws 3*2*3*2 = 36, rows 4*3*2*2 = 48
COUNTS = dict(n_individuals=3, n_resources=4, n_roles=3, n_watchdogs=2, n_timeframes=2)


def _reference_grid(spec: PreloadSpec) -> list:
    """The grid by nested loops in each layout's segment order, slowest first."""
    keys = []
    if spec.design is WorldStateDesign.IWS:
        for r in range(spec.n_resources):
            for w in range(spec.n_watchdogs):
                for d in range(spec.n_roles):
                    for t in range(spec.n_timeframes):
                        keys.append(f"r{r}|w{w}|d{d}|t{t}")
    elif spec.design is WorldStateDesign.RWS:
        for i in range(spec.n_individuals):
            for w in range(spec.n_watchdogs):
                for d in range(spec.n_roles):
                    for t in range(spec.n_timeframes):
                        keys.append(f"i{i}|w{w}|d{d}|t{t}")
    else:
        for r in range(spec.n_resources):
            for i in range(spec.n_individuals):
                for w in range(spec.n_watchdogs):
                    for t in range(spec.n_timeframes):
                        keys.append(f"r{r}|i{i}|w{w}|t{t}")
    return keys[: spec.key_space]


def _specs():
    for design in WorldStateDesign:
        full = PreloadSpec(design, key_space=0, value_space=2, **COUNTS).grid_size()
        # a partial grid stops inside every axis but the slowest
        for key_space in (0, full // 2 + 3, full):
            yield PreloadSpec(design, key_space=key_space, value_space=2, **COUNTS)


@pytest.mark.parametrize("spec", list(_specs()), ids=lambda s: f"{s.design.value}-{s.key_space}")
def test_grid_matches_nested_loop_reference(spec):
    spec.validate()
    keys = list(spec.keys())
    assert keys == _reference_grid(spec)
    # interned: a second walk of the grid yields the very same objects
    assert all(again is key for again, key in zip(spec.keys(), keys))
    assert all(sys.intern(key) is key for key in keys)

    state = VersionedWorldState()
    assert apply_preload(state, spec) == spec.key_space
    assert state.write_count == spec.key_space
    entries = [entry for _key, entry in state.items()]
    assert len(entries) == spec.key_space
    if entries:
        assert entries[0] == (spec.shared_members(), 1)
        assert all(entry is entries[0] for entry in entries)
