"""Versioned store, simulation sandbox, and MVCC validation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from consentledger import wire, worldstate
from consentledger.keys import KeyCodecError
from consentledger.worldstate import (
    ABSENT_VERSION,
    ReadWriteSet,
    SimulationContext,
    VersionedWorldState,
    apply_rwset,
    digest_entries,
    validate_rwset,
    value_from_reader,
    value_to_bytes,
)


def test_absent_key():
    state = VersionedWorldState()
    assert state.key_count() == 0
    assert state.version_of("a|b|c|d") == ABSENT_VERSION == 0


def test_versions_start_at_one_and_increment():
    state = VersionedWorldState()
    assert state.apply_write("k|1|1|1", frozenset({"x"})) == 1
    assert state.apply_write("k|1|1|1", frozenset({"x", "y"})) == 2
    assert dict(state.items()) == {"k|1|1|1": (frozenset({"x", "y"}), 2)}


def test_sandbox_records_absent_reads():
    state = VersionedWorldState()
    ctx = SimulationContext(state)
    assert ctx.get_value("nope|a|b|c") is None
    rws = ctx.rwset()
    assert rws.reads == (("nope|a|b|c", 0),)


def test_sandbox_dedupes_reads():
    state = VersionedWorldState()
    state.apply_write("k|a|b|c", frozenset({"m"}))
    ctx = SimulationContext(state)
    for _ in range(5):
        ctx.get_value("k|a|b|c")
    assert ctx.rwset().reads == (("k|a|b|c", 1),)


def test_reads_ignore_staged_writes():
    state = VersionedWorldState()
    ctx = SimulationContext(state)
    ctx.put("k|a|b|c", frozenset({"m"}))
    # as with Fabric's GetState, a staged key still reads as committed
    assert ctx.get_value("k|a|b|c") is None
    # staged writes are invisible to the state until applied
    assert state.key_count() == 0
    rws = ctx.rwset()
    assert rws.reads == (("k|a|b|c", 0),)  # the committed version
    assert rws.writes == (("k|a|b|c", frozenset({"m"})),)


def test_sandbox_rejects_bad_keys_and_values():
    ctx = SimulationContext(VersionedWorldState())
    with pytest.raises(KeyCodecError):
        ctx.get_value("bad key")
    with pytest.raises(KeyCodecError):
        ctx.put("", frozenset())
    with pytest.raises(TypeError):
        ctx.put("k|a|b|c", ["not", "allowed"])


def test_sandbox_checks_only_keys_absent_from_state(monkeypatch):
    state = VersionedWorldState()
    state.apply_write("k|a|b|c", frozenset({"m"}))
    checked = []
    split_key = worldstate.split_key
    monkeypatch.setattr(
        worldstate, "split_key", lambda key: checked.append(key) or split_key(key)
    )
    ctx = SimulationContext(state)
    for _ in range(2):
        assert ctx.get_value("k|a|b|c") == frozenset({"m"})
    assert checked == []  # present keys passed the grammar when written
    for _ in range(2):
        assert ctx.get_value("new|a|b|c") is None
    assert checked == ["new|a|b|c"]  # an absent key is checked on its first read
    for _ in range(2):
        # a failed check records nothing, so a re-read fails again
        with pytest.raises(KeyCodecError):
            ctx.get_value("bad key")
    with pytest.raises(KeyCodecError):
        ctx.get_value("a||b")
    assert checked == ["new|a|b|c", "bad key", "bad key", "a||b"]
    assert ctx.rwset().reads == (("k|a|b|c", 1), ("new|a|b|c", 0))


def test_validate_rwset_version_match():
    state = VersionedWorldState()
    state.apply_write("k|a|b|c", frozenset({"m"}))
    good = ReadWriteSet(reads=(("k|a|b|c", 1),))
    stale = ReadWriteSet(reads=(("k|a|b|c", 2),))
    assert validate_rwset(state, good)
    assert not validate_rwset(state, stale)


def test_absent_read_invalidated_by_creation():
    state = VersionedWorldState()
    observed_absent = ReadWriteSet(reads=(("new|a|b|c", 0),))
    assert validate_rwset(state, observed_absent)
    state.apply_write("new|a|b|c", frozenset({"m"}))
    assert not validate_rwset(state, observed_absent)


def test_apply_rwset_bumps_versions():
    state = VersionedWorldState()
    rws = ReadWriteSet(writes=(("k|a|b|c", frozenset({"m"})),))
    apply_rwset(state, rws)
    apply_rwset(state, rws)
    assert state.version_of("k|a|b|c") == 2


def test_bulk_load_requires_fresh_keys():
    state = VersionedWorldState()
    assert state.bulk_load(["k|a|b|c"], frozenset({"m"})) == 1
    assert state.version_of("k|a|b|c") == 1
    with pytest.raises(ValueError):
        state.bulk_load(["k|a|b|c"], frozenset())


def test_bulk_load_refusal_leaves_state_unchanged():
    state = VersionedWorldState()
    state.apply_write("k|a|b|c", frozenset({"m"}))
    before = dict(state.items())
    # the clash is the last key: no key ahead of it may be installed either
    with pytest.raises(ValueError, match=r"k\|a\|b\|c"):
        state.bulk_load(["a|a|b|c", "b|a|b|c", "k|a|b|c"], frozenset({"n"}))
    assert dict(state.items()) == before
    assert state.write_count == 1


def test_digest_order_independent():
    pairs = [(f"k{i}|a|b|c", frozenset({f"m{i}"})) for i in range(20)]
    one = VersionedWorldState()
    two = VersionedWorldState()
    for key, value in pairs:
        one.apply_write(key, value)
    for key, value in reversed(pairs):
        two.apply_write(key, value)
    assert digest_entries(dict(one.items())) == digest_entries(dict(two.items()))
    two.apply_write("k0|a|b|c", frozenset({"other"}))
    assert digest_entries(dict(one.items())) != digest_entries(dict(two.items()))


def test_value_bytes_roundtrip():
    rng = random.Random(7)
    samples = ["assign", "revoke", frozenset(), frozenset({"i1"})]
    for _ in range(50):
        samples.append(frozenset(f"m{rng.randrange(1000)}" for _ in range(rng.randint(0, 30))))
    for value in samples:
        reader = wire.Reader(value_to_bytes(value))
        assert value_from_reader(reader) == value
        reader.expect_end()


def test_rwset_bytes_roundtrip():
    rng = random.Random(8)
    for _ in range(30):
        reads = tuple(
            (f"k{rng.randrange(50)}|a|b|c", rng.randrange(10)) for _ in range(rng.randint(0, 8))
        )
        writes = tuple(
            (f"w{i}|a|b|c", frozenset({f"m{rng.randrange(9)}"})) for i in range(rng.randint(0, 5))
        )
        rws = ReadWriteSet(reads=reads, writes=writes)
        reader = wire.Reader(rws.to_bytes())
        assert ReadWriteSet.from_reader(reader) == rws
        reader.expect_end()


def test_touch_count_unions_reads_and_writes():
    rws = ReadWriteSet(
        reads=(("a|x|y|z", 1), ("b|x|y|z", 0)),
        writes=(("a|x|y|z", frozenset()), ("c|x|y|z", "assign")),
    )
    assert rws.touch_count() == 3


KEYS = st.sampled_from(["a|x", "b|x", "c|x", "d|x", "e|x"])


@given(
    st.dictionaries(KEYS, st.integers(0, 3)),
    st.dictionaries(KEYS, st.just("assign")),
)
def test_touch_count_counts_distinct_keys(reads, writes):
    rws = ReadWriteSet(reads=tuple(reads.items()), writes=tuple(writes.items()))
    assert rws.touch_count() == len(set(reads) | set(writes))
