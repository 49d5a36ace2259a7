"""Contract semantics: key traffic, decisions, and cross-design agreement."""

import itertools
import random

import pytest

from consentledger.contracts import ContractError, execute_payload, sorted_members
from consentledger.keys import (
    ROLE_ASSIGNED,
    ROLE_REVOKED,
    ConsentFact,
    WorldStateDesign,
    encode_consent_key,
)
from consentledger.transactions import (
    PayloadKind,
    access_request,
    assign_role,
    grant_consent,
    raw_read,
    raw_write,
    revoke_consent,
    revoke_role,
    state_init,
)
from consentledger.worldstate import SimulationContext, VersionedWorldState, apply_rwset

DESIGNS = (WorldStateDesign.IWS, WorldStateDesign.RWS, WorldStateDesign.ROWS)
FACT = ConsentFact("i1", "r1", "d1", "w1", "t1")


def _run(state, payload, design, roster=()):
    ctx = SimulationContext(state)
    result = execute_payload(ctx, payload, design, roster, sorted_members)
    return ctx.rwset(), result


def _apply(state, payload, design, roster=()):
    rws, result = _run(state, payload, design, roster)
    apply_rwset(state, rws)
    return result


@pytest.mark.parametrize("design", DESIGNS)
def test_grant_reads_then_writes_one_key(design):
    state = VersionedWorldState()
    rws, _ = _run(state, grant_consent("i1", FACT), design)
    key, member = encode_consent_key(design, FACT)
    assert rws.reads == ((key, 0),)
    assert rws.writes == ((key, frozenset({member})),)
    assert rws.touch_count() == 1


def test_design_key_layouts():
    state = VersionedWorldState()
    expect = {
        WorldStateDesign.IWS: ("r1|w1|d1|t1", "i1"),
        WorldStateDesign.RWS: ("i1|w1|d1|t1", "r1"),
        WorldStateDesign.ROWS: ("r1|i1|w1|t1", "d1"),
    }
    for design, (key, member) in expect.items():
        rws, _ = _run(state, grant_consent("i1", FACT), design)
        assert rws.writes == ((key, frozenset({member})),)


@pytest.mark.parametrize("design", DESIGNS)
def test_grant_then_revoke_roundtrip(design):
    state = VersionedWorldState()
    key, member = encode_consent_key(design, FACT)
    _apply(state, grant_consent("i1", FACT), design)
    assert dict(state.items())[key] == (frozenset({member}), 1)
    _apply(state, revoke_consent("i1", FACT), design)
    assert dict(state.items())[key] == (frozenset(), 2)


def test_revoke_consent_on_absent_key_writes_empty_set():
    state = VersionedWorldState()
    design = WorldStateDesign.IWS
    rws, _ = _run(state, revoke_consent("i1", FACT), design)
    key, _member = encode_consent_key(design, FACT)
    assert rws.reads == ((key, 0),)
    assert rws.writes == ((key, frozenset()),)


def test_role_assign_and_revoke():
    state = VersionedWorldState()
    design = WorldStateDesign.IWS
    rws, _ = _run(state, assign_role("w1", "d1", "c9", "w1"), design)
    assert rws.writes == (("d1|c9|w1", ROLE_ASSIGNED),)
    assert rws.touch_count() == 1
    apply_rwset(state, rws)
    _apply(state, revoke_role("w1", "d1", "c9", "w1"), design)
    assert dict(state.items())["d1|c9|w1"] == (ROLE_REVOKED, 2)


def test_revoke_unassigned_role_still_writes_marker():
    state = VersionedWorldState()
    rws, _ = _run(state, revoke_role("w1", "d1", "c9", "w1"), WorldStateDesign.IWS)
    assert rws.writes == (("d1|c9|w1", ROLE_REVOKED),)


def _grant_all(state, design, individuals, res_id="r1"):
    for ind in individuals:
        fact = ConsentFact(ind, res_id, "d1", "w1", "t1")
        _apply(state, grant_consent(ind, fact), design)


def test_access_touch_counts_per_design():
    roster = tuple(f"i{k}" for k in range(5))
    request = access_request("c9", "c9", "d1", "w1", "r1", "t1")
    for design, expected in ((WorldStateDesign.IWS, 2),
                             (WorldStateDesign.RWS, 6),
                             (WorldStateDesign.ROWS, 6)):
        state = VersionedWorldState()
        _apply(state, assign_role("w1", "d1", "c9", "w1"), design)
        _grant_all(state, design, roster[:3])
        rws, result = _run(state, request, design, roster)
        assert rws.touch_count() == expected
        assert rws.writes == ()
        assert result.granted
        assert result.consenting_individuals == ("i0", "i1", "i2")


def test_denied_access_touches_only_the_role_key():
    roster = ("i1", "i2")
    request = access_request("c9", "c9", "d1", "w1", "r1", "t1")
    for design in DESIGNS:
        state = VersionedWorldState()
        rws, result = _run(state, request, design, roster)
        assert rws.reads == (("d1|c9|w1", 0),)
        assert rws.touch_count() == 1
        assert not result.granted
        assert result.consenting_individuals == ()

        _apply(state, assign_role("w1", "d1", "c9", "w1"), design)
        _apply(state, revoke_role("w1", "d1", "c9", "w1"), design)
        rws, result = _run(state, request, design, roster)
        assert rws.touch_count() == 1
        assert not result.granted


def test_access_with_zero_consenters_is_granted_and_empty():
    request = access_request("c9", "c9", "d1", "w1", "r1", "t1")
    for design in DESIGNS:
        state = VersionedWorldState()
        _apply(state, assign_role("w1", "d1", "c9", "w1"), design)
        _rws, result = _run(state, request, design, ("i1",))
        assert result.granted
        assert result.consenting_individuals == ()


def test_designs_agree_on_random_histories():
    rng = random.Random(41)
    individuals = tuple(f"i{k}" for k in range(4))
    resources = tuple(f"r{k}" for k in range(3))
    states = {design: VersionedWorldState() for design in DESIGNS}
    _grant = 0
    for step in range(120):
        ind = rng.choice(individuals)
        res = rng.choice(resources)
        fact = ConsentFact(ind, res, "d1", "w1", "t1")
        payload = (grant_consent if rng.random() < 0.6 else revoke_consent)(ind, fact)
        for design in DESIGNS:
            _apply(states[design], payload, design)
        if step == 0:
            for design in DESIGNS:
                _apply(states[design], assign_role("w1", "d1", "c9", "w1"), design)
    for res in resources:
        request = access_request("c9", "c9", "d1", "w1", res, "t1")
        answers = set()
        for design in DESIGNS:
            _rws, result = _run(states[design], request, design, individuals)
            answers.add((result.granted, result.consenting_individuals))
        assert len(answers) == 1


def test_marker_where_set_expected_raises():
    state = VersionedWorldState()
    design = WorldStateDesign.IWS
    key, _member = encode_consent_key(design, FACT)
    state.apply_write(key, ROLE_ASSIGNED)
    with pytest.raises(ContractError):
        _run(state, grant_consent("i1", FACT), design)


def test_set_where_marker_expected_raises():
    state = VersionedWorldState()
    state.apply_write("d1|c9|w1", frozenset({"x"}))
    with pytest.raises(ContractError):
        _run(state, assign_role("w1", "d1", "c9", "w1"), WorldStateDesign.IWS)
    with pytest.raises(ContractError):
        _run(state, access_request("c9", "c9", "d1", "w1", "r1", "t1"),
             WorldStateDesign.IWS, ("i1",))


@pytest.mark.parametrize("design", (WorldStateDesign.RWS, WorldStateDesign.ROWS))
def test_marker_in_scanned_key_raises(design):
    state = VersionedWorldState()
    _apply(state, assign_role("w1", "d1", "c9", "w1"), design)
    roster = ("i1", "i2", "i3")
    facts = [ConsentFact(ind, "r1", "d1", "w1", "t1") for ind in roster]
    for fact in facts:
        _apply(state, grant_consent(fact.ind_id, fact), design)
    request = access_request("c9", "c9", "d1", "w1", "r1", "t1")
    _rws, result = _run(state, request, design, roster)
    assert result.granted and result.consenting_individuals == roster
    key, _member = encode_consent_key(design, facts[1])
    state.apply_write(key, ROLE_ASSIGNED)
    with pytest.raises(ContractError):
        _run(state, request, design, roster)


def test_raw_payloads():
    state = VersionedWorldState()
    state.apply_write("a|b|c|d", frozenset({"m"}))
    rws, _ = _run(state, raw_read("c9", ["a|b|c|d", "x|y|z|q"]), WorldStateDesign.IWS)
    assert rws.reads == (("a|b|c|d", 1), ("x|y|z|q", 0))
    rws, _ = _run(
        state,
        raw_write("c9", [("k1|a|b|c", frozenset({"v"})), ("k2|a|b|c", "assign")]),
        WorldStateDesign.IWS,
    )
    assert rws.reads == ()
    assert len(rws.writes) == 2


def test_state_init_not_simulated():
    from consentledger.preload import PreloadSpec

    spec = PreloadSpec(
        design=WorldStateDesign.IWS,
        n_individuals=1,
        n_resources=1,
        n_roles=1,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=1,
        value_space=1,
    )
    state = VersionedWorldState()
    with pytest.raises(ContractError):
        _run(state, state_init("w0", spec), WorldStateDesign.IWS)
