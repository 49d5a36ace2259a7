"""Key grammar and codec behaviour."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consentledger.keys import (
    ConsentFact,
    KeyCodecError,
    WorldStateDesign,
    decode_consent_key,
    decode_role_key,
    encode_consent_key,
    encode_role_key,
    is_consent_key,
    is_role_key,
    split_key,
    validate_token,
)

FACT = ConsentFact(ind_id="i1", res_id="r1", role_id="d1", wd_id="w1", time_id="t1")


def test_iws_layout():
    key, member = encode_consent_key(WorldStateDesign.IWS, FACT)
    assert key == "r1|w1|d1|t1"
    assert member == "i1"


def test_rws_layout():
    key, member = encode_consent_key(WorldStateDesign.RWS, FACT)
    assert key == "i1|w1|d1|t1"
    assert member == "r1"


def test_rows_layout():
    key, member = encode_consent_key(WorldStateDesign.ROWS, FACT)
    assert key == "r1|i1|w1|t1"
    assert member == "d1"


def test_role_key_layout():
    assert encode_role_key("d1", "c9", "w1") == "d1|c9|w1"
    assert decode_role_key("d1|c9|w1") == ("d1", "c9", "w1")


def _random_token(rng):
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))


def test_encode_decode_roundtrip():
    rng = random.Random(42)
    for _ in range(200):
        fact = ConsentFact(
            ind_id=_random_token(rng),
            res_id=_random_token(rng),
            role_id=_random_token(rng),
            wd_id=_random_token(rng),
            time_id=_random_token(rng),
        )
        for design in WorldStateDesign:
            key, member = encode_consent_key(design, fact)
            assert decode_consent_key(design, key, member) == fact


def test_encoding_injective_per_design():
    rng = random.Random(43)
    for design in WorldStateDesign:
        seen = {}
        for _ in range(300):
            fact = ConsentFact(
                ind_id=_random_token(rng),
                res_id=_random_token(rng),
                role_id=_random_token(rng),
                wd_id=_random_token(rng),
                time_id=_random_token(rng),
            )
            pair = encode_consent_key(design, fact)
            if pair in seen:
                assert seen[pair] == fact
            seen[pair] = fact


@pytest.mark.parametrize("bad", ["", "a|b", "a b", "pipe|", "ünïcode", "x\n", "a,b"])
def test_bad_tokens_rejected(bad):
    with pytest.raises(KeyCodecError):
        validate_token(bad)
    with pytest.raises(KeyCodecError):
        ConsentFact(bad or "x|y", "r1", "d1", "w1", "t1").validate()


def test_decode_wrong_shape():
    with pytest.raises(KeyCodecError):
        decode_consent_key(WorldStateDesign.IWS, "a|b|c", "m")
    with pytest.raises(KeyCodecError):
        decode_role_key("a|b|c|d")
    with pytest.raises(KeyCodecError):
        split_key("a||b")


def test_keyspace_shapes_disjoint():
    consent_key, _ = encode_consent_key(WorldStateDesign.IWS, FACT)
    role_key = encode_role_key("d1", "c9", "w1")
    assert is_consent_key(consent_key) and not is_role_key(consent_key)
    assert is_role_key(role_key) and not is_consent_key(role_key)


def test_design_parse():
    assert WorldStateDesign.parse("IWS") is WorldStateDesign.IWS
    assert WorldStateDesign.parse(" rows ") is WorldStateDesign.ROWS
    with pytest.raises(KeyCodecError):
        WorldStateDesign.parse("xyz")


def _split_by_segments(key: str):
    """split_key's definition, one segment at a time; None when invalid."""
    if not key:
        return None
    segments = tuple(key.split("|"))
    try:
        for seg in segments:
            validate_token(seg, "key segment")
    except KeyCodecError:
        return None
    return segments


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="ab09_-|\n é\u00fc\u0130\u212a\u0663,"))
@example("")
@example("|")
@example("a||b")
@example("a|b\n")
@example("\u00e9|b")
@example("\u212a|b")
def test_split_key_matches_segment_definition(key):
    expected = _split_by_segments(key)
    if expected is None:
        with pytest.raises(KeyCodecError):
            split_key(key)
    else:
        assert split_key(key) == expected
