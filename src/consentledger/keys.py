"""Identifier grammar and world-state key codecs.

A consent fact names five actors/coordinates: an individual grants a role
the right to reach one resource under one watchdog's regime during one
timeframe. The same fact set can be laid out in the key-value world state
three ways, trading write fan-out against read fan-out:

  iws   key = res_id|wd_id|role_id|time_id   value = set of ind_id
  rws   key = ind_id|wd_id|role_id|time_id   value = set of res_id
  rows  key = res_id|ind_id|wd_id|time_id    value = set of role_id

Role assignments live in a separate keyspace so watchdog traffic never
collides with consent traffic:

  role  key = role_id|dc_id|wd_id            value = "assign" or "revoke"

Key grammar (ABNF):

  token       = 1*(ALPHA / DIGIT / "-" / "_")
  consent-key = token "|" token "|" token "|" token
  role-key    = token "|" token "|" token

Tokens never contain the pipe separator, so segment splits are unambiguous
and every (ids -> key) encoding is injective. Consent keys have four
segments and role keys three, which keeps the two keyspaces disjoint.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

TOKEN_PATTERN = re.compile(r"[A-Za-z0-9_-]+\Z")
# a whole key: one or more tokens joined by the separator
KEY_PATTERN = re.compile(r"[A-Za-z0-9_-]+(?:\|[A-Za-z0-9_-]+)*\Z")
SEPARATOR = "|"

ROLE_ASSIGNED = "assign"
ROLE_REVOKED = "revoke"


class KeyCodecError(ValueError):
    """Raised for malformed tokens or keys that do not fit the grammar."""


class WorldStateDesign(enum.Enum):
    """Which coordinate of a consent fact becomes the value member."""

    IWS = "iws"
    RWS = "rws"
    ROWS = "rows"

    @classmethod
    def parse(cls, text: str) -> "WorldStateDesign":
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(d.value for d in cls)
            raise KeyCodecError(f"unknown design {text!r}; expected one of {names}")


def validate_token(token: str, what: str = "token") -> str:
    if not TOKEN_PATTERN.match(token):
        raise KeyCodecError(f"invalid {what} {token!r}: must match [A-Za-z0-9_-]+")
    return token


@dataclass(frozen=True)
class ConsentFact:
    """One grantable unit of consent, independent of key layout."""

    ind_id: str
    res_id: str
    role_id: str
    wd_id: str
    time_id: str

    def validate(self) -> "ConsentFact":
        validate_token(self.ind_id, "ind_id")
        validate_token(self.res_id, "res_id")
        validate_token(self.role_id, "role_id")
        validate_token(self.wd_id, "wd_id")
        validate_token(self.time_id, "time_id")
        return self


def iws_key(res_id: str, wd_id: str, role_id: str, time_id: str) -> str:
    return SEPARATOR.join((res_id, wd_id, role_id, time_id))


def rws_key(ind_id: str, wd_id: str, role_id: str, time_id: str) -> str:
    return SEPARATOR.join((ind_id, wd_id, role_id, time_id))


def rows_key(res_id: str, ind_id: str, wd_id: str, time_id: str) -> str:
    return SEPARATOR.join((res_id, ind_id, wd_id, time_id))


def encode_consent_key(design: WorldStateDesign, fact: ConsentFact) -> tuple[str, str]:
    """Return (key, member): where the fact lives and what joins the value set."""
    fact.validate()
    if design is WorldStateDesign.IWS:
        return iws_key(fact.res_id, fact.wd_id, fact.role_id, fact.time_id), fact.ind_id
    if design is WorldStateDesign.RWS:
        return rws_key(fact.ind_id, fact.wd_id, fact.role_id, fact.time_id), fact.res_id
    return rows_key(fact.res_id, fact.ind_id, fact.wd_id, fact.time_id), fact.role_id


def encode_role_key(role_id: str, dc_id: str, wd_id: str) -> str:
    validate_token(role_id, "role_id")
    validate_token(dc_id, "dc_id")
    validate_token(wd_id, "wd_id")
    return SEPARATOR.join((role_id, dc_id, wd_id))


def split_key(key: str) -> tuple[str, ...]:
    """Split any world-state key into validated tokens."""
    if not key:
        raise KeyCodecError("empty key")
    segments = tuple(key.split(SEPARATOR))
    if KEY_PATTERN.match(key) is None:
        # one match checks the whole key; the segment loop only names the
        # offending segment in the error
        for seg in segments:
            validate_token(seg, "key segment")
        raise KeyCodecError(f"invalid key {key!r}")
    return segments

