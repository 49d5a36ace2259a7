"""Contract logic executed inside an endorsement sandbox.

Every operation runs read-then-write on the keys it owns, so the captured
read set makes same-key operations conflict under MVCC exactly when they
must: two consent updates to one key serialize across blocks, while
access requests (pure reads) never conflict with each other. Role
administration lives in its own three-segment keyspace and therefore
never collides with consent traffic.

Key touch counts per operation (reads union writes):

  grant/revoke consent   1
  assign/revoke role     1
  access request         2 for iws, n+1 for rws/rows (n = roster size),
                         1 when the role is not assigned (denied early)

The access request reads the key layout from `keys.LAYOUTS`: when the
member set holds individuals (iws) it reads one consent key; otherwise
the individual is a key segment and one loop scans the roster for both
rws and rows.

A granted iws answer lists the key's member set sorted, through `order`:
a bounded `lru_cache` around `sorted_members` that each engine passes in
and that lives as long as the engine. A preload shares one value object
across its keys, so an engine sorts it once and later answers hit on
identity. A module-level memo would keep an earlier engine's preload as
its key, and a later engine's equal but distinct preload would pay a
full set comparison on every hit. The rws/rows scan builds its list per
request in roster order and sorts it itself.
"""

from __future__ import annotations

from consentledger.keys import (
    LAYOUTS,
    ROLE_ASSIGNED,
    ROLE_REVOKED,
    SEPARATOR,
    WorldStateDesign,
    consent_key,
    encode_consent_key,
    encode_role_key,
    validate_members,
    validate_token,
)
from consentledger.transactions import (
    AccessGrantRecord,
    PayloadKind,
    TransactionPayload,
    access_coordinates,
)
from consentledger.worldstate import SimulationContext


class ContractError(Exception):
    """Raised when a payload cannot execute against the observed state."""


def _member_set(ctx: SimulationContext, key: str) -> frozenset:
    value = ctx.get_value(key)
    if value is None:
        return frozenset()
    if not isinstance(value, frozenset):
        raise ContractError(f"key {key!r} holds a marker, expected a member set")
    return value


def _update_consent(ctx: SimulationContext, payload: TransactionPayload,
                    design: WorldStateDesign) -> None:
    key, member = encode_consent_key(design, payload.fact)
    members = _member_set(ctx, key)
    if payload.kind is PayloadKind.GRANT_CONSENT:
        ctx.put(key, members | {member})
    else:
        ctx.put(key, members - {member})


def _update_role(ctx: SimulationContext, payload: TransactionPayload) -> None:
    key = encode_role_key(payload.role_id, payload.dc_id, payload.wd_id)
    current = ctx.get_value(key)
    if current is not None and not isinstance(current, str):
        raise ContractError(f"key {key!r} holds a member set, expected a marker")
    marker = (
        ROLE_ASSIGNED if payload.kind is PayloadKind.ASSIGN_ROLE else ROLE_REVOKED
    )
    ctx.put(key, marker)


def sorted_members(members: frozenset) -> tuple:
    """The members of a member set in sorted order."""
    return tuple(sorted(members))


def _access_request(ctx: SimulationContext, payload: TransactionPayload,
                    design: WorldStateDesign, roster, order) -> AccessGrantRecord:
    # the role key checks the other three tokens; these two only reach
    # consent keys, where a separator would add a segment unnoticed
    validate_token(payload.res_id, "res_id")
    validate_token(payload.time_id, "time_id")
    role_key = encode_role_key(payload.role_id, payload.dc_id, payload.wd_id)
    marker = ctx.get_value(role_key)
    if marker is not None and not isinstance(marker, str):
        raise ContractError(f"key {role_key!r} holds a member set, expected a marker")
    coordinates = access_coordinates(payload)
    if marker != ROLE_ASSIGNED:
        return AccessGrantRecord(*coordinates, granted=False)
    segments, member = LAYOUTS[design]
    if member == "ind_id":
        members = _member_set(ctx, consent_key(design, payload))
        return AccessGrantRecord(*coordinates, True, order(members))
    # the key's other segments come from the request; the scan fills in
    # each individual between them
    split = segments.index("ind_id")
    head = "".join([getattr(payload, name) + SEPARATOR for name in segments[:split]])
    tail = "".join([SEPARATOR + getattr(payload, name) for name in segments[split + 1:]])
    wanted = getattr(payload, member)
    consenting = [
        ind_id for ind_id in roster
        if wanted in _member_set(ctx, head + ind_id + tail)
    ]
    return AccessGrantRecord(*coordinates, True, tuple(sorted(consenting)))


def execute_payload(
    ctx: SimulationContext,
    payload: TransactionPayload,
    design: WorldStateDesign,
    roster,
    order,
) -> AccessGrantRecord | None:
    """Run one payload in the sandbox; returns the decision for access ops.

    order maps a member set to its sorted tuple (`sorted_members` or a memo of it).
    """
    kind = payload.kind
    if kind in (PayloadKind.GRANT_CONSENT, PayloadKind.REVOKE_CONSENT):
        _update_consent(ctx, payload, design)
        return None
    if kind in (PayloadKind.ASSIGN_ROLE, PayloadKind.REVOKE_ROLE):
        _update_role(ctx, payload)
        return None
    if kind is PayloadKind.ACCESS_REQUEST:
        return _access_request(ctx, payload, design, roster, order)
    if kind is PayloadKind.RAW_READ:
        for key in payload.read_keys:
            ctx.get_value(key)
        return None
    if kind is PayloadKind.RAW_WRITE:
        for key, value in payload.write_items:
            if isinstance(value, frozenset):
                validate_members(value)
            elif not isinstance(value, str):
                raise ContractError(f"key {key!r}: a value is a str or a frozenset, "
                                    f"not {type(value).__name__}")
            ctx.put(key, value)
        return None
    raise ContractError(f"{kind.label} is applied at commit time, not simulated")
