"""Actor registry and transaction authorization.

Three actor kinds exist: individuals (grant and revoke their own
consent), watchdogs (administer role assignments under their own id),
and data consumers (submit access requests under their own id). An
individual record may carry an alias naming another registered
individual it is allowed to act for; the effective actor recorded
on-chain is always the individual the consent belongs to.

Registry file format, one record per line:

    kind,id[,alias]

where kind is individual / watchdog / consumer. Blank lines and lines
starting with '#' are skipped. An alias line must appear after the line
registering its target, since aliases are checked at registration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from consentledger.keys import validate_token
from consentledger.transactions import (
    CONSENT_KINDS,
    ROLE_KINDS,
    PayloadKind,
    TransactionPayload,
)


class ActorKind(enum.Enum):
    INDIVIDUAL = "individual"
    WATCHDOG = "watchdog"
    CONSUMER = "consumer"


@dataclass(frozen=True)
class ActorRecord:
    actor_id: str
    kind: ActorKind
    alias: str | None = None


class MembershipError(ValueError):
    """Raised for malformed or conflicting registry records."""


class AuthorizationError(Exception):
    """Raised when a payload fails the authorization matrix."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class MembershipRegistry:
    def __init__(self):
        self._records: dict = {}
        self._individuals: list = []

    def register(self, record: ActorRecord) -> None:
        validate_token(record.actor_id, "actor_id")
        if record.actor_id in self._records:
            raise MembershipError(f"duplicate actor id {record.actor_id!r}")
        if record.alias is not None:
            if record.kind is not ActorKind.INDIVIDUAL:
                raise MembershipError("only individuals may carry an alias")
            target = self._records.get(record.alias)
            if target is None or target.kind is not ActorKind.INDIVIDUAL:
                raise MembershipError(
                    f"alias target {record.alias!r} is not a registered individual"
                )
        self._records[record.actor_id] = record
        if record.kind is ActorKind.INDIVIDUAL:
            self._individuals.append(record.actor_id)

    def get(self, actor_id: str) -> ActorRecord | None:
        return self._records.get(actor_id)

    def __len__(self) -> int:
        return len(self._records)

    def roster(self) -> tuple:
        """All registered individual ids, in registration order."""
        return tuple(self._individuals)

    def authorize(self, payload: TransactionPayload) -> str:
        """Check the payload against the matrix; return the effective actor."""
        record = self._records.get(payload.actor)
        if record is None:
            raise AuthorizationError(f"actor {payload.actor!r} is not registered")
        if payload.kind in CONSENT_KINDS:
            if record.kind is not ActorKind.INDIVIDUAL:
                raise AuthorizationError(
                    f"{record.kind.value} {payload.actor!r} cannot submit consent ops"
                )
            target = payload.fact.ind_id
            if payload.actor == target:
                return target
            if record.alias == target:
                return target
            raise AuthorizationError(
                f"individual {payload.actor!r} cannot act for {target!r}"
            )
        if payload.kind in ROLE_KINDS:
            if record.kind is not ActorKind.WATCHDOG:
                raise AuthorizationError(
                    f"{record.kind.value} {payload.actor!r} cannot administer roles"
                )
            if payload.actor != payload.wd_id:
                raise AuthorizationError(
                    f"watchdog {payload.actor!r} cannot act as {payload.wd_id!r}"
                )
            return payload.actor
        if payload.kind is PayloadKind.ACCESS_REQUEST:
            if record.kind is not ActorKind.CONSUMER:
                raise AuthorizationError(
                    f"{record.kind.value} {payload.actor!r} cannot request access"
                )
            if payload.actor != payload.dc_id:
                raise AuthorizationError(
                    f"consumer {payload.actor!r} cannot act as {payload.dc_id!r}"
                )
            return payload.actor
        # raw batches and state-init: any registered actor may submit
        return payload.actor

    @classmethod
    def load_file(cls, path) -> "MembershipRegistry":
        registry = cls()
        for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 3):
                raise MembershipError(f"{path}:{lineno}: expected kind,id[,alias]")
            try:
                kind = ActorKind(parts[0])
            except ValueError:
                raise MembershipError(f"{path}:{lineno}: unknown kind {parts[0]!r}")
            alias = parts[2] if len(parts) == 3 else None
            registry.register(ActorRecord(actor_id=parts[1], kind=kind, alias=alias))
        return registry


def population_registry(
    n_individuals: int, n_watchdogs: int = 1, n_consumers: int = 1
) -> MembershipRegistry:
    """Benchmark population: i0.., w0.., c0.. matching the preload pools."""
    registry = MembershipRegistry()
    for i in range(n_individuals):
        registry.register(ActorRecord(f"i{i}", ActorKind.INDIVIDUAL))
    for w in range(n_watchdogs):
        registry.register(ActorRecord(f"w{w}", ActorKind.WATCHDOG))
    for c in range(n_consumers):
        registry.register(ActorRecord(f"c{c}", ActorKind.CONSUMER))
    return registry
