"""Audit queries and the independent replay oracle.

Everything here works from the block log alone, in one streaming pass:
`verified_blocks` parses each record once and checks it against the hash
chain before anything here sees it. A tampered log raises
TamperedLogError; audits and replay collect their results and return
them only after the whole chain has checked out, so they refuse a
tampered log without returning any event. Audit queries walk the
committed transactions and emit line-delimited records:

    <height> <tx_id> <kind> key=value ...

The replay oracle deliberately re-implements commit semantics instead of
calling the engine's validation: it folds the log into its own
(key -> value, version) map, recomputes every validity flag
(endorsement stub, MVCC read checks, state-init preconditions), and, for
logs that contain only consent-domain operations, also rebuilds the
abstract fact set and answers every logged access request by brute force
over the facts. Divergence between the oracle and what the chain claims
is reported, not repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# parse_block and verify_chain are not called here, but benchmark tracing
# wraps both names on this module
from consentledger.blocklog import (  # noqa: F401
    TamperedLogError,
    parse_block,
    verified_blocks,
    verify_chain,
)
from consentledger.keys import ROLE_ASSIGNED, ROLE_REVOKED, ConsentFact
from consentledger.membership import AuthorizationError, MembershipRegistry
from consentledger.preload import PreloadError
from consentledger.transactions import (
    EndorsedTransaction,
    PayloadKind,
    verify_endorsement,
)


def iter_committed(store):
    """Yield (height, tx) for every committed (valid) transaction.

    Raises TamperedLogError at the first block that fails verification.
    """
    for block in verified_blocks(store):
        for tx, valid in zip(block.transactions, block.validity):
            if valid:
                yield block.height, tx


@dataclass(frozen=True)
class AuditEvent:
    height: int
    tx_id: str
    kind: str
    detail: str

    def to_line(self) -> str:
        return f"{self.height} {self.tx_id} {self.kind} {self.detail}".rstrip()


def _fact_detail(fact: ConsentFact) -> str:
    return (
        f"ind={fact.ind_id} res={fact.res_id} role={fact.role_id} "
        f"wd={fact.wd_id} time={fact.time_id}"
    )


def _access_detail(tx: EndorsedTransaction) -> str:
    p = tx.payload
    base = f"dc={p.dc_id} res={p.res_id} role={p.role_id} wd={p.wd_id} time={p.time_id}"
    if tx.result is None:
        return base + " granted=unknown"
    consenting = ",".join(tx.result.consenting_individuals)
    return base + f" granted={str(tx.result.granted).lower()} consenting=[{consenting}]"


def audit_individual(store, ind_id: str) -> list:
    """Committed consent changes for ind_id plus access grants naming them."""
    events = []
    for height, tx in iter_committed(store):
        kind = tx.payload.kind
        if kind in (PayloadKind.GRANT_CONSENT, PayloadKind.REVOKE_CONSENT):
            if tx.payload.fact.ind_id == ind_id:
                events.append(
                    AuditEvent(height, tx.tx_id, kind.label, _fact_detail(tx.payload.fact))
                )
        elif kind is PayloadKind.ACCESS_REQUEST and tx.result is not None:
            if ind_id in tx.result.consenting_individuals:
                events.append(
                    AuditEvent(height, tx.tx_id, "access_grant", _access_detail(tx))
                )
    return events


def audit_consumer(store, dc_id: str) -> list:
    """Committed access requests submitted by dc_id, with their outcomes."""
    events = []
    for height, tx in iter_committed(store):
        if tx.payload.kind is PayloadKind.ACCESS_REQUEST and tx.payload.dc_id == dc_id:
            events.append(
                AuditEvent(height, tx.tx_id, "access_request", _access_detail(tx))
            )
    return events


def audit_watchdog(store, wd_id: str) -> list:
    """Committed role administration performed under wd_id's regime."""
    events = []
    for height, tx in iter_committed(store):
        kind = tx.payload.kind
        if kind in (PayloadKind.ASSIGN_ROLE, PayloadKind.REVOKE_ROLE):
            if tx.payload.wd_id == wd_id:
                detail = (
                    f"role={tx.payload.role_id} dc={tx.payload.dc_id} "
                    f"wd={tx.payload.wd_id}"
                )
                events.append(AuditEvent(height, tx.tx_id, kind.label, detail))
    return events


CMS_KINDS = (
    PayloadKind.GRANT_CONSENT,
    PayloadKind.REVOKE_CONSENT,
    PayloadKind.ASSIGN_ROLE,
    PayloadKind.REVOKE_ROLE,
    PayloadKind.ACCESS_REQUEST,
)


@dataclass
class ReplayReport:
    """What an independent re-execution of the log concludes."""

    blocks: int = 0
    committed: int = 0
    entries: dict = field(default_factory=dict)
    flag_mismatches: list = field(default_factory=list)
    access_mismatches: list = field(default_factory=list)
    authorization_failures: list = field(default_factory=list)
    interpreted: bool = False
    facts: set = field(default_factory=set)
    roles: dict = field(default_factory=dict)

    def clean(self) -> bool:
        return not (
            self.flag_mismatches
            or self.access_mismatches
            or self.authorization_failures
        )

    def matches_state(self, state) -> bool:
        """Exact (value, version) equality against a live world state."""
        live = state.entries_snapshot()
        if len(live) != len(self.entries):
            return False
        # both sides share value objects across many keys, so remember each
        # compared object pair instead of re-walking large sets per key
        seen_pairs: set = set()
        for key, (value, version) in live.items():
            entry = self.entries.get(key)
            if entry is None or entry[1] != version:
                return False
            other = entry[0]
            pair = (id(value), id(other))
            if pair in seen_pairs:
                continue
            if value is not other and value != other:
                return False
            seen_pairs.add(pair)
        return True


def _oracle_answer(facts: set, roles: dict, payload) -> tuple:
    """Brute-force access decision over the abstract fact set."""
    if roles.get((payload.role_id, payload.dc_id, payload.wd_id)) != ROLE_ASSIGNED:
        return False, ()
    consenting = sorted(
        f.ind_id
        for f in facts
        if f.res_id == payload.res_id
        and f.role_id == payload.role_id
        and f.wd_id == payload.wd_id
        and f.time_id == payload.time_id
    )
    return True, tuple(consenting)


def replay_oracle(
    store, registry: MembershipRegistry | None = None, policy_m: int = 1
) -> ReplayReport:
    """Re-execute the whole chain with independent commit semantics.

    Folds every verified block into a fresh (key -> value, version) map
    in one pass (a tampered log raises TamperedLogError): recomputed
    endorsement and MVCC outcomes are compared against the stored
    validity flags. Logs made purely of consent-domain operations
    additionally get the fact-set interpretation and a brute-force check
    of every committed access answer. When a registry is supplied, each
    committed transaction is re-checked against the authorization matrix.
    """
    report = ReplayReport()
    versions: dict = {}
    entries: dict = {}
    pure_cms = True

    for block in verified_blocks(store):
        report.blocks += 1
        for index, (tx, stored_valid) in enumerate(
            zip(block.transactions, block.validity)
        ):
            kind = tx.payload.kind
            if kind not in CMS_KINDS:
                pure_cms = False
            valid = _oracle_validate(tx, kind, versions, entries, policy_m)
            if valid != stored_valid:
                report.flag_mismatches.append((block.height, index, tx.tx_id))
                # keep folding what the chain claims so later comparisons
                # stay meaningful
                valid = stored_valid
            if valid:
                _oracle_apply(tx, kind, versions, entries)
            else:
                continue
            report.committed += 1
            if registry is not None and kind is not PayloadKind.STATE_INIT:
                try:
                    registry.authorize(tx.payload)
                except AuthorizationError as exc:
                    report.authorization_failures.append(
                        (block.height, tx.tx_id, exc.reason)
                    )
            if kind is PayloadKind.GRANT_CONSENT:
                report.facts.add(tx.payload.fact)
            elif kind is PayloadKind.REVOKE_CONSENT:
                report.facts.discard(tx.payload.fact)
            elif kind in (PayloadKind.ASSIGN_ROLE, PayloadKind.REVOKE_ROLE):
                marker = (
                    ROLE_ASSIGNED
                    if kind is PayloadKind.ASSIGN_ROLE
                    else ROLE_REVOKED
                )
                report.roles[
                    (tx.payload.role_id, tx.payload.dc_id, tx.payload.wd_id)
                ] = marker
            elif kind is PayloadKind.ACCESS_REQUEST and pure_cms:
                granted, consenting = _oracle_answer(
                    report.facts, report.roles, tx.payload
                )
                stored = tx.result
                if (
                    stored is None
                    or stored.granted != granted
                    or tuple(stored.consenting_individuals) != consenting
                ):
                    report.access_mismatches.append((block.height, tx.tx_id))
    report.interpreted = pure_cms
    report.entries = {
        key: (value, versions[key]) for key, value in entries.items()
    }
    return report


def _oracle_validate(tx, kind, versions: dict, entries: dict, policy_m: int) -> bool:
    """Independent validity decision; never mutates the fold."""
    if kind is PayloadKind.STATE_INIT:
        if entries:
            return False
        try:
            tx.payload.init_spec.validate()
        except PreloadError:
            return False
        return True
    if not verify_endorsement(tx, policy_m):
        return False
    for key, seen_version in tx.rwset.reads:
        if versions.get(key, 0) != seen_version:
            return False
    return True


def _oracle_apply(tx, kind, versions: dict, entries: dict) -> None:
    if kind is PayloadKind.STATE_INIT:
        for key, value in tx.payload.init_spec.entries():
            entries[key] = value
            versions[key] = 1
        return
    for key, value in tx.rwset.writes:
        entries[key] = value
        versions[key] = versions.get(key, 0) + 1


def replay_check(store, state, registry=None, policy_m: int = 1) -> ReplayReport:
    """Replay and require a clean report that matches the live state."""
    report = replay_oracle(store, registry=registry, policy_m=policy_m)
    problems = []
    if report.flag_mismatches:
        problems.append(f"{len(report.flag_mismatches)} validity flag mismatches")
    if report.access_mismatches:
        problems.append(f"{len(report.access_mismatches)} access answer mismatches")
    if report.authorization_failures:
        problems.append(f"{len(report.authorization_failures)} authorization failures")
    if not report.matches_state(state):
        problems.append("replayed state differs from live state")
    if problems:
        raise ReplayMismatchError("; ".join(problems))
    return report


class ReplayMismatchError(Exception):
    """Raised when replaying the log does not reproduce the live state."""
