"""Transaction payloads, endorsement envelopes, and their wire format.

Five contract operations cover the consent domain (grant/revoke consent,
assign/revoke role, access request). Two raw batch kinds exist for
benchmark sweeps that need arbitrary key counts per transaction, and
state-init carries a PreloadSpec so bulk-loaded states stay replayable
from the chain.

Wire layout of a payload: u8 kind, actor string, then the kind's fields
in fixed order (see `TransactionPayload.to_bytes`). An endorsed transaction adds
tx id, captured read-write set, endorser ids, a deterministic endorsement
stub (SHA-256 over payload, rwset, and endorser ids; stands in for
signatures, which are out of scope here), and the access decision when
the operation produced one.

Stub memo: checking an endorsement means recomputing the stub, which
hashes the whole encoded read-write set. Each EndorsedTransaction may
therefore carry a private memo of that recomputation, a 64-character hex
digest and never encoded bytes. Two places set it, each from exactly the
bytes the stub covers: the endorser (`memoize_stub`, with the stub it
has just computed from the transaction's fields) and `from_reader` (from
the raw payload and rwset chunks it read). `verify_endorsement` trusts
the memo and recomputes only when there is none. The memo is a pure
function of the frozen payload, rwset and endorser ids, so it is not an
init field: a `dataclasses.replace` copy carries none and is checked
from scratch. Decoding is canonical (every accepted chunk re-encodes to
the same bytes), so a memo taken from read bytes equals one recomputed
from the decoded fields.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from consentledger import wire
from consentledger.keys import ConsentFact, KeyCodecError
from consentledger.preload import PreloadError, PreloadSpec
from consentledger.worldstate import ReadWriteSet, value_from_reader, value_to_bytes


class PayloadKind(enum.Enum):
    GRANT_CONSENT = 1
    REVOKE_CONSENT = 2
    ASSIGN_ROLE = 3
    REVOKE_ROLE = 4
    ACCESS_REQUEST = 5
    RAW_READ = 6
    RAW_WRITE = 7
    STATE_INIT = 8

    @property
    def label(self) -> str:
        return self.name.lower()


CONSENT_KINDS = (PayloadKind.GRANT_CONSENT, PayloadKind.REVOKE_CONSENT)
ROLE_KINDS = (PayloadKind.ASSIGN_ROLE, PayloadKind.REVOKE_ROLE)


@dataclass(frozen=True)
class TransactionPayload:
    kind: PayloadKind
    actor: str
    fact: ConsentFact | None = None
    role_id: str = ""
    dc_id: str = ""
    wd_id: str = ""
    res_id: str = ""
    time_id: str = ""
    read_keys: tuple = ()
    write_items: tuple = ()
    init_spec: PreloadSpec | None = None

    def to_bytes(self) -> bytes:
        out = [wire.pack_u8(self.kind.value), wire.pack_str(self.actor)]
        if self.kind in CONSENT_KINDS:
            f = self.fact
            if f is None:
                raise ValueError(f"{self.kind.label} payload needs a fact")
            out += [
                wire.pack_str(f.ind_id),
                wire.pack_str(f.res_id),
                wire.pack_str(f.role_id),
                wire.pack_str(f.wd_id),
                wire.pack_str(f.time_id),
            ]
        elif self.kind in ROLE_KINDS:
            out += [
                wire.pack_str(self.role_id),
                wire.pack_str(self.dc_id),
                wire.pack_str(self.wd_id),
            ]
        elif self.kind is PayloadKind.ACCESS_REQUEST:
            out += [
                wire.pack_str(self.dc_id),
                wire.pack_str(self.role_id),
                wire.pack_str(self.wd_id),
                wire.pack_str(self.res_id),
                wire.pack_str(self.time_id),
            ]
        elif self.kind is PayloadKind.RAW_READ:
            out.append(wire.pack_u32(len(self.read_keys)))
            out += [wire.pack_str(k) for k in self.read_keys]
        elif self.kind is PayloadKind.RAW_WRITE:
            out.append(wire.pack_u32(len(self.write_items)))
            for key, value in self.write_items:
                out.append(wire.pack_str(key))
                out.append(wire.pack_chunk(value_to_bytes(value)))
        elif self.kind is PayloadKind.STATE_INIT:
            if self.init_spec is None:
                raise ValueError("state_init payload needs a PreloadSpec")
            out.append(wire.pack_chunk(self.init_spec.to_bytes()))
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unhandled kind {self.kind}")
        return b"".join(out)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "TransactionPayload":
        code = reader.take_u8()
        try:
            kind = PayloadKind(code)
        except ValueError:
            raise wire.WireError(f"unknown payload kind code {code}")
        actor = reader.take_str()
        if kind in CONSENT_KINDS:
            fact = ConsentFact(
                ind_id=reader.take_str(),
                res_id=reader.take_str(),
                role_id=reader.take_str(),
                wd_id=reader.take_str(),
                time_id=reader.take_str(),
            )
            return cls(kind=kind, actor=actor, fact=fact)
        if kind in ROLE_KINDS:
            return cls(
                kind=kind,
                actor=actor,
                role_id=reader.take_str(),
                dc_id=reader.take_str(),
                wd_id=reader.take_str(),
            )
        if kind is PayloadKind.ACCESS_REQUEST:
            return cls(
                kind=kind,
                actor=actor,
                dc_id=reader.take_str(),
                role_id=reader.take_str(),
                wd_id=reader.take_str(),
                res_id=reader.take_str(),
                time_id=reader.take_str(),
            )
        if kind is PayloadKind.RAW_READ:
            count = reader.take_u32()
            keys = tuple(reader.take_str() for _ in range(count))
            return cls(kind=kind, actor=actor, read_keys=keys)
        if kind is PayloadKind.RAW_WRITE:
            count = reader.take_u32()
            items = []
            for _ in range(count):
                key = reader.take_str()
                sub = wire.Reader(reader.take_chunk())
                items.append((key, value_from_reader(sub)))
                sub.expect_end()
            return cls(kind=kind, actor=actor, write_items=tuple(items))
        sub = wire.Reader(reader.take_chunk())
        try:
            spec = PreloadSpec.from_reader(sub)
        except (KeyCodecError, PreloadError) as exc:
            raise wire.WireError(f"bad state-init spec: {exc}") from exc
        sub.expect_end()
        return cls(kind=kind, actor=actor, init_spec=spec)


def grant_consent(actor: str, fact: ConsentFact) -> TransactionPayload:
    return TransactionPayload(kind=PayloadKind.GRANT_CONSENT, actor=actor, fact=fact)


def revoke_consent(actor: str, fact: ConsentFact) -> TransactionPayload:
    return TransactionPayload(kind=PayloadKind.REVOKE_CONSENT, actor=actor, fact=fact)


def assign_role(actor: str, role_id: str, dc_id: str, wd_id: str) -> TransactionPayload:
    return TransactionPayload(
        kind=PayloadKind.ASSIGN_ROLE, actor=actor, role_id=role_id, dc_id=dc_id, wd_id=wd_id
    )


def revoke_role(actor: str, role_id: str, dc_id: str, wd_id: str) -> TransactionPayload:
    return TransactionPayload(
        kind=PayloadKind.REVOKE_ROLE, actor=actor, role_id=role_id, dc_id=dc_id, wd_id=wd_id
    )


def access_request(
    actor: str, dc_id: str, role_id: str, wd_id: str, res_id: str, time_id: str
) -> TransactionPayload:
    return TransactionPayload(
        kind=PayloadKind.ACCESS_REQUEST,
        actor=actor,
        dc_id=dc_id,
        role_id=role_id,
        wd_id=wd_id,
        res_id=res_id,
        time_id=time_id,
    )


def raw_read(actor: str, keys) -> TransactionPayload:
    return TransactionPayload(kind=PayloadKind.RAW_READ, actor=actor, read_keys=tuple(keys))


def raw_write(actor: str, items) -> TransactionPayload:
    return TransactionPayload(
        kind=PayloadKind.RAW_WRITE, actor=actor, write_items=tuple(items)
    )


def state_init(actor: str, spec: PreloadSpec) -> TransactionPayload:
    return TransactionPayload(kind=PayloadKind.STATE_INIT, actor=actor, init_spec=spec)


@dataclass(frozen=True)
class AccessGrantRecord:
    """The committed answer to one access request."""

    dc_id: str
    role_id: str
    wd_id: str
    res_id: str
    time_id: str
    granted: bool
    consenting_individuals: tuple = ()

    def to_bytes(self) -> bytes:
        out = [
            wire.pack_str(self.dc_id),
            wire.pack_str(self.role_id),
            wire.pack_str(self.wd_id),
            wire.pack_str(self.res_id),
            wire.pack_str(self.time_id),
            wire.pack_u8(1 if self.granted else 0),
            wire.pack_u32(len(self.consenting_individuals)),
        ]
        out += [wire.pack_str(i) for i in self.consenting_individuals]
        return b"".join(out)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "AccessGrantRecord":
        dc_id = reader.take_str()
        role_id = reader.take_str()
        wd_id = reader.take_str()
        res_id = reader.take_str()
        time_id = reader.take_str()
        granted = reader.take_flag()
        count = reader.take_u32()
        members = tuple(reader.take_str() for _ in range(count))
        return cls(
            dc_id=dc_id,
            role_id=role_id,
            wd_id=wd_id,
            res_id=res_id,
            time_id=time_id,
            granted=granted,
            consenting_individuals=members,
        )


@dataclass(frozen=True)
class EndorsedTransaction:
    """A simulated transaction ready for ordering.

    client_id / seq / retry_count are pipeline routing metadata and stay
    off the wire; everything else is part of the committed record.
    """

    tx_id: str
    payload: TransactionPayload
    rwset: ReadWriteSet
    endorser_ids: tuple = ()
    endorsement_stub: str = ""
    result: AccessGrantRecord | None = None
    client_id: str = field(default="", compare=False)
    seq: int = field(default=0, compare=False)
    retry_count: int = field(default=0, compare=False)
    # endorsement_stub recomputed from payload, rwset and endorser_ids;
    # see the module docstring for when it is set and trusted
    _stub_memo: str | None = field(default=None, init=False, repr=False, compare=False)

    def memoize_stub(self, stub: str) -> "EndorsedTransaction":
        """Keep stub as this transaction's recomputed endorsement stub.

        Only for a stub just computed by `endorsement_stub` from this
        transaction's own payload, rwset and endorser_ids. Returns self.
        """
        object.__setattr__(self, "_stub_memo", stub)
        return self

    def to_bytes(self) -> bytes:
        out = [
            wire.pack_str(self.tx_id),
            wire.pack_chunk(self.payload.to_bytes()),
            wire.pack_chunk(self.rwset.to_bytes()),
            wire.pack_u32(len(self.endorser_ids)),
        ]
        out += [wire.pack_str(e) for e in self.endorser_ids]
        out.append(wire.pack_str(self.endorsement_stub))
        if self.result is None:
            out.append(wire.pack_u8(0))
        else:
            out.append(wire.pack_u8(1))
            out.append(wire.pack_chunk(self.result.to_bytes()))
        return b"".join(out)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "EndorsedTransaction":
        tx_id = reader.take_str()
        payload_bytes = reader.take_chunk()
        sub = wire.Reader(payload_bytes)
        payload = TransactionPayload.from_reader(sub)
        sub.expect_end()
        rwset_bytes = reader.take_chunk()
        sub = wire.Reader(rwset_bytes)
        rwset = ReadWriteSet.from_reader(sub)
        sub.expect_end()
        n = reader.take_u32()
        endorsers = tuple(reader.take_str() for _ in range(n))
        stub = reader.take_str()
        result = None
        if reader.take_flag():
            sub = wire.Reader(reader.take_chunk())
            result = AccessGrantRecord.from_reader(sub)
            sub.expect_end()
        tx = cls(
            tx_id=tx_id,
            payload=payload,
            rwset=rwset,
            endorser_ids=endorsers,
            endorsement_stub=stub,
            result=result,
        )
        return tx.memoize_stub(_stub_over(payload_bytes, rwset_bytes, endorsers))


def _stub_over(payload_bytes: bytes, rwset_bytes: bytes, endorser_ids) -> str:
    h = hashlib.sha256(b"endorse-v1")
    wire.hash_chunk(h, payload_bytes)
    wire.hash_chunk(h, rwset_bytes)
    for endorser in endorser_ids:
        h.update(wire.pack_str(endorser))
    return h.hexdigest()


def endorsement_stub(
    payload: TransactionPayload, rwset: ReadWriteSet, endorser_ids
) -> str:
    return _stub_over(payload.to_bytes(), rwset.to_bytes(), endorser_ids)


def verify_endorsement(tx: EndorsedTransaction, required: int) -> bool:
    """Check the stub and the m-of-k endorser count.

    The stub is compared with the transaction's memo, or recomputed when
    it has none.
    """
    if len(set(tx.endorser_ids)) < required:
        return False
    expected = tx._stub_memo
    if expected is None:
        expected = endorsement_stub(tx.payload, tx.rwset, tx.endorser_ids)
    return tx.endorsement_stub == expected
