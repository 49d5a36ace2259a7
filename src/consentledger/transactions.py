"""Transaction payloads, endorsement envelopes, and their wire format.

Five contract operations cover the consent domain (grant/revoke consent,
assign/revoke role, access request). Two raw batch kinds exist for
benchmark sweeps that need arbitrary key counts per transaction, and
state-init carries a PreloadSpec so bulk-loaded states stay replayable
from the chain.

Wire layout of a payload: u8 kind, actor string, then the kind's fields
in the order `PAYLOAD_FIELDS` lists them; the fields that are not plain
strings carry their own codec, written inline with no frame of their
own. An endorsed transaction is its tx id, the payload and the captured
read-write set as one chunk each, the endorser ids, a deterministic
endorsement stub (SHA-256 over payload, rwset, and endorser ids; stands
in for signatures, which are out of scope here), and a has-result flag.
When the operation produced an access decision, the flag is followed by
that decision alone: a u8 granted flag and the consenting list. The
decision's coordinates are its payload's, so they are not written again;
`from_reader` takes them from the parsed payload, and `to_bytes` refuses
a result whose coordinates differ from its payload's.

Memos: checking an endorsement means recomputing the stub, which hashes
the encoded payload and the whole encoded read-write set, and sealing a
block means encoding both again. Each EndorsedTransaction may therefore
carry private memos, all set through `memoize_stub`:

- The stub memo, a 64-character hex digest. The endorser sets it to the
  stub it has just computed, and `from_reader` to the stub over the raw
  payload and rwset chunks it read. `verify_endorsement` trusts it and
  recomputes only when there is none.
- The rwset and payload memos, encoded bytes. Only the endorser sets
  them, to the bytes it has just encoded from the transaction's own
  frozen rwset and payload and hashed into the stub; `to_bytes` packs
  them, so a committed read-write set is encoded once. Parsed
  transactions carry none, so replay holds no second copy of what it
  read. The memos live as long as their transaction: the threaded
  committer drops that once `commit_chunk` has settled its block into
  receipts and retries, and `SyncLedger` at the end of the round.

Every memo is a pure function of the frozen payload, rwset and endorser
ids, so none is an init field: a `dataclasses.replace` copy carries none
and is checked and encoded from scratch. Decoding is canonical (every
accepted payload or rwset chunk re-encodes to the same bytes), so a stub
memo taken from read bytes equals one recomputed from the decoded
fields.
"""

from __future__ import annotations

import enum
import hashlib
import operator
from dataclasses import dataclass, field, fields

from consentledger import wire
from consentledger.keys import ConsentFact, KeyCodecError
from consentledger.preload import PreloadError, PreloadSpec
from consentledger.worldstate import ReadWriteSet, pack_writes, take_writes


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

# the coordinates of an access request, in wire order. An AccessGrantRecord
# starts with the same fields, so access_coordinates(payload) builds one
# positionally
ACCESS_FIELDS = ("dc_id", "role_id", "wd_id", "res_id", "time_id")
access_coordinates = operator.attrgetter(*ACCESS_FIELDS)
_ROLE_FIELDS = ("role_id", "dc_id", "wd_id")
# a consent fact goes on the wire in ConsentFact's field order
_FACT_FIELDS = tuple(f.name for f in fields(ConsentFact))
_fact_values = operator.attrgetter(*_FACT_FIELDS)

# the fields each payload kind carries after its kind code and actor, in
# wire order
PAYLOAD_FIELDS = {
    PayloadKind.GRANT_CONSENT: ("fact",),
    PayloadKind.REVOKE_CONSENT: ("fact",),
    PayloadKind.ASSIGN_ROLE: _ROLE_FIELDS,
    PayloadKind.REVOKE_ROLE: _ROLE_FIELDS,
    PayloadKind.ACCESS_REQUEST: ACCESS_FIELDS,
    PayloadKind.RAW_READ: ("read_keys",),
    PayloadKind.RAW_WRITE: ("write_items",),
    PayloadKind.STATE_INIT: ("init_spec",),
}


def _pack_fact(fact: ConsentFact) -> bytes:
    return b"".join(map(wire.pack_str, _fact_values(fact)))


def _take_fact(reader: wire.Reader) -> ConsentFact:
    return ConsentFact(*[reader.take_str() for _ in _FACT_FIELDS])


def _take_spec(reader: wire.Reader) -> PreloadSpec:
    try:
        return PreloadSpec.from_reader(reader)
    except (KeyCodecError, PreloadError) as exc:
        raise wire.WireError(f"bad state-init spec: {exc}") from exc


# (encode, decode) of every field that is not a plain string
_FIELD_CODECS = {
    "fact": (_pack_fact, _take_fact),
    "read_keys": (wire.pack_strs, wire.Reader.take_strs),
    "write_items": (pack_writes, take_writes),
    "init_spec": (PreloadSpec.to_bytes, _take_spec),
}
_STR_CODEC = (wire.pack_str, wire.Reader.take_str)
# kind -> (its code byte, (name, encode, decode) per field in wire order)
_LAYOUTS = {
    kind: (
        wire.pack_u8(kind.value),
        tuple((name, *_FIELD_CODECS.get(name, _STR_CODEC)) for name in names),
    )
    for kind, names in PAYLOAD_FIELDS.items()
}
_KINDS_BY_CODE = {kind.value: kind for kind in PayloadKind}


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
        code, layout = _LAYOUTS[self.kind]
        out = [code, wire.pack_str(self.actor)]
        for name, pack, _ in layout:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.kind.label} payload needs {name}")
            out.append(pack(value))
        return b"".join(out)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "TransactionPayload":
        code = reader.take_u8()
        kind = _KINDS_BY_CODE.get(code)
        if kind is None:
            raise wire.WireError(f"unknown payload kind code {code}")
        actor = reader.take_str()
        values = {}
        for name, _, take in _LAYOUTS[kind][1]:
            values[name] = take(reader)
        return cls(kind, actor, **values)


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
    """The committed answer to one access request.

    Only `granted` and the consenting list go on the wire; the
    coordinates are the request payload's own (see the module docstring).
    """

    dc_id: str
    role_id: str
    wd_id: str
    res_id: str
    time_id: str
    granted: bool
    consenting_individuals: tuple = ()


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
    # the endorsement stub recomputed from payload, rwset and endorser_ids,
    # and the encoded payload and rwset it covers; see the module docstring
    # for who sets them
    _stub_memo: str | None = field(default=None, init=False, repr=False, compare=False)
    _payload_memo: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _rwset_memo: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def memoize_stub(
        self, stub: str, payload_bytes: bytes | None = None, rwset_bytes: bytes | None = None
    ) -> "EndorsedTransaction":
        """Keep stub as this transaction's recomputed endorsement stub, and
        payload_bytes and rwset_bytes, when given, as its encoded payload
        and read-write set.

        Only for a stub just computed from this transaction's own payload,
        rwset and endorser_ids, and for bytes just encoded from its own
        payload and rwset. Returns self.
        """
        object.__setattr__(self, "_stub_memo", stub)
        object.__setattr__(self, "_payload_memo", payload_bytes)
        object.__setattr__(self, "_rwset_memo", rwset_bytes)
        return self

    def to_bytes(self) -> bytes:
        payload_bytes, rwset_bytes = self._payload_memo, self._rwset_memo
        if payload_bytes is None:
            payload_bytes = self.payload.to_bytes()
        if rwset_bytes is None:
            rwset_bytes = self.rwset.to_bytes()
        out = [
            wire.pack_str(self.tx_id),
            wire.pack_chunk(payload_bytes),
            wire.pack_chunk(rwset_bytes),
            wire.pack_strs(self.endorser_ids),
            wire.pack_str(self.endorsement_stub),
        ]
        result = self.result
        if result is None:
            out.append(wire.pack_u8(0))
        elif access_coordinates(result) != access_coordinates(self.payload):
            raise ValueError("access result coordinates differ from the payload's")
        else:
            out += (
                wire.pack_u8(1),
                wire.pack_u8(1 if result.granted else 0),
                wire.pack_strs(result.consenting_individuals),
            )
        return b"".join(out)

    @classmethod
    def from_reader(cls, reader: wire.Reader) -> "EndorsedTransaction":
        tx_id = reader.take_str()
        payload_bytes = reader.take_chunk()
        payload = wire.decode_exact(payload_bytes, TransactionPayload.from_reader)
        rwset_bytes = reader.take_chunk()
        rwset = wire.decode_exact(rwset_bytes, ReadWriteSet.from_reader)
        endorsers = reader.take_strs()
        stub = reader.take_str()
        result = None
        if reader.take_flag():
            result = AccessGrantRecord(
                *access_coordinates(payload), reader.take_flag(), reader.take_strs()
            )
        tx = cls(
            tx_id=tx_id,
            payload=payload,
            rwset=rwset,
            endorser_ids=endorsers,
            endorsement_stub=stub,
            result=result,
        )
        return tx.memoize_stub(endorsement_stub(payload_bytes, rwset_bytes, endorsers))


def endorsement_stub(payload_bytes: bytes, rwset_bytes: bytes, endorser_ids) -> str:
    """The stub over an encoded payload, an encoded read-write set and the
    endorser ids."""
    h = hashlib.sha256(b"endorse-v1")
    wire.hash_chunk(h, payload_bytes)
    wire.hash_chunk(h, rwset_bytes)
    h.update(wire.pack_strs(endorser_ids))
    return h.hexdigest()


def verify_endorsement(tx: EndorsedTransaction, required: int) -> bool:
    """Check the stub and the m-of-k endorser count.

    The stub is compared with the transaction's memo, or recomputed when
    it has none.
    """
    if len(set(tx.endorser_ids)) < required:
        return False
    expected = tx._stub_memo
    if expected is None:
        expected = endorsement_stub(
            tx.payload.to_bytes(), tx.rwset.to_bytes(), tx.endorser_ids
        )
    return tx.endorsement_stub == expected
