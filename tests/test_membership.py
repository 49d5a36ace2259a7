"""Actor registration and the per-kind authorization matrix."""

import pytest

from consentledger.keys import ConsentFact
from consentledger.membership import (
    ActorKind,
    ActorRecord,
    AuthorizationError,
    MembershipError,
    MembershipRegistry,
    population_registry,
)
from consentledger.transactions import (
    access_request,
    assign_role,
    grant_consent,
    raw_read,
    revoke_role,
)

FACT = ConsentFact("i1", "r1", "d1", "w1", "t1")


def _registry() -> MembershipRegistry:
    reg = MembershipRegistry()
    reg.register(ActorRecord("i1", ActorKind.INDIVIDUAL))
    reg.register(ActorRecord("i2", ActorKind.INDIVIDUAL))
    reg.register(ActorRecord("guardian", ActorKind.INDIVIDUAL, alias="i1"))
    reg.register(ActorRecord("w1", ActorKind.WATCHDOG))
    reg.register(ActorRecord("c9", ActorKind.CONSUMER))
    return reg


def test_duplicate_registration_rejected():
    reg = _registry()
    with pytest.raises(MembershipError):
        reg.register(ActorRecord("i1", ActorKind.INDIVIDUAL))


def test_alias_rules():
    reg = MembershipRegistry()
    reg.register(ActorRecord("w1", ActorKind.WATCHDOG))
    with pytest.raises(MembershipError):
        reg.register(ActorRecord("x", ActorKind.WATCHDOG, alias="w1"))
    with pytest.raises(MembershipError):
        reg.register(ActorRecord("y", ActorKind.INDIVIDUAL, alias="ghost"))
    reg.register(ActorRecord("i1", ActorKind.INDIVIDUAL))
    reg.register(ActorRecord("y", ActorKind.INDIVIDUAL, alias="i1"))
    assert reg.get("y").alias == "i1"


def test_consent_authorization():
    reg = _registry()
    assert reg.authorize(grant_consent("i1", FACT)) == "i1"
    assert reg.authorize(grant_consent("guardian", FACT)) == "i1"
    with pytest.raises(AuthorizationError):
        reg.authorize(grant_consent("i2", FACT))
    with pytest.raises(AuthorizationError):
        reg.authorize(grant_consent("w1", FACT))
    with pytest.raises(AuthorizationError):
        reg.authorize(grant_consent("nobody", FACT))


def test_role_authorization():
    reg = _registry()
    assert reg.authorize(assign_role("w1", "d1", "c9", "w1")) == "w1"
    assert reg.authorize(revoke_role("w1", "d1", "c9", "w1")) == "w1"
    with pytest.raises(AuthorizationError):
        reg.authorize(assign_role("w1", "d1", "c9", "w2"))
    with pytest.raises(AuthorizationError):
        reg.authorize(assign_role("i1", "d1", "c9", "w1"))


def test_access_authorization():
    reg = _registry()
    assert reg.authorize(access_request("c9", "c9", "d1", "w1", "r1", "t1")) == "c9"
    with pytest.raises(AuthorizationError):
        reg.authorize(access_request("i1", "i1", "d1", "w1", "r1", "t1"))
    with pytest.raises(AuthorizationError):
        reg.authorize(access_request("c9", "c8", "d1", "w1", "r1", "t1"))


def test_raw_ops_open_to_any_registered_actor():
    reg = _registry()
    for actor in ("i1", "w1", "c9"):
        assert reg.authorize(raw_read(actor, ["a|b|c|d"])) == actor
    with pytest.raises(AuthorizationError):
        reg.authorize(raw_read("stranger", ["a|b|c|d"]))


def test_roster_preserves_registration_order():
    reg = _registry()
    assert reg.roster() == ("i1", "i2", "guardian")


def test_file_roundtrip(tmp_path):
    reg = _registry()
    path = tmp_path / "actors.txt"
    path.write_text(
        "# kind,id[,alias]\n"
        "individual,i1\n"
        "individual,i2\n"
        "individual,guardian,i1\n"
        "watchdog,w1\n"
        "consumer,c9\n",
        encoding="utf-8",
    )
    back = MembershipRegistry.load_file(path)
    assert len(back) == len(reg)
    assert back.roster() == reg.roster()
    assert back.get("guardian").alias == "i1"
    assert back.get("w1").kind is ActorKind.WATCHDOG


def test_population_registry_shape():
    reg = population_registry(3, n_watchdogs=2, n_consumers=1)
    assert reg.roster() == ("i0", "i1", "i2")
    assert reg.get("w1").kind is ActorKind.WATCHDOG
    assert reg.get("c0").kind is ActorKind.CONSUMER
    assert len(reg) == 6
