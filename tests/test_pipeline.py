"""Config parsing plus sync and threaded pipeline behavior."""

import hashlib
import random
from collections import Counter

import pytest

from consentledger import wire
from consentledger.blocklog import verify_chain
from consentledger.keys import ConsentFact, WorldStateDesign, encode_consent_key
from consentledger.membership import population_registry
from consentledger.pipeline import (
    ConfigError,
    LedgerHarness,
    PipelineConfig,
    Status,
    SyncLedger,
    parse_policy,
)
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    access_request,
    assign_role,
    grant_consent,
    raw_write,
    revoke_consent,
    revoke_role,
)

DESIGN = WorldStateDesign.IWS


def _facts(count: int, individuals: int):
    out = []
    for i in range(count):
        out.append(ConsentFact(f"i{i % individuals}", f"r{i}", "d0", "w0", "t0"))
    return out


def test_parse_policy():
    assert parse_policy("1/2") == (1, 2)
    assert parse_policy(" 3/5 ") == (3, 5)
    for bad in ("2", "a/b", "0/2", "3/2", "1/2/3"):
        with pytest.raises(ConfigError):
            parse_policy(bad)


def test_config_validate_errors():
    for kwargs in (
        dict(block_size=0),
        dict(endorsers=0),
        dict(policy_m=3, endorsers=2),
        dict(max_retries=-1),
        dict(client_threads=0),
        dict(block_timeout_ms=0),
        dict(submission_depth=1, endorsers=4),
    ):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs).validate()


def test_config_from_file(tmp_path):
    path = tmp_path / "pipeline.conf"
    path.write_text(
        "# comment line\n"
        "block_size = 25\n"
        "policy = 2/3\n"
        "retries = 4\n"
        "timeout_ms = 10   # trailing comment\n"
        "threads = 8\n"
        "submission_depth = 600\n",
        encoding="utf-8",
    )
    cfg = PipelineConfig.from_file(path)
    assert cfg.block_size == 25
    assert cfg.policy_m == 2 and cfg.endorsers == 3
    assert cfg.max_retries == 4
    assert cfg.block_timeout_ms == 10
    assert cfg.client_threads == 8
    assert cfg.submission_depth == 600
    assert cfg.policy_text() == "2/3"


def test_config_rejects_policy_endorser_mismatch(tmp_path):
    path = tmp_path / "pipeline.conf"
    path.write_text("policy = 1/2\nendorsers = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(path)


def test_config_rejects_unknown_and_malformed_keys(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"block_sise": "10"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"block_size": "ten"})
    path = tmp_path / "pipeline.conf"
    path.write_text("block_size\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(path)


def test_endorsement_does_not_touch_state():
    registry = population_registry(4)
    ledger = SyncLedger(DESIGN, registry)
    payload = grant_consent("i0", ConsentFact("i0", "r0", "d0", "w0", "t0"))
    tx1 = ledger.endorse(payload)
    tx2 = ledger.endorse(payload)
    assert ledger.state.key_count() == 0
    assert tx1.rwset == tx2.rwset
    assert ledger.log.height == 0


def test_sync_same_key_writers_take_one_block_each():
    registry = population_registry(8)
    for k in (2, 5):
        cfg = PipelineConfig(block_size=100, max_retries=32)
        ledger = SyncLedger(DESIGN, registry, cfg)
        fact_for = lambda i: ConsentFact(f"i{i}", "r0", "d0", "w0", "t0")
        payloads = [grant_consent(f"i{i}", fact_for(i)) for i in range(k)]
        receipts = ledger.submit_batch(payloads)
        assert all(r.status is Status.COMMITTED for r in receipts)
        assert ledger.log.height == k
        heights = sorted(r.block_height for r in receipts)
        assert heights == list(range(1, k + 1))


def test_sync_retry_budget_exhaustion():
    registry = population_registry(8)
    cfg = PipelineConfig(block_size=100, max_retries=0)
    ledger = SyncLedger(DESIGN, registry, cfg)
    payloads = [
        grant_consent(f"i{i}", ConsentFact(f"i{i}", "r0", "d0", "w0", "t0"))
        for i in range(5)
    ]
    receipts = ledger.submit_batch(payloads)
    by_status = {}
    for r in receipts:
        by_status.setdefault(r.status, []).append(r)
    assert len(by_status[Status.COMMITTED]) == 1
    assert len(by_status[Status.ABORTED]) == 4
    assert all(r.retry_count == 0 for r in by_status[Status.ABORTED])


def test_sync_rejects_unauthorized_payload():
    registry = population_registry(2)
    ledger = SyncLedger(DESIGN, registry)
    bad = grant_consent("i0", ConsentFact("i1", "r0", "d0", "w0", "t0"))
    good = grant_consent("i1", ConsentFact("i1", "r0", "d0", "w0", "t0"))
    receipts = ledger.submit_batch([bad, good])
    assert receipts[0].status is Status.REJECTED
    assert "cannot act for" in receipts[0].reason
    assert receipts[1].status is Status.COMMITTED


def test_sync_preload_then_work():
    registry = population_registry(4)
    ledger = SyncLedger(DESIGN, registry)
    spec = PreloadSpec(
        design=DESIGN,
        n_individuals=4,
        n_resources=3,
        n_roles=1,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=3,
        value_space=2,
    )
    ledger.preload(spec)
    assert ledger.state.key_count() == 3
    assert ledger.log.height == 1
    with pytest.raises(ConfigError):
        ledger.preload(spec)


def test_harness_bootstrap_counts_blocks():
    registry = population_registry(4)
    harness = LedgerHarness(DESIGN, registry)
    spec = PreloadSpec(
        design=DESIGN,
        n_individuals=4,
        n_resources=2,
        n_roles=1,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=2,
        value_space=1,
    )
    appended = harness.bootstrap(spec, [assign_role("w0", "d0", "c0", "w0")])
    assert appended == 2
    assert harness.log.height == 2
    assert harness.state.get("d0|c0|w0") == ("assign", 1)
    # a setup payload that fails authorization is a set-up error
    with pytest.raises(ConfigError, match="rejected: authorization"):
        harness.bootstrap(None, [assign_role("w1", "d0", "c0", "w0")])


def _batches(payloads, n_clients):
    out = [[] for _ in range(n_clients)]
    for i, payload in enumerate(payloads):
        out[i % n_clients].append(payload)
    return out


def test_threaded_run_exact_accounting():
    registry = population_registry(8)
    cfg = PipelineConfig(
        block_size=8, client_threads=4, block_timeout_ms=20, max_retries=8
    )
    harness = LedgerHarness(DESIGN, registry, cfg)
    facts = _facts(40, 8)
    payloads = [grant_consent(f.ind_id, f) for f in facts]
    stats = harness.run(_batches(payloads, 4))
    assert stats.submitted == 40
    assert stats.finalized() == 40
    assert stats.committed == 40
    assert stats.aborted == stats.rejected == stats.cancelled == 0
    assert not stats.overloaded
    assert stats.blocks >= 5
    assert verify_chain(harness.log.store) is None
    # distinct facts, one key each: every commit touches exactly one key
    assert stats.touch_total == 40
    assert stats.touch_min == stats.touch_max == 1


def test_threaded_round_robin_split_is_exact():
    registry = population_registry(8)
    cfg = PipelineConfig(block_size=10, client_threads=2, block_timeout_ms=20)
    harness = LedgerHarness(DESIGN, registry, cfg)
    payloads = [grant_consent(f.ind_id, f) for f in _facts(40, 8)]
    stats = harness.run(_batches(payloads, 2))
    assert stats.committed == 40
    assert stats.endorser_counts["e0"] == 20
    assert stats.endorser_counts["e1"] == 20


def test_threaded_commits_respect_client_order():
    registry = population_registry(8)
    cfg = PipelineConfig(block_size=4, client_threads=3, block_timeout_ms=20)
    harness = LedgerHarness(DESIGN, registry, cfg)
    payloads = [grant_consent(f.ind_id, f) for f in _facts(30, 8)]
    stats = harness.run(_batches(payloads, 3))
    assert stats.committed == 30
    per_client: dict = {}
    for receipt in stats.receipts:
        per_client.setdefault(receipt.client_id, []).append(receipt)
    assert len(per_client) == 3
    for receipts in per_client.values():
        receipts.sort(key=lambda r: r.seq)
        heights = [r.block_height for r in receipts]
        assert heights == sorted(heights)


def test_threaded_hot_key_retries_to_commit():
    registry = population_registry(4)
    cfg = PipelineConfig(
        block_size=4, client_threads=3, block_timeout_ms=10, max_retries=64
    )
    harness = LedgerHarness(DESIGN, registry, cfg)
    fact = ConsentFact("i0", "r0", "d0", "w0", "t0")
    payloads = [grant_consent("i0", fact)] * 12
    stats = harness.run(_batches(payloads, 3))
    assert stats.committed == 12
    assert stats.finalized() == 12
    assert harness.state.get("r0|w0|d0|t0") == (frozenset({"i0"}), 12)
    retried = [r for r in stats.receipts if r.retry_count > 0]
    assert retried, "same-key writers must have conflicted at least once"
    # a retried receipt still names its submitter: receipts and submissions
    # pair up one to one
    submitted = {(f"client{c}", seq) for c in range(3) for seq in range(4)}
    named = [(r.client_id, r.seq) for r in stats.receipts]
    assert sorted(named) == sorted(submitted)
    assert all(r.tx_id == f"{r.client_id}-{r.seq:06d}" for r in stats.receipts)


def test_threaded_rejection_leaves_no_gap():
    registry = population_registry(4)
    cfg = PipelineConfig(block_size=4, client_threads=2, block_timeout_ms=20)
    harness = LedgerHarness(DESIGN, registry, cfg)
    good = [grant_consent(f.ind_id, f) for f in _facts(10, 4)]
    bad = grant_consent("i0", ConsentFact("i1", "r9", "d0", "w0", "t0"))
    stats = harness.run([good[:5] + [bad], good[5:]])
    assert stats.submitted == 11
    assert stats.committed == 10
    assert stats.rejected == 1
    assert stats.finalized() == 11


def _golden_op(rng, design):
    """One random consent, role or access operation, some of them invalid."""
    ind, other = f"i{rng.randrange(6)}", f"i{rng.randrange(6)}"
    res, role = f"r{rng.randrange(2)}", f"d{rng.randrange(2)}"
    wd, dc = f"w{rng.randrange(2)}", f"c{rng.randrange(2)}"
    roll = rng.random()
    if roll < 0.45:
        fact = ConsentFact(ind, res, role, wd, "t0")
        op = grant_consent if rng.random() < 0.7 else revoke_consent
        # some submitters act for someone else and are rejected
        return op(other if rng.random() < 0.1 else ind, fact)
    if roll < 0.6:
        op = assign_role if rng.random() < 0.7 else revoke_role
        return op(wd if rng.random() < 0.9 else "w9", role, dc, wd)
    if roll < 0.9:
        return access_request(dc, dc, role, wd, res, "t0")
    if roll < 0.95:
        # an invalid key token: rejected as a contract error
        return grant_consent(ind, ConsentFact(ind, "r|x", role, wd, "t0"))
    # a marker stored in a consent key makes later consent ops on it fail
    key, _ = encode_consent_key(design, ConsentFact(ind, res, role, wd, "t0"))
    return raw_write(ind, [(key, "assign")])


def _golden_digest(design, policy):
    m, k = parse_policy(policy)
    registry = population_registry(6, n_watchdogs=2, n_consumers=2)
    cfg = PipelineConfig(block_size=4, endorsers=k, policy_m=m, max_retries=1)
    ledger = SyncLedger(design, registry, cfg)
    ledger.preload(
        PreloadSpec(
            design=design,
            n_individuals=6,
            n_resources=3,
            n_roles=2,
            n_watchdogs=2,
            n_timeframes=1,
            key_space=4,
            value_space=2,
        )
    )
    rng = random.Random(1910)
    h = hashlib.sha256()
    receipts = []
    for _ in range(12):
        batch = [_golden_op(rng, design) for _ in range(rng.randrange(8, 24))]
        receipts += ledger.submit_batch(batch)
        h.update(ledger.state.digest().encode())
    for record in ledger.log.store:
        h.update(wire.pack_chunk(record))
    for r in receipts:
        fields = (r.tx_id, r.client_id, r.seq, r.status.value, r.block_height,
                  r.retry_count, r.reason)
        h.update(wire.pack_str("|".join(map(str, fields))))
    return h.hexdigest(), receipts


# SHA-256 over state digests, chain records and receipts of one fixed-seed
# history per design and policy; a change here changes chain bytes or verdicts
GOLDEN = {
    ("iws", "1/2"): "4ef8186954d835ef501fbfe2cbfbe9cf772572c13940a96310f02bbe2c33f7e9",
    ("iws", "2/3"): "833a3e75814531fcbb183ce145022268928774e62e2391a940221dd59c9d5b40",
    ("rws", "1/2"): "db56ef208ad37877bfd4f0db96357f9365ff2c90db00dbbc10b0d1f9dac9551e",
    ("rws", "2/3"): "396d060313d701ae268017582acb78d6e7306005f35248947961f654d4f08d35",
    ("rows", "1/2"): "4d8ced0f96c1cd5eb83cba218297d6afa3e9bebc54e8dea63c3bb0051346d8ab",
    ("rows", "2/3"): "605f48c32bfe324816c0b3f548225e41d0568d882e5f90e7d8f6cc7c31bfa759",
}


@pytest.mark.parametrize("design", list(WorldStateDesign))
@pytest.mark.parametrize("policy", ["1/2", "2/3"])
def test_golden_sync_history(design, policy):
    digest, receipts = _golden_digest(design, policy)
    statuses = Counter(r.status for r in receipts)
    assert statuses[Status.COMMITTED] and statuses[Status.REJECTED]
    assert any(r.reason.startswith("contract:") for r in receipts)
    assert any(r.reason == "conflict" and r.retry_count == 1 for r in receipts)
    assert digest == GOLDEN[(design.value, policy)]
