"""Config parsing plus sync and threaded pipeline behavior."""

import hashlib
import itertools
import queue
import random
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from consentledger import pipeline, wire
from consentledger.audit import replay_check
from consentledger.blocklog import BlockLog, parse_block, verify_chain
from consentledger.keys import (
    ConsentFact,
    KeyCodecError,
    WorldStateDesign,
    encode_consent_key,
    split_key,
)
from consentledger.membership import population_registry
from consentledger.pipeline import (
    ConfigError,
    LedgerHarness,
    PipelineConfig,
    PipelineFault,
    PipelineStallError,
    Status,
    SyncLedger,
    parse_policy,
    read_config,
)
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    EndorsedTransaction,
    access_request,
    assign_role,
    grant_consent,
    raw_write,
    revoke_consent,
    revoke_role,
)
from consentledger.worldstate import ReadWriteSet, digest_entries

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
        # the committer waits out a batch's deadline in one queue call
        dict(block_timeout_ms=10**13),
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
        "threads = 8\n",
        encoding="utf-8",
    )
    cfg = PipelineConfig.from_mapping(read_config(path), where=str(path))
    assert cfg.block_size == 25
    assert cfg.policy_m == 2 and cfg.endorsers == 3
    assert cfg.max_retries == 4
    assert cfg.block_timeout_ms == 10
    assert cfg.client_threads == 8


def test_config_rejects_policy_endorser_mismatch(tmp_path):
    path = tmp_path / "pipeline.conf"
    path.write_text("policy = 1/2\nendorsers = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping(read_config(path), where=str(path))


def test_config_rejects_unknown_and_malformed_keys(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"block_sise": "10"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"block_size": "ten"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"block_queue_depth": "8"})
    # queue depths and the run's time bounds are constants, not settings
    for key in ("ordered_depth", "submission_depth", "overload_window_s", "stall_timeout_s"):
        with pytest.raises(ConfigError, match="unknown key"):
            PipelineConfig.from_mapping({key: "1"})
    path = tmp_path / "pipeline.conf"
    path.write_text("block_size\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping(read_config(path), where=str(path))


def test_endorsement_does_not_touch_state():
    registry = population_registry(4)
    ledger = SyncLedger(DESIGN, registry)
    payload = grant_consent("i0", ConsentFact("i0", "r0", "d0", "w0", "t0"))
    tx1, tx2 = (
        ledger.endorse_pending(pipeline._Pending("c0", seq, f"c0-{seq:06d}", payload), Counter())
        for seq in range(2)
    )
    assert ledger.state.key_count() == 0
    assert tx1.rwset == tx2.rwset
    assert ledger.log.height == 0


@pytest.mark.parametrize("design", list(WorldStateDesign))
def test_malformed_access_tokens_rejected(design):
    # res_id and time_id reach only consent keys; a separator in one used to
    # add a key segment and commit an empty grant
    ledger = SyncLedger(design, population_registry(4))
    ledger.bootstrap(None, [assign_role("w0", "d0", "c0", "w0")])
    receipts = ledger.run([
        [
            access_request("c0", "c0", "d0", "w0", "r|x", "t0"),
            access_request("c0", "c0", "d0", "w0", "r 1", "t0"),
            access_request("c0", "c0", "d0", "w0", "r0", "t|0"),
            access_request("c0", "c0", "d0", "w0", "r0", "t0"),
        ]
    ]).receipts
    assert [r.status for r in receipts] == [Status.REJECTED] * 3 + [Status.COMMITTED]
    assert [r.reason.split(" ")[:3] for r in receipts[:3]] == [
        ["contract:", "invalid", "res_id"],
        ["contract:", "invalid", "res_id"],
        ["contract:", "invalid", "time_id"],
    ]


def test_sync_same_key_writers_take_one_block_each():
    registry = population_registry(8)
    for k in (2, 5):
        cfg = PipelineConfig(block_size=100, max_retries=32)
        ledger = SyncLedger(DESIGN, registry, cfg)
        fact_for = lambda i: ConsentFact(f"i{i}", "r0", "d0", "w0", "t0")
        payloads = [grant_consent(f"i{i}", fact_for(i)) for i in range(k)]
        receipts = ledger.run([payloads]).receipts
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
    receipts = ledger.run([payloads]).receipts
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
    receipts = ledger.run([[bad, good]]).receipts
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
    ledger.bootstrap(spec)
    assert ledger.state.key_count() == 3
    assert ledger.log.height == 1
    with pytest.raises(ConfigError):
        ledger.bootstrap(spec)


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
    assert dict(harness.state.items())["d0|c0|w0"] == ("assign", 1)
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
    assert dict(harness.state.items())["r0|w0|d0|t0"] == (frozenset({"i0"}), 12)
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


@pytest.mark.parametrize("engine", [SyncLedger, LedgerHarness])
@pytest.mark.parametrize(
    "value",
    [
        pytest.param(frozenset({"i0", "a,b"}), id="a,b"),
        pytest.param(frozenset({"i0", ""}), id=""),
        pytest.param(frozenset({"i0", 1}), id="1"),
        # not a value at all: neither a marker nor a member set
        pytest.param(5, id="5"),
        pytest.param({"i0"}, id="set"),
    ],
)
def test_unjoinable_raw_write_member_is_rejected(engine, value):
    # a member set is one `,`-joined string of str members on the wire, so
    # this one could not be encoded: a rejection, never a worker fault
    registry = population_registry(4)
    cfg = PipelineConfig(block_size=4, client_threads=2, block_timeout_ms=20)
    ledger = engine(DESIGN, registry, cfg)
    good = [grant_consent(f.ind_id, f) for f in _facts(8, 4)]
    bad = raw_write("i0", [("i0|w0|d0|t0", value)])
    stats = ledger.run([good[:4] + [bad], good[4:]])
    assert stats.committed == 8
    assert stats.rejected == 1
    assert stats.finalized() == 9
    (rejected,) = [r for r in stats.receipts if r.status is Status.REJECTED]
    assert rejected.reason.startswith("contract: ")
    replay_check(ledger.log.store, ledger.state, registry=registry)


@pytest.mark.parametrize("engine", [SyncLedger, LedgerHarness])
@pytest.mark.parametrize("member", ["a|b", " x", "é"])
def test_raw_write_member_outside_the_token_grammar_is_rejected(engine, member):
    # joinable, but no individual id could be it
    registry = population_registry(4)
    cfg = PipelineConfig(block_size=4, client_threads=2, block_timeout_ms=20)
    ledger = engine(DESIGN, registry, cfg)
    good = [grant_consent(f.ind_id, f) for f in _facts(8, 4)]
    bad = raw_write("i0", [("i0|w0|d0|t0", frozenset({"i0", member}))])
    stats = ledger.run([good[:4] + [bad], good[4:]])
    assert (stats.committed, stats.rejected, stats.finalized()) == (8, 1, 9)
    (rejected,) = [r for r in stats.receipts if r.status is Status.REJECTED]
    assert rejected.reason.startswith("contract: ")
    assert "i0|w0|d0|t0" not in dict(ledger.state.items())
    replay_check(ledger.log.store, ledger.state, registry=registry)


def test_sync_cuts_full_blocks_at_size_and_the_rest_at_drain():
    ledger = SyncLedger(DESIGN, population_registry(8), PipelineConfig(block_size=4))
    stats = ledger.run([[grant_consent(f.ind_id, f) for f in _facts(10, 8)]])
    assert stats.cuts == {"size": 2, "drain": 1}
    assert stats.blocks == 3


def test_threaded_tail_block_is_cut_at_drain():
    # nothing more can arrive once the batch holds every transaction that
    # is not final, so the run never waits out the 10 s deadline
    cfg = PipelineConfig(block_size=100, block_timeout_ms=10_000)
    harness = LedgerHarness(DESIGN, population_registry(8), cfg)
    started = time.monotonic()
    stats = harness.run([[grant_consent(f.ind_id, f) for f in _facts(5, 8)]])
    assert time.monotonic() - started < 1.0
    assert stats.committed == 5
    assert stats.blocks == 1
    assert stats.cuts == {"drain": 1}


def test_threaded_drain_counts_rejections_as_final():
    # the rejection comes last; once it has passed the committer, the five
    # grants it holds are all that is left, so they are cut at once and not
    # at the 10 s deadline
    cfg = PipelineConfig(block_size=100, block_timeout_ms=10_000)
    harness = LedgerHarness(DESIGN, population_registry(8), cfg)
    good = [grant_consent(f.ind_id, f) for f in _facts(5, 8)]
    bad = grant_consent("i0", ConsentFact("i1", "r9", "d0", "w0", "t0"))
    started = time.monotonic()
    stats = harness.run([good + [bad]])
    assert time.monotonic() - started < 1.0
    assert (stats.committed, stats.rejected) == (5, 1)
    assert stats.cuts == {"drain": 1}


def test_threaded_busy_queue_cuts_at_deadline():
    # each endorsement takes 2 ms, so transactions reach the committer in a
    # steady stream; a batch is still cut 20 ms after its first transaction
    registry = population_registry(8)
    authorize = registry.authorize

    def slow_authorize(payload):
        time.sleep(0.002)
        authorize(payload)

    registry.authorize = slow_authorize
    cfg = PipelineConfig(block_size=1000, block_timeout_ms=20)
    harness = LedgerHarness(DESIGN, registry, cfg)
    stats = harness.run(_batches([grant_consent(f.ind_id, f) for f in _facts(100, 8)], 2))
    assert stats.cuts["deadline"] >= 2
    assert sum(stats.cuts.values()) == stats.blocks
    assert stats.committed == stats.submitted == stats.finalized() == 100
    replay_check(harness.log.store, harness.state, registry=registry)


def test_threaded_runs_return_without_polling_delays():
    # at the default 50 ms deadline a run that waited for it, or for a
    # polling stage to notice the end, would take 1 s over 20 runs
    registry = population_registry(8)
    payloads = [grant_consent(f.ind_id, f) for f in _facts(4, 8)]
    started = time.monotonic()
    for _ in range(20):
        stats = LedgerHarness(DESIGN, registry).run(_batches(payloads, 2))
        assert stats.committed == 4
        assert stats.cuts == {"drain": 1}
    assert time.monotonic() - started < 1.0


def test_threaded_hot_key_conflicts_with_a_small_retry_budget():
    registry = population_registry(4)
    cfg = PipelineConfig(block_size=4, block_timeout_ms=10, max_retries=2)
    harness = LedgerHarness(DESIGN, registry, cfg)
    fact = ConsentFact("i0", "r0", "d0", "w0", "t0")
    stats = harness.run(_batches([grant_consent("i0", fact)] * 12, 3))
    assert stats.committed + stats.aborted == stats.finalized() == 12
    assert stats.aborted > 0
    assert all(r.retry_count == 2 for r in stats.receipts if r.status is Status.ABORTED)
    # the endorser rings each first attempt and the committer each retry
    retries = sum(r.retry_count for r in stats.receipts)
    assert sum(stats.endorser_counts.values()) == cfg.policy_m * (stats.submitted + retries)
    assert sum(stats.cuts.values()) == stats.blocks
    assert dict(harness.state.items())["r0|w0|d0|t0"] == (frozenset({"i0"}), stats.committed)
    replay_check(harness.log.store, harness.state, registry=registry)


def test_threaded_cut_rule_under_fast_thread_switching():
    # the committer finds a drain from its own count of final receipts and
    # endorses retries itself; under a tiny switch interval, with more
    # clients than cores and hot keys that retry, every transaction still
    # ends exactly once and every committed write shows in the key versions
    registry = population_registry(8)
    cfg = PipelineConfig(block_size=7, block_timeout_ms=5, max_retries=3)
    harness = LedgerHarness(DESIGN, registry, cfg)
    facts = [ConsentFact(f"i{i % 8}", f"r{i % 5}", "d0", "w0", "t0") for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = time.monotonic()
        stats = harness.run(_batches([grant_consent(f.ind_id, f) for f in facts], 8))
        assert time.monotonic() - started < 30
    finally:
        sys.setswitchinterval(interval)
    assert stats.committed + stats.aborted == stats.finalized() == 200
    assert sum(stats.cuts.values()) == stats.blocks
    assert sum(version for _, (_, version) in harness.state.items()) == stats.committed
    replay_check(harness.log.store, harness.state, registry=registry)


def test_threaded_overload_cancels_and_accounts(monkeypatch):
    # rws access requests scan every individual's consent key, so the one
    # endorser falls behind two clients and the tiny queue stays full. The
    # roster makes each endorsement several 5 ms GIL switch intervals long:
    # a blocked client then refills the queue after every pop, before the
    # endorser can pop twice and take it below the saturation threshold
    registry = population_registry(8_000)
    monkeypatch.setattr(pipeline, "SUBMISSION_DEPTH", 4)
    monkeypatch.setattr(pipeline, "OVERLOAD_WINDOW_S", 0.2)
    harness = LedgerHarness(WorldStateDesign.RWS, registry)
    spec = PreloadSpec(
        design=WorldStateDesign.RWS,
        n_individuals=8_000,
        n_resources=20,
        n_roles=1,
        n_watchdogs=1,
        n_timeframes=1,
        key_space=8_000,
        value_space=20,
    )
    harness.bootstrap(spec, [assign_role("w0", "d0", "c0", "w0")])
    payloads = [
        access_request("c0", "c0", "d0", "w0", f"r{i % 20}", "t0") for i in range(400)
    ]
    stats = harness.run(_batches(payloads, 2))
    assert stats.overloaded
    assert stats.cancelled > 0
    assert stats.committed + stats.aborted + stats.rejected + stats.cancelled == 400
    assert stats.submitted == stats.finalized() == 400


def test_threaded_backlog_of_every_payload_is_not_overload(monkeypatch):
    # every payload fits in the link, so the clients hand over all they
    # hold at once and the slow endorser drains a full link alone: a
    # backlog no client adds to is not overload
    monkeypatch.setattr(pipeline, "SUBMISSION_DEPTH", 100)
    monkeypatch.setattr(pipeline, "OVERLOAD_WINDOW_S", 0.01)
    registry = population_registry(8)
    authorize = registry.authorize

    def slow_authorize(payload):
        time.sleep(0.005)
        authorize(payload)

    registry.authorize = slow_authorize
    harness = LedgerHarness(DESIGN, registry)
    stats = harness.run(_batches([grant_consent(f.ind_id, f) for f in _facts(100, 8)], 2))
    assert not stats.overloaded
    assert stats.committed == stats.finalized() == 100


def test_threaded_run_starts_clients_endorser_and_committer_only(monkeypatch):
    # the endorser measures overload at its own pops: no other thread runs
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    harness = LedgerHarness(DESIGN, population_registry(8), PipelineConfig(block_size=10))
    counting_threading = SimpleNamespace(Thread=CountingThread, Event=threading.Event)
    monkeypatch.setattr(pipeline, "threading", counting_threading)
    batches = _batches([grant_consent(f.ind_id, f) for f in _facts(60, 8)], 3)
    stats = harness.run(batches)
    assert stats.committed == 60
    assert len(started) == len(batches) + 2
    assert not any(t.is_alive() for t in started)


def test_threaded_worker_fault_raises_pipeline_fault(monkeypatch):
    registry = population_registry(4)

    def authorize(payload):
        raise RuntimeError("registry down")

    registry.authorize = authorize
    monkeypatch.setattr(pipeline, "STALL_TIMEOUT_S", 30.0)
    cfg = PipelineConfig(block_size=4, block_timeout_ms=10)
    harness = LedgerHarness(DESIGN, registry, cfg)
    payloads = [grant_consent(f.ind_id, f) for f in _facts(8, 4)]
    started = time.monotonic()
    with pytest.raises(PipelineFault, match="registry down"):
        harness.run(_batches(payloads, 2))
    assert time.monotonic() - started < 5


def test_threaded_silent_committer_raises_stall(monkeypatch):
    registry = population_registry(4)
    log = BlockLog()
    append = log.store.append

    def slow_append(record):
        time.sleep(1.0)
        append(record)

    log.store.append = slow_append
    monkeypatch.setattr(pipeline, "STALL_TIMEOUT_S", 0.3)
    cfg = PipelineConfig(block_size=4, block_timeout_ms=10)
    harness = LedgerHarness(DESIGN, registry, cfg, log=log)
    payloads = [grant_consent(f.ind_id, f) for f in _facts(4, 4)]
    with pytest.raises(PipelineStallError):
        harness.run([payloads])


def test_threaded_stall_in_retry_endorsement_raises_stall(monkeypatch):
    # retries of hot-key grants are endorsed again while the one-slot
    # submission queue is full; no thread may wait past the stall bound
    registry = population_registry(4)
    authorize = registry.authorize
    calls = itertools.count(1)

    def slow_authorize(payload):
        if next(calls) > 6:
            time.sleep(3.0)
        authorize(payload)

    registry.authorize = slow_authorize
    monkeypatch.setattr(pipeline, "SUBMISSION_DEPTH", 1)
    monkeypatch.setattr(pipeline, "STALL_TIMEOUT_S", 0.3)
    harness = LedgerHarness(DESIGN, registry)
    fact = ConsentFact("i0", "r0", "d0", "w0", "t0")
    started = time.monotonic()
    with pytest.raises(PipelineStallError):
        harness.run(_batches([grant_consent("i0", fact)] * 12, 2))
    # the shutdown waits up to 10 s for threads asleep in authorize
    assert time.monotonic() - started < 15


def test_threaded_one_slot_links_match_the_sync_engine(monkeypatch):
    # with one slot per link every hand-off waits for the next stage; hot
    # grants commute, so with no abort both engines end in the same state
    monkeypatch.setattr(pipeline, "SUBMISSION_DEPTH", 1)
    monkeypatch.setattr(pipeline, "ORDERED_DEPTH", 1)
    registry = population_registry(8)
    cfg = PipelineConfig(block_size=8, block_timeout_ms=5, max_retries=64)
    payloads = []
    for i in range(100):
        fact = ConsentFact(f"i{i % 8}", f"r{i % 5}", "d0", "w0", "t0")
        payloads.append(grant_consent(fact.ind_id, fact))
        payloads.append(access_request("c0", "c0", "d0", "w0", fact.res_id, "t0"))
    states = []
    for engine in (SyncLedger, LedgerHarness):
        ledger = engine(DESIGN, registry, cfg)
        ledger.bootstrap(None, [assign_role("w0", "d0", "c0", "w0")])
        stats = ledger.run(_batches(payloads, 2))
        assert stats.submitted == stats.finalized() == stats.committed == 200
        assert len({r.tx_id for r in stats.receipts}) == 200
        assert replay_check(ledger.log.store, ledger.state, registry=registry).clean()
        states.append(dict(ledger.state.items()))
    assert states[0] == states[1]


def test_threaded_ordered_link_holds_its_depth(monkeypatch):
    # a slow committer lets the endorser run ahead: at most ORDERED_DEPTH
    # transactions wait in the link, plus the one the endorser holds while
    # it waits for a slot
    monkeypatch.setattr(pipeline, "ORDERED_DEPTH", 3)
    commit_block = pipeline.commit_block

    def slow_commit_block(*args):
        time.sleep(0.005)
        return commit_block(*args)

    monkeypatch.setattr(pipeline, "commit_block", slow_commit_block)
    lock, outstanding, peak = threading.Lock(), [0], [0]

    def count(delta):
        with lock:
            outstanding[0] += delta
            peak[0] = max(peak[0], outstanding[0])

    endorse_pending = pipeline._Engine.endorse_pending

    def counting_endorse(self, pending, rings):
        tx = endorse_pending(self, pending, rings)
        count(1)
        return tx

    class CountingQueue(queue.SimpleQueue):
        def get(self, *args, **kwargs):
            item = super().get(*args, **kwargs)
            if isinstance(item, EndorsedTransaction):  # the committer's intake
                count(-1)
            return item

    monkeypatch.setattr(pipeline._Engine, "endorse_pending", counting_endorse)
    counting_queue = SimpleNamespace(SimpleQueue=CountingQueue, Empty=queue.Empty)
    monkeypatch.setattr(pipeline, "queue", counting_queue)
    harness = LedgerHarness(DESIGN, population_registry(8), PipelineConfig(block_size=10))
    stats = harness.run(_batches([grant_consent(f.ind_id, f) for f in _facts(300, 8)], 2))
    # distinct keys: no retry, so only the endorser endorses
    assert stats.committed == 300 and all(r.retry_count == 0 for r in stats.receipts)
    assert outstanding[0] == 0
    assert peak[0] == 3 + 1


def test_threaded_fault_leaves_no_thread_blocked(monkeypatch):
    # the endorser dies with a full one-slot submission link and clients
    # waiting for a slot; its drain must free a slot per item it takes
    monkeypatch.setattr(pipeline, "SUBMISSION_DEPTH", 1)
    co_endorse, calls = pipeline.co_endorse, itertools.count(1)

    def failing_co_endorse(*args):
        if next(calls) == 3:
            raise RuntimeError("endorser down")
        return co_endorse(*args)

    monkeypatch.setattr(pipeline, "co_endorse", failing_co_endorse)
    harness = LedgerHarness(DESIGN, population_registry(8))
    payloads = [grant_consent(f.ind_id, f) for f in _facts(50, 8)]
    before = set(threading.enumerate())
    started = time.monotonic()
    with pytest.raises(PipelineFault, match="endorser down"):
        harness.run(_batches(payloads, 2))
    assert time.monotonic() - started < 2.0
    assert [t for t in threading.enumerate() if t not in before] == []


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
    ledger.bootstrap(
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
    verdicts, chain = hashlib.sha256(), hashlib.sha256()
    receipts = []
    for _ in range(12):
        batch = [_golden_op(rng, design) for _ in range(rng.randrange(8, 24))]
        receipts += ledger.run([batch]).receipts
        verdicts.update(digest_entries(dict(ledger.state.items())).encode())
    for record in ledger.log.store:
        chain.update(wire.pack_chunk(record))
        block = parse_block(record)
        for tx, valid in zip(block.transactions, block.validity):
            answer = ""
            if tx.result is not None:
                answer = f"{tx.result.granted}:{','.join(tx.result.consenting_individuals)}"
            verdicts.update(wire.pack_str(f"{block.height}|{tx.tx_id}|{int(valid)}|{answer}"))
    for r in receipts:
        fields = (r.tx_id, r.client_id, r.seq, r.status.value, r.block_height,
                  r.retry_count, r.reason)
        verdicts.update(wire.pack_str("|".join(map(str, fields))))
    return verdicts.hexdigest(), chain.hexdigest(), receipts


# one fixed-seed history per design and policy, hashed twice. The verdict
# digest covers the state digests, each committed transaction's validity
# and access answer, and the receipts; it holds across wire revisions.
# The chain digest covers the raw records and moves with any change to
# chain bytes.
GOLDEN_VERDICTS = {
    "iws": "839a56476eee93359e7491c9466b9e49497aa9e0e89fa865de1eccfb317dcab6",
    "rws": "7e4eb5303acbddd0c5b82e7da467e0f0a8e0fc49ebafe1a7301a2ced03155f0c",
    "rows": "9b78a93fada5833eeca285ea2243f08e0b0a09e976110627284727b95bb489e2",
}
GOLDEN_CHAIN = {
    ("iws", "1/2"): "fa285e1d8a6eeb1f3a72cb9996a3326db3b49772ba2723eec1e717783d20b634",
    ("iws", "2/3"): "0f69be93606f9d846d1e6f63f6c2f1b0afc2f0b6a6da91d0405c8e6b35c2a14f",
    ("rws", "1/2"): "74700533ed9a9c6d4329f8440addda2f446d788e14e38b994457d83ee5bac19b",
    ("rws", "2/3"): "8292f22d94d1b0988209579208d23097938ee72932494e30b1f7326e9e55e54b",
    ("rows", "1/2"): "b942c2a53143880a4029b02b6e0804ae18c1bb00d445c49f940c5c2388621af9",
    ("rows", "2/3"): "7127149791319952f7de9335c01139bbef3c9b77175a34b77aeeda459f556f45",
}


@pytest.mark.parametrize("design", list(WorldStateDesign))
@pytest.mark.parametrize("policy", ["1/2", "2/3"])
def test_golden_sync_history(design, policy):
    verdicts, chain, receipts = _golden_digest(design, policy)
    statuses = Counter(r.status for r in receipts)
    assert statuses[Status.COMMITTED] and statuses[Status.REJECTED]
    assert any(r.reason.startswith("contract:") for r in receipts)
    assert any(r.reason == "conflict" and r.retry_count == 1 for r in receipts)
    assert verdicts == GOLDEN_VERDICTS[design.value]
    assert chain == GOLDEN_CHAIN[(design.value, policy)]


def _passes_grammar(key) -> bool:
    try:
        split_key(key)
    except KeyCodecError:
        return False
    return True


_IDS = {prefix: st.sampled_from([f"{prefix}{i}" for i in range(3)]) for prefix in "irdwc"}
_FACTS = st.builds(ConsentFact, _IDS["i"], _IDS["r"], _IDS["d"], _IDS["w"], st.just("t0"))
_ROLE_OPS = st.sampled_from([assign_role, revoke_role])
_RAW_KEYS = st.one_of(
    st.lists(st.sampled_from(["i0", "r1", "d0", "w0", "t0"]), min_size=1, max_size=4).map(
        "|".join
    ),
    st.text(max_size=6),
)
_HISTORY_OPS = st.one_of(
    st.builds(lambda f: grant_consent(f.ind_id, f), _FACTS),
    st.builds(lambda f: revoke_consent(f.ind_id, f), _FACTS),
    st.builds(lambda op, d, c, w: op(w, d, c, w), _ROLE_OPS, _IDS["d"], _IDS["c"], _IDS["w"]),
    st.builds(
        lambda c, d, w, r: access_request(c, c, d, w, r, "t0"),
        _IDS["c"], _IDS["d"], _IDS["w"], _IDS["r"],
    ),
    st.builds(
        lambda i, keys: raw_write(i, [(key, "assign") for key in keys]),
        _IDS["i"], st.lists(_RAW_KEYS, min_size=1, max_size=3, unique=True),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(WorldStateDesign),
    st.integers(0, 27),
    st.lists(st.lists(_HISTORY_OPS, max_size=12), max_size=4),
)
def test_every_state_key_passes_the_grammar(design, key_space, batches):
    """The invariant that lets a read skip split_key on a key it finds."""
    registry = population_registry(3, n_watchdogs=3, n_consumers=3)
    ledger = SyncLedger(design, registry, PipelineConfig(block_size=5))
    ledger.bootstrap(PreloadSpec(design, 3, 3, 3, 3, 1, key_space, 2))
    for batch in batches:
        for payload, receipt in zip(batch, ledger.run([batch]).receipts):
            if payload.write_items:
                valid = all(_passes_grammar(key) for key, _ in payload.write_items)
                assert (receipt.status is Status.REJECTED) == (not valid)
    for key, _ in ledger.state.items():
        split_key(key)


_TWO = {prefix: st.sampled_from([f"{prefix}0", f"{prefix}1"]) for prefix in "rdwc"}


def _consent_op(op, submitter):
    def build(ind, res, role, wd):
        return op(submitter or ind, ConsentFact(ind, res, role, wd, "t0"))

    return build


# Every write in these histories commutes with every other: i0-i2 only
# grant their own consent and i3-i5 only revoke theirs, c0's roles are only
# assigned and c1's only revoked. A grant i5 submits for i0-i2 is rejected
# in any order. Two resources, roles and watchdogs keep the keys hot.
_COMMUTING_OPS = st.one_of(
    *(
        st.builds(
            _consent_op(op, submitter), st.sampled_from(inds), _TWO["r"], _TWO["d"], _TWO["w"]
        )
        for op, submitter, inds in (
            (grant_consent, None, ["i0", "i1", "i2"]),
            (revoke_consent, None, ["i3", "i4", "i5"]),
            (grant_consent, "i5", ["i0", "i1", "i2"]),
        )
    ),
    st.builds(lambda d, w: assign_role(w, d, "c0", w), _TWO["d"], _TWO["w"]),
    st.builds(lambda d, w: revoke_role(w, d, "c1", w), _TWO["d"], _TWO["w"]),
    st.builds(
        lambda c, d, w, r: access_request(c, c, d, w, r, "t0"),
        _TWO["c"], _TWO["d"], _TWO["w"], _TWO["r"],
    ),
)


@seed(1919)
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(WorldStateDesign),
    st.none() | st.tuples(st.integers(0, 8), st.integers(0, 2)),
    st.lists(_COMMUTING_OPS, min_size=1, max_size=24),
    st.integers(1, 8),
    st.integers(2, 4),
    st.integers(0, 2),
    st.sampled_from([(1, 2), (2, 3)]),
)
def test_sync_and_threaded_engines_agree(
    design, preload, payloads, block_size, clients, retries, policy
):
    """One history through both engines: each chain replays clean, every
    payload ends exactly once, and with no abort the states are equal."""
    registry = population_registry(6, n_watchdogs=2, n_consumers=2)
    m, k = policy
    cfg = PipelineConfig(
        block_size=block_size, endorsers=k, policy_m=m, max_retries=retries, block_timeout_ms=5
    )
    runs = []
    for engine in (SyncLedger, LedgerHarness):
        ledger = engine(design, registry, cfg)
        if preload is not None:
            ledger.bootstrap(PreloadSpec(design, 6, 2, 2, 2, 1, *preload))
        stats = ledger.run(_batches(payloads, clients))
        assert stats.submitted == stats.finalized() == len(payloads)
        assert stats.committed + stats.aborted + stats.rejected == len(payloads)
        assert sum(stats.cuts.values()) == stats.blocks
        rings = m * (len(payloads) + sum(r.retry_count for r in stats.receipts))
        assert sum(stats.endorser_counts.values()) == rings
        report = replay_check(ledger.log.store, ledger.state, registry=registry, policy_m=m)
        assert report.clean()
        runs.append((stats, dict(ledger.state.items())))
    (sync, sync_state), (threaded, threaded_state) = runs
    assert sync.rejected == threaded.rejected
    if sync.aborted == threaded.aborted == 0:
        assert sync.committed == threaded.committed
        assert sync_state == threaded_state


def test_rwset_encoded_once_per_committed_tx(monkeypatch):
    encodes = Counter()
    to_bytes = ReadWriteSet.to_bytes

    def counting(rws):
        encodes[len(rws.reads)] += 1
        return to_bytes(rws)

    monkeypatch.setattr(ReadWriteSet, "to_bytes", counting)
    registry = population_registry(5)
    ledger = SyncLedger(WorldStateDesign.RWS, registry, PipelineConfig(block_size=3))
    setup = [assign_role("w0", "d0", "c0", "w0")]
    ledger.run([setup + [grant_consent(f.ind_id, f) for f in _facts(5, 5)]])
    encodes.clear()
    payloads = [access_request("c0", "c0", "d0", "w0", "r1", "t0")] * 4
    payloads.append(assign_role("w0", "d1", "c0", "w0"))
    receipts = ledger.run([payloads]).receipts
    assert [r.status for r in receipts] == [Status.COMMITTED] * 5
    assert all(r.retry_count == 0 for r in receipts)
    # one encode per transaction: an access request reads the role key and
    # 5 consent keys, a role grant its role key
    assert encodes == {6: 4, 1: 1}


# i0..i11 sorted: i10 and i11 come before i2
PRELOADED_MEMBERS = tuple(sorted(f"i{i}" for i in range(12)))


def _preloaded(engine, design=WorldStateDesign.IWS):
    """An engine over 13 individuals whose preload consents i0..i11.

    iws: r0..r5 share one member set of i0..i11. rws and rows: the keys
    of i0..i11 (under r0 for rows) each hold one member, r0 or d0.
    """
    ledger = engine(design, population_registry(13), PipelineConfig(block_size=4))
    if design is WorldStateDesign.IWS:
        spec = PreloadSpec(design, 13, 6, 1, 1, 1, key_space=6, value_space=12)
    else:
        spec = PreloadSpec(design, 13, 6, 1, 1, 1, key_space=12, value_space=1)
    ledger.bootstrap(spec, [assign_role("w0", "d0", "c0", "w0")])
    return ledger


def _requests(*res_ids):
    return [access_request("c0", "c0", "d0", "w0", res, "t0") for res in res_ids]


def _answers(ledger):
    """Every committed access answer on the chain, in chain order."""
    return [
        tx.result.consenting_individuals
        for record in ledger.log.store
        for tx in parse_block(record).transactions
        if tx.result is not None
    ]


@pytest.mark.parametrize("engine", [SyncLedger, LedgerHarness])
def test_iws_answers_sort_a_preloaded_member_set_once(engine, monkeypatch):
    sorted_members, sorts = pipeline.sorted_members, []

    def counting(members):
        sorts.append(len(members))
        return sorted_members(members)

    # the engine builds its memo around the function it finds then
    monkeypatch.setattr(pipeline, "sorted_members", counting)
    ledger = _preloaded(engine)
    stats = ledger.run(_batches(_requests(*[f"r{i % 6}" for i in range(12)]), 2))
    assert stats.committed == 12
    assert sorts == [12]
    assert _answers(ledger) == [PRELOADED_MEMBERS] * 12


def test_iws_answer_after_a_grant_holds_the_new_member_in_order():
    ledger = _preloaded(SyncLedger)
    ledger.run([_requests("r0", "r1")])
    stats = ledger.run([[grant_consent("i12", ConsentFact("i12", "r0", "d0", "w0", "t0"))]])
    assert stats.committed == 1
    stats = ledger.run([_requests("r0", "r1")])
    assert stats.committed == 2
    granted = tuple(sorted(PRELOADED_MEMBERS + ("i12",)))
    assert granted.index("i12") == 4  # between i11 and i2
    assert _answers(ledger) == [PRELOADED_MEMBERS] * 2 + [granted, PRELOADED_MEMBERS]
    assert ledger.member_order.cache_info().misses == 2


def test_member_order_memo_is_not_shared_across_engines():
    first, second = _preloaded(SyncLedger), _preloaded(SyncLedger)
    preloaded = [dict(ledger.state.items())["r0|w0|d0|t0"][0] for ledger in (first, second)]
    assert preloaded[0] == preloaded[1] and preloaded[0] is not preloaded[1]
    first.run([_requests("r0", "r1")])
    second.run([_requests("r0")])
    assert first.member_order.cache_info()[:2] == (1, 1)  # hits, misses
    assert second.member_order.cache_info()[:2] == (0, 1)


@pytest.mark.parametrize("design", [WorldStateDesign.RWS, WorldStateDesign.ROWS])
def test_scanned_answers_sort_their_own_list(design):
    # the scan lists i0..i11 in roster order; it never consults the memo
    ledger = _preloaded(SyncLedger, design)
    stats = ledger.run([_requests("r0", "r0")])
    assert stats.committed == 2
    assert _answers(ledger) == [PRELOADED_MEMBERS] * 2
    assert ledger.member_order.cache_info()[:2] == (0, 0)
