"""End-to-end acceptance gates for the ledger engine.

Eight numbered criteria cover the envelope this package promises: exact
key-touch counts per world-state design, population-independent access
throughput for the resource-keyed layout, overload of the
individual-keyed layout at large populations, flat read scaling over key
and value space, conflict serialization, cross-design agreement against
a brute-force oracle, tamper evidence of the block chain, and
deterministic replay.

Each test prints one `[criterion N] PASS/FAIL name: detail` line through
pytest's terminal writer so the verdicts land in the run output even
with capture on, with a plain-stdout fallback. Numeric tolerances
live in module constants next to the criteria that use them. Throughput
criteria compare medians of three interleaved rounds per cell, which
absorbs one-sided scheduler noise on a shared host; absolute
transactions per second appear in the detail text but are never
asserted.
"""

import random
import statistics
import sys
import time
from collections import Counter

import pytest

from consentledger.audit import ReplayMismatchError, TamperedLogError, replay_check
from consentledger.bench import gen_sweep, run_bench, split_batches, table3_spec
from consentledger.blocklog import BlockLog, MemoryLogStore, verify_chain
from consentledger.contracts import execute_payload, sorted_members
from consentledger.keys import (
    ROLE_ASSIGNED,
    ROLE_REVOKED,
    ConsentFact,
    WorldStateDesign,
)
from consentledger.membership import population_registry
from consentledger.pipeline import (
    LedgerHarness,
    PipelineConfig,
    Receipt,
    Status,
    SyncLedger,
    _Pending,
)
from consentledger.transactions import (
    access_request,
    assign_role,
    grant_consent,
    revoke_consent,
    revoke_role,
)
from consentledger.worldstate import (
    SimulationContext,
    VersionedWorldState,
    apply_rwset,
)

TOUCH_POPULATIONS = (200, 20_000)
TOUCH_WALL_CAP_S = 60.0

POPULATION_CELLS = ((200, 200), (200, 20_000), (20_000, 200), (20_000, 20_000))
POPULATION_VARIATION_MAX = 0.15
SPLIT_RATIO_MIN = 2.0

OVERLOAD_WALL_CAP_S = 300.0

SCALING_VARIATION_MAX = 0.20
SCALING_ROUNDS = 3

CONFLICT_WRITERS = (2, 5, 10)
SAME_KEY_READERS = 100
WATCHDOG_OPS = 30

HISTORY_COUNT = 100
OPS_PER_HISTORY = 1_000

CHAIN_BLOCKS = 50
MUTATION_TRIALS = 200

_REPLAYED_RUNS = [0]
_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _verdict_writer(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _criterion(number: int, name: str, ok: bool, detail: str) -> None:
    """Print one verdict line in the run output, then enforce it."""
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {verdict} {name}: {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line("")
        _REPORTER.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def _bench(spec):
    """run_bench with its replay verification on; raises on replay drift."""
    result = run_bench(spec)
    _REPLAYED_RUNS[0] += 1
    return result


def _variation(values) -> float:
    lo, hi = min(values), max(values)
    return (hi - lo) / hi


@pytest.fixture(scope="module")
def population_runs():
    """Shared measurements for the population criteria.

    Three interleaved rounds of every resource-keyed cell, then one run
    of each individual-keyed comparison cell. Walls include preload and
    replay, not just the timed window.
    """
    iws_rounds = {cell: [] for cell in POPULATION_CELLS}
    for _ in range(SCALING_ROUNDS):
        for cell in POPULATION_CELLS:
            started = time.monotonic()
            result = _bench(table3_spec(WorldStateDesign.IWS, *cell))
            iws_rounds[cell].append((result, time.monotonic() - started))
    started = time.monotonic()
    rws_small = _bench(table3_spec(WorldStateDesign.RWS, 200, 200))
    rws_small_wall = time.monotonic() - started
    started = time.monotonic()
    rws_big = _bench(table3_spec(WorldStateDesign.RWS, 200, 20_000))
    rws_big_wall = time.monotonic() - started
    return {
        "iws_rounds": iws_rounds,
        "iws_medians": {
            cell: statistics.median(result.tps for result, _ in rounds)
            for cell, rounds in iws_rounds.items()
        },
        "rws_small": (rws_small, rws_small_wall),
        "rws_big": (rws_big, rws_big_wall),
    }


def _endorse(ledger, payload):
    """Endorse one payload against the ledger's state without committing it."""
    tx = ledger.endorse_pending(_Pending("c0", 0, "c0-000000", payload), Counter())
    assert not isinstance(tx, Receipt), tx
    return tx


def test_criterion_1_exact_key_touches():
    started = time.monotonic()
    observed = {}
    for n in TOUCH_POPULATIONS:
        registry = population_registry(n, n_watchdogs=1, n_consumers=1)
        for design in WorldStateDesign:
            ledger = SyncLedger(design, registry)
            receipt = ledger.run([[assign_role("w0", "d0", "c0", "w0")]]).receipts[0]
            assert receipt.status is Status.COMMITTED
            fact = ConsentFact("i0", "r0", "d0", "w0", "t0")
            observed[(design, n)] = {
                "grant": _endorse(ledger, grant_consent("i0", fact)),
                "role": _endorse(ledger, assign_role("w0", "d1", "c0", "w0")),
                "access": _endorse(
                    ledger,
                    access_request(
                        "c0",
                        dc_id="c0",
                        role_id="d0",
                        wd_id="w0",
                        res_id="r0",
                        time_id="t0",
                    )
                ),
                "denied": _endorse(
                    ledger,
                    access_request(
                        "c0",
                        dc_id="c0",
                        role_id="d9",
                        wd_id="w0",
                        res_id="r0",
                        time_id="t0",
                    )
                ),
            }
    wall = time.monotonic() - started

    problems = []
    for (design, n), txs in observed.items():
        touches = {op: tx.rwset.touch_count() for op, tx in txs.items()}
        want_access = 2 if design is WorldStateDesign.IWS else n + 1
        if touches["access"] != want_access:
            problems.append(
                f"{design.value} n={n} access touches {touches['access']}, "
                f"want {want_access}"
            )
        for op in ("grant", "role", "denied"):
            if touches[op] != 1:
                problems.append(
                    f"{design.value} n={n} {op} touches {touches[op]}, want 1"
                )
    if wall >= TOUCH_WALL_CAP_S:
        problems.append(f"wall {wall:.1f}s over the {TOUCH_WALL_CAP_S:.0f}s cap")
    _criterion(
        1,
        "exact key touches",
        not problems,
        "; ".join(problems)
        or (
            "granted access touches exactly 2 keys on iws and n+1 on rws and "
            f"rows at n=200 and n=20000; consent, role and denied ops touch "
            f"exactly 1; wall {wall:.1f}s"
        ),
    )


def test_criterion_2_population_independent_throughput(population_runs):
    problems = []
    for cell, rounds in population_runs["iws_rounds"].items():
        for result, _wall in rounds:
            if result.committed != result.spec.total_txs or result.overloaded:
                problems.append(
                    f"iws {cell}: committed {result.committed}/"
                    f"{result.spec.total_txs} overloaded={result.overloaded}"
                )
                break
    medians = population_runs["iws_medians"]
    rws_small, _ = population_runs["rws_small"]
    if rws_small.committed != rws_small.spec.total_txs:
        problems.append(
            f"rws (200,200): committed {rws_small.committed}/"
            f"{rws_small.spec.total_txs}"
        )
    variation = _variation(list(medians.values()))
    ratio = medians[(200, 200)] / rws_small.tps
    if variation > POPULATION_VARIATION_MAX:
        problems.append(
            f"iws cell variation {variation:.3f} over {POPULATION_VARIATION_MAX}"
        )
    if ratio < SPLIT_RATIO_MIN:
        problems.append(f"iws/rws ratio {ratio:.2f} under {SPLIT_RATIO_MIN}")
    cells = " ".join(
        f"({r},{i})={medians[(r, i)]:.0f}" for r, i in POPULATION_CELLS
    )
    _criterion(
        2,
        "population-independent throughput",
        not problems,
        "; ".join(problems)
        or (
            f"iws median tps {cells}: variation {variation:.3f} "
            f"(cap {POPULATION_VARIATION_MAX:.2f}); iws/rws at (200,200) "
            f"{ratio:.1f}x (floor {SPLIT_RATIO_MIN:.0f}x); absolute tps "
            "reported, not asserted"
        ),
    )


def test_criterion_3_individual_keyed_overload(population_runs):
    rws_big, rws_big_wall = population_runs["rws_big"]
    iws_big_rounds = population_runs["iws_rounds"][(200, 20_000)]
    problems = []
    if not rws_big.overloaded:
        problems.append("rws (200,20000) did not overload")
    accounted = (
        rws_big.committed + rws_big.aborted + rws_big.rejected + rws_big.cancelled
    )
    if accounted != rws_big.spec.total_txs:
        problems.append(
            f"rws (200,20000) accounted {accounted}/{rws_big.spec.total_txs}"
        )
    if rws_big.committed >= rws_big.spec.total_txs:
        problems.append("rws (200,20000) committed everything despite overload")
    for result, _wall in iws_big_rounds:
        if result.overloaded or result.committed != result.spec.total_txs:
            problems.append(
                f"iws (200,20000): committed {result.committed} "
                f"overloaded={result.overloaded}"
            )
            break
    wall = rws_big_wall + iws_big_rounds[0][1]
    if wall >= OVERLOAD_WALL_CAP_S:
        problems.append(f"wall {wall:.0f}s over the {OVERLOAD_WALL_CAP_S:.0f}s cap")
    _criterion(
        3,
        "individual-keyed overload",
        not problems,
        "; ".join(problems)
        or (
            f"rws (200,20000) overloaded its bounded queues: committed "
            f"{rws_big.committed}, cancelled {rws_big.cancelled} of "
            f"{rws_big.spec.total_txs}; iws (200,20000) committed all "
            f"{iws_big_rounds[0][0].spec.total_txs} in every round; "
            f"wall {wall:.0f}s"
        ),
    )


def test_criterion_4_flat_read_scaling():
    problems = []
    summaries = []
    for kind in ("keyspace", "valuespace"):
        specs = gen_sweep(kind)
        rounds = []
        for _ in range(SCALING_ROUNDS):
            row = []
            for spec in specs:
                result = _bench(spec)
                if result.committed != spec.total_txs:
                    problems.append(
                        f"{kind} cell committed {result.committed}/{spec.total_txs}"
                    )
                row.append(result.tps)
            rounds.append(row)
        medians = [statistics.median(cell) for cell in zip(*rounds)]
        variation = _variation(medians)
        if variation > SCALING_VARIATION_MAX:
            problems.append(
                f"{kind} variation {variation:.3f} over {SCALING_VARIATION_MAX}"
            )
        cells = " ".join(f"{m:.0f}" for m in medians)
        summaries.append(f"{kind} median tps [{cells}] variation {variation:.3f}")
    _criterion(
        4,
        "flat read scaling",
        not problems,
        "; ".join(problems)
        or "; ".join(summaries) + f" (cap {SCALING_VARIATION_MAX:.2f})",
    )


def test_criterion_5_conflict_serialization():
    problems = []
    for spec in gen_sweep("conflict"):
        result = _bench(spec)
        k = spec.conflict_k
        if result.blocks != k or result.committed != k:
            problems.append(
                f"{k} same-key writers: blocks={result.blocks} "
                f"committed={result.committed}, want {k} each"
            )

    registry = population_registry(100)
    ledger = SyncLedger(WorldStateDesign.IWS, registry)
    ledger.run([[assign_role("w0", "d0", "c0", "w0")]])
    base = ledger.log.height
    receipts = ledger.run([
        [
            access_request(
                "c0",
                dc_id="c0",
                role_id="d0",
                wd_id="w0",
                res_id="r0",
                time_id="t0",
            )
            for _ in range(SAME_KEY_READERS)
        ]
    ]).receipts
    read_blocks = ledger.log.height - base
    if read_blocks != 1:
        problems.append(
            f"{SAME_KEY_READERS} same-key readers took {read_blocks} blocks, want 1"
        )
    if any(r.status is not Status.COMMITTED for r in receipts):
        problems.append("a same-key read failed to commit")

    rng = random.Random(501)
    registry = population_registry(200)
    grants = []
    for _ in range(1_000):
        ind = f"i{rng.randrange(200)}"
        fact = ConsentFact(
            ind,
            f"r{rng.randrange(50)}",
            f"d{rng.randrange(3)}",
            "w0",
            f"t{rng.randrange(2)}",
        )
        grants.append(grant_consent(ind, fact))
    batches = split_batches(grants, 4)
    batches.append(
        [assign_role("w0", f"d{i}", "c0", "w0") for i in range(WATCHDOG_OPS)]
    )
    watchdog_client = f"client{len(batches) - 1}"
    harness = LedgerHarness(WorldStateDesign.IWS, registry, config=PipelineConfig())
    harness.bootstrap()
    stats = harness.run(batches)
    role_receipts = [r for r in stats.receipts if r.client_id == watchdog_client]
    if len(role_receipts) != WATCHDOG_OPS:
        problems.append(
            f"expected {WATCHDOG_OPS} watchdog receipts, got {len(role_receipts)}"
        )
    disturbed = [
        r
        for r in role_receipts
        if r.status is not Status.COMMITTED or r.retry_count
    ]
    if disturbed:
        problems.append(
            f"{len(disturbed)} watchdog ops aborted or retried under "
            "concurrent consent traffic"
        )
    _criterion(
        5,
        "conflict serialization",
        not problems,
        "; ".join(problems)
        or (
            f"k same-key writers need exactly k blocks for k in "
            f"{CONFLICT_WRITERS}; {SAME_KEY_READERS} same-key readers share "
            f"one block; {WATCHDOG_OPS} watchdog role ops committed with "
            f"zero retries against {len(grants)} concurrent consent writes"
        ),
    )


def _history_disagreement(history: int, registry, pools) -> tuple:
    """Run one random history; returns (decisions checked, mismatch or None)."""
    inds, ress, roles, wds, times, dcs = pools
    roster = registry.roster()
    designs = tuple(WorldStateDesign)
    states = {design: VersionedWorldState() for design in designs}
    rng = random.Random(9_000 + history)
    facts: set = set()
    fact_list: list = []  # insertion order, so draws stay reproducible
    markers: dict = {}
    for _ in range(OPS_PER_HISTORY):
        roll = rng.random()
        if roll < 0.35:
            fact = ConsentFact(
                rng.choice(inds),
                rng.choice(ress),
                rng.choice(roles),
                rng.choice(wds),
                rng.choice(times),
            )
            payload = grant_consent(fact.ind_id, fact)
            if fact not in facts:
                facts.add(fact)
                fact_list.append(fact)
        elif roll < 0.60:
            if fact_list and rng.random() < 0.5:
                fact = fact_list[rng.randrange(len(fact_list))]
            else:
                fact = ConsentFact(
                    rng.choice(inds),
                    rng.choice(ress),
                    rng.choice(roles),
                    rng.choice(wds),
                    rng.choice(times),
                )
            payload = revoke_consent(fact.ind_id, fact)
            if fact in facts:
                facts.discard(fact)
                fact_list.remove(fact)
        else:
            role, dc, wd = rng.choice(roles), rng.choice(dcs), rng.choice(wds)
            if roll < 0.80:
                payload = assign_role(wd, role, dc, wd)
                markers[(role, dc, wd)] = ROLE_ASSIGNED
            else:
                payload = revoke_role(wd, role, dc, wd)
                markers[(role, dc, wd)] = ROLE_REVOKED
        for design in designs:
            ctx = SimulationContext(states[design])
            execute_payload(ctx, payload, design, roster, sorted_members)
            apply_rwset(states[design], ctx.rwset())

    checked = 0
    for dc in dcs:
        for role in roles:
            for wd in wds:
                for res in ress:
                    for t in times:
                        payload = access_request(
                            dc,
                            dc_id=dc,
                            role_id=role,
                            wd_id=wd,
                            res_id=res,
                            time_id=t,
                        )
                        answers = []
                        for design in designs:
                            ctx = SimulationContext(states[design])
                            record = execute_payload(
                                ctx, payload, design, roster, sorted_members
                            )
                            answers.append(
                                (record.granted, record.consenting_individuals)
                            )
                        granted = markers.get((role, dc, wd)) == ROLE_ASSIGNED
                        members = ()
                        if granted:
                            members = tuple(
                                sorted(
                                    {
                                        f.ind_id
                                        for f in facts
                                        if f.res_id == res
                                        and f.role_id == role
                                        and f.wd_id == wd
                                        and f.time_id == t
                                    }
                                )
                            )
                        expected = (granted, members)
                        checked += 1
                        if any(answer != expected for answer in answers):
                            return checked, (
                                f"history {history} access "
                                f"({dc},{role},{wd},{res},{t}): engine "
                                f"{answers} vs oracle {expected}"
                            )
    return checked, None


def test_criterion_6_cross_design_agreement():
    pools = (
        [f"i{j}" for j in range(20)],
        [f"r{j}" for j in range(20)],
        [f"d{j}" for j in range(3)],
        [f"w{j}" for j in range(2)],
        [f"t{j}" for j in range(2)],
        [f"c{j}" for j in range(2)],
    )
    registry = population_registry(20, n_watchdogs=2, n_consumers=2)
    checked = 0
    mismatch = None
    for history in range(HISTORY_COUNT):
        count, mismatch = _history_disagreement(history, registry, pools)
        checked += count
        if mismatch is not None:
            break
    _criterion(
        6,
        "cross-design agreement",
        mismatch is None,
        mismatch
        or (
            f"{HISTORY_COUNT} random histories of {OPS_PER_HISTORY} ops; "
            f"{checked} access decisions identical across iws, rws, rows "
            "and the brute-force oracle"
        ),
    )


def test_criterion_7_tamper_evidence():
    registry = population_registry(100)
    store = MemoryLogStore()
    ledger = SyncLedger(
        WorldStateDesign.IWS,
        registry,
        config=PipelineConfig(block_size=2),
        log=BlockLog(store),
    )
    payloads = [
        grant_consent(f"i{j}", ConsentFact(f"i{j}", f"r{j}", "d0", "w0", "t0"))
        for j in range(2 * CHAIN_BLOCKS)
    ]
    receipts = ledger.run([payloads]).receipts
    assert all(r.status is Status.COMMITTED for r in receipts)
    assert ledger.log.height == CHAIN_BLOCKS
    assert verify_chain(store) is None

    pristine = list(store)
    rng = random.Random(4_242)
    problems = []
    for _ in range(MUTATION_TRIALS):
        index = rng.randrange(len(pristine))
        record = bytearray(pristine[index])
        offset = rng.randrange(len(record))
        record[offset] ^= rng.randrange(1, 256)
        mutated = MemoryLogStore()
        for height, original in enumerate(pristine):
            mutated.append(bytes(record) if height == index else original)
        bad = verify_chain(mutated)
        if bad is None:
            problems.append(
                f"byte {offset} of block {index} flipped without detection"
            )
        elif bad < index:
            problems.append(
                f"mutation at height {index} reported at earlier height {bad}"
            )
        if problems:
            break
    _criterion(
        7,
        "tamper evidence",
        not problems,
        "; ".join(problems)
        or (
            f"{MUTATION_TRIALS} random single-byte mutations over a "
            f"{CHAIN_BLOCKS}-block chain all detected at or after the "
            "mutated height"
        ),
    )


def test_criterion_8_deterministic_replay():
    registry = population_registry(30)
    store = MemoryLogStore()
    state = VersionedWorldState()
    ledger = SyncLedger(
        WorldStateDesign.IWS, registry, state=state, log=BlockLog(store)
    )
    rng = random.Random(77)
    ops = [assign_role("w0", "d0", "c0", "w0")]
    for _ in range(60):
        ind = f"i{rng.randrange(30)}"
        fact = ConsentFact(ind, f"r{rng.randrange(10)}", "d0", "w0", "t0")
        if rng.random() < 0.7:
            ops.append(grant_consent(ind, fact))
        else:
            ops.append(revoke_consent(ind, fact))
    for _ in range(20):
        ops.append(
            access_request(
                "c0",
                dc_id="c0",
                role_id="d0",
                wd_id="w0",
                res_id=f"r{rng.randrange(10)}",
                time_id="t0",
            )
        )
    receipts = ledger.run([ops]).receipts
    assert all(r.status is Status.COMMITTED for r in receipts)
    try:
        replay_check(store, state, registry=registry)
        failure = ""
    except (ReplayMismatchError, TamperedLogError) as exc:
        failure = str(exc)
    _criterion(
        8,
        "deterministic replay",
        not failure,
        failure
        or (
            f"scripted chain of {ledger.log.height} blocks replays to the "
            f"identical state; {_REPLAYED_RUNS[0]} benchmark chains "
            "re-executed and matched during this session"
        ),
    )
