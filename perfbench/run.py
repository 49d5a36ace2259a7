"""Repository benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload access-iws --seed 1 --seconds 35 --trace 0

Run from the repository root. The engine is imported from `src/` of the
same tree, so nothing needs installing. One run repeats rounds until
`--seconds` have passed (at least one round). Each round builds a fresh
registry, world state and file-backed chain, then makes the public calls
`bench.run_bench` makes: `LedgerHarness.bootstrap` (timed as set-up),
`LedgerHarness.run` on two client threads (the timed window), and
`audit.replay_check` (timed as replay). After that it checks exact
accounting and, on the access workloads, every committed access answer.
No round starts that would end after `--seconds`, judged by the rounds
before it. The first round warms up: it is checked like every other, but
its times are left out of the medians.

A shared 2-core host drifts in speed by 10-20% over tens of seconds (a
fixed pure-Python loop shows it). So the timed metrics are reported at
a reference host speed: a calibration loop runs before and after each
timed phase of each round, each round's `tps`, `setup_s` and `replay_s`
is scaled by the mean of the two calibration times around it over
`CALIBRATION_REF_S`, and the run reports the median of the scaled rounds.
Across runs the raw medians track the calibration closely (correlation
0.6-0.9), so the scaled values spread a third to two thirds as much. The
unscaled medians and the calibration times are kept in the record line.

The load is a closed loop from this one process. Two client threads push
pre-generated payloads as fast as the bounded submission queues admit.
The pipeline config is otherwise the default: block 100, 2 endorsers,
policy 1/2, 50 ms block timeout. There is no latency metric yet, because
`LedgerHarness.run` exposes no submit timestamps; throughput is reported
at the stated payload count per round.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced rounds and then adds one round that times `split_key`; it
prints the per-layer metrics (see `tracing.py` and `BENCHMARK.json`). Spans
go to `perfbench/out/`.

Before the result, a `record` line gives the run context: Python version,
nproc, git commit, seed, the calibration-loop times of each round, the
unscaled medians, every round's raw numbers and, on traced runs, the
exact counts behind each ratio. The last line is the result JSON. A run whose output is wrong
prints `"correct": false` and exits 1. A tree without `src/consentledger`
exits 1 with an error on stderr and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SRC = ROOT / "src"


def _import_engine():
    """Import the engine from this tree's src/, never from elsewhere."""
    if not (SRC / "consentledger" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine source at {SRC / 'consentledger'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import consentledger

    if Path(consentledger.__file__).resolve().parent != (SRC / "consentledger").resolve():
        raise SystemExit(f"error: imported consentledger from {consentledger.__file__}")


@contextmanager
def measurement_window():
    """The timed window runs with the cyclic collector off, as bench does."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()
        gc.collect()


# Calibration time, in seconds, that the reported metrics are scaled to;
# about the usual speed of the 2-core host the baseline was taken on.
CALIBRATION_REF_S = 0.060
# A round's calibration passes run before set-up, before the run, before
# replay and after replay; each timed phase is scaled by the two around it.
BRACKETS = {"setup_s": (0, 1), "tps": (1, 2), "replay_s": (2, 3)}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; host speed drift shows here."""
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    return time.perf_counter() - started


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return None


def run_round(workload, seed: int, index: int, tracer=None, hot: bool = False) -> dict:
    """One fresh set-up, timed run, replay and check. Returns raw numbers.

    With a tracer, its wrappers are installed for this round only and
    restored before the chain is checked; without one, the round first
    proves that no wrapper is installed.
    """
    from consentledger.audit import ReplayMismatchError, TamperedLogError, replay_check
    from consentledger.blocklog import BlockLog, FileLogStore
    from consentledger.pipeline import LedgerHarness, PipelineConfig, Status
    from consentledger.worldstate import VersionedWorldState
    from tracing import assert_pristine
    from workloads import CLIENT_THREADS, walk_chain

    payloads = workload.payloads(seed, index)
    batches = [payloads[i::CLIENT_THREADS] for i in range(CLIENT_THREADS)]
    registry = workload.registry()
    preload = workload.preload()
    setup_payloads = workload.setup_payloads()
    config = PipelineConfig(client_threads=CLIENT_THREADS)
    path = OUT_DIR / f"chain-{os.getpid()}-{index}.log"
    path.unlink(missing_ok=True)
    store = FileLogStore(path)
    row = {
        "round": index,
        "traced": "hot" if hot else tracer is not None,
        "calibration_s": [],
    }

    def enter(phase: str) -> None:
        if tracer is not None:
            tracer.enter(phase)

    try:
        state = VersionedWorldState()
        harness = LedgerHarness(
            workload.design, registry, config=config, state=state, log=BlockLog(store)
        )
        if tracer is None:
            assert_pristine(registry, store)
        else:
            tracer.install(hot, registry, store)
        try:
            row["calibration_s"].append(calibrate())
            enter("setup")
            started = time.perf_counter()
            harness.bootstrap(preload, setup_payloads)
            row["setup_s"] = time.perf_counter() - started
            for _entry in state.items():  # page faults land before timing
                pass
            row["calibration_s"].append(calibrate())
            enter("run")
            with measurement_window():
                stats = harness.run(batches)
            row["calibration_s"].append(calibrate())
            enter("replay")
            started = time.perf_counter()
            try:
                replay_check(store, state, registry=registry, policy_m=config.policy_m)
                replay_error = None
            except (ReplayMismatchError, TamperedLogError) as exc:
                replay_error = f"replay: {exc}"
            row["replay_s"] = time.perf_counter() - started
            row["calibration_s"].append(calibrate())
            enter("check")
        finally:
            if tracer is not None:
                tracer.restore()
        assert_pristine(registry, store)
        row["log_bytes"] = path.stat().st_size
        chain = walk_chain(workload, store)
    finally:
        store.close()
        path.unlink(missing_ok=True)

    committed = stats.committed
    failed = stats.aborted + stats.rejected + stats.cancelled
    row.update(
        attempted=len(payloads),
        committed=committed,
        aborted=stats.aborted,
        rejected=stats.rejected,
        cancelled=stats.cancelled,
        overloaded=stats.overloaded,
        blocks=stats.blocks,
        elapsed_s=stats.elapsed_s,
        tps=committed / stats.elapsed_s,
        retries=sum(
            r.retry_count for r in stats.receipts if r.status is Status.COMMITTED
        ),
        chain_blocks=chain["blocks"],
        chain_txs=chain["txs"],
        run_block_txs=chain["txs"] - (preload is not None) - len(setup_payloads),
        answers_checked=chain["answers_checked"],
        answer_mismatches=chain["answer_mismatches"],
    )
    problems = [replay_error] if replay_error else []
    if committed + failed != len(payloads):
        problems.append("committed + aborted + rejected + cancelled != attempted")
    if chain["answer_mismatches"]:
        problems.append(
            f"{chain['answer_mismatches']} access answers differ from the preload grid"
        )
    if preload is not None and chain["answers_checked"] != committed:
        problems.append(
            f"checked {chain['answers_checked']} access answers for {committed} commits"
        )
    if committed == 0:
        problems.append("nothing committed")
    row["problems"] = problems
    return row


def host_slowness(rows: list) -> float:
    """The run's median calibration time over the reference: 1.1 is 10% slow."""
    passes = [c for r in rows for c in r["calibration_s"]]
    return statistics.median(passes) / CALIBRATION_REF_S


def scaled(row: dict, name: str) -> float:
    """One round's timed metric at the reference host speed."""
    before, after = (row["calibration_s"][i] for i in BRACKETS[name])
    slowness = (before + after) / 2 / CALIBRATION_REF_S
    return row[name] * slowness if name == "tps" else row[name] / slowness


def raw_medians(rows: list) -> dict:
    return {
        name: statistics.median(r[name] for r in rows)
        for name in ("tps", "setup_s", "replay_s")
    }


def warm(rows: list) -> list:
    """The rounds timed metrics use: all but the first, which warms up."""
    return rows[1:] or rows


def end_to_end(rows: list) -> dict:
    """End-to-end metrics; times are scaled to the reference host speed."""
    committed = sum(r["committed"] for r in rows)
    attempted = sum(r["attempted"] for r in rows)

    def median_scaled(name):
        return statistics.median(scaled(r, name) for r in warm(rows))

    return {
        "tps": (median_scaled("tps"), "1/s"),
        "setup_s": (median_scaled("setup_s"), "s"),
        "replay_s": (median_scaled("replay_s"), "s"),
        "committed_share": (committed / attempted, "share"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
        "log_bytes_per_tx": (
            statistics.median(r["log_bytes"] / r["committed"] for r in rows),
            "B",
        ),
    }


def per_layer(tracer, traced: list, untraced: list) -> tuple:
    """Per-layer metrics summed over the traced rounds, plus their bases.

    Span totals are [calls, wall_s, cpu_s, self_wall_s, self_cpu_s]; busy
    time is thread CPU time, wait time is wall minus CPU.
    """
    from consentledger.pipeline import PipelineConfig

    calls, wall, cpu, self_wall, self_cpu = range(5)
    totals = {phase: tracer.span_totals(phase) for phase in ("setup", "run", "replay")}
    counts = {phase: tracer.counts(phase) for phase in ("run", "replay", "hot-run")}
    run_counts, hot_counts = counts["run"], counts["hot-run"]

    def per(value, base):
        return value / base if base else 0.0

    def span(phase, name, column):
        return totals[phase].get(name, [0, 0.0, 0.0, 0.0, 0.0])[column]

    def mean_us(name, column=cpu):
        """Mean microseconds per call of a run-phase span."""
        return per(span("run", name, column), span("run", name, calls)) * 1e6

    def per_round(phase, name, column=wall):
        return per(span(phase, name, column), len(traced))

    window = sum(r["elapsed_s"] for r in traced)
    committed = sum(r["committed"] for r in traced)
    block_txs = sum(r["run_block_txs"] for r in traced)
    chain_txs = sum(r["chain_txs"] for r in traced)
    chain_blocks = sum(r["chain_blocks"] for r in traced)
    validate_calls = run_counts["validate_calls"]
    untraced_tps = statistics.median(r["tps"] for r in untraced)
    traced_tps = statistics.median(r["tps"] for r in traced)
    endorse_cpu = span("run", "pipeline.co_endorse", cpu)
    commit_cpu = span("run", "pipeline.commit_block", cpu)
    metrics = {
        "pipeline.endorse_cpu_us": (mean_us("pipeline.co_endorse"), "us"),
        "pipeline.endorse_wait_us": (
            mean_us("pipeline.co_endorse", wall) - mean_us("pipeline.co_endorse"),
            "us",
        ),
        "pipeline.endorse_busy_share": (
            per(endorse_cpu, window * PipelineConfig().endorsers),
            "share",
        ),
        "pipeline.commit_cpu_us_per_tx": (per(commit_cpu, block_txs) * 1e6, "us"),
        "pipeline.commit_busy_share": (per(commit_cpu, window), "share"),
        "pipeline.txs_per_block": (
            per(block_txs, span("run", "pipeline.commit_block", calls)),
            "count",
        ),
        "pipeline.retries_per_commit": (
            per(sum(r["retries"] for r in traced), committed),
            "count",
        ),
        "membership.authorize_us": (mean_us("membership.authorize"), "us"),
        "contracts.execute_cpu_us": (mean_us("contracts.execute_payload", self_cpu), "us"),
        "contracts.keys_read_per_tx": (
            per(run_counts["keys_read"], run_counts["simulations"]),
            "count",
        ),
        "keys.split_key_calls_per_tx": (
            per(hot_counts["split_key"], hot_counts["simulations"]),
            "count",
        ),
        "keys.split_key_us_per_tx": (
            per(hot_counts["split_key_s"], hot_counts["simulations"]) * 1e6,
            "us",
        ),
        "transactions.stub_cpu_us": (mean_us("transactions.endorsement_stub"), "us"),
        "transactions.verify_endorsement_cpu_us": (
            mean_us("transactions.verify_endorsement"),
            "us",
        ),
        "transactions.rwset_encodes_per_tx": (
            per(run_counts["rwset_encodes"], committed),
            "count",
        ),
        "transactions.tx_bytes": (
            per(run_counts["tx_encodes_bytes"], run_counts["tx_encodes"]),
            "B",
        ),
        "worldstate.validate_us": (mean_us("worldstate.validate_rwset"), "us"),
        "worldstate.apply_us": (mean_us("worldstate.apply_rwset"), "us"),
        "worldstate.fastpath_share": (
            per(run_counts["validate_fastpath"], validate_calls),
            "share",
        ),
        "worldstate.conflict_share": (
            per(run_counts["validate_conflicts"], validate_calls),
            "share",
        ),
        "blocklog.make_block_cpu_us_per_tx": (
            per(span("run", "blocklog.make_block", cpu), block_txs) * 1e6,
            "us",
        ),
        "blocklog.serialize_cpu_us_per_tx": (
            per(span("run", "blocklog.serialize_block", cpu), block_txs) * 1e6,
            "us",
        ),
        "blocklog.append_us_per_block": (mean_us("blocklog.append", wall), "us"),
        "blocklog.parse_cpu_us_per_tx": (
            per(span("replay", "blocklog.parse_block", cpu), chain_txs) * 1e6,
            "us",
        ),
        "blocklog.verify_chain_s": (per_round("replay", "blocklog.verify_chain"), "s"),
        "audit.parses_per_block": (
            per(span("replay", "blocklog.parse_block", calls), chain_blocks),
            "count",
        ),
        "audit.rwset_encodes_per_tx": (
            per(counts["replay"]["rwset_encodes"], chain_txs),
            "count",
        ),
        "audit.oracle_self_s": (
            per_round("replay", "audit.replay_oracle", self_wall),
            "s",
        ),
        "audit.matches_state_s": (per_round("replay", "audit.matches_state"), "s"),
        "preload.apply_s": (per_round("setup", "preload.apply_preload"), "s"),
        "trace.overhead_share": (1 - per(traced_tps, untraced_tps), "share"),
    }
    bases = {
        "traced_rounds": len(traced),
        "untraced_tps_median": untraced_tps,
        "traced_tps_median": traced_tps,
        "window_s": window,
        "committed": committed,
        "run_block_txs": block_txs,
        "chain_txs": chain_txs,
        "chain_blocks": chain_blocks,
        "counts": {phase: dict(c) for phase, c in counts.items()},
        "spans": {
            phase: dict(sorted(rows.items())) for phase, rows in totals.items()
        },
    }
    return metrics, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_engine()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": result["record"]}, default=str))
    print(json.dumps(result["result"]))
    return 0 if result["result"]["correct"] else 1


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds for `seconds`; return {"record": ..., "result": ...}.

    Traced runs alternate untraced and traced rounds, so the tracing
    overhead compares rounds taken under the same host conditions, then
    add the split_key round.
    """
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    rows: list = []
    durations: list = []
    started = time.perf_counter()
    while len(rows) < (2 if trace else 1) or (
        time.perf_counter() - started + statistics.median(durations) <= seconds
    ):
        traced = trace and len(rows) % 2 == 1
        round_started = time.perf_counter()
        rows.append(run_round(workload, seed, len(rows), tracer if traced else None))
        durations.append(time.perf_counter() - round_started)
    if trace:
        rows.append(run_round(workload, seed, len(rows), tracer, hot=True))

    problems = [f"round {r['round']}: {p}" for r in rows for p in r["problems"]]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "txs_per_round": workload.txs,
        "rounds": rows,
        "problems": problems,
    }
    untraced = [r for r in rows if r["traced"] is False]
    record["host_slowness"] = host_slowness(warm(untraced))
    record["raw_medians"] = raw_medians(warm(untraced))
    if trace:
        traced = [r for r in rows if r["traced"] is True]
        metrics, record["trace_bases"] = per_layer(tracer, traced, untraced)
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(untraced)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["aborted"] + r["rejected"] + r["cancelled"] for r in rows),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return {"record": record, "result": result}


if __name__ == "__main__":
    sys.exit(main())
