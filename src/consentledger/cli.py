"""Command-line interface.

    consentledger bench <kind> [--design iws|rws|rows] [--block-size N]
                  [--endorsers N] [--policy m/k] [--seed N] [--txs N]
                  [--out results.csv] [--config pipeline.cfg]
                  [--log-file chain.log] [--no-replay]
    consentledger audit <subject> --log chain.log
    consentledger verify --log chain.log
    consentledger replay --log chain.log [--registry actors.txt] [--policy m/k]

bench runs one sweep (keyspace, valuespace, write-valuespace, txsize,
table3, conflict) and prints one line per cell; --out appends the pinned
CSV rows. audit subjects are written kind:id, e.g. individual:i4,
consumer:c0, watchdog:w0. verify exits 1 when the chain fails its hash
walk, replay exits 1 when re-execution disagrees with the stored flags
or answers. audit, verify and replay only read the log: a missing or
empty log file exits 2 and is not created. A missing or malformed
--registry or --config file and a bad --policy also exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from consentledger import bench as bench_mod
from consentledger.audit import (
    TamperedLogError,
    audit_consumer,
    audit_individual,
    audit_watchdog,
    replay_oracle,
)
from consentledger.blocklog import FileLogStore, verified_blocks
from consentledger.keys import KeyCodecError, WorldStateDesign
from consentledger.membership import MembershipError, MembershipRegistry
from consentledger.pipeline import ConfigError, PipelineConfig, parse_policy, read_config
from consentledger.worldstate import digest_entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consentledger",
        description="Consent ledger benchmarks, audits, and chain checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run one benchmark sweep")
    p_bench.add_argument("kind", choices=bench_mod.SWEEP_KINDS)
    p_bench.add_argument("--design", choices=[d.value for d in WorldStateDesign],
                         default=WorldStateDesign.IWS.value)
    p_bench.add_argument("--block-size", type=int, default=None)
    p_bench.add_argument("--endorsers", type=int, default=None)
    p_bench.add_argument("--policy", type=str, default=None, metavar="m/k")
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--txs", type=int, default=None,
                         help="transactions per cell (desk-scale default per kind)")
    p_bench.add_argument("--out", type=str, default=None, metavar="CSV")
    p_bench.add_argument("--config", type=str, default=None,
                         help="pipeline config file; flags override it")
    p_bench.add_argument("--log-file", type=str, default=None,
                         help="persist the block chain here instead of a temp file")
    p_bench.add_argument("--no-replay", action="store_true",
                         help="skip the replay oracle check after each run")

    p_audit = sub.add_parser("audit", help="list committed events for one actor")
    p_audit.add_argument("subject", help="kind:id, e.g. individual:i4")
    p_audit.add_argument("--log", required=True)

    p_verify = sub.add_parser("verify", help="walk the hash chain")
    p_verify.add_argument("--log", required=True)

    p_replay = sub.add_parser("replay", help="re-execute the chain independently")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--registry", default=None)
    p_replay.add_argument("--policy", type=str, default="1/2", metavar="m/k")

    return parser


def _bench_config(args) -> PipelineConfig:
    """The --config file's values, with the flags replacing the same keys."""
    values = read_config(args.config) if args.config else {}
    flags = {"block_size": args.block_size, "endorsers": args.endorsers, "policy": args.policy}
    values.update((key, str(value)) for key, value in flags.items() if value is not None)
    return PipelineConfig.from_mapping(values, where=args.config or "bench")


def _cell_log_path(base: str, index: int, count: int) -> Path:
    path = Path(base)
    if count == 1:
        return path
    return path.with_name(f"{path.stem}-{index}{path.suffix}")


def cmd_bench(args) -> int:
    design = WorldStateDesign.parse(args.design)
    try:
        cfg = _bench_config(args)
        specs = bench_mod.gen_sweep(
            args.kind, design=design, total_txs=args.txs, seed=args.seed
        )
    except (ConfigError, bench_mod.WorkloadError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = []
    for index, spec in enumerate(specs):
        log_store = None
        if args.log_file:
            # one file per cell: a chain log holds exactly one run
            path = _cell_log_path(args.log_file, index, len(specs))
            if path.exists() and path.stat().st_size > 0:
                print(f"error: {path} already holds a chain", file=sys.stderr)
                return 2
            log_store = FileLogStore(path)
        try:
            result = bench_mod.run_bench(
                spec,
                config=cfg,
                log_store=log_store,
                replay=not args.no_replay,
            )
        finally:
            if log_store is not None:
                log_store.close()
        results.append(result)
        flag = " OVERLOAD" if result.overloaded else ""
        print(
            f"{spec.kind} design={spec.design.value} keys={spec.key_space} "
            f"values={spec.value_space} keys/tx={spec.keys_per_tx} "
            f"pop=({spec.n_resources}x{spec.n_individuals}) "
            f"txs={spec.total_txs} committed={result.committed} "
            f"aborted={result.aborted + result.cancelled} blocks={result.blocks} "
            f"tps={0.0 if result.overloaded else result.tps:.1f} "
            f"hits={result.hits_mean:.1f}{flag}"
        )
    if args.out:
        bench_mod.append_csv(args.out, results)
        print(f"appended {len(results)} rows to {args.out}")
    return 0


def _read_log(path) -> FileLogStore | None:
    """A store over an existing, non-empty log, or None after an error."""
    path = Path(path)
    if not path.is_file() or path.stat().st_size == 0:
        print(f"error: {path} is missing or empty", file=sys.stderr)
        return None
    return FileLogStore(path)


def cmd_audit(args) -> int:
    if ":" not in args.subject:
        print("error: subject must look like individual:i4", file=sys.stderr)
        return 2
    kind, _, actor = args.subject.partition(":")
    handlers = {
        "individual": audit_individual,
        "consumer": audit_consumer,
        "watchdog": audit_watchdog,
    }
    if kind not in handlers:
        print(f"error: unknown subject kind {kind!r}", file=sys.stderr)
        return 2
    store = _read_log(args.log)
    if store is None:
        return 2
    try:
        events = handlers[kind](store, actor)
    except TamperedLogError as exc:
        print(f"refusing audit: {exc}", file=sys.stderr)
        return 1
    for event in events:
        print(event.to_line())
    print(f"# {len(events)} events for {args.subject}")
    return 0


def cmd_verify(args) -> int:
    store = _read_log(args.log)
    if store is None:
        return 2
    blocks = transactions = 0
    try:
        for block in verified_blocks(store):
            blocks += 1
            transactions += len(block.transactions)
    except TamperedLogError as exc:
        print(exc)
        return 1
    print(f"ok: {blocks} blocks, {transactions} transactions, chain intact")
    return 0


def cmd_replay(args) -> int:
    store = _read_log(args.log)
    if store is None:
        return 2
    try:
        registry = MembershipRegistry.load_file(args.registry) if args.registry else None
        policy_m, _ = parse_policy(args.policy)
    except (ConfigError, KeyCodecError, MembershipError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = replay_oracle(store, registry=registry, policy_m=policy_m)
    except TamperedLogError as exc:
        print(f"refusing replay: {exc}", file=sys.stderr)
        return 1
    print(
        f"blocks={report.blocks} committed={report.committed} "
        f"keys={len(report.entries)} interpreted={str(report.interpreted).lower()}"
    )
    if report.flag_mismatches:
        print(f"validity flag mismatches: {report.flag_mismatches[:10]}")
    if report.access_mismatches:
        print(f"access answer mismatches: {report.access_mismatches[:10]}")
    if report.authorization_failures:
        print(f"authorization failures: {report.authorization_failures[:10]}")
    if not report.clean():
        return 1
    print(f"state digest {digest_entries(report.entries)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "audit":
        return cmd_audit(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
