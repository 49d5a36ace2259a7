"""Benchmark workloads, the run driver, and CSV reporting.

Workload kinds:

  keyspace          raw read batches over a growing preloaded key space
  valuespace        raw read batches while the preloaded member sets grow
  write-valuespace  blind raw write batches with growing member sets
  txsize            raw read batches with growing keys-per-transaction
  table3            consent access requests under each world-state design
                    across (n_resources, n_individuals) population cells
  conflict          k same-key consent writers, committed on the
                    deterministic engine to expose the k-block behaviour

Every run bootstraps its preload (block 1) and role grants (block 2, when
the workload issues access requests), then pushes the generated payloads
through the pipeline, and always replays the finished log with the
independent oracle and requires exact state agreement before reporting.
Population cells and conflict writers derive their keys and members from
the layout table (`keys.LAYOUTS`), so every design runs the same cells.

CSV columns, in order:

  kind, design, n_individuals, n_resources, key_space, value_space,
  keys_per_tx, txs, committed, aborted, blocks, tps, hits_mean,
  overload_flag

`aborted` counts every transaction that reached a final non-committed
state (aborts after retry exhaustion, rejections, and cancellations of an
overloaded run), so committed + aborted = txs; `overload_flag` is 1 when
the submission queue stayed saturated past the overload window and the
run was cancelled, and such runs report tps 0. Population cells whose member pools cannot cover the requested
value space fail validation instead of silently shrinking.
"""

from __future__ import annotations

import csv
import gc
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from consentledger.audit import replay_check
from consentledger.blocklog import BlockLog, FileLogStore
from consentledger.keys import LAYOUTS, ConsentFact, WorldStateDesign
from consentledger.membership import population_registry
from consentledger.pipeline import (
    LedgerHarness,
    PipelineConfig,
    SyncLedger,
)
from consentledger.preload import COUNT_FIELDS, POOLS, PreloadError, PreloadSpec, make_pool
from consentledger.transactions import (
    access_request,
    assign_role,
    grant_consent,
    raw_read,
    raw_write,
)
from consentledger.worldstate import VersionedWorldState

SWEEP_KINDS = (
    "keyspace",
    "valuespace",
    "write-valuespace",
    "txsize",
    "table3",
    "conflict",
)

KEYSPACE_CELLS = (20_000, 50_000, 100_000, 250_000, 500_000, 1_000_000)
VALUESPACE_CELLS = (1, 10, 100, 1_000, 10_000)
TXSIZE_CELLS = (1, 10, 100, 500, 1_000, 2_000, 3_000)
TABLE3_CELLS = ((200, 200), (200, 20_000), (20_000, 200), (20_000, 20_000))
CONFLICT_CELLS = (2, 5, 10)

# Member sets larger than this stop changing the measured key traffic and
# only inflate every stored access record, so population cells cap there.
TABLE3_VALUE_CAP = 200

CSV_COLUMNS = (
    "kind",
    "design",
    "n_individuals",
    "n_resources",
    "key_space",
    "value_space",
    "keys_per_tx",
    "txs",
    "committed",
    "aborted",
    "blocks",
    "tps",
    "hits_mean",
    "overload_flag",
)


class WorkloadError(ValueError):
    """Raised for workload specs that cannot run as requested."""


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    design: WorldStateDesign = WorldStateDesign.IWS
    n_individuals: int = 100
    n_resources: int = 100
    n_roles: int = 1
    n_watchdogs: int = 1
    n_timeframes: int = 1
    key_space: int = 0
    value_space: int = 0
    keys_per_tx: int = 1
    total_txs: int = 2_000
    conflict_k: int = 0
    seed: int = 7

    def validate(self) -> "WorkloadSpec":
        if self.kind not in SWEEP_KINDS:
            raise WorkloadError(f"unknown workload kind {self.kind!r}")
        if self.total_txs < 0:
            raise WorkloadError("total_txs must be >= 0")
        if self.kind == "conflict" and self.conflict_k < 1:
            raise WorkloadError("conflict workloads need conflict_k >= 1")
        if self.key_space > 2_000_000:
            raise WorkloadError(
                f"key_space {self.key_space} is beyond the single-host budget"
            )
        if self.key_space > 0:
            try:
                self.preload_spec().validate()
            except PreloadError as exc:
                raise WorkloadError(str(exc))
        if self.keys_per_tx > self.key_space and self.kind in (
            "keyspace",
            "valuespace",
            "write-valuespace",
            "txsize",
        ):
            raise WorkloadError(
                f"keys_per_tx {self.keys_per_tx} exceeds key_space {self.key_space}"
            )
        return self

    def preload_spec(self) -> PreloadSpec | None:
        if self.key_space <= 0:
            return None
        # a workload names its preload counts as PreloadSpec does
        return PreloadSpec(self.design, *[getattr(self, name) for name in COUNT_FIELDS])

    def needs_role_grant(self) -> bool:
        return self.kind == "table3"


@dataclass(frozen=True)
class BenchResult:
    spec: WorkloadSpec
    committed: int
    aborted: int
    rejected: int
    cancelled: int
    blocks: int
    elapsed_s: float
    tps: float
    hits_mean: float
    hits_min: int
    hits_max: int
    overloaded: bool

    @property
    def not_committed(self) -> int:
        """Every final non-committed transaction: the CSV `aborted` column."""
        return self.aborted + self.rejected + self.cancelled

    def to_csv_row(self) -> list:
        spec = self.spec
        return [
            spec.kind,
            spec.design.value,
            str(spec.n_individuals),
            str(spec.n_resources),
            str(spec.key_space),
            str(spec.value_space),
            str(spec.keys_per_tx),
            str(spec.total_txs),
            str(self.committed),
            str(self.not_committed),
            str(self.blocks),
            f"{0.0 if self.overloaded else self.tps:.2f}",
            f"{self.hits_mean:.3f}",
            "1" if self.overloaded else "0",
        ]


# kind -> (default total_txs, cells, the WorkloadSpec fields of one cell);
# table3 varies the design per cell and has its own spec builder
_SWEEP_CELLS = {
    "keyspace": (2_000, KEYSPACE_CELLS, lambda cell: dict(
        n_individuals=100, n_resources=cell, key_space=cell, value_space=100,
        keys_per_tx=100)),
    "valuespace": (2_000, VALUESPACE_CELLS, lambda cell: dict(
        n_individuals=max(100, cell), n_resources=20_000, key_space=20_000,
        value_space=cell, keys_per_tx=100)),
    "txsize": (1_000, TXSIZE_CELLS, lambda cell: dict(
        n_individuals=100, n_resources=20_000, key_space=20_000, value_space=100,
        keys_per_tx=cell)),
    # k transactions per cell, whatever total_txs asks for
    "conflict": (None, CONFLICT_CELLS, lambda k: dict(
        n_individuals=max(100, k), n_resources=100, conflict_k=k, total_txs=k)),
}
_SWEEP_CELLS["write-valuespace"] = _SWEEP_CELLS["valuespace"]


def gen_sweep(
    kind: str,
    design: WorldStateDesign | None = None,
    total_txs: int | None = None,
    seed: int = 7,
) -> list:
    """The workload specs for one named sweep, in run order.

    Only the conflict sweep takes a design, and runs iws without one. Any
    other sweep given a design raises WorkloadError: table3 runs its own
    rws and iws cells, and the raw sweeps run no contract.
    """
    if kind != "table3" and kind not in _SWEEP_CELLS:
        raise WorkloadError(f"unknown workload kind {kind!r}")
    if design is not None and kind != "conflict":
        reason = (
            "table3 runs its own rws and iws cells" if kind == "table3"
            else f"{kind} is a raw sweep and runs no contract"
        )
        raise WorkloadError(f"--design applies only to the conflict sweep: {reason}")
    if kind == "table3":
        txs = total_txs if total_txs is not None else 10_000
        return [
            table3_spec(cell_design, n_res, n_ind, txs, seed)
            for n_res, n_ind in TABLE3_CELLS
            for cell_design in (WorldStateDesign.RWS, WorldStateDesign.IWS)
        ]
    default_txs, cells, cell_fields = _SWEEP_CELLS[kind]
    txs = total_txs if total_txs is not None else default_txs
    design = design if design is not None else WorldStateDesign.IWS
    common = dict(kind=kind, design=design, total_txs=txs, seed=seed)
    return [WorkloadSpec(**{**common, **cell_fields(cell)}).validate() for cell in cells]


def table3_spec(
    design: WorldStateDesign, n_res: int, n_ind: int, txs: int = 10_000, seed: int = 7
) -> WorkloadSpec:
    """One population cell: preload every consent key for the design."""
    # one role, watchdog and timeframe: the grid spans the population axes
    pools = PreloadSpec(design, n_individuals=n_ind, n_resources=n_res, n_roles=1,
                        n_watchdogs=1, n_timeframes=1, key_space=0, value_space=0)
    return WorkloadSpec(
        kind="table3",
        design=design,
        n_individuals=n_ind,
        n_resources=n_res,
        key_space=pools.grid_size(),
        value_space=min(pools.member_pool_size(), TABLE3_VALUE_CAP),
        keys_per_tx=1,
        total_txs=txs,
        seed=seed,
    ).validate()


def build_payloads(spec: WorkloadSpec) -> list:
    """The full deterministic payload sequence for one run."""
    rng = random.Random(spec.seed)
    if spec.kind in ("keyspace", "valuespace", "txsize"):
        keys = list(spec.preload_spec().keys())
        return [
            raw_read("c0", rng.sample(keys, spec.keys_per_tx))
            for _ in range(spec.total_txs)
        ]
    if spec.kind == "write-valuespace":
        preload = spec.preload_spec()
        keys = list(preload.keys())
        members = preload.shared_members()
        return [
            raw_write("c0", [(key, members) for key in rng.sample(keys, spec.keys_per_tx)])
            for _ in range(spec.total_txs)
        ]
    if spec.kind == "table3":
        return [
            access_request(
                "c0",
                dc_id="c0",
                role_id="d0",
                wd_id="w0",
                res_id=f"r{rng.randrange(spec.n_resources)}",
                time_id="t0",
            )
            for _ in range(spec.total_txs)
        ]
    if spec.kind == "conflict":
        return conflict_payloads(spec)
    raise WorkloadError(f"unknown workload kind {spec.kind!r}")


def conflict_payloads(spec: WorkloadSpec) -> list:
    """k grant-consent payloads that all land on one world-state key.

    The k facts differ only in the layout's member field, and each is
    granted by the fact's own individual.
    """
    member = LAYOUTS[spec.design].member
    base = ConsentFact("i0", "r0", "d0", "w0", "t0")
    facts = [
        replace(base, **{member: token})
        for token in make_pool(POOLS[member][0], spec.conflict_k)
    ]
    return [grant_consent(fact.ind_id, fact) for fact in facts]


def split_batches(payloads, n_clients: int) -> list:
    """Round-robin split preserving each client's relative order."""
    batches = [[] for _ in range(max(1, n_clients))]
    for index, payload in enumerate(payloads):
        batches[index % len(batches)].append(payload)
    return [b for b in batches if b] or [[]]


@contextmanager
def _measurement_window():
    """Keep the collector away from the timed section.

    Preloaded states hold millions of static objects; letting cyclic GC
    rescan them mid-run skews large cells against small ones. The run
    itself allocates almost no cycles, so collection waits until the end.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()
        gc.collect()


def run_bench(
    spec: WorkloadSpec,
    config: PipelineConfig | None = None,
    log_store=None,
) -> BenchResult:
    """Execute one workload spec end to end and return its measurements.

    Uses a temporary file-backed log unless a store is supplied, so large
    read-write sets spill to disk instead of accumulating in memory. Every
    run then re-executes the finished chain with the independent oracle
    and raises ReplayMismatchError on any disagreement with the live state.
    """
    spec = spec.validate()
    cfg = (config or PipelineConfig()).validate()
    registry = population_registry(spec.n_individuals, spec.n_watchdogs, 1)
    tmp_handle = None
    if log_store is None:
        tmp_handle = tempfile.NamedTemporaryFile(
            prefix="consentledger-", suffix=".log", delete=False
        )
        tmp_handle.close()
        log_store = FileLogStore(tmp_handle.name)
    try:
        state = VersionedWorldState()
        log = BlockLog(log_store)
        payloads = build_payloads(spec)
        setup = [assign_role("w0", "d0", "c0", "w0")] if spec.needs_role_grant() else []

        engine_type = SyncLedger if spec.kind == "conflict" else LedgerHarness
        engine = engine_type(spec.design, registry, config=cfg, state=state, log=log)
        engine.bootstrap(spec.preload_spec(), setup)
        # walk the fresh state once so page faults land before timing
        for _entry in state.items():
            pass
        with _measurement_window():
            stats = engine.run(split_batches(payloads, cfg.client_threads))

        if stats.committed + stats.aborted + stats.rejected + stats.cancelled != len(
            payloads
        ):
            raise WorkloadError("final receipts do not cover every payload")

        replay_check(log.store, state, registry=registry, policy_m=cfg.policy_m)

        elapsed = max(stats.elapsed_s, 1e-9)
        return BenchResult(
            spec=spec,
            committed=stats.committed,
            aborted=stats.aborted,
            rejected=stats.rejected,
            cancelled=stats.cancelled,
            blocks=stats.blocks,
            elapsed_s=elapsed,
            tps=stats.committed / elapsed,
            hits_mean=stats.touch_total / stats.committed if stats.committed else 0.0,
            hits_min=stats.touch_min,
            hits_max=stats.touch_max,
            overloaded=stats.overloaded,
        )
    finally:
        if tmp_handle is not None:
            log_store.close()
            Path(tmp_handle.name).unlink(missing_ok=True)


def append_csv(path, results) -> None:
    """Append result rows, writing the header when the file is new."""
    path = Path(path)
    new_file = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for result in results:
            writer.writerow(result.to_csv_row())
