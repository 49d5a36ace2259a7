"""Execute-order-validate pipeline over the block log.

Client threads, one endorser thread and one committer thread, connected
by bounded queues; the thread that called `run` settles the receipts:

  clients -> [submission queue] -> endorser (authorize, simulate, m-of-k
             stub, in arrival order)
          -> [ordered queue] -> committer (cuts blocks at block_size, or
             after block_timeout_ms once the ordered queue runs dry;
             serial MVCC validation, hash chain append)
          -> [receipt queue] -> calling thread (final receipts, automatic
             re-endorsement of aborted transactions up to max_retries)

Every in-process endorser would read the same state, and under the GIL
they would never run in parallel, so one endorser thread signs for the
whole ring of m endorser ids, picked from the submission seq. Because it
endorses in FIFO order, each client's transactions reach the committer
in the order the client submitted them, and the committer only has to
cut them into blocks, as the block cutter in Fabric's ordering service
does. A transaction rejected at endorsement gets its receipt and never
reaches the committer. A retried transaction keeps its submitter's
(client, seq), which its receipt reports, and re-enters at the tail of
the submission queue.

Both engines share one core: `bootstrap` commits the preload and setup
blocks, `endorse_pending` turns a payload into an endorsed transaction
or a rejection receipt, `commit_chunk` commits one block and counts it,
and `settle` turns a committer verdict into a final receipt or a retry.
The threaded runner only moves items between queues; `SyncLedger` runs
the same steps in rounds.

Overload: a monitor samples the submission queue while clients are still
submitting; if it stays full for overload_window_s consecutive seconds
the run is declared overloaded and cancelled. Every in-flight
transaction then drains to a final cancelled receipt, so accounting stays
exact: committed + aborted + rejected + cancelled == submitted.

Config file format (one `key = value` per line, '#' comments):

    block_size = 100
    endorsers  = 2
    policy     = 1/2
    retries    = 16
    timeout_ms = 50
    threads    = 100

plus optional tuning keys: submission_depth, ordered_depth,
overload_window_s, stall_timeout_s.
"""

from __future__ import annotations

import enum
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

from consentledger.blocklog import (
    REASON_ENDORSEMENT,
    VALID,
    BlockLog,
    commit_block,
)
from consentledger.contracts import ContractError, execute_payload
from consentledger.keys import KeyCodecError, WorldStateDesign
from consentledger.membership import AuthorizationError, MembershipRegistry
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    EndorsedTransaction,
    TransactionPayload,
    endorsement_stub,
    state_init,
)
from consentledger.worldstate import (
    ReadWriteSet,
    SimulationContext,
    VersionedWorldState,
)


class ConfigError(ValueError):
    """Raised for malformed pipeline configuration."""


class PipelineStallError(RuntimeError):
    """Raised when a run gets no receipt for stall_timeout_s."""


class PipelineFault(RuntimeError):
    """Raised when a pipeline worker thread dies with an exception."""


@dataclass(frozen=True)
class PipelineConfig:
    block_size: int = 100
    endorsers: int = 2
    policy_m: int = 1
    max_retries: int = 16
    client_threads: int = 100
    block_timeout_ms: int = 50
    submission_depth: int = 8000
    ordered_depth: int = 512
    overload_window_s: float = 5.0
    stall_timeout_s: float = 120.0

    def validate(self) -> "PipelineConfig":
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.endorsers < 1:
            raise ConfigError("endorsers must be >= 1")
        if not 1 <= self.policy_m <= self.endorsers:
            raise ConfigError(
                f"policy {self.policy_m}/{self.endorsers} needs 1 <= m <= endorsers"
            )
        if self.max_retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.client_threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.block_timeout_ms < 1:
            raise ConfigError("timeout_ms must be >= 1")
        # a queue.Queue with maxsize <= 0 is unbounded, which would defeat
        # the overload model
        for name in ("submission_depth", "ordered_depth"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("overload_window_s", "stall_timeout_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        return self

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_mapping(read_config(path), where=str(path))

    @classmethod
    def from_mapping(cls, values: dict, where: str = "config") -> "PipelineConfig":
        int_keys = {
            "block_size": "block_size",
            "endorsers": "endorsers",
            "retries": "max_retries",
            "timeout_ms": "block_timeout_ms",
            "threads": "client_threads",
            "submission_depth": "submission_depth",
            "ordered_depth": "ordered_depth",
        }
        float_keys = {
            "overload_window_s": "overload_window_s",
            "stall_timeout_s": "stall_timeout_s",
        }
        updates = {}
        for key, value in values.items():
            if key in int_keys:
                try:
                    updates[int_keys[key]] = int(value)
                except ValueError:
                    raise ConfigError(f"{where}: {key} must be an integer")
            elif key in float_keys:
                try:
                    updates[float_keys[key]] = float(value)
                except ValueError:
                    raise ConfigError(f"{where}: {key} must be a number")
            elif key == "policy":
                updates["policy_m"], policy_k = parse_policy(value)
            else:
                raise ConfigError(f"{where}: unknown key {key!r}")
        if "policy" in values:
            if updates.setdefault("endorsers", policy_k) != policy_k:
                raise ConfigError(
                    f"{where}: policy {values['policy']} does not match "
                    f"endorsers = {values['endorsers']}"
                )
        return replace(cls(), **updates).validate()


def read_config(path) -> dict:
    """The `key = value` lines of a config file, as strings."""
    values = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_policy(text: str):
    """Parse "m/k" endorsement policy text into (m, k)."""
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ConfigError(f"policy must look like m/k, got {text!r}")
    try:
        m, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"policy must look like m/k, got {text!r}")
    if not 1 <= m <= k:
        raise ConfigError(f"policy {text!r} needs 1 <= m <= k")
    return m, k


class Status(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"
    REJECTED = "rejected"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class Receipt:
    tx_id: str
    client_id: str
    seq: int
    status: Status
    block_height: int = -1
    retry_count: int = 0
    reason: str = ""


@dataclass(frozen=True)
class _Pending:
    """A payload travelling toward the endorser; client_id and seq name
    the submission."""

    client_id: str
    seq: int
    tx_id: str
    payload: TransactionPayload
    retry_count: int = 0


def _retry(tx: EndorsedTransaction) -> _Pending:
    """The next attempt of an aborted transaction, under its submitter's name."""
    return _Pending(tx.client_id, tx.seq, tx.tx_id, tx.payload, tx.retry_count + 1)


def _receipt(item, status: Status, **fields) -> Receipt:
    """The final receipt for a pending payload or an endorsed transaction."""
    return Receipt(
        tx_id=item.tx_id,
        client_id=item.client_id,
        seq=item.seq,
        status=status,
        retry_count=item.retry_count,
        **fields,
    )


@dataclass
class RunStats:
    committed: int = 0
    aborted: int = 0
    rejected: int = 0
    cancelled: int = 0
    submitted: int = 0
    blocks: int = 0
    elapsed_s: float = 0.0
    overloaded: bool = False
    endorser_counts: Counter = field(default_factory=Counter)
    # keys touched by a committed transaction -> how many committed so
    touches: Counter = field(default_factory=Counter)
    receipts: list = field(default_factory=list)

    def add(self, receipt: Receipt) -> None:
        """Record a final receipt in the counter named by its status."""
        self.receipts.append(receipt)
        name = receipt.status.value
        setattr(self, name, getattr(self, name) + 1)

    def finalized(self) -> int:
        return len(self.receipts)

    @property
    def touch_total(self) -> int:
        return sum(keys * count for keys, count in self.touches.items())

    @property
    def touch_min(self) -> int:
        return min(self.touches, default=0)

    @property
    def touch_max(self) -> int:
        return max(self.touches, default=0)


class EndorsementRejected(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def simulate_payload(
    state: VersionedWorldState,
    payload: TransactionPayload,
    design: WorldStateDesign,
    roster,
):
    """One sandboxed execution; returns (rwset, access result or None)."""
    ctx = SimulationContext(state)
    result = execute_payload(ctx, payload, design, roster)
    return ctx.rwset(), result


def co_endorse(
    pending: _Pending,
    endorser_ids,
    state: VersionedWorldState,
    registry: MembershipRegistry,
    design: WorldStateDesign,
    roster,
) -> EndorsedTransaction:
    """Authorize, simulate, and sign the result as every listed endorser.

    Every endorser would read the same in-process state, so one
    simulation stands for all of them. Raises EndorsementRejected for
    authorization failures.
    """
    payload = pending.payload
    try:
        registry.authorize(payload)
    except AuthorizationError as exc:
        raise EndorsementRejected(f"authorization: {exc.reason}")
    rwset, result = simulate_payload(state, payload, design, roster)
    endorser_ids = tuple(endorser_ids)
    stub = endorsement_stub(payload, rwset, endorser_ids)
    tx = EndorsedTransaction(
        tx_id=pending.tx_id,
        payload=payload,
        rwset=rwset,
        endorser_ids=endorser_ids,
        endorsement_stub=stub,
        result=result,
        client_id=pending.client_id,
        seq=pending.seq,
        retry_count=pending.retry_count,
    )
    # the committer's endorsement check reuses this stub instead of
    # re-encoding the read-write set
    return tx.memoize_stub(stub)


def _endorser_ring(endorser_ids, start: int, m: int):
    return tuple(endorser_ids[(start + offset) % len(endorser_ids)] for offset in range(m))


class _Engine:
    """Set-up and the endorse, commit and settle steps both engines share."""

    def __init__(
        self,
        design: WorldStateDesign,
        registry: MembershipRegistry,
        config: PipelineConfig | None = None,
        state: VersionedWorldState | None = None,
        log: BlockLog | None = None,
    ):
        self.design = design
        self.registry = registry
        self.config = (config or PipelineConfig()).validate()
        self.state = state if state is not None else VersionedWorldState()
        self.log = log if log is not None else BlockLog()
        self.roster = registry.roster()
        self.endorser_ids = tuple(f"e{i}" for i in range(self.config.endorsers))

    def bootstrap(self, preload: PreloadSpec | None = None, setup_payloads=()) -> int:
        """Commit preload and setup blocks before any timed run.

        Block 1 carries the state-init transaction when a preload is
        given; it commits by regenerating the preload, so it needs no
        endorsement. Each setup payload (role grants, scripted consent)
        then commits in its own block through the normal endorsement path.
        Returns the number of blocks appended.
        """
        start_height = self.log.height
        unreported = RunStats()  # set-up belongs to no run

        def commit_alone(tx: EndorsedTransaction, what: str) -> None:
            _, reasons = commit_block(self.state, self.log, (tx,), self.config.policy_m)
            if reasons[0] != VALID:
                raise ConfigError(f"{what} rejected: {reasons[0]}")

        if preload is not None:
            init = state_init("w0", preload)
            commit_alone(EndorsedTransaction("init-000000", init, ReadWriteSet()), "preload")
        for i, payload in enumerate(setup_payloads):
            pending = _Pending("setup", i, f"setup-{i:06d}", payload)
            tx = self.endorse_pending(pending, unreported)
            if isinstance(tx, Receipt):
                raise ConfigError(f"setup payload {i} rejected: {tx.reason}")
            commit_alone(tx, f"setup payload {i}")
        return self.log.height - start_height

    def endorse_pending(self, pending: _Pending, stats: RunStats):
        """Endorse on the ring of m endorsers picked by the submission seq.

        Counts the ring in stats. Returns the EndorsedTransaction, or a
        REJECTED receipt when the payload fails authorization or cannot
        execute.
        """
        ring = _endorser_ring(self.endorser_ids, pending.seq, self.config.policy_m)
        stats.endorser_counts.update(ring)
        try:
            return co_endorse(
                pending, ring, self.state, self.registry, self.design, self.roster
            )
        except EndorsementRejected as exc:
            reason = exc.reason
        except (ContractError, KeyCodecError) as exc:
            reason = f"contract: {exc}"
        return _receipt(pending, Status.REJECTED, reason=reason)

    def commit_chunk(self, chunk, stats: RunStats) -> list:
        """Commit one block; count it and the keys each valid transaction
        touched in stats. Returns the per-transaction reasons."""
        _, reasons = commit_block(self.state, self.log, chunk, self.config.policy_m)
        stats.blocks += 1
        for tx, reason in zip(chunk, reasons):
            if reason == VALID:
                stats.touches[tx.rwset.touch_count()] += 1
        return reasons

    def settle(self, tx: EndorsedTransaction, reason: str, height: int):
        """A committer verdict as a final receipt, or None to retry."""
        if reason == VALID:
            return _receipt(tx, Status.COMMITTED, block_height=height)
        if reason == REASON_ENDORSEMENT or tx.retry_count >= self.config.max_retries:
            return _receipt(tx, Status.ABORTED, reason=reason)
        return None


class LedgerHarness(_Engine):
    """Owns the state, the log, and threaded pipeline runs."""

    def run(self, client_batches) -> RunStats:
        """Push every payload batch through the pipeline; returns run stats.

        client_batches: iterable of payload lists, one per client thread.
        """
        cfg = self.config
        batches = [list(batch) for batch in client_batches]
        total = sum(len(b) for b in batches)
        stats = RunStats(submitted=total)
        if total == 0:
            return stats

        submission_q = queue.Queue(maxsize=cfg.submission_depth)
        ordered_q = queue.Queue(maxsize=cfg.ordered_depth)
        # final receipts, committer verdicts and worker exceptions
        receipt_q = queue.Queue()

        cancel = threading.Event()
        stop = threading.Event()

        def guarded(fn):
            def runner(*args):
                try:
                    fn(*args)
                except Exception as exc:  # fail loud in the calling thread
                    cancel.set()
                    receipt_q.put(exc)

            return runner

        def cancelled(item) -> None:
            receipt_q.put(_receipt(item, Status.CANCELLED, reason="overload"))

        def offer(q, item, give_up: threading.Event) -> bool:
            """Put item on q once it has room; False if give_up is set first."""
            while not give_up.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def client_main(client_index: int, payloads) -> None:
            client_id = f"client{client_index}"
            for seq, payload in enumerate(payloads):
                pending = _Pending(client_id, seq, f"{client_id}-{seq:06d}", payload)
                if not offer(submission_q, pending, cancel):
                    cancelled(pending)

        def endorser_main() -> None:
            while True:
                try:
                    pending = submission_q.get(timeout=0.05)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                if cancel.is_set():
                    cancelled(pending)
                    continue
                tx = self.endorse_pending(pending, stats)
                if isinstance(tx, Receipt):
                    receipt_q.put(tx)
                else:
                    offer(ordered_q, tx, stop)

        def commit(batch) -> None:
            reasons = self.commit_chunk(batch, stats)
            for tx, reason in zip(batch, reasons):
                receipt_q.put((tx, reason, self.log.height))

        def committer_main() -> None:
            # cuts a block at block_size, or after block_timeout_ms once the
            # ordered queue has run dry
            batch: list = []
            deadline = 0.0
            while True:
                try:
                    tx = ordered_q.get(timeout=0.01)
                except queue.Empty:
                    if stop.is_set():
                        return
                    if batch and time.monotonic() >= deadline:
                        commit(batch)
                        batch = []
                    continue
                if cancel.is_set():
                    for item in batch + [tx]:
                        cancelled(item)
                    batch = []
                    continue
                if not batch:
                    deadline = time.monotonic() + cfg.block_timeout_ms / 1000
                batch.append(tx)
                if len(batch) == cfg.block_size:
                    commit(batch)
                    batch = []

        def monitor_main() -> None:
            # The queue counts as saturated at 95% capacity: producers wake
            # with some latency after each pop, so a strict full() check
            # would flicker and reset the window.
            saturated = max(1, int(submission_q.maxsize * 0.95))
            saturated_since = None
            while not (cancel.is_set() or stop.is_set()) and any(
                t.is_alive() for t in client_workers
            ):
                if submission_q.qsize() >= saturated:
                    now = time.monotonic()
                    if saturated_since is None:
                        saturated_since = now
                    elif now - saturated_since >= cfg.overload_window_s:
                        stats.overloaded = True
                        cancel.set()
                        return
                else:
                    saturated_since = None
                time.sleep(0.05)

        client_workers = [
            threading.Thread(
                target=guarded(client_main), args=(client_index, payloads), daemon=True
            )
            for client_index, payloads in enumerate(batches)
        ]
        threads = client_workers + [
            threading.Thread(target=guarded(stage), daemon=True)
            for stage in (monitor_main, endorser_main, committer_main)
        ]

        started = time.monotonic()
        for t in threads:
            t.start()
        try:
            while stats.finalized() < total:
                try:
                    item = receipt_q.get(timeout=cfg.stall_timeout_s)
                except queue.Empty:
                    raise PipelineStallError(
                        f"no receipt progress for {cfg.stall_timeout_s}s "
                        f"({stats.finalized()}/{total} finalized)"
                    ) from None
                if isinstance(item, Exception):
                    raise PipelineFault(f"worker thread failed: {item!r}") from item
                if not isinstance(item, Receipt):
                    tx = item[0]
                    item = self.settle(*item)
                    if item is None:
                        if offer(submission_q, _retry(tx), cancel):
                            continue
                        item = _receipt(tx, Status.CANCELLED, reason="overload")
                stats.add(item)
            stats.elapsed_s = time.monotonic() - started
        finally:
            cancel.set()  # stops a faulted or stalled run; harmless once all are final
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        return stats


class SyncLedger(_Engine):
    """Single-threaded engine with identical commit semantics.

    Each round endorses every pending payload against the current state,
    cuts the endorsed transactions into blocks of block_size in
    submission order, and commits them serially; aborted transactions
    re-enter the next round until max_retries runs out. Deterministic by
    construction, which makes it the engine of choice for semantic tests
    and scripted audit scenarios.
    """

    _submitted = 0  # payloads numbered so far; set per instance on first use

    def _next_pending(self, payload: TransactionPayload) -> _Pending:
        seq = self._submitted
        self._submitted += 1
        return _Pending("sync", seq, f"sync-{seq:06d}", payload)

    def endorse(self, payload: TransactionPayload) -> EndorsedTransaction:
        """Endorse without committing; for inspecting read-write sets."""
        pending = self._next_pending(payload)
        return co_endorse(
            pending,
            _endorser_ring(self.endorser_ids, pending.seq, self.config.policy_m),
            self.state,
            self.registry,
            self.design,
            self.roster,
        )

    def run(self, client_batches) -> RunStats:
        """Run every payload to a final receipt; returns run stats.

        Payloads are taken round-robin across the batches, which inverts
        `bench.split_batches`, and stats.receipts lists them in that order.
        """
        started = time.monotonic()
        payloads = [p for row in zip_longest(*client_batches) for p in row if p is not None]
        pending = [self._next_pending(payload) for payload in payloads]
        order = [p.tx_id for p in pending]
        stats = RunStats(submitted=len(pending))
        receipts: dict = {}
        while pending:
            endorsed = []
            for item in pending:
                tx = self.endorse_pending(item, stats)
                if isinstance(tx, Receipt):
                    receipts[item.tx_id] = tx
                else:
                    endorsed.append(tx)
            pending = []
            for start in range(0, len(endorsed), self.config.block_size):
                chunk = endorsed[start : start + self.config.block_size]
                reasons = self.commit_chunk(chunk, stats)
                for tx, reason in zip(chunk, reasons):
                    receipt = self.settle(tx, reason, self.log.height)
                    if receipt is None:
                        pending.append(_retry(tx))
                    else:
                        receipts[tx.tx_id] = receipt
        for tx_id in order:
            stats.add(receipts[tx_id])
        stats.elapsed_s = time.monotonic() - started
        return stats

    def submit_batch(self, payloads) -> list:
        """Run payloads to final receipts; returns receipts in payload order."""
        return self.run([payloads]).receipts

    def submit_one(self, payload) -> Receipt:
        return self.submit_batch([payload])[0]
