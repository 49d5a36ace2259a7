"""Execute-order-validate pipeline over the block log.

Stages, each its own thread(s), connected by bounded queues:

  clients -> [submission queues, one per endorser, round-robin routing]
          -> endorser workers (authorize, simulate, m-of-k stub)
          -> [ordered queue] -> orderer (per-client resequencing, cuts
             blocks at block_size or after block_timeout_ms)
          -> [block queue] -> committer (serial MVCC validation, hash
             chain append) -> [receipt queue] -> collector (final
             receipts, automatic re-endorsement of aborted transactions
             up to max_retries)

Round-robin routing gives each endorser an equal share of the load; the
orderer restores each client's submission order before cutting blocks, so
per-client FIFO survives parallel endorsement. Transactions rejected at
endorsement still send their (client, seq) slot with no transaction so
the resequencer never waits on a sequence number that will not arrive.
Retried transactions keep their submitter's (client, seq), which their
receipts report, but the orderer resequences them in a synthetic "retry"
lane with its own sequence numbers.

Both engines share one core: `endorse_pending` turns a payload into an
endorsed transaction or a rejection receipt, and `settle` turns a
committer verdict into a final receipt or a retry. The threaded runner
only moves items between queues; `SyncLedger` runs the same steps in
rounds.

Overload: a monitor samples the submission queues while clients are still
submitting; if every queue stays full for overload_window_s consecutive
seconds the run is declared overloaded and cancelled. Every in-flight
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
block_queue_depth, overload_window_s, stall_timeout_s.
"""

from __future__ import annotations

import enum
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
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
    """Raised when a run stops finalizing receipts without being cancelled."""


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
    block_queue_depth: int = 8
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
        if self.submission_depth < self.endorsers:
            raise ConfigError("submission_depth must cover every endorser queue")
        return self

    def policy_text(self) -> str:
        return f"{self.policy_m}/{self.endorsers}"

    def per_endorser_depth(self) -> int:
        return max(1, self.submission_depth // self.endorsers)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
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
        return cls.from_mapping(values, where=str(path))

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
            "block_queue_depth": "block_queue_depth",
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
                m, k = parse_policy(value)
                updates["policy_m"] = m
                updates.setdefault("endorsers", k)
            else:
                raise ConfigError(f"{where}: unknown key {key!r}")
        if "policy" in values and "endorsers" in values:
            m, k = parse_policy(values["policy"])
            if k != updates.get("endorsers"):
                raise ConfigError(
                    f"{where}: policy {values['policy']} does not match "
                    f"endorsers = {values['endorsers']}"
                )
        return replace(cls(), **updates).validate()


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
    """A payload travelling toward an endorser.

    client_id and seq name the submission; lane is the orderer's
    (client, seq) resequencing slot when it differs, as for retries.
    """

    client_id: str
    seq: int
    tx_id: str
    payload: TransactionPayload
    retry_count: int = 0
    lane: tuple | None = None

    def order_slot(self) -> tuple:
        return self.lane or (self.client_id, self.seq)


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
    touch_total: int = 0
    touch_min: int = 0
    touch_max: int = 0
    receipts: list = field(default_factory=list)

    def add(self, receipt: Receipt) -> None:
        """Record a final receipt in the counter named by its status."""
        self.receipts.append(receipt)
        name = receipt.status.value
        setattr(self, name, getattr(self, name) + 1)

    def finalized(self) -> int:
        return len(self.receipts)


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
    """Set-up and the endorse and settle steps both engines share."""

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

    def _commit_alone(self, tx: EndorsedTransaction, what: str) -> None:
        _, reasons = commit_block(self.state, self.log, (tx,), self.config.policy_m)
        if reasons[0] != VALID:
            raise ConfigError(f"{what} rejected: {reasons[0]}")

    def preload(self, spec: PreloadSpec) -> None:
        """Commit the state-init block that installs spec's entries.

        State-init commits by regenerating the preload, so it needs no
        endorsement.
        """
        init = EndorsedTransaction("init-000000", state_init("w0", spec), ReadWriteSet())
        self._commit_alone(init, "preload")

    def endorse_pending(self, pending: _Pending, start: int):
        """Endorse on the ring of m endorsers from start.

        Returns the EndorsedTransaction, or a REJECTED receipt when the
        payload fails authorization or cannot execute.
        """
        ring = _endorser_ring(self.endorser_ids, start, self.config.policy_m)
        try:
            return co_endorse(
                pending, ring, self.state, self.registry, self.design, self.roster
            )
        except EndorsementRejected as exc:
            reason = exc.reason
        except (ContractError, KeyCodecError) as exc:
            reason = f"contract: {exc}"
        return _receipt(pending, Status.REJECTED, reason=reason)

    def settle(self, tx: EndorsedTransaction, reason: str, height: int):
        """A committer verdict as a final receipt, or None to retry."""
        if reason == VALID:
            return _receipt(tx, Status.COMMITTED, block_height=height)
        if reason == REASON_ENDORSEMENT or tx.retry_count >= self.config.max_retries:
            return _receipt(tx, Status.ABORTED, reason=reason)
        return None


class LedgerHarness(_Engine):
    """Owns the state, the log, and threaded pipeline runs."""

    def bootstrap(self, preload: PreloadSpec | None = None, setup_payloads=()) -> int:
        """Commit preload and setup blocks before any timed run.

        Block 1 carries the state-init transaction when a preload is
        given; each setup payload (role grants, scripted consent) then
        commits in its own block through the normal endorsement path.
        Returns the number of blocks appended.
        """
        appended = 0
        if preload is not None:
            self.preload(preload)
            appended += 1
        for i, payload in enumerate(setup_payloads):
            tx = self.endorse_pending(_Pending("setup", i, f"setup-{i:06d}", payload), i)
            if isinstance(tx, Receipt):
                raise ConfigError(f"setup payload {i} rejected: {tx.reason}")
            self._commit_alone(tx, f"setup payload {i}")
            appended += 1
        return appended

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

        submission_qs = [
            queue.Queue(maxsize=cfg.per_endorser_depth()) for _ in self.endorser_ids
        ]
        ordered_q = queue.Queue(maxsize=cfg.ordered_depth)
        block_q = queue.Queue(maxsize=cfg.block_queue_depth)
        receipt_q = queue.Queue()

        cancel = threading.Event()
        clients_done = threading.Event()
        completion = threading.Event()
        stop = threading.Event()
        faults: list = []

        def guarded(fn):
            def runner(*args):
                try:
                    fn(*args)
                except Exception as exc:  # fail loud in the main thread
                    faults.append(exc)
                    cancel.set()
                    stop.set()
                    completion.set()

            return runner

        route_lock = threading.Lock()
        route_counter = [0]

        def cancelled(item) -> None:
            receipt_q.put(_receipt(item, Status.CANCELLED, reason="overload"))

        def route(pending: _Pending) -> bool:
            """Round-robin submit; returns False when cancelled instead."""
            with route_lock:
                slot = route_counter[0]
                route_counter[0] += 1
            target = submission_qs[slot % len(submission_qs)]
            while not cancel.is_set():
                try:
                    target.put(pending, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def client_main(client_index: int, payloads) -> None:
            client_id = f"client{client_index}"
            for seq, payload in enumerate(payloads):
                pending = _Pending(client_id, seq, f"{client_id}-{seq:06d}", payload)
                if not route(pending):
                    cancelled(pending)

        def ordered_put(item) -> None:
            while True:
                try:
                    ordered_q.put(item, timeout=0.05)
                    return
                except queue.Full:
                    if stop.is_set():
                        return

        endorse_counts = [Counter() for _ in self.endorser_ids]

        def endorser_main(index: int) -> None:
            my_q = submission_qs[index]
            counts = endorse_counts[index]
            ring = _endorser_ring(self.endorser_ids, index, cfg.policy_m)
            while True:
                try:
                    pending = my_q.get(timeout=0.05)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                if cancel.is_set():
                    cancelled(pending)
                    continue
                counts.update(ring)
                tx = self.endorse_pending(pending, index)
                if isinstance(tx, Receipt):
                    receipt_q.put(tx)
                    tx = None
                ordered_put((*pending.order_slot(), tx))

        def orderer_main() -> None:
            expected: dict = {}
            held: dict = {}
            batch: list = []
            deadline = [None]
            flushed_on_cancel = False

            def rearm() -> None:
                if batch and deadline[0] is None:
                    deadline[0] = time.monotonic() + cfg.block_timeout_ms / 1000
                elif not batch:
                    deadline[0] = None

            def advance(client_id: str, seq: int, tx) -> None:
                if seq != expected.get(client_id, 0):
                    held[(client_id, seq)] = tx
                    return
                cursor = seq
                while True:
                    if tx is not None:
                        batch.append(tx)
                    cursor += 1
                    expected[client_id] = cursor
                    if (client_id, cursor) in held:
                        tx = held.pop((client_id, cursor))
                    else:
                        return

            def cut() -> None:
                chunk = tuple(batch[: cfg.block_size])
                del batch[: len(chunk)]
                deadline[0] = None
                if not chunk:
                    return
                while True:
                    try:
                        block_q.put(chunk, timeout=0.05)
                        return
                    except queue.Full:
                        if stop.is_set():
                            return

            while True:
                if cancel.is_set() and not flushed_on_cancel:
                    flushed_on_cancel = True
                    for tx in list(batch) + [t for t in held.values() if t is not None]:
                        cancelled(tx)
                    batch.clear()
                    held.clear()
                    deadline[0] = None
                try:
                    client_id, seq, tx = ordered_q.get(timeout=0.01)
                except queue.Empty:
                    if stop.is_set():
                        return
                    if deadline[0] is not None and time.monotonic() >= deadline[0]:
                        cut()
                        rearm()
                    continue
                if cancel.is_set():
                    if tx is not None:
                        cancelled(tx)
                    continue
                advance(client_id, seq, tx)
                while len(batch) >= cfg.block_size:
                    cut()
                rearm()

        committer_stats = {"blocks": 0, "touch_total": 0, "touch_min": None, "touch_max": 0}

        def committer_main() -> None:
            while True:
                try:
                    chunk = block_q.get(timeout=0.05)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                _, reasons = commit_block(self.state, self.log, chunk, cfg.policy_m)
                committer_stats["blocks"] += 1
                for tx, reason in zip(chunk, reasons):
                    if reason == VALID:
                        touches = tx.rwset.touch_count()
                        committer_stats["touch_total"] += touches
                        low = committer_stats["touch_min"]
                        if low is None or touches < low:
                            committer_stats["touch_min"] = touches
                        if touches > committer_stats["touch_max"]:
                            committer_stats["touch_max"] = touches
                    receipt_q.put((tx, reason, self.log.height))

        retry_seq = [0]

        def collector_main() -> None:
            while stats.finalized() < total:
                try:
                    item = receipt_q.get(timeout=0.05)
                except queue.Empty:
                    if stop.is_set():
                        return
                    continue
                if isinstance(item, Receipt):
                    stats.add(item)
                    continue
                tx = item[0]
                receipt = self.settle(*item)
                if receipt is None:
                    if not cancel.is_set():
                        retry_seq[0] += 1
                        pending = _Pending(
                            client_id=tx.client_id,
                            seq=tx.seq,
                            tx_id=tx.tx_id,
                            payload=tx.payload,
                            retry_count=tx.retry_count + 1,
                            lane=("retry", retry_seq[0] - 1),
                        )
                        if route(pending):
                            continue
                    receipt = _receipt(tx, Status.CANCELLED, reason="overload")
                stats.add(receipt)
            completion.set()

        def monitor_main() -> None:
            # A queue counts as saturated at 95% capacity: producers wake
            # with some latency after each pop, so a strict full() check
            # would flicker and reset the window.
            saturated_since = None
            while not (clients_done.is_set() or cancel.is_set() or stop.is_set()):
                if all(
                    q.qsize() >= max(1, int(q.maxsize * 0.95)) for q in submission_qs
                ):
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

        def watch_clients() -> None:
            for t in client_workers:
                t.join()
            clients_done.set()

        threads = client_workers + [
            threading.Thread(target=watch_clients, daemon=True),
            threading.Thread(target=guarded(monitor_main), daemon=True),
        ]
        for index in range(len(self.endorser_ids)):
            threads.append(
                threading.Thread(target=guarded(endorser_main), args=(index,), daemon=True)
            )
        threads.append(threading.Thread(target=guarded(orderer_main), daemon=True))
        threads.append(threading.Thread(target=guarded(committer_main), daemon=True))
        threads.append(threading.Thread(target=guarded(collector_main), daemon=True))

        started = time.monotonic()
        for t in threads:
            t.start()

        last_progress = time.monotonic()
        last_finalized = -1
        while not completion.wait(timeout=0.2):
            finalized_now = stats.finalized()
            if finalized_now != last_finalized:
                last_finalized = finalized_now
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > cfg.stall_timeout_s:
                cancel.set()
                stop.set()
                raise PipelineStallError(
                    f"no receipt progress for {cfg.stall_timeout_s}s "
                    f"({finalized_now}/{total} finalized)"
                )
        stats.elapsed_s = time.monotonic() - started
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        if faults:
            raise PipelineFault(f"worker thread failed: {faults[0]!r}") from faults[0]

        stats.blocks = committer_stats["blocks"]
        stats.touch_total = committer_stats["touch_total"]
        stats.touch_min = committer_stats["touch_min"] or 0
        stats.touch_max = committer_stats["touch_max"]
        for counts in endorse_counts:
            stats.endorser_counts.update(counts)
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

    def submit_batch(self, payloads) -> list:
        """Run payloads to final receipts; returns receipts in payload order."""
        pending = [self._next_pending(payload) for payload in payloads]
        order = [p.tx_id for p in pending]
        receipts: dict = {}
        while pending:
            endorsed = []
            for item in pending:
                # the ring follows the submission seq, which retries keep
                tx = self.endorse_pending(item, item.seq)
                if isinstance(tx, Receipt):
                    receipts[item.tx_id] = tx
                else:
                    endorsed.append(tx)
            pending = []
            for start in range(0, len(endorsed), self.config.block_size):
                chunk = endorsed[start : start + self.config.block_size]
                _, reasons = commit_block(self.state, self.log, chunk, self.config.policy_m)
                for tx, reason in zip(chunk, reasons):
                    receipt = self.settle(tx, reason, self.log.height)
                    if receipt is not None:
                        receipts[tx.tx_id] = receipt
                        continue
                    pending.append(
                        _Pending(
                            tx.client_id, tx.seq, tx.tx_id, tx.payload, tx.retry_count + 1
                        )
                    )
        return [receipts[tx_id] for tx_id in order]

    def submit_one(self, payload) -> Receipt:
        return self.submit_batch([payload])[0]
