"""Execute-order-validate pipeline over the block log.

Client threads, one endorser thread and one committer thread, connected
by bounded links; the thread that called `run` collects the receipts:

  clients -> [submission queue] -> endorser (authorize, simulate, m-of-k
             stub, in arrival order; a rejection receipt passes on in
             the transaction's place)
          -> [ordered queue] -> committer (cuts a block at block_size,
             block_timeout_ms after its first transaction, or at once when
             it holds every transaction not yet final; serial MVCC
             validation, hash chain append; settles the block into final
             receipts and endorses each retry again, up to max_retries)
          -> [receipt queue] -> calling thread (collects receipts)

Every in-process endorser would read the same state, and under the GIL
they would never run in parallel, so one endorser thread signs for the
ring of m endorser ids picked from the submission seq, in FIFO order:
each client's transactions reach the committer in submission order, and
the committer only cuts blocks (Fabric's BatchSize/BatchTimeout rule
plus the drain cut). The committer issues or forwards every final
receipt until a cancel, so its own count tells it when nothing more can
arrive. A retry keeps its submitter's (client, seq); the committer
endorses it against the state it has just committed, and it opens the
next batch. No stage polls: each blocks on its queue until an item or
the STOP sentinel comes, the committer no longer than its batch's
deadline. A bounded link is a C-level `queue.SimpleQueue` of items
beside one of free-slot tokens: a producer takes a token before each put
and the consumer returns one after each get.

Both engines share one core: `bootstrap` commits the preload and setup
blocks, `endorse_pending` turns a payload into an endorsed transaction
or a rejection receipt, and `commit_chunk` commits one block, counts it
and settles it into final receipts and retries. `SyncLedger` runs the
same steps in rounds.

Overload: the endorser reads the submission link's depth after each
pop. The link is saturated while it holds at least 95% of its depth and
a client still holds a payload; a run whose link stays saturated from
pop to pop for OVERLOAD_WINDOW_S is declared overloaded and cancelled.
Every in-flight transaction then drains to a final cancelled receipt, so
accounting stays exact: committed + aborted + rejected + cancelled ==
submitted.

Config file format (one `key = value` per line, '#' comments):

    block_size = 100
    endorsers  = 2
    policy     = 1/2
    retries    = 16
    timeout_ms = 50
    threads    = 100
"""

from __future__ import annotations

import enum
import queue
import threading
import time
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import zip_longest
from pathlib import Path

from consentledger.blocklog import (
    REASON_ENDORSEMENT,
    VALID,
    BlockLog,
    commit_block,
)
from consentledger.contracts import ContractError, execute_payload, sorted_members
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
    """Raised when a run gets no receipt for STALL_TIMEOUT_S."""


class PipelineFault(RuntimeError):
    """Raised when a pipeline worker thread dies with an exception."""


# free slots of the link every client feeds
SUBMISSION_DEPTH = 8000
# free slots of the link from the endorser to the committer
ORDERED_DEPTH = 512
# seconds the submission link stays saturated before a run is overloaded
OVERLOAD_WINDOW_S = 5.0
# seconds without a receipt before a run is declared stalled
STALL_TIMEOUT_S = 120.0
# queue sentinel that ends a stage
STOP = object()
# member sets each engine keeps sorted for its iws access answers
MEMBER_ORDER_SLOTS = 256


@dataclass(frozen=True)
class PipelineConfig:
    block_size: int = 100
    endorsers: int = 2
    policy_m: int = 1
    max_retries: int = 16
    client_threads: int = 100
    block_timeout_ms: int = 50

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
        # the committer waits out a batch's deadline in one queue call
        if not 1 <= self.block_timeout_ms <= threading.TIMEOUT_MAX * 1000:
            raise ConfigError(f"timeout_ms must be >= 1 and <= {threading.TIMEOUT_MAX * 1000:g}")
        return self

    @classmethod
    def from_mapping(cls, values: dict, where: str = "config") -> "PipelineConfig":
        fields = {  # file key -> field, every one an integer
            "block_size": "block_size", "endorsers": "endorsers", "retries": "max_retries",
            "timeout_ms": "block_timeout_ms", "threads": "client_threads",
        }
        updates = {}
        for key, value in values.items():
            if key in fields:
                try:
                    updates[fields[key]] = int(value)
                except ValueError:
                    raise ConfigError(f"{where}: {key} must be an integer")
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
    # blocks cut by reason: "size", "deadline" or "drain"
    cuts: Counter = field(default_factory=Counter)
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


def simulate_payload(
    state: VersionedWorldState,
    payload: TransactionPayload,
    design: WorldStateDesign,
    roster,
    order,
):
    """One sandboxed execution; returns (rwset, access result or None)."""
    ctx = SimulationContext(state)
    result = execute_payload(ctx, payload, design, roster, order)
    return ctx.rwset(), result


def co_endorse(
    pending: _Pending,
    endorser_ids,
    state: VersionedWorldState,
    registry: MembershipRegistry,
    design: WorldStateDesign,
    roster,
    order,
) -> EndorsedTransaction:
    """Authorize, simulate, and sign the result as every listed endorser.

    Every endorser would read the same in-process state, so one
    simulation stands for all of them. Raises AuthorizationError when the
    submitter may not act, and ContractError or KeyCodecError when the
    payload cannot execute.
    """
    payload = pending.payload
    registry.authorize(payload)
    rwset, result = simulate_payload(state, payload, design, roster, order)
    endorser_ids = tuple(endorser_ids)
    # encoded once: the stub hashes these bytes and the block record
    # reuses them
    payload_bytes, rwset_bytes = payload.to_bytes(), rwset.to_bytes()
    stub = endorsement_stub(payload_bytes, rwset_bytes, endorser_ids)
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
    # the committer's endorsement check reuses this stub, and make_block
    # these bytes, instead of encoding the payload and read-write set again
    return tx.memoize_stub(stub, payload_bytes, rwset_bytes)


class _Engine:
    """Set-up and the endorse and commit steps both engines share.

    member_order is this engine's memo from a member-set value to the
    sorted tuple an iws access answer lists (see `contracts`). It lives as
    long as the engine, so the one value a preload shares across its keys
    is sorted once per engine. The endorser and the committer's retry
    endorsement both call it; `lru_cache` is thread-safe.
    """

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
        self.member_order = lru_cache(maxsize=MEMBER_ORDER_SLOTS)(sorted_members)
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
        unreported = Counter()  # set-up belongs to no run

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

    def endorse_pending(self, pending: _Pending, rings: Counter):
        """Endorse on the ring of m endorsers picked by the submission seq.

        Counts the ring's endorser ids in rings. Returns the
        EndorsedTransaction, or a REJECTED receipt when the payload fails
        authorization or cannot execute.
        """
        ids, m = self.endorser_ids, self.config.policy_m
        ring = tuple(ids[(pending.seq + offset) % len(ids)] for offset in range(m))
        rings.update(ring)
        try:
            return co_endorse(
                pending, ring, self.state, self.registry, self.design, self.roster,
                self.member_order,
            )
        except AuthorizationError as exc:
            reason = f"authorization: {exc.reason}"
        except (ContractError, KeyCodecError) as exc:
            reason = f"contract: {exc}"
        return _receipt(pending, Status.REJECTED, reason=reason)

    def commit_chunk(self, chunk, stats: RunStats, cut: str):
        """Commit one block and settle it.

        Counts the block, why it was cut and the keys each valid
        transaction touched in stats. Returns the block's final receipts
        (committed, or aborted on endorsement or an exhausted retry budget)
        and the next attempt of each other aborted transaction.
        """
        block, reasons = commit_block(self.state, self.log, chunk, self.config.policy_m)
        stats.blocks += 1
        stats.cuts[cut] += 1
        receipts, retries = [], []
        for tx, reason in zip(chunk, reasons):
            if reason == VALID:
                stats.touches[tx.rwset.touch_count()] += 1
                receipts.append(_receipt(tx, Status.COMMITTED, block_height=block.height))
            elif reason == REASON_ENDORSEMENT or tx.retry_count >= self.config.max_retries:
                receipts.append(_receipt(tx, Status.ABORTED, reason=reason))
            else:
                retries.append(_retry(tx))
        return receipts, retries


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

        # each bounded link: a queue of items and one of free-slot tokens
        submission_q, submission_free = queue.SimpleQueue(), queue.SimpleQueue()
        # endorsed transactions and rejection receipts, in endorsement order
        ordered_q, ordered_free = queue.SimpleQueue(), queue.SimpleQueue()
        for free, depth in (submission_free, SUBMISSION_DEPTH), (ordered_free, ORDERED_DEPTH):
            for _ in range(depth):
                free.put(None)
        # final receipts and worker exceptions; unbounded
        receipt_q = queue.SimpleQueue()

        cancel = threading.Event()  # overload, fault or shutdown

        def guarded(fn, inbox=None, free=None):
            def runner(*args):
                try:
                    fn(*args)
                except Exception as exc:  # fail loud in the calling thread
                    cancel.set()
                    receipt_q.put(exc)
                    # free a slot per item taken so that no producer blocks
                    while inbox is not None and inbox.get() is not STOP:
                        free.put(None)

            return runner

        def cancelled(item) -> None:
            receipt_q.put(_receipt(item, Status.CANCELLED, reason="overload"))

        def client_main(client_index: int, payloads) -> None:
            client_id = f"client{client_index}"
            for seq, payload in enumerate(payloads):
                pending = _Pending(client_id, seq, f"{client_id}-{seq:06d}", payload)
                if cancel.is_set():
                    cancelled(pending)
                else:
                    submission_free.get()
                    submission_q.put(pending)

        def endorser_main() -> None:
            # The link counts as saturated at 95% of its depth: producers
            # wake with some latency after each pop, so a full-depth check
            # would flicker and reset the window. Once every payload has
            # left the clients, a full link is only the endorser's backlog.
            saturated = max(1, int(SUBMISSION_DEPTH * 0.95))
            popped, saturated_since = 0, None
            while (pending := submission_q.get()) is not STOP:
                submission_free.put(None)
                popped += 1
                waiting = submission_q.qsize()
                if waiting < saturated or popped + waiting >= total:
                    saturated_since = None
                elif saturated_since is None:
                    saturated_since = time.monotonic()
                elif (
                    time.monotonic() - saturated_since >= OVERLOAD_WINDOW_S
                    and not cancel.is_set()
                ):
                    stats.overloaded = True
                    cancel.set()
                if cancel.is_set():
                    cancelled(pending)
                else:
                    endorsed = self.endorse_pending(pending, stats.endorser_counts)
                    ordered_free.get()
                    ordered_q.put(endorsed)

        def committer_main() -> None:
            # Until a cancel every final receipt passes through here, so a
            # batch of total - final transactions holds all that is left and
            # cannot grow. The endorser has stopped before STOP comes here,
            # so the rings of the retries join its counts then.
            batch, arrived, rings = [], [], Counter()
            final = 0
            deadline = 0.0
            while True:
                for item in arrived:
                    if isinstance(item, Receipt):
                        receipt_q.put(item)
                        final += 1
                        continue
                    if not batch:
                        deadline = time.monotonic() + cfg.block_timeout_ms / 1000
                    batch.append(item)
                if cancel.is_set():
                    for item in batch:
                        cancelled(item)
                    batch = []
                # checked before each wait: a batch of retries alone may
                # already hold all that is left
                if len(batch) == cfg.block_size:
                    cut = "size"
                elif batch and len(batch) == total - final:
                    cut = "drain"
                elif batch and time.monotonic() >= deadline:
                    cut = "deadline"
                else:
                    wait = max(0.0, deadline - time.monotonic()) if batch else None
                    arrived = []
                    with suppress(queue.Empty):  # the deadline has passed
                        arrived.append(ordered_q.get(timeout=wait))
                        ordered_free.put(None)
                    if STOP in arrived:
                        stats.endorser_counts.update(rings)
                        return
                    continue
                receipts, retries = self.commit_chunk(batch, stats, cut)
                batch = []
                # after a cancel a retry is not endorsed again: it joins the
                # batch as it is and is cancelled with it
                arrived = receipts + [
                    pending if cancel.is_set() else self.endorse_pending(pending, rings)
                    for pending in retries
                ]

        client_workers = [
            threading.Thread(target=guarded(client_main), args=args, daemon=True)
            for args in enumerate(batches)
        ]
        # each stage with the inbox it takes from until STOP
        stages = [
            (threading.Thread(target=guarded(stage, inbox, free), daemon=True), inbox)
            for stage, inbox, free in (
                (endorser_main, submission_q, submission_free),
                (committer_main, ordered_q, ordered_free),
            )
        ]

        started = time.monotonic()
        for t in client_workers + [t for t, _ in stages]:
            t.start()
        try:
            while stats.finalized() < total:
                try:
                    item = receipt_q.get(timeout=STALL_TIMEOUT_S)
                except queue.Empty:
                    raise PipelineStallError(
                        f"no receipt progress for {STALL_TIMEOUT_S}s "
                        f"({stats.finalized()}/{total} finalized)"
                    ) from None
                if isinstance(item, Exception):
                    raise PipelineFault(f"worker thread failed: {item!r}") from item
                stats.add(item)
            stats.elapsed_s = time.monotonic() - started
        finally:
            # Stops a faulted or stalled run; harmless once all are final.
            # A stage takes from its inbox until STOP, even after a fault, so
            # stopping the threads in pipeline order leaves no producer
            # waiting for a slot; STOP itself takes none.
            cancel.set()
            give_up = time.monotonic() + 10.0
            for t, inbox in [(t, None) for t in client_workers] + stages:
                left = max(0.0, give_up - time.monotonic())
                if inbox is not None:
                    inbox.put(STOP)
                t.join(timeout=left)
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

    _submitted = 0  # payloads numbered so far; set per instance on first run

    def run(self, client_batches) -> RunStats:
        """Run every payload to a final receipt; returns run stats.

        Payloads are taken round-robin across the batches, which inverts
        `bench.split_batches`, and stats.receipts lists them in that order.
        """
        started = time.monotonic()
        payloads = [p for row in zip_longest(*client_batches) for p in row if p is not None]
        pending = [
            _Pending("sync", seq, f"sync-{seq:06d}", payload)
            for seq, payload in enumerate(payloads, start=self._submitted)
        ]
        self._submitted += len(pending)
        order = [p.tx_id for p in pending]
        stats = RunStats(submitted=len(pending))
        receipts: dict = {}
        while pending:
            endorsed = []
            for item in pending:
                tx = self.endorse_pending(item, stats.endorser_counts)
                if isinstance(tx, Receipt):
                    receipts[item.tx_id] = tx
                else:
                    endorsed.append(tx)
            pending = []
            for start in range(0, len(endorsed), self.config.block_size):
                chunk = endorsed[start : start + self.config.block_size]
                # a round's short final chunk holds all that is left
                cut = "size" if len(chunk) == self.config.block_size else "drain"
                final, retries = self.commit_chunk(chunk, stats, cut)
                receipts.update((receipt.tx_id, receipt) for receipt in final)
                pending += retries
        for tx_id in order:
            stats.add(receipts[tx_id])
        stats.elapsed_s = time.monotonic() - started
        return stats
