"""Spans and counts around the engine's layers, installed from outside.

Each wrapper replaces a public function at the module attribute its caller
resolves it through (for example `pipeline.commit_block`, which
`LedgerHarness` calls, not `blocklog.commit_block`), a method on its class,
or a method on one benchmark-owned instance (the registry and the log
store). `Tracer.restore` puts every original back, and `assert_pristine`
proves that no wrapper is left before an untraced round.

A span records name, parent span (from a thread-local stack), the
transaction or block id, wall time (`perf_counter`) and thread CPU time
(`thread_time`). Under the GIL a wall-clock span includes time spent
waiting for other threads, so busy time is CPU time and wait time is wall
minus CPU. Counts live in per-thread counters, so no increment is lost.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict

from consentledger import audit, blocklog, pipeline, worldstate
from consentledger.transactions import EndorsedTransaction
from consentledger.worldstate import ReadWriteSet

# (owner, attribute, span name): low-frequency calls, a few per transaction
SPAN_TARGETS = (
    (pipeline, "co_endorse", "pipeline.co_endorse"),
    (pipeline, "execute_payload", "contracts.execute_payload"),
    (pipeline, "endorsement_stub", "transactions.endorsement_stub"),
    (pipeline, "commit_block", "pipeline.commit_block"),
    (blocklog, "verify_endorsement", "transactions.verify_endorsement"),
    (blocklog, "apply_rwset", "worldstate.apply_rwset"),
    (blocklog, "make_block", "blocklog.make_block"),
    (blocklog, "serialize_block", "blocklog.serialize_block"),
    (blocklog, "apply_preload", "preload.apply_preload"),
    (blocklog, "parse_block", "blocklog.parse_block"),
    (audit, "parse_block", "blocklog.parse_block"),
    (audit, "verify_chain", "blocklog.verify_chain"),
    (audit, "replay_oracle", "audit.replay_oracle"),
    (audit.ReplayReport, "matches_state", "audit.matches_state"),
)
VALIDATE_TARGET = (blocklog, "validate_rwset")
SIMULATE_TARGET = (pipeline, "simulate_payload")
ENCODE_TARGETS = (
    (ReadWriteSet, "to_bytes", "rwset_encodes"),
    (EndorsedTransaction, "to_bytes", "tx_encodes"),
)
# one call per key read: too frequent for the span run, so it gets a round
# of its own
HOT_TARGET = (worldstate, "split_key")

MODULE_TARGETS = (
    [(owner, attr) for owner, attr, _ in SPAN_TARGETS]
    + [VALIDATE_TARGET, SIMULATE_TARGET, HOT_TARGET]
    + [(owner, attr) for owner, attr, _ in ENCODE_TARGETS]
)
ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr in MODULE_TARGETS}
INSTANCE_ATTRS = ("authorize", "append")


def _tag(name: str, args, kwargs):
    if name == "pipeline.co_endorse":
        return args[0].tx_id
    if name == "pipeline.commit_block":
        return f"block-{args[1].height + 1}"
    return None


class Tracer:
    """Installs wrappers, collects spans and counts per phase, restores."""

    def __init__(self):
        self.phase = "idle"
        self.prefix = ""
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list = []
        self._installed: list = []

    # --- installation -------------------------------------------------

    def _install(self, owner, attr, wrapper) -> None:
        had_own = attr in vars(owner)
        self._installed.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, wrapper)

    def install(self, hot: bool, registry, store) -> None:
        """Wrap the span targets, or for the hot round only split_key.

        Phases recorded during the hot round carry a "hot-" prefix.
        """
        self.prefix = "hot-" if hot else ""
        if hot:
            self._install(*SIMULATE_TARGET, self._simulate(getattr(*SIMULATE_TARGET)))
            self._install(*HOT_TARGET, self._timed_count("split_key", getattr(*HOT_TARGET)))
            return
        for owner, attr, name in SPAN_TARGETS:
            self._install(owner, attr, self._span(name, getattr(owner, attr)))
        self._install(*VALIDATE_TARGET, self._validate(getattr(*VALIDATE_TARGET)))
        self._install(*SIMULATE_TARGET, self._simulate(getattr(*SIMULATE_TARGET)))
        for owner, attr, name in ENCODE_TARGETS:
            self._install(owner, attr, self._encode(name, getattr(owner, attr)))
        self._install(registry, "authorize", self._span("membership.authorize", registry.authorize))
        self._install(store, "append", self._span("blocklog.append", store.append))

    def enter(self, phase: str) -> None:
        self.phase = self.prefix + phase

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # --- wrappers -----------------------------------------------------

    def _count(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        tracer = self
        wall, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_tag = stack[-1] if stack else (-1, None)
            tag = _tag(name, args, kwargs) or parent_tag
            span_id = next(tracer._ids)
            stack.append((span_id, tag))
            w0, c0 = wall(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1, w1 = cpu(), wall()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, tag, tracer.phase, w0, w1, c0, c1)
                )

        return wrapper

    def _validate(self, fn):
        tracer = self
        span = self._span("worldstate.validate_rwset", fn)

        def wrapper(state, rws):
            counter = tracer._count()
            phase = tracer.phase
            counter[(phase, "validate_calls")] += 1
            if rws.snapshot_writes is not None and rws.snapshot_writes == state.write_count:
                counter[(phase, "validate_fastpath")] += 1
            ok = span(state, rws)
            if not ok:
                counter[(phase, "validate_conflicts")] += 1
            return ok

        return wrapper

    def _simulate(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            rwset, result = fn(*args, **kwargs)
            counter = tracer._count()
            counter[(tracer.phase, "simulations")] += 1
            counter[(tracer.phase, "keys_read")] += len(rwset.reads)
            return rwset, result

        return wrapper

    def _encode(self, name, fn):
        tracer = self

        def wrapper(self_, *args, **kwargs):
            data = fn(self_, *args, **kwargs)
            counter = tracer._count()
            counter[(tracer.phase, name)] += 1
            counter[(tracer.phase, name + "_bytes")] += len(data)
            return data

        return wrapper

    def _timed_count(self, name, fn):
        tracer = self
        wall = time.perf_counter

        def wrapper(*args, **kwargs):
            w0 = wall()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = wall() - w0
                counter = tracer._count()
                counter[(tracer.phase, name)] += 1
                counter[(tracer.phase, name + "_s")] += elapsed

        return wrapper

    # --- results ------------------------------------------------------

    def counts(self, phase: str) -> Counter:
        total = Counter()
        for counter in self._counters:
            for (p, name), value in counter.items():
                if p == phase:
                    total[name] += value
        return total

    def span_totals(self, phase: str) -> dict:
        """name -> [calls, wall_s, cpu_s, self_wall_s, self_cpu_s]."""
        child_wall: dict = defaultdict(float)
        child_cpu: dict = defaultdict(float)
        selected = [s for s in self.spans if s[4] == phase]
        for span_id, parent, _n, _t, _p, w0, w1, c0, c1 in selected:
            if parent >= 0:
                child_wall[parent] += w1 - w0
                child_cpu[parent] += c1 - c0
        totals: dict = {}
        for span_id, _parent, name, _t, _p, w0, w1, c0, c1 in selected:
            row = totals.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += w1 - w0
            row[2] += c1 - c0
            row[3] += w1 - w0 - child_wall[span_id]
            row[4] += c1 - c0 - child_cpu[span_id]
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "# span_id parent name tag phase wall_start wall_end cpu_start cpu_end\n"
            )
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def assert_pristine(*instances) -> None:
    """Raise unless every traced attribute is the original, unwrapped one."""
    for (owner, attr), original in ORIGINALS.items():
        if vars(owner).get(attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")
    for instance in instances:
        for attr in INSTANCE_ATTRS:
            if attr in vars(instance):
                raise RuntimeError(f"{type(instance).__name__}.{attr} is still wrapped")
