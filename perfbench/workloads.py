"""The benchmark's workloads: population, setup payloads, traffic, answer check.

Every workload runs on `iws` or `rws` with the default pipeline config except
`client_threads = 2`. Inputs come only from the seed and the round index;
the program under test receives the generated payloads and nothing else.

  access-iws   200k preloaded iws consent keys (table3 cell 200,000 x 20,000,
               member sets capped at 200), one role grant, then uniform
               access requests from c0. Endorsement reads 2 keys; the serial
               committer, record encoding and replay parsing dominate.
  access-rws   table3 cell 200 x 1,000 under rws: the same requests, but
               each one scans 1,000 consent keys (1,001 reads) and commits a
               ~33 KB transaction. Endorsement dominates.
  consent-mix  iws without preload: 2,000 individuals, 20,000 resources,
               roles d0-d3, watchdogs w0-w3, consumers c0-c19, timeframe t0.
               Setup assigns all 80 (role, consumer) pairs under w0; traffic
               is 64% consent updates, 35% access requests, 1% role ops, so
               writes conflict with reads, the write_count fast path misses
               and replay runs the oracle's fact-set check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from consentledger.blocklog import parse_block
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.membership import population_registry
from consentledger.preload import PreloadSpec
from consentledger.transactions import (
    PayloadKind,
    access_request,
    assign_role,
    grant_consent,
    revoke_consent,
    revoke_role,
)

CLIENT_THREADS = 2


@dataclass(frozen=True)
class Workload:
    """One named traffic mix; `txs` payloads are pushed per round."""

    name: str
    design: WorldStateDesign
    txs: int
    n_individuals: int
    n_resources: int
    n_roles: int = 1
    n_watchdogs: int = 1
    n_consumers: int = 1
    preload_keys: int = 0
    preload_members: int = 0

    def preload(self) -> PreloadSpec | None:
        if self.preload_keys == 0:
            return None
        return PreloadSpec(
            design=self.design,
            n_individuals=self.n_individuals,
            n_resources=self.n_resources,
            n_roles=self.n_roles,
            n_watchdogs=self.n_watchdogs,
            n_timeframes=1,
            key_space=self.preload_keys,
            value_space=self.preload_members,
        ).validate()

    def registry(self):
        return population_registry(
            self.n_individuals, self.n_watchdogs, self.n_consumers
        )

    def setup_payloads(self) -> list:
        """Role grants under w0 for every (role, consumer) pair."""
        return [
            assign_role("w0", f"d{d}", f"c{c}", "w0")
            for d in range(self.n_roles)
            for c in range(self.n_consumers)
        ]

    def payloads(self, seed: int, round_index: int) -> list:
        rng = random.Random(seed * 1_000_003 + round_index)
        if self.name == "consent-mix":
            return [self._mixed(rng) for _ in range(self.txs)]
        return [self._access(rng) for _ in range(self.txs)]

    def _access(self, rng: random.Random):
        consumer = f"c{rng.randrange(self.n_consumers)}"
        return access_request(
            consumer,
            dc_id=consumer,
            role_id=f"d{rng.randrange(self.n_roles)}",
            wd_id="w0",
            res_id=f"r{rng.randrange(self.n_resources)}",
            time_id="t0",
        )

    def _mixed(self, rng: random.Random):
        draw = rng.random()
        if draw < 0.64:
            ind = f"i{rng.randrange(self.n_individuals)}"
            fact = ConsentFact(
                ind_id=ind,
                res_id=f"r{rng.randrange(self.n_resources)}",
                role_id=f"d{rng.randrange(self.n_roles)}",
                wd_id=f"w{rng.randrange(self.n_watchdogs)}",
                time_id="t0",
            )
            make = grant_consent if rng.random() < 0.7 else revoke_consent
            return make(ind, fact)
        if draw < 0.99:
            return self._access(rng)
        watchdog = f"w{rng.randrange(self.n_watchdogs)}"
        make = assign_role if rng.random() < 0.8 else revoke_role
        return make(
            watchdog,
            f"d{rng.randrange(self.n_roles)}",
            f"c{rng.randrange(self.n_consumers)}",
            watchdog,
        )

    def scaled(self, txs: int, **population) -> "Workload":
        """A smaller copy for smoke tests; the traffic shape is unchanged."""
        return replace(self, txs=txs, **population)


def walk_chain(workload: Workload, store) -> dict:
    """Count the chain and check every committed access answer.

    The replay oracle skips answer checks on chains with a state-init
    block, so on preloaded workloads each committed AccessGrantRecord is
    compared here with the answer the PreloadSpec grid implies: the
    preloaded keys are the first `key_space` cells of the grid, all share
    the first `value_space` members of the pool, and only the setup role
    grants (under w0) are assigned.
    """
    spec = workload.preload()
    keys = set(spec.keys()) if spec is not None else set()
    members = spec.shared_members() if spec is not None else frozenset()
    roster = [f"i{i}" for i in range(workload.n_individuals)]
    assigned = {(p.role_id, p.dc_id, p.wd_id) for p in workload.setup_payloads()}
    expected_by_key: dict = {}
    out = dict(blocks=0, txs=0, answers_checked=0, answer_mismatches=0)
    for record in store:
        block = parse_block(record)
        out["blocks"] += 1
        out["txs"] += len(block.transactions)
        if spec is None:
            continue
        for tx, valid in zip(block.transactions, block.validity):
            payload = tx.payload
            if not valid or payload.kind is not PayloadKind.ACCESS_REQUEST:
                continue
            tail = f"|{payload.wd_id}|{payload.role_id}|{payload.time_id}"
            expected = expected_by_key.get(payload.res_id + tail)
            if expected is None:
                if workload.design is WorldStateDesign.IWS:
                    consenting = members if payload.res_id + tail in keys else ()
                else:
                    consenting = [
                        ind
                        for ind in roster
                        if ind + tail in keys and payload.res_id in members
                    ]
                expected = tuple(sorted(consenting))
                expected_by_key[payload.res_id + tail] = expected
            granted = (payload.role_id, payload.dc_id, payload.wd_id) in assigned
            result = tx.result
            out["answers_checked"] += 1
            if (
                result is None
                or result.granted != granted
                or tuple(result.consenting_individuals) != (expected if granted else ())
                or (result.dc_id, result.role_id, result.wd_id, result.res_id, result.time_id)
                != (payload.dc_id, payload.role_id, payload.wd_id, payload.res_id, payload.time_id)
            ):
                out["answer_mismatches"] += 1
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="access-iws",
            design=WorldStateDesign.IWS,
            txs=1_000,
            n_individuals=20_000,
            n_resources=200_000,
            preload_keys=200_000,
            preload_members=200,
        ),
        Workload(
            name="access-rws",
            design=WorldStateDesign.RWS,
            txs=100,
            n_individuals=1_000,
            n_resources=200,
            preload_keys=1_000,
            preload_members=200,
        ),
        Workload(
            name="consent-mix",
            design=WorldStateDesign.IWS,
            txs=8_000,
            n_individuals=2_000,
            n_resources=20_000,
            n_roles=4,
            n_watchdogs=4,
            n_consumers=20,
        ),
    )
}
