"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_engine()

from consentledger import contracts  # noqa: E402
from tracing import assert_pristine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "access-iws": dict(
        txs=60, n_individuals=40, n_resources=300, preload_keys=300, preload_members=20
    ),
    "access-rws": dict(
        txs=12, n_individuals=30, n_resources=10, preload_keys=30, preload_members=10
    ),
    "consent-mix": dict(txs=300, n_individuals=40, n_resources=50),
}


def tiny(name: str):
    return WORKLOADS[name].scaled(**TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    out = run.measure(tiny(name), seed=3, seconds=0, trace=False)
    result = out["result"]
    assert result["correct"], out["record"]["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == TINY[name]["txs"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for row in out["record"]["rounds"]:
        assert row["committed"] + row["aborted"] + row["rejected"] + row["cancelled"] == row["attempted"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    out = run.measure(tiny(name), seed=3, seconds=0, trace=True)
    result = out["result"]
    assert result["correct"], out["record"]["problems"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert [r["traced"] for r in out["record"]["rounds"]] == [False, True, "hot"]
    assert_pristine()
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["audit.parses_per_block"] == 2
    if name == "consent-mix":
        assert value["worldstate.fastpath_share"] < 0.5
        assert value["transactions.rwset_encodes_per_tx"] >= 4
    else:
        reads = 2 if name == "access-iws" else TINY[name]["n_individuals"] + 1
        assert value["contracts.keys_read_per_tx"] == reads
        assert value["keys.split_key_calls_per_tx"] == reads
        assert value["transactions.rwset_encodes_per_tx"] == 4
        assert value["worldstate.fastpath_share"] == 1.0


def test_times_are_scaled_to_the_reference_host_speed():
    ref = run.CALIBRATION_REF_S

    def row(tps, calibration_s):
        return dict(
            tps=tps, setup_s=1.0, replay_s=2.0, committed=10, attempted=10,
            log_bytes=100, calibration_s=calibration_s,
        )

    # the first round only warms up; then the host is at the reference
    # speed for set-up and twice as slow for replay, and the run straddles
    # both, so each time is scaled by the passes on either side of it
    rows = [row(1.0, [ref] * 4)] + [row(50.0, [ref, ref, 2 * ref, 2 * ref])] * 3
    metrics = run.end_to_end(rows)
    assert metrics["setup_s"] == (1.0, "s")
    assert metrics["tps"] == (75.0, "1/s")
    assert metrics["replay_s"] == (1.0, "s")


def test_wrong_access_answer_fails_the_run(monkeypatch):
    # the stub does not cover the answer and replay skips answer checks on
    # preloaded chains, so only the benchmark's own check can catch this
    original = contracts._access_request

    def drop_one_member(*args):
        result = original(*args)
        return dataclasses.replace(
            result, consenting_individuals=result.consenting_individuals[1:]
        )

    monkeypatch.setattr(contracts, "_access_request", drop_one_member)
    out = run.measure(tiny("access-iws"), seed=3, seconds=0, trace=False)
    assert not out["result"]["correct"]
    assert any("access answers differ" in p for p in out["record"]["problems"])


def test_tree_without_engine_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "access-iws",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
