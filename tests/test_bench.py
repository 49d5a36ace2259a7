"""Workload generation, preload exactness, and small benchmark runs."""

import csv

import pytest

from consentledger.audit import ReplayMismatchError, replay_oracle
from consentledger.bench import (
    CONFLICT_CELLS,
    CSV_COLUMNS,
    KEYSPACE_CELLS,
    TABLE3_CELLS,
    TXSIZE_CELLS,
    VALUESPACE_CELLS,
    BenchResult,
    WorkloadError,
    WorkloadSpec,
    append_csv,
    build_payloads,
    conflict_payloads,
    gen_sweep,
    run_bench,
    split_batches,
    table3_spec,
)
from consentledger.blocklog import MemoryLogStore
from consentledger.keys import ConsentFact, WorldStateDesign, encode_consent_key
from consentledger.pipeline import PipelineConfig
from consentledger.preload import apply_preload
from consentledger.transactions import grant_consent
from consentledger.worldstate import VersionedWorldState, digest_entries

IWS = WorldStateDesign.IWS
RWS = WorldStateDesign.RWS
ROWS = WorldStateDesign.ROWS


def test_sweep_shapes():
    assert len(gen_sweep("keyspace")) == len(KEYSPACE_CELLS)
    assert len(gen_sweep("valuespace")) == len(VALUESPACE_CELLS)
    assert len(gen_sweep("write-valuespace")) == len(VALUESPACE_CELLS)
    assert len(gen_sweep("txsize")) == len(TXSIZE_CELLS)
    assert len(gen_sweep("table3")) == 2 * len(TABLE3_CELLS)
    assert len(gen_sweep("conflict")) == len(CONFLICT_CELLS)
    with pytest.raises(WorkloadError):
        gen_sweep("nonsense")


def test_only_the_conflict_sweep_takes_a_design():
    assert {s.design for s in gen_sweep("conflict")} == {IWS}
    assert {s.design for s in gen_sweep("conflict", design=ROWS)} == {ROWS}
    # the refusal names the real reason (every refused kind exits 2 in
    # tests/test_cli.py::test_bad_inputs_exit_2)
    with pytest.raises(WorkloadError, match="table3 runs its own rws and iws cells"):
        gen_sweep("table3", design=IWS)
    with pytest.raises(WorkloadError, match="txsize is a raw sweep and runs no contract"):
        gen_sweep("txsize", design=RWS)


def test_keyspace_sweep_covers_the_planned_cells():
    specs = gen_sweep("keyspace", total_txs=100)
    assert [s.key_space for s in specs] == list(KEYSPACE_CELLS)
    for spec in specs:
        assert spec.keys_per_tx == 100
        assert spec.value_space == 100
        assert spec.total_txs == 100


def test_table3_spec_key_and_value_spaces():
    iws = table3_spec(IWS, n_res=200, n_ind=20_000)
    assert iws.key_space == 200 and iws.value_space == 200
    rws = table3_spec(RWS, n_res=200, n_ind=20_000)
    assert rws.key_space == 20_000 and rws.value_space == 200
    small = table3_spec(RWS, n_res=30, n_ind=50)
    assert small.key_space == 50 and small.value_space == 30
    # rows keys every (resource, individual) pair; the member is the one role
    rows = table3_spec(ROWS, n_res=200, n_ind=1_000)
    assert rows.key_space == 200 * 1_000 and rows.value_space == 1
    rows_small = table3_spec(ROWS, n_res=30, n_ind=50)
    assert rows_small.key_space == 1_500 and rows_small.value_space == 1


@pytest.mark.parametrize(
    "design, expected",
    [
        # k individuals consent for the same (res, wd, role, time)
        (IWS, [("i0", "r0", "d0"), ("i1", "r0", "d0"), ("i2", "r0", "d0")]),
        # one individual consents for k resources
        (RWS, [("i0", "r0", "d0"), ("i0", "r1", "d0"), ("i0", "r2", "d0")]),
        # one individual consents k roles for one resource
        (ROWS, [("i0", "r0", "d0"), ("i0", "r0", "d1"), ("i0", "r0", "d2")]),
    ],
    ids=["iws", "rws", "rows"],
)
def test_conflict_payloads_share_one_key_per_design(design, expected):
    spec = WorkloadSpec(kind="conflict", design=design, conflict_k=3, total_txs=3)
    payloads = conflict_payloads(spec.validate())
    facts = [ConsentFact(ind, res, role, "w0", "t0") for ind, res, role in expected]
    assert payloads == [grant_consent(fact.ind_id, fact) for fact in facts]
    encoded = [encode_consent_key(design, p.fact) for p in payloads]
    assert len({key for key, _ in encoded}) == 1
    assert len({member for _, member in encoded}) == 3


def test_preload_fills_exactly_key_space():
    spec = table3_spec(IWS, n_res=40, n_ind=10, txs=0)
    state = VersionedWorldState()
    count = apply_preload(state, spec.preload_spec())
    assert count == 40
    assert state.key_count() == 40
    members = dict(state.items())["r0|w0|d0|t0"][0]
    assert members == frozenset(f"i{k}" for k in range(10))


def test_infeasible_specs_rejected():
    with pytest.raises(WorkloadError):
        WorkloadSpec(kind="keyspace", key_space=3_000_000).validate()
    with pytest.raises(WorkloadError):
        WorkloadSpec(
            kind="keyspace", n_resources=10, key_space=100, value_space=1
        ).validate()
    with pytest.raises(WorkloadError):
        WorkloadSpec(
            kind="txsize", n_resources=100, key_space=50, value_space=1, keys_per_tx=60
        ).validate()
    with pytest.raises(WorkloadError):
        WorkloadSpec(kind="conflict", conflict_k=0).validate()


def test_build_payloads_deterministic_per_seed():
    spec = WorkloadSpec(
        kind="keyspace",
        n_resources=200,
        key_space=200,
        value_space=10,
        keys_per_tx=5,
        total_txs=30,
        seed=3,
    ).validate()
    first = build_payloads(spec)
    second = build_payloads(spec)
    assert first == second
    other = build_payloads(
        WorkloadSpec(
            kind="keyspace",
            n_resources=200,
            key_space=200,
            value_space=10,
            keys_per_tx=5,
            total_txs=30,
            seed=4,
        ).validate()
    )
    assert first != other


def test_split_batches_round_robin():
    batches = split_batches(list(range(7)), 3)
    assert batches == [[0, 3, 6], [1, 4], [2, 5]]
    # fewer payloads than clients: empty batches are dropped
    assert split_batches([1], 3) == [[1]]


def _tiny_config() -> PipelineConfig:
    return PipelineConfig(block_size=20, client_threads=4, block_timeout_ms=10)


def test_run_bench_table3_small_cell():
    spec = table3_spec(IWS, n_res=30, n_ind=20, txs=60, seed=5)
    result = run_bench(spec, config=_tiny_config())
    assert result.committed == 60
    assert result.aborted == result.rejected == result.cancelled == 0
    assert not result.overloaded
    # access under IWS touches the role key plus one consent key
    assert result.hits_mean == 2.0
    assert result.hits_min == result.hits_max == 2
    assert result.tps > 0


def test_run_bench_rws_hits_track_population():
    spec = table3_spec(RWS, n_res=30, n_ind=20, txs=40, seed=5)
    result = run_bench(spec, config=_tiny_config())
    assert result.committed == 40
    assert result.hits_mean == 21.0


def test_run_bench_same_seed_same_digest():
    spec = table3_spec(IWS, n_res=25, n_ind=10, txs=50, seed=9)
    stores = [MemoryLogStore(), MemoryLogStore()]
    first, second = [
        run_bench(spec, config=_tiny_config(), log_store=store) for store in stores
    ]
    digests = [digest_entries(replay_oracle(store).entries) for store in stores]
    assert digests[0] == digests[1]
    assert first.committed == second.committed == 50


def test_run_bench_raises_when_live_state_drifts(monkeypatch):
    spec = WorkloadSpec(
        kind="write-valuespace",
        n_individuals=100,
        n_resources=50,
        key_space=50,
        value_space=5,
        keys_per_tx=5,
        total_txs=10,
        seed=3,
    ).validate()
    apply_write = VersionedWorldState.apply_write
    dropped = []

    def drop_first_write(state, key, value):
        if not dropped:
            dropped.append(key)
            return state.version_of(key)
        return apply_write(state, key, value)

    monkeypatch.setattr(VersionedWorldState, "apply_write", drop_first_write)
    with pytest.raises(ReplayMismatchError):
        run_bench(spec, config=_tiny_config())
    assert len(dropped) == 1


def test_run_bench_conflict_cells():
    for spec in gen_sweep("conflict"):
        result = run_bench(spec, config=PipelineConfig(block_size=100, max_retries=64))
        assert result.committed == spec.conflict_k
        assert result.blocks == spec.conflict_k
        assert result.hits_mean == 1.0


def test_run_bench_raw_read_sweep_cell():
    spec = WorkloadSpec(
        kind="keyspace",
        n_resources=500,
        key_space=500,
        value_space=10,
        keys_per_tx=20,
        total_txs=40,
        seed=2,
    ).validate()
    result = run_bench(spec, config=_tiny_config())
    assert result.committed == 40
    assert result.hits_mean == 20.0


def test_run_bench_write_sweep_cell():
    spec = WorkloadSpec(
        kind="write-valuespace",
        n_individuals=100,
        n_resources=300,
        key_space=300,
        value_space=50,
        keys_per_tx=10,
        total_txs=30,
        seed=2,
    ).validate()
    result = run_bench(spec, config=_tiny_config())
    assert result.committed + result.aborted == 30
    assert result.hits_min >= 10


def test_csv_rows_and_header(tmp_path):
    spec = table3_spec(IWS, n_res=20, n_ind=10, txs=30, seed=1)
    result = run_bench(spec, config=_tiny_config())
    path = tmp_path / "bench.csv"
    append_csv(path, [result])
    append_csv(path, [result])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    row = dict(zip(CSV_COLUMNS, rows[1]))
    assert row["kind"] == "table3"
    assert row["design"] == "iws"
    assert row["committed"] == "30"
    assert row["overload_flag"] == "0"
    assert float(row["tps"]) > 0
    assert row["hits_mean"] == "2.000"


def test_overloaded_result_reports_zero_tps():
    spec = table3_spec(IWS, n_res=20, n_ind=10, txs=30, seed=1)
    result = run_bench(spec, config=_tiny_config())
    fake = BenchResult(
        spec=result.spec,
        committed=5,
        aborted=0,
        rejected=0,
        cancelled=25,
        blocks=2,
        elapsed_s=1.0,
        tps=5.0,
        hits_mean=2.0,
        hits_min=2,
        hits_max=2,
        overloaded=True,
    )
    row = dict(zip(CSV_COLUMNS, fake.to_csv_row()))
    assert row["tps"] == "0.00"
    assert row["overload_flag"] == "1"
    assert row["aborted"] == "25"


def test_aborted_column_counts_every_final_non_committed_tx():
    spec = table3_spec(IWS, n_res=20, n_ind=10, txs=30, seed=1)
    result = BenchResult(
        spec=spec,
        committed=20,
        aborted=4,
        rejected=5,
        cancelled=1,
        blocks=2,
        elapsed_s=1.0,
        tps=20.0,
        hits_mean=2.0,
        hits_min=2,
        hits_max=2,
        overloaded=False,
    )
    row = dict(zip(CSV_COLUMNS, result.to_csv_row()))
    assert row["aborted"] == str(result.not_committed) == "10"
    assert int(row["committed"]) + int(row["aborted"]) == int(row["txs"])
