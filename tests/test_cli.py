"""End-to-end runs of the command-line entry points."""

import csv

import pytest

from consentledger.blocklog import BlockLog, FileLogStore
from consentledger.cli import _bench_config, build_parser, main
from consentledger.keys import ConsentFact, WorldStateDesign
from consentledger.membership import population_registry
from consentledger.pipeline import PipelineConfig, SyncLedger
from consentledger.transactions import access_request, assign_role, grant_consent


def _write_scripted_log(tmp_path):
    """A small committed history, its registry file and its state digest."""
    registry = population_registry(3)
    log_path = tmp_path / "chain.log"
    store = FileLogStore(log_path)
    ledger = SyncLedger(
        WorldStateDesign.IWS,
        registry,
        PipelineConfig(block_size=1),
        log=BlockLog(store),
    )
    steps = [
        grant_consent("i0", ConsentFact("i0", "r0", "d0", "w0", "t0")),
        assign_role("w0", "d0", "c0", "w0"),
        access_request("c0", "c0", "d0", "w0", "r0", "t0"),
    ]
    for step in steps:
        ledger.submit_one(step)
    store.close()
    registry_path = tmp_path / "actors.txt"
    registry.save_file(registry_path)
    return log_path, registry_path, ledger.state.digest()


def test_bench_conflict_sweep_with_csv_and_logs(tmp_path, capsys):
    out_csv = tmp_path / "results.csv"
    log_base = tmp_path / "chain.log"
    code = main(
        [
            "bench",
            "conflict",
            "--out",
            str(out_csv),
            "--log-file",
            str(log_base),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.count("conflict design=iws") == 3
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + one row per cell
    assert rows[1][0] == "conflict"
    # one chain log per cell, each independently verifiable
    for index in range(3):
        cell_log = tmp_path / f"chain-{index}.log"
        assert cell_log.exists()
        assert main(["verify", "--log", str(cell_log)]) == 0


def test_bench_refuses_existing_chain_log(tmp_path, capsys):
    # multi-cell sweeps derive one file per cell from the base name
    (tmp_path / "chain-0.log").write_bytes(b"\x00\x00\x00\x01x")
    code = main(
        ["bench", "conflict", "--log-file", str(tmp_path / "chain.log")]
    )
    assert code == 2
    assert "already holds a chain" in capsys.readouterr().err


def test_bench_policy_endorser_mismatch_exits_2(capsys):
    code = main(["bench", "conflict", "--policy", "1/2", "--endorsers", "3"])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_bench_policy_flag_sets_endorsers():
    args = build_parser().parse_args(["bench", "conflict", "--policy", "2/3"])
    cfg = _bench_config(args)
    assert (cfg.policy_m, cfg.endorsers) == (2, 3)


def test_bench_rejects_unknown_kind():
    with pytest.raises(SystemExit):
        main(["bench", "nonsense"])


def test_audit_subcommand(tmp_path, capsys):
    log_path, _, _ = _write_scripted_log(tmp_path)
    code = main(["audit", "individual:i0", "--log", str(log_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "grant_consent" in out
    assert "access_grant" in out
    assert "# 2 events for individual:i0" in out

    code = main(["audit", "watchdog:w0", "--log", str(log_path)])
    assert code == 0
    assert "assign_role" in capsys.readouterr().out


def test_audit_rejects_bad_subject(tmp_path, capsys):
    log_path, _, _ = _write_scripted_log(tmp_path)
    assert main(["audit", "i0", "--log", str(log_path)]) == 2
    assert main(["audit", "martian:x1", "--log", str(log_path)]) == 2
    capsys.readouterr()


def test_verify_and_replay_detect_tampering(tmp_path, capsys):
    log_path, registry_path, _ = _write_scripted_log(tmp_path)
    assert main(["verify", "--log", str(log_path)]) == 0
    assert (
        main(["replay", "--log", str(log_path), "--registry", str(registry_path)]) == 0
    )
    capsys.readouterr()

    raw = bytearray(log_path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    broken = tmp_path / "broken.log"
    broken.write_bytes(bytes(raw))
    assert main(["verify", "--log", str(broken)]) == 1
    assert main(["replay", "--log", str(broken)]) == 1
    assert main(["audit", "individual:i0", "--log", str(broken)]) == 1
    err = capsys.readouterr()
    assert "failed at height" in err.out
    assert "refusing" in err.err


def test_replay_reports_summary(tmp_path, capsys):
    log_path, registry_path, digest = _write_scripted_log(tmp_path)
    code = main(
        ["replay", "--log", str(log_path), "--registry", str(registry_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "committed=3" in out
    assert "interpreted=true" in out
    assert f"state digest {digest}" in out


def test_read_only_commands_refuse_missing_or_empty_log(tmp_path, capsys):
    missing = tmp_path / "missing.log"
    empty = tmp_path / "empty.log"
    empty.write_bytes(b"")
    for path in (missing, empty):
        for argv in (
            ["verify", "--log", str(path)],
            ["replay", "--log", str(path)],
            ["audit", "individual:i0", "--log", str(path)],
        ):
            assert main(argv) == 2
            assert "missing or empty" in capsys.readouterr().err
    assert not missing.exists()
    assert empty.read_bytes() == b""


def test_verify_truncation_at_every_offset(tmp_path, capsys):
    log_path, _, _ = _write_scripted_log(tmp_path)
    raw = log_path.read_bytes()
    # record i spans [boundaries[i], boundaries[i + 1])
    boundaries = [0]
    while boundaries[-1] < len(raw):
        start = boundaries[-1]
        boundaries.append(start + 4 + int.from_bytes(raw[start : start + 4], "big"))
    assert boundaries[-1] == len(raw) and len(boundaries) == 5
    cases = [raw[:offset] for offset in range(1, len(raw) + 1)]
    cases.append(raw + b"\x00\x01")  # two stray bytes after a valid chain
    cut = tmp_path / "cut.log"
    for data in cases:
        cut.write_bytes(data)
        code = main(["verify", "--log", str(cut)])
        out = capsys.readouterr().out
        if len(data) in boundaries:
            assert code == 0, len(data)
            blocks = boundaries.index(len(data))
            # every block after genesis holds one transaction
            txs = max(blocks - 1, 0)
            assert f"ok: {blocks} blocks, {txs} transactions, chain intact" in out
        else:
            torn = sum(1 for b in boundaries if b <= len(data)) - 1
            assert code == 1, len(data)
            assert f"chain verification failed at height {torn}" in out
    assert main(["audit", "individual:i0", "--log", str(cut)]) == 1
    assert main(["replay", "--log", str(cut)]) == 1
    assert "refusing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["replay", "--registry", "{missing}"],
        ["replay", "--registry", "{malformed}"],
        ["replay", "--policy", "two/three"],
        ["bench", "conflict", "--config", "{missing}"],
        ["bench", "conflict", "--config", "{unbounded}"],
        ["bench", "conflict", "--config", "{policy}", "--endorsers", "5"],
    ],
)
def test_bad_inputs_exit_2(tmp_path, capsys, args):
    log_path, _, _ = _write_scripted_log(tmp_path)
    malformed = tmp_path / "bad-actors.txt"
    malformed.write_text("individual\n", encoding="utf-8")
    # a depth of 0 would make an unbounded queue
    unbounded = tmp_path / "unbounded.conf"
    unbounded.write_text("ordered_depth = 0\n", encoding="utf-8")
    # --endorsers 5 contradicts the file's policy = 2/3
    policy = tmp_path / "policy.conf"
    policy.write_text("policy = 2/3\n", encoding="utf-8")
    paths = dict(
        missing=tmp_path / "missing", malformed=malformed, unbounded=unbounded, policy=policy
    )
    argv = [a.format(**paths) for a in args]
    if argv[0] == "replay":
        argv += ["--log", str(log_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
