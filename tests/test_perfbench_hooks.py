"""The repository benchmark still runs against this engine.

The benchmark's own smoke tests (`python3 -m pytest perfbench`) sit
outside this suite. Importing its runner, tracer and workloads here
resolves every engine hook the tracer wraps (its ORIGINALS table), and
one tiny round per workload makes every public call a benchmark round
makes, so removing or renaming an engine name the benchmark uses fails
this suite too.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402,F401  (resolves every wrapped hook at import)
import workloads  # noqa: E402

# the sizes of the benchmark's own smoke tests
TINY = {
    "access-iws": dict(
        txs=60, n_individuals=40, n_resources=300, preload_keys=300, preload_members=20
    ),
    "access-rws": dict(
        txs=12, n_individuals=30, n_resources=10, preload_keys=30, preload_members=10
    ),
    "consent-mix": dict(txs=300, n_individuals=40, n_resources=50),
}


@pytest.mark.parametrize(
    "name, trace",
    [pytest.param(name, False, id=name) for name in workloads.WORKLOADS]
    + [pytest.param(name, True, id=f"{name}-traced") for name in workloads.WORKLOADS],
)
def test_benchmark_round_runs_on_this_engine(name, trace):
    # a traced run calls every hook through the tracer's wrappers, so a
    # signature the wrappers no longer fit fails here
    workload = workloads.WORKLOADS[name].scaled(**TINY[name])
    out = run.measure(workload, seed=3, seconds=0, trace=trace)
    assert out["result"]["correct"], out["record"]["problems"]
    assert out["result"]["failed"] == 0
    if trace:
        assert out["result"]["metrics"]["contracts.execute_cpu_us"]["value"] > 0
