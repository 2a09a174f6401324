"""The benchmark's gates at full size, run from the normal suite.

A short ``perfbench/run.py`` run designs both targets of its pool at the
full Table-1 or Table-2 size and checks each plan's digest and adds/entry
against ``perfbench/expected.json``, the fit error and the serialization
round trip.  A deploy run loads a freshly designed and serialized 16x256
plan, checks its exact error, bit-exact outputs of ``apply`` and engine
counters equal to ``cost_of``.  Any failed gate makes the exit code 1.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["table1", "table2", "deploy"])
def test_full_size_plans_pass_the_benchmark_gates(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("workload", ["table1", "table2", "deploy"])
def test_traced_run_records_every_layer(workload):
    # a traced run fails when a layer it wraps is no longer called, e.g.
    # when plan.reconstruct stops going through plan.reconstruct_exact
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--trace", "1", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "MISSING" not in proc.stdout
