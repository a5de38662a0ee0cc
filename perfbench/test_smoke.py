"""Smoke run of the benchmark's own code.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs shrunk to 2 SNR points and 2e4 trials (`--smoke`),
untraced and traced. The tests check that every metric BENCHMARK.json
names is printed with its unit, that every gate ran and passed, and that
traced counts repeat exactly. They assert nothing about timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import SMOKE_SNR_DB, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2024

SWEEP_GATES = {"child-exit", "csv-header", "csv-row-count", "row-present", "row-finite",
               "row-echo", "row-range", "row-halfwidth", "mc-gate", "row", "digest-stable"}
VERIFY_GATES = {"child-exit", "verify-check", "digest-stable"}
COUNTS = ("analytic.outage.calls", "analytic.secrecy.calls", "specfun.e1.elements",
          "specfun.gammainc.elements", "channel.sample.calls", "channel.sample.draws",
          "channel.sample.bytes", "montecarlo.simulate.calls", "montecarlo.trials",
          "noma_core.calls")


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def report(workload, trace):
    path = ROOT / ".perfbench" / f"{workload}-s{SEED}-t{trace}-smoke" / "result.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_and_every_gate_ran(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.split()[3] == m["unit"]
                   for line in lines), m["name"]

    spec = WORKLOADS[workload]
    gates = report(workload, trace)["gates"]
    expected = set(SWEEP_GATES if spec["command"] == "sweep" else VERIFY_GATES)
    if not trace:
        expected.add("metrics-present")
    elif spec["command"] == "sweep":
        expected.add("trace-sum")
    assert expected <= set(gates)
    assert all(gates[g]["checked"] > 0 for g in expected)

    rounds = 2 if trace else 1  # one untraced round, plus the traced one
    per_round = (6 * len(SMOKE_SNR_DB) if spec["command"] == "sweep"
                 else 8 * len(spec["cases"]))
    assert result["attempted"] == rounds * per_round


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = json.loads(bench(workload, 1).stdout.splitlines()[-1])["metrics"]
    second = json.loads(bench(workload, 1).stdout.splitlines()[-1])["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("sos-mc", 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
