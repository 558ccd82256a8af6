"""Smoke test of the benchmark at reduced size.

    python3 -m pytest benchmarks

Every workload runs once untraced and once traced with small inputs; each
must print every metric BENCHMARK.json names, with its unit, and pass its
checks. A wrong fixture value must make the run fail its checks.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_fawkit()

import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(workloads, "SIM_ROUNDS", 1 << 16)
    monkeypatch.setattr(workloads, "PROBE_ROUNDS", 1 << 16)
    monkeypatch.setattr(workloads, "SIM_REPS", 1)
    monkeypatch.setattr(workloads, "WIDE_POOLS", 3)
    monkeypatch.setattr(workloads, "SWEEP_ALPHA2", "0.05:0.45:0.1")
    monkeypatch.setattr(workloads, "SWEEP_C", "0.2:1.0:0.4")


def result_of(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_emitted_with_unit(small, capsys, workload, trace):
    result = result_of(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_wrong_reference_value_counts_as_failure(small, capsys, monkeypatch):
    real = workloads.cli.load_fixture

    def skewed(name):
        fx = real(name)
        if name == "table1":
            fx["expected_rer_pct"][0][0] += 1.0
        return fx

    monkeypatch.setattr(workloads.cli, "load_fixture", skewed)
    result = result_of(capsys, "closed-form", 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
