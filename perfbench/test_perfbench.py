"""Tests of the benchmark itself, at tiny run lengths.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from worker import Loop  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 5, seconds: float = 0.2) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record)["perfbench"], json.loads(result)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    mapped = [name for group in SPEC["layer_map"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER_UNITS)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for group in SPEC["layer_map"]:
        for metric, workload in group["moves"] + group["flat"]:
            assert metric in end_to_end and workload in workloads.WORKLOADS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_and_no_failures(workload):
    untraced_record, untraced = run_bench(workload, 0)
    traced_record, traced = run_bench(workload, 1)
    for result, declared in ((untraced, BENCHMARK["end_to_end"]), (traced, BENCHMARK["per_layer"])):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared}
    for metric in BENCHMARK["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0
    assert untraced_record["failed_fraction"] == 0.0
    # Same seed, separate processes, traced or not: same outputs.
    assert untraced_record["digest_round0"] == traced_record["digest_round0"]
    if workload == "ladder":
        assert traced["metrics"]["piercing.pierce_disks.calls"]["value"] == 0


def test_a_wrong_output_counts_as_failed():
    doc = {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]}

    def perturbed() -> str:
        rep = json.loads(workloads.match_pipeline(json.dumps(doc)))
        rep["matching"]["cost"] += 1e-3
        return json.dumps(rep)

    item = workloads.Item("match-random", perturbed, 1, {"kind": "random", "doc": doc})
    loop = Loop(workloads.WORKLOADS["match"], seed=0)
    loop.run_round(0, [item])
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "differs from the optimum" in loop.problems[0]


def test_gate_rejects_violations_and_silent_controls():
    campaign = workloads.campaign_round(0, 0, trials=1)[0]
    out = campaign.call()
    assert workloads.check_campaign(campaign, out) == []
    assert workloads.check_campaign(campaign, dict(out, total_violations=1))
    control = next(i for i in workloads.ladder_round(0, 0) if i.label == "control-lemma1")
    report = control.call()
    assert workloads.check_ladder(control, report) == []
    report.violations = 0
    assert workloads.check_ladder(control, report)
