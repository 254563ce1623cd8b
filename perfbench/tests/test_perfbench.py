"""Tests of the benchmark itself: parity with the pinned insert-burst
line, transparent tracing and host probes, a check that can fail, and
the sharded trace-level defect the benchmark works around.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import drive  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from repro.perf import run_insert_burst  # noqa: E402
from repro.shard.cluster import ShardedCluster  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "INSERT_BURST_OPS": 2_000,
    "LOSSY_REPAIR_TREES": 2,
    "LOSSY_REPAIR_OPS": 400,
    "READ_PRELOAD": 2_000,
    "READ_SEARCHES": 1_600,
    "READ_INSERTS": 200,
    "READ_SCANS": 100,
    "READ_DELETES": 100,
    "SHARD_WAVES": 24,
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(inputs, name, value)
    monkeypatch.setitem(drive.CONFIGS["sharded_growth"], "shard_split_threshold", 256)


def test_insert_burst_matches_pinned_line():
    # Same size and seed as the benchmark round: 267,706 events and
    # 98,277 messages at 20k ops, seed 0.
    seed = 0
    pinned = run_insert_burst(inputs.INSERT_BURST_OPS, seed=seed)
    round_ = drive.run_round("insert_burst", inputs.insert_burst(seed), seed)
    assert not round_.problems
    assert round_.completed == pinned["ops_completed"] == inputs.INSERT_BURST_OPS
    assert round_.virtual["events"] == pinned["events_executed"] == 267_706
    sent = round_.virtual["sim.network.logical_per_op"] * round_.completed
    assert round(sent) == pinned["messages_sent"] == 98_277


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("workload", inputs.GENERATORS)
def test_tracing_is_transparent(small, workload, seed):
    data = inputs.GENERATORS[workload](seed)
    plain = drive.run_round(workload, data, seed)
    with Tracer() as tracer:
        traced = drive.run_round(workload, data, seed, tracer.clear)
    assert not plain.problems and not traced.problems
    assert plain.completed == plain.attempted
    assert traced.virtual == plain.virtual
    summary = tracer.summary()
    assert summary["core.handle"]["calls"] > 0
    assert all(group["self_s"] >= 0 for group in summary.values())


@pytest.mark.parametrize("workload", inputs.GENERATORS)
def test_host_probes_do_not_perturb_the_schedule(small, monkeypatch, workload):
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.01)
    seed = 3
    data = inputs.GENERATORS[workload](seed)
    plain = drive.run_round(workload, data, seed)
    sampler = run._Sampler()
    sampled = drive.run_round(workload, data, seed, pause=sampler)
    assert len(sampler.probes) > 1
    assert not sampled.problems
    assert sampled.virtual == plain.virtual


def test_tracer_restores_the_classes():
    from repro.core.dbtree import DBTreeEngine

    original = DBTreeEngine.handle
    with Tracer():
        assert DBTreeEngine.handle is not original
    assert DBTreeEngine.handle is original


def test_check_flags_a_wrong_answer(small):
    seed = 1
    data = inputs.read_mostly(seed)
    index = next(i for i, op in enumerate(data.ops) if op[0] == "search")
    expected = list(data.expected)
    expected[index] = "not the stored value"
    wrong = inputs.Inputs(
        data.preload, data.ops, tuple(expected), {**data.final, -1: -1}
    )
    problems = drive.run_round("read_mostly", wrong, seed).problems
    assert any(f"op {index} search" in p for p in problems)
    assert any("final contents differ: 1 missing [-1]" in p for p in problems)


def test_sharded_trace_level_off_reports_applied_ops_incomplete():
    # Known defect, pinned on the benchmark's forest configuration:
    # below trace_level="ops", ShardedCluster.run() settles results
    # from trace.operations, which is empty, so every op reads as
    # incomplete although every insert was applied.  sharded_growth
    # therefore runs at "ops".  When the defect is fixed this test
    # fails and the workload can move to trace_level="off".
    config = {**drive.TREE, **drive.CONFIGS["sharded_growth"], "trace_level": "off"}
    forest = ShardedCluster(seed=0, **config)
    for key in range(50):
        forest.insert(key, key, client=key % 4)
    results = forest.run()
    assert len(results.incomplete) == 50 and not results.completed
    contents = {}
    for shard in forest.directory.live_shards():
        contents.update(forest.shard_contents(shard.shard_id))
    assert contents == {key: key for key in range(50)}


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "insert_burst",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharded_growth",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if section == "end_to_end":
            assert result["metrics"][metric["name"]]["value"] > 0


def test_host_probe_runs_none_of_the_program():
    # The probe normalizes wall times; if it ran program code, a
    # change to the program would move the probe and cancel out.
    code = ("import sys, calibrate; calibrate.probe(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
