"""Smoke test of the benchmark itself at tiny size (a few seconds).

    python3 -m pytest perfbench/test_smoke.py -q

Run from the repository root. Checks that every metric BENCHMARK.json names
is printed with its unit, that a corrupted golden digest is counted as a
failed op, and that the benchmark refuses to run without a source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_workload(seed: int = 3) -> run.Workload:
    ops = (
        run.study_op(["normal:0:1", "nig:0.4:0.14:0:1"], ["iid"], 100, seed, oracle_k=4000),
        run.coherence_op("es1", 0.2, 10, seed, trials=5),
        run.extract_op("es1", n=100),
        run.extract_op("es4", n=100),
        run.consistency_op(seed, sizes=(100, 10_000), reps=5),
    )
    return run.Workload(ops, run.replications(ops), "replications")


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(trace):
    workload = tiny_workload()
    result = run.measure(workload, ROOT, 0.0, trace, {})
    line = json.loads(json.dumps(run.result_line(result, trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, result["problems"]
    assert line["attempted"] == run.MIN_CHILDREN * len(workload.ops)
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m: v["unit"] for m, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    text = "\n".join(run.summary_lines("tiny", 3, workload, result))
    assert "replications_per_s" in text and "fail_frac" in text


def test_corrupted_golden_digest_drives_fail_frac_above_zero():
    workload = tiny_workload()
    report = run.run_child(ROOT, workload.ops, False)
    golden = {}
    for op, out in zip(workload.ops, report["results"]):
        got, problem = run.check_op(op, out, {}, {})
        assert problem is None, problem
        golden[op.key()] = {"digest": got}

    clean = run.measure(workload, ROOT, 0.0, False, golden)
    assert clean["failed"] == 0, clean["problems"]

    corrupted_key = workload.ops[2].key()
    golden[corrupted_key] = {"digest": "0" * 64}
    bad = run.measure(workload, ROOT, 0.0, False, golden)
    assert bad["failed"] / bad["attempted"] > 0.0
    assert bad["failed"] == run.MIN_CHILDREN
    assert all("golden" in p for p in bad["problems"])


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "axioms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
