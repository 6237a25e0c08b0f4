"""Smoke test of the benchmark at tiny job sizes.

Runs every workload once untraced and once traced and checks that each
metric named in BENCHMARK.json (and ``job_fail_frac``) is printed with its
unit, that the last line has the result format, that the untraced run loaded
no wrapper, and that the traced jobs produced the same output bytes as the
untraced ones.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), record


def printed(lines):
    """{name: unit} of the 'name value unit' lines."""
    out = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_and_traced_outputs_identical(workload):
    lines, result, plain = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    shown = printed(lines)
    for metric in BENCH["end_to_end"]:
        assert shown[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert shown["job_fail_frac"] == "fraction"
    assert not plain["wrappers_loaded"]

    lines, result, traced = run(workload, 1)
    shown = printed(lines)
    for metric in BENCH["per_layer"]:
        assert shown[metric["name"]] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert traced["wrappers_loaded"]
    assert traced["traced_digests"] == plain["digests"]
    assert all(traced["traced_digests"].values())
