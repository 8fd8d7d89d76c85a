"""Smoke test of the benchmark itself: every workload at a minimal length,
traced and untraced, must emit every metric BENCHMARK.json names, with its
unit and a positive value, and pass its correctness gates.

Run from the repository root (takes a few minutes, mostly pretrain-paper):

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from tracer import Span, Tracer, covered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and m["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = Tracer(time.perf_counter)
    tracer.spans = [Span(0, "root", 0.0, 10.0, None, "a"),
                    Span(1, "child", 1.0, 4.0, 0, "a"),
                    Span(2, "grandchild", 2.0, 3.0, 1, "a"),
                    Span(3, "child", 5.0, 6.0, 0, "a")]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert covered([Span(0, "x", 0.0, 2.0, None, ""), Span(1, "x", 1.0, 3.0, None, "")]) == 3.0


def test_wrap_records_nested_spans_and_restores():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.outer
    tracer = Tracer(time.perf_counter)
    tracer.wrap(ns, "inner", "inner", count=lambda args, kwargs, out: args[0])
    tracer.wrap(ns, "outer", "outer")
    tracer.run_id = "op-0"
    assert ns.outer(3) == 8
    tracer.close()
    assert ns.outer is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert inner.parent == outer.id and outer.parent is None
    assert inner.count == 3 and inner.run == "op-0"
