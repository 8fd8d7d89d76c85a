"""tools/ledger.py's parsing and aggregation, on canned perfbench output (no
benchmark runs)."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ledger.py"
_spec = importlib.util.spec_from_file_location("ledger", _PATH)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

SPEC = [{"name": "step_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "probe_accuracy", "unit": "ratio", "better": "higher", "bound": 0.15}]
ENV = {"nproc": 2, "numpy": "2.4.6", "commit": "unknown",
       "loadavg_before": [0.1, 0.2, 0.3], "loadavg_after": [0.4, 0.5, 0.6]}


def stdout(step_ms, accuracy, failed=0):
    result = {"correct": failed == 0, "attempted": 6, "failed": failed,
              "metrics": {"step_ms.p50": {"value": step_ms, "unit": "ms"},
                          "probe_accuracy": {"value": accuracy, "unit": "ratio"}}}
    return "\n".join(["workload pretrain-paper, seed 1, untraced",
                      "env " + json.dumps(ENV),
                      f"  step_ms.p50 {step_ms} ms",
                      json.dumps(result)]) + "\n"


def side(text, code=0, stderr=""):
    result, _ = ledger.parse_run(text)
    return {"result": result if code == 0 else None, "exit": code, "stderr": stderr}


def test_parse_run_takes_the_last_json_line_and_a_stable_fingerprint():
    text = stdout(1500.0, 1.0) + '{"not": "the last"' + "\n"
    result, env = ledger.parse_run(text)
    assert result["metrics"]["step_ms.p50"]["value"] == 1500.0
    assert env == {"nproc": 2, "numpy": "2.4.6"}
    assert ledger.parse_run("Traceback (most recent call last):\n") == (None, None)


def test_parse_seeds():
    assert ledger.parse_seeds("5-7,9,11-11") == [5, 6, 7, 9, 11]


def test_summarize_medians_quartiles_and_pairs():
    pairs = [
        {"seed": 1, "first": "parent", "parent": side(stdout(100.0, 1.0)),
         "change": side(stdout(90.0, 1.0))},
        {"seed": 2, "first": "change", "parent": side(stdout(200.0, 0.9)),
         "change": side(stdout(210.0, 0.95, failed=1))},
        {"seed": 3, "first": "parent", "parent": side(stdout(300.0, 1.0)),
         "change": side(stdout(250.0, 1.0))},
        {"seed": 4, "first": "change", "parent": side(stdout(400.0, 1.0)),
         "change": side("", code=1, stderr="RuntimeError: no successful probe")},
    ]
    r = ledger.summarize(pairs, SPEC, "test")
    assert r["seeds"] == [1, 2, 3, 4] and r["pairs"] == 4
    assert r["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert r["failed_ops"] == 1
    assert r["exit_codes"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 0, 1]}
    assert r["missing_runs"] == [{"seed": 4, "side": "change", "exit": 1,
                                  "stderr": "RuntimeError: no successful probe"}]
    step = r["metrics"]["step_ms.p50"]
    assert step["parent"] == {"median": 250.0, "q1": 175.0, "q3": 325.0,
                              "runs": [100.0, 200.0, 300.0, 400.0]}
    assert step["change"] == {"median": 210.0, "q1": 150.0, "q3": 230.0,
                              "runs": [90.0, 210.0, 250.0]}
    assert step["change_better_pairs"] == 2 and step["tied_pairs"] == 0
    assert step["median_change"] == pytest.approx(-0.16)
    acc = r["metrics"]["probe_accuracy"]
    assert acc["change_better_pairs"] == 1 and acc["tied_pairs"] == 2
    assert (acc["unit"], acc["better"], acc["bound"]) == ("ratio", "higher", 0.15)


def test_append_record(tmp_path):
    path = tmp_path / "BENCH_x.json"
    first = {"workload": "x", "parent": "a", "rounds": [{"seeds": [1, 2]}]}
    second = {"workload": "x", "parent": "b", "rounds": []}
    ledger.append_record(path, first)
    ledger.append_record(path, second)
    assert json.loads(path.read_text()) == {"workload": "x", "records": [first, second]}
    with pytest.raises(SystemExit):
        ledger.append_record(path, {"workload": "y", "rounds": []})
    path.write_text(json.dumps(first))       # a bare record is not a ledger
    with pytest.raises(SystemExit):
        ledger.append_record(path, second)


PER_LAYER = [{"name": "kernels.knn.ms", "unit": "ms", "better": "lower"},
             {"name": "tokenizer.gate.share", "unit": "ratio", "better": "lower"}]


def traced_stdout(knn_ms, gate_share):
    result = {"correct": True, "attempted": 12, "failed": 0,
              "metrics": {"kernels.knn.ms": {"value": knn_ms, "unit": "ms"},
                          "tokenizer.gate.share": {"value": gate_share, "unit": "ratio"}}}
    return "\n".join(["workload pretrain-paper, seed 1, traced",
                      "env " + json.dumps(ENV),
                      "3 main operation(s) per pass; spans in trace-x.json",
                      f"  kernels.knn.ms {knn_ms} ms",
                      json.dumps(result)]) + "\n"


def test_traced_pairs_summarise_per_layer_metrics_without_a_bound():
    pairs = [
        {"seed": 1, "first": "parent", "parent": side(traced_stdout(12.0, 0.20)),
         "change": side(traced_stdout(8.0, 0.22))},
        {"seed": 2, "first": "change", "parent": side(traced_stdout(14.0, 0.20)),
         "change": side(traced_stdout(7.0, 0.18))},
    ]
    r = ledger.summarize(pairs, PER_LAYER, "traced")
    knn = r["metrics"]["kernels.knn.ms"]
    assert knn["bound"] is None and knn["unit"] == "ms"
    assert knn["parent"]["median"] == 13.0 and knn["change"]["median"] == 7.5
    assert knn["change_better_pairs"] == 2
    assert knn["median_change"] == pytest.approx(7.5 / 13.0 - 1.0, abs=1e-4)
    gate = r["metrics"]["tokenizer.gate.share"]
    assert gate["change_better_pairs"] == 1 and gate["tied_pairs"] == 0
    assert r["failed_ops"] == 0 and r["exit_codes"]["change"] == [0, 0]


def test_perfbench_args_pass_the_trace_flag():
    assert ledger.perfbench_args("pretrain-paper", 7, 25.0, 1) == [
        "perfbench/run.py", "--workload", "pretrain-paper", "--seed", "7",
        "--seconds", "25", "--trace", "1"]
