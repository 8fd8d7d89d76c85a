"""Benchmark ledger: alternating parent/change runs of ``perfbench/run.py``,
appended as one record to a ``BENCH_<workload>.json`` ledger.

Run from the repository root, with nothing else running:

    python3 tools/ledger.py --parent 3ed0843 --workload pretrain-paper \\
        --seeds 2101-2110 --seconds 25 --out BENCH_pretrain-paper.json \\
        --purpose "claim: peak_rss_mb lower in >= 9 of 10 pairs"

Both sides are exported with ``git archive`` (the change defaults to HEAD, so
commit what you want to measure) and each run is a fresh process in its
tree. Pair i runs seed i on both sides, the parent first in even pairs and
the change first in odd ones. The last JSON line of each run's standard
output is its result; a run that exits non-zero or prints none counts as
missing, and its exit code and last standard-error line are recorded.

The record holds per-run values, the median and quartiles per end-to-end
metric of ``BENCHMARK.json``, the pairs in which the change was better, the
seeds, the summed ``failed`` count, exit codes and the environment
fingerprint. ``--trace 1`` runs traced pairs instead and summarises the
``per_layer`` metrics the same way (they have no bound). ``--out`` appends
the record to the file's ``records`` list, creating the file if needed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# fingerprint fields that vary per run rather than per environment
RUN_FIELDS = ("commit", "loadavg_before", "loadavg_after")


def parse_seeds(text: str) -> list[int]:
    """"1-3,7" -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(stdout: str) -> tuple[dict | None, dict | None]:
    """The result (last JSON object line) and fingerprint (``env`` line) of
    one run's standard output; None where absent."""
    result = env = None
    for line in stdout.splitlines():
        if line.startswith("env {"):
            env = json.loads(line[4:])
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                pass
    if env is not None:
        env = {k: v for k, v in env.items() if k not in RUN_FIELDS}
    return result, env


def _sig(v: float) -> float:
    """``v`` to 10 significant digits: enough to compare losses that move
    by parts in 1e8, short enough to read."""
    return float(f"{v:.10g}")


def _stats(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "runs": []}
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": _sig(med), "q1": _sig(q1), "q3": _sig(q3),
            "runs": [_sig(v) for v in values]}


def summarize(pairs: list[dict], spec: list[dict], purpose: str) -> dict:
    """One round from ``pairs``: dicts with ``seed``, ``first`` ("parent" or
    "change"), and per side a ``result`` (or None) and an ``exit`` code.
    ``spec`` is ``BENCHMARK.json``'s ``end_to_end`` or ``per_layer`` list;
    a metric without a bound gets ``"bound": null``."""
    sides = ("parent", "change")
    round_ = {
        "purpose": purpose,
        "seeds": [p["seed"] for p in pairs],
        "pairs": len(pairs),
        "first_in_pair": [p["first"] for p in pairs],
        "failed_ops": sum(p[s]["result"]["failed"] for p in pairs for s in sides
                          if p[s]["result"] is not None),
        "exit_codes": {s: [p[s]["exit"] for p in pairs] for s in sides},
        "metrics": {},
    }
    errors = [{"seed": p["seed"], "side": s, "exit": p[s]["exit"], "stderr": p[s]["stderr"]}
              for p in pairs for s in sides if p[s]["result"] is None]
    if errors:
        round_["missing_runs"] = errors
    for m in spec:
        name = m["name"]
        values = {s: [p[s]["result"]["metrics"][name]["value"] if p[s]["result"] else None
                      for p in pairs] for s in sides}
        both = [(a, b) for a, b in zip(values["parent"], values["change"])
                if a is not None and b is not None]
        sign = 1.0 if m["better"] == "higher" else -1.0
        parent, change = (_stats([v for v in values[s] if v is not None]) for s in sides)
        entry = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                 "parent": parent, "change": change,
                 "change_better_pairs": sum(sign * (b - a) > 0 for a, b in both),
                 "tied_pairs": sum(a == b for a, b in both),
                 "median_change": None}
        if parent["median"] and change["median"] is not None:
            entry["median_change"] = round(change["median"] / parent["median"] - 1.0, 4)
        round_["metrics"][name] = entry
    return round_


def perfbench_args(workload: str, seed, seconds: float, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable] + perfbench_args(workload, seed, seconds, trace)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result, env = parse_run(proc.stdout)
    if proc.returncode != 0:
        result = None
    lines = proc.stderr.strip().splitlines()
    return {"result": result, "env": env, "exit": proc.returncode,
            "stderr": lines[-1] if lines else ""}


def export(ref: str, into: Path) -> str:
    """Write the tree of ``ref`` into ``into``; returns its full commit hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def dumps(obj, indent: int = 0) -> str:
    """JSON with one-space indents, and lists of numbers or short strings
    on one line."""
    pad = " " * indent
    if isinstance(obj, dict) and obj:
        items = [f"{pad} {json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) or
                                     (isinstance(v, str) and len(v) > 40) for v in obj):
        items = [f"{pad} {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(obj)


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the ledger at ``path``."""
    book = {"workload": record["workload"], "records": []}
    if path.exists():
        book = json.loads(path.read_text())
    if book.get("workload") != record["workload"] or "records" not in book:
        raise SystemExit(f"error: {path} is not a ledger of workload {record['workload']}")
    book["records"].append(record)
    path.write_text(dumps(book) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--change", default="HEAD", help="git ref of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help='e.g. "2101-2110" or "1,5,9"')
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs, summarised over the per_layer metrics")
    ap.add_argument("--out", type=Path, required=True, help="ledger file to append to")
    ap.add_argument("--purpose", default="alternating parent/change pairs")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        trees = {s: Path(tmp) / s for s in ("parent", "change")}
        shas = {s: export(getattr(args, s), trees[s]) for s in trees}
        pairs, env = [], None
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds,
                                      args.trace)
                env = env or pair[side]["env"]
                print(f"seed {seed} {side}: exit {pair[side]['exit']}", file=sys.stderr)
            pairs.append(pair)
    record = {
        "workload": args.workload,
        "command": " ".join(["python3"] + perfbench_args(args.workload, "<seed>",
                                                          args.seconds, args.trace)),
        "parent": shas["parent"],
        "change": shas["change"],
        "how": "tools/ledger.py: alternating parent/change pairs, one fresh process per "
               "run, each tree an export of its commit",
        "fingerprint": env,
        "notes": args.note,
        "rounds": [summarize(pairs, spec, args.purpose)],
    }
    append_record(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
