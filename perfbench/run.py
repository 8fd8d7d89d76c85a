"""Benchmark entry point for pcmae: pretraining and linear-probe throughput,
plus per-layer timings from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain-tiny --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see ``bench.py``). Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans, the environment fingerprint and the result
are also written under ``.perfbench-out/``.

The program is imported from ``src/`` next to this directory. Without it the
script exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_blas_threads() -> int:
    """Run BLAS on one thread, so the process's CPU time is the work it did
    (spinning BLAS workers would add to it); must run before numpy loads.
    Returns the usable CPU count."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pcmae").is_dir():
        print(f"error: no pcmae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # loads numpy and pcmae, so only after pinning BLAS

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     nproc, ROOT)


if __name__ == "__main__":
    sys.exit(main())
