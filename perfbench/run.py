"""Benchmark entry point.

    python3 perfbench/run.py --workload tabular-20k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Starts one worker process (``bench.py``)
with BLAS and OpenMP pinned to one thread and ``src`` on its path, waits
for it, and prints its result as the last line of standard output.  Set-up
time is counted from the moment before the worker is started.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("tabular-20k", "sequence-train", "cli-pipeline")
TIMEOUT_S = 165
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# one thread: a second BLAS thread made logreg slower and transformer
# training burn more CPU on two-core machines, and it adds scheduling noise.
# No transparent huge pages for numpy's large arrays: where the kernel
# grants them on request, whether an array lands on 2 MiB pages depends on
# its address, and peak RSS of the same run moved by about 6 MiB with it.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
          "NUMPY_MADVISE_HUGEPAGE": "0"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "admitsim", "__init__.py")):
        print(f"error: no admitsim package under {src}", file=sys.stderr)
        return 2
    runs = os.path.join(ROOT, ".bench_runs")
    run_dir = os.path.join(runs, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    trace_file = os.path.join(runs, f"trace-{args.workload}-{args.seed}.jsonl")
    env = dict(os.environ, PYTHONPATH=src, **PINNED)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--trace-file", trace_file]
    try:
        launched = time.time()
        proc = subprocess.Popen(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: worker ran past {TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.decode().splitlines()
    if lines:
        print(lines[-1], flush=True)
    return proc.returncode or (0 if lines else 1)


if __name__ == "__main__":
    sys.exit(main())
