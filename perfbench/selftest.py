"""Self-test of the benchmark; run from the root of a checkout (a few minutes).

    python3 perfbench/selftest.py

For every workload, at two seeds, with tracing off and on, it checks that
the run exits 0, reports ``correct`` with no failed operation, and prints
exactly the metric names of BENCHMARK.json.  It also checks that the
benchmark exits non-zero without a result line when the package sources
are absent (a directory holding only BENCHMARK.json and perfbench/).
Restoration of every patched attribute is checked inside each traced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = (5, 6)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                what = f"{wl} seed {seed} trace {trace}"
                proc = run(ROOT, "--workload", wl, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
                if proc.returncode != 0:
                    problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{what}: correct={result['correct']} failed={result['failed']}")
                if set(result["metrics"]) != names[trace]:
                    problems.append(f"{what}: metric names differ from BENCHMARK.json")
                print(f"ok  {what}: attempted {result['attempted']}, failed {result['failed']}", flush=True)

    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "flows", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("without src/ the benchmark did not fail, or printed a result")
    else:
        print(f"ok  without src/: exit {proc.returncode}, no result")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
