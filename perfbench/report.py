"""Run every workload untraced and traced, and print all metrics by name.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload: every end-to-end metric with its unit, the failure
rate, the per-task rows and the environment from the untraced run; every
per-layer metric from the traced run; and the tracing overhead, traced
`wall_s` minus untraced `wall_s`.  Exits 1 if any run fails or reports
an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report: {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DECLARED["run_seconds"])
    args = parser.parse_args()
    ok = True
    for w in DECLARED["workloads"]:
        name = w["name"]
        info, plain = _run(name, args.seed, args.seconds, 0)
        _, traced = _run(name, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {name} (seed {args.seed}, corpus seed {info['corpus_seed']}): {w['why']}")
        print(f"   {info['latency_samples']} tasks in {info['passes']} pass(es), "
              f"{plain['failed']} failed")
        for m, v in plain["metrics"].items():
            print(f"   {m:44s} {v['value']:>16.4f} {v['unit']}")
        print(f"   {'fail_rate':44s} {info['fail_rate']:>16.4f} failed/attempted")
        for label, seconds in info.get("per_task_s", {}).items():
            print(f"   {label:44s} {seconds:>16.4f} s")
        for failure in info["failures"]:
            print(f"   FAIL {failure}")
        print("   per layer (traced run):")
        for m, v in traced["metrics"].items():
            print(f"   {m:44s} {v['value']:>16.4f} {v['unit']}")
        plain_wall = plain["metrics"]["wall_s"]["value"]
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain_wall
        print(f"   {'tracing overhead':44s} {overhead:>16.4f} s "
              f"({100 * overhead / plain_wall:+.1f}% of untraced wall_s)")
        print(f"   environment: {json.dumps(info['environment'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
