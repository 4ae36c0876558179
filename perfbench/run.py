"""Run one s1sup benchmark workload and print its metrics.

    python3 perfbench/run.py --workload complement-law --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` and the oracles from `tests/oracles.py`.  One
run sets up several times (`setup_s` is the median), then makes whole
timed passes over the workload's inputs until `--seconds` would be
exceeded (at least one), then checks the first pass against the oracles
and every later pass, and earlier runs of the same seed and code, for
identical outputs.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` the passes run under the tracer of spans.py and the last line
holds the per-layer metrics.  The line before it (`"info"`) records the
corpus, sample counts, failures, per-task rows and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
STATE = BENCH / ".state"
SETUP_REPEATS = 5


def _load_package():
    """Import s1sup from this checkout, or stop with exit 1."""
    for needed in (SRC / "s1sup" / "__init__.py", TESTS / "oracles.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            sys.exit(f"perfbench: {needed} not found; run inside a repository checkout")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import s1sup

    if Path(s1sup.__file__).resolve().parent != SRC / "s1sup":
        sys.exit(f"perfbench: imported s1sup from {s1sup.__file__}, not from {SRC}")


def _setup(workload, seed: int, workdir: Path) -> float:
    """One set-up: a fresh interpreter importing the package, then the
    seeded inputs, their files and the warm-up in this process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import s1sup.cli"], env=env, check=True)
    workload.prepare(seed, workdir)
    return time.perf_counter() - start


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _compare_with_earlier(key: str, digests: list[str]) -> tuple[int, set[int]]:
    """Tasks whose output differs from the first recorded run of the same
    workload, seed and code.  Returns (earlier runs, differing task indices)."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    entry = known.setdefault(key, {"runs": 0, "tasks": digests})
    before = entry["tasks"]
    differing = {i for i, d in enumerate(digests) if i >= len(before) or before[i] != d}
    if len(before) > len(digests):
        differing.add(len(digests) - 1)
    entry["runs"] += 1
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)
    return entry["runs"] - 1, differing


def _environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(argv=None) -> int:
    args = _parse_args(argv)
    # set before numpy loads: one OpenBLAS thread (see README.md)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _load_package()
    import workloads
    from spans import Tracer, summarize

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.WORKLOADS[args.workload]()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [_setup(workload, args.seed, workdir)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        tracer = Tracer() if args.trace else None
        passes = []  # (records, latencies)
        started = time.perf_counter()
        while not passes or (time.perf_counter() - started
                             + statistics.median(sum(lat) for _, lat in passes)) <= args.seconds:
            clock = workloads.Clock(tracer)
            if tracer is not None:
                tracer.install()
            try:
                records = workload.run_pass(clock)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            passes.append((records, clock.latencies))

        first = passes[0][0]
        failures = {(0, i): msg for i, msg in workload.check(first).items()}
        digests = [_digest(workload.describe(r)) for r in first]
        for p, (records, _) in enumerate(passes[1:], start=1):
            for i, rec in enumerate(records):
                if i >= len(digests) or _digest(workload.describe(rec)) != digests[i]:
                    failures.setdefault((p, i), "output differs from the first pass")
        key = f"{args.workload}|{args.seed}|{_code_digest()}"
        earlier_runs, differing = _compare_with_earlier(key, digests)
        for i in differing:
            failures.setdefault((0, i), "output differs from an earlier run of this seed")
        out_states = workload.out_states(first)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            STATE.mkdir(exist_ok=True)
            tracer.write(STATE / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [sum(lat) for _, lat in passes]
    latencies = [t for _, lat in passes for t in lat]
    attempted = len(latencies)
    if args.trace:
        metrics = summarize(tracer.spans, len(passes))
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.spans"] = len(tracer.spans) / len(passes)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "task_p50_ms": _nearest_rank(latencies, 0.50) * 1000,
            "task_p95_ms": _nearest_rank(latencies, 0.95) * 1000,
            "out_states": out_states,
            "peak_rss_mb": peak_rss_mb,
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": workloads.CORPUS_SEED,
        "inputs": workload.inputs,
        "trace": args.trace,
        "passes": len(passes),
        "tasks_per_pass": [len(lat) for _, lat in passes],
        "latency_samples": attempted,
        "setup_runs": [round(s, 4) for s in setups],
        "pass_walls_s": [round(w, 4) for w in walls],
        "fail_rate": len(failures) / attempted,
        "failures": [f"pass {p} task {i}: {m}" for (p, i), m in sorted(failures.items())][:20],
        "earlier_runs_compared": earlier_runs,
        "output_digest": _digest("".join(digests)),
        "out_states": out_states,
        "environment": _environment(),
    }
    if workload.labels:
        info["per_task_s"] = {
            label: statistics.median(lat[i] for _, lat in passes)
            for i, label in enumerate(workload.labels)
        }
    print(json.dumps({"info": info}))
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.exit(f"perfbench: metrics declared in BENCHMARK.json but not measured: {missing}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run())
