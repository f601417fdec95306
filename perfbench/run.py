"""adaptok benchmark: closed-loop workloads with output checks.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from any directory; the program under test is the ``src/adaptok`` of
the checkout this file sits in.  Each workload runs in its own worker
process with BLAS threads pinned in its environment, and set-up time is
measured in further fresh interpreters.  Prints a report per workload,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, SETUP_RUNS, WORKLOADS, get_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "_out"

# Every invocation must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0

# BLAS threads of each worker: the host's CPUs, at most this many.
MAX_BLAS_THREADS = 2


class BenchError(Exception):
    """A worker failed or timed out; no result is printed."""


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    threads = str(blas_threads())
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {' '.join(args)}")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool, deadline: float):
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = run_worker(["loop", *common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        # after the loop worker, so every interpreter imports from warm caches
        runs = 2 if tiny else SETUP_RUNS
        setups = [run_worker(["setup", *common], deadline) for _ in range(runs)]
        out["attempted"] += len(setups)
        for s in setups:
            for category, count in s["failures"].items():
                out["failures"][category] = out["failures"].get(category, 0) + count
                out["failed"] += count
        out["metrics"]["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s",
            "n": len(setups),
            "note": "import {:.3f} s + first request {:.3f} s (medians)".format(
                statistics.median(s["import_s"] for s in setups),
                statistics.median(s["first_request_s"] for s in setups),
            ),
        }
    return out


def report(name: str, wl, seed: int, seconds: float, trace: int, out: dict, names) -> None:
    print(
        f"== {name}  seed={seed}  seconds={seconds:g}  trace={trace}  "
        f"({wl.n_tokens}x{wl.dim}, T={wl.budget}, {wl.method}, "
        f"{'PTM1/PSV1 files' if wl.files else 'in-memory'}, "
        f"{out['inputs']} inputs per pass, {out['passes']} passes, one closed-loop caller)"
    )
    print("host: " + " | ".join(f"{k} {v}" for k, v in out["host"].items()))
    print("mix (inputs of one pass): " + " ".join(f"{k}={v}" for k, v in out["mix"].items()))
    for metric, unit in names:
        m = out["metrics"].get(metric)
        if m is None:
            print(f"  {metric:<30} missing")
            continue
        note = f"  {m['note']}" if m.get("note") else ""
        print(f"  {metric:<30} {m['value']:>14.6g} {unit:<9} n={m['n']}{note}")
    fail_frac = out["failed"] / out["attempted"]
    print(f"  {'fail_frac':<30} {fail_frac:>14.6g} {'fraction':<9} n={out['attempted']}"
          f"  {json.dumps(out['failures'], sort_keys=True)}")
    if out.get("missing_spans"):
        print("  trace: call sites not found: " + ", ".join(out["missing_spans"]))
    print(f"  picks_sha256 {out['picks_sha256']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small shapes, for the self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "adaptok" / "__init__.py").is_file():
        print(f"error: no adaptok sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = PER_LAYER if args.trace else END_TO_END
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in workloads:
            deadline = time.monotonic() + DEADLINE_S
            out = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, deadline)
            report(name, get_workload(name, args.tiny), args.seed, args.seconds, args.trace,
                   out, names)
            results[name] = out
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    for name, out in results.items():
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    def key(wl_name, metric):
        return metric if len(results) == 1 else f"{wl_name}/{metric}"

    metrics = {
        key(wl_name, metric): {"value": out["metrics"][metric]["value"], "unit": unit}
        for wl_name, out in results.items()
        for metric, unit in names
        if metric in out["metrics"]
    }
    attempted = sum(out["attempted"] for out in results.values())
    failed = sum(out["failed"] for out in results.values())
    complete = len(metrics) == len(names) * len(results)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
