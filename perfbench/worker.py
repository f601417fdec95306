"""Worker process of the adaptok benchmark: one workload, one mode.

    python3 perfbench/worker.py setup --workload NAME --seed N [--tiny]
    python3 perfbench/worker.py loop --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

``run.py`` starts it with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count set in its environment.  It prints one JSON line.
``setup`` times ``import adaptok`` plus the first request in this fresh
interpreter; ``loop`` runs the closed loop and checks every output.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from workloads import get_workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "_out"


def _import_adaptok() -> float:
    start = time.perf_counter()
    import adaptok

    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if not Path(adaptok.__file__).resolve().is_relative_to(src):
        sys.exit(f"adaptok was imported from {adaptok.__file__}, not from {src}")
    return elapsed


def run_setup(wl, seed: int, workdir: str, import_s: float) -> dict:
    import harness
    from adaptok import CompressConfig

    config = CompressConfig(total_budget=wl.budget, diversity_method=wl.method)
    inputs = harness.Inputs(wl, seed, workdir, count=1)
    request = harness.make_request(inputs, config)
    start = time.perf_counter()
    result = request(0, 0)
    first_s = time.perf_counter() - start
    failures, _ = harness.check_records(inputs, config, [(0, 0, first_s, result, None)])
    return {
        "import_s": import_s,
        "first_request_s": first_s,
        "setup_s": import_s + first_s,
        "failures": failures,
    }


def run_loop(wl, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import harness
    from adaptok import CompressConfig
    from tracing import Tracer

    config = CompressConfig(total_budget=wl.budget, diversity_method=wl.method)
    inputs = harness.Inputs(wl, seed, workdir, count=len(wl.k_cycle))
    n_items = len(inputs)
    # one untimed pass fills caches and finishes lazy set-up before timing
    harness.closed_loop(harness.make_request(inputs, config), n_items, 0.0, first_id=-n_items)

    out = {"host": harness.host_fingerprint(), "inputs": n_items}
    if not trace:
        records, totals = harness.closed_loop(
            harness.make_request(inputs, config), n_items, seconds
        )
        out["metrics"] = harness.end_to_end_metrics(wl, records, totals)
    else:
        # first half: only the calls the benchmark makes are spans; second
        # half: the module-boundary calls inside compress too
        plain, traced = Tracer(), Tracer()
        plain_records, totals = harness.closed_loop(
            harness.make_request(inputs, config, plain), n_items, seconds / 2, plain
        )
        with traced.interpose() as missing:
            records, traced_totals = harness.closed_loop(
                harness.make_request(inputs, config, traced), n_items, seconds / 2, traced,
                first_id=len(plain_records),
            )
        records = plain_records + records
        totals["passes"] += traced_totals["passes"]
        out["missing_spans"] = missing
        peaks = harness.alloc_peaks_mb(inputs, config)
    failures, first = harness.check_records(inputs, config, records)
    if trace:
        traced_records = records[len(plain_records):]
        out["metrics"] = harness.per_layer_metrics(
            wl, inputs, traced_records, traced, plain, first, peaks
        )
        OUT_DIR.mkdir(exist_ok=True)
        traced.write_jsonl(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    out.update(
        attempted=len(records),
        failed=sum(failures.values()),
        failures=failures,
        passes=totals["passes"],
        picks_sha256=harness.picks_sha256(first),
        mix=harness.split_mix(wl, first),
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "loop"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    import_s = _import_adaptok()
    wl = get_workload(args.workload, args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT_DIR)
    try:
        if args.mode == "setup":
            out = run_setup(wl, args.seed, workdir, import_s)
        else:
            out = run_loop(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
