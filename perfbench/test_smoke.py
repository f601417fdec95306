"""Self-test of the benchmark at tiny shapes: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--tiny", "--seconds", "0.3", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def run_ok(*args):
    proc, lines = run_bench(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def picks(lines):
    """picks_sha256 of each workload report, in report order."""
    return [line.split()[-1] for line in lines if line.strip().startswith("picks_sha256")]


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run_ok("--workload", "clip-files", "--trace", str(trace))
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
        for name in expected:
            assert any(line.split()[:1] == [name] for line in lines), name


def test_picks_sha256_follows_the_seed():
    first, _ = run_ok("--trace", "1", "--seed", "7")
    again, _ = run_ok("--trace", "1", "--seed", "7")
    other, _ = run_ok("--trace", "1", "--seed", "8")
    assert len(picks(first)) == 3
    assert picks(first) == picks(again)
    assert all(a != b for a, b in zip(picks(first), picks(other)))


def test_fails_without_the_program():
    bare = BENCH / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    skip = shutil.ignore_patterns("_out", "__pycache__")
    shutil.copytree(BENCH, bare / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, lines = run_bench(root=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
