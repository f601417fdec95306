import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "BENCH_skylakex-2cpu.json"


def _tool():
    """tools/bench_compare.py, loaded by path as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "tools" / "bench_compare.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_committed_file_against_itself_is_all_ones(capsys):
    tool = _tool()
    rows = tool.compare(*(json.loads(COMMITTED.read_text()),) * 2)
    # every (grid entry, selector) of the file, each with total and its phases
    assert {row["config"][3] for row in rows} == {"dpp", "fps", "facility_location"}
    assert len({row["config"] for row in rows}) == 6
    assert all(row["ratio"] == row["controlled"] == 1.0 for row in rows)
    assert {row["verdict"] for row in rows} == {"unresolved"}
    assert tool.main([str(COMMITTED), str(COMMITTED)]) == 0
    assert capsys.readouterr().out.count("\n") == len(rows) + 1


def test_reports_from_another_host_are_refused(tmp_path, capsys):
    report = json.loads(COMMITTED.read_text())
    report["host"]["nproc"] += 2
    other = tmp_path / "other.json"
    other.write_text(json.dumps(report))
    assert _tool().main([str(COMMITTED), str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "nproc" in captured.err
