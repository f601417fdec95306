import json
from pathlib import Path

from oracles import load_tool

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_skylakex-2cpu.json"


def test_committed_file_against_itself_is_all_ones(capsys):
    tool = load_tool("bench_compare")
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
    assert load_tool("bench_compare").main([str(COMMITTED), str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "nproc" in captured.err


def test_reports_with_no_config_in_common_are_refused(tmp_path, capsys):
    report = json.loads(COMMITTED.read_text())
    for config in report["configs"]:
        config["budget"] += 1
    other = tmp_path / "other.json"
    other.write_text(json.dumps(report))
    assert load_tool("bench_compare").main([str(COMMITTED), str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "share no" in captured.err
