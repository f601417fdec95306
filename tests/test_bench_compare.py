import json
from pathlib import Path

import pytest
from oracles import load_tool

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_skylakex-2cpu.json"


def _committed() -> dict:
    return json.loads(COMMITTED.read_text())


def _raised(field: str) -> str:
    # the committed report with the host's nproc, or every config's budget,
    # raised by 2, as JSON
    report = _committed()
    for entry in [report["host"]] if field == "nproc" else report["configs"]:
        entry[field] += 2
    return json.dumps(report)


def test_committed_file_against_itself_is_all_ones(capsys):
    tool = load_tool("bench_compare")
    rows = tool.compare(_committed(), _committed())
    # every (grid entry, selector) of the file, each with total and its phases
    assert {row["config"][3] for row in rows} == {"dpp", "fps", "facility_location"}
    assert len({row["config"] for row in rows}) == 6
    assert all(row["ratio"] == 1.0 for row in rows)
    assert tool.main([str(COMMITTED), str(COMMITTED)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(rows)
    # each printed row names the repeats its p50s rest on, OLD/NEW
    assert all(f" {row['old_n']}/{row['new_n']} " in line and line.endswith(" 1.000")
               for row, line in zip(rows, lines))


@pytest.mark.parametrize(
    "text, message",
    [(_raised("nproc"), "the reports' hosts differ in nproc"),
     (_raised("budget"), "the reports share no (grid entry, selector)"),
     (None, "{path}: No such file or directory"),
     ("not json", "{path}: Expecting value"),
     ("{}", "{path}: not an adaptok bench report")],
    ids=["another-host", "no-config-in-common", "missing", "not-json", "no-report"],
)
def test_refusal(tmp_path, capsys, text, message):
    # one line on stderr, nothing on stdout, exit 1
    path = tmp_path / "other.json"
    if text is not None:
        path.write_text(text)
    assert load_tool("bench_compare").main([str(COMMITTED), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bench_compare: " + message.format(path=path))
    assert captured.err.count("\n") == 1


def test_each_split_kind_has_its_own_rows():
    # give each config two kinds, one and the rest of the repeats, both with
    # the config's p50s, and move one kind's phases in the new report
    old = _committed()
    for config in old["configs"]:
        n = config["total"]["n"]
        config["by_split"] = {
            kind: {"total": {**config["total"], "n": count},
                   "phases": {path: {**p, "n": count} for path, p in config["phases"].items()}}
            for kind, count in (("saliency_heavy", n - 1), ("coverage_heavy", 1))
        }
    new = json.loads(json.dumps(old))
    for config in new["configs"]:
        coverage_heavy = config["by_split"]["coverage_heavy"]
        for p in (coverage_heavy["total"], *coverage_heavy["phases"].values()):
            p["p50_us"] *= 2.0
    rows = load_tool("bench_compare").compare(old, new)
    by_split = {}
    for row in rows:
        by_split.setdefault(row["split"], []).append(row)
    assert list(by_split) == ["all", "saliency_heavy", "coverage_heavy"]
    assert len({len(kind_rows) for kind_rows in by_split.values()}) == 1
    assert all(row["ratio"] == 1.0 for row in by_split["all"] + by_split["saliency_heavy"])
    assert all(row["ratio"] == 2.0 for row in by_split["coverage_heavy"])
    # each row carries the repeats its split's p50s rest on
    all_n = {row["config"]: row["old_n"] for row in by_split["all"]}
    assert all(row["old_n"] == row["new_n"] for row in rows)
    assert all(row["old_n"] == all_n[row["config"]] - 1 for row in by_split["saliency_heavy"])
    assert {row["old_n"] for row in by_split["coverage_heavy"]} == {1}
    # a report without by_split compares on the "all" rows only
    del new["configs"][0]["by_split"]
    first = [row for row in load_tool("bench_compare").compare(old, new)
             if row["config"] == rows[0]["config"]]
    assert {row["split"] for row in first} == {"all"}


def test_a_phase_one_report_timed_shows_with_its_own_repeats(tmp_path, capsys):
    # the old report times the eigensolve in half its repeats, the new one
    # not at all: its row reads the old p50, and '-' for the new p50 and ratio
    old = _committed()
    config = old["configs"][0]
    eigensolve = {**config["total"], "n": config["total"]["n"] // 2, "p50_us": 15840.0}
    config["phases"]["entropy/eigvalsh"] = eigensolve
    tool = load_tool("bench_compare")
    rows = tool.compare(old, _committed())
    (row,) = (row for row in rows if row["phase"] == "entropy/eigvalsh" and row["split"] == "all")
    assert (row["old_n"], row["new_n"]) == (eigensolve["n"], 0)
    assert (row["old_ms"], row["new_ms"], row["ratio"]) == (15.84, None, None)
    # the config's other rows keep their own repeats, total first, then by path
    same = [other for other in rows if other["config"] == row["config"] and other["split"] == "all"]
    assert same[0]["phase"] == "total" and same[0]["old_n"] == config["total"]["n"]
    assert [other["phase"] for other in same[1:]] == sorted(other["phase"] for other in same[1:])
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    assert tool.main([str(path), str(COMMITTED)]) == 0
    (line,) = (line for line in capsys.readouterr().out.splitlines() if " all " in line
               and "entropy/eigvalsh" in line)
    assert line.split()[-5:] == [f"{eigensolve['n']}/0", "entropy/eigvalsh", "15.84", "-", "-"]
    # the other way round, the old side reads 0 and '-'
    (row,) = (row for row in tool.compare(_committed(), old)
              if row["phase"] == "entropy/eigvalsh" and row["split"] == "all")
    assert (row["old_n"], row["old_ms"], row["new_n"], row["ratio"]) == (
        0, None, eigensolve["n"], None)
