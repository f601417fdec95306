import json
from pathlib import Path

from adaptok.bench import run_bench
from oracles import load_tool

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_skylakex-2cpu.json"


def _timed_eigensolve() -> dict:
    # the committed report with an entropy/eigvalsh span in every config,
    # timed as its total over all its repeats: the compare's control is that
    # span, and the entropy's bounds now certify every repeat the file times
    report = json.loads(COMMITTED.read_text())
    for config in report["configs"]:
        config["phases"].setdefault("entropy/eigvalsh", dict(config["total"]))
    return report


def test_committed_file_against_itself_is_all_ones(capsys, tmp_path):
    tool = load_tool("bench_compare")
    rows = tool.compare(*(_timed_eigensolve(),) * 2)
    # every (grid entry, selector) of the file, each with total and its phases
    assert {row["config"][3] for row in rows} == {"dpp", "fps", "facility_location"}
    assert len({row["config"] for row in rows}) == 6
    assert all(row["ratio"] == row["controlled"] == 1.0 for row in rows)
    assert {row["verdict"] for row in rows} == {"unresolved"}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(_timed_eigensolve()))
    assert tool.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == len(rows) + 1
    # each printed row names the repeats its p50s rest on, OLD/NEW
    assert all(f" {row['old_n']}/{row['new_n']} " in line
               for row, line in zip(rows, out.splitlines()[1:]))


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


def test_each_split_kind_is_controlled_by_its_own_eigensolve():
    # the committed file pools its split kinds; give each config two kinds,
    # both the pooled p50s over one and the rest of the repeats, and move
    # one kind's phases in the new report
    old = _timed_eigensolve()
    for config in old["configs"]:
        n = config["total"]["n"]
        config["by_split"] = {
            kind: {"total": {**config["total"], "n": count}, "phases": config["phases"]}
            for kind, count in (("saliency_heavy", n - 1), ("coverage_heavy", 1))
        }
    new = json.loads(json.dumps(old))
    for config in new["configs"]:
        coverage_heavy = config["by_split"]["coverage_heavy"]
        for p in (coverage_heavy["total"], *coverage_heavy["phases"].values()):
            p["p50_us"] *= 2.0  # host drift, which its own control cancels
        config["by_split"]["saliency_heavy"]["phases"]["stage2"]["p50_us"] *= 1.5
    rows = load_tool("bench_compare").compare(old, new)
    by_split = {}
    for row in rows:
        by_split.setdefault(row["split"], []).append(row)
    assert list(by_split) == ["all", "saliency_heavy", "coverage_heavy"]
    assert len(by_split["all"]) == len(by_split["saliency_heavy"])
    assert all(row["ratio"] == 1.0 for row in by_split["all"])
    # each row carries the repeats its split's p50s rest on
    pooled_n = {row["config"]: row["old_n"] for row in by_split["all"]}
    assert all(row["old_n"] == row["new_n"] for row in rows)
    assert all(row["old_n"] == pooled_n[row["config"]] - 1 for row in by_split["saliency_heavy"])
    assert {row["old_n"] for row in by_split["coverage_heavy"]} == {1}
    assert all(row["ratio"] == 2.0 and row["controlled"] == 1.0
               for row in by_split["coverage_heavy"])
    assert {(row["phase"], row["verdict"]) for row in by_split["saliency_heavy"]
            if row["verdict"] != "unresolved"} == {("stage2", "slower")}
    # a report without by_split compares on the pooled rows only
    del new["configs"][0]["by_split"]
    pooled = [row for row in load_tool("bench_compare").compare(old, new)
              if row["config"] == rows[0]["config"]]
    assert {row["split"] for row in pooled} == {"all"}


def test_a_split_with_no_eigensolve_is_uncontrolled(tmp_path, capsys):
    # at 128x32 the entropy's bounds certify every repeat's split, so no
    # report of it times entropy/eigvalsh
    report = run_bench([(128, 32, 16)], repeats=2)
    assert all("entropy/eigvalsh" not in config["phases"] for config in report["configs"])
    tool = load_tool("bench_compare")
    rows = tool.compare(report, report)
    assert rows and all(row["controlled"] is None and row["verdict"] == "uncontrolled"
                        for row in rows)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(report))
    assert tool.main([str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(rows)
    assert all(line.endswith("      -  uncontrolled") for line in lines)
    # a control missing from one report leaves only the splits it is missing from
    old = _timed_eigensolve()
    new = _timed_eigensolve()
    del new["configs"][0]["phases"]["entropy/eigvalsh"]
    rows = tool.compare(old, new)
    assert {row["config"] for row in rows if row["verdict"] == "uncontrolled"} == {
        rows[0]["config"]}
    assert all(row["controlled"] is not None for row in rows
               if row["config"] != rows[0]["config"])


def test_a_split_kind_with_no_eigensolve_takes_the_pooled_control(capsys, tmp_path):
    # a kind whose repeats all skipped the eigensolve borrows the config's
    # pooled entropy/eigvalsh ratio, and its verdicts say so
    old = _timed_eigensolve()
    for config in old["configs"]:
        n = config["total"]["n"]
        certified = {path: p for path, p in config["phases"].items() if path != "entropy/eigvalsh"}
        config["by_split"] = {
            "saliency_heavy": {"total": {**config["total"], "n": n - 1}, "phases": certified},
            "coverage_heavy": {"total": {**config["total"], "n": 1}, "phases": config["phases"]},
        }
    new = json.loads(json.dumps(old))
    for config in new["configs"]:
        config["phases"]["entropy/eigvalsh"]["p50_us"] *= 2.0  # the pooled control moves
        config["by_split"]["saliency_heavy"]["phases"]["stage2"]["p50_us"] *= 2.0
    tool = load_tool("bench_compare")
    rows = tool.compare(old, new)
    salient = [row for row in rows if row["split"] == "saliency_heavy"]
    assert salient and all(row["control"] == "pooled" for row in salient)
    assert {row["control"] for row in rows if row["split"] != "saliency_heavy"} == {"own"}
    # stage2 moved with the pooled control, so it is unresolved; the rest read faster
    assert {(row["phase"] == "stage2", row["verdict"]) for row in salient} == {
        (True, "unresolved"), (False, "faster")}
    assert all(row["controlled"] == row["ratio"] / 2.0 for row in salient)
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, report in zip(paths, (old, new)):
        path.write_text(json.dumps(report))
    assert tool.main([str(path) for path in paths]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert sum(line.endswith(", pooled-controlled") for line in lines) == len(salient)
    assert all(" saliency_heavy " in line for line in lines if "pooled" in line)
    # a control whose p50s rest on different repeats times another mix of
    # inputs: its rows keep the controlled ratio, but resolve nothing
    for config in new["configs"]:
        config["phases"]["entropy/eigvalsh"]["n"] -= 1
    rows = tool.compare(old, new)
    mixed = [row for row in rows if row["split"] != "coverage_heavy"]
    assert {row["verdict"] for row in mixed} == {"unresolved"}
    assert all(row["controlled"] is not None and row["control_n"][0] == row["control_n"][1] + 1
               for row in mixed)
    assert all(row["control"] == "own" and row["control_n"][0] == row["control_n"][1]
               for row in rows if row["split"] == "coverage_heavy")
    paths[1].write_text(json.dumps(new))
    assert tool.main([str(path) for path in paths]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert sum(", control n " in line for line in lines) == len(mixed)
