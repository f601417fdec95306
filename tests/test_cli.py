import dataclasses
import json

import numpy as np
import pytest
from oracles import run_core, span_paths

from adaptok import (
    DIVERSITY_METHODS,
    CompressConfig,
    compress,
    read_saliency,
    read_tokens,
    reduce_head_attention,
    selection_result_from_json,
    selection_result_to_json,
    spectral_entropy,
    write_tokens,
)
from adaptok.cli import main


def _synth_files(tmp_path, n=96, d=16, k=4, noise=1e-3, seed=0, capsys=None):
    tok = tmp_path / "a.ptm"
    sal = tmp_path / "a.psv"
    rc = main(
        [
            "synth", "--tokens", str(tok), "--saliency", str(sal),
            "--n", str(n), "--d", str(d), "--k-directions", str(k),
            "--noise", str(noise), "--seed", str(seed),
        ]
    )
    assert rc == 0
    if capsys is not None:
        capsys.readouterr()  # drain the synth summary
    return tok, sal


class TestSynthCommand:
    def test_writes_both_files(self, tmp_path, capsys):
        tok, sal = _synth_files(tmp_path)
        assert tok.exists() and sal.exists()
        assert read_tokens(tok).shape == (96, 16)
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tokens"] == 96

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        d1 = tmp_path / "r1"; d1.mkdir()
        d2 = tmp_path / "r2"; d2.mkdir()
        t1, s1 = _synth_files(d1, seed=3)
        t2, s2 = _synth_files(d2, seed=3)
        assert t1.read_bytes() == t2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()


class TestEntropyCommand:
    def test_spectral_on_rank_one_file(self, tmp_path, capsys):
        tok, _ = _synth_files(tmp_path, k=1, noise=0.0, capsys=capsys)
        assert main(["entropy", "--tokens", str(tok)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["normalized_entropy"] == 0.0

    def test_prints_the_library_report(self, tmp_path, capsys):
        tok, _ = _synth_files(tmp_path, capsys=capsys)
        assert main(["entropy", "--tokens", str(tok)]) == 0
        report = spectral_entropy(read_tokens(tok))
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(report)

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["entropy", "--tokens", str(tmp_path / "no.ptm")]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "io-error"

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--tokens", "a.ptm", "--metric", "norm"], "--metric"),
         ([], "--tokens"),
         (["--tokens", "a.ptm", "--saliency", "a.psv"], "--saliency")],
        ids=["removed-metric", "no-tokens", "removed-saliency"],
    )
    def test_metric_flag_or_missing_tokens_is_usage_error(self, argv, flag, capsys):
        # argparse rejects the command line before any file is opened
        with pytest.raises(SystemExit) as exc:
            main(["entropy", *argv])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestAllocateCommand:
    def test_reports_split(self, tmp_path, capsys):
        tok, _ = _synth_files(tmp_path, k=1, noise=0.0, capsys=capsys)
        assert main(["allocate", "--tokens", str(tok), "--budget", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_sal"] + doc["t_cov"] == 64
        assert doc["t_cov"] == 0  # concentrated sample with clip preset

    def test_budget_above_n_is_refused_as_compress_refuses_it(self, tmp_path, capsys):
        tok, _ = _synth_files(tmp_path, n=48, capsys=capsys)
        assert main(["allocate", "--tokens", str(tok), "--budget", "1000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "invalid-budget"
        assert error["message"] == "total_budget must be <= 48, got 1000"


class TestCompressCommand:
    def test_writes_selection_result(self, tmp_path, capsys):
        tok, sal = _synth_files(tmp_path)
        out = tmp_path / "sel.json"
        rc = main(
            [
                "compress", "--tokens", str(tok), "--saliency", str(sal),
                "--budget", "64", "--mu", "clip", "--diversity", "dpp",
                "--out", str(out),
            ]
        )
        assert rc == 0
        res = selection_result_from_json(out.read_text())
        assert res.selected.size == 64
        (line,) = capsys.readouterr().err.splitlines()
        timings = json.loads(line)["timings_us"]
        assert set(timings) == span_paths(res.split.t_cov)
        assert list(timings) == sorted(timings)

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        tok, sal = _synth_files(tmp_path)
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        args = ["compress", "--tokens", str(tok), "--saliency", str(sal), "--budget", "32"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mu_override_and_fl_alias(self, tmp_path):
        tok, sal = _synth_files(tmp_path)
        out = tmp_path / "sel.json"
        rc = main(
            [
                "compress", "--tokens", str(tok), "--saliency", str(sal),
                "--budget", "16", "--mu", "0.9", "--tau", "0.05",
                "--diversity", "fl", "--out", str(out),
            ]
        )
        assert rc == 0

    def test_flags_left_out_keep_compress_config_defaults(self, tmp_path, capsys):
        tok, sal = _synth_files(tmp_path, capsys=capsys)
        argv = ["compress", "--tokens", str(tok), "--saliency", str(sal), "--budget", "32"]
        assert main(argv) == 0
        E, s = read_tokens(tok), reduce_head_attention(read_saliency(sal))
        expected = selection_result_to_json(compress(E, s, CompressConfig(total_budget=32)))
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("flag", ["dpp", "fps", "fl"])
    def test_diversity_flag_runs_its_core(self, tmp_path, capsys, flag):
        # the CLI is the installed package's one route to each stage-2 core;
        # at --t-sal 0 that core picks over every row
        tok, sal = _synth_files(tmp_path, capsys=capsys)
        argv = ["compress", "--tokens", str(tok), "--saliency", str(sal), "--budget", "16",
                "--t-sal", "0", "--diversity", flag]
        assert main(argv) == 0
        res = selection_result_from_json(capsys.readouterr().out)
        E, s = read_tokens(tok), reduce_head_attention(read_saliency(sal))
        method = {"dpp": "dpp", "fps": "fps", "fl": "facility_location"}[flag]
        assert res.config.diversity_method == method
        pick = run_core(method, E, np.arange(len(E)), 16, s)
        assert res.coverage_pick_order.tobytes() == pick.pick_order.tobytes()

    def test_budget_error_category(self, tmp_path, capsys):
        small, large = tmp_path / "n8", tmp_path / "n96"
        small.mkdir(); large.mkdir()
        n8 = _synth_files(small, n=8, capsys=capsys)
        n96 = _synth_files(large, capsys=capsys)
        for (tok, sal), budget_flags in (
            (n8, ["--budget", "9"]),
            (n96, ["--budget", "64", "--t-sal", "65"]),
            (n96, ["--budget", "64", "--t-sal", "-1"]),
        ):
            rc = main(["compress", "--tokens", str(tok), "--saliency", str(sal), *budget_flags])
            assert rc == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["category"] == "invalid-budget"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = main(
            ["compress", "--tokens", str(tmp_path / "no.ptm"),
             "--saliency", str(tmp_path / "no.psv"), "--budget", "4"]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "io-error"

    def test_bad_magic_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.ptm"
        bad.write_bytes(b"XXXX" + b"\x00" * 12)
        rc = main(
            ["compress", "--tokens", str(bad), "--saliency", str(bad), "--budget", "4"]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "bad-magic"


class TestCompressFixedCommand:
    @pytest.mark.parametrize("t_sal", [0, 12, 64])
    def test_boundaries(self, tmp_path, t_sal, capsys):
        tok, sal = _synth_files(tmp_path, capsys=capsys)
        rc = main(
            [
                "compress", "--tokens", str(tok), "--saliency", str(sal),
                "--budget", "64", "--t-sal", str(t_sal),
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_sal"] == t_sal
        assert len(doc["selected"]) == 64


def _invalid_input(argv, capsys) -> None:
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"


@pytest.mark.parametrize("command", ["oracle", "compress-fixed"])
def test_removed_subcommands_are_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestBenchCommand:
    def test_phase_breakdown_emitted(self, capsys):
        rc = main(["bench", "--grid", "128x32x16", "--repeats", "2", "--seed", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        cfg = doc["configs"][0]
        assert span_paths(0) <= {"total", *cfg["phases"]} <= span_paths(1)
        # every span runs inside its call
        assert all(p["max_us"] <= cfg["total"]["max_us"] for p in cfg["phases"].values())
        # each path counts the repeats it was recorded in; the selector's
        # spans are missing from a repeat whose split has t_cov == 0
        assert cfg["total"]["n"] == 2
        assert all(1 <= p["n"] <= 2 for p in cfg["phases"].values())
        assert all(cfg["phases"][path]["n"] == 2 for path in span_paths(0) - {"total"})

    def test_default_grid_times_every_split_kind(self, capsys):
        assert main(["bench"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(c["n_tokens"], c["dim"], c["budget"]) for c in doc["configs"]] == [
            (576, 1024, 64)] * 3 + [(576, 1024, 128)] * 3
        for cfg in doc["configs"]:
            assert set(cfg["splits"]) == {"saliency_heavy", "midpoint", "coverage_heavy"}
            assert min(cfg["splits"].values()) >= 1, cfg["splits"]
            assert sum(cfg["splits"].values()) == cfg["total"]["n"] == doc["repeats"]

    def test_bad_grid_spec(self, capsys):
        assert main(["bench", "--grid", "12x34"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "invalid-input"
        _invalid_input(["bench", "--grid", "axbxc"], capsys)

    @pytest.mark.parametrize("grid", ["0x4x4", "4x0x4", "4x4x0", "-2x4x1"])
    def test_empty_grid_dimension_is_invalid_input(self, grid, capsys):
        _invalid_input(["bench", f"--grid={grid}"], capsys)

    def test_budget_above_n_fails_before_any_output(self, capsys):
        # the first entry is valid, but no entry is timed before all are checked
        assert main(["bench", "--grid", "64x32x8", "--grid", "48x16x100"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["category"] == "invalid-budget"

    def test_zero_repeats_is_invalid_input(self, capsys):
        _invalid_input(["bench", "--grid", "32x8x4", "--repeats", "0"], capsys)

    def test_times_every_selector_on_each_grid_entry(self, capsys):
        assert main(["bench", "--grid", "48x16x12", "--grid", "40x8x6", "--repeats", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(c["n_tokens"], c["diversity_method"]) for c in doc["configs"]] == [
            (n, method) for n in (48, 40) for method in DIVERSITY_METHODS
        ]
        # the selectors time the same inputs, so the split of each repeat is theirs alike
        m = len(DIVERSITY_METHODS)
        for entry in (doc["configs"][:m], doc["configs"][m:]):
            assert all(c["splits"] == entry[0]["splits"] for c in entry)
            assert all(c["total"]["n"] == 4 for c in entry)

    def test_records_the_host(self, capsys):
        assert main(["bench", "--grid", "8x4x2", "--repeats", "1"]) == 0
        host = json.loads(capsys.readouterr().out)["host"]
        assert set(host) == {"python", "numpy", "blas_name", "blas_version", "blas_corename",
                             "blas_threads", "nproc"}
        assert host["numpy"] == np.__version__ and host["nproc"] >= 1


_USAGE_ERRORS = {
    f"{name}-{command}": (command, flags)
    for name, flags in (("preset", ["--preset", "clip"]), ("bogus-mu", ["--mu", "bogus"]))
    for command in ("allocate", "compress", "bench")
}
# bench takes no setting flag: it times every selector at the default mu and tau
_USAGE_ERRORS |= {"tau-bench": ("bench", ["--tau", "0.5"]),
                  "diversity-bench": ("bench", ["--diversity", "fl"])}


class TestMuFlag:
    @pytest.mark.parametrize("command", ["allocate", "compress"])
    def test_preset_name_prints_the_bytes_of_its_value(self, tmp_path, capsys, command):
        # this sample's entropy (about 0.50) lies between the clip and
        # qwen25vl midpoints, so the two presets split it differently
        tok, sal = _synth_files(tmp_path, capsys=capsys)
        argv = [command, "--tokens", str(tok), "--budget", "32"]
        if command == "compress":
            argv += ["--saliency", str(sal)]
        outputs = []
        for mu in (["--mu", "qwen25vl"], ["--mu", "0.5744"], []):
            assert main([*argv, *mu]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize(
        "command, flags", list(_USAGE_ERRORS.values()), ids=list(_USAGE_ERRORS)
    )
    def test_removed_flag_or_unknown_mu_is_usage_error(self, capsys, command, flags):
        # argparse rejects the command line before any file is opened
        files = {"allocate": ["--tokens", "a.ptm", "--budget", "4"],
                 "compress": ["--tokens", "a.ptm", "--saliency", "a.psv", "--budget", "4"],
                 "bench": []}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *files, *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err


class TestFlopsCommand:
    def test_reports_costs_and_reduction(self, capsys):
        rc = main(["flops", "--seq-visual", "320", "--baseline-seq", "2880"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["tflops"] - 5.02) / 5.02 < 0.25
        assert doc["kv_cache_mb"] == 160.0
        # the paper's cost claim: 2880 -> 320 visual tokens saves 88% of the prefill FLOPs
        assert round(doc["flops_reduction"], 4) == 0.8823

    def test_text_tokens_override(self, capsys):
        rc = main(["flops", "--seq-visual", "0", "--text-tokens", "100"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["text_tokens"] == 100 and doc["flops"] > 0

    def test_zero_text_tokens_is_one_json_error_line(self, capsys):
        # a prompt needs at least one text token
        assert main(["flops", "--seq-visual", "320", "--text-tokens", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["category"] == "invalid-input"


class TestRoundTripThroughCli:
    def test_tokens_written_by_library_read_by_cli(self, tmp_path, capsys):
        path = tmp_path / "m.ptm"
        write_tokens(np.eye(4), path)
        assert main(["entropy", "--tokens", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["normalized_entropy"] == 1.0
