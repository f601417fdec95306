import dataclasses
import inspect
import json

import numpy as np
import pytest
from oracles import run_core, span_paths

from adaptok import (
    DIVERSITY_METHODS,
    CompressConfig,
    compress,
    estimate_kv_cache_bytes,
    estimate_prefill_flops,
    flops_reduction,
    read_saliency,
    read_tokens,
    reduce_head_attention,
    selection_result_from_json,
    selection_result_to_json,
    spectral_entropy,
    write_tokens,
)
from adaptok.bench import run_bench
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


class TestAllocateCommand:
    def test_reports_split(self, tmp_path, capsys):
        tok, _ = _synth_files(tmp_path, k=1, noise=0.0, capsys=capsys)
        assert main(["allocate", "--tokens", str(tok), "--budget", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_sal"] + doc["t_cov"] == 64
        assert doc["t_cov"] == 0  # concentrated sample with clip preset


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
        assert set(timings) == span_paths(res.split.t_cov, certified=res.entropy.order == 2)
        assert list(timings) == sorted(timings)

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        tok, sal = _synth_files(tmp_path)
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        args = ["compress", "--tokens", str(tok), "--saliency", str(sal), "--budget", "32"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mu_tau_and_diversity_reach_the_config(self, tmp_path):
        tok, sal = _synth_files(tmp_path)
        out = tmp_path / "sel.json"
        rc = main(
            [
                "compress", "--tokens", str(tok), "--saliency", str(sal),
                "--budget", "16", "--mu", "0.9", "--tau", "0.05",
                "--diversity", "facility_location", "--out", str(out),
            ]
        )
        assert rc == 0
        config = selection_result_from_json(out.read_text()).config
        assert config == CompressConfig(16, mu=0.9, tau=0.05, diversity_method="facility_location")

    def test_flags_left_out_keep_compress_config_defaults(self, tmp_path, capsys):
        tok, sal = _synth_files(tmp_path, capsys=capsys)
        argv = ["compress", "--tokens", str(tok), "--saliency", str(sal), "--budget", "32"]
        assert main(argv) == 0
        E, s = read_tokens(tok), reduce_head_attention(read_saliency(sal))
        expected = selection_result_to_json(compress(E, s, CompressConfig(total_budget=32)))
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    def test_diversity_flag_runs_its_core(self, tmp_path, capsys, method):
        # the CLI is the installed package's one route to each stage-2 core;
        # at --t-sal 0 that core picks over every row
        tok, sal = _synth_files(tmp_path, capsys=capsys)
        argv = ["compress", "--tokens", str(tok), "--saliency", str(sal), "--budget", "16",
                "--t-sal", "0", "--diversity", method]
        assert main(argv) == 0
        res = selection_result_from_json(capsys.readouterr().out)
        E = read_tokens(tok)
        assert res.config.diversity_method == method
        pick = run_core(method, E, np.arange(len(E)), 16)
        assert res.coverage_pick_order.tobytes() == pick.pick_order.tobytes()


class TestTSalFlag:
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


class TestBenchCommand:
    def test_phase_breakdown_emitted(self, capsys):
        rc = main(["bench", "--grid", "128x32x16", "--repeats", "2", "--seed", "0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        cfg = doc["configs"][0]
        # at 128x32 every split is coverage-heavy, and the entropy's bounds
        # certify it, so no eigensolve runs
        assert {"total", *cfg["phases"]} == span_paths(1, certified=True)
        # every span runs inside its call
        assert all(p["max_us"] <= cfg["total"]["max_us"] for p in cfg["phases"].values())
        # each path counts the repeats it was recorded in; the selector's
        # spans are missing from a repeat whose split has t_cov == 0
        assert cfg["total"]["n"] == 2
        assert all(1 <= p["n"] <= 2 for p in cfg["phases"].values())
        assert all(cfg["phases"][path]["n"] == 2
                   for path in span_paths(0, certified=True) - {"total"})
        # at 128x32 every repeat is coverage-heavy, so that kind's spans are the pooled ones
        assert cfg["by_split"] == {
            "coverage_heavy": {"total": cfg["total"], "phases": cfg["phases"]}}

    def test_default_grid_times_every_split_kind(self, capsys):
        assert main(["bench"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the flags left out keep run_bench's defaults
        defaults = inspect.signature(run_bench).parameters
        assert (doc["repeats"], doc["seed"]) == (defaults["repeats"].default,
                                                 defaults["seed"].default)
        assert [(c["n_tokens"], c["dim"], c["budget"]) for c in doc["configs"]] == [
            (576, 1024, 64)] * 3 + [(576, 1024, 128)] * 3
        for cfg in doc["configs"]:
            counts = {kind: spans["total"]["n"] for kind, spans in cfg["by_split"].items()}
            assert set(counts) == {"saliency_heavy", "midpoint", "coverage_heavy"}
            assert min(counts.values()) >= 1, counts
            assert sum(counts.values()) == cfg["total"]["n"] == doc["repeats"]
            for spans in cfg["by_split"].values():
                assert spans["phases"].keys() <= cfg["phases"].keys()

    def test_times_every_selector_on_each_grid_entry(self, capsys):
        assert main(["bench", "--grid", "48x16x12", "--grid", "40x8x6", "--repeats", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(c["n_tokens"], c["diversity_method"]) for c in doc["configs"]] == [
            (n, method) for n in (48, 40) for method in DIVERSITY_METHODS
        ]
        # the selectors time the same inputs, so the split of each repeat is theirs alike
        m = len(DIVERSITY_METHODS)
        for entry in (doc["configs"][:m], doc["configs"][m:]):
            counts = [{kind: s["total"]["n"] for kind, s in c["by_split"].items()} for c in entry]
            assert all(count == counts[0] for count in counts)
            assert all(c["total"]["n"] == 4 for c in entry)

    def test_help_names_run_bench_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())  # unwrapped
        defaults = inspect.signature(run_bench).parameters
        repeats, seed = defaults["repeats"].default, defaults["seed"].default
        assert (f"--repeats REPEATS timed runs per grid entry (default: {repeats}) "
                f"--seed SEED seed of the synthetic inputs (default: {seed})") in help_text

    def test_records_the_host(self, capsys):
        assert main(["bench", "--grid", "8x4x2", "--repeats", "1"]) == 0
        host = json.loads(capsys.readouterr().out)["host"]
        assert set(host) == {"python", "numpy", "blas_name", "blas_version", "blas_corename",
                             "blas_threads", "nproc"}
        assert host["numpy"] == np.__version__ and host["nproc"] >= 1


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


class TestFlopsCommand:
    def test_reports_costs_and_reduction(self, capsys):
        rc = main(["flops", "--seq-visual", "320", "--baseline-seq", "2880"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        # the numbers are the cost model's (tests/test_synth_costmodel.py), to the bit
        assert doc["tflops"] == estimate_prefill_flops(320) / 1e12
        assert doc["kv_cache_mb"] == estimate_kv_cache_bytes(320) / 2**20
        assert doc["flops_reduction"] == flops_reduction(2880, 320)

    def test_text_tokens_override(self, capsys):
        rc = main(["flops", "--seq-visual", "0", "--text-tokens", "100"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["text_tokens"] == 100 and doc["flops"] > 0


class TestRoundTripThroughCli:
    def test_tokens_written_by_library_read_by_cli(self, tmp_path, capsys):
        path = tmp_path / "m.ptm"
        write_tokens(np.eye(4), path)
        assert main(["entropy", "--tokens", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["normalized_entropy"] == 1.0


# Every refusal of the command line: (id, argv, exit code, expected).  A
# command line that does not parse, a flag value that does not parse as its
# type included, is argparse's usage error (exit 2) before any file is
# opened, and expected is what its error line names: the flag, for a flag.
# A parsed value that the library refuses, or a file that cannot be read, is
# one JSON line on stderr and nothing on stdout (exit 1), and expected is its
# category and the start of its message.  {tmp} holds the 8-token files
# a.ptm and a.psv, and bad.ptm, whose magic is wrong.
_TOKENS = "--tokens {tmp}/a.ptm"
_FILES = _TOKENS + " --saliency {tmp}/a.psv"
_NO_SUCH_FILE = ("io-error", "[Errno 2] No such file or directory: ")
# each command's required flags, naming files that a usage error leaves unopened
_UNOPENED = {"allocate": "--tokens a.ptm --budget 4",
             "compress": "--tokens a.ptm --saliency a.psv --budget 4", "bench": ""}
_REFUSALS = [
    ("entropy-missing-file", "entropy --tokens {tmp}/no.ptm", 1, _NO_SUCH_FILE),
    ("compress-missing-file", "compress --tokens {tmp}/no.ptm --saliency {tmp}/no.psv "
                              "--budget 4", 1, _NO_SUCH_FILE),
    ("compress-bad-magic", "compress --tokens {tmp}/bad.ptm --saliency {tmp}/bad.ptm --budget 4",
     1, ("bad-magic", "{tmp}/bad.ptm: expected magic b'PTM1', found b'XXXX'")),
    # allocate refuses a budget above N as compress refuses it
    ("allocate-budget-above-n", f"allocate {_TOKENS} --budget 1000", 1,
     ("invalid-budget", "total_budget must be <= 8, got 1000")),
    ("compress-budget-above-n", f"compress {_FILES} --budget 9", 1,
     ("invalid-budget", "total_budget must be <= 8, got 9")),
    ("t-sal-above-budget", f"compress {_FILES} --budget 4 --t-sal 5", 1,
     ("invalid-budget", "t_sal must be <= 4, got 5")),
    ("negative-t-sal", f"compress {_FILES} --budget 4 --t-sal -1", 1,
     ("invalid-budget", "t_sal must be >= 0, got -1")),
    # --grid that is not three integers does not parse; run_bench refuses the
    # parts, T as a budget over [1, n] as compress takes it, and checks every
    # entry before it times any
    ("grid-two-parts", "bench --grid 12x34", 2, "--grid"),
    ("grid-not-integers", "bench --grid axbxc", 2, "--grid"),
    ("grid-zero-n", "bench --grid=0x4x4", 1, ("invalid-input", "n must be >= 1, got 0")),
    ("grid-zero-d", "bench --grid=4x0x4", 1, ("invalid-input", "d must be >= 1, got 0")),
    ("grid-negative-n", "bench --grid=-2x4x1", 1, ("invalid-input", "n must be >= 1, got -2")),
    ("grid-zero-budget", "bench --grid=4x4x0", 1, ("invalid-budget", "T must be >= 1, got 0")),
    ("grid-budget-above-n", "bench --grid 64x32x8 --grid 48x16x100", 1,
     ("invalid-budget", "T must be <= 48, got 100")),
    ("zero-repeats", "bench --grid 32x8x4 --repeats 0", 1,
     ("invalid-input", "repeats must be >= 1, got 0")),
    # synth's seed goes to numpy, which words the refusal
    ("synth-negative-seed", "synth --tokens {tmp}/s.ptm --saliency {tmp}/s.psv --n 8 --d 4 "
                            "--seed -1", 1,
     ("invalid-input", "seed -1 is not a valid numpy seed: ")),
    ("bench-negative-seed", "bench --grid 8x4x2 --repeats 1 --seed -1", 1,
     ("invalid-input", "seed must be >= 0, got -1")),
    # a prompt needs at least one text token
    ("zero-text-tokens", "flops --seq-visual 320 --text-tokens 0", 1,
     ("invalid-input", "text_tokens must be >= 1, got 0")),
    *[(f"flops-overflow-1e{exp}", f"flops --seq-visual {10**exp}", 1,
       ("invalid-input", "the prefill FLOPs estimate overflows float64")) for exp in (200, 400)],
    ("removed-oracle", "oracle", 2, "invalid choice: 'oracle'"),
    ("removed-compress-fixed", "compress-fixed", 2, "invalid choice: 'compress-fixed'"),
    ("entropy-removed-metric", "entropy --tokens a.ptm --metric norm", 2, "--metric"),
    ("entropy-no-tokens", "entropy", 2, "--tokens"),
    ("entropy-removed-saliency", "entropy --tokens a.ptm --saliency a.psv", 2, "--saliency"),
    *[(f"preset-{command}", f"{command} {_UNOPENED[command]} --preset clip", 2, "--preset")
      for command in _UNOPENED],
    *[(f"bogus-mu-{command}", f"{command} {_UNOPENED[command]} --mu bogus", 2,
       "argument --mu: expected a preset ['clip', 'qwen25vl'] or a number, got 'bogus'")
      for command in ("allocate", "compress")],
    ("bogus-mu-bench", "bench --mu bogus", 2, "unrecognized arguments: --mu bogus"),
    # bench takes no setting flag: it times every selector at the default mu and tau
    ("tau-bench", "bench --tau 0.5", 2, "--tau"),
    ("diversity-bench", "bench --diversity dpp", 2, "--diversity"),
    # --diversity takes the selector names of DIVERSITY_METHODS, and no other spelling
    ("fl-compress", f"compress {_UNOPENED['compress']} --diversity fl", 2, "--diversity"),
    ("budget-not-an-int", "compress --tokens a.ptm --saliency a.psv --budget abc", 2, "--budget"),
    ("t-sal-not-an-int", f"compress {_UNOPENED['compress']} --t-sal 1.5", 2, "--t-sal"),
    ("seq-visual-not-an-int", "flops --seq-visual abc", 2, "--seq-visual"),
]


@pytest.mark.parametrize("argv, code, expected", [row[1:] for row in _REFUSALS],
                         ids=[row[0] for row in _REFUSALS])
def test_cli_refusal(tmp_path, capsys, argv, code, expected):
    _synth_files(tmp_path, n=8, d=4, k=2, capsys=capsys)
    (tmp_path / "bad.ptm").write_bytes(b"XXXX" + b"\x00" * 12)
    argv = [arg.format(tmp=tmp_path) for arg in argv.split()]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        # argparse's usage, then "adaptok[ COMMAND]: error: MESSAGE"
        usage_error = err.splitlines()[-1]
        assert out == "" and ": error: " in usage_error and expected in usage_error
    else:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        category, prefix = expected
        error = json.loads(err)["error"]
        assert error["category"] == category
        assert error["message"].startswith(prefix.format(tmp=tmp_path))
