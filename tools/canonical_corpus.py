"""Canonical output corpus: two sha256 digests over adaptok's deterministic outputs.

Runs a fixed set of inputs through ``compress``, the three diversity
selectors, ``allocate_budget``, the PTM1/PSV1 writers and the CLI's
``entropy``, ``allocate``, ``compress`` (with and without ``--t-sal``),
``synth`` and ``flops`` commands (stdout, and the ``--out`` files of
``compress`` and ``flops``), and prints two digests of the documents in
order, each followed by their count:

* ``bytes`` hashes every canonical JSON document whole.  A change that
  claims to keep every output byte prints the same digest before and after
  it, on one host: float bytes also depend on the BLAS kernel.
* ``picks`` hashes only the pick fields of each document (``PICK_FIELDS``),
  the ones inside the serialized results and CLI outputs included.  Floats
  that round differently leave it unchanged unless they change a pick.

The ``src/`` next to this script is imported, so copying the script into
another checkout checks that checkout:

    python3 tools/canonical_corpus.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from adaptok import (  # noqa: E402
    DIVERSITY_METHODS,
    MU_PRESETS,
    CompressConfig,
    allocate_budget,
    compress,
    dpp_greedy_map,
    facility_location_select,
    fps_select,
    selection_result_to_json,
    synth_tokens,
    write_saliency,
    write_tokens,
)
from adaptok import selection  # noqa: E402
from adaptok.cli import main as cli_main  # noqa: E402

TAUS = (0.02, 0.5)
BUDGET = 12

# the decisions a document records: which tokens, in which order, from which stage
PICK_FIELDS = frozenset({
    "selected", "stage_of", "coverage_pick_order", "t_sal", "t_cov", "fallback_count",
    "indices", "pick_order",
})


def _inputs():
    """(name, tokens, saliency): concentrated to spread, tall and wide,
    with zero rows, noiseless low rank, and exactly duplicated tokens."""
    for n, d, k, noise, seed in (
        (48, 16, 1, 1e-3, 0),
        (48, 16, 3, 1e-3, 1),
        (64, 12, 12, 1e-3, 2),
        (24, 40, 6, 1e-3, 3),
        (40, 8, 2, 0.0, 4),
        (30, 50, 3, 0.0, 5),
        (160, 96, 24, 1e-2, 6),
    ):
        tokens, saliency = synth_tokens(n, d, k, noise, seed)
        yield f"synth-{n}x{d}-k{k}-noise{noise}", tokens, saliency
    tokens, saliency = synth_tokens(48, 16, 4, 1e-3, 7)
    tokens[::5] = 0.0
    yield "zero-rows-48x16", tokens, saliency
    rng = np.random.default_rng(8)
    yield "gaussian-36x20", rng.standard_normal((36, 20)), rng.random(36)
    # each of 12 distinct rows four times: the selectors' ties between copies
    tokens, saliency = synth_tokens(48, 16, 3, 1e-3, 9)
    yield "duplicates-48x16", tokens[np.arange(48) % 12], saliency


def _pick_doc(pick) -> dict:
    return {
        "indices": pick.indices.tolist(),
        "pick_order": pick.pick_order.tolist(),
        "gains": pick.gains.tolist(),
        "fallback_count": int(pick.fallback_count),
    }


def _compress_docs():
    for name, tokens, saliency in _inputs():
        for method in DIVERSITY_METHODS:
            for preset, mu in sorted(MU_PRESETS.items()):
                for tau in TAUS:
                    config = CompressConfig(
                        total_budget=BUDGET, mu=mu, tau=tau, diversity_method=method
                    )
                    for t_sal in (None, 0, BUDGET // 3, BUDGET):
                        result = compress(tokens, saliency, config, t_sal=t_sal)
                        yield {
                            "kind": "compress", "input": name, "method": method,
                            "preset": preset, "tau": tau, "t_sal": t_sal,
                            "json": selection_result_to_json(result),
                        }


def _selector_docs():
    for name, tokens, saliency in _inputs():
        n = tokens.shape[0]
        pools = {"all": np.arange(n), "odd": np.arange(1, n, 2)}
        for pool_name, pool in pools.items():
            for k in (1, pool.size // 2, pool.size):
                # without jitter the rank runs out and the fill runs
                with mock.patch.object(selection, "DEFAULT_JITTER", 0.0):
                    no_jitter = dpp_greedy_map(tokens, pool, k, saliency=saliency)
                picks = {
                    "dpp": dpp_greedy_map(tokens, pool, k),
                    "dpp-saliency": dpp_greedy_map(tokens, pool, k, saliency=saliency),
                    "dpp-no-jitter": no_jitter,
                    "fps": fps_select(tokens, pool, k),
                    "facility_location": facility_location_select(tokens, pool, k),
                }
                for selector, pick in picks.items():
                    yield {
                        "kind": "select", "input": name, "pool": pool_name, "k": k,
                        "selector": selector, **_pick_doc(pick),
                    }
    # a CLIP-sized pool, where facility location re-evaluates many stale
    # bounds per step
    tokens, _ = synth_tokens(576, 64, 24, 1e-3, 10)
    pick = facility_location_select(tokens, np.arange(576), 128)
    yield {
        "kind": "select", "input": "synth-576x64-k24", "pool": "all", "k": 128,
        "selector": "facility_location", **_pick_doc(pick),
    }


def _allocate_docs():
    entropies = np.linspace(0.0, 1.0, 2001).tolist()
    for preset, mu in sorted(MU_PRESETS.items()):
        for tau in (1e-6, 1e-3, 0.02, 0.5):
            config = CompressConfig(total_budget=320, mu=mu, tau=tau)
            splits = [allocate_budget(h, config) for h in entropies]
            yield {
                "kind": "allocate", "preset": preset, "tau": tau,
                "t_cov": [s.t_cov for s in splits],
                "coverage_ratio": [s.coverage_ratio for s in splits],
            }


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"adaptok {' '.join(argv)} exited with {rc}")
    return out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_docs(workdir: Path):
    # the temporary file names stay out of the documents
    for name, tokens, saliency in _inputs():
        tok, sal = workdir / f"{name}.ptm", workdir / f"{name}.psv"
        heads = workdir / f"{name}-heads.psv"
        write_tokens(tokens, tok)
        write_saliency(saliency, sal)
        write_saliency(np.stack([saliency, saliency[::-1], np.sqrt(saliency)]), heads)
        yield {"kind": "file", "input": name, "tokens": _sha256(tok),
               "saliency": _sha256(sal), "heads": _sha256(heads)}
        for metric, flags in (("spectral", ["--tokens", str(tok)]),
                              ("norm", ["--tokens", str(tok)]),
                              ("attn", ["--saliency", str(sal)]),
                              ("attn-heads", ["--saliency", str(heads)])):
            argv = ["entropy", "--metric", metric.split("-")[0], *flags]
            yield {"kind": "cli", "argv": ["entropy", metric], "input": name,
                   "stdout": _cli_stdout(argv)}
        for preset in sorted(MU_PRESETS):
            argv = ["allocate", "--tokens", str(tok), "--budget", str(BUDGET),
                    "--mu", preset]
            yield {"kind": "cli", "argv": ["allocate", preset], "input": name,
                   "stdout": _cli_stdout(argv)}
        out = workdir / "out.json"
        _cli_stdout(["compress", "--tokens", str(tok), "--saliency", str(heads),
                     "--budget", str(BUDGET), "--out", str(out)])
        yield {"kind": "cli-out", "argv": ["compress", "heads"], "input": name,
               "out": out.read_text(encoding="utf-8")}
        files = ["--tokens", str(tok), "--saliency", str(sal), "--budget", str(BUDGET)]
        # (label, flags): a preset run keeps the label of the --preset flag
        # that --mu NAME replaced, so the digest stays comparable across it
        runs = [(["--preset", preset], ["--mu", preset]) for preset in sorted(MU_PRESETS)]
        runs += [(["--t-sal", str(t)],) * 2 for t in (0, BUDGET // 3, BUDGET)]
        for diversity in ("dpp", "fps", "fl"):
            for label, flags in runs:
                shown = ["compress", "--diversity", diversity]
                yield {"kind": "cli", "argv": [*shown, *label], "input": name,
                       "stdout": _cli_stdout([*shown, *flags, *files])}
    for seq in (0, 64, 320, 2880):
        for extra in ([], ["--baseline-seq", "2880"], ["--text-tokens", "100"]):
            argv = ["flops", "--seq-visual", str(seq), *extra]
            yield {"kind": "cli", "argv": argv, "stdout": _cli_stdout(argv)}
            out = workdir / "flops.json"
            _cli_stdout([*argv, "--out", str(out)])
            yield {"kind": "cli-out", "argv": argv, "out": out.read_text(encoding="utf-8")}
    for n, d, k, noise, seed in ((40, 8, 3, 1e-3, 0), (24, 40, 6, 0.0, 1)):
        tok, sal = workdir / "synth.ptm", workdir / "synth.psv"
        argv = ["synth", "--tokens", str(tok), "--saliency", str(sal), "--n", str(n),
                "--d", str(d), "--k-directions", str(k), "--noise", str(noise),
                "--seed", str(seed)]
        stdout = _cli_stdout(argv).replace(str(workdir), "<tmp>")
        yield {"kind": "cli", "argv": argv[5:], "stdout": stdout,
               "tokens": _sha256(tok), "saliency": _sha256(sal)}


def _picks(doc: dict) -> dict:
    """The ``PICK_FIELDS`` of a document, and of the JSON documents held in
    its string fields (a serialized result, a CLI's stdout or ``--out``)."""
    picks = {}
    for key, value in doc.items():
        if isinstance(value, str) and value.startswith("{"):
            value = _picks(json.loads(value))
            if value:
                picks[key] = value
        elif key in PICK_FIELDS:
            picks[key] = value
    return picks


def main() -> int:
    digests = {"picks": hashlib.sha256(), "bytes": hashlib.sha256()}
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for source in (_compress_docs(), _selector_docs(), _allocate_docs(),
                       _cli_docs(Path(tmp))):
            for doc in source:
                digests["bytes"].update(json.dumps(doc, sort_keys=True).encode() + b"\n")
                digests["picks"].update(json.dumps(_picks(doc), sort_keys=True).encode() + b"\n")
                count += 1
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}  {count} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
