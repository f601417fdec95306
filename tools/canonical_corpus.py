"""Canonical output corpus: two sha256 digests over adaptok's deterministic outputs.

Runs a fixed set of inputs through ``compress``, the three stage-2 cores
(``selection._SELECTORS``) on pools of their own, DPP with no jitter (as a
core, and through ``compress``, which fills the slots the core leaves past
the rank by saliency), ``allocate_budget``, the PTM1/PSV1 writers and the
CLI's ``entropy`` (the spectral entropy of each token file), ``allocate``,
``compress`` (with and without ``--t-sal``), ``synth`` and ``flops``
commands.

Each document is a pair ``(labels, outputs)``.  The labels name the run,
and no two documents share them.  The outputs map a name to a JSON text (a
serialized result, a CLI's stdout or ``--out`` file, a core's pick order
and gains, or an allocate grid) or to the sha256 of a written file.  The
tool prints two digests of the documents in order, each followed by their
count:

* ``bytes`` hashes every document whole.  A change that claims to keep
  every output byte prints the same digest before and after it, on one
  host: float bytes also depend on the BLAS kernel.
* ``picks`` hashes only the ``PICK_FIELDS`` at the top level of each JSON
  output.  Floats that round differently leave it unchanged unless they
  change a pick.

A third line, ``blas <name> <version> <corename> threads <n>``, names the
BLAS build, the kernel it picked on this CPU and the threads it runs
(``adaptok.bench.host_fingerprint``), with ``unknown`` for any part that
cannot be found; a digest means nothing without it.  The thread count is
there because a BLAS product sums in a thread-dependent order: at paper
sizes (576x1024) ``compress`` documents differ between 1 and 2 OpenBLAS
threads with the same picks, though the corpus's small shapes give the same
digests at both.

Every JSON output with a ``schema`` key (a serialized ``compress`` result)
must load through ``selection_result_from_json``, which requires it to
write back to the same bytes; otherwise the tool names the document's index
and exits 1.

With ``--per-doc`` it first prints one line per document: its index, its
labels, and the first 16 hex digits of the ``picks`` and the ``bytes``
digest of that document alone.  Diffing two such listings names the
documents a change moved.

The ``src/`` next to this script is imported, so copying the script into
another checkout checks that checkout:

    python3 tools/canonical_corpus.py [--per-doc]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
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
    FormatError,
    allocate_budget,
    as_token_matrix,
    compress,
    selection_result_from_json,
    selection_result_to_json,
    synth_tokens,
    write_saliency,
    write_tokens,
)
from adaptok import selection  # noqa: E402
from adaptok.bench import host_fingerprint  # noqa: E402
from adaptok.prominence import _spectral_entropy  # noqa: E402
from adaptok.cli import main as cli_main  # noqa: E402

TAUS = (0.02, 0.5)
BUDGET = 12

# the decisions an output records: which tokens, in which order, from which stage
PICK_FIELDS = frozenset({"selected", "coverage_pick_order", "t_sal", "t_cov", "pick_order"})


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


def _compress_docs():
    for name, tokens, saliency in _inputs():
        for method in DIVERSITY_METHODS:
            runs = [
                ({"preset": preset, "tau": tau}, None,
                 CompressConfig(BUDGET, mu=mu, tau=tau, diversity_method=method))
                for preset, mu in sorted(MU_PRESETS.items()) for tau in TAUS
            ]
            # a forced split reads neither mu nor tau
            runs += [({"t_sal": t_sal}, t_sal, CompressConfig(BUDGET, diversity_method=method))
                     for t_sal in (0, BUDGET // 3, BUDGET)]
            for labels, t_sal, config in runs:
                result = compress(tokens, saliency, config, t_sal=t_sal)
                yield ({"kind": "compress", "input": name, "method": method, **labels},
                       {"json": selection_result_to_json(result)})


def _run(method, tokens, pool, k) -> dict:
    """The pick of the stage-2 core ``method`` over ``pool``, as ``compress``
    calls it: with the token Gram that the entropy decomposed (None at n >= d)."""
    E = as_token_matrix(tokens)
    pick = selection._SELECTORS[method](
        E, np.asarray(pool, dtype=np.int64), k, _spectral_entropy(E)[1]
    )
    return {"pick": json.dumps({"pick_order": pick.pick_order.tolist(),
                                "gains": pick.gains.tolist()})}


def _core_docs():
    for name, tokens, saliency in _inputs():
        # without jitter the rank runs out: the DPP core stops there, and
        # compress fills the rest of its budget by saliency
        config = CompressConfig(total_budget=BUDGET, diversity_method="dpp")
        with mock.patch.object(selection, "DEFAULT_JITTER", 0.0):
            result = compress(tokens, saliency, config, t_sal=0)
        yield ({"kind": "compress", "input": name, "selector": "dpp-no-jitter", "t_sal": 0},
               {"json": selection_result_to_json(result)})
        n = tokens.shape[0]
        pools = {"all": np.arange(n), "odd": np.arange(1, n, 2)}
        for pool_name, pool in pools.items():
            for k in (1, pool.size // 2, pool.size):
                with mock.patch.object(selection, "DEFAULT_JITTER", 0.0):
                    no_jitter = _run("dpp", tokens, pool, k)
                picks = {
                    "dpp": _run("dpp", tokens, pool, k),
                    "dpp-no-jitter": no_jitter,
                    "fps": _run("fps", tokens, pool, k),
                    "facility_location": _run("facility_location", tokens, pool, k),
                }
                for selector, outputs in picks.items():
                    yield ({"kind": "select", "input": name, "pool": pool_name, "k": k,
                            "selector": selector}, outputs)
    # a CLIP-sized pool, where facility location re-evaluates many stale
    # bounds per step
    tokens, saliency = synth_tokens(576, 64, 24, 1e-3, 10)
    yield ({"kind": "select", "input": "synth-576x64-k24", "pool": "all", "k": 128,
            "selector": "facility_location"},
           _run("facility_location", tokens, np.arange(576), 128))


def _allocate_docs():
    entropies = np.linspace(0.0, 1.0, 2001).tolist()
    for preset, mu in sorted(MU_PRESETS.items()):
        for tau in (1e-6, 1e-3, 0.02, 0.5):
            config = CompressConfig(total_budget=320, mu=mu, tau=tau)
            splits = [allocate_budget(h, config) for h in entropies]
            grid = {"t_cov": [s.t_cov for s in splits],
                    "coverage_ratio": [s.coverage_ratio for s in splits]}
            yield {"kind": "allocate", "preset": preset, "tau": tau}, {"grid": json.dumps(grid)}


def _cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"adaptok {' '.join(argv)} exited with {rc}")
    return out.getvalue()


def _cli_out(argv: list[str], out: Path) -> str:
    """The ``--out`` file of ``adaptok argv --out out``."""
    _cli_stdout([*argv, "--out", str(out)])
    return out.read_text(encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_docs(workdir: Path):
    # the temporary file names stay out of the documents
    out = workdir / "out.json"
    for name, tokens, saliency in _inputs():
        tok, sal = workdir / f"{name}.ptm", workdir / f"{name}.psv"
        heads = workdir / f"{name}-heads.psv"
        write_tokens(tokens, tok)
        write_saliency(saliency, sal)
        write_saliency(np.stack([saliency, saliency[::-1], np.sqrt(saliency)]), heads)
        yield ({"kind": "file", "input": name},
               {"tokens": _sha256(tok), "saliency": _sha256(sal), "heads": _sha256(heads)})
        yield ({"kind": "cli", "argv": ["entropy"], "input": name},
               {"stdout": _cli_stdout(["entropy", "--tokens", str(tok)])})
        for preset in sorted(MU_PRESETS):
            argv = ["allocate", "--tokens", str(tok), "--budget", str(BUDGET),
                    "--mu", preset]
            yield ({"kind": "cli", "argv": ["allocate", preset], "input": name},
                   {"stdout": _cli_stdout(argv)})
        argv = ["compress", "--tokens", str(tok), "--saliency", str(heads),
                "--budget", str(BUDGET)]
        yield ({"kind": "cli", "argv": ["compress", "heads"], "input": name},
               {"out": _cli_out(argv, out)})
        files = ["--tokens", str(tok), "--saliency", str(sal), "--budget", str(BUDGET)]
        runs = [["--mu", preset] for preset in sorted(MU_PRESETS)]
        runs += [["--t-sal", str(t)] for t in (0, BUDGET // 3, BUDGET)]
        for diversity in DIVERSITY_METHODS:
            for flags in runs:
                shown = ["compress", "--diversity", diversity, *flags]
                yield ({"kind": "cli", "argv": shown, "input": name},
                       {"stdout": _cli_stdout([*shown, *files])})
    for seq in (0, 64, 320, 2880):
        for extra in ([], ["--baseline-seq", "2880"], ["--text-tokens", "100"]):
            argv = ["flops", "--seq-visual", str(seq), *extra]
            yield ({"kind": "cli", "argv": argv},
                   {"stdout": _cli_stdout(argv), "out": _cli_out(argv, out)})
    for n, d, k, noise, seed in ((40, 8, 3, 1e-3, 0), (24, 40, 6, 0.0, 1)):
        tok, sal = workdir / "synth.ptm", workdir / "synth.psv"
        argv = ["synth", "--tokens", str(tok), "--saliency", str(sal), "--n", str(n),
                "--d", str(d), "--k-directions", str(k), "--noise", str(noise),
                "--seed", str(seed)]
        stdout = _cli_stdout(argv).replace(str(workdir), "<tmp>")
        yield ({"kind": "cli", "argv": argv[5:]},
               {"stdout": stdout, "tokens": _sha256(tok), "saliency": _sha256(sal)})


def _blas() -> str:
    """``blas <name> <version> <corename> threads <n>``, ``unknown`` for a
    part the host fingerprint cannot find."""
    host = host_fingerprint()
    parts = (host["blas_name"], host["blas_version"], host["blas_corename"], "threads",
             host["blas_threads"])
    return "blas " + " ".join(str(part or "unknown") for part in parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-doc", action="store_true",
                        help="also print each document's labels and digests")
    args = parser.parse_args(argv)
    digests = {"picks": hashlib.sha256(), "bytes": hashlib.sha256()}
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        docs = itertools.chain(_compress_docs(), _core_docs(), _allocate_docs(),
                               _cli_docs(Path(tmp)))
        for labels, outputs in docs:
            # a file's sha256 is hex; every other output is a JSON object
            parsed = {name: json.loads(text) for name, text in outputs.items()
                      if text.startswith("{")}
            try:
                for name, doc in parsed.items():
                    if "schema" in doc:
                        selection_result_from_json(outputs[name])
            except FormatError:
                print(f"document {count}: a compress result does not read back to "
                      "the same bytes", file=sys.stderr)
                return 1
            picks = {name: {key: doc[key] for key in PICK_FIELDS & doc.keys()}
                     for name, doc in parsed.items()}
            lines = {
                "picks": json.dumps(picks, sort_keys=True).encode() + b"\n",
                "bytes": json.dumps([labels, outputs], sort_keys=True).encode() + b"\n",
            }
            for name, line in lines.items():
                digests[name].update(line)
            if args.per_doc:
                own = " ".join(
                    f"{name} {hashlib.sha256(line).hexdigest()[:16]}"
                    for name, line in lines.items()
                )
                print(f"{count} {json.dumps(labels, sort_keys=True)} {own}")
            count += 1
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}  {count} documents")
    print(_blas())
    return 0


if __name__ == "__main__":
    sys.exit(main())
