"""Command-line interface.

Subcommands: entropy, allocate, compress, synth, bench, flops.
``compress --t-sal N`` forces the saliency share of the split instead of
deriving it from the entropy.  ``--mu NAME|NUMBER`` takes a preset name or a
number; ``CompressConfig`` holds the default of each setting flag left out.
Primary outputs are canonical JSON
(byte-identical for fixed seeds and inputs).  Wall-clock span timings of
``compress`` land on stderr as one JSON line ``{"timings_us": {...}}``,
keyed by span path (``total``, ``entropy/gram``, ``stage2/greedy``, ...).
Errors, bad argument values included, land on stderr as one JSON line
with a machine-readable category, and the process exits 1; a command line
that does not parse gets argparse's usage message and exit code 2.
"""

import argparse
import dataclasses
import json
import sys

from .bench import run_bench
from .budget import MU_PRESETS, CompressConfig, allocate_budget
from .costmodel import (
    LLAVA_NEXT_7B,
    estimate_kv_cache_bytes,
    estimate_prefill_flops,
    flops_reduction,
)
from .errors import AdaptokError, InvalidInputError
from .io_formats import (
    _canonical_json,
    read_saliency,
    read_tokens,
    selection_result_to_json,
    write_saliency,
    write_tokens,
)
from .pipeline import compress
from .prominence import attention_entropy, feature_norm_entropy, spectral_entropy
from .selection import reduce_head_attention
from .synth import synth_tokens

_DIVERSITY_FLAGS = {"dpp": "dpp", "fps": "fps", "fl": "facility_location"}
_METRIC_FLAGS = ("spectral", "norm", "attn")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _mu(text: str) -> float:
    return MU_PRESETS[text] if text in MU_PRESETS else float(text)


def _add_sigmoid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=_mu, default=None, metavar="NAME|NUMBER",
                   help=f"sigmoid midpoint: a number or a preset {sorted(MU_PRESETS)}")
    p.add_argument("--tau", type=float, default=None, help="sigmoid smoothness")


def _settings(args) -> dict:
    """The --mu, --tau and --diversity values given, as CompressConfig keyword arguments."""
    diversity = _DIVERSITY_FLAGS.get(getattr(args, "diversity", None))
    given = {"mu": args.mu, "tau": args.tau, "diversity_method": diversity}
    return {key: value for key, value in given.items() if value is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptok",
        description="Entropy-adaptive visual token subset selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="compute an entropy metric on a token file")
    p.add_argument("--tokens", default=None, help="input PTM1 token file")
    p.add_argument("--saliency", default=None, help="input PSV1 saliency file (attn metric)")
    p.add_argument("--metric", choices=_METRIC_FLAGS, default="spectral")
    p.add_argument("--out", default=None)

    p = sub.add_parser("allocate", help="entropy plus budget split, no selection")
    p.add_argument("--tokens", required=True)
    p.add_argument("--budget", type=int, required=True)
    _add_sigmoid_flags(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compress", help="full two-stage compression")
    p.add_argument("--tokens", required=True, help="input PTM1 token file")
    p.add_argument("--saliency", required=True, help="input PSV1 saliency file")
    p.add_argument("--budget", type=int, required=True, help="total token budget T")
    p.add_argument("--t-sal", type=int, default=None,
                   help="forced saliency budget (derived from the entropy if omitted)")
    _add_sigmoid_flags(p)
    p.add_argument("--diversity", choices=sorted(_DIVERSITY_FLAGS), default=None,
                   help="stage-2 diversity selector")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")

    p = sub.add_parser("synth", help="emit synthetic token and saliency files")
    p.add_argument("--tokens", required=True, help="output PTM1 path")
    p.add_argument("--saliency", required=True, help="output PSV1 path")
    p.add_argument("--n", type=int, required=True, help="number of tokens")
    p.add_argument("--d", type=int, required=True, help="feature dimension")
    p.add_argument("--k-directions", type=int, default=1)
    p.add_argument("--noise", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="latency percentiles over (N,d,T) grids")
    p.add_argument("--grid", action="append", default=None, metavar="NxDxT",
                   help="configuration like 576x1024x64 (repeatable)")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_sigmoid_flags(p)
    p.add_argument("--diversity", choices=sorted(_DIVERSITY_FLAGS), default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("flops", help="prefill FLOPs / KV-cache cost model")
    p.add_argument("--seq-visual", type=int, required=True, help="visual tokens in the prefill")
    p.add_argument("--text-tokens", type=int, default=None, help="override prompt length")
    p.add_argument("--baseline-seq", type=int, default=None,
                   help="uncompressed visual length to report the reduction against")
    p.add_argument("--out", default=None)

    return parser


def _cmd_entropy(args) -> int:
    if args.metric == "attn":
        if not args.saliency:
            raise InvalidInputError("--saliency is required for --metric attn")
        scores = reduce_head_attention(read_saliency(args.saliency))
        report = attention_entropy(scores)
    else:
        if not args.tokens:
            raise InvalidInputError(f"--tokens is required for --metric {args.metric}")
        tokens = read_tokens(args.tokens)
        report = spectral_entropy(tokens) if args.metric == "spectral" else feature_norm_entropy(tokens)
    _emit(_canonical_json(dataclasses.asdict(report)), args.out)
    return 0


def _cmd_allocate(args) -> int:
    tokens = read_tokens(args.tokens)
    report = spectral_entropy(tokens)
    config = CompressConfig(total_budget=args.budget, **_settings(args))
    split = allocate_budget(report.normalized_entropy, config)
    doc = {
        "entropy": dataclasses.asdict(report),
        "t_sal": split.t_sal,
        "t_cov": split.t_cov,
        "coverage_ratio": split.coverage_ratio,
        "total_budget": config.total_budget,
    }
    _emit(_canonical_json(doc), args.out)
    return 0


def _cmd_compress(args) -> int:
    tokens = read_tokens(args.tokens)
    saliency = reduce_head_attention(read_saliency(args.saliency))
    config = CompressConfig(total_budget=args.budget, **_settings(args))
    result = compress(tokens, saliency, config, t_sal=args.t_sal)
    _emit(selection_result_to_json(result), args.out)
    print(json.dumps({"timings_us": result.timings_us}, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    tokens, saliency = synth_tokens(args.n, args.d, args.k_directions, args.noise, args.seed)
    write_tokens(tokens, args.tokens)
    write_saliency(saliency, args.saliency)
    doc = {
        "tokens": args.tokens,
        "saliency": args.saliency,
        "n_tokens": args.n,
        "dim": args.d,
        "k_directions": args.k_directions,
        "noise": args.noise,
        "seed": args.seed,
    }
    _emit(_canonical_json(doc), None)
    return 0


def _parse_grid(specs: list[str] | None) -> list[tuple[int, int, int]]:
    grid = []
    for spec in specs or ["576x1024x64", "576x1024x128"]:
        try:
            n, d, t = (int(p) for p in spec.lower().split("x"))
        except ValueError:
            raise InvalidInputError(
                f"--grid expects NxDxT with integer parts, got {spec!r}"
            ) from None
        grid.append((n, d, t))
    return grid


def _cmd_bench(args) -> int:
    report = run_bench(
        _parse_grid(args.grid),
        repeats=args.repeats,
        seed=args.seed,
        **_settings(args),
    )
    _emit(_canonical_json(report), args.out)
    return 0


def _cmd_flops(args) -> int:
    spec = LLAVA_NEXT_7B
    if args.text_tokens is not None:
        spec = dataclasses.replace(spec, text_tokens=args.text_tokens)
    flops = estimate_prefill_flops(args.seq_visual, spec)
    doc = {
        "model": "llava-next-7b",
        "seq_visual": args.seq_visual,
        "text_tokens": spec.text_tokens,
        "flops": flops,
        "tflops": flops / 1e12,
        "kv_cache_bytes": estimate_kv_cache_bytes(args.seq_visual, spec),
        "kv_cache_mb": estimate_kv_cache_bytes(args.seq_visual, spec) / 2**20,
    }
    if args.baseline_seq is not None:
        doc["baseline_seq"] = args.baseline_seq
        doc["flops_reduction"] = flops_reduction(args.baseline_seq, args.seq_visual, spec)
    _emit(_canonical_json(doc), args.out)
    return 0


_COMMANDS = {
    "entropy": _cmd_entropy,
    "allocate": _cmd_allocate,
    "compress": _cmd_compress,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "flops": _cmd_flops,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AdaptokError, OSError) as err:
        category = err.category if isinstance(err, AdaptokError) else "io-error"
        print(json.dumps({"error": {"category": category, "message": str(err)}}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
