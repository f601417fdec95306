"""Command-line interface.

Subcommands: entropy, allocate, compress, synth, bench, flops.
``compress --t-sal N`` forces the saliency share of the split instead of
deriving it from the entropy.  ``--mu NAME|NUMBER`` takes a preset name or a
number, and ``--diversity`` a name of ``DIVERSITY_METHODS``.  A flag left out
keeps the callee's default: ``CompressConfig``'s for a setting, and
``run_bench``'s for ``bench``'s ``--grid``, ``--repeats`` and ``--seed``.
``bench`` takes no setting flag: it times every stage-2 selector at the
default mu and tau, and records the host it ran on.  Primary outputs are canonical JSON
(byte-identical for fixed seeds and inputs).  Wall-clock span timings of
``compress`` land on stderr as one JSON line ``{"timings_us": {...}}``,
keyed by span path (``total``, ``entropy/gram``, ``stage2/greedy``, ...).
Errors, bad argument values included, land on stderr as one JSON line
with a machine-readable category, and the process exits 1; a command line
that does not parse gets argparse's usage message and exit code 2.
"""

import argparse
import dataclasses
import inspect
import json
import sys

from .bench import run_bench
from .budget import DIVERSITY_METHODS, MU_PRESETS, CompressConfig, allocate_budget
from .costmodel import (
    TEXT_TOKENS,
    estimate_kv_cache_bytes,
    estimate_prefill_flops,
    flops_reduction,
)
from .errors import AdaptokError
from .io_formats import (
    _canonical_json,
    read_saliency,
    read_tokens,
    selection_result_to_json,
    write_saliency,
    write_tokens,
)
from .pipeline import compress
from .prominence import spectral_entropy
from .selection import reduce_head_attention
from .synth import synth_tokens
from .tensor_core import _count

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _mu(text: str) -> float:
    return MU_PRESETS[text] if text in MU_PRESETS else float(text)


def _grid(text: str) -> tuple[int, int, int]:
    # a value that does not split into three integers is a usage error, as
    # for every flag; run_bench checks the parts it gets
    try:
        n, d, t = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NxDxT, three integers, got {text!r}") from None
    return n, d, t


def _add_sigmoid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=_mu, default=None, metavar="NAME|NUMBER",
                   help=f"sigmoid midpoint: a number or a preset {sorted(MU_PRESETS)}")
    p.add_argument("--tau", type=float, default=None, help="sigmoid smoothness")


def _given(args, *names: str) -> dict:
    """The flags ``names`` given, as keyword arguments: a flag left out is None,
    and keeps the default of the function the arguments go to."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptok",
        description="Entropy-adaptive visual token subset selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="spectral entropy of a token file")
    p.add_argument("--tokens", required=True, help="input PTM1 token file")
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
    p.add_argument("--diversity", dest="diversity_method", choices=DIVERSITY_METHODS,
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

    p = sub.add_parser("bench", help="latency percentiles of every selector over (N,d,T) grids")
    default_grid = inspect.signature(run_bench).parameters["grid"].default
    p.add_argument("--grid", type=_grid, action="append", default=None, metavar="NxDxT",
                   help="N tokens of dimension d at budget T, like 576x1024x64 "
                        "(repeatable; default: "
                        f"{' and '.join('x'.join(map(str, e)) for e in default_grid)})")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("flops", help="prefill FLOPs / KV-cache cost model")
    p.add_argument("--seq-visual", type=int, required=True, help="visual tokens in the prefill")
    p.add_argument("--text-tokens", type=int, default=TEXT_TOKENS,
                   help="prompt length (default: %(default)s)")
    p.add_argument("--baseline-seq", type=int, default=None,
                   help="uncompressed visual length to report the reduction against")
    p.add_argument("--out", default=None)

    return parser


def _cmd_entropy(args) -> int:
    report = spectral_entropy(read_tokens(args.tokens))
    _emit(_canonical_json(dataclasses.asdict(report)), args.out)
    return 0


def _cmd_allocate(args) -> int:
    tokens = read_tokens(args.tokens)
    config = CompressConfig(total_budget=args.budget, **_given(args, "mu", "tau"))
    _count(config.total_budget, "total_budget", most=len(tokens))  # as compress refuses T > n
    report = spectral_entropy(tokens)
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
    config = CompressConfig(args.budget, **_given(args, "mu", "tau", "diversity_method"))
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


def _cmd_bench(args) -> int:
    _emit(_canonical_json(run_bench(**_given(args, "grid", "repeats", "seed"))), args.out)
    return 0


def _cmd_flops(args) -> int:
    flops = estimate_prefill_flops(args.seq_visual, args.text_tokens)
    kv_bytes = estimate_kv_cache_bytes(args.seq_visual)
    doc = {
        "model": "llava-next-7b",
        "seq_visual": args.seq_visual,
        "text_tokens": args.text_tokens,
        "flops": flops,
        "tflops": flops / 1e12,
        "kv_cache_bytes": kv_bytes,
        "kv_cache_mb": kv_bytes / 2**20,
    }
    if args.baseline_seq is not None:
        doc["baseline_seq"] = args.baseline_seq
        doc["flops_reduction"] = flops_reduction(
            args.baseline_seq, args.seq_visual, args.text_tokens
        )
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
