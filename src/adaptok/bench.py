"""Timing harness: runs every stage-2 selector over (N, d, T) grids and
reports latency percentiles of each span ``compress`` records, with the
host they ran on (``host_fingerprint``)."""

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

from .budget import DIVERSITY_METHODS, CompressConfig
from .errors import InvalidInputError
from .pipeline import compress
from .synth import subseed_rng, synth_tokens
from .tensor_core import _count

# k_directions of each repeat, in turn (capped at min(n, d)).  They give
# t_cov 3, 29, 55 and 62 of T=64 at 576x1024, and 4, 42, 155 and 282 of
# T=320 at 2880x1024, under every seed measured (0-5): every split kind.
K_DIRECTIONS = (10, 14, 18, 24)


def _percentiles(values: list[float]) -> dict:
    return {
        "n": len(values),
        "p50_us": float(np.percentile(values, 50)),
        "p90_us": float(np.percentile(values, 90)),
        "max_us": float(max(values)),
    }


def _spans(runs: list[dict]) -> dict:
    """``total`` and ``phases``: percentiles of each span path over the
    ``timings_us`` of the runs that recorded it."""
    paths: dict[str, list[float]] = {}
    for timings in runs:
        for path, us in timings.items():
            paths.setdefault(path, []).append(us)
    return {"total": _percentiles(paths.pop("total")),
            "phases": {path: _percentiles(us) for path, us in paths.items()}}


def _split_kind(t_cov: int, budget: int) -> str:
    # saliency-heavy below a quarter of the budget, coverage-heavy above three
    if 4 * t_cov < budget:
        return "saliency_heavy"
    return "coverage_heavy" if 4 * t_cov > 3 * budget else "midpoint"


def _grid_entry(entry) -> tuple[int, int, int]:
    try:
        n, d, t = entry
    except (TypeError, ValueError):
        raise InvalidInputError(f"grid entries are (n, d, T), got {entry!r}") from None
    n, d = (_count(v, name, 1, error=InvalidInputError) for v, name in zip((n, d), "nd"))
    return n, d, _count(t, "T", 1, n)  # InvalidBudgetError, as compress refuses a budget


def _openblas():
    # (corename, threads) getters of the OpenBLAS bundled with numpy, found
    # by one lookup: numpy 2 prefixes its symbols with scipy_, and a 64-bit
    # integer build suffixes them with 64_
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    return corename, getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
    return None, None


def host_fingerprint() -> dict:
    """The host facts timings and output bytes depend on; a fact that cannot
    be found is None (numpy before 1.26 has no ``show_config(mode="dicts")``)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    corename, threads = _openblas()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_corename": corename().decode() if corename else None,
        "blas_threads": threads() if threads else None,
        "nproc": nproc,
    }


def run_bench(
    grid=((576, 1024, 64), (576, 1024, 128)), repeats: int = 5, seed: int = 0
) -> dict:
    """Time ``compress`` with each selector over each (n_tokens, dim, budget).

    The default grid is the paper's CLIP shape at T = 64 and 128.
    Every selector runs at ``CompressConfig``'s default mu and tau.  Each
    grid entry gets one untimed warmup, then ``repeats`` timed runs on
    per-repeat sub-seeded data, whose k_directions cycles through
    ``K_DIRECTIONS``.  The split depends on that k and the shape, not on
    the seed, and the cycle covers saliency-heavy, midpoint and
    coverage-heavy splits at the paper's d = 1024 shapes only: at 128x32
    and 256x64 every repeat is coverage-heavy.  Within a repeat the
    selectors run in turn, in ``DIVERSITY_METHODS`` order, on the same
    input, so host drift falls on all of them alike.  ``configs`` holds one
    entry per (grid entry, selector), in that order.  Each span path gets
    percentiles over the ``n`` repeats that ran it (t_cov > 0 for a
    selector's; a split the entropy's bounds did not certify for
    ``entropy/eigvalsh``): ``total`` and ``phases`` pool every repeat, and
    ``by_split`` holds the same over the repeats of each split kind that ran
    (``_split_kind``), so ``by_split[kind]["total"]["n"]`` counts them.  The
    selector does not change a repeat's split.  ``host`` is the
    ``host_fingerprint``.
    """
    report = {
        "seed": _count(seed, "seed", 0, error=InvalidInputError),
        "repeats": _count(repeats, "repeats", 1, error=InvalidInputError),
        "k_directions": list(K_DIRECTIONS),
        "configs": [],
    }
    try:
        entries = iter(grid)
    except TypeError:
        raise InvalidInputError(f"grid must be a sequence of (n, d, T), got {grid!r}") from None
    grid = [_grid_entry(entry) for entry in entries]  # all checked before any is timed
    report["host"] = host_fingerprint()
    for cfg_idx, (n, d, t) in enumerate(grid):
        # the timings_us of each timed repeat, by selector, then by split kind
        runs: dict[str, dict[str, list[dict]]] = {m: {} for m in DIVERSITY_METHODS}

        for rep in range(-1, repeats):
            rng = subseed_rng(seed, cfg_idx * 10_000 + rep + 1)
            k = min(K_DIRECTIONS[rep % len(K_DIRECTIONS)], n, d)
            tokens, saliency = synth_tokens(n, d, k, 1e-3, rng)
            for method in DIVERSITY_METHODS:
                config = CompressConfig(total_budget=t, diversity_method=method)
                result = compress(tokens, saliency, config)
                if rep >= 0:  # else warmup
                    kind = _split_kind(result.split.t_cov, t)
                    runs[method].setdefault(kind, []).append(result.timings_us)

        for method, by_split in runs.items():
            report["configs"].append({
                "n_tokens": n, "dim": d, "budget": t, "diversity_method": method,
                **_spans([timings for of_kind in by_split.values() for timings in of_kind]),
                "by_split": {kind: _spans(of_kind) for kind, of_kind in by_split.items()},
            })
    return report
