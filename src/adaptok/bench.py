"""Timing harness: runs the pipeline over (N, d, T) grids and reports
latency percentiles of each span ``compress`` records."""

import numpy as np

from .budget import CompressConfig
from .errors import InvalidInputError
from .pipeline import compress
from .synth import subseed_rng, synth_tokens
from .tensor_core import _count

# k_directions of each repeat, in turn (capped at min(n, d)).  With
# synth_tokens seed 1 they give t_cov 3, 29, 55 and 62 of T=64 at 576x1024,
# and 4, 42, 155 and 282 of T=320 at 2880x1024: every split kind.
K_DIRECTIONS = (10, 14, 18, 24)


def _percentiles(values: list[float]) -> dict:
    return {
        "n": len(values),
        "p50_us": float(np.percentile(values, 50)),
        "p90_us": float(np.percentile(values, 90)),
        "max_us": float(max(values)),
    }


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
    return tuple(_count(v, name, 1, error=InvalidInputError) for v, name in zip((n, d, t), "ndT"))


def run_bench(
    grid: list[tuple[int, int, int]], repeats: int = 5, seed: int = 0, **settings
) -> dict:
    """Time ``compress`` over each (n_tokens, dim, budget) configuration.

    ``settings`` are ``CompressConfig`` keyword arguments (``mu``, ``tau``,
    ``diversity_method``); the ones left out keep its defaults.  Each
    configuration gets one untimed warmup, then ``repeats`` timed runs on
    per-repeat sub-seeded data, whose k_directions cycles through
    ``K_DIRECTIONS`` so the timings cover saliency-heavy, midpoint and
    coverage-heavy splits; ``splits`` counts the timed repeats of each kind.
    Each span path gets percentiles over the ``n`` repeats that ran it
    (t_cov > 0 for a selector's).
    """
    report = {
        "seed": _count(seed, "seed", 0, error=InvalidInputError),
        "repeats": _count(repeats, "repeats", 1, error=InvalidInputError),
        "k_directions": list(K_DIRECTIONS),
        "configs": [],
    }
    grid = [_grid_entry(entry) for entry in grid]  # all checked before any is timed
    for cfg_idx, (n, d, t) in enumerate(grid):
        config = CompressConfig(total_budget=t, **settings)
        samples: dict[str, list[float]] = {}
        splits = dict.fromkeys(("saliency_heavy", "midpoint", "coverage_heavy"), 0)

        for rep in range(-1, repeats):
            rng = subseed_rng(seed, cfg_idx * 10_000 + rep + 1)
            k = min(K_DIRECTIONS[rep % len(K_DIRECTIONS)], n, d)
            tokens, saliency = synth_tokens(n, d, k, 1e-3, rng)
            result = compress(tokens, saliency, config)
            if rep < 0:
                continue  # warmup
            splits[_split_kind(result.split.t_cov, t)] += 1
            for path, us in result.timings_us.items():
                samples.setdefault(path, []).append(us)

        report["configs"].append({
            "n_tokens": n, "dim": d, "budget": t, "splits": splits,
            "total": _percentiles(samples.pop("total")),
            "phases": {path: _percentiles(us) for path, us in samples.items()},
        })
    return report
