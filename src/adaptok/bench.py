"""Timing harness: runs the pipeline over (N, d, T) grids and reports
latency percentiles of each span ``compress`` records."""

import numpy as np

from .budget import CompressConfig
from .errors import InvalidInputError
from .pipeline import compress
from .synth import subseed_rng, synth_tokens
from .tensor_core import _count


def _percentiles(values: list[float]) -> dict:
    return {
        "n": len(values),
        "p50_us": float(np.percentile(values, 50)),
        "p90_us": float(np.percentile(values, 90)),
        "max_us": float(max(values)),
    }


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
    per-repeat sub-seeded data.  K-directions is varied per repeat so the
    timings cover both saliency- and coverage-heavy splits.  Each span path
    gets percentiles over the ``n`` repeats that ran it (t_cov > 0 for a selector's).
    """
    report = {
        "seed": _count(seed, "seed", 0, error=InvalidInputError),
        "repeats": _count(repeats, "repeats", 1, error=InvalidInputError),
        "configs": [],
    }
    grid = [_grid_entry(entry) for entry in grid]  # all checked before any is timed
    for cfg_idx, (n, d, t) in enumerate(grid):
        config = CompressConfig(total_budget=t, **settings)
        samples: dict[str, list[float]] = {}

        for rep in range(-1, repeats):
            rng = subseed_rng(seed, cfg_idx * 10_000 + rep + 1)
            k = int(rng.integers(1, min(n, d) + 1))
            tokens, saliency = synth_tokens(n, d, k, 1e-3, rng.integers(2**31))
            result = compress(tokens, saliency, config)
            if rep < 0:
                continue  # warmup
            for path, us in result.timings_us.items():
                samples.setdefault(path, []).append(us)

        report["configs"].append({
            "n_tokens": n, "dim": d, "budget": t,
            "total": _percentiles(samples.pop("total")),
            "phases": {path: _percentiles(us) for path, us in samples.items()},
        })
    return report
