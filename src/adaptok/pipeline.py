"""End-to-end compression: entropy -> budget split -> two-stage selection.

``compress`` measures the sample's spectral entropy, splits the budget,
keeps the top-saliency tokens (stage 1), completes the set with a
diversity selector over the residual pool (stage 2), and returns the union
with per-index provenance.  Passing ``t_sal`` forces the split instead, for
fixed-allocation baselines; everything after the split is the same path.
"""

from dataclasses import dataclass, field

import numpy as np

from .budget import BudgetSplit, CompressConfig, allocate_budget
from .prominence import EntropyReport, _spectral_entropy
from .selection import (
    _SELECTORS, DEFAULT_JITTER, _dpp_kernel, _pick, _pool_unit_kernel, saliency_topk
)
from .tensor_core import _count, _span, as_saliency_vector, as_token_matrix

STAGE_SALIENCY = "saliency"
STAGE_COVERAGE = "coverage"


@dataclass(eq=False)
class SelectionResult:
    """Selected token set with provenance and diagnostics.

    ``selected`` is ascending (original spatial order); the greedy order of
    the coverage stage is kept in ``coverage_pick_order``.  ``stage_of``,
    aligned with ``selected``, and the per-stage indices derive from both;
    ``split`` derives from ``config``, ``forced_t_sal`` (None when the
    sigmoid allocated the split) and the entropy, as ``compress`` makes it.
    ``diagnostics`` holds deterministic scalars only; wall-clock timings in
    ``timings_us`` are left out of serialization and equality, so both are bit-stable.
    ``==`` is identity; ``io_formats.selection_results_equal`` is equality.
    The keys of ``timings_us`` are span paths: ``total``, ``validate``,
    ``entropy`` and ``entropy/{gram,eigvalsh}``, ``allocation``,
    ``stage1``, ``stage2`` and ``stage2/pool`` (and, when ``t_cov > 0``,
    ``stage2/{kernel,greedy}``), ``assemble``, ``diagnostics``.
    """

    selected: np.ndarray
    config: CompressConfig
    forced_t_sal: int | None
    entropy: EntropyReport
    coverage_pick_order: np.ndarray
    diagnostics: dict[str, float] = field(default_factory=dict)
    timings_us: dict[str, float] = field(default_factory=dict)

    @property
    def split(self) -> BudgetSplit:
        return _split(self.entropy.normalized_entropy, self.config, self.forced_t_sal)

    @property
    def stage_of(self) -> list[str]:
        is_cov = np.isin(self.selected, self.coverage_pick_order).tolist()
        return [STAGE_COVERAGE if c else STAGE_SALIENCY for c in is_cov]

    @property
    def saliency_indices(self) -> np.ndarray:
        return np.setdiff1d(self.selected, self.coverage_pick_order, assume_unique=True)

    @property
    def coverage_indices(self) -> np.ndarray:
        return np.sort(self.coverage_pick_order)


def _split(h: float, config: CompressConfig, forced_t_sal: int | None) -> BudgetSplit:
    # the sigmoid's split of the entropy h, or the forced (t_sal, T - t_sal)
    if forced_t_sal is None:
        return allocate_budget(h, config)
    t_cov = config.total_budget - forced_t_sal
    return BudgetSplit(forced_t_sal, t_cov, h, t_cov / config.total_budget)


def compress(
    tokens, saliency, config: CompressConfig, t_sal: int | None = None
) -> SelectionResult:
    """Run the entropy-adaptive two-stage selection.

    With ``t_sal`` given, the split is forced to (t_sal, T - t_sal) for
    fixed-allocation baselines: the entropy is still computed and reported,
    but it does not influence the split.  ``t_sal`` must be a Python or
    numpy integer in [0, T].

    E is validated once, here; at n < d, stage 2 and the diagnostics read
    their cosine kernels from the entropy's Gram E E^T (see ``selection``).
    """
    timings: dict[str, float] = {}
    with _span("total", timings):
        with _span("validate"):
            E = as_token_matrix(tokens)
            s = as_saliency_vector(saliency, n_tokens=E.shape[0])
            T = _count(config.total_budget, "total_budget", most=E.shape[0])
            if t_sal is not None:
                t_sal = _count(t_sal, "t_sal", 0, T)

        with _span("entropy"):
            entropy, G = _spectral_entropy(E)
        with _span("allocation"):
            split = _split(entropy.normalized_entropy, config, t_sal)
        with _span("stage1"):
            sal_idx = saliency_topk(s, split.t_sal)

        with _span("stage2"):
            with _span("pool"):
                pool = np.setdiff1d(np.arange(len(E), dtype=np.int64), sal_idx, assume_unique=True)
            if split.t_cov == 0:
                pick = _pick(pool, [], [])
            else:
                pick = _SELECTORS[config.diversity_method](E, pool, split.t_cov, G, s)

        with _span("assemble"):
            selected = np.sort(np.concatenate([sal_idx, pick.pick_order]))
        with _span("diagnostics"):
            diagnostics = _diagnostics(E, G, selected, pick.indices)
            diagnostics["stage2_fallback_count"] = float(pick.fallback_count)

    return SelectionResult(
        selected=selected,
        config=config,
        forced_t_sal=t_sal,
        entropy=entropy,
        coverage_pick_order=pick.pick_order,
        diagnostics=diagnostics,
        timings_us=timings,
    )


def _diagnostics(E: np.ndarray, G, selected: np.ndarray, cov_idx: np.ndarray) -> dict[str, float]:
    diag: dict[str, float] = {}

    if cov_idx.size:
        sign, logdet = np.linalg.slogdet(_dpp_kernel(E, cov_idx, G))
        # jittered PSD kernel has det >= jitter^k; a nonpositive sign is LU
        # pathology, so clamp to that floor to keep the value finite
        floor = cov_idx.size * np.log(DEFAULT_JITTER)
        diag["coverage_logdet"] = float(logdet) if sign > 0 else float(floor)
    else:
        diag["coverage_logdet"] = 0.0

    if selected.size >= 2:
        sims = _pool_unit_kernel(E, selected, G)
        np.fill_diagonal(sims, -np.inf)
        diag["min_pairwise_cosine_distance"] = float(1.0 - sims.max())

    return diag
