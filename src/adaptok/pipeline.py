"""End-to-end compression: entropy -> budget split -> two-stage selection.

``compress`` measures the sample's spectral entropy, splits the budget,
keeps the top-saliency tokens (stage 1), completes the set with a
diversity selector over the residual pool (stage 2), and returns the union
with per-index provenance.  Passing ``t_sal`` forces the split instead, for
fixed-allocation baselines; everything after the split is the same path.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .budget import BudgetSplit, CompressConfig, allocate_budget
from .prominence import EntropyReport, spectral_entropy
from .selection import (
    DEFAULT_JITTER,
    _dpp_kernel,
    _pool_unit_kernel,
    dpp_greedy_map,
    facility_location_select,
    fps_select,
    saliency_topk,
)
from .tensor_core import _count, as_saliency_vector, as_token_matrix

STAGE_SALIENCY = "saliency"
STAGE_COVERAGE = "coverage"


@dataclass
class SelectionResult:
    """Selected token set with provenance and diagnostics.

    ``selected`` is ascending (original spatial order); the greedy order of
    the coverage stage is kept in ``coverage_pick_order``.  ``stage_of`` is
    aligned with ``selected``.  ``diagnostics`` holds deterministic scalars
    only; wall-clock phase timings live in ``timings_us`` and are excluded
    from serialization and equality so repeated runs stay bit-identical.
    """

    selected: np.ndarray
    stage_of: list[str]
    split: BudgetSplit
    entropy: EntropyReport
    coverage_pick_order: np.ndarray
    diagnostics: dict[str, float] = field(default_factory=dict)
    timings_us: dict[str, float] = field(default_factory=dict)

    @property
    def saliency_indices(self) -> np.ndarray:
        return self.selected[[s == STAGE_SALIENCY for s in self.stage_of]]

    @property
    def coverage_indices(self) -> np.ndarray:
        return self.selected[[s == STAGE_COVERAGE for s in self.stage_of]]


def selection_results_equal(a: SelectionResult, b: SelectionResult) -> bool:
    """Deterministic-field equality (timings are run-dependent and ignored)."""
    return (
        np.array_equal(a.selected, b.selected)
        and a.stage_of == b.stage_of
        and a.split == b.split
        and a.entropy == b.entropy
        and np.array_equal(a.coverage_pick_order, b.coverage_pick_order)
        and a.diagnostics == b.diagnostics
    )


def _now_us() -> float:
    return time.perf_counter_ns() / 1e3


def compress(
    tokens, saliency, config: CompressConfig, t_sal: int | None = None
) -> SelectionResult:
    """Run the entropy-adaptive two-stage selection.

    With ``t_sal`` given, the split is forced to (t_sal, T - t_sal) for
    fixed-allocation baselines: the entropy is still computed and reported,
    but it does not influence the split.  ``t_sal`` must be a Python or
    numpy integer in [0, T].
    """
    E = as_token_matrix(tokens)
    s = as_saliency_vector(saliency, n_tokens=E.shape[0])
    T = _count(config.total_budget, "total_budget", most=E.shape[0])
    if t_sal is not None:
        t_sal = _count(t_sal, "t_sal", 0, T)

    t0 = _now_us()
    entropy = spectral_entropy(E)
    t1 = _now_us()
    if t_sal is None:
        split = allocate_budget(entropy.normalized_entropy, config)
    else:
        t_cov = T - t_sal
        split = BudgetSplit(
            t_sal=t_sal,
            t_cov=t_cov,
            normalized_entropy=entropy.normalized_entropy,
            coverage_ratio=t_cov / T,
        )
    t2 = _now_us()
    sal_idx = saliency_topk(s, split.t_sal)
    t3 = _now_us()

    pool = np.setdiff1d(np.arange(E.shape[0], dtype=np.int64), sal_idx, assume_unique=True)
    cov_idx = cov_order = np.empty(0, dtype=np.int64)
    fallback_count = 0
    if split.t_cov > 0:
        # called by their module-global names, so span tracing can
        # interpose on each selector
        if config.diversity_method == "dpp":
            pick = dpp_greedy_map(E, pool, split.t_cov, saliency=s)
        elif config.diversity_method == "fps":
            pick = fps_select(E, pool, split.t_cov)
        else:
            pick = facility_location_select(E, pool, split.t_cov)
        cov_idx, cov_order, fallback_count = pick.indices, pick.pick_order, pick.fallback_count
    t4 = _now_us()

    selected = np.sort(np.concatenate([sal_idx, cov_idx]))
    sal_set = set(sal_idx.tolist())
    stage_of = [STAGE_SALIENCY if i in sal_set else STAGE_COVERAGE for i in selected.tolist()]

    diagnostics = _diagnostics(E, selected, cov_idx)
    diagnostics["stage2_fallback_count"] = float(fallback_count)

    return SelectionResult(
        selected=selected,
        stage_of=stage_of,
        split=split,
        entropy=entropy,
        coverage_pick_order=cov_order,
        diagnostics=diagnostics,
        timings_us={
            "entropy": t1 - t0,
            "allocation": t2 - t1,
            "stage1": t3 - t2,
            "stage2": t4 - t3,
            "total": _now_us() - t0,
        },
    )


def _diagnostics(E: np.ndarray, selected: np.ndarray, cov_idx: np.ndarray) -> dict[str, float]:
    diag: dict[str, float] = {}

    if cov_idx.size:
        sign, logdet = np.linalg.slogdet(_dpp_kernel(E, cov_idx))
        # jittered PSD kernel has det >= jitter^k; a nonpositive sign is LU
        # pathology, so clamp to that floor to keep the value finite
        floor = cov_idx.size * np.log(DEFAULT_JITTER)
        diag["coverage_logdet"] = float(logdet) if sign > 0 else float(floor)
    else:
        diag["coverage_logdet"] = 0.0

    if selected.size >= 2:
        sims = _pool_unit_kernel(E, selected)
        np.fill_diagonal(sims, -np.inf)
        diag["min_pairwise_cosine_distance"] = float(1.0 - sims.max())

    return diag
