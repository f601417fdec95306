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
from .errors import InvalidInputError
from .prominence import EntropyReport, _certifies, _spectral_entropy
from .selection import _SELECTORS, DEFAULT_JITTER, _by_saliency, _pool_unit_kernel, saliency_topk
from .tensor_core import _count, _real, _span, as_saliency_vector, as_token_matrix


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Selected token set with provenance and diagnostics.

    ``selected`` is ascending (original spatial order) over the ``n_tokens``
    rows of E; the greedy order of the coverage stage is kept in
    ``coverage_pick_order``.  The per-stage indices derive from both;
    ``split`` derives from ``config``, ``forced_t_sal`` (None when the
    sigmoid allocated the split) and the entropy's ``low`` end, as
    ``compress`` makes it.
    ``diagnostics`` holds deterministic scalars only, read-only; wall-clock timings in
    ``timings_us`` are left out of serialization and equality, so both are bit-stable.
    ``==`` is identity; ``io_formats.selection_results_equal`` is equality.
    Built, it checks that ``compress`` could return it: ``n_tokens`` is at
    least T; ``forced_t_sal`` is None or in [0, T]; an entropy interval with
    low < high has no ``forced_t_sal`` and certifies the split
    (``prominence._certifies``); ``selected`` is T strictly increasing indices
    in [0, n_tokens), the pick order ``split.t_cov`` distinct ones of them;
    ``_check_diagnostics`` passes.
    Both index sequences are stored as read-only int64 copies.
    The keys of ``timings_us`` are span paths: ``total``, ``validate``,
    ``entropy`` and ``entropy/gram``, then ``entropy/bounds`` when the
    sigmoid allocated the split and ``entropy/eigvalsh`` unless the bounds
    certified it (low == high), ``allocation``, ``stage1``, ``stage2`` and
    ``stage2/pool`` (and, when ``t_cov > 0``, ``stage2/{kernel,greedy}``),
    ``assemble``, ``diagnostics``.
    """

    selected: np.ndarray
    n_tokens: int
    config: CompressConfig
    forced_t_sal: int | None
    entropy: EntropyReport
    coverage_pick_order: np.ndarray
    diagnostics: dict[str, float]
    timings_us: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.config, CompressConfig)
                and isinstance(self.entropy, EntropyReport)):
            raise InvalidInputError("config must be a CompressConfig and entropy an EntropyReport")
        T = self.config.total_budget
        n = _count(self.n_tokens, "n_tokens", T, error=InvalidInputError)
        object.__setattr__(self, "n_tokens", n)
        if self.forced_t_sal is not None:
            forced = _count(self.forced_t_sal, "forced_t_sal", 0, T)
            object.__setattr__(self, "forced_t_sal", forced)
        if self.entropy.low < self.entropy.high and (
            self.forced_t_sal is not None or not _certifies(self.entropy, self.config)
        ):
            raise InvalidInputError(
                "an entropy interval must certify the split, which must not be forced"
            )
        selected = _indices(self.selected, "selected")
        order = _indices(self.coverage_pick_order, "coverage_pick_order")
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "coverage_pick_order", order)
        if selected.size and (selected[0] < 0 or selected[-1] >= n
                              or np.any(np.diff(selected) <= 0)):
            raise InvalidInputError(
                f"selected must be strictly increasing nonnegative indices below n_tokens {n}"
            )
        if selected.size != T:
            raise InvalidInputError("selected must have config.total_budget entries")
        t_cov = self.split.t_cov
        if not order.size == t_cov == len(set(order.tolist()) & set(selected.tolist())):
            raise InvalidInputError(
                "coverage_pick_order is not a permutation of t_cov entries of selected"
            )
        object.__setattr__(self, "diagnostics", _check_diagnostics(self.diagnostics, T, t_cov))

    @property
    def split(self) -> BudgetSplit:
        return _split(self.entropy.normalized_entropy, self.config, self.forced_t_sal)

    @property
    def saliency_indices(self) -> np.ndarray:
        return np.setdiff1d(self.selected, self.coverage_pick_order, assume_unique=True)

    @property
    def coverage_indices(self) -> np.ndarray:
        return np.sort(self.coverage_pick_order)


def _indices(values, name: str) -> np.ndarray:
    # a read-only int64 copy; the negative and out-of-order indices are left to the caller
    try:
        arr = np.array([_count(v, name, error=InvalidInputError) for v in values], dtype=np.int64)
    except (TypeError, OverflowError) as err:  # not iterable, or beyond int64
        raise InvalidInputError(f"{name} must be a sequence of int64 indices: {err}") from None
    arr.flags.writeable = False
    return arr


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
    fixed-allocation baselines: the entropy is still computed exactly and
    reported, but it does not influence the split.  ``t_sal`` must be a
    Python or numpy integer in [0, T].  Without it, the eigensolve runs only
    where the entropy's bounds do not decide the split; where they do, the
    result reports the interval that decided it (see ``prominence``).

    E is validated once, here; at n < d, stage 2 and the diagnostics read
    their cosine kernels from the entropy's Gram E E^T (see ``selection``).

    A core may return fewer than t_cov picks: DPP stops once every remaining
    gain is below ``selection.RANK_FLOOR``, where the pool is rank deficient.
    The slots it leaves go to the unpicked pool tokens by descending
    saliency (ties to the lower index), appended to ``coverage_pick_order``
    after the greedy picks, so the budget contract still holds; their count
    is the ``stage2_fallback_count`` diagnostic.
    """
    timings: dict[str, float] = {}
    with _span("total", timings):
        with _span("validate"):
            if not isinstance(config, CompressConfig):
                raise InvalidInputError(f"config must be a CompressConfig, got {config!r}")
            E = as_token_matrix(tokens)
            s = as_saliency_vector(saliency, n_tokens=E.shape[0])
            T = _count(config.total_budget, "total_budget", most=E.shape[0])
            if t_sal is not None:
                t_sal = _count(t_sal, "t_sal", 0, T)

        with _span("entropy"):
            entropy, G = _spectral_entropy(E, config if t_sal is None else None)
        with _span("allocation"):
            split = _split(entropy.normalized_entropy, config, t_sal)
        with _span("stage1"):
            sal_idx = saliency_topk(s, split.t_sal)

        with _span("stage2"):
            with _span("pool"):
                pool = np.setdiff1d(np.arange(len(E), dtype=np.int64), sal_idx, assume_unique=True)
            if split.t_cov == 0:
                order = np.empty(0, dtype=np.int64)
            else:
                order = _SELECTORS[config.diversity_method](E, pool, split.t_cov, G).pick_order
            fallback_count = split.t_cov - order.size
            if fallback_count:
                rest = np.setdiff1d(pool, order, assume_unique=True)
                order = np.concatenate([order, _by_saliency(s, rest)[:fallback_count]])

        with _span("assemble"):
            selected = np.sort(np.concatenate([sal_idx, order]))
        with _span("diagnostics"):
            diagnostics = _diagnostics(E, G, selected, np.sort(order))
            diagnostics["stage2_fallback_count"] = fallback_count

    return SelectionResult(
        selected=selected,
        n_tokens=E.shape[0],
        config=config,
        forced_t_sal=t_sal,
        entropy=entropy,
        coverage_pick_order=order,
        diagnostics=diagnostics,
        timings_us=timings,
    )


def _diagnostics(E: np.ndarray, G, selected: np.ndarray, cov_idx: np.ndarray) -> dict[str, float]:
    # an empty stage 2's 0x0 kernel has slogdet (1.0, 0.0).  A jittered PSD
    # kernel has det >= jitter^k; a nonpositive sign is LU pathology, so
    # clamp to that floor to keep the value finite
    L = _pool_unit_kernel(E, cov_idx, G)
    L[np.diag_indices(cov_idx.size)] += DEFAULT_JITTER
    sign, logdet = np.linalg.slogdet(L)
    floor = cov_idx.size * np.log(DEFAULT_JITTER)
    diag = {"coverage_logdet": logdet if sign > 0 else floor}

    if selected.size >= 2:
        sims = _pool_unit_kernel(E, selected, G)
        np.fill_diagonal(sims, -np.inf)
        diag["min_pairwise_cosine_distance"] = 1.0 - sims.max()

    return diag


class _CheckedDiagnostics(dict):
    # a checked result's diagnostics: a dict that refuses every mutator, and
    # pickles and deep-copies through its constructor rather than item by item
    def _refuse(self, *args, **kwargs):
        raise TypeError("a SelectionResult's diagnostics are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _check_diagnostics(diagnostics, n_selected: int, t_cov: int) -> dict[str, float]:
    # as floats, if they are the keys compress records, in their ranges
    if not isinstance(diagnostics, dict):
        raise InvalidInputError(f"diagnostics must be a dict, got {diagnostics!r}")
    diag = _CheckedDiagnostics({k: _real(v, k) for k, v in diagnostics.items()})
    keys = {"coverage_logdet", "stage2_fallback_count"}
    if n_selected >= 2:
        keys.add("min_pairwise_cosine_distance")
    if diag.keys() != keys:
        raise InvalidInputError(f"diagnostics keys {sorted(diag)} are not {sorted(keys)}")
    # a cosine distance of unit rows, in [0, 2] up to the rounding of a d-term
    # dot product, about d * 2**-53 (-2.2e-16 is written for exact duplicates)
    distance = diag.get("min_pairwise_cosine_distance", 1.0)
    if not -1e-9 <= distance <= 2.0 + 1e-9:
        raise InvalidInputError(f"min_pairwise_cosine_distance {distance} is outside [0, 2]")
    count = diag["stage2_fallback_count"]
    if not (count.is_integer() and 0 <= count <= t_cov):
        raise InvalidInputError(f"stage2_fallback_count {count} is not an integer in [0, t_cov]")
    return diag
