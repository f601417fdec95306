"""Token subset selectors: saliency top-k and diversity completion.

Stage 1 keeps the highest-saliency tokens.  Stage 2 picks a diverse subset
from the residual pool with one of three interchangeable cores, chosen by
``CompressConfig.diversity_method`` through ``_SELECTORS``:

* ``_dpp_greedy`` — greedy log-determinant maximization over the cosine
  kernel, using incremental Cholesky-style residual updates.
* ``_fps`` — farthest point sampling under the cosine distance
  d(i,j) = 1 - e_i . e_j on normalized features.
* ``_facility_location`` — lazy (accelerated) greedy maximization of the
  coverage objective F(S) = sum_i max_{j in S} s(i,j) with
  s = (cos + 1) / 2, re-evaluating only the candidates on top of a heap of
  stale gain bounds, a few rows per matrix op.

``compress`` is the one entry to stage 2: it validates E, the saliency and
the budget, and runs a core on the pool stage 1 leaves.  To run stage 2
over rows of one's own, pass them to ``compress`` with ``t_sal=0``; at
n < d their kernel then comes from their own Gram, not from a block of a
larger one, so a near-tie may break otherwise.

DPP and facility location read the cosine kernel of the pool rows E[idx] by
one rule, ``_pool_unit_kernel``: at n < d a block of the entropy's token Gram
G = E E^T scaled by w_a w_b, w = 1 / (sqrt(diag G) + eps); at n >= d, where G
is None, ``unit @ unit.T``.  FPS computes one row per pick instead: bitwise
that rule's row at n < d, but at n >= d a product that need not round as it.

Ties are always broken toward the lowest token index, so every selector is
deterministic.  For facility location, ties are judged on the gains as the
lazy greedy sums them: exactly duplicated tokens tie in exact arithmetic, so
which copy wins may differ from a greedy that sums in another order.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    DEFAULT_EPSILON,
    _check_scores,
    _count,
    _matrix,
    _normalize_rows_raw,
    _span,
    as_saliency_vector,
)

# Diagonal jitter keeps the incremental updates stable on collinear pools;
# marginal gains below RANK_FLOOR mean the kernel's numerical rank is
# exhausted and further determinant maximization is uninformative.  The
# jitter equals the floor, so a gain falls below it only by rounding.
DEFAULT_JITTER = 1e-10
RANK_FLOOR = 1e-10

# Stale facility-location bounds re-evaluated per row op; 8 measured fastest
# at a 576-token pool (see _facility_location).
_FL_STALE_BATCH = 8


@dataclass(frozen=True, eq=False)
class DiversityPick:
    """Output of a diversity selector.

    ``indices`` is the selected set in ascending token order; ``pick_order``
    records the greedy selection sequence; ``gains`` holds the per-step
    objective gain (log-determinant gain for DPP, max-min distance for FPS,
    marginal coverage for facility location).  ``fallback_count`` is the
    number of slots filled past the kernel's numerical rank (DPP only).
    ``==`` and ``hash`` are by identity, as arrays have no single truth value.
    """

    pick_order: np.ndarray
    gains: np.ndarray
    fallback_count: int

    @property
    def indices(self) -> np.ndarray:
        return np.sort(self.pick_order)


def _pick(
    idx: np.ndarray, picked: list[int], gains: list[float], fallback_count: int = 0
) -> DiversityPick:
    """DiversityPick from pool positions ``picked`` in greedy order."""
    order = idx[np.asarray(picked, dtype=np.int64)]
    return DiversityPick(
        pick_order=order,
        gains=np.asarray(gains, dtype=np.float64),
        fallback_count=fallback_count,
    )


def reduce_head_attention(head_scores) -> np.ndarray:
    """Average per-head per-token attention scores across heads.

    Each row is one head's attention over the tokens: its CLS-to-token row,
    or, for encoders without a CLS token, the column-mean attention each
    token receives.  Either way the reduction is the mean over heads.
    """
    A = _matrix(head_scores, "head scores")
    # per-head entries, not just the mean, must be valid scores
    _check_scores(A, "head scores")
    with np.errstate(over="ignore"):  # finite scores can sum past float64
        mean = A.mean(axis=0)
    _check_scores(mean, "the mean over heads")
    return mean


def saliency_topk(saliency, k: int) -> np.ndarray:
    """Indices of the k largest saliency scores, ascending, ties to lower index."""
    s = as_saliency_vector(saliency)
    k = _count(k, "k", 0, s.shape[0])
    if k == 0:
        return np.empty(0, dtype=np.int64)
    # stable sort on negated scores keeps the lower index first among ties
    order = np.argsort(-s, kind="stable")
    return np.sort(order[:k]).astype(np.int64)


def _inv_norms(G: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return 1.0 / (np.sqrt(np.diag(G)[idx]) + DEFAULT_EPSILON)


def _pool_unit_kernel(E: np.ndarray, idx: np.ndarray, G: np.ndarray | None) -> np.ndarray:
    """Cosine kernel of the rows E[idx]: bitwise symmetric PSD, unit
    diagonal for nonzero rows, zero row and column for zero rows.

    E and idx are already validated, and G is ``_spectral_entropy(E)[1]``.
    At n < d it is G[idx][:, idx] * outer(w, w), w = 1 / (sqrt(diag G[idx]) +
    DEFAULT_EPSILON): one product with a symmetric matrix keeps it bitwise
    symmetric.  At n >= d it is unit @ unit.T over the normalized rows, which
    the BLAS symmetric rank-k update returns bitwise symmetric.  Both are
    covered by regression tests, C order too: facility location reads rows.
    """
    if G is None:
        unit = _normalize_rows_raw(E, idx)
        return unit @ unit.T
    w = _inv_norms(G, idx)
    return G[idx].take(idx, axis=1) * np.multiply.outer(w, w)  # G[idx][:, idx] is F order


def _dpp_kernel(E: np.ndarray, idx: np.ndarray, G: np.ndarray | None) -> np.ndarray:
    """Pool cosine kernel plus DEFAULT_JITTER, read at call time, on the diagonal."""
    L = _pool_unit_kernel(E, idx, G)
    L[np.diag_indices(idx.size)] += DEFAULT_JITTER
    return L


def _dpp_greedy(E, idx, k, G, saliency) -> DiversityPick:
    """Greedy MAP selection of k tokens maximizing log det of the cosine kernel.

    Implements the fast greedy algorithm with incremental Cholesky-style
    updates: after each pick the residual squared diagonal d_i^2 equals the
    marginal determinant gain of candidate i, so each step over a pool of m
    costs O(k * m) instead of a fresh determinant per candidate.  Selection
    order matches a naive greedy that recomputes full determinants (ties to
    lowest index).

    When every remaining gain falls below RANK_FLOOR the pool is rank
    deficient; remaining slots are filled by descending ``saliency`` (ties
    to the lower index) so the budget contract still holds.  A residual
    jittered by DEFAULT_JITTER (equal to RANK_FLOOR) is at least the jitter
    in exact arithmetic, so this fill runs only when rounding pushes a
    residual below the floor.  Otherwise a rank-deficient pool goes on
    picking greedily at gains near log(DEFAULT_JITTER): an 8x2 pool with
    k=6 fills no slot and its last gains are about -22, and zero rows are
    picked in index order at log(1e-10).
    """
    with _span("kernel"):
        L = _dpp_kernel(E, idx, G)
    with _span("greedy"):
        cis = np.zeros((k, idx.size))
        di2 = np.diag(L).copy()
        picked: list[int] = []
        gains: list[float] = []

        for step in range(k):
            # selected entries are masked in place with -inf, so the argmax
            # runs straight over di2 without a temporary per step
            j = int(np.argmax(di2))
            best = di2[j]
            if best < RANK_FLOOR:
                break
            gains.append(float(np.log(best)))
            picked.append(j)
            di2[j] = -np.inf
            if step < k - 1:
                ci = cis[:step, j]
                eis = (L[j] - ci @ cis[:step]) / math.sqrt(best)
                cis[step] = eis
                di2 -= np.square(eis)

        # the unpicked positions (those not masked with -inf) fill the slots
        # left past the rank; the stable sort breaks saliency ties toward the
        # lower index
        fallback_count = k - len(picked)
        if fallback_count:
            fill = np.flatnonzero(di2 != -np.inf)
            fill = fill[np.argsort(-saliency[idx[fill]], kind="stable")]
            picked += fill[:fallback_count].tolist()
        return _pick(idx, picked, gains, fallback_count)


def _fps(E, idx, k, G, saliency) -> DiversityPick:
    """Farthest point sampling over the pool under d(i,j) = 1 - e_i . e_j.

    Starts from the pool's lowest index, then repeatedly picks the candidate
    whose minimum distance to the selected set is largest; ties to lowest
    index.  ``gains`` records that max-min distance per pick (inf for the
    seed).
    """
    with _span("kernel"):
        if G is None:
            unit = _normalize_rows_raw(E, idx)
        else:
            w = _inv_norms(G, idx)

    def cosines(j):  # at n < d bitwise row j of _pool_unit_kernel, as G is symmetric
        return unit @ unit[j] if G is None else G[idx[j], idx] * (w * w[j])

    with _span("greedy"):
        picked = [0]
        gains = [np.inf]
        min_dist = 1.0 - cosines(0)
        min_dist[0] = -np.inf

        while len(picked) < k:
            j = int(np.argmax(min_dist))
            picked.append(j)
            gains.append(float(min_dist[j]))
            min_dist = np.minimum(min_dist, 1.0 - cosines(j))
            min_dist[j] = -np.inf

        return _pick(idx, picked, gains)


def _facility_location(E, idx, k, G, saliency) -> DiversityPick:
    """Lazy-greedy facility location over s(i,j) = clip((e_i . e_j + 1) / 2, 0, 1).

    Maximizes F(S) = sum_{i in pool} max_{j in S} s(i,j) with unit weights:
    each step adds the candidate with the largest marginal coverage gain,
    ties to the lowest pool position (lowest token index).  ``gains`` holds
    the marginal gains, so gains.sum() == F(S).

    Accelerated greedy (Minoux 1978): by submodularity a candidate's gain
    can only shrink as the cover grows, so a gain computed at an earlier
    step is an upper bound now.  Candidates wait in a heap of ``(-bound,
    position, step computed)``, and the top one is picked once its bound is
    current, so among equal gains the lowest position wins.  While the top
    is stale, up to ``_FL_STALE_BATCH`` stale entries are popped from the
    top and re-evaluated in one row op, then pushed back.  Every bound
    stays an upper bound and the re-evaluated ones are exact, so the pick
    is the one a loop re-evaluating one row at a time makes, bit for bit:
    each row of the batched sum equals that row's own sum.  At a CLIP-sized
    pool one row op is mostly call overhead, which the batch shares; at
    2880 tokens the loop is bound by memory bandwidth and batching neither
    helps nor hurts.  The picks are those of the dense greedy that
    re-evaluates every candidate at every step, except for exactly
    duplicated tokens: their gains tie in exact arithmetic, the dense and
    lazy sums round in a different order, and the two may pick different
    copies of a duplicate, with the same F(S) up to rounding.
    """
    with _span("kernel"):
        # in place: no m x m temporaries beyond the kernel itself
        sim = _pool_unit_kernel(E, idx, G)
        sim += 1.0
        sim *= 0.5
        np.clip(sim, 0.0, 1.0, out=sim)

    with _span("greedy"):
        # step-1 gains are exact (the cover is empty), so every bound starts
        # current; sim is bitwise symmetric, so sim[j] is candidate j's column
        heap = [(-g, j, 0) for j, g in enumerate(sim.sum(axis=0).tolist())]
        heapq.heapify(heap)
        cover = np.zeros(idx.size)
        picked: list[int] = []
        gains: list[float] = []

        for step in range(k):
            while heap[0][2] != step:
                stale = [heapq.heappop(heap)[1]]
                while len(stale) < _FL_STALE_BATCH and heap and heap[0][2] != step:
                    stale.append(heapq.heappop(heap)[1])
                # each row of the batched sum is bitwise that row's 1-D sum (tested)
                fresh = np.maximum(sim[stale] - cover, 0.0).sum(axis=1)
                for j, gain in zip(stale, fresh.tolist()):
                    heapq.heappush(heap, (-gain, j, step))
            neg_gain, j, _ = heapq.heappop(heap)
            picked.append(j)
            gains.append(-neg_gain)
            np.maximum(cover, sim[j], out=cover)

        return _pick(idx, picked, gains)


# compress's stage 2 by diversity method, whose keys are budget.DIVERSITY_METHODS:
# each core takes validated (E, pool, k >= 1), _spectral_entropy(E)[1] and the
# saliency, which only DPP's rank fill reads
_SELECTORS = {"dpp": _dpp_greedy, "fps": _fps, "facility_location": _facility_location}
