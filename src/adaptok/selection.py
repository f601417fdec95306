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
the budget, runs a core for k picks on the pool stage 1 leaves, and fills
any slots the core leaves by saliency.  A core ``(E, pool, k, G)`` returns
at most k picks, each with its gain, and only DPP stops short, once the
kernel's numerical rank is exhausted.  To run stage 2 over rows of one's
own, pass them to ``compress`` with ``t_sal=0``; at n < d their kernel
then comes from their own Gram, not from a block of a larger one, so a
near-tie may break otherwise.

Every core reads the cosine kernel of the pool rows E[idx]: at n < d from
the entropy's token Gram G = E E^T scaled by w_a w_b, w = 1 / (sqrt(diag G)
+ eps), and at n >= d, where G is None, from the normalized rows ``unit``.
DPP and FPS read only the rows of their k picks, and DPP its diagonal too,
by one row-source rule (``_kernel_rows``): rows of G at n < d; at n >= d
one product ``unit @ unit[j]`` per pick while k * _ROW_PICK_COST < m, the
pool size, and otherwise the rows of the whole ``unit @ unit.T``.  Facility
location evaluates thousands of rows even at small k, so it builds the
whole kernel (``_pool_unit_kernel``).  The two products at n >= d need not
round alike, so the source a call takes can break a near-tie.

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
# jitter equals the floor, and a jittered residual is at least the jitter in
# exact arithmetic, so DPP stops short only when rounding pushes a residual
# below the floor.  Otherwise a rank-deficient pool goes on picking greedily
# at gains near log(DEFAULT_JITTER): an 8x2 pool with k=6 makes all 6 picks,
# its last gains about -22, and zero rows are picked in index order at
# log(1e-10).
DEFAULT_JITTER = 1e-10
RANK_FLOOR = 1e-10

# The pool size m per pick at which k row products cost as much as the whole
# kernel (see _kernel_rows).  Both costs scale with d; at 2880x1024 the DPP
# and FPS stage 2 broke even at t_cov 180-200 on pools of about 2750 rows.
_ROW_PICK_COST = 14

# Stale facility-location bounds re-evaluated per row op; 8 measured fastest
# at a 576-token pool (see _facility_location).
_FL_STALE_BATCH = 8


@dataclass(frozen=True, eq=False)
class DiversityPick:
    """Output of a diversity selector.

    ``pick_order`` records the selected tokens in greedy selection sequence;
    ``gains`` holds the per-step objective gain (log-determinant gain for
    DPP, max-min distance for FPS, marginal coverage for facility location),
    one per pick.  ``==`` and ``hash`` are by identity, as arrays have no
    single truth value.
    """

    pick_order: np.ndarray
    gains: np.ndarray


def _pick(idx: np.ndarray, picked: list[int], gains: list[float]) -> DiversityPick:
    """DiversityPick from pool positions ``picked`` in greedy order."""
    order = idx[np.asarray(picked, dtype=np.int64)]
    return DiversityPick(pick_order=order, gains=np.asarray(gains, dtype=np.float64))


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
    return np.sort(_by_saliency(s, np.arange(s.shape[0], dtype=np.int64))[:k])


def _by_saliency(s: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The ascending indices ``idx`` by descending saliency, ties to the lower
    index: a stable sort on the negated scores keeps the index order among ties."""
    return idx[np.argsort(-s[idx], kind="stable")]


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


def _kernel_rows(E: np.ndarray, idx: np.ndarray, k: int, G: np.ndarray | None):
    """(diag, row) of the cosine kernel of the rows E[idx], as a greedy of k
    picks reads it, by the module's row-source rule: ``diag()`` computes the
    diagonal as a fresh array, which only DPP reads, and ``row(j)`` is row j,
    whose own entry may differ from ``diag()[j]`` (a greedy masks j once
    picked and never reads it).  At n < d both are bitwise those of
    ``_pool_unit_kernel``.  At n >= d, k products ``unit @ unit[j]`` stream
    ``unit`` k times (k*m*d, bound by memory bandwidth), against m*m*d/2 at
    full speed for ``unit @ unit.T``.
    """
    if G is not None:
        w = _inv_norms(G, idx)
        return lambda: np.diag(G)[idx] * (w * w), lambda j: G[idx[j], idx] * (w * w[j])
    if k * _ROW_PICK_COST < idx.size:
        unit = _normalize_rows_raw(E, idx)
        return lambda: np.einsum("ij,ij->i", unit, unit), lambda j: unit @ unit[j]
    L = _pool_unit_kernel(E, idx, None)
    return lambda: np.diag(L).copy(), L.__getitem__


def _dpp_greedy(E, idx, k, G) -> DiversityPick:
    """Greedy MAP selection of up to k tokens maximizing log det of the cosine kernel.

    Implements the fast greedy algorithm with incremental Cholesky-style
    updates (Chen et al., NeurIPS 2018): after each pick the residual
    squared diagonal d_i^2 equals the marginal determinant gain of candidate
    i, so each step over a pool of m costs O(k * m) instead of a fresh
    determinant per candidate.  It reads only the kernel's diagonal, plus
    DEFAULT_JITTER, and the row of each pick, from ``_kernel_rows``'s one
    row-source rule.  Selection order matches a naive greedy that recomputes
    full determinants of the kernel those rows make (ties to lowest index).

    Once the best remaining gain falls below RANK_FLOOR the pool is rank
    deficient, and it returns the picks made so far, as Chen et al.'s
    greedy stops when the residual falls below its epsilon; ``compress``
    fills the slots it leaves.
    """
    with _span("kernel"):
        diag, row = _kernel_rows(E, idx, k, G)
        di2 = diag()
        di2 += DEFAULT_JITTER
    with _span("greedy"):
        cis = np.zeros((k, idx.size))
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
                eis = (row(j) - ci @ cis[:step]) / math.sqrt(best)
                cis[step] = eis
                di2 -= np.square(eis)

        return _pick(idx, picked, gains)


def _fps(E, idx, k, G) -> DiversityPick:
    """Farthest point sampling over the pool under d(i,j) = 1 - e_i . e_j.

    Starts from the pool's lowest index, then repeatedly picks the candidate
    whose minimum distance to the selected set is largest; ties to lowest
    index.  It reads the kernel row of each pick from ``_kernel_rows``'s
    one row-source rule, as DPP does, but not the diagonal.  ``gains``
    records that max-min distance per pick (inf for the seed).
    """
    with _span("kernel"):
        _, row = _kernel_rows(E, idx, k, G)

    with _span("greedy"):
        picked = [0]
        gains = [np.inf]
        min_dist = 1.0 - row(0)
        min_dist[0] = -np.inf

        while len(picked) < k:
            j = int(np.argmax(min_dist))
            picked.append(j)
            gains.append(float(min_dist[j]))
            min_dist = np.minimum(min_dist, 1.0 - row(j))
            min_dist[j] = -np.inf

        return _pick(idx, picked, gains)


def _facility_location(E, idx, k, G) -> DiversityPick:
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
# each core takes validated (E, pool, k >= 1) and _spectral_entropy(E)[1], and
# returns at most k picks, one gain each; compress fills the rest by saliency
_SELECTORS = {"dpp": _dpp_greedy, "fps": _fps, "facility_location": _facility_location}
