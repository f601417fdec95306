"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (plain loops, direct formulas,
full SVD, full determinants).  The greedy oracles that a test compares
with a selector bit for bit (``verify_fps_order``, the two facility-location
greedies and ``dpp_greedy_naive``) read their kernel from the package's one
kernel rule, ``selection._pool_unit_kernel``, so such a test compares two
greedies, not two kernels, with one exception: FPS at n >= d computes its
kernel rows one product at a time, which need not round as that kernel's
rows do, so ``verify_fps_order`` holds exactly there only away from
near-ties (ROADMAP item 9 puts FPS on the kernel's rows).  Everything
else, ``pairwise_cosine_naive`` and the objectives and optima built on it
included, shares no code path with the package; the brute-force DPP
optimum takes only the jitter from it.
"""

import heapq
import math
from itertools import combinations

import numpy as np

from adaptok import as_token_matrix
from adaptok.prominence import _spectral_entropy
from adaptok.selection import _SELECTORS, DEFAULT_JITTER, RANK_FLOOR, _dpp_kernel, _pool_unit_kernel


def triple_loop_gram(E: np.ndarray, side: str) -> np.ndarray:
    """E^T E or E E^T with explicit loops."""
    n, d = E.shape
    if side == "EtE":
        G = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                acc = 0.0
                for r in range(n):
                    acc += E[r, i] * E[r, j]
                G[i, j] = acc
    elif side == "EEt":
        G = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for c in range(d):
                    acc += E[i, c] * E[j, c]
                G[i, j] = acc
    else:
        raise ValueError(side)
    return G


def svd_spectral_entropy(E: np.ndarray) -> tuple[float, float]:
    """(raw, normalized) spectral entropy via a full SVD of E."""
    sv = np.linalg.svd(E, compute_uv=False)
    energy = sv**2
    energy = energy[energy > 1e-12 * energy.max()]
    p = energy / energy.sum()
    raw = float(-(p * np.log(p)).sum())
    r = min(E.shape)
    return raw, (raw / math.log(r) if r > 1 else 0.0)


def scalar_entropy(masses) -> float:
    """Shannon entropy of a mass vector via plain Python floats."""
    total = float(sum(masses))
    acc = 0.0
    for m in masses:
        if m > 0:
            p = float(m) / total
            acc -= p * math.log(p)
    return acc


def feature_norm_entropy(E: np.ndarray) -> float:
    """Normalized entropy of the per-token L2 norms: a signal that, unlike
    the spectral entropy, does not see how many directions the tokens span."""
    n = E.shape[0]
    return scalar_entropy(np.linalg.norm(E, axis=1)) / math.log(n) if n > 1 else 0.0


def sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def topk_by_sort(scores, k: int) -> list[int]:
    """Full sort on (-score, index), then prefix."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def pairwise_cosine_naive(E: np.ndarray, pool, epsilon: float = 1e-12) -> np.ndarray:
    """Per-pair dot products of normalized rows, no matrix products."""
    rows = []
    for i in pool:
        norm = math.sqrt(float(sum(v * v for v in E[i])))
        rows.append([float(v) / (norm + epsilon) for v in E[i]])
    m = len(rows)
    L = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            L[a, b] = sum(x * y for x, y in zip(rows[a], rows[b]))
    return L


def package_kernel(E: np.ndarray, pool) -> np.ndarray:
    """The pool's cosine kernel by the package's rule, as a selector reads it."""
    return _pool_unit_kernel(E, np.asarray(pool, dtype=np.int64), _spectral_entropy(E)[1])


def run_core(method: str, tokens, pool, k: int, saliency=None):
    """The stage-2 core ``method`` over a valid pool (strictly increasing
    row indices) with 1 <= k <= its size, given the entropy's token Gram
    (None at n >= d) as ``compress`` gives it; only DPP's rank fill reads
    ``saliency``."""
    E = as_token_matrix(tokens)
    G = _spectral_entropy(E)[1]
    return _SELECTORS[method](E, np.asarray(pool, dtype=np.int64), k, G, saliency)


def verify_fps_order(E: np.ndarray, pool: np.ndarray, pick_order: np.ndarray) -> bool:
    """Re-check each FPS pick against the max-min definition with a naive pass."""
    pos_of = {int(t): p for p, t in enumerate(pool)}
    dist = 1.0 - package_kernel(E, pool)
    chosen: list[int] = []
    for step, token in enumerate(pick_order):
        pos = pos_of[int(token)]
        if step == 0:
            chosen.append(pos)
            continue
        best_pos, best_val = None, -np.inf
        for cand in range(len(pool)):
            if cand in chosen:
                continue
            val = min(dist[cand, c] for c in chosen)
            if val > best_val:
                best_pos, best_val = cand, val
        if best_pos != pos:
            return False
        chosen.append(pos)
    return True


def facility_value(E: np.ndarray, pool, subset_tokens, epsilon: float = 1e-12) -> float:
    """F(S) = sum_i max_{j in S} clip((e_i . e_j + 1) / 2, 0, 1), naive."""
    L = pairwise_cosine_naive(E, pool, epsilon)
    sim = np.clip((L + 1.0) / 2.0, 0.0, 1.0)
    pos_of = {int(t): p for p, t in enumerate(pool)}
    subset_pos = [pos_of[int(t)] for t in subset_tokens]
    total = 0.0
    for i in range(len(pool)):
        total += max(sim[i, j] for j in subset_pos)
    return total


def facility_optimum(E: np.ndarray, pool, k: int) -> float:
    """Exhaustive maximum of the facility-location objective."""
    best = -np.inf
    for combo in combinations(list(pool), k):
        best = max(best, facility_value(E, pool, combo))
    return best


def facility_location_dense(E: np.ndarray, pool, k: int):
    """Dense greedy facility location: every candidate's gain, every step.

    Returns (pick_order as token indices, per-step gains).  Each step builds
    the full m x m ``maximum(sim - cover, 0)`` and takes its column sums;
    ties go to the lowest pool position.
    """
    pool = np.asarray(pool, dtype=np.int64)
    sim = np.clip((package_kernel(E, pool) + 1.0) / 2.0, 0.0, 1.0)

    cover = np.zeros(pool.size)
    avail = np.ones(pool.size, dtype=bool)
    picked: list[int] = []
    gains: list[float] = []
    for _ in range(k):
        marginal = np.maximum(sim - cover[:, None], 0.0).sum(axis=0)
        marginal[~avail] = -np.inf
        j = int(np.argmax(marginal))
        picked.append(j)
        gains.append(float(marginal[j]))
        avail[j] = False
        cover = np.maximum(cover, sim[:, j])
    return pool[np.asarray(picked, dtype=np.int64)], np.asarray(gains)


def facility_location_lazy_rowwise(E: np.ndarray, pool, k: int):
    """Lazy greedy facility location re-evaluating one stale bound at a time.

    Returns (pick_order as token indices, per-step gains).  A heap holds
    ``(-bound, position)``; while its top was computed at an earlier step,
    that one candidate's gain is recomputed as a 1-D row sum and pushed
    back.  The similarity is built as ``facility_location_dense`` builds it.
    """
    pool = np.asarray(pool, dtype=np.int64)
    sim = np.clip((package_kernel(E, pool) + 1.0) / 2.0, 0.0, 1.0)

    heap = [(-g, j) for j, g in enumerate(sim.sum(axis=0).tolist())]
    heapq.heapify(heap)
    fresh_at = [0] * pool.size
    cover = np.zeros(pool.size)
    picked: list[int] = []
    gains: list[float] = []
    for step in range(k):
        while True:
            neg_gain, j = heap[0]
            if fresh_at[j] == step:
                break
            gain = float(np.maximum(sim[j] - cover, 0.0).sum())
            fresh_at[j] = step
            heapq.heapreplace(heap, (-gain, j))
        heapq.heappop(heap)
        picked.append(j)
        gains.append(-neg_gain)
        np.maximum(cover, sim[j], out=cover)
    return pool[np.asarray(picked, dtype=np.int64)], np.asarray(gains)


def dpp_greedy_naive(E: np.ndarray, pool, k: int):
    """Greedy DPP MAP that recomputes full determinants at every step.

    Returns (pick_order as token indices, per-step log-determinant gains).
    Each step takes det(L_{S + {j}}) for every remaining candidate j; ties
    go to the lowest pool position.  It stops once the best gain falls
    below RANK_FLOOR and fills no slot past the kernel's rank, so callers
    pass full-rank pools (d >= k).
    """
    pool = np.asarray(pool, dtype=np.int64)
    L = _dpp_kernel(E, pool, _spectral_entropy(E)[1])
    avail = np.ones(pool.size, dtype=bool)
    picked: list[int] = []
    gains: list[float] = []
    det_s = 1.0  # det of the empty submatrix
    for _ in range(k):
        cand = np.flatnonzero(avail)
        sets = np.asarray([picked + [c] for c in cand.tolist()], dtype=np.int64)
        dets = np.linalg.det(L[sets[:, :, None], sets[:, None, :]])
        best = int(np.argmax(dets))
        gain = dets[best] / det_s
        if gain < RANK_FLOOR:
            break
        gains.append(float(np.log(gain)))
        picked.append(int(cand[best]))
        avail[cand[best]] = False
        det_s = dets[best]
    return pool[np.asarray(picked, dtype=np.int64)], np.asarray(gains)


def brute_force_max_logdet(E: np.ndarray, pool, k: int, epsilon: float = 1e-12):
    """Exact argmax of log det(L_S) over all size-k subsets of the pool.

    Returns (token indices ascending, log-determinant).  One batched
    determinant covers every subset in lexicographic order, and argmax
    takes the first maximum, so ties go to the lexicographically smallest
    subset.
    """
    pool = np.asarray(pool, dtype=np.int64)
    L = pairwise_cosine_naive(E, pool, epsilon)
    L[np.diag_indices(pool.size)] += DEFAULT_JITTER
    combos = np.asarray(list(combinations(range(pool.size), k)), dtype=np.int64)
    dets = np.linalg.det(L[combos[:, :, None], combos[:, None, :]])
    best = int(np.argmax(dets))
    return pool[combos[best]], float(np.log(dets[best]))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    return Q * np.sign(np.diag(R))


def span_paths(t_cov: int) -> set[str]:
    """The ``timings_us`` keys of a ``compress`` call, written out by hand:
    the selector's own spans appear only when it runs (t_cov > 0)."""
    paths = {
        "total", "validate", "entropy", "entropy/gram", "entropy/eigvalsh",
        "allocation", "stage1", "stage2", "stage2/pool", "assemble", "diagnostics",
    }
    if t_cov > 0:
        paths |= {"stage2/kernel", "stage2/greedy"}
    return paths


def leaf_share(timings: dict[str, float]) -> float:
    """Share of ``total`` that the leaf spans (those no other path nests
    under) cover."""
    leaves = [
        us for path, us in timings.items()
        if path != "total" and not any(other.startswith(path + "/") for other in timings)
    ]
    return sum(leaves) / timings["total"]
