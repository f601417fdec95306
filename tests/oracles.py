"""Independent reference implementations used as test oracles, the
token kinds (``kind_tokens``) that criterion 6 and facility location's
tests draw, a generator with a power-law spectrum and high-norm tokens
(``vit_tokens``), the values that are not counts or reals (``NOT_COUNTS``,
``NOT_REALS``) that the boundary tables and the result reader's field test
share, and ``load_tool``, which loads a script of ``tools/``.

Everything here is deliberately naive (plain loops, direct formulas,
full SVD, full determinants).  The greedy oracles that a test compares
with a selector bit for bit read their kernel from the package, as the
selector reads it: ``verify_fps_order`` and ``dpp_greedy_naive`` through
``selector_kernel``, the rows of ``selection._kernel_rows``, and the two
facility-location greedies through ``selection._pool_unit_kernel``.  So
such a test compares two greedies, not two kernels.  Everything else,
``pairwise_cosine_naive`` and the objectives and optima built on it
included, shares no code path with the package; the brute-force DPP
optimum takes only the jitter from it.
"""

import heapq
import importlib.util
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from adaptok import as_token_matrix, synth_tokens
from adaptok.prominence import _spectral_entropy
from adaptok.selection import (
    _SELECTORS, DEFAULT_JITTER, RANK_FLOOR, _kernel_rows, _pool_unit_kernel
)


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


def majorant_entropy_by_hull(c, r: int) -> float:
    """Entropy of the r unit increments of the least concave majorant of
    (0, 0), (m, c[m - 1]) for m = 1..len(c), and (r, 1): a monotone-chain
    upper hull over every point, with no assumption on c."""
    hull = []
    for x, y in [(0, 0.0), *enumerate(c, 1), (r, 1.0)]:
        # drop the last vertex while it lies on or below the chord to (x, y)
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-1][1])
                                 >= (x - hull[-1][0]) * (hull[-1][1] - hull[-2][1])):
            hull.pop()
        hull.append((x, y))
    masses = [(y1 - y0) / (x1 - x0)
              for (x0, y0), (x1, y1) in zip(hull, hull[1:]) for _ in range(x1 - x0)]
    return scalar_entropy(masses)


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


# the input kinds criterion 6 cycles through, which facility location's tests reuse
# values that are not counts; None is one only where it asks for a default
NOT_COUNTS = {"fraction": 1.5, "bool": True, "numpy-bool": np.True_, "float": 2.0,
              "numpy-float": np.float64(2.0), "numeric-str": "2", "none": None}
# values that are not finite real numbers
NOT_REALS = {
    "numeric-str": "0.5", "str": "x", "none": None, "bool": True, "numpy-bool": np.False_,
    "complex": 0.5 + 0j, "nan": np.nan, "inf": np.inf, "huge-int": 10**400,
    "timedelta": np.timedelta64(1, "s"), "0d-bool": np.array(True),
    "0d-complex": np.array(0.5 + 0j), "0d-object": np.array(0.5, dtype=object),
    "0d-str": np.array("0.5"), "0d-nan": np.array(np.nan), "0d-inf": np.array(np.inf),
    "1d": np.array([0.5]),
}

TOKEN_KINDS = ("generic", "duplicates", "zero_rows", "concentrated", "spread")


def kind_tokens(rng: np.random.Generator, kind: str, n: int, d: int, seed) -> np.ndarray:
    """An n x d token matrix of one of ``TOKEN_KINDS``, drawn from ``rng`` (and
    ``synth_tokens`` at ``seed``); a zero-rows draw that zeroed every row gets
    one nonzero entry, as the entropy refuses an all-zero matrix."""
    if kind == "generic":
        return rng.standard_normal((n, d))
    if kind == "duplicates":
        base = rng.standard_normal((max(2, n // 4), d))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "zero_rows":
        tokens = rng.standard_normal((n, d))
        tokens[rng.random(n) < 0.3] = 0.0
        if not np.any(tokens):
            tokens[0, 0] = 1.0
        return tokens
    if kind == "concentrated":  # forces t_cov = 0 under the clip preset
        return synth_tokens(n, d, 1, 1e-4, seed)[0]
    return synth_tokens(n, d, min(n, d), 1e-3, seed)[0]  # spread


def vit_tokens(n: int, d: int, alpha: float, outliers: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, saliency) with some of the structure of ViT features.

    The tokens are r = min(n, d) seeded orthonormal directions with singular
    values i^-alpha (i = 1..r), plus isotropic noise whose row norm is about
    1e-3 times the mean row norm m.  ``outliers`` rows, chosen by the
    seed, are then set to 10 m along the leading right singular direction:
    the high-norm tokens that large ViTs carry (Darcet et al., "Vision
    Transformers Need Registers", ICLR 2024).  Saliency is each row's
    alignment with that direction, clipped at 0, as in ``synth_tokens``.
    """
    rng = np.random.default_rng(seed)
    r = min(n, d)
    left, _ = np.linalg.qr(rng.standard_normal((n, r)))
    right, _ = np.linalg.qr(rng.standard_normal((d, r)))
    tokens = (left * np.arange(1, r + 1, dtype=np.float64) ** -alpha) @ right.T
    m = np.linalg.norm(tokens, axis=1).mean()
    tokens += 1e-3 * m / math.sqrt(d) * rng.standard_normal((n, d))
    lead = right[:, 0]
    tokens[rng.choice(n, size=outliers, replace=False)] = 10.0 * m * lead
    return tokens, np.clip(tokens @ lead, 0.0, None)


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


def selector_kernel(E: np.ndarray, pool, k: int) -> np.ndarray:
    """The pool's cosine kernel as a DPP or FPS core of k picks reads it: the
    rows of ``selection._kernel_rows`` stacked, with its diagonal on the
    diagonal."""
    E = as_token_matrix(E)
    pool = np.asarray(pool, dtype=np.int64)
    diag, row = _kernel_rows(E, pool, k, _spectral_entropy(E)[1])
    L = np.array([row(j) for j in range(pool.size)])
    L[np.diag_indices(pool.size)] = diag()
    return L


def run_core(method: str, tokens, pool, k: int):
    """The stage-2 core ``method`` over a valid pool (strictly increasing
    row indices) with 1 <= k <= its size, given the entropy's token Gram
    (None at n >= d) as ``compress`` gives it: its greedy picks only, at
    most k, without ``compress``'s saliency fill."""
    E = as_token_matrix(tokens)
    G = _spectral_entropy(E)[1]
    return _SELECTORS[method](E, np.asarray(pool, dtype=np.int64), k, G)


def verify_fps_order(E: np.ndarray, pool: np.ndarray, pick_order: np.ndarray) -> bool:
    """Re-check each FPS pick against the max-min definition with a naive pass."""
    pos_of = {int(t): p for p, t in enumerate(pool)}
    dist = 1.0 - selector_kernel(E, pool, len(pick_order))
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
    below RANK_FLOOR, as the package's core does.
    """
    pool = np.asarray(pool, dtype=np.int64)
    L = selector_kernel(E, pool, k)
    L[np.diag_indices(pool.size)] += DEFAULT_JITTER
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


def span_paths(t_cov: int, forced: bool = False, certified: bool = False) -> set[str]:
    """The ``timings_us`` keys of a ``compress`` call, written out by hand:
    the entropy's bounds are timed only when the split is not ``forced``, the
    eigensolve only when they have not ``certified`` it (low < high),
    and the selector's own spans only when it runs (t_cov > 0)."""
    paths = {
        "total", "validate", "entropy", "entropy/gram",
        "allocation", "stage1", "stage2", "stage2/pool", "assemble", "diagnostics",
    }
    if not forced:
        paths.add("entropy/bounds")
    if not certified:
        paths.add("entropy/eigvalsh")
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


def load_tool(name: str):
    """``tools/<name>.py``, loaded by path as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool
