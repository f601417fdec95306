import dataclasses

import numpy as np
import pytest
from oracles import (
    brute_force_max_logdet,
    dpp_greedy_naive,
    facility_location_dense,
    facility_location_lazy_rowwise,
    facility_optimum,
    facility_value,
    package_kernel,
    pairwise_cosine_naive,
    topk_by_sort,
    verify_fps_order,
)

from adaptok import (
    CompressConfig,
    InvalidBudgetError,
    InvalidInputError,
    compress,
    dpp_greedy_map,
    facility_location_select,
    fps_select,
    reduce_head_attention,
    saliency_topk,
    subseed_rng,
    synth_tokens,
)
from adaptok import selection
from adaptok.tensor_core import DEFAULT_EPSILON

E1_E1_E2 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestReduceHeadAttention:
    def test_single_head_identity(self):
        row = np.array([[0.2, 0.1, 0.7]])
        np.testing.assert_array_equal(reduce_head_attention(row), row[0])

    def test_two_heads(self):
        heads = np.array([[1.0, 0.0, 3.0], [3.0, 2.0, 1.0]])
        np.testing.assert_array_equal(reduce_head_attention(heads), [2.0, 1.0, 2.0])

    def test_equal_heads_idempotent(self):
        heads = np.tile([0.3, 0.5, 0.2], (4, 1))
        np.testing.assert_allclose(reduce_head_attention(heads), [0.3, 0.5, 0.2])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            reduce_head_attention(np.array([[0.1, -0.2]]))
        # the head mean [1, 2] is nonnegative: the per-head entry is checked
        with pytest.raises(InvalidInputError):
            reduce_head_attention([[-1.0, 3.0], [3.0, 1.0]])


class TestSaliencyTopk:
    def test_basic(self):
        np.testing.assert_array_equal(saliency_topk([0.1, 0.9, 0.5], 2), [1, 2])

    def test_tie_goes_to_lower_index(self):
        np.testing.assert_array_equal(saliency_topk([0.5, 0.5, 0.1], 1), [0])

    def test_k_zero(self):
        assert saliency_topk([0.5, 0.1], 0).size == 0

    def test_matches_sort_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n)  # force ties
            k = int(rng.integers(0, n + 1))
            np.testing.assert_array_equal(saliency_topk(scores, k), topk_by_sort(scores, k))

    def test_budget_errors(self):
        with pytest.raises(InvalidBudgetError):
            saliency_topk([0.1, 0.2], 3)
        with pytest.raises(InvalidBudgetError):
            saliency_topk([0.1, 0.2], -1)
        with pytest.raises(InvalidBudgetError):
            saliency_topk([0.1, 0.2, 0.3], 2.7)


@pytest.mark.parametrize(
    "select",
    [dpp_greedy_map, fps_select, facility_location_select],
)
def test_selectors_reject_fractional_k(select, rng):
    E = rng.standard_normal((6, 3))
    with pytest.raises(InvalidBudgetError):
        select(E, np.arange(6), 2.7)


@pytest.mark.parametrize(
    "select",
    [dpp_greedy_map, fps_select, facility_location_select],
)
def test_pool_validation(select, rng):
    E = rng.standard_normal((4, 3))
    with pytest.raises(InvalidInputError):
        select(E, [0, 0, 1], 1)
    with pytest.raises(InvalidInputError):
        select(E, [2, 1], 1)
    with pytest.raises(InvalidInputError):
        select(E, [0, 4], 1)


# tall, square and wide: the kernel rule slices E E^T only at n < d
KERNEL_SHAPES = [(8, 5), (30, 20), (6, 6), (5, 8), (20, 30)]


def _shape_id(shape):
    return "x".join(map(str, shape))


def _pool_of(rng, n):
    return np.sort(rng.choice(n, size=max(2, 3 * n // 4), replace=False))


class TestCosineKernel:
    def test_orthogonal_rows_give_identity(self):
        L = package_kernel(np.eye(3), np.arange(3))
        np.testing.assert_allclose(L, np.eye(3), atol=1e-9)

    def test_duplicate_rows_give_unit_similarity(self):
        for E in (E1_E1_E2, np.hstack([E1_E1_E2, np.zeros((3, 2))])):  # n > d, n < d
            L = package_kernel(E, np.arange(3))
            np.testing.assert_allclose(L[0, 1], 1.0, atol=1e-9)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=_shape_id)
    def test_unit_diagonal(self, rng, shape):
        L = package_kernel(rng.standard_normal(shape), np.arange(shape[0]))
        np.testing.assert_allclose(np.diag(L), 1.0, atol=1e-6)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=_shape_id)
    def test_matches_naive_pair_loop(self, rng, shape):
        E = rng.standard_normal(shape)
        pool = _pool_of(rng, shape[0])
        np.testing.assert_allclose(
            package_kernel(E, pool), pairwise_cosine_naive(E, pool), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "shape", KERNEL_SHAPES + [(300, 64), (64, 300), (576, 1024)], ids=_shape_id
    )
    def test_exactly_symmetric(self, rng, shape):
        # facility location reads rows of the kernel as its columns, fast
        # only in C order; if a numpy upgrade breaks either, this must fail loudly
        E = rng.standard_normal(shape)
        for pool in (np.arange(shape[0]), _pool_of(rng, shape[0])):
            L = package_kernel(E, pool)
            assert np.array_equal(L, L.T) and L.flags.c_contiguous

    @pytest.mark.parametrize(
        "shape", [s for s in KERNEL_SHAPES if s[0] >= s[1]] + [(300, 64)], ids=_shape_id
    )
    def test_kernel_at_n_ge_d_is_the_normalized_rank_k_product(self, rng, shape):
        E = rng.standard_normal(shape)
        pool = _pool_of(rng, shape[0])
        rows = E[pool]
        unit = rows / (np.linalg.norm(rows, axis=1, keepdims=True) + DEFAULT_EPSILON)
        assert package_kernel(E, pool).tobytes() == (unit @ unit.T).tobytes()

    def test_psd(self, rng):
        for _ in range(20):
            E = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(1, 12))))
            L = package_kernel(E, np.arange(E.shape[0]))
            assert np.linalg.eigvalsh(L).min() >= -1e-8

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=_shape_id)
    def test_zero_rows_give_zero_row_and_column(self, rng, shape):
        E = rng.standard_normal(shape)
        E[[1, 3]] = 0.0
        L = package_kernel(E, np.arange(shape[0]))
        assert not L[[1, 3]].any() and not L[:, [1, 3]].any()
        np.testing.assert_allclose(np.delete(np.diag(L), [1, 3]), 1.0, atol=1e-9)


class TestDppGreedyMap:
    def test_all_ties_pick_pool_head(self):
        # equal-norm rows make every kernel diagonal bitwise identical, so
        # the first step is an exact tie and must go to the pool's head
        E = 2.0 * np.eye(4)[np.arange(8) % 4]
        pool = np.array([2, 5, 7])
        pick = dpp_greedy_map(E, pool, 1)
        np.testing.assert_array_equal(pick.indices, [2])

    def test_duplicate_degeneracy(self):
        pick = dpp_greedy_map(E1_E1_E2, np.arange(3), 2)
        np.testing.assert_array_equal(pick.indices, [0, 2])
        np.testing.assert_array_equal(pick.pick_order, [0, 2])

    def test_matches_naive_greedy(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, min(6, n) + 1))
            d = int(rng.integers(max(k, 4), 13))
            E = rng.standard_normal((n, d))
            fast = dpp_greedy_map(E, np.arange(n), k)
            naive_order, _ = dpp_greedy_naive(E, np.arange(n), k)
            np.testing.assert_array_equal(fast.pick_order, naive_order)
            np.testing.assert_array_equal(fast.indices, np.sort(naive_order))

    def test_gains_non_increasing(self, rng):
        for _ in range(20):
            E = rng.standard_normal((12, 8))
            pick = dpp_greedy_map(E, np.arange(12), 6)
            assert np.all(np.diff(pick.gains) <= 1e-12)

    def test_indices_sorted_within_pool(self, rng):
        E = rng.standard_normal((10, 6))
        pool = np.array([1, 3, 4, 6, 9])
        pick = dpp_greedy_map(E, pool, 3)
        assert np.all(np.diff(pick.indices) > 0)
        assert set(pick.indices).issubset(set(pool.tolist()))
        assert sorted(pick.pick_order.tolist()) == pick.indices.tolist()
        assert "indices" not in {f.name for f in dataclasses.fields(pick)}  # derived

    def test_rank_deficient_pool_still_fills_budget(self, rng):
        # with the default jitter the kernel stays PD, so degenerate pools
        # fill through near-zero gains rather than the fallback; either way
        # the exact-budget contract must hold
        E = rng.standard_normal((6, 2))  # kernel rank <= 2
        pick = dpp_greedy_map(E, np.arange(6), 5)
        assert pick.indices.size == 5
        assert len(set(pick.indices.tolist())) == 5

    def test_collapsed_gains_fall_back_by_index(self, monkeypatch):
        # no jitter lets duplicate residuals collapse to exactly 0
        monkeypatch.setattr(selection, "DEFAULT_JITTER", 0.0)
        E = np.array([[1.0, 0.0]] * 6)
        pick = dpp_greedy_map(E, np.arange(6), 5)
        assert pick.fallback_count == 4
        np.testing.assert_array_equal(pick.pick_order, [0, 1, 2, 3, 4])
        assert pick.gains.size == 1

    def test_collapsed_gains_fall_back_by_saliency(self, monkeypatch):
        monkeypatch.setattr(selection, "DEFAULT_JITTER", 0.0)
        E = np.array([[1.0, 0.0]] * 5)  # all duplicates: rank 1
        sal = np.array([0.1, 0.9, 0.3, 0.9, 0.5])
        pick = dpp_greedy_map(E, np.arange(5), 3, saliency=sal)
        # first pick is index 0 (all gains tie), the rest fill by
        # descending saliency (ties to the lower index): 1 then 3
        np.testing.assert_array_equal(pick.pick_order, [0, 1, 3])
        assert pick.fallback_count == 2

    def test_k_zero_and_errors(self, rng):
        E = rng.standard_normal((5, 3))
        assert dpp_greedy_map(E, np.arange(5), 0).indices.size == 0
        with pytest.raises(InvalidBudgetError):
            dpp_greedy_map(E, np.arange(5), 6)

    def test_deterministic(self, rng):
        E = rng.standard_normal((14, 7))
        a = dpp_greedy_map(E, np.arange(14), 5)
        b = dpp_greedy_map(E, np.arange(14), 5)
        np.testing.assert_array_equal(a.pick_order, b.pick_order)
        np.testing.assert_array_equal(a.gains, b.gains)


class TestBruteForceMaxLogdet:
    def test_full_pool_forced(self, rng):
        E = rng.standard_normal((5, 4))
        idx, _ = brute_force_max_logdet(E, np.arange(5), 5)
        np.testing.assert_array_equal(idx, np.arange(5))

    def test_orthogonal_ties_lexicographic(self):
        idx, logdet = brute_force_max_logdet(np.eye(4), np.arange(4), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        assert abs(logdet) < 1e-8

    def test_optimum_dominates_greedy(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 9))
            k = int(rng.integers(2, 4))
            E = rng.standard_normal((n, 8))
            pool = np.arange(n)
            greedy = dpp_greedy_map(E, pool, k)
            _, opt = brute_force_max_logdet(E, pool, k)
            _, greedy_logdet = np.linalg.slogdet(
                selection._dpp_kernel(E, greedy.indices, selection._token_gram(E))
            )
            assert opt >= greedy_logdet - 1e-9

    def test_k_zero(self, rng):
        idx, logdet = brute_force_max_logdet(rng.standard_normal((4, 3)), np.arange(4), 0)
        assert idx.size == 0 and logdet == 0.0


class TestFpsSelect:
    def test_full_pool(self, rng):
        E = rng.standard_normal((6, 4))
        pick = fps_select(E, np.arange(6), 6)
        np.testing.assert_array_equal(pick.indices, np.arange(6))

    def test_planar_angles(self):
        # unit vectors at 0, 90, 180 degrees; start at index 0
        E = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        pick = fps_select(E, np.arange(3), 3)
        np.testing.assert_array_equal(pick.pick_order, [0, 2, 1])
        np.testing.assert_allclose(pick.gains[1:], [2.0, 1.0], atol=1e-9)

    def test_duplicate_of_start_picked_last(self):
        pick = fps_select(E1_E1_E2, np.arange(3), 2)
        np.testing.assert_array_equal(pick.indices, [0, 2])

    def test_naive_maxmin_verification(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(2, 6))
            E = rng.standard_normal((n, d))
            k = int(rng.integers(1, n + 1))
            pick = fps_select(E, np.arange(n), k)
            assert verify_fps_order(E, np.arange(n), pick.pick_order)

    def test_errors(self, rng):
        E = rng.standard_normal((4, 2))
        with pytest.raises(InvalidBudgetError):
            fps_select(E, np.arange(4), 5)


FL_KINDS = ("generic", "duplicates", "zero_rows", "concentrated", "spread")


def _fl_tokens(rng, kind: str, n: int, d: int, seed) -> np.ndarray:
    """Token matrices of the criterion-6 kinds."""
    if kind == "generic":
        return rng.standard_normal((n, d))
    if kind == "duplicates":
        base = rng.standard_normal((max(2, n // 4), d))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "zero_rows":
        tokens = rng.standard_normal((n, d))
        tokens[rng.random(n) < 0.3] = 0.0
        return tokens
    if kind == "concentrated":
        return synth_tokens(n, d, 1, 1e-4, seed)[0]
    return synth_tokens(n, d, min(n, d), 1e-3, seed)[0]  # spread


def _fl_instances(kind: str, count: int, seed: int):
    """(tokens, random pool, random k) triples of one criterion-6 kind."""
    for trial in range(count):
        rng = subseed_rng(seed, trial)
        n = int(rng.integers(4, 40))
        d = int(rng.integers(2, 16))
        tokens = _fl_tokens(rng, kind, n, d, [seed, trial])
        pool = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        yield tokens, pool, int(rng.integers(1, pool.size + 1))


class TestFacilityLocationSelect:
    def test_hand_example_k1(self):
        pick = facility_location_select(E1_E1_E2, np.arange(3), 1)
        np.testing.assert_array_equal(pick.indices, [0])
        np.testing.assert_allclose(pick.gains, [2.5], atol=1e-9)
        np.testing.assert_allclose(
            facility_value(E1_E1_E2, np.arange(3), [0]), 2.5, atol=1e-9
        )

    def test_full_pool_covers_everything(self, rng):
        E = rng.standard_normal((5, 3))
        pick = facility_location_select(E, np.arange(5), 5)
        np.testing.assert_array_equal(pick.indices, np.arange(5))
        np.testing.assert_allclose(pick.gains.sum(), 5.0, atol=1e-6)

    def test_greedy_matches_naive_objective(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            E = rng.standard_normal((n, 4))
            k = int(rng.integers(1, n + 1))
            pick = facility_location_select(E, np.arange(n), k)
            np.testing.assert_allclose(
                pick.gains.sum(),
                facility_value(E, np.arange(n), pick.indices),
                atol=1e-8,
            )

    def test_submodular_guarantee(self, rng):
        bound = 1.0 - 1.0 / np.e
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            if k > n:
                continue
            E = rng.standard_normal((n, 4))
            pick = facility_location_select(E, np.arange(n), k)
            opt = facility_optimum(E, np.arange(n), k)
            assert pick.gains.sum() >= bound * opt - 1e-9

    def test_errors(self, rng):
        with pytest.raises(InvalidBudgetError):
            facility_location_select(rng.standard_normal((3, 2)), np.arange(3), 4)

    @pytest.mark.parametrize("kind", [k for k in FL_KINDS if k != "duplicates"])
    def test_pick_order_matches_dense_greedy(self, kind):
        for tokens, pool, k in _fl_instances(kind, 300, 61):
            pick = facility_location_select(tokens, pool, k)
            dense_order, dense_gains = facility_location_dense(tokens, pool, k)
            np.testing.assert_array_equal(pick.pick_order, dense_order)
            np.testing.assert_allclose(pick.gains, dense_gains, rtol=0, atol=1e-12)

    def test_duplicates_match_dense_objective(self):
        # exact duplicates tie in exact arithmetic; the dense column sums and
        # the lazy row sums round differently, so either may take another
        # copy, but the objective and its trajectory agree to rounding
        for tokens, pool, k in _fl_instances("duplicates", 300, 62):
            pick = facility_location_select(tokens, pool, k)
            _, dense_gains = facility_location_dense(tokens, pool, k)
            np.testing.assert_allclose(pick.gains, dense_gains, rtol=0, atol=1e-9)
            assert abs(pick.gains.sum() - dense_gains.sum()) <= 1e-9
            again = facility_location_select(tokens, pool, k)
            np.testing.assert_array_equal(pick.pick_order, again.pick_order)
            np.testing.assert_array_equal(pick.gains, again.gains)

    def test_compress_matches_dense_greedy_at_bench_shape(self):
        # the clip-fl benchmark workload at its self-test shape (72x64, T=16)
        cfg = CompressConfig(
            total_budget=16, mu=0.42, tau=0.02, diversity_method="facility_location"
        )
        covered = 0
        for seed in range(1, 11):
            for i, k_dir in enumerate((10, 24, 32, 64, 128, 512)):
                tokens, saliency = synth_tokens(72, 64, min(k_dir, 64), 1e-3, subseed_rng(seed, i))
                result = compress(tokens, saliency, cfg)
                pool = np.setdiff1d(np.arange(72), result.saliency_indices)
                dense_order, _ = facility_location_dense(tokens, pool, result.split.t_cov)
                np.testing.assert_array_equal(result.coverage_pick_order, dense_order)
                covered += result.split.t_cov
        assert covered > 0

    @pytest.mark.parametrize("kind", FL_KINDS)
    def test_bitwise_equal_to_one_row_lazy_greedy(self, kind):
        # batched re-evaluation changes how many stale bounds one row op
        # computes, never which candidate is picked or its gain
        def instances():
            yield from _fl_instances(kind, 100, 64)
            # the clip-fl benchmark's self-test shape: 72x64, T=16
            for seed in range(1, 11):
                rng = subseed_rng(seed, FL_KINDS.index(kind))
                tokens = _fl_tokens(rng, kind, 72, 64, [seed, 0])
                t_sal = int(rng.integers(0, 16))
                pool = np.sort(rng.choice(72, size=72 - t_sal, replace=False))
                yield tokens, pool, 16 - t_sal

        for tokens, pool, k in instances():
            pick = facility_location_select(tokens, pool, k)
            order, gains = facility_location_lazy_rowwise(tokens, pool, k)
            np.testing.assert_array_equal(pick.pick_order, order)
            assert pick.gains.tobytes() == gains.tobytes()

    def test_bitwise_equal_to_one_row_lazy_greedy_at_clip_shape(self):
        # a 576-token input whose saliency stage took one token
        tokens, _ = synth_tokens(576, 1024, 32, 1e-3, 71)
        pool = np.arange(1, 576)
        pick = facility_location_select(tokens, pool, 127)
        order, gains = facility_location_lazy_rowwise(tokens, pool, 127)
        np.testing.assert_array_equal(pick.pick_order, order)
        assert pick.gains.tobytes() == gains.tobytes()

    @pytest.mark.parametrize("m", [1, 7, 128, 575, 2879])
    def test_batched_row_sum_is_bitwise_the_row_sum(self, m):
        # the batched re-evaluation relies on this for its bitwise picks
        rng = np.random.default_rng(m)
        sim = rng.random((16, m))
        cover = 0.8 * rng.random(m)
        for rows in ([3], [0, 5, 9], list(range(8)), [15, 2, 7, 1, 11, 4, 13, 6]):
            batched = np.maximum(sim[rows] - cover, 0.0).sum(axis=1)
            for r, row in enumerate(rows):
                one = np.maximum(sim[row] - cover, 0.0).sum()
                assert batched[r].tobytes() == one.tobytes()

    @pytest.mark.parametrize("kind", FL_KINDS)
    def test_gains_submodular_and_sum_to_objective(self, kind):
        # a stale heap bound taken as a gain would break one of the two
        for tokens, pool, k in _fl_instances(kind, 25, 63):
            pick = facility_location_select(tokens, pool, k)
            assert np.all(np.diff(pick.gains) <= 1e-12)
            np.testing.assert_allclose(
                pick.gains.sum(), facility_value(tokens, pool, pick.pick_order), rtol=0, atol=1e-8
            )
