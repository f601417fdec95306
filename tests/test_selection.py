import tracemalloc

import numpy as np
import pytest
from oracles import (
    TOKEN_KINDS,
    brute_force_max_logdet,
    dpp_greedy_naive,
    facility_location_dense,
    facility_location_lazy_rowwise,
    facility_value,
    kind_tokens,
    package_kernel,
    pairwise_cosine_naive,
    run_core,
    topk_by_sort,
    verify_fps_order,
)

from adaptok import (
    DIVERSITY_METHODS,
    CompressConfig,
    InvalidInputError,
    compress,
    reduce_head_attention,
    saliency_topk,
    subseed_rng,
    synth_tokens,
)
from adaptok import selection
from adaptok.prominence import _spectral_entropy
from adaptok.tensor_core import DEFAULT_EPSILON, _normalize_rows_raw

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


def _rows_of(E, pool, k):
    """(diag, rows) of ``selection._kernel_rows`` over the whole pool."""
    diag, row = selection._kernel_rows(E, pool, k, _spectral_entropy(E)[1])
    return diag(), np.array([row(j) for j in range(pool.size)])


class TestKernelRowSource:
    # a 64x8 pool is read per pick while k * _ROW_PICK_COST < 64 (k <= 4),
    # and from the whole kernel from k = 5 on
    PER_PICK, WHOLE = 2, 6

    @pytest.mark.parametrize("k", [PER_PICK, WHOLE])
    def test_each_row_source_is_its_product(self, rng, k):
        per_pick = k * selection._ROW_PICK_COST < 64
        assert per_pick == (k == self.PER_PICK)
        E = rng.standard_normal((64, 8))
        pool = np.arange(64)
        diag, rows = _rows_of(E, pool, k)
        unit = _normalize_rows_raw(E, pool)
        if per_pick:
            expected = np.array([unit @ unit[j] for j in range(64)])
            assert diag.tobytes() == np.einsum("ij,ij->i", unit, unit).tobytes()
        else:
            expected = package_kernel(E, pool)
            assert diag.tobytes() == np.diag(expected).tobytes()
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("shape", [(6, 9), (20, 30)], ids=_shape_id)
    def test_rows_at_n_lt_d_are_the_gram_block_kernel_bitwise(self, rng, shape, k):
        E = rng.standard_normal(shape)
        pool = _pool_of(rng, shape[0])
        diag, rows = _rows_of(E, pool, min(k, pool.size))
        L = package_kernel(E, pool)
        assert rows.tobytes() == L.tobytes() and diag.tobytes() == np.diag(L).tobytes()

    @pytest.mark.parametrize("k", [PER_PICK, WHOLE])
    def test_cores_match_their_oracles_on_each_side(self, k):
        for trial in range(20):
            E = subseed_rng(73, trial).standard_normal((64, 8))
            pool = np.arange(64)
            dpp = run_core("dpp", E, pool, k)
            naive_order, naive_gains = dpp_greedy_naive(E, pool, k)
            np.testing.assert_array_equal(dpp.pick_order, naive_order)
            np.testing.assert_allclose(dpp.gains, naive_gains, rtol=0, atol=1e-12)
            for fps_k in (k, 40):
                assert verify_fps_order(E, pool, run_core("fps", E, pool, fps_k).pick_order)

    def test_saliency_heavy_dpp_builds_no_pool_kernel(self):
        # t_cov = 4 of a 1140-row pool reads 4 rows, not the 1140^2 kernel
        E, s = synth_tokens(1200, 64, 8, 1e-3, 0)
        cfg = CompressConfig(total_budget=64, diversity_method="dpp")
        compress(E, s, cfg, t_sal=60)
        tracemalloc.start()
        try:
            compress(E, s, cfg, t_sal=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1140**2 * 8


class TestDppCore:
    def test_all_ties_pick_pool_head(self):
        # equal-norm rows make every kernel diagonal bitwise identical, so
        # the first step is an exact tie and must go to the pool's head
        E = 2.0 * np.eye(4)[np.arange(8) % 4]
        pool = np.array([2, 5, 7])
        pick = run_core("dpp", E, pool, 1)
        np.testing.assert_array_equal(np.sort(pick.pick_order), [2])

    def test_duplicate_degeneracy(self):
        pick = run_core("dpp", E1_E1_E2, np.arange(3), 2)
        np.testing.assert_array_equal(np.sort(pick.pick_order), [0, 2])
        np.testing.assert_array_equal(pick.pick_order, [0, 2])

    def test_jittered_core_keeps_picking_past_the_rank(self, rng):
        # with the default jitter the kernel stays PD, so a degenerate pool
        # goes on picking through near-zero gains instead of stopping short
        E = rng.standard_normal((6, 2))  # kernel rank <= 2
        pick = run_core("dpp", E, np.arange(6), 5)
        assert pick.pick_order.size == 5
        assert len(set(pick.pick_order.tolist())) == 5

    def test_collapsed_gains_stop_the_core(self, monkeypatch):
        monkeypatch.setattr(selection, "DEFAULT_JITTER", 0.0)
        E = np.array([[1.0, 0.0]] * 5)  # all duplicates: rank 1
        # the first pick is index 0 (all gains tie); then every gain is 0
        pick = run_core("dpp", E, np.arange(5), 3)
        np.testing.assert_array_equal(pick.pick_order, [0])
        assert pick.gains.size == 1

    @pytest.mark.parametrize("t_sal, order", [(0, [0, 1, 3]), (1, [0, 3])],
                             ids=["t_sal0", "t_sal1"])
    def test_compress_fills_collapsed_gains_by_saliency(self, monkeypatch, t_sal, order):
        monkeypatch.setattr(selection, "DEFAULT_JITTER", 0.0)
        E = np.array([[1.0, 0.0]] * 5)
        sal = np.array([0.1, 0.9, 0.3, 0.9, 0.5])
        res = compress(E, sal, CompressConfig(3, diversity_method="dpp"), t_sal=t_sal)
        # after the core's one pick the rest fill by descending saliency
        # (ties to the lower index): 1 then 3, or only 3 once stage 1 has
        # taken token 1 of the 0.9 tie
        np.testing.assert_array_equal(res.coverage_pick_order, order)
        assert res.diagnostics["stage2_fallback_count"] == len(order) - 1


@pytest.mark.parametrize("method", DIVERSITY_METHODS)
@pytest.mark.parametrize(
    "E, k",
    [(np.array([[1.0, 0.0]] * 5), 3),
     (np.random.default_rng(0).standard_normal((6, 2)), 5)],
    ids=["five-copies-k3", "rank2-6x2-k5"],
)
def test_cores_give_one_gain_per_pick_past_the_rank(monkeypatch, method, E, k):
    # without jitter the rank runs out before k picks; a core stops or goes
    # on picking, but never returns a pick without its gain
    monkeypatch.setattr(selection, "DEFAULT_JITTER", 0.0)
    pick = run_core(method, E, np.arange(len(E)), k)
    assert pick.gains.size == pick.pick_order.size <= k


class TestBruteForceMaxLogdet:
    def test_full_pool_forced(self, rng):
        E = rng.standard_normal((5, 4))
        idx, _ = brute_force_max_logdet(E, np.arange(5), 5)
        np.testing.assert_array_equal(idx, np.arange(5))

    def test_orthogonal_ties_lexicographic(self):
        idx, logdet = brute_force_max_logdet(np.eye(4), np.arange(4), 2)
        np.testing.assert_array_equal(idx, [0, 1])
        assert abs(logdet) < 1e-8

    def test_k_zero(self, rng):
        idx, logdet = brute_force_max_logdet(rng.standard_normal((4, 3)), np.arange(4), 0)
        assert idx.size == 0 and logdet == 0.0


class TestFpsCore:
    def test_full_pool(self, rng):
        E = rng.standard_normal((6, 4))
        pick = run_core("fps", E, np.arange(6), 6)
        np.testing.assert_array_equal(np.sort(pick.pick_order), np.arange(6))

    def test_planar_angles(self):
        # unit vectors at 0, 90, 180 degrees; start at index 0
        E = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        pick = run_core("fps", E, np.arange(3), 3)
        np.testing.assert_array_equal(pick.pick_order, [0, 2, 1])
        np.testing.assert_allclose(pick.gains[1:], [2.0, 1.0], atol=1e-9)

    def test_duplicate_of_start_picked_last(self):
        pick = run_core("fps", E1_E1_E2, np.arange(3), 2)
        np.testing.assert_array_equal(np.sort(pick.pick_order), [0, 2])


def _fl_instances(kind: str, count: int, seed: int):
    """(tokens, random pool, random k) triples of one criterion-6 kind."""
    for trial in range(count):
        rng = subseed_rng(seed, trial)
        n = int(rng.integers(4, 40))
        d = int(rng.integers(2, 16))
        tokens = kind_tokens(rng, kind, n, d, [seed, trial])
        pool = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        yield tokens, pool, int(rng.integers(1, pool.size + 1))


def _full_pool_instances():
    """20 (tokens, full pool, random k) triples: n in [3, 9), d = 4."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        tokens = rng.standard_normal((n, 4))
        yield tokens, np.arange(n), int(rng.integers(1, n + 1))


class TestFacilityLocationCore:
    def test_hand_example_k1(self):
        pick = run_core("facility_location", E1_E1_E2, np.arange(3), 1)
        np.testing.assert_array_equal(np.sort(pick.pick_order), [0])
        np.testing.assert_allclose(pick.gains, [2.5], atol=1e-9)
        np.testing.assert_allclose(
            facility_value(E1_E1_E2, np.arange(3), [0]), 2.5, atol=1e-9
        )

    def test_full_pool_covers_everything(self, rng):
        E = rng.standard_normal((5, 3))
        pick = run_core("facility_location", E, np.arange(5), 5)
        np.testing.assert_array_equal(np.sort(pick.pick_order), np.arange(5))
        np.testing.assert_allclose(pick.gains.sum(), 5.0, atol=1e-6)

    @pytest.mark.parametrize("kind", [k for k in TOKEN_KINDS if k != "duplicates"])
    def test_pick_order_matches_dense_greedy(self, kind):
        for tokens, pool, k in _fl_instances(kind, 300, 61):
            pick = run_core("facility_location", tokens, pool, k)
            dense_order, dense_gains = facility_location_dense(tokens, pool, k)
            np.testing.assert_array_equal(pick.pick_order, dense_order)
            np.testing.assert_allclose(pick.gains, dense_gains, rtol=0, atol=1e-12)

    def test_duplicates_match_dense_objective(self):
        # exact duplicates tie in exact arithmetic; the dense column sums and
        # the lazy row sums round differently, so either may take another
        # copy, but the objective and its trajectory agree to rounding
        for tokens, pool, k in _fl_instances("duplicates", 300, 62):
            pick = run_core("facility_location", tokens, pool, k)
            _, dense_gains = facility_location_dense(tokens, pool, k)
            np.testing.assert_allclose(pick.gains, dense_gains, rtol=0, atol=1e-9)
            assert abs(pick.gains.sum() - dense_gains.sum()) <= 1e-9
            again = run_core("facility_location", tokens, pool, k)
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

    @pytest.mark.parametrize("kind", TOKEN_KINDS)
    def test_bitwise_equal_to_one_row_lazy_greedy(self, kind):
        # batched re-evaluation changes how many stale bounds one row op
        # computes, never which candidate is picked or its gain
        def instances():
            yield from _fl_instances(kind, 100, 64)
            # the clip-fl benchmark's self-test shape: 72x64, T=16
            for seed in range(1, 11):
                rng = subseed_rng(seed, TOKEN_KINDS.index(kind))
                tokens = kind_tokens(rng, kind, 72, 64, [seed, 0])
                t_sal = int(rng.integers(0, 16))
                pool = np.sort(rng.choice(72, size=72 - t_sal, replace=False))
                yield tokens, pool, 16 - t_sal

        for tokens, pool, k in instances():
            pick = run_core("facility_location", tokens, pool, k)
            order, gains = facility_location_lazy_rowwise(tokens, pool, k)
            np.testing.assert_array_equal(pick.pick_order, order)
            assert pick.gains.tobytes() == gains.tobytes()

    def test_bitwise_equal_to_one_row_lazy_greedy_at_clip_shape(self):
        # a 576-token input whose saliency stage took one token
        tokens, _ = synth_tokens(576, 1024, 32, 1e-3, 71)
        pool = np.arange(1, 576)
        pick = run_core("facility_location", tokens, pool, 127)
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

    @pytest.mark.parametrize("kind", [*TOKEN_KINDS, "full-pool"])
    def test_gains_submodular_and_sum_to_objective(self, kind):
        # a stale heap bound taken as a gain would break one of the two
        instances = _full_pool_instances() if kind == "full-pool" else _fl_instances(kind, 25, 63)
        for tokens, pool, k in instances:
            pick = run_core("facility_location", tokens, pool, k)
            assert np.all(np.diff(pick.gains) <= 1e-12)
            np.testing.assert_allclose(
                pick.gains.sum(), facility_value(tokens, pool, pick.pick_order), rtol=0, atol=1e-8
            )
