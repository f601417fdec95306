import dataclasses
import sys
import threading

import numpy as np
import pytest
from oracles import leaf_share, span_paths

from adaptok import (
    CompressConfig,
    DegenerateInputError,
    InvalidBudgetError,
    InvalidInputError,
    compress,
    dpp_greedy_map,
    facility_location_select,
    fps_select,
    saliency_topk,
    selection_results_equal,
    spectral_entropy,
    synth_tokens,
)
from adaptok.tensor_core import _SPANS

CLIP = dict(mu=0.42, tau=0.02)


def _instance(n=48, d=12, k=4, seed=0):
    return synth_tokens(n, d, k, 1e-3, seed)


class TestCompress:
    def test_budget_equals_n_selects_everything(self):
        tokens, sal = _instance(n=20, d=6)
        res = compress(tokens, sal, CompressConfig(total_budget=20, **CLIP))
        np.testing.assert_array_equal(res.selected, np.arange(20))
        assert len(res.stage_of) == 20

    def test_concentrated_sample_is_pure_saliency(self):
        # rank-1 + tiny noise has normalized entropy ~0, far below mu
        tokens, sal = synth_tokens(128, 32, 1, 1e-4, 3)
        res = compress(tokens, sal, CompressConfig(total_budget=64, **CLIP))
        assert res.split.t_sal == 64 and res.split.t_cov == 0
        np.testing.assert_array_equal(res.selected, saliency_topk(sal, 64))
        assert all(s == "saliency" for s in res.stage_of)
        assert res.coverage_pick_order.size == 0

    def test_saliency_subset_is_exact_topk(self):
        tokens, sal = _instance(k=8)
        res = compress(tokens, sal, CompressConfig(total_budget=24, **CLIP))
        np.testing.assert_array_equal(
            res.saliency_indices, saliency_topk(sal, res.split.t_sal)
        )

    def test_stage_disjointness_and_budget(self):
        tokens, sal = _instance(k=6)
        for method in ("dpp", "fps", "facility_location"):
            res = compress(
                tokens, sal, CompressConfig(total_budget=16, diversity_method=method, **CLIP)
            )
            assert res.selected.size == 16
            assert len(set(res.selected.tolist())) == 16
            sal_set = set(res.saliency_indices.tolist())
            cov_set = set(res.coverage_indices.tolist())
            assert not sal_set & cov_set
            assert sal_set | cov_set == set(res.selected.tolist())

    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    @pytest.mark.parametrize("t_sal", [0, 5, 16])
    def test_stage_labels_are_derived_from_the_two_stages(self, method, t_sal):
        # only selected and coverage_pick_order are stored; the labels and
        # the per-stage index sets are read from them
        tokens, sal = _instance(k=6)
        cfg = CompressConfig(total_budget=16, diversity_method=method, **CLIP)
        res = compress(tokens, sal, cfg, t_sal=t_sal)
        top = saliency_topk(sal, t_sal)
        sal_set = set(top.tolist())
        assert res.stage_of == [
            "saliency" if i in sal_set else "coverage" for i in res.selected.tolist()
        ]
        np.testing.assert_array_equal(res.saliency_indices, top)
        np.testing.assert_array_equal(res.coverage_indices, np.sort(res.coverage_pick_order))
        assert res.saliency_indices.dtype == res.coverage_indices.dtype == np.int64
        assert "stage_of" not in {f.name for f in dataclasses.fields(res)}

    @pytest.mark.parametrize(
        "n_tokens,budgets",
        [(576, (128, 64, 32)), (2880, (640, 320, 160)), (1296, (512, 256, 128))],
    )
    def test_reference_budget_regimes_accepted(self, n_tokens, budgets):
        tokens, sal = synth_tokens(n_tokens, 16, 8, 1e-3, 1)
        for T in budgets:
            res = compress(
                tokens, sal, CompressConfig(total_budget=T, diversity_method="fps", **CLIP)
            )
            assert res.selected.size == T

    @pytest.mark.parametrize(
        "n_tokens,budget,reduction",
        [(576, 32, 0.944), (576, 64, 0.889), (2880, 320, 0.889), (1296, 256, 0.802)],
    )
    def test_reduction_arithmetic(self, n_tokens, budget, reduction):
        assert 1 - budget / n_tokens == pytest.approx(reduction, abs=5e-4)

    def test_sample_adaptivity(self):
        # entropies on opposite sides of mu +/- 5*tau must move t_sal by >= T/2
        T = 64
        lo_tokens, lo_sal = synth_tokens(256, 64, 1, 1e-4, 0)
        hi_tokens, hi_sal = synth_tokens(256, 64, 64, 1e-4, 0)
        lo = compress(lo_tokens, lo_sal, CompressConfig(total_budget=T, **CLIP))
        hi = compress(hi_tokens, hi_sal, CompressConfig(total_budget=T, **CLIP))
        assert lo.entropy.normalized_entropy < 0.42 - 5 * 0.02
        assert hi.entropy.normalized_entropy > 0.42 + 5 * 0.02
        assert lo.split.t_sal - hi.split.t_sal >= T // 2

    def test_bit_identical_repeat_runs(self):
        tokens, sal = _instance(k=5, seed=9)
        cfg = CompressConfig(total_budget=20, **CLIP)
        assert selection_results_equal(compress(tokens, sal, cfg), compress(tokens, sal, cfg))

    def test_diagnostics_present(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=12, **CLIP))
        assert "coverage_logdet" in res.diagnostics
        assert "min_pairwise_cosine_distance" in res.diagnostics
        assert set(res.timings_us) == span_paths(res.split.t_cov)

    def test_budget_above_n_rejected(self):
        tokens, sal = _instance(n=10)
        with pytest.raises(InvalidBudgetError):
            compress(tokens, sal, CompressConfig(total_budget=11, **CLIP))

    def test_all_zero_tokens_rejected(self):
        with pytest.raises(DegenerateInputError):
            compress(np.zeros((8, 4)), np.ones(8), CompressConfig(total_budget=4, **CLIP))

    def test_saliency_length_mismatch_rejected(self):
        tokens, _ = _instance(n=10)
        with pytest.raises(InvalidInputError):
            compress(tokens, np.ones(9), CompressConfig(total_budget=4, **CLIP))

    def test_zero_rows_survive(self):
        tokens, sal = _instance(n=24, d=8, k=3)
        tokens = tokens.copy()
        tokens[::3] = 0.0  # a third of the rows are zero
        res = compress(tokens, sal, CompressConfig(total_budget=20, **CLIP))
        assert res.selected.size == 20


class TestCompressFixed:
    def test_pure_saliency_boundary(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=16)
        assert all(s == "saliency" for s in res.stage_of)
        np.testing.assert_array_equal(res.selected, saliency_topk(sal, 16))

    def test_pure_coverage_boundary(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=0)
        assert all(s == "coverage" for s in res.stage_of)
        assert res.split.t_sal == 0 and res.split.t_cov == 16

    def test_benchmark_average_split(self):
        tokens, sal = synth_tokens(576, 24, 6, 1e-3, 2)
        res = compress(tokens, sal, CompressConfig(total_budget=64, **CLIP), t_sal=12)
        assert (res.split.t_sal, res.split.t_cov) == (12, 52)
        assert res.selected.size == 64

    def test_entropy_still_reported(self):
        tokens, sal = _instance(k=1)
        res = compress(tokens, sal, CompressConfig(total_budget=8, **CLIP), t_sal=4)
        assert res.entropy.normalized_entropy < 0.05

    def test_fixed_split_out_of_range(self):
        tokens, sal = _instance()
        with pytest.raises(InvalidBudgetError):
            compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=17)
        with pytest.raises(InvalidBudgetError):
            compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=-1)

    @pytest.mark.parametrize(
        "t_sal", [2.7, 4.0, np.float64(4.0), "4"],
        ids=["fraction", "float", "numpy-float", "str"],
    )
    def test_non_integer_t_sal_rejected(self, t_sal):
        tokens, sal = _instance()
        with pytest.raises(InvalidBudgetError):
            compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=t_sal)

    def test_numpy_integer_t_sal_accepted(self):
        tokens, sal = _instance()
        cfg = CompressConfig(total_budget=16, **CLIP)
        res = compress(tokens, sal, cfg, t_sal=np.int64(4))
        assert type(res.split.t_sal) is int
        assert selection_results_equal(res, compress(tokens, sal, cfg, t_sal=4))

    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    def test_forcing_the_chosen_split_changes_nothing(self, method):
        # the forced path must select exactly what the adaptive path did
        # when handed its own split; only coverage_ratio may differ
        # (sigmoid output vs t_cov / T)
        for seed, k in enumerate((1, 3, 6, 12)):
            tokens, sal = synth_tokens(96, 16, k, 1e-3, seed)
            cfg = CompressConfig(total_budget=24, diversity_method=method, mu=0.42, tau=0.05)
            r = compress(tokens, sal, cfg)
            f = compress(tokens, sal, cfg, t_sal=r.split.t_sal)
            assert (f.split.t_sal, f.split.t_cov) == (r.split.t_sal, r.split.t_cov)
            np.testing.assert_array_equal(f.selected, r.selected)
            assert f.stage_of == r.stage_of
            np.testing.assert_array_equal(f.coverage_pick_order, r.coverage_pick_order)
            assert f.diagnostics == r.diagnostics

    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    @pytest.mark.parametrize(
        "n, d, k_dir, seed, T",
        # the second is a corpus input on which facility location's last
        # pick is a near-tie that the kernel's rounding decides
        [(576, 1024, 256, 11, 128), (24, 40, 6, 3, 12), (64, 64, 16, 11, 16),
         (96, 64, 16, 11, 24)],
        ids=["n<d", "n<d-near-tie", "n=d", "n>d"],
    )
    def test_stage2_picks_are_the_public_selectors(self, method, n, d, k_dir, seed, T):
        # at n < d stage 2 slices the entropy's Gram and a public selector
        # forms the same Gram itself, so the picks agree bit for bit
        tokens, sal = synth_tokens(n, d, k_dir, 1e-3, seed)
        cfg = CompressConfig(total_budget=T, diversity_method=method)
        res = compress(tokens, sal, cfg, t_sal=T // 2)
        pool = np.setdiff1d(np.arange(n), res.saliency_indices)
        select = {
            "dpp": lambda *args: dpp_greedy_map(*args, saliency=sal),
            "fps": fps_select,
            "facility_location": facility_location_select,
        }[method]
        pick = select(tokens, pool, res.split.t_cov)
        assert res.split.t_cov > 0
        assert pick.pick_order.tobytes() == res.coverage_pick_order.tobytes()


def _assert_nested(timings: dict[str, float]) -> None:
    # the spans under one parent run one after another inside it
    children: dict[str, float] = {}
    for path, us in timings.items():
        if path != "total":
            parent = path.rpartition("/")[0] or "total"
            children[parent] = children.get(parent, 0.0) + us
    for parent, us in children.items():
        assert us <= timings[parent] * (1 + 1e-9), parent


class TestTimings:
    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    @pytest.mark.parametrize("t_sal", [None, 0, 4, 12], ids=["adaptive", "0", "4", "T"])
    def test_span_paths_and_nesting(self, method, t_sal):
        tokens, sal = _instance()
        config = CompressConfig(total_budget=12, diversity_method=method, **CLIP)
        res = compress(tokens, sal, config, t_sal=t_sal)
        assert set(res.timings_us) == span_paths(res.split.t_cov)
        assert all(us >= 0.0 for us in res.timings_us.values())
        _assert_nested(res.timings_us)

    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    def test_leaves_cover_the_call_at_clip_shape(self, method):
        # 16 directions put this input near the clip midpoint: t_sal = 19
        tokens, sal = synth_tokens(576, 1024, 16, 1e-3, 0)
        res = compress(tokens, sal, CompressConfig(total_budget=64, diversity_method=method))
        assert 0 < res.split.t_cov < 64
        assert leaf_share(res.timings_us) >= 0.95

    def test_calls_outside_compress_record_nothing(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=12, **CLIP))
        before = dict(res.timings_us)
        spectral_entropy(tokens)
        for select in (dpp_greedy_map, fps_select, facility_location_select):
            select(tokens, np.arange(48), 5)
        assert res.timings_us == before
        assert _SPANS.get() is None

    def test_raising_compress_leaves_no_recording(self):
        # raised inside the entropy span, once its nested spans have closed
        with pytest.raises(DegenerateInputError):
            compress(np.zeros((8, 4)), np.ones(8), CompressConfig(total_budget=4, **CLIP))
        assert _SPANS.get() is None
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=12, **CLIP), t_sal=12)
        assert set(res.timings_us) == span_paths(0)
        _assert_nested(res.timings_us)

    def test_concurrent_calls_keep_their_own_timings(self):
        # one thread never runs a selector and the other always does, so a
        # recording shared between them leaks stage-2 paths into the first
        jobs = {"saliency-only": (12, span_paths(0)), "coverage": (2, span_paths(10))}
        tokens, sal = _instance()
        config = CompressConfig(total_budget=12, **CLIP)
        barrier = threading.Barrier(len(jobs))
        results: dict[str, list] = {name: [] for name in jobs}
        runs = 200  # 40 runs each let a shared recording pass now and then

        def work(name):
            barrier.wait(timeout=10)
            for _ in range(runs):
                results[name].append(compress(tokens, sal, config, t_sal=jobs[name][0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name, (_, paths) in jobs.items():
            assert len(results[name]) == runs
            for res in results[name]:
                assert set(res.timings_us) == paths
                _assert_nested(res.timings_us)
