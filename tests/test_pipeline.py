import dataclasses
import math
import pickle
import sys
import threading
from copy import deepcopy

import numpy as np
import pytest
from oracles import leaf_share, run_core, span_paths

from adaptok import (
    AdaptokError,
    CompressConfig,
    DegenerateInputError,
    InvalidBudgetError,
    InvalidInputError,
    compress,
    saliency_topk,
    selection_result_to_json,
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

    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    @pytest.mark.parametrize("n, d", [(24, 40), (48, 12)], ids=["n<d", "n>=d"])
    def test_empty_stage2_has_coverage_logdet_zero(self, method, n, d):
        # t_sal = T leaves stage 2 empty: the log-determinant of its 0x0
        # kernel is +0.0, written as 0.0
        tokens, sal = synth_tokens(n, d, 3, 1e-3, 0)
        res = compress(tokens, sal, CompressConfig(12, diversity_method=method), t_sal=12)
        logdet = res.diagnostics["coverage_logdet"]
        assert logdet == 0.0 and math.copysign(1.0, logdet) == 1.0
        assert '"coverage_logdet": 0.0,' in selection_result_to_json(res)

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

    def test_equality_is_document_equality(self):
        tokens, sal = _instance()
        h = spectral_entropy(tokens).normalized_entropy
        # at mu = h the sigmoid gives ratio 0.5, the ratio the forced half split stores
        cfg = CompressConfig(total_budget=16, mu=h, tau=0.02)
        allocated = compress(tokens, sal, cfg)
        timed = dataclasses.replace(allocated, timings_us={"total": 1.0})
        assert selection_results_equal(allocated, timed)
        forced = compress(tokens, sal, cfg, t_sal=8)
        assert forced.split == allocated.split
        np.testing.assert_array_equal(forced.selected, allocated.selected)
        # the documents differ in forced_t_sal, and only there
        assert not selection_results_equal(forced, allocated)
        assert selection_results_equal(dataclasses.replace(forced, forced_t_sal=None), allocated)

    def test_eq_in_and_hash_are_identity(self):
        # arrays have no single truth value, so a field-wise == would raise
        tokens, sal = _instance()
        cfg = CompressConfig(total_budget=12, **CLIP)
        a, b = compress(tokens, sal, cfg), compress(tokens, sal, cfg)
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert len({a, b, a}) == 2
        pick, again = (run_core("dpp", tokens, np.arange(len(tokens)), 4, sal) for _ in range(2))
        assert pick == pick and pick != again
        assert pick in {pick} and again not in {pick}

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
    @pytest.mark.parametrize("share", [0.5, 0.0], ids=["t_sal=T/2", "t_sal=0"])
    def test_stage2_picks_are_the_selector_cores(self, method, n, d, k_dir, seed, T, share):
        # run_core hands the core the entropy's Gram as compress does, so
        # the picks agree bit for bit; t_sal=0 is how a caller runs stage 2
        # over rows of its own, the core over every row
        tokens, sal = synth_tokens(n, d, k_dir, 1e-3, seed)
        t_sal = int(share * T)
        res = compress(tokens, sal, CompressConfig(total_budget=T, diversity_method=method), t_sal)
        pool = np.setdiff1d(np.arange(n), res.saliency_indices)
        pick = run_core(method, tokens, pool, T - t_sal, sal)
        assert pick.pick_order.tobytes() == res.coverage_pick_order.tobytes()



def _forced_result():
    # t_sal = 5 of 12 has picks of both stages
    tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
    return compress(tokens, sal, CompressConfig(12), t_sal=5)


def _outside_pick_order(res):
    order = res.coverage_pick_order.copy()
    order[0] = np.setdiff1d(np.arange(40), res.selected)[0]
    return order


class TestSelectionResult:
    # each is written by selection_result_to_json if it builds, and refused
    # by the reader; building it is refused instead
    @pytest.mark.parametrize(
        "edit, message",
        [(lambda r: {"selected": r.selected[::-1]}, "strictly increasing"),
         (lambda r: {"selected": r.selected[:-1]}, "total_budget entries"),
         (lambda r: {"forced_t_sal": 2.5}, "forced_t_sal: expected an integer"),
         (lambda r: {"diagnostics": {}}, "diagnostics keys"),
         (lambda r: {"coverage_pick_order": _outside_pick_order(r)}, "permutation"),
         (lambda r: {"selected": r.selected.astype(float)}, "selected: expected an integer"),
         (lambda r: {"selected": np.ones(12, dtype=bool)}, "selected: expected an integer"),
         (lambda r: {"coverage_pick_order": [True] * 7}, "coverage_pick_order: expected an"),
         (lambda r: {"selected": 12}, "selected must be a sequence of int64 indices"),
         (lambda r: {"selected": [*r.selected[:-1].tolist(), 2**63]}, "sequence of int64"),
         (lambda r: {"diagnostics": []}, "diagnostics must be a dict"),
         (lambda r: {"config": {"total_budget": 12}}, "config must be a CompressConfig"),
         (lambda r: {"entropy": None}, "entropy an EntropyReport")],
        ids=["reversed", "one-pick-short", "fractional-forced-t_sal", "empty-diagnostics",
             "pick-order-outside-selected", "float-selected", "bool-selected",
             "bool-pick-order", "scalar-selected", "beyond-int64", "diagnostics-list",
             "config-dict", "no-entropy"],
    )
    def test_refuses_a_result_no_compress_returns(self, edit, message):
        res = _forced_result()
        with pytest.raises(AdaptokError, match=message):
            dataclasses.replace(res, **edit(res))

    @pytest.mark.parametrize("method", ["dpp", "fps", "facility_location"])
    @pytest.mark.parametrize(
        "t_sal", [None, 0, 6, 12],
        ids=["allocated", "coverage-heavy", "midpoint", "saliency-heavy"],
    )
    def test_rebuilding_a_compress_result_writes_the_same_bytes(self, method, t_sal):
        for n, d in ((24, 40), (48, 12)):
            tokens, sal = synth_tokens(n, d, 3, 1e-3, 1)
            res = compress(tokens, sal, CompressConfig(12, diversity_method=method), t_sal)
            copy = dataclasses.replace(res)
            assert selection_result_to_json(copy) == selection_result_to_json(res)

    def test_stores_checked_values(self):
        # a numpy count is stored as an int and an integral diagnostic as a
        # float, as compress stores them
        res = _forced_result()
        diagnostics = {**res.diagnostics, "stage2_fallback_count": 0}
        copy = dataclasses.replace(res, forced_t_sal=np.int64(5), diagnostics=diagnostics)
        assert type(copy.forced_t_sal) is int
        assert type(copy.diagnostics["stage2_fallback_count"]) is float
        assert selection_results_equal(copy, res)

    def test_stores_indices_as_read_only_int64_copies(self):
        res = _forced_result()
        given = res.selected.tolist(), res.coverage_pick_order.astype(np.int32)
        copy = dataclasses.replace(res, selected=given[0], coverage_pick_order=given[1])
        assert selection_results_equal(copy, res)
        given[1][0] = 39  # the caller's array is not the stored one
        assert selection_results_equal(copy, res)
        for arr in (copy.selected, copy.coverage_pick_order):
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 39

    def test_fields_cannot_be_rebound(self):
        res = _forced_result()
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.selected = res.selected[::-1]

    @pytest.mark.parametrize(
        "mutate",
        [lambda d: d.__setitem__("coverage_rank", 7.0),
         lambda d: d.__setitem__("coverage_logdet", 0.0),
         lambda d: d.__delitem__("coverage_logdet"),
         lambda d: d.__ior__({"coverage_rank": 7.0}),
         lambda d: d.update(coverage_rank=7.0), lambda d: d.setdefault("coverage_rank", 7.0),
         lambda d: d.pop("coverage_logdet"), lambda d: d.popitem(), lambda d: d.clear()],
        ids=["add", "set", "del", "ior", "update", "setdefault", "pop", "popitem", "clear"],
    )
    def test_diagnostics_cannot_be_changed(self, mutate):
        # the checked diagnostics stay the checked ones
        res = _forced_result()
        before = dict(res.diagnostics)
        with pytest.raises(TypeError, match="read-only"):
            mutate(res.diagnostics)
        assert res.diagnostics == before

    @pytest.mark.parametrize(
        "clone", [lambda r: pickle.loads(pickle.dumps(r)), deepcopy, dataclasses.replace],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_a_clone_writes_the_same_bytes_and_stays_read_only(self, clone):
        res = _forced_result()
        twin = clone(res)
        assert selection_result_to_json(twin) == selection_result_to_json(res)
        with pytest.raises(TypeError, match="read-only"):
            twin.diagnostics["coverage_rank"] = 7.0


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
        config = CompressConfig(total_budget=64, diversity_method=method)
        res = compress(tokens, sal, config)  # warm-up
        assert 0 < res.split.t_cov < 64
        # a wall-clock share: the best of three calls, so one scheduling stall
        # inside a gap between spans does not decide it
        shares = [leaf_share(compress(tokens, sal, config).timings_us) for _ in range(3)]
        assert max(shares) >= 0.95, shares

    def test_calls_outside_compress_record_nothing(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=12, **CLIP))
        before = dict(res.timings_us)
        spectral_entropy(tokens)
        for method in ("dpp", "fps", "facility_location"):
            run_core(method, tokens, np.arange(48), 5, sal)
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
