import dataclasses
import math
import pickle
import sys
import threading
from copy import deepcopy

import numpy as np
import pytest
from oracles import leaf_share, run_core, span_paths, vit_tokens

from adaptok import (
    DIVERSITY_METHODS,
    AdaptokError,
    CompressConfig,
    DegenerateInputError,
    allocate_budget,
    compress,
    saliency_topk,
    selection_result_to_json,
    selection_results_equal,
    spectral_entropy,
    subseed_rng,
    synth_tokens,
)
from adaptok.prominence import _bounds_report, _certifies, _collision_mass, _renyi2_report, _ritz_bounds
from adaptok.tensor_core import _SPANS, _gram

CLIP = dict(mu=0.42, tau=0.02)


def _instance(n=48, d=12, k=4, seed=0):
    return synth_tokens(n, d, k, 1e-3, seed)


class TestCompress:
    def test_budget_equals_n_selects_everything(self):
        tokens, sal = _instance(n=20, d=6)
        res = compress(tokens, sal, CompressConfig(total_budget=20, **CLIP))
        np.testing.assert_array_equal(res.selected, np.arange(20))

    def test_concentrated_sample_is_pure_saliency(self):
        # rank-1 + tiny noise has normalized entropy ~0, far below mu
        tokens, sal = synth_tokens(128, 32, 1, 1e-4, 3)
        res = compress(tokens, sal, CompressConfig(total_budget=64, **CLIP))
        assert res.split.t_sal == 64 and res.split.t_cov == 0
        np.testing.assert_array_equal(res.selected, saliency_topk(sal, 64))
        assert res.coverage_pick_order.size == 0

    def test_stage_disjointness_and_budget(self):
        tokens, sal = _instance(k=6)
        for method in DIVERSITY_METHODS:
            res = compress(
                tokens, sal, CompressConfig(total_budget=16, diversity_method=method, **CLIP)
            )
            assert res.selected.size == 16
            assert len(set(res.selected.tolist())) == 16
            sal_set = set(res.saliency_indices.tolist())
            cov_set = set(res.coverage_indices.tolist())
            assert not sal_set & cov_set
            assert sal_set | cov_set == set(res.selected.tolist())

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    @pytest.mark.parametrize("t_sal", [0, 5, 16])
    def test_stage_indices_are_derived_from_the_two_stages(self, method, t_sal):
        # only selected and coverage_pick_order are stored; the per-stage
        # index sets are read from them
        tokens, sal = _instance(k=6)
        cfg = CompressConfig(total_budget=16, diversity_method=method, **CLIP)
        res = compress(tokens, sal, cfg, t_sal=t_sal)
        assert (res.split.t_sal, res.split.t_cov) == (t_sal, 16 - t_sal)
        np.testing.assert_array_equal(res.saliency_indices, saliency_topk(sal, t_sal))
        np.testing.assert_array_equal(res.coverage_indices, np.sort(res.coverage_pick_order))
        assert res.saliency_indices.dtype == res.coverage_indices.dtype == np.int64

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

    def test_power_law_spectra_and_high_norm_tokens(self):
        # h falls as the spectrum steepens and as high-norm tokens are added,
        # on every seed; at T=16 and the default mu and tau the split is
        # coverage-heavy up to alpha 0.75, and a few high-norm tokens make it
        # saliency-only at every alpha
        alphas = (0.25, 0.5, 0.75, 1.0)
        for seed in range(5):
            h = {}
            for alpha in alphas:
                for outliers in (0, 4, 12):
                    tokens, saliency = vit_tokens(96, 64, alpha, outliers, seed)
                    h[alpha, outliers] = spectral_entropy(tokens).normalized_entropy
                    t_cov = 0 if outliers else (1 if alpha == 1.0 else 15)
                    for method in DIVERSITY_METHODS:
                        config = CompressConfig(total_budget=16, diversity_method=method)
                        split = compress(tokens, saliency, config).split
                        assert split.t_cov == t_cov, (seed, alpha, outliers, method)
                assert h[alpha, 12] < h[alpha, 4] < h[alpha, 0], (seed, alpha)
            for outliers in (0, 4, 12):
                falling = [h[alpha, outliers] for alpha in alphas]
                assert all(a > b for a, b in zip(falling, falling[1:])), (seed, falling)

    def test_bit_identical_repeat_runs(self):
        tokens, sal = _instance(k=5, seed=9)
        cfg = CompressConfig(total_budget=20, **CLIP)
        assert selection_results_equal(compress(tokens, sal, cfg), compress(tokens, sal, cfg))

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    @pytest.mark.parametrize("n, d", [(24, 40), (48, 12)], ids=["n<d", "n>=d"])
    def test_empty_stage2_has_coverage_logdet_zero(self, method, n, d):
        # t_sal = T leaves stage 2 empty: no core runs, and the
        # log-determinant of its 0x0 kernel is +0.0, written as 0.0
        tokens, sal = synth_tokens(n, d, 3, 1e-3, 0)
        res = compress(tokens, sal, CompressConfig(12, diversity_method=method), t_sal=12)
        assert res.coverage_pick_order.size == 0
        assert res.coverage_pick_order.dtype == np.int64
        logdet = res.diagnostics["coverage_logdet"]
        assert logdet == 0.0 and math.copysign(1.0, logdet) == 1.0
        assert '"coverage_logdet": 0.0,' in selection_result_to_json(res)

    def test_all_zero_tokens_rejected(self):
        with pytest.raises(DegenerateInputError):
            compress(np.zeros((8, 4)), np.ones(8), CompressConfig(total_budget=4, **CLIP))

    def test_zero_rows_survive(self):
        tokens, sal = _instance(n=24, d=8, k=3)
        tokens = tokens.copy()
        tokens[::3] = 0.0  # a third of the rows are zero
        res = compress(tokens, sal, CompressConfig(total_budget=20, **CLIP))
        assert res.selected.size == 20


class TestForcedSplit:
    def test_pure_saliency_boundary(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=16)
        assert res.coverage_indices.size == 0
        np.testing.assert_array_equal(res.selected, saliency_topk(sal, 16))

    def test_pure_coverage_boundary(self):
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=16, **CLIP), t_sal=0)
        np.testing.assert_array_equal(res.coverage_indices, res.selected)
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
        pick, again = (run_core("dpp", tokens, np.arange(len(tokens)), 4) for _ in range(2))
        assert pick == pick and pick != again
        assert pick in {pick} and again not in {pick}

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    def test_forced_split_reads_neither_mu_nor_tau(self, method):
        # the canonical corpus runs each forced split under one (mu, tau)
        tokens, sal = _instance()
        base = CompressConfig(total_budget=16, diversity_method=method)
        for t_sal in (0, 5, 16):
            expected = compress(tokens, sal, base, t_sal=t_sal)
            for mu, tau in ((0.05, 1e-6), (0.42, 0.02), (0.95, 0.5)):
                config = dataclasses.replace(base, mu=mu, tau=tau)
                res = compress(tokens, sal, config, t_sal=t_sal)
                assert res.config == config
                assert selection_results_equal(dataclasses.replace(res, config=base), expected)

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
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
            np.testing.assert_array_equal(f.coverage_pick_order, r.coverage_pick_order)
            assert f.diagnostics == r.diagnostics

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    def test_a_certified_split_is_the_exact_one(self, method):
        # over the synth and vit_tokens grids, the exact entropy lies within
        # every input's Renyi-2 interval and between the Ritz block's two
        # ends wherever the step runs, every split is the one it allocates,
        # a certified result reports the interval of compress's bounds, and
        # it picks what the split forced at it picks.  The last row is an
        # in-band input at the CLIP shape (t_cov 7 of 64) that only the
        # block's two ends certify, so it skips the eigensolve
        inputs = [(*synth_tokens(n, d, k, noise, 0), 16)
                  for n, d in ((96, 64), (64, 96), (200, 32)) for k in (1, 2, 4, 8, 16, 32)
                  for noise in (0.0, 1e-3, 5e-2)]
        inputs += [(*vit_tokens(96, 64, alpha, outliers, 0), 16)
                   for alpha in (0.25, 0.5, 0.75, 1.0) for outliers in (0, 4, 12)]
        inputs.append((*synth_tokens(576, 1024, 11, 1e-3, subseed_rng(0, 2)), 64))
        certified = ran = 0
        for tokens, sal, T in inputs:
            config = CompressConfig(total_budget=T, diversity_method=method)
            exact = spectral_entropy(tokens)  # the public entropy keeps the eigensolve
            assert exact.low == exact.high
            h = exact.normalized_entropy
            G = _gram(tokens)
            trace, q = _collision_mass(G, tokens.size)
            renyi2 = _renyi2_report(q, G.shape[0])
            assert renyi2.low <= h <= renyi2.high
            ritz = _ritz_bounds(G, trace, q)
            if ritz is not None:
                ran += 1
                assert ritz[0] <= h <= ritz[1]
            interval = _bounds_report(G, tokens.size, config)
            t_sal = allocate_budget(h, config).t_sal
            res = compress(tokens, sal, config)
            assert res.split.t_sal == t_sal
            if interval is None:
                assert res.entropy == exact
                continue
            assert res.entropy == interval
            assert interval.low <= h <= interval.high
            assert interval.low < interval.high
            assert "entropy/eigvalsh" not in res.timings_us
            certified += 1
            forced = compress(tokens, sal, config, t_sal=t_sal)
            np.testing.assert_array_equal(res.selected, forced.selected)
            np.testing.assert_array_equal(res.coverage_pick_order, forced.coverage_pick_order)
            assert res.diagnostics == forced.diagnostics
        assert res.split.t_cov == 7 and interval is not None
        assert not _certifies(renyi2, config)
        assert 0 < certified < len(inputs)
        assert 0 < ran < len(inputs)

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
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
        pick = run_core(method, tokens, pool, T - t_sal)
        assert pick.pick_order.tobytes() == res.coverage_pick_order.tobytes()



def _forced_result():
    # t_sal = 5 of 12 has picks of both stages
    tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
    return compress(tokens, sal, CompressConfig(12), t_sal=5)


class TestSelectionResult:
    # builds that no result document can express; a refusal that a document
    # can express is a reader row of test_io_formats.py
    @pytest.mark.parametrize(
        "edit, message",
        [({"selected": np.ones(12, dtype=bool)}, "selected: expected an integer"),
         ({"config": {"total_budget": 12}}, "config must be a CompressConfig"),
         ({"entropy": None}, "entropy an EntropyReport")],
        ids=["bool-selected", "config-dict", "no-entropy"],
    )
    def test_refuses_a_result_no_compress_returns(self, edit, message):
        with pytest.raises(AdaptokError, match=message):
            dataclasses.replace(_forced_result(), **edit)

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
    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    @pytest.mark.parametrize("t_sal", [None, 0, 4, 12], ids=["adaptive", "0", "4", "T"])
    def test_span_paths_and_nesting(self, method, t_sal):
        tokens, sal = _instance()
        config = CompressConfig(total_budget=12, diversity_method=method, **CLIP)
        res = compress(tokens, sal, config, t_sal=t_sal)
        certified = res.entropy.low < res.entropy.high
        assert set(res.timings_us) == span_paths(res.split.t_cov, t_sal is not None, certified)
        assert all(us >= 0.0 for us in res.timings_us.values())
        _assert_nested(res.timings_us)

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
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
        for method in DIVERSITY_METHODS:
            run_core(method, tokens, np.arange(48), 5)
        assert res.timings_us == before
        assert _SPANS.get() is None

    def test_raising_compress_leaves_no_recording(self):
        # raised inside the entropy span, once its nested spans have closed
        with pytest.raises(DegenerateInputError):
            compress(np.zeros((8, 4)), np.ones(8), CompressConfig(total_budget=4, **CLIP))
        assert _SPANS.get() is None
        tokens, sal = _instance()
        res = compress(tokens, sal, CompressConfig(total_budget=12, **CLIP), t_sal=12)
        assert set(res.timings_us) == span_paths(0, forced=True)
        _assert_nested(res.timings_us)

    def test_concurrent_calls_keep_their_own_timings(self):
        # one thread never runs a selector and the other always does, so a
        # recording shared between them leaks stage-2 paths into the first
        jobs = {"saliency-only": (12, span_paths(0, forced=True)),
                "coverage": (2, span_paths(10, forced=True))}
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
