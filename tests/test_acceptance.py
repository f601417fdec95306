"""Acceptance suite: one test per exit criterion, each printing a
[PASS]/[FAIL] line with its runtime (run with `pytest -s` to see them).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import (
    TOKEN_KINDS,
    brute_force_max_logdet,
    dpp_greedy_naive,
    feature_norm_entropy,
    kind_tokens,
    leaf_share,
    package_kernel,
    random_orthogonal,
    run_core,
    sigmoid_scalar,
    verify_fps_order,
)

from adaptok import (
    DIVERSITY_METHODS,
    CompressConfig,
    allocate_budget,
    compress,
    estimate_prefill_flops,
    flops_reduction,
    saliency_topk,
    selection_results_equal,
    spectral_entropy,
    subseed_rng,
    synth_tokens,
)
from adaptok.selection import DEFAULT_JITTER


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"\n[FAIL] criterion {num}: {label} (runtime {elapsed:.2f}s >= {budget_s}s)")
        pytest.fail(f"criterion {num} exceeded its {budget_s}s runtime budget")
    print(f"\n[PASS] criterion {num}: {label} ({elapsed:.2f}s)")


def compress_ms(tokens, saliency, cfg):
    """(wall-clock ms of one ``compress`` call, its result)."""
    t0 = time.perf_counter()
    result = compress(tokens, saliency, cfg)
    return (time.perf_counter() - t0) * 1e3, result


def best_of_three_ms(tokens, saliency, cfg):
    """(fastest of three ``compress`` calls in ms, all three in ms, last result).

    Best of three shields the measurement from CPU steal on shared boxes;
    the bound characterizes the implementation, not the host.
    """
    runs = [compress_ms(tokens, saliency, cfg) for _ in range(3)]
    times_ms = [ms for ms, _ in runs]
    return min(times_ms), times_ms, runs[-1][1]


def timings_note(warmup_ms, times_ms):
    # a slow warm-up with fast timed runs points at a cold host; three
    # scattered slow runs point at contention
    runs = ", ".join(f"{t:.1f}" for t in times_ms)
    return f"warm-up {warmup_ms:.1f} ms, timed runs {runs} ms"


def test_criterion_1_entropy_analytics():
    with criterion(1, "entropy analytics and invariance suites", 10.0):
        rng = np.random.default_rng(11)

        rank1 = np.outer(rng.standard_normal(24), rng.standard_normal(8))
        assert spectral_entropy(rank1).normalized_entropy < 1e-6

        ortho = random_orthogonal(32, rng)  # equal-energy orthonormal rows
        assert abs(spectral_entropy(ortho).normalized_entropy - 1.0) < 1e-6

        for trial in range(200):
            trng = subseed_rng(101, trial)
            n = int(trng.integers(2, 12))
            d = int(trng.integers(2, 12))
            E = trng.standard_normal((n, d))
            base = spectral_entropy(E).normalized_entropy

            c = float(trng.uniform(0.01, 100.0)) * float(trng.choice([-1.0, 1.0]))
            assert abs(spectral_entropy(c * E).normalized_entropy - base) < 1e-9

            Q = random_orthogonal(d, trng)
            assert abs(spectral_entropy(E @ Q).normalized_entropy - base) < 1e-8

            perm = trng.permutation(n)
            assert abs(spectral_entropy(E[perm]).normalized_entropy - base) < 1e-8


def test_criterion_2_monotone_concentration():
    with criterion(2, "monotone concentration vs insensitive norm entropy", 30.0):
        ks = (1, 2, 4, 8, 16)
        spectral_means = []
        norm_means = []
        for k in ks:
            sp, fn = [], []
            for seed in range(20):
                tokens, _ = synth_tokens(256, 64, k, 1e-3, [17, k, seed])
                sp.append(spectral_entropy(tokens).normalized_entropy)
                fn.append(feature_norm_entropy(tokens))
            spectral_means.append(float(np.mean(sp)))
            norm_means.append(float(np.mean(fn)))

        assert all(a < b for a, b in zip(spectral_means, spectral_means[1:])), spectral_means
        assert max(norm_means) - min(norm_means) < 0.05, norm_means
        print(
            f"\n  spectral means per k={ks}: {[round(m, 4) for m in spectral_means]}"
            f"\n  norm-entropy span: {max(norm_means) - min(norm_means):.2e}"
        )


def test_criterion_3_budget_allocation():
    with criterion(3, "budget allocation identities and monotonicity", 5.0):
        budgets = (1, 2, 32, 64, 127, 128, 320)
        for T in budgets:
            cfg = CompressConfig(total_budget=T, mu=0.42, tau=0.02)

            mid = allocate_budget(0.42, cfg)
            assert mid.t_cov == T // 2 and mid.t_sal == T - T // 2
            assert mid.coverage_ratio == 0.5

            hi = allocate_budget(0.42 + 10 * 0.02, cfg)
            lo = allocate_budget(0.42 - 10 * 0.02, cfg)
            assert hi.t_cov == math.floor(T * sigmoid_scalar(10.0))
            assert lo.t_cov == math.floor(T * sigmoid_scalar(-10.0))
            # T * sigmoid(-10) < 1 for every T up to 22,026, so t_sal stays >= 1
            assert (hi.t_sal, hi.t_cov) == (1, T - 1)
            assert (lo.t_sal, lo.t_cov) == (T, 0)

            prev = -1
            for h in np.linspace(0.0, 1.0, 1001):
                split = allocate_budget(float(h), cfg)
                assert split.t_sal + split.t_cov == T
                assert split.t_cov >= prev
                prev = split.t_cov


def test_criterion_4_dpp_correctness():
    with criterion(4, "fast greedy DPP vs naive greedy and exhaustive optimum", 60.0):
        ratios = []
        for trial in range(200):
            rng = subseed_rng(7, trial)
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, min(6, n) + 1))
            d = int(rng.integers(max(k, 4), 13))
            E = rng.standard_normal((n, d))
            pool = np.arange(n)

            fast = run_core("dpp", E, pool, k)
            naive_order, _ = dpp_greedy_naive(E, pool, k)
            np.testing.assert_array_equal(fast.pick_order, naive_order)

            assert np.all(np.diff(fast.gains) <= 1e-12)  # monotone marginal gains

            _, opt_logdet = brute_force_max_logdet(E, pool, k)
            # the jittered kernel that compress's coverage_logdet reads
            L = package_kernel(E, np.sort(fast.pick_order))
            L[np.diag_indices(k)] += DEFAULT_JITTER
            sign, greedy_logdet = np.linalg.slogdet(L)
            assert sign > 0
            assert greedy_logdet <= opt_logdet + 1e-9
            ratios.append(math.exp(greedy_logdet - opt_logdet))

        ratios = np.asarray(ratios)
        median, rmin = float(np.median(ratios)), float(ratios.min())
        assert median >= 0.9, f"median greedy/optimal ratio {median}"
        print(f"\n  greedy/optimal determinant ratio: median={median:.4f} min={rmin:.4f}")


def test_criterion_5_alternate_selectors():
    with criterion(5, "FPS max-min verification and FL (1-1/e) guarantee", 60.0):
        for trial in range(100):
            rng = subseed_rng(23, trial)
            n = int(rng.integers(3, 13))
            d = int(rng.integers(2, 8))
            E = rng.standard_normal((n, d))
            pool = np.arange(n)
            k = int(rng.integers(1, n + 1))
            pick = run_core("fps", E, pool, k)
            assert verify_fps_order(E, pool, pick.pick_order)

        from oracles import facility_optimum

        bound = 1.0 - 1.0 / math.e
        worst = math.inf
        for trial in range(100):
            rng = subseed_rng(29, trial)
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, min(3, n) + 1))
            E = rng.standard_normal((n, int(rng.integers(2, 8))))
            pool = np.arange(n)
            greedy_f = run_core("facility_location", E, pool, k).gains.sum()
            opt_f = facility_optimum(E, pool, k)
            assert greedy_f >= bound * opt_f - 1e-9
            worst = min(worst, greedy_f / opt_f)
        print(f"\n  worst greedy/optimal facility-location ratio: {worst:.4f}")


def test_criterion_6_pipeline_contracts():
    with criterion(6, "pipeline contracts over 500 randomized instances", 60.0):
        for trial in range(500):
            rng = subseed_rng(31, trial)
            n = int(rng.integers(4, 40))
            d = int(rng.integers(2, 16))
            kind = TOKEN_KINDS[trial % 5]
            tokens = kind_tokens(rng, kind, n, d, [31, trial])
            saliency = np.abs(rng.standard_normal(n))
            T = int(rng.integers(1, n + 1))
            cfg = CompressConfig(
                total_budget=T, mu=0.42, tau=0.02, diversity_method=DIVERSITY_METHODS[trial % 3]
            )

            first = compress(tokens, saliency, cfg)
            assert first.selected.size == T
            assert np.all(np.diff(first.selected) > 0)
            assert first.selected[-1] < n
            stage1 = saliency_topk(saliency, first.split.t_sal)
            np.testing.assert_array_equal(first.saliency_indices, stage1)
            sal_set = set(first.saliency_indices.tolist())
            cov_set = set(first.coverage_indices.tolist())
            assert not sal_set & cov_set
            assert len(sal_set) == first.split.t_sal
            assert len(cov_set) == first.split.t_cov
            if kind == "concentrated":
                assert first.split.t_cov == 0

            again = compress(tokens, saliency, cfg)
            assert selection_results_equal(first, again)


def test_criterion_7_cost_model():
    with criterion(7, "cost model against published prefill costs", 1.0):
        full = estimate_prefill_flops(2880) / 1e12
        pruned = estimate_prefill_flops(320) / 1e12
        assert abs(full - 42.6) / 42.6 < 0.20
        assert abs(pruned - 5.02) / 5.02 < 0.25
        reduction = flops_reduction(2880, 320)
        print(
            f"\n  prefill estimates: {full:.2f}T (published 42.6T), "
            f"{pruned:.2f}T (published 5.02T); reduction {reduction:.1%} "
            f"(published claim ~88%)"
        )


def test_criterion_8_performance_budget():
    with criterion(8, "N=2880 d=1024 T=320 DPP compress under 500 ms", 120.0):
        # 18 energy directions put the normalized entropy near the sigmoid
        # midpoint, so both stages run with substantial budgets
        tokens, saliency = synth_tokens(2880, 1024, 18, 1e-3, 83)
        cfg = CompressConfig(total_budget=320, mu=0.42, tau=0.02, diversity_method="dpp")

        warmup_ms, result = compress_ms(tokens, saliency, cfg)
        assert result.split.t_sal >= 32 and result.split.t_cov >= 32

        elapsed_ms, times_ms, result = best_of_three_ms(tokens, saliency, cfg)
        assert result.selected.size == 320
        assert elapsed_ms < 500.0, (
            f"compress took {elapsed_ms:.1f} ms; {timings_note(warmup_ms, times_ms)}"
        )
        assert leaf_share(result.timings_us) >= 0.95, result.timings_us
        print(f"\n  full-scale compress: best of 3 = {elapsed_ms:.1f} ms (budget 500 ms)")


def test_criterion_8_facility_location_budget():
    with criterion(8, "N=2880 d=1024 T=320 facility-location compress under 1500 ms", 120.0):
        # 256 energy directions give a coverage-heavy split, so the lazy
        # greedy runs over a ~2.8k pool for most of the budget
        tokens, saliency = synth_tokens(2880, 1024, 256, 1e-3, 83)
        cfg = CompressConfig(
            total_budget=320, mu=0.42, tau=0.02, diversity_method="facility_location"
        )

        warmup_ms, result = compress_ms(tokens, saliency, cfg)
        assert result.split.t_cov > 3 * 320 // 4

        elapsed_ms, times_ms, result = best_of_three_ms(tokens, saliency, cfg)
        assert result.selected.size == 320
        assert elapsed_ms < 1500.0, (
            f"compress took {elapsed_ms:.1f} ms; {timings_note(warmup_ms, times_ms)}"
        )
        assert leaf_share(result.timings_us) >= 0.95, result.timings_us
        print(f"\n  full-scale facility location: best of 3 = {elapsed_ms:.1f} ms (budget 1500 ms)")
