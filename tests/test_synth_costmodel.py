import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import feature_norm_entropy

import adaptok
from adaptok import (
    InvalidInputError,
    estimate_kv_cache_bytes,
    estimate_prefill_flops,
    flops_reduction,
    spectral_entropy,
    subseed_rng,
    synth_tokens,
)


class TestSynthTokens:
    def test_deterministic_per_seed(self):
        a_tok, a_sal = synth_tokens(32, 8, 3, 0.01, 7)
        b_tok, b_sal = synth_tokens(32, 8, 3, 0.01, 7)
        np.testing.assert_array_equal(a_tok, b_tok)
        np.testing.assert_array_equal(a_sal, b_sal)

    def test_seeds_differ(self):
        a, _ = synth_tokens(32, 8, 3, 0.01, 7)
        b, _ = synth_tokens(32, 8, 3, 0.01, 8)
        assert not np.array_equal(a, b)

    def test_rank_one_entropy(self):
        tokens, _ = synth_tokens(64, 16, 1, 0.0, 0)
        assert spectral_entropy(tokens).normalized_entropy < 1e-6

    def test_full_direction_count_entropy_near_one(self):
        tokens, _ = synth_tokens(128, 32, 32, 0.0, 0)
        assert spectral_entropy(tokens).normalized_entropy > 0.95

    def test_norm_entropy_stays_flat(self):
        values = [
            feature_norm_entropy(synth_tokens(128, 32, k, 1e-3, 0)[0])
            for k in (1, 2, 8, 32)
        ]
        assert max(values) - min(values) < 0.05

    def test_saliency_nonnegative_and_aligned(self):
        tokens, sal = synth_tokens(60, 12, 3, 1e-3, 4)
        assert np.all(sal >= 0)
        # rows assigned to direction 0 carry the saliency mass
        group0 = sal[::3].mean()
        others = np.concatenate([sal[1::3], sal[2::3]]).mean()
        assert group0 > 5 * others

    def test_import_adds_no_numpy_random(self):
        # compress never draws a random number, so importing the package and
        # its CLI must not pull in numpy.random (numpy 1.x imports it itself)
        src = os.path.dirname(os.path.dirname(adaptok.__file__))
        code = (
            "import sys, numpy; "
            "before = 'numpy.random' in sys.modules; "
            "import adaptok, adaptok.cli; "
            "print(before, 'numpy.random' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert out[0] == out[1]

    def test_k_out_of_range(self):
        # k_directions is a row of the count boundary table; a negative noise is not
        with pytest.raises(InvalidInputError):
            synth_tokens(8, 4, 2, -0.1, 0)

    def test_sizes_must_be_integers(self):
        tokens, _ = synth_tokens(np.int64(4), np.int64(3), np.int64(1), 0.0, 0)
        assert tokens.shape == (4, 3)

    def test_subseed_rng_counter_scheme(self):
        a = subseed_rng(5, 0).standard_normal(4)
        b = subseed_rng(5, 0).standard_normal(4)
        c = subseed_rng(5, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCostModel:
    def test_reduction_matches_headline(self):
        # the paper's 88% FLOPs cut from 2880 to 320 visual tokens
        assert round(flops_reduction(2880, 320), 4) == 0.8823

    def test_text_only_baseline_positive_and_monotone(self):
        base = estimate_prefill_flops(0)
        assert base > 0
        values = [estimate_prefill_flops(s) for s in (0, 64, 320, 2880)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_kv_cache_matches_published_table(self):
        assert estimate_kv_cache_bytes(2880) / 2**20 == 1440.0
        assert estimate_kv_cache_bytes(320) / 2**20 == 160.0

    def test_counts_must_be_integers(self):
        assert flops_reduction(2880, 320, np.int64(60)) == flops_reduction(2880, 320)
        assert estimate_kv_cache_bytes(np.int64(2)) == 2 * 32 * 4096 * 2 * 2
