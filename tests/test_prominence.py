import dataclasses
import math

import numpy as np
import pytest
from oracles import (
    feature_norm_entropy,
    random_orthogonal,
    scalar_entropy,
    svd_spectral_entropy,
)

from adaptok import (
    CompressConfig,
    DegenerateInputError,
    EntropyReport,
    InvalidInputError,
    allocate_budget,
    compress,
    spectral_entropy,
    synth_tokens,
)
from adaptok.prominence import _certifies, _renyi2_report, _spectral_entropy
from adaptok.tensor_core import _gram


class TestSpectralEntropy:
    def test_rank_one_is_zero(self):
        E = np.tile([1.0, 2.0, -1.0], (6, 1))
        assert spectral_entropy(E) == EntropyReport(0.0, 0.0)

    def test_identity_is_maximal(self):
        # the raw entropy over log r, capped at 1 against rounding
        assert spectral_entropy(np.eye(4)).normalized_entropy == 1.0

    def test_prescribed_singular_values(self, rng):
        # E built with singular values {2, 1} inside a 6x4 frame
        U = random_orthogonal(6, rng)[:, :2]
        V = random_orthogonal(4, rng)[:, :2]
        E = 2.0 * np.outer(U[:, 0], V[:, 0]) + 1.0 * np.outer(U[:, 1], V[:, 1])
        rep = spectral_entropy(E)
        expected_raw = scalar_entropy([0.8, 0.2])  # p = sigma^2 / sum = {0.8, 0.2}
        np.testing.assert_allclose(expected_raw, 0.5004024235, rtol=1e-8)
        np.testing.assert_allclose(rep.normalized_entropy, expected_raw / math.log(4), rtol=1e-10)
        assert rep.low == rep.high

    def test_matches_full_svd_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(2, 12))
            E = rng.standard_normal((n, d))
            _, normalized = svd_spectral_entropy(E)
            rep = spectral_entropy(E)
            np.testing.assert_allclose(rep.normalized_entropy, normalized, rtol=1e-8, atol=1e-10)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            spectral_entropy(np.zeros((3, 3)))

    def test_single_token_normalizes_to_zero(self):
        # one token, or one feature: a support of one, whose log(1) is 0.0
        for E in (np.array([[3.0, 1.0, 2.0]]), np.array([[3.0], [1.0], [2.0]])):
            assert spectral_entropy(E) == EntropyReport(0.0, 0.0)

    def test_orthogonal_rows_are_maximal(self, rng):
        rep = spectral_entropy(random_orthogonal(5, rng))  # every eigenvalue 1
        np.testing.assert_allclose(rep.normalized_entropy, 1.0, atol=1e-12)

    def test_zero_rows_carry_no_mass(self):
        E = np.zeros((4, 3))
        E[2] = [1.0, 2.0, 2.0]
        assert spectral_entropy(E) == EntropyReport(0.0, 0.0)

    @pytest.mark.parametrize("sigma, expected", [(1e-7, 0.0), (1e-5, scalar_entropy([1.0, 1e-10]))],
                             ids=["below-floor", "above-floor"])
    def test_eigenvalue_floor(self, sigma, expected):
        # an eigenvalue under EIGENVALUE_FLOOR (1e-12) of the largest is dropped
        rep = spectral_entropy(np.diag([1.0, sigma]))
        assert rep.normalized_entropy == pytest.approx(expected / math.log(2), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "E",
        [synth_tokens(48, 16, 3, 1e-3, 1)[0], synth_tokens(576, 1024, 24, 1e-3, 1)[0],
         np.random.default_rng(8).standard_normal((36, 20)),
         synth_tokens(300, 64, 8, 1e-3, 2)[0] * 37],
        ids=["synth-48x16", "synth-576x1024", "normal-36x20", "synth-300x64-x37"],
    )
    def test_power_of_two_scale_is_bitwise_invariant(self, E):
        # 2**k scales every eigenvalue by 4**k exactly while the Gram stays
        # normal; toward 2**-500 it does not (ROADMAP item 6)
        base = spectral_entropy(E)
        for k in (-200, -3, 5, 200):
            assert spectral_entropy(np.ldexp(E, k)) == base, k

    @pytest.mark.parametrize("shape", [(5, 2), (2, 5)], ids=["tall", "wide"])
    def test_normalizer_is_log_of_smaller_side(self, rng, shape):
        E = rng.standard_normal(shape)
        raw, _ = svd_spectral_entropy(E)
        np.testing.assert_allclose(spectral_entropy(E).normalized_entropy, raw / math.log(2),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n, d", [(6, 9), (7, 7), (9, 6)], ids=["n<d", "n=d", "n>d"])
    def test_hands_on_the_gram_only_at_n_below_d(self, rng, n, d):
        # stage 2 reads the token Gram E E^T; at n >= d the entropy
        # decomposed E^T E, which it does not hand on
        E = rng.standard_normal((n, d))
        rep, G = _spectral_entropy(E)
        assert rep == spectral_entropy(E)
        if n < d:
            assert G.tobytes() == _gram(E).tobytes()
        else:
            assert G is None


class TestEntropyReport:
    @pytest.mark.parametrize("low, high", [(0, 0), (0.25, 0.25), (0.25, 0.5), (1, 1), (0, 1)])
    def test_allocates_at_the_low_end(self, low, high):
        report = EntropyReport(low, high)
        assert report.normalized_entropy == low
        assert type(report.low) is type(report.high) is float

    @pytest.mark.parametrize(
        "low, high", [(0.5, 0.25), (1.0, 0.0), (float(np.nextafter(0.5, 1.0)), 0.5),
                      (1e-300, 0.0)],
        ids=["half-over-quarter", "one-over-zero", "one-ulp", "tiny-over-zero"],
    )
    def test_refuses_low_above_high(self, low, high):
        with pytest.raises(InvalidInputError, match="exceeds high"):
            EntropyReport(low, high)

    def test_takes_two_facts_and_keeps_two_keys(self):
        assert dataclasses.asdict(EntropyReport(0.25, 0.5)) == {"low": 0.25, "high": 0.5}
        with pytest.raises(TypeError):
            EntropyReport(0.25, 0.5, 0.25)


def _band_edges(config):
    # the entropies below which the sigmoid's split is saliency-only
    # (t_cov 0), and above which it is coverage-saturated (t_cov T - 1)
    spread = config.tau * math.log(config.total_budget - 1)
    return config.mu - spread, config.mu + spread


def _interval(low=None, high=None):
    """A report 0.01 wide that starts at ``low``, or ends at ``high``."""
    if low is not None:
        return EntropyReport(low, min(low + 0.01, 1.0))
    return EntropyReport(max(high - 0.01, 0.0), high)


class TestRenyi2Certificate:
    @pytest.mark.parametrize("T", [16, 64, 320])
    @pytest.mark.parametrize(
        "edge, offset, certified",
        [("low", -1e-3, True), ("low", 1e-3, False), ("high", 1e-3, True),
         ("high", -1e-3, False)],
        ids=["below-low-edge", "across-low-edge", "above-high-edge", "across-high-edge"],
    )
    def test_certifies_only_bounds_on_one_side_of_a_band_edge(self, T, edge, offset, certified):
        # the upper bound near the low edge, or the lower bound near the high one
        config = CompressConfig(total_budget=T)
        low_edge, high_edge = _band_edges(config)
        if edge == "low":
            report = _interval(high=low_edge + offset)
        else:
            report = _interval(low=high_edge + offset)
        edge_value = low_edge if edge == "low" else high_edge
        assert (report.low < edge_value < report.high) == (not certified)
        assert _certifies(report, config) == certified
        if certified:
            split = allocate_budget(report.normalized_entropy, config)
            assert split.t_cov == (0 if edge == "low" else T - 1)

    @pytest.mark.parametrize("size, bounded", [(2**28, True), (2**28 + 1, False)],
                             ids=["at-the-slack-size", "beyond-the-slack-size"])
    def test_gives_an_interval_only_as_far_as_the_slack_covers(self, size, bounded):
        # RENYI2_SLACK is derived for an E of at most 2**28 entries
        report = _renyi2_report(np.diag([4.0, 1.0]), size)
        assert (report is not None) == bounded
        if bounded:
            h = spectral_entropy(np.diag([2.0, 1.0])).normalized_entropy
            assert report.low <= h <= report.high

    @pytest.mark.parametrize(
        "tokens, refused",
        [(np.ones((6, 1)), False),
         (np.array([[1e200, 0.0], [0.0, 1.0]]), True),
         (np.diag([1e154, 1e150]), False),
         (synth_tokens(48, 16, 1, 1e-3, 0)[0] * 1e-160, False),
         (np.zeros((4, 3)), True)],
        ids=["one-atom", "gram-overflows", "squares-overflow", "subnormal-gram", "zero"],
    )
    def test_takes_the_eigensolve_where_the_slack_does_not_cover_the_bounds(
        self, tokens, refused
    ):
        # the eigensolve refuses a Gram that overflows and one with no mass
        assert _renyi2_report(_gram(tokens), tokens.size) is None
        saliency = np.arange(tokens.shape[0], dtype=float)
        if refused:
            with pytest.raises(DegenerateInputError):
                compress(tokens, saliency, CompressConfig(total_budget=1))
            return
        result = compress(tokens, saliency, CompressConfig(total_budget=1))
        assert result.entropy == spectral_entropy(tokens)
        assert "entropy/eigvalsh" in result.timings_us


class TestFeatureNormEntropyOracle:
    # the contrast signal that criterion 2 and test_norm_entropy_stays_flat
    # compare the spectral entropy with
    def test_uniform_norms(self, rng):
        Q = random_orthogonal(5, rng)  # all rows unit norm
        np.testing.assert_allclose(feature_norm_entropy(Q), 1.0, atol=1e-12)

    def test_single_nonzero_row(self):
        E = np.zeros((4, 3))
        E[2] = [1.0, 2.0, 2.0]
        assert feature_norm_entropy(E) == 0.0

    def test_norms_three_one(self):
        E = np.array([[3.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(feature_norm_entropy(E),
                                   0.5623351446188083 / math.log(2), rtol=1e-12)


class TestInvariances:
    def test_row_permutation(self, rng):
        for _ in range(50):
            n, d = int(rng.integers(2, 10)), int(rng.integers(2, 10))
            E = np.abs(rng.standard_normal((n, d))) + 0.1
            perm = rng.permutation(n)
            a = spectral_entropy(E).normalized_entropy
            assert abs(a - spectral_entropy(E[perm]).normalized_entropy) < 1e-8


class TestMonotoneConcentration:
    def test_entropy_grows_with_direction_count(self):
        means = []
        for k in (1, 2, 4, 8):
            vals = [
                spectral_entropy(synth_tokens(64, 32, k, 1e-3, seed)[0]).normalized_entropy
                for seed in range(5)
            ]
            means.append(np.mean(vals))
        assert all(a < b for a, b in zip(means, means[1:]))
