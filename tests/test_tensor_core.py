import dataclasses
import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import NOT_COUNTS, NOT_REALS, load_tool, triple_loop_gram

from adaptok import (
    DIVERSITY_METHODS,
    AdaptokError,
    BudgetSplit,
    CompressConfig,
    EntropyReport,
    FormatError,
    InvalidBudgetError,
    InvalidInputError,
    allocate_budget,
    as_token_matrix,
    bench,
    compress,
    estimate_kv_cache_bytes,
    estimate_prefill_flops,
    flops_reduction,
    reduce_head_attention,
    saliency_topk,
    selection_result_from_json,
    selection_result_to_json,
    selection_results_equal,
    spectral_entropy,
    subseed_rng,
    synth_tokens,
)
from adaptok.bench import run_bench
from adaptok.tensor_core import (
    DEFAULT_EPSILON,
    _as_float64,
    _clamped_descending_eigvalsh,
    _gram,
    _normalize_rows_raw,
    as_saliency_vector,
)


class TestGramMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(_gram(np.eye(2)), np.eye(2))

    def test_rank1_duplicate_rows(self):
        E = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(_gram(E), [[2.0, 0.0], [0.0, 0.0]])

    def test_matches_triple_loop(self, rng):
        for shape in [(6, 3), (72, 64)]:
            E = rng.standard_normal(shape)
            np.testing.assert_allclose(_gram(E), triple_loop_gram(E, "EtE"), atol=1e-10)

    def test_smaller_side_is_chosen(self, rng):
        tall = rng.standard_normal((6, 3))
        wide = rng.standard_normal((3, 6))
        assert _gram(tall).shape == (3, 3)
        assert _gram(wide).shape == (3, 3)
        np.testing.assert_allclose(_gram(wide), triple_loop_gram(wide, "EEt"), atol=1e-10)
        wide = rng.standard_normal((64, 72))
        np.testing.assert_allclose(_gram(wide), triple_loop_gram(wide, "EEt"), atol=1e-10)

    @pytest.mark.parametrize("shape", [(72, 64), (576, 1024), (2880, 1024), (8, 5)])
    def test_exactly_symmetric_at_bench_shapes(self, rng, shape):
        # no symmetrization pass: numpy's E.T @ E and E @ E.T go through the
        # BLAS symmetric rank-k update, which mirrors one triangle
        for E in (rng.standard_normal(shape), rng.standard_normal(shape[::-1])):
            G = _gram(E)
            assert G.shape == (min(shape),) * 2
            np.testing.assert_array_equal(G, G.T)
            cols = rng.choice(G.shape[0], size=3, replace=False)
            side = E.T if E.shape[1] <= E.shape[0] else E
            np.testing.assert_allclose(
                G[:, cols], side @ side.T[:, cols], rtol=1e-12, atol=1e-9
            )

    def test_trace_equals_squared_frobenius(self, rng):
        E = rng.standard_normal((7, 4))
        np.testing.assert_allclose(np.trace(_gram(E)), (E**2).sum(), rtol=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.array([[np.inf, 0.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.zeros(3))
        with pytest.raises(InvalidInputError):
            as_token_matrix(np.zeros((0, 3)))


class TestSymEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(_clamped_descending_eigvalsh(np.diag([4.0, 1.0])), [4.0, 1.0])

    def test_rank_deficient(self):
        lam = _clamped_descending_eigvalsh(np.array([[2.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(lam, [2.0, 0.0])

    def test_trace_and_det_identities(self, rng):
        B = rng.standard_normal((5, 5))
        G = B.T @ B  # random symmetric PSD
        lam = _clamped_descending_eigvalsh(G)
        np.testing.assert_allclose(lam.sum(), np.trace(G), rtol=1e-8)
        np.testing.assert_allclose(lam.prod(), np.linalg.det(G), rtol=1e-8)

    def test_sorted_descending_and_clamped(self, rng):
        B = rng.standard_normal((6, 2))
        lam = _clamped_descending_eigvalsh(B @ B.T)  # rank 2, four ~zero eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= 0)
        # a positive eigenvalue under EIGENVALUE_FLOOR of the largest is zeroed too
        assert _clamped_descending_eigvalsh(np.diag([1.0, 1e-13])).tolist() == [1.0, 0.0]

    def test_accepts_tiny_asymmetry(self, rng):
        # only the lower triangle is read, so an upper-triangle perturbation
        # leaves the spectrum unchanged
        B = rng.standard_normal((4, 4))
        G = B.T @ B
        expected = _clamped_descending_eigvalsh(G)
        G[0, 1] += 1e-9 * np.abs(G).max()
        np.testing.assert_array_equal(_clamped_descending_eigvalsh(G), expected)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = _normalize_rows_raw(np.array([[3.0, 4.0]]), np.arange(1))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-9)

    def test_zero_row_stays_zero(self):
        out = _normalize_rows_raw(np.array([[0.0, 0.0], [1.0, 0.0]]), np.arange(2))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_norms_near_one(self, rng):
        E = rng.standard_normal((50, 8)) * rng.uniform(1e-3, 10.0, size=(50, 1))
        norms = np.linalg.norm(_normalize_rows_raw(E, np.arange(50)), axis=1)
        assert np.all(norms >= 1 - 1e-6) and np.all(norms <= 1.0)

    def test_subset_is_divided_copy_and_leaves_e_unwritten(self, rng):
        E = rng.standard_normal((20, 6)) * rng.uniform(1e-3, 10.0, size=(20, 1))
        E_before = E.copy()
        idx = np.array([1, 4, 5, 11, 19])
        out = _normalize_rows_raw(E, idx)
        norms = np.linalg.norm(E[idx], axis=1, keepdims=True)
        expected = E[idx] / (norms + DEFAULT_EPSILON)
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(E.view(np.int64), E_before.view(np.int64))

    @pytest.mark.parametrize("m", [63, 64, 65, 200])
    def test_blocked_norms_are_bitwise_the_whole_matrix_norms(self, rng, m):
        # the row norms are summed a block of rows at a time, each row alone
        E = rng.standard_normal((m, 70)) * rng.uniform(1e-3, 10.0, size=(m, 1))
        expected = E / (np.linalg.norm(E, axis=1, keepdims=True) + DEFAULT_EPSILON)
        assert _normalize_rows_raw(E, np.arange(m)).tobytes() == expected.tobytes()


class TestSpectrumInvariants:
    def test_row_permutation_invariance(self, rng):
        E = rng.standard_normal((8, 5))
        perm = rng.permutation(8)
        a = _clamped_descending_eigvalsh(_gram(E))
        b = _clamped_descending_eigvalsh(_gram(E[perm]))
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)


_E, _S = synth_tokens(10, 4, 2, 1e-3, 0)
_ONE_TOKEN = compress(_E[:1], _S[:1], CompressConfig(total_budget=1))

# every public entry that takes a count: (name, call taking the count, the
# argument's name, which starts each refusal, the least and the greatest count
# the call takes (None: no greatest), the category of every refusal)
_COUNT_ENTRIES = [
    ("CompressConfig.total_budget", lambda v: CompressConfig(total_budget=v), "total_budget",
     1, 2**53, "invalid-budget"),
    # the split multiplies T by a float64 ratio, which holds integers up to 2**53
    ("allocate_budget.total_budget", lambda v: allocate_budget(0.5, CompressConfig(v)),
     "total_budget", 1, 2**53, "invalid-budget"),
    ("compress.total_budget", lambda v: compress(_E, _S, CompressConfig(total_budget=v)),
     "total_budget", 1, 10, "invalid-budget"),
    ("compress.t_sal", lambda v: compress(_E, _S, CompressConfig(total_budget=4), t_sal=v),
     "t_sal", 0, 4, "invalid-budget"),
    # the route to each stage-2 core: at t_sal=0 the budget is the core's k
    *[(f"compress-{method}-t_sal=0.total_budget",
       lambda v, method=method: compress(
           _E, _S, CompressConfig(total_budget=v, diversity_method=method), t_sal=0),
       "total_budget", 1, 10, "invalid-budget")
      for method in DIVERSITY_METHODS],
    # a result's token count is at least its budget
    ("SelectionResult.n_tokens", lambda v: dataclasses.replace(_ONE_TOKEN, n_tokens=v),
     "n_tokens", 1, None, "invalid-input"),
    ("BudgetSplit.t_sal", lambda v: BudgetSplit(v, 9, 0.5, 0.75), "t_sal", 0, None,
     "invalid-budget"),
    ("BudgetSplit.t_cov", lambda v: BudgetSplit(3, v, 0.5, 0.75), "t_cov", 0, None,
     "invalid-budget"),
    ("saliency_topk.k", lambda v: saliency_topk(_S, v), "k", 0, 10, "invalid-budget"),
    ("synth_tokens.n", lambda v: synth_tokens(v, 4, 1, 0.0, 0), "n", 1, None, "invalid-input"),
    ("synth_tokens.d", lambda v: synth_tokens(4, v, 1, 0.0, 0), "d", 1, None, "invalid-input"),
    ("synth_tokens.k_directions", lambda v: synth_tokens(4, 3, v, 0.0, 0), "k_directions",
     1, 3, "invalid-input"),
    ("estimate_prefill_flops", estimate_prefill_flops, "seq_visual", 0, None, "invalid-input"),
    ("estimate_kv_cache_bytes", estimate_kv_cache_bytes, "seq_visual", 0, None,
     "invalid-input"),
    ("estimate_prefill_flops.text_tokens", lambda v: estimate_prefill_flops(64, v),
     "text_tokens", 1, None, "invalid-input"),
    ("flops_reduction.text_tokens", lambda v: flops_reduction(2880, 320, v), "text_tokens",
     1, None, "invalid-input"),
    ("flops_reduction.seq_before", lambda v: flops_reduction(v, 320), "seq_before", 0, None,
     "invalid-input"),
    ("flops_reduction.seq_after", lambda v: flops_reduction(2880, v), "seq_after", 0, None,
     "invalid-input"),
    ("run_bench.repeats", lambda v: run_bench([(8, 4, 2)], repeats=v), "repeats", 1, None,
     "invalid-input"),
    ("run_bench.seed", lambda v: run_bench([(8, 4, 2)], repeats=1, seed=v), "seed", 0, None,
     "invalid-input"),
    ("run_bench.grid.n", lambda v: run_bench([(v, 4, 1)], repeats=1), "n", 1, None,
     "invalid-input"),
    ("run_bench.grid.d", lambda v: run_bench([(8, v, 2)], repeats=1), "d", 1, None,
     "invalid-input"),
    # T is refused as compress refuses a budget (the next class's
    # test_run_bench_checks_every_budget_before_timing_any)
    ("run_bench.grid.T", lambda v: run_bench([(8, 4, v)], repeats=1), "T", 1, 8,
     "invalid-budget"),
    ("subseed_rng.seed", lambda v: subseed_rng(v, 0), "seed", 0, None, "invalid-input"),
    ("subseed_rng.counter", lambda v: subseed_rng(0, v), "counter", 0, None, "invalid-input"),
]

_NONE_IS_VALID = {"compress.t_sal"}  # None derives the split from the entropy


def _bad_counts():
    """(call, bad value, the refusal's prefix, category) for every count entry: each
    value of NOT_COUNTS; out-of-range, the count past the greatest (with no
    greatest, past the least); and below-range, the count past the least."""
    for name, call, arg, least, most, category in _COUNT_ENTRIES:
        bad = {label: (value, f"{arg}: ") for label, value in NOT_COUNTS.items()}
        if name in _NONE_IS_VALID:
            del bad["none"]
        below = (least - 1, f"{arg} must be >= {least}, ")
        if most is None:
            bad["out-of-range"] = below
        else:
            bad["out-of-range"] = (most + 1, f"{arg} must be <= {most}, ")
            bad["below-range"] = below
        for label, (value, prefix) in bad.items():
            yield pytest.param(call, value, prefix, category, id=f"{name}-{label}")


# every public entry that takes a real setting: (name, call taking the value,
# the argument's name, the least and the greatest value the call takes (None:
# no greatest; the magnitude table refuses a noise that overflows the tokens))
_REAL_ENTRIES = [
    ("CompressConfig.mu", lambda v: CompressConfig(4, mu=v), "mu",
     np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)),
    ("CompressConfig.tau", lambda v: CompressConfig(4, tau=v), "tau", np.nextafter(0.0, 1.0),
     None),
    ("allocate_budget.normalized_entropy", lambda v: allocate_budget(v, CompressConfig(4)),
     "normalized_entropy", 0.0, 1.0),
    ("synth_tokens.noise", lambda v: synth_tokens(4, 3, 1, v, 0), "noise", 0.0, None),
    # each end of a normalized entropy interval, the other at the far end
    ("EntropyReport.low", lambda v: EntropyReport(v, 1.0), "low", 0.0, 1.0),
    ("EntropyReport.high", lambda v: EntropyReport(0.0, v), "high", 0.0, 1.0),
    # a split's reals, the one [0, 1] check of allocate_budget's entropy and ratio, or a
    # forced t_cov / T
    ("BudgetSplit.normalized_entropy", lambda v: BudgetSplit(3, 9, v, 0.75),
     "normalized_entropy", 0.0, 1.0),
    ("BudgetSplit.coverage_ratio", lambda v: BudgetSplit(3, 9, 0.5, v), "coverage_ratio",
     0.0, 1.0),
]
_REAL_IDS = [entry[0] for entry in _REAL_ENTRIES]


class TestRealBoundary:
    @pytest.mark.parametrize("bad", list(NOT_REALS.values()), ids=list(NOT_REALS))
    @pytest.mark.parametrize(
        "call, arg", [entry[1:3] for entry in _REAL_ENTRIES], ids=_REAL_IDS
    )
    def test_non_real_value_is_invalid_input(self, call, arg, bad):
        with pytest.raises(InvalidInputError, match=rf"^{arg}: "):
            call(bad)

    @pytest.mark.parametrize("call, arg, least, most", [entry[1:] for entry in _REAL_ENTRIES],
                             ids=_REAL_IDS)
    def test_range_ends_are_taken_and_the_next_floats_refused(self, call, arg, least, most):
        for end, outward in ((least, -np.inf), (most, np.inf)):
            if end is not None:
                call(end)
                with pytest.raises(InvalidInputError, match=rf"^{arg}\b"):
                    call(np.nextafter(end, outward))

    # a 0-d real array counts, as a 0-d integer array counts for _count
    @pytest.mark.parametrize(
        "good", [0.5, np.float32(0.5), np.float64(0.5), Fraction(1, 2), np.array(0.5),
                 np.array(0.5, dtype=np.float32)]
    )
    @pytest.mark.parametrize("call", [entry[1] for entry in _REAL_ENTRIES], ids=_REAL_IDS)
    def test_real_numbers_are_accepted(self, call, good):
        call(good)

    def test_config_stores_the_checked_floats(self):
        # a 0-d array kept as given would leave the frozen config unhashable
        cfg = CompressConfig(4, mu=np.array(0.5), tau=np.float32(0.5))
        assert type(cfg.mu) is float and type(cfg.tau) is float
        assert hash(cfg) == hash(CompressConfig(4, mu=0.5, tau=0.5))


_WIDE, _WIDE_S = synth_tokens(6, 10, 2, 1e-3, 0)
_SHAPES = {"tall": (_E, _S), "wide": (_WIDE, _WIDE_S)}


def _compress_scaled(method, shape, scale):
    E, s = _SHAPES[shape]
    return compress(E * scale, s, CompressConfig(total_budget=4, diversity_method=method))


# finite inputs whose mass, Gram or estimate leaves the float64 range inside
# the call, plus the all-zero inputs: (name, call, the category it raises).
# Public selectors at these scales are ROADMAP item 4's, not this table's
_MAGNITUDE_ENTRIES = [
    *[(f"spectral_entropy-{shape}-x{scale:g}",
       lambda shape=shape, scale=scale: spectral_entropy(_SHAPES[shape][0] * scale),
       "degenerate-input")
      for shape in _SHAPES for scale in (1e160, 1e-170, 0.0)],
    # the Gram (1e308 on the diagonal) is finite, and its eigenvalues sum to inf
    ("spectral_entropy-diag-1e154", lambda: spectral_entropy(np.diag([1e154, 1e154])),
     "degenerate-input"),
    *[(f"compress-{method}-{shape}-x{scale:g}",
       lambda method=method, shape=shape, scale=scale: _compress_scaled(method, shape, scale),
       "degenerate-input")
      for method in DIVERSITY_METHODS for shape in _SHAPES for scale in (1e160, 1e-170, 0.0)],
    ("reduce_head_attention-1e308", lambda: reduce_head_attention(np.full((3, 4), 1e308)),
     "invalid-input"),
    *[(f"estimate_prefill_flops-10**{exp}",
       lambda exp=exp: estimate_prefill_flops(10**exp), "invalid-input")
      for exp in (200, 400)],
    ("estimate_prefill_flops.text_tokens-10**400",
     lambda: estimate_prefill_flops(1, text_tokens=10**400), "invalid-input"),
    ("estimate_kv_cache_bytes-10**400", lambda: estimate_kv_cache_bytes(10**400),
     "invalid-input"),
    ("synth_tokens-noise1e308", lambda: synth_tokens(4, 3, 1, 1e308, 0), "invalid-input"),
    ("allocate_budget-total_budget-10**400",
     lambda: allocate_budget(0.5, CompressConfig(10**400)), "invalid-budget"),
]

# the same entries just inside the range, which must still give a result
_IN_RANGE_ENTRIES = [
    ("spectral_entropy-tall-x1e150", lambda: spectral_entropy(_E * 1e150)),
    ("spectral_entropy-wide-x1e-150", lambda: spectral_entropy(_WIDE * 1e-150)),
    ("spectral_entropy-diag-1e153", lambda: spectral_entropy(np.diag([1e153, 1e153]))),
    *[(f"compress-{method}-{shape}-x{scale:g}",
       lambda method=method, shape=shape, scale=scale: _compress_scaled(method, shape, scale))
      for method in DIVERSITY_METHODS for shape in _SHAPES for scale in (1e150, 1e-150)],
    ("reduce_head_attention-1e307", lambda: reduce_head_attention(np.full((3, 4), 1e307))),
    ("estimate_prefill_flops-10**100", lambda: estimate_prefill_flops(10**100)),
    # in MB, as the flops command reports it
    ("estimate_kv_cache_bytes-10**300", lambda: estimate_kv_cache_bytes(10**300) / 2**20),
    ("synth_tokens-noise1e300", lambda: dict(zip("Es", synth_tokens(4, 3, 1, 1e300, 0)))),
]


def _floats_finite(result) -> bool:
    """Whether every float in a result (a dataclass, dict, array or scalar) is finite."""
    if dataclasses.is_dataclass(result):
        result = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    if isinstance(result, dict):
        return all(_floats_finite(value) for value in result.values())
    arr = np.asarray(result)
    return arr.dtype.kind != "f" or bool(np.all(np.isfinite(arr)))


# an overflow inside the call reaches the caller as the package's error,
# never as numpy's RuntimeWarning, even where warnings are errors
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMagnitudeBoundary:
    @pytest.mark.parametrize(
        "call, category",
        [entry[1:] for entry in _MAGNITUDE_ENTRIES],
        ids=[entry[0] for entry in _MAGNITUDE_ENTRIES],
    )
    def test_out_of_range_mass_raises_its_category(self, call, category):
        with pytest.raises(AdaptokError) as info:
            call()
        assert info.value.category == category

    @pytest.mark.parametrize(
        "call",
        [entry[1] for entry in _IN_RANGE_ENTRIES],
        ids=[entry[0] for entry in _IN_RANGE_ENTRIES],
    )
    def test_in_range_result_is_finite(self, call):
        assert _floats_finite(call())

    def test_mass_sum_overflow_is_the_total_mass_check(self):
        # the eigensolve succeeds, so the entropy's eigenvalue sum is what refuses
        E = np.diag([1e154, 1e154])
        assert np.all(np.isfinite(_gram(E)))
        with pytest.raises(AdaptokError, match="positive, finite total mass, got inf") as info:
            spectral_entropy(E)
        assert info.value.category == "degenerate-input"


class TestCountBoundary:
    @pytest.mark.parametrize("call, value, prefix, category", _bad_counts())
    def test_bad_count_raises_its_category(self, call, value, prefix, category):
        with pytest.raises(AdaptokError) as info:
            call(value)
        assert info.value.category == category
        assert str(info.value).startswith(prefix)

    @pytest.mark.parametrize(
        "call", [entry[1] for entry in _COUNT_ENTRIES], ids=[entry[0] for entry in _COUNT_ENTRIES]
    )
    def test_numpy_integer_count_is_accepted(self, call):
        call(np.int64(1))

    @pytest.mark.parametrize(
        "call, least, most", [(entry[1], *entry[3:5]) for entry in _COUNT_ENTRIES],
        ids=[entry[0] for entry in _COUNT_ENTRIES],
    )
    def test_range_ends_are_accepted(self, call, least, most):
        call(least)
        if most is not None:
            call(most)

    @pytest.mark.parametrize("entry", [(8, 4), (8, 4, 2, 1), 8], ids=["short", "long", "scalar"])
    def test_run_bench_grid_entry_needs_three_parts(self, entry):
        with pytest.raises(InvalidInputError):
            run_bench([entry], repeats=1)

    def test_run_bench_checks_every_budget_before_timing_any(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "compress", lambda *args: calls.append(args))
        with pytest.raises(InvalidBudgetError):
            run_bench([(64, 32, 8), (48, 16, 100)], repeats=1)
        assert calls == []

    def test_host_fingerprint_without_show_config_dicts(self, monkeypatch, capsys):
        # numpy before 1.26 takes no mode argument; the corpus tool then prints unknown
        def show_config(*args, **kwargs):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(np, "show_config", show_config)
        host = bench.host_fingerprint()
        assert host["blas_name"] is None and host["blas_version"] is None
        assert load_tool("canonical_corpus")._blas().startswith("blas unknown unknown ")

    def test_host_fingerprint_without_sched_getaffinity(self, monkeypatch):
        # os.sched_getaffinity is not on every platform; nproc is then every CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert bench.host_fingerprint()["nproc"] == os.cpu_count()

    def test_corpus_tool_runs_its_whole_corpus(self, monkeypatch, capsys):
        # under pyproject.toml's error::RuntimeWarning, as every pytest run:
        # the corpus drives the CLI commands and DPP with no jitter, which
        # the other tests reach only in part.  A change that drops documents,
        # labels two alike or reads back fewer results fails here.
        corpus = load_tool("canonical_corpus")
        reader, read_back = corpus.selection_result_from_json, []
        monkeypatch.setattr(
            corpus, "selection_result_from_json", lambda text: read_back.append(reader(text))
        )
        assert corpus.main(["--per-doc"]) == 0
        *docs, picks, whole, blas = capsys.readouterr().out.splitlines()
        assert picks.startswith("picks ") and picks.endswith("  683 documents")
        assert whole.startswith("bytes ") and whole.endswith("  683 documents")
        assert blas.startswith("blas ") and " threads " in blas
        # "<index> <labels> picks <hex> bytes <hex>"
        labels = {line.split(" ", 1)[1].rsplit(" ", 4)[0] for line in docs}
        assert len(labels) == len(docs) == 683
        assert len(read_back) == 380

    def test_corpus_tool_fails_on_a_result_that_does_not_read_back(self, monkeypatch, capsys):
        # the first document is a compress result, so the tool stops there
        corpus = load_tool("canonical_corpus")

        def refuse(text):
            raise FormatError("refused")

        monkeypatch.setattr(corpus, "selection_result_from_json", refuse)
        assert corpus.main([]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("document 0: ")

    @staticmethod
    def _corpus_of(monkeypatch, docs):
        # the tool with its generators replaced by the documents ``docs``
        corpus = load_tool("canonical_corpus")
        monkeypatch.setattr(corpus, "_compress_docs", lambda: iter(docs))
        monkeypatch.setattr(corpus, "_core_docs", lambda: iter(()))
        monkeypatch.setattr(corpus, "_allocate_docs", lambda: iter(()))
        monkeypatch.setattr(corpus, "_cli_docs", lambda workdir: iter(()))
        return corpus

    def test_corpus_picks_digest_reads_only_top_level_pick_fields(self, monkeypatch, capsys):
        pick = {"pick_order": [2, 0], "gains": [1.0, 0.5]}
        corpus = self._corpus_of(monkeypatch, [
            ({"kind": "a"}, {"pick": json.dumps(pick)}),
            # other labels, another float and a nested pick field keep the picks
            ({"kind": "b"}, {"pick": json.dumps({**pick, "gains": [1.0, 0.25],
                                                 "inner": {"t_sal": 3}})}),
            ({"kind": "a", "k": 2}, {"pick": json.dumps({**pick, "pick_order": [0, 2]})}),
        ])
        assert corpus.main(["--per-doc"]) == 0
        *docs, picks, whole, _ = capsys.readouterr().out.splitlines()
        # "<index> <labels> picks <hex> bytes <hex>", the labels printed whole
        rows = [line.rsplit(" ", 4) for line in docs]
        assert [row[0] for row in rows] == [
            '0 {"kind": "a"}', '1 {"kind": "b"}', '2 {"k": 2, "kind": "a"}'
        ]
        assert rows[0][2] == rows[1][2] != rows[2][2]
        assert len({row[4] for row in rows}) == 3
        assert picks.endswith("  3 documents") and whole.endswith("  3 documents")

    def test_corpus_reads_back_each_schema_output_and_names_its_document(
        self, monkeypatch, capsys
    ):
        text = selection_result_to_json(compress(_E, _S, CompressConfig(total_budget=3)))
        unread = json.dumps(json.loads(text))  # the same fields, other spacing
        with pytest.raises(FormatError):
            selection_result_from_json(unread)
        corpus = self._corpus_of(monkeypatch, [
            # a file's sha256 and a JSON output with no schema are not read back
            ({"kind": "file"}, {"tokens": "ab" * 32}),
            ({"kind": "compress"}, {"json": text, "stdout": json.dumps({"t_sal": 1})}),
            ({"kind": "compress", "n": 2}, {"out": unread}),
        ])
        reader, read = corpus.selection_result_from_json, []
        monkeypatch.setattr(
            corpus, "selection_result_from_json", lambda t: reader(read.append(t) or t)
        )
        assert corpus.main([]) == 1
        out, err = capsys.readouterr()
        assert read == [text, unread]
        assert out == "" and err.startswith("document 2: ")

    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    def test_unsigned_counts_still_select(self, method):
        # numpy unsigned counts are taken as ints, so T - t_sal cannot wrap
        cfg = CompressConfig(total_budget=3, diversity_method=method)
        unsigned = CompressConfig(total_budget=np.uint8(3), diversity_method=method)
        res = compress(_E, _S, unsigned, t_sal=np.uint8(0))
        assert selection_results_equal(res, compress(_E, _S, cfg, t_sal=0))

    @pytest.mark.parametrize(
        "saliency", [[1.0, 2.0], [np.nan] * 10, [-1.0] * 10], ids=["short", "nan", "negative"]
    )
    @pytest.mark.parametrize("t_sal", [0, 4], ids=["t_sal=0", "t_sal=T"])
    @pytest.mark.parametrize("method", DIVERSITY_METHODS)
    def test_saliency_is_checked_for_every_split(self, method, t_sal, saliency):
        with pytest.raises(InvalidInputError):
            compress(_E, saliency, CompressConfig(total_budget=4, diversity_method=method), t_sal)


# an argument of the wrong type, which Python would refuse with an
# AttributeError or TypeError: (name, call)
_WRONG_TYPE_ENTRIES = [
    ("compress.config-int", lambda: compress(_E, _S, 4)),
    ("compress.config-dict", lambda: compress(_E, _S, {"total_budget": 4})),
    ("allocate_budget.config-none", lambda: allocate_budget(0.5, None)),
    ("run_bench.grid-none", lambda: run_bench(None)),
    ("run_bench.grid-int", lambda: run_bench(5)),
    # an array would be compared elementwise with each name
    ("CompressConfig.diversity_method-array",
     lambda: CompressConfig(4, diversity_method=np.array(["fps"]))),
    ("CompressConfig.diversity_method-array-of-two",
     lambda: CompressConfig(4, diversity_method=np.array(["fps", "dpp"]))),
]


@pytest.mark.parametrize(
    "call", [entry[1] for entry in _WRONG_TYPE_ENTRIES],
    ids=[entry[0] for entry in _WRONG_TYPE_ENTRIES],
)
def test_wrong_type_argument_is_invalid_input(call):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert info.value.category == "invalid-input"


def _ragged(good: np.ndarray) -> list:
    rows = good.tolist()
    rows[-1] = rows[-1][:-1] if good.ndim == 2 else [rows[-1]] * 2
    return rows


def _huge_int(good: np.ndarray) -> list:
    values = good.astype(object)
    values.flat[0] = 10**400  # a Python int beyond the float64 range
    return values.tolist()


# inputs numpy cannot convert to float64, or can only by dropping the
# imaginary part or by overflowing, and shapes no entry takes (a matrix given
# as a vector or a stack, a vector as a scalar or a matrix); each is made from
# a valid input
_BAD_ARRAYS = {
    "ragged": _ragged,
    "string": lambda good: np.full(good.shape, "x").tolist(),
    "complex-array": lambda good: good + 1j * good,
    "complex-list": lambda good: (good + 1j * good).tolist(),
    "huge-int": _huge_int,
    "axis-fewer": lambda good: good[0],
    "axis-more": lambda good: good[None],
}

# every public entry that converts an array: (name, call, a valid input)
_ARRAY_ENTRIES = [
    ("as_token_matrix", as_token_matrix, _E),
    ("as_saliency_vector", as_saliency_vector, _S),
    ("reduce_head_attention", reduce_head_attention, np.stack([_S, _S[::-1]])),
    ("compress.tokens", lambda v: compress(v, _S, CompressConfig(total_budget=4)), _E),
    ("compress.saliency", lambda v: compress(_E, v, CompressConfig(total_budget=4)), _S),
    ("saliency_topk", lambda v: saliency_topk(v, 2), _S),
]


class TestArrayConversion:
    @pytest.mark.parametrize("bad", sorted(_BAD_ARRAYS))
    @pytest.mark.parametrize(
        "call, good",
        [entry[1:] for entry in _ARRAY_ENTRIES],
        ids=[entry[0] for entry in _ARRAY_ENTRIES],
    )
    def test_bad_array_is_invalid_input(self, call, good, bad):
        call(good)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning is a silent cast
            with pytest.raises(InvalidInputError) as info:
                call(_BAD_ARRAYS[bad](good))
        assert info.value.category == "invalid-input"

    @pytest.mark.parametrize(
        "values",
        [np.arange(6, dtype=np.float32).reshape(2, 3) / 3, [[1, 2], [3, 2**53 + 1]],
         [2**70, -(2**64)], [True, False], ["1.5", "2e3"], np.float16(0.1), 7],
        ids=["float32", "int-list", "huge-ints", "bools", "numeric-strings", "float16", "scalar"],
    )
    def test_accepts_what_numpy_converts(self, values):
        arr = _as_float64(values, "values")
        expected = np.asarray(values, dtype=np.float64)
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, expected)
