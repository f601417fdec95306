"""Property tests: any finite input gives a result or an ``AdaptokError``,
and an allocated split is the one the exact spectral entropy gives.

Hypothesis draws the inputs, derandomized so every run with the same
Hypothesis version (pinned in pyproject's ``test`` extra) tries the same
examples; the file is skipped where Hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from adaptok import (  # noqa: E402
    DIVERSITY_METHODS,
    AdaptokError,
    CompressConfig,
    allocate_budget,
    compress,
    reduce_head_attention,
    selection_result_from_json,
    selection_result_to_json,
    spectral_entropy,
)

# every finite float64, subnormals, signed zeros and values near +-1.8e308
# included; half the draws at ordinary magnitudes, so that fewer inputs
# overflow and more of them reach a result
FINITE = st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)


@st.composite
def _compress_inputs(draw):
    """(tokens, saliency, T, t_sal): n, d in [1, 10], T in [1, n], and t_sal
    None or in [0, T]."""
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    tokens = draw(arrays(np.float64, (n, d), elements=FINITE))
    saliency = draw(arrays(np.float64, n, elements=NONNEGATIVE))
    total = draw(st.integers(1, n))
    return tokens, saliency, total, draw(st.none() | st.integers(0, total))


@PROPERTY
@given(_compress_inputs())
def test_compress_gives_a_result_that_reads_back_or_an_adaptok_error(inputs):
    tokens, saliency, total, t_sal = inputs
    for method in DIVERSITY_METHODS:
        config = CompressConfig(total_budget=total, diversity_method=method)
        try:
            result = compress(tokens, saliency, config, t_sal=t_sal)
        except AdaptokError as err:
            # the budget and the saliency are valid, so only the tokens can be refused
            assert err.category == "degenerate-input", err
            continue
        text = selection_result_to_json(result)
        assert selection_result_to_json(selection_result_from_json(text)) == text
        if t_sal is None:  # the split is the exact entropy's, whether or not the bounds decided it
            exact = allocate_budget(spectral_entropy(tokens).normalized_entropy, config)
            assert (result.split.t_sal, result.split.t_cov) == (exact.t_sal, exact.t_cov)


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 10)), elements=FINITE))
def test_head_mean_gives_scores_or_an_adaptok_error(head_scores):
    try:
        mean = reduce_head_attention(head_scores)
    except AdaptokError as err:
        assert err.category == "invalid-input", err
        return
    assert mean.shape == head_scores.shape[1:]
    assert np.all(np.isfinite(mean)) and np.all(mean >= 0.0)
