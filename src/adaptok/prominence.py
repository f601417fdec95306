"""Entropy metrics that score how concentrated a sample's information is.

``spectral_entropy`` is the production metric: the Shannon entropy of the
normalized squared singular values of the token matrix, computed through
the Gram eigenvalues.  Low values mean the feature energy sits in a few
directions; high values mean it is spread out.  ``feature_norm_entropy``
and ``attention_entropy`` are the alternative metrics kept around for
comparison studies.

All entropies use the natural log; normalization by the log of the support
size makes the normalized value base-independent and confined to [0, 1].
An entropy needs a positive, finite total mass; ``_report`` is the one check,
so a mass that is zero, underflows or overflows raises, never gives 0 or NaN.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .tensor_core import (
    _clamped_descending_eigvalsh, _gram, _span, as_saliency_vector, as_token_matrix
)

# Eigenvalues below this fraction of the largest are numerical noise and
# are zeroed before forming the spectral distribution.
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class EntropyReport:
    """Raw and normalized entropy for one metric.

    ``normalizer`` is the log of the metric's maximum-entropy support size;
    ``normalized_entropy`` is raw / normalizer, defined as 0 when the
    normalizer is 0 (single-element support).
    """

    raw_entropy: float
    normalized_entropy: float
    metric: str
    normalizer: float


def _shannon(p: np.ndarray) -> float:
    # p is already filtered to strictly positive mass; + 0.0 avoids -0.0
    return float(-(p * np.log(p)).sum() + 0.0)


def _normalized(raw: float, normalizer: float) -> float:
    # raw / normalizer clamped to [0, 1]; 0 for a single-element support
    return min(max(raw / normalizer, 0.0), 1.0) if normalizer > 0.0 else 0.0


def _report(
    mass: np.ndarray, support: int, metric: str, error=DegenerateInputError
) -> EntropyReport:
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        total = mass.sum()
    if not 0.0 < total < np.inf:
        raise error(f"{metric} entropy needs a positive, finite total mass, got {total}")
    p = mass[mass > 0] / total
    raw = _shannon(p)
    normalizer = float(np.log(support)) if support > 1 else 0.0
    return EntropyReport(
        raw_entropy=raw,
        normalized_entropy=_normalized(raw, normalizer),
        metric=metric,
        normalizer=normalizer,
    )


def spectral_entropy(tokens) -> EntropyReport:
    """Entropy of the normalized squared singular values of the token matrix.

    The squared singular values are the eigenvalues of the Gram matrix, so
    no full SVD is needed.  The normalizer is log min(n_tokens, dim).
    Raises DegenerateInputError when the Gram is all zero or overflows.
    """
    return _spectral_entropy(as_token_matrix(tokens))[0]


def _spectral_entropy(E: np.ndarray) -> tuple[EntropyReport, np.ndarray]:
    """``spectral_entropy`` of a validated E, and the ``_gram(E)`` it decomposed."""
    with _span("gram"):
        G = _gram(E)
    with _span("eigvalsh"):
        lam = _clamped_descending_eigvalsh(G)
    lam[lam < EIGENVALUE_FLOOR * lam[0]] = 0.0
    return _report(lam, min(E.shape), "spectral"), G


def feature_norm_entropy(tokens) -> EntropyReport:
    """Entropy of the distribution of per-token feature L2 norms."""
    E = as_token_matrix(tokens)
    with np.errstate(over="ignore"):  # an inf norm makes an inf mass, which _report refuses
        norms = np.linalg.norm(E, axis=1)
    return _report(norms, E.shape[0], "feature_norm")


def attention_entropy(saliency) -> EntropyReport:
    """Entropy of head-averaged per-token attention mass.

    Expects the already head-reduced saliency vector (see
    ``selection.reduce_head_attention``); raises InvalidInputError on
    negative entries, or on a total mass that is zero or overflows.
    """
    s = as_saliency_vector(saliency)
    return _report(s, s.shape[0], "attention", error=InvalidInputError)
