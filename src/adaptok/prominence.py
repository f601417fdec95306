"""Semantic prominence: how concentrated a sample's information is.

``spectral_entropy`` is the one prominence signal: the Shannon entropy of
the normalized squared singular values of the token matrix, computed
through the Gram eigenvalues.  Low values mean the feature energy sits in
a few directions; high values mean it is spread out.

The entropy uses the natural log; normalization by the log of the support
size makes the normalized value base-independent and confined to [0, 1].
It needs a positive, finite total mass, checked once in ``_spectral_entropy``,
so a mass that is zero, underflows or overflows raises, never gives 0 or NaN.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .tensor_core import _clamped_descending_eigvalsh, _gram, _real, _span, as_token_matrix


@dataclass(frozen=True)
class EntropyReport:
    """Raw and normalized spectral entropy of one sample.

    Built from two facts, each a nonnegative finite real: ``raw_entropy``
    and ``normalizer``, the log of the maximum-entropy support size.
    ``normalized_entropy`` derives from them: raw / normalizer, capped at 1
    against rounding (a raw entropy beyond the normalizer by more is refused),
    and 0 when the normalizer is 0 (one-element support).
    """

    raw_entropy: float
    normalizer: float
    normalized_entropy: float = field(init=False)

    def __post_init__(self):
        raw = _real(self.raw_entropy, "raw_entropy")
        normalizer = _real(self.normalizer, "normalizer")
        for name, value in (("raw_entropy", raw), ("normalizer", normalizer)):
            if value < 0:
                raise InvalidInputError(f"{name} must be nonnegative, got {value}")
        # raw <= log(support size), up to the rounding of a sum of logs (one ulp measured)
        if raw > normalizer * (1 + 1e-9):
            raise InvalidInputError(f"raw_entropy {raw} exceeds its normalizer {normalizer}")
        h = min(raw / normalizer, 1.0) if normalizer > 0.0 else 0.0
        object.__setattr__(self, "raw_entropy", raw)
        object.__setattr__(self, "normalizer", normalizer)
        object.__setattr__(self, "normalized_entropy", h)


def spectral_entropy(tokens) -> EntropyReport:
    """Entropy of the normalized squared singular values of the token matrix.

    The squared singular values are the eigenvalues of the Gram matrix, so
    no full SVD is needed.  The normalizer is log min(n_tokens, dim).
    Raises DegenerateInputError when the Gram or its eigenvalue sum is zero or overflows.
    """
    return _spectral_entropy(as_token_matrix(tokens))[0]


def _spectral_entropy(E: np.ndarray) -> tuple[EntropyReport, np.ndarray | None]:
    """``spectral_entropy`` of a validated E, and the Gram it decomposed if that
    is the token Gram E E^T (n < d), which stage 2 reads; None at n >= d."""
    with _span("gram"):
        G = _gram(E)
    with _span("eigvalsh"):
        lam = _clamped_descending_eigvalsh(G)
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        total = lam.sum()
    if not 0.0 < total < np.inf:
        raise DegenerateInputError(
            f"spectral entropy needs a positive, finite total mass, got {total}"
        )
    p = lam[lam > 0] / total
    raw = float(-(p * np.log(p)).sum() + 0.0)  # + 0.0 avoids -0.0
    report = EntropyReport(raw, float(np.log(min(E.shape))))
    return report, G if E.shape[0] < E.shape[1] else None

