"""Semantic prominence: how concentrated a sample's information is.

``spectral_entropy`` is the one prominence signal: the Shannon entropy of
the normalized squared singular values of the token matrix, computed
through the Gram eigenvalues.  Low values mean the feature energy sits in
a few directions; high values mean it is spread out.

The entropy uses the natural log; normalization by the log of the support
size makes the normalized value base-independent and confined to [0, 1].
It needs a positive, finite total mass, checked once in ``_spectral_entropy``,
so a mass that is zero, underflows or overflows raises, never gives 0 or NaN.

The sigmoid split reads the entropy only through floor(T * sigmoid), which
is constant outside a narrow band around mu.  So ``compress`` first bounds
the entropy from the Gram's trace and Frobenius norm, and skips the
eigensolve when both bounds give the same split (``_certifies``).  Its
report is then the Renyi entropy of order 2 of the same spectrum, the
lower bound (``EntropyReport.order == 2``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .budget import CompressConfig, allocate_budget
from .errors import DegenerateInputError, InvalidInputError
from .tensor_core import (
    _clamped_descending_eigvalsh,
    _count,
    _gram,
    _real,
    _span,
    as_token_matrix,
)

# The Renyi-2 certificate.  With p the normalized spectrum of the Gram G on
# r = min(n, d) atoms and q = sum p^2 = ||G||_F^2 / tr(G)^2 its collision
# mass, the Shannon entropy H lies in [-log q, H_max(q, r)]: the Renyi
# entropy of order 2 (Sanchez Giraldo, Rao and Principe, IEEE T-IT 2015) is
# below it, and H_max, the largest entropy at collision mass q, is that of
# (a, b, ..., b) with a >= b (Harremoes and Topsoe, IEEE T-IT 2001).
# RENYI2_SLACK is a relative slack on q, applied in the direction that
# widens both bounds.  It covers how far the q computed from tr(G) and
# ||G||_F^2 can be from the q of the spectrum the eigensolve path reads,
# for an E of at most _RENYI2_MAX_SIZE entries (so r <= 2**14; u = 2**-53):
# - rounding: tr(G) sums r nonnegative terms and ||G||_F^2 r^2, then two
#   divisions: at most about r^2 u < 4e-8;
# - the eigensolve: each eigenvalue is within a small multiple of
#   r u ||G||_2, which moves q by a few r^2 u < 2e-7;
# - the floor of _clamped_descending_eigvalsh: the positive eigenvalues it
#   zeroes, each below 1e-12 of the largest, hold at most r * 1e-12 of the
#   mass, and the negative ones, the Gram's own rounding, about n sqrt(r) u;
#   q moves by twice their sum, < 1.2e-7.
# These sum to under 4e-7.  H_max's slope in log q is above 0.03 for every
# r <= 2**14 (H_2's is 1), so the rest of the slack keeps both bounds over
# 1e-8 clear of the rounding in H's sum and in H_max's formula (< 1e-11).
# A larger E, one atom (r = 1), or a trace or squared Frobenius sum that is
# zero, not finite or below 2**-1000, where the squares of a subnormal Gram
# lose their bits, takes the eigensolve.
RENYI2_SLACK = 1e-6
_RENYI2_MAX_RANK = 2**14
_RENYI2_MAX_SIZE = _RENYI2_MAX_RANK**2
_RENYI2_MIN_MASS = 2.0**-1000


@dataclass(frozen=True)
class EntropyReport:
    """Raw and normalized entropy of one sample's Gram spectrum.

    Built from two facts, each a nonnegative finite real: ``raw_entropy``
    and ``normalizer``, the log of the maximum-entropy support size, plus
    ``order``: 1 for the Shannon (spectral) entropy, or 2 for the Renyi
    entropy of order 2 that a certified split reports in its place.
    ``normalized_entropy`` derives from them: raw / normalizer, capped at 1
    against rounding (a raw entropy beyond the normalizer by more is refused),
    and 0 when the normalizer is 0 (one-element support).
    """

    raw_entropy: float
    normalizer: float
    order: int = 1
    normalized_entropy: float = field(init=False)

    def __post_init__(self):
        raw = _real(self.raw_entropy, "raw_entropy")
        normalizer = _real(self.normalizer, "normalizer")
        order = _count(self.order, "order", 1, 2, error=InvalidInputError)
        for name, value in (("raw_entropy", raw), ("normalizer", normalizer)):
            if value < 0:
                raise InvalidInputError(f"{name} must be nonnegative, got {value}")
        # raw <= log(support size), up to the rounding of a sum of logs (one ulp measured)
        if raw > normalizer * (1 + 1e-9):
            raise InvalidInputError(f"raw_entropy {raw} exceeds its normalizer {normalizer}")
        h = min(raw / normalizer, 1.0) if normalizer > 0.0 else 0.0
        object.__setattr__(self, "raw_entropy", raw)
        object.__setattr__(self, "normalizer", normalizer)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "normalized_entropy", h)


def spectral_entropy(tokens) -> EntropyReport:
    """Entropy of the normalized squared singular values of the token matrix.

    The squared singular values are the eigenvalues of the Gram matrix, so
    no full SVD is needed.  The normalizer is log min(n_tokens, dim).  The
    report is always the Shannon entropy (order 1).
    Raises DegenerateInputError when the Gram or its eigenvalue sum is zero or overflows.
    """
    return _spectral_entropy(as_token_matrix(tokens))[0]


def _spectral_entropy(
    E: np.ndarray, config: CompressConfig | None = None
) -> tuple[EntropyReport, np.ndarray | None]:
    """``spectral_entropy`` of a validated E, and the Gram it decomposed if that
    is the token Gram E E^T (n < d), which stage 2 reads; None at n >= d.
    Given the ``config`` whose sigmoid splits the budget, the report is the
    order-2 one wherever it certifies that split, and the eigensolve is skipped."""
    with _span("gram"):
        G = _gram(E)
    report = None
    if config is not None:
        with _span("bounds"):
            report = _renyi2_report(G, E.size)
            if report is not None and not _certifies(report, config):
                report = None
    if report is None:
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


def _renyi2_report(G: np.ndarray, size: int) -> EntropyReport | None:
    # the order-2 report of G's spectrum, -log q over log r, or None where
    # RENYI2_SLACK does not cover it (see there); clamped to [0, log r], the
    # range it has in exact arithmetic
    r = G.shape[0]
    if r == 1 or size > _RENYI2_MAX_SIZE:
        return None
    with np.errstate(over="ignore"):  # an overflow takes the eigensolve, which refuses it
        trace = float(np.trace(G))
        squares = float(np.vdot(G, G))
    if not (0.0 < trace < np.inf and _RENYI2_MIN_MASS <= squares < np.inf):
        return None
    normalizer = float(np.log(r))
    raw = min(max(0.0, -math.log(squares / trace / trace)), normalizer)
    return EntropyReport(raw, normalizer, order=2)


def _certifies(report: EntropyReport, config: CompressConfig) -> bool:
    """Whether an order-2 ``report`` decides the sigmoid split of ``config``:
    whether ``allocate_budget`` gives the same (t_sal, t_cov) at both ends of
    ``_entropy_bounds``.  The split at the report's own entropy, which lies
    between them, is then that split too."""
    bounds = _entropy_bounds(report)
    if bounds is None:
        return False
    low, high = (allocate_budget(h, config) for h in bounds)
    return low.t_cov == high.t_cov


def _entropy_bounds(report: EntropyReport) -> tuple[float, float] | None:
    # the normalized interval that holds the Shannon entropy of the spectrum
    # whose order-2 entropy the report holds, widened by RENYI2_SLACK; None
    # for one atom, more atoms than the slack covers, or a normalizer that
    # is not the log r that _renyi2_report writes for r atoms
    if not 0.0 < report.normalizer <= np.log(_RENYI2_MAX_RANK):
        return None
    r = round(math.exp(report.normalizer))
    if float(np.log(r)) != report.normalizer:
        return None
    q = math.exp(-report.raw_entropy)
    low = max(0.0, (report.raw_entropy - math.log1p(RENYI2_SLACK)) / report.normalizer)
    high = min(1.0, _max_entropy(q * (1.0 - RENYI2_SLACK), r) / report.normalizer)
    return low, high


def _max_entropy(q: float, r: int) -> float:
    # the largest Shannon entropy of r masses with collision mass q < 1:
    # that of (a, b, ..., b), or log r where q <= 1 / r allows the uniform one
    if q * r <= 1.0:
        return math.log(r)
    s = math.sqrt((r - 1) * (q * r - 1))
    a = (1.0 + s) / r
    b = (1.0 - q) / (r - 1 + s)  # (1 - a) / (r - 1), without the cancellation
    return -a * math.log(a) - (r - 1) * b * math.log(b)
