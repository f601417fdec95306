"""Semantic prominence: how concentrated a sample's information is.

``spectral_entropy`` is the one prominence signal: the Shannon entropy of
the normalized squared singular values of the token matrix, computed
through the Gram eigenvalues.  Low values mean the feature energy sits in
a few directions; high values mean it is spread out.

The entropy uses the natural log; normalization by the log of the support
size makes the normalized value base-independent and confined to [0, 1].
It needs a positive, finite total mass, checked once in ``_spectral_entropy``,
so a mass that is zero, underflows or overflows raises, never gives 0 or NaN.

A report is the normalized interval [low, high] that holds the entropy.
The sigmoid split reads the entropy only through floor(T * sigmoid), which
is constant outside a narrow band around mu.  So ``compress`` first bounds
the entropy from the Gram's trace and Frobenius norm (the Renyi-2
interval), and where its two ends split differently, tightens both ends by
one Rayleigh-Ritz step on the Gram (the Ritz bounds): the Ritz values lower
the high end, and with their residuals raise the low end.  It skips the
eigensolve when both ends give the same split (``_certifies``).  Its report
is then that interval; the eigensolve's report is the point low == high == h.
"""

import math
from dataclasses import dataclass

import numpy as np

from .budget import CompressConfig, allocate_budget
from .errors import DegenerateInputError, InvalidInputError
from .tensor_core import (
    EIGENVALUE_FLOOR,
    _clamped_descending_eigvalsh,
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
#
# The Ritz upper bound (_ritz_bounds).  For an orthonormal r x j block V, the
# eigenvalues theta_1 >= ... >= theta_j of V^T G V satisfy theta_i <= lambda_i
# (Cauchy interlacing; Parlett, The Symmetric Eigenvalue Problem, 1998), so
# c_m = sum_{i<=m} theta_i / tr(G) is at most the m-th partial sum of p.
# Those partial sums are concave in m, so they lie above the least concave
# majorant of (0, 0), (m, c_m) for m <= j, and (r, 1); p therefore majorizes
# the majorant's increments, and Shannon entropy, being Schur-concave
# (Marshall, Olkin and Arnold, Inequalities: Theory of Majorization), is at
# most theirs.  RENYI2_SLACK per Ritz value, lowering c_m by m times it,
# covers how far the computed c_m can be above the partial sums the
# eigensolve path reads:
# - Householder QR keeps V orthonormal to a small multiple of r u, and each
#   entry of the products sums r terms, so the computed theta are the Ritz
#   values of a G + F with ||F||_2 a small multiple of r u ||G||_2 <=
#   r u tr(G); interlacing on G + F, then Weyl, puts each theta_i at most
#   ||F||_2 above lambda_i: under 1e-11 of tr(G);
# - the eigensolve reads each lambda within a few r u tr(G) too, and its
#   floor zeroes only eigenvalues below 1e-12 of the largest;
# - its mass total is within 2e-7 of tr(G), by the terms above.
# m * 1e-6 exceeds 2e-7 + m * 3e-11 for every m >= 1.  The bound is then
# widened by log1p(RENYI2_SLACK), as the low end is, which keeps it clear
# of the rounding in either entropy sum.  The block is sized and started
# from G alone (see _ritz_bounds), so the bound is deterministic for a BLAS.
#
# The Ritz lower bound reads the Ritz pairs (theta_i, z_i) of that block and
# their residuals R = G Z - Z Theta, rho_i = ||R[:, i]||; R is orthogonal to
# Z.  All values below are over tr(G).  For a head of k <= j pairs, G's
# compression C onto the complement of z_1 ... z_k has ||C||_F^2 <= F_k =
# q - sum_{i<=k} theta_i^2, so lambda_max(C) <= sqrt(F_k).  Where the gap
# eta_k = theta_k - sqrt(F_k) is positive, the head's eigenvalues are G's k
# largest and each lambda_i lies in [theta_i, theta_i + eps_k], eps_k =
# sum_{i<=k} rho_i^2 / eta_k: the low end is interlacing, the high end the
# quadratic residual bound ||R_k||_2^2 / eta_k (Mathias, "Quadratic residual
# bounds for the Hermitian eigenvalue problem", SIAM J. Matrix Anal. Appl.
# 19(2), 1998).  -x log x is concave, so each head term is at least its
# value at the worse end of that interval.  The tail's mass is P >= P_k =
# 1 - sum_{i<=k} (theta_i + eps_k), and as lambda_i >= theta_i its
# collision mass is S <= S_k = F_k.  Its entropy is P (H(p / P) - log P),
# and H(p / P) >= -log(S / P^2) (Renyi-2 below Shannon, by Jensen), so it
# is at least P log(P / S) >= P_k log(P_k / S_k) where P_k >= S_k / e, on
# which P log(P / S_k) grows with P; that is positive only where P_k > S_k,
# and elsewhere the tail counts 0.  The bound is the largest head-plus-tail
# sum over k.
# RITZ_SLACK is an absolute slack per eigenvalue, lowering each theta_i at
# the low ends (in F_k and eta_k too), raising it at the high ends and
# raising each rho_i.  It covers the block's rounding, as for the upper
# bound: the computed theta_i are within a small multiple of r u of the Ritz
# values of an exactly orthonormal block, and so, since the computed Z^T G Z
# is diagonal to that order, are the residual norms of the computed Ritz
# vectors, under 1e-11 either way; the computed trace moves each by under
# r u more.  q sums r^2 squares before two divisions, so F_k takes
# 2 r^2 u of q on top: 7e-12 on the benchmark's 576-token inputs, whose S_k
# is about 3e-9, where RENYI2_SLACK's 1e-6 of q would be 9e-8.  The
# eigensolve path reads each eigenvalue within e = RITZ_SLACK + 2e-12 (its
# rounding; its floor zeroes negative rounding and positive eigenvalues
# under 1e-12 of the largest), so its total is within r e and its
# normalized spectrum within tau = 2 r e of G's in total variation.  Its
# entropy is then within tau log r + h_2(tau) <= tau (1 + log(r / tau))
# nats of G's (Audenaert, "A sharp continuity estimate for the von Neumann
# entropy", J. Phys. A 40, 2007), which also covers the rounding in either
# entropy sum: 6.3e-7 nats at r = 1024, or 9e-8 of log r, where the bound
# lies 2e-5 to 3e-5 of log r under h on the benchmark's inputs.
RENYI2_SLACK = 1e-6
RITZ_SLACK = 1e-11
_ROUNDING = 2.0**-53
_RENYI2_MAX_SIZE = 2**28
_RENYI2_MIN_MASS = 2.0**-1000


@dataclass(frozen=True)
class EntropyReport:
    """The normalized interval [low, high] that holds one sample's spectral entropy.

    ``low`` and ``high`` are reals in [0, 1] with low <= high.  The
    eigensolve's report is exact, low == high == h; a certified one holds the
    widened Renyi-2 interval of ``_renyi2_report``, each of its ends
    tightened to the Ritz block's (``_ritz_bounds``) where that is the
    tighter bound, on which the split does not move.  ``normalized_entropy`` is ``low``, where the split
    is allocated.
    """

    low: float
    high: float

    def __post_init__(self):
        for name in ("low", "high"):
            value = _real(getattr(self, name), name)
            if not 0.0 <= value <= 1.0:
                raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        if self.low > self.high:
            raise InvalidInputError(f"low {self.low} exceeds high {self.high}")

    @property
    def normalized_entropy(self) -> float:
        return self.low


def spectral_entropy(tokens) -> EntropyReport:
    """Entropy of the normalized squared singular values of the token matrix.

    The squared singular values are the eigenvalues of the Gram matrix, so
    no full SVD is needed.  The raw entropy is normalized by log min(n_tokens,
    dim) and capped at 1 against rounding; a support of one gives 0.  The
    report is always exact (low == high).
    Raises DegenerateInputError when the Gram or its eigenvalue sum is zero or overflows.
    """
    return _spectral_entropy(as_token_matrix(tokens))[0]


def _spectral_entropy(
    E: np.ndarray, config: CompressConfig | None = None
) -> tuple[EntropyReport, np.ndarray | None]:
    """``spectral_entropy`` of a validated E, and the Gram it decomposed if that
    is the token Gram E E^T (n < d), which stage 2 reads; None at n >= d.
    Given the ``config`` whose sigmoid splits the budget, the report is
    ``_bounds_report``'s interval wherever that certifies the split, and the
    eigensolve is skipped."""
    with _span("gram"):
        G = _gram(E)
    report = None
    if config is not None:
        with _span("bounds"):
            report = _bounds_report(G, E.size, config)
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
        log_r = float(np.log(min(E.shape)))
        h = min(raw / log_r, 1.0) if log_r > 0.0 else 0.0
        report = EntropyReport(h, h)
    return report, G if E.shape[0] < E.shape[1] else None


def _bounds_report(G: np.ndarray, size: int, config: CompressConfig) -> EntropyReport | None:
    """The interval that stands for the eigensolve where it certifies the
    split: the Renyi-2 interval, or where that alone does not certify it,
    the interval with each end tightened to the Ritz block's where that is
    the tighter bound; None where neither certifies, or where the slack does
    not cover the bounds (see ``RENYI2_SLACK``)."""
    mass = _collision_mass(G, size)
    if mass is None:
        return None
    trace, q = mass
    report = _renyi2_report(q, G.shape[0])
    if _certifies(report, config):
        return report
    ritz = _ritz_bounds(G, trace, q)
    if ritz is None:
        return None
    report = EntropyReport(max(report.low, ritz[0]), min(report.high, ritz[1]))
    return report if _certifies(report, config) else None


def _collision_mass(G: np.ndarray, size: int) -> tuple[float, float] | None:
    # (tr G, q) of the Gram of an E of ``size`` entries, or None where the
    # slack does not cover the bounds read from them (see RENYI2_SLACK)
    if G.shape[0] == 1 or size > _RENYI2_MAX_SIZE:
        return None
    with np.errstate(over="ignore"):  # an overflow takes the eigensolve, which refuses it
        trace = float(np.trace(G))
        squares = float(np.vdot(G, G))
    if not (0.0 < trace < np.inf and _RENYI2_MIN_MASS <= squares < np.inf):
        return None
    # q lies in [1 / r, 1] in exact arithmetic; the clamp keeps rounding there
    return trace, min(squares / trace / trace, 1.0)


def _renyi2_report(q: float, r: int) -> EntropyReport:
    # the normalized interval [-log q, H_max(q, r)] / log r that holds the
    # Shannon entropy of a spectrum on r > 1 atoms with collision mass q,
    # widened by RENYI2_SLACK
    log_r = float(np.log(r))
    low = max(0.0, (min(-math.log(q), log_r) - math.log1p(RENYI2_SLACK)) / log_r)
    high = min(1.0, _max_entropy(q * (1.0 - RENYI2_SLACK), r) / log_r)
    return EntropyReport(low, high)


def _ritz_bounds(G: np.ndarray, trace: float, q: float) -> tuple[float, float] | None:
    """The normalized (lower, upper) bounds on the entropy of G's spectrum
    from one Rayleigh-Ritz step (derived above ``RENYI2_SLACK``), or None
    where the block would be too wide to pay for itself.

    The block is j = ceil(1 / q) + 2 wide: 1 / q is the collision mass's
    effective rank, so the block spans the spectrum's dominant part and two
    more.  It starts from G's columns at its j largest diagonal entries
    (ties to the lower index), takes one more product with G, and reads
    the Ritz pairs of the result: their values give the upper bound, and
    with their residuals, the lower one."""
    r = G.shape[0]
    j = math.ceil(1.0 / q) + 2
    # the two products with G cost 4 r^2 j flops, and the two QRs, with their
    # Q, and the residuals about 12 r j^2; the eigensolve's tridiagonal
    # reduction costs 4 r^3 / 3, half of it in matrix-vector products.  At
    # j <= r / 8 the step's 11 r^3 / 16 is about half of that, and runs at
    # matrix-product speed
    if 8 * j > r:
        return None
    start = np.argsort(-np.diagonal(G), kind="stable")[:j]
    V = np.linalg.qr(G @ np.linalg.qr(G[:, start])[0])[0]
    GV = G @ V
    theta, Y = np.linalg.eigh(V.T @ GV)
    theta, Y = theta[::-1], Y[:, ::-1]
    R = GV @ Y - (V @ Y) * theta
    x = theta / trace
    rho = np.sqrt(np.einsum("ij,ij->j", R, R)) / trace
    log_r = float(np.log(r))
    c = np.cumsum(x) - RENYI2_SLACK * np.arange(1, j + 1)
    high = (_majorant_entropy(c, r) + math.log1p(RENYI2_SLACK)) / log_r
    return _head_tail_entropy(x, rho, q, r) / log_r, high


def _head_tail_entropy(x: np.ndarray, rho: np.ndarray, q: float, r: int) -> float:
    # the lower bound of the Ritz step in nats, at its best head size k
    # (derived above RENYI2_SLACK), from the Ritz values x descending and
    # their residual norms rho, both over tr G, and the collision mass q
    lo = np.maximum(x - RITZ_SLACK, 0.0)
    # F[k - 1] bounds both the compression of G off the head of k Ritz
    # vectors and the tail's collision mass
    F = q * (1.0 + 2.0 * r * r * _ROUNDING) - np.cumsum(lo * lo)
    gap = lo - np.sqrt(np.maximum(F, 0.0))
    held = (F > 0.0) & (gap > 0.0)
    eps = np.cumsum((rho + RITZ_SLACK) ** 2) / np.where(held, gap, 1.0) + RITZ_SLACK
    # row k - 1 of the j x j array holds the head's terms at k
    head = np.tril(np.minimum(_neg_xlogx(lo), _neg_xlogx(x + eps[:, None]))).sum(axis=1)
    P = 1.0 - np.cumsum(x) - np.arange(1, len(x) + 1) * eps
    tail = P * np.log(np.divide(P, F, out=np.ones_like(P), where=held & (P > F)))
    best = float(np.max(head + tail, where=held, initial=0.0))
    tau = 2.0 * r * (RITZ_SLACK + 2.0 * EIGENVALUE_FLOOR)
    return best - tau * (1.0 + math.log(r / tau))


def _neg_xlogx(x: np.ndarray) -> np.ndarray:
    # -x log x, and 0 at x <= 0
    return -x * np.log(np.where(x > 0.0, x, 1.0))


def _majorant_entropy(c: np.ndarray, r: int) -> float:
    # the entropy of the r increments of the least concave majorant of
    # (0, 0), (m, c[m - 1]) for m <= len(c) < r, and (r, 1), given c concave
    # in m and below 1.  (r, 1) then drops only the points at c's end that
    # lie on or below its chord from the point before them
    d = np.diff(c, prepend=0.0)
    m = len(c)
    while m and d[m - 1] * (r - m) <= 1.0 - c[m - 1]:
        m -= 1
    head = d[:m]
    tail = 1.0 - (c[m - 1] if m else 0.0)
    return -float((head * np.log(head)).sum()) - tail * math.log(tail / (r - m))


def _certifies(report: EntropyReport, config: CompressConfig) -> bool:
    """Whether ``allocate_budget`` gives the same split at both ends of
    ``report``; it is monotone, so every entropy between them splits alike."""
    return allocate_budget(report.low, config).t_cov == allocate_budget(report.high, config).t_cov


def _max_entropy(q: float, r: int) -> float:
    # the largest Shannon entropy of r masses with collision mass q < 1:
    # that of (a, b, ..., b), or log r where q <= 1 / r allows the uniform one
    if q * r <= 1.0:
        return math.log(r)
    s = math.sqrt((r - 1) * (q * r - 1))
    a = (1.0 + s) / r
    b = (1.0 - q) / (r - 1 + s)  # (1 - a) / (r - 1), without the cancellation
    return -a * math.log(a) - (r - 1) * b * math.log(b)
