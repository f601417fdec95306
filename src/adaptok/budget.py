"""Sigmoidal split of a fixed token budget into saliency and coverage parts.

The normalized entropy of a sample is pushed through a logistic curve
centered at ``mu`` with smoothness ``tau``; the resulting ratio decides how
many of the T budget slots go to coverage-driven selection:

    coverage_ratio = sigmoid((h - mu) / tau)
    t_cov = floor(T * coverage_ratio),  t_sal = T - t_cov

Concentrated samples (low entropy) land on the saliency-dominant side,
spread-out samples (high entropy) on the coverage-dominant side.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .selection import _SELECTORS
from .tensor_core import _count, _real

# Midpoints calibrated per vision-encoder family; the smoothness is shared.
MU_PRESETS = {
    "clip": 0.42,
    "qwen25vl": 0.5744,
}
DEFAULT_TAU = 0.02

# the stage-2 selectors, named once, by their cores
DIVERSITY_METHODS = tuple(_SELECTORS)

# Entropy values this far outside [0, 1] are floating-point noise and get
# clamped; anything further out is rejected.
ENTROPY_TOL = 1e-9

_RATIO_MIN = np.finfo(np.float64).tiny
_RATIO_MAX = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class CompressConfig:
    """Knobs for one compression run; ``total_budget`` is stored as an int up
    to 2**53 (the split multiplies it by a float64 ratio), ``mu`` and ``tau`` as floats."""

    total_budget: int
    mu: float = MU_PRESETS["clip"]
    tau: float = DEFAULT_TAU
    diversity_method: str = "dpp"

    def __post_init__(self):
        budget = _count(self.total_budget, "total_budget", 1, 2**53)
        object.__setattr__(self, "total_budget", budget)
        object.__setattr__(self, "mu", _real(self.mu, "mu"))
        object.__setattr__(self, "tau", _real(self.tau, "tau"))
        if not 0.0 < self.mu < 1.0:
            raise InvalidInputError(f"mu must lie in (0, 1), got {self.mu}")
        if not self.tau > 0.0:
            raise InvalidInputError(f"tau must be positive, got {self.tau}")
        if self.diversity_method not in DIVERSITY_METHODS:
            raise InvalidInputError(
                f"unknown diversity method {self.diversity_method!r}, "
                f"expected one of {DIVERSITY_METHODS}"
            )


@dataclass(frozen=True)
class BudgetSplit:
    """A (t_sal, t_cov) partition into counts, plus the entropy and ratio that produced it."""

    t_sal: int
    t_cov: int
    normalized_entropy: float
    coverage_ratio: float

    def __post_init__(self):
        object.__setattr__(self, "t_sal", _count(self.t_sal, "t_sal", 0))
        object.__setattr__(self, "t_cov", _count(self.t_cov, "t_cov", 0))


def _logistic(x: float) -> float:
    # libm exp in the form 1 / (1 + e^-x) rounds exactly as
    # scipy.special.expit does; e^-x overflows only where the value is 0
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def allocate_budget(normalized_entropy: float, config: CompressConfig) -> BudgetSplit:
    """Map a normalized entropy in [0, 1] to an exact (t_sal, t_cov) split.

    Monotone in the entropy, and t_sal + t_cov == total_budget always.  The
    sigmoid output is kept in the open interval (0, 1) so t_sal >= 1 even
    when float64 saturates the logistic for extreme (h - mu) / tau.
    """
    if not isinstance(config, CompressConfig):
        raise InvalidInputError(f"config must be a CompressConfig, got {config!r}")
    h = _real(normalized_entropy, "normalized entropy")
    if h < -ENTROPY_TOL or h > 1.0 + ENTROPY_TOL:
        raise InvalidInputError(f"normalized entropy must lie in [0, 1], got {h}")
    h = min(max(h, 0.0), 1.0)

    ratio = _logistic((h - config.mu) / config.tau)
    ratio = min(max(ratio, _RATIO_MIN), _RATIO_MAX)
    t_cov = int(np.floor(config.total_budget * ratio))
    return BudgetSplit(
        t_sal=config.total_budget - t_cov,
        t_cov=t_cov,
        normalized_entropy=h,
        coverage_ratio=ratio,
    )

