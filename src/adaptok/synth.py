"""Seeded synthetic token/saliency generators for tests and benchmarks.

Rows are convex mixtures of k orthonormal feature directions: row i leans
heavily on direction (i mod k) with a small random admixture, so the k
directions carry near-equal total energy.  k therefore dials the spectral
concentration of the sample from rank-1 (k=1) up to a flat spectrum
(k = min(n, d)).  Saliency tracks each row's alignment with direction 0,
which makes concentrated samples saliency-aligned by construction.

Sizes and ``subseed_rng``'s seed and counter go through the package's one
count check (``tensor_core._count``); ``synth_tokens``'s seed is anything
``np.random.default_rng`` takes (an int, a sequence of ints, a Generator).
Every bad argument raises ``InvalidInputError``.
"""

import numpy as np

from .errors import InvalidInputError
from .tensor_core import _count, _real

# Fraction of each mixture weight drawn at random; the rest is the row's
# assigned direction.  Small enough that per-direction energies stay equal.
MIX = 0.05


def synth_tokens(
    n: int, d: int, k_directions: int, noise: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Generate an (n, d) token matrix and a length-n saliency vector.

    ``k_directions`` must lie in [1, min(n, d)]; ``noise`` is the isotropic
    perturbation scale applied to both rows and saliency, and one large
    enough to make either non-finite is refused.  Identical seeds produce
    identical outputs.
    """
    n = _count(n, "n", 1, error=InvalidInputError)
    d = _count(d, "d", 1, error=InvalidInputError)
    k = _count(k_directions, "k_directions", 1, min(n, d), error=InvalidInputError)
    noise = _real(noise, "noise")
    if not noise >= 0.0:
        raise InvalidInputError(f"noise must be >= 0, got {noise}")

    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"seed {seed!r} is not a valid numpy seed: {err}") from None
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))

    assign = np.zeros((n, k))
    assign[np.arange(n), np.arange(n) % k] = 1.0
    admix = rng.random((n, k))
    admix /= admix.sum(axis=1, keepdims=True)
    weights = (1.0 - MIX) * assign + MIX * admix

    # a noise scale near the float64 limit overflows; the result is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        rows = weights @ basis.T
        if noise > 0.0:
            rows = rows + noise * rng.standard_normal((n, d))

        alignment = rows @ basis[:, 0]
        if noise > 0.0:
            alignment = alignment + noise * rng.standard_normal(n)
    saliency = np.clip(alignment, 0.0, None)
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(saliency))):
        raise InvalidInputError(f"noise {noise:g} gives tokens or saliency beyond float64")

    return rows, saliency


def subseed_rng(seed: int, counter: int) -> "np.random.Generator":
    """Counter-based per-sample generator: parallel and serial runs agree."""
    seed = _count(seed, "seed", 0, error=InvalidInputError)
    counter = _count(counter, "counter", 0, error=InvalidInputError)
    return np.random.default_rng([seed, counter])
