"""Dense linear-algebra substrate: token matrices, Gram spectra, row norms.

Token matrices are plain ``numpy`` arrays of shape (n_tokens, dim); the
helpers here validate them and keep all internal computation in float64.
"""

import numpy as np

from .errors import InvalidInputError

DEFAULT_EPSILON = 1e-12


def as_token_matrix(tokens) -> np.ndarray:
    """Validate and return a token matrix as a C-contiguous float64 array.

    Requires a 2-D array with at least one row and one column and no
    NaN/Inf entries.
    """
    arr = np.asarray(tokens, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"token matrix must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise InvalidInputError(f"token matrix needs n_tokens >= 1 and dim >= 1, got {n}x{d}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("token matrix contains non-finite entries")
    return np.ascontiguousarray(arr)


def _gram(E: np.ndarray) -> np.ndarray:
    # E is already validated float64.  The smaller side keeps the
    # eigensolve at O(min(n, d)^3); numpy sends E.T @ E and E @ E.T to the
    # BLAS symmetric rank-k update, which mirrors one triangle, so G comes
    # back bitwise symmetric (covered by a regression test)
    n, d = E.shape
    return E.T @ E if d <= n else E @ E.T


def _clamped_descending_eigvalsh(G: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(G)
    return np.clip(lam[::-1], 0.0, None)


def _normalize_rows_raw(E: np.ndarray) -> np.ndarray:
    # zero rows stay zero; rows with norm >> DEFAULT_EPSILON come out ~unit
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    return E / (norms + DEFAULT_EPSILON)
