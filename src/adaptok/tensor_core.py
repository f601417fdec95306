"""Dense linear-algebra substrate: token matrices, Gram spectra, row norms.

Token matrices are plain ``numpy`` arrays of shape (n_tokens, dim); the
helpers here validate them and keep all internal computation in float64.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_EPSILON = 1e-12

# Asymmetry above this fraction of the largest entry is treated as a real
# input defect rather than accumulation noise.
SYMMETRY_RTOL = 1e-6


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


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigenvalues of a Gram matrix, clamped to >= 0 and sorted descending.

    ``rank_bound`` is the Gram side length, i.e. min(n_tokens, dim) when the
    matrix came from :func:`gram_matrix`.
    """

    eigenvalues: np.ndarray
    rank_bound: int


def _gram(E: np.ndarray) -> np.ndarray:
    # E is already validated float64
    n, d = E.shape
    G = E.T @ E if d <= n else E @ E.T
    return (G + G.T) / 2.0


def gram_matrix(tokens) -> np.ndarray:
    """Form the smaller Gram matrix of a token matrix E.

    Returns E^T E (dim x dim) when dim <= n_tokens and E E^T otherwise, so
    the eigendecomposition downstream costs O(min(n_tokens, dim)^3).  The
    result is symmetrized to absorb accumulation error.
    """
    return _gram(as_token_matrix(tokens))


def _clamped_descending_eigvalsh(G: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(G)
    return np.clip(lam[::-1], 0.0, None)


def sym_eigenvalues(gram) -> SymmetricSpectrum:
    """Eigenvalues of a symmetric matrix, descending, negatives clamped to 0.

    Raises InvalidInputError if the matrix is non-square, non-finite, or
    asymmetric beyond SYMMETRY_RTOL times its largest absolute entry.
    """
    G = np.asarray(gram, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise InvalidInputError("matrix contains non-finite entries")
    scale = np.abs(G).max()
    asym = np.abs(G - G.T).max()
    if asym > SYMMETRY_RTOL * scale:
        raise InvalidInputError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * max|entry| = {SYMMETRY_RTOL * scale:.3e}"
        )
    return SymmetricSpectrum(eigenvalues=_clamped_descending_eigvalsh(G), rank_bound=G.shape[0])


def _normalize_rows_raw(E: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    return E / (norms + DEFAULT_EPSILON)


def l2_normalize_rows(tokens) -> np.ndarray:
    """Divide each row by (its L2 norm + DEFAULT_EPSILON).

    Zero rows map to zero rows; rows with norm much larger than
    DEFAULT_EPSILON come out with norm ~1.
    """
    return _normalize_rows_raw(as_token_matrix(tokens))
