"""Dense linear-algebra substrate: input checks, Gram spectra, row norms.

Token matrices are plain ``numpy`` arrays of shape (n_tokens, dim); the
input checks for token matrices and saliency scores live here, and all
internal computation stays in float64.  ``_as_float64`` is the one array
conversion: complex, ragged or non-numeric input is rejected, never cast.
``_count`` is the package's one count check: every budget, pick count, size
and seed counter goes through it, so a bool or a fractional value is
rejected everywhere, never taken as 1 or truncated; ``_real`` is its
counterpart for real settings.  ``_span`` times the phases of a call.
"""

import numbers
import operator
import time
from contextlib import contextmanager, suppress
from contextvars import ContextVar

import numpy as np

from .errors import DegenerateInputError, InvalidBudgetError, InvalidInputError

DEFAULT_EPSILON = 1e-12


def _as_float64(values, name: str, error=InvalidInputError) -> np.ndarray:
    """``values`` as a float64 array, else ``error``: complex values are not
    stripped of their imaginary part, and no raw numpy error escapes."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise TypeError(f"complex dtype {arr.dtype}")
        return np.asarray(arr, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise error(f"{name} must be an array of real numbers: {err}") from None


def as_token_matrix(tokens) -> np.ndarray:
    """Validate and return a token matrix as a C-contiguous float64 array.

    Requires a real 2-D array with at least one row and one column and no
    NaN/Inf entries.
    """
    arr = _as_float64(tokens, "token matrix")
    if arr.ndim != 2:
        raise InvalidInputError(f"token matrix must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise InvalidInputError(f"token matrix needs n_tokens >= 1 and dim >= 1, got {n}x{d}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("token matrix contains non-finite entries")
    return np.ascontiguousarray(arr)


def _check_scores(scores: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError(f"non-finite entries in {name}")
    if np.any(scores < 0):
        raise InvalidInputError(f"negative entries in {name}")


def as_saliency_vector(scores, n_tokens: int | None = None) -> np.ndarray:
    """Validate a per-token saliency vector: real, 1-D, finite, nonnegative."""
    s = _as_float64(scores, "saliency")
    if s.ndim != 1:
        raise InvalidInputError(f"saliency must be 1-D, got shape {s.shape}")
    _check_scores(s, "saliency")
    if n_tokens is not None and s.shape[0] != n_tokens:
        raise InvalidInputError(
            f"saliency length {s.shape[0]} does not match n_tokens {n_tokens}"
        )
    return s


def _count(value, name: str, least=None, most=None, error=InvalidBudgetError) -> int:
    """``value`` as an int in [least, most], else ``error``: a bool or a
    fractional value is not a count, and is never truncated to one."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise error(f"{name}: expected an integer, got {value!r}") from None
    if least is not None and count < least:
        raise error(f"{name} must be >= {least}, got {count}")
    if most is not None and count > most:
        raise error(f"{name} must be <= {most}, got {count}")
    return count


def _real(value, name: str) -> float:
    """``value`` as a finite float, else InvalidInputError; bools and strings
    are not numbers, and a 0-d array counts only with a real numeric dtype."""
    real = np.nan
    if isinstance(value, np.ndarray) and value.ndim == 0 and value.dtype.kind in "iuf":
        value = value.item()
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond the float range stays nan
            real = float(value)
    if not np.isfinite(real):
        raise InvalidInputError(f"{name}: expected a finite real number, got {value!r}")
    return real


# (timings, path prefix) of the recording running in this context
_SPANS: ContextVar = ContextVar("adaptok_spans", default=None)


@contextmanager
def _span(name: str, timings: dict | None = None):
    """Add the block's microseconds to the running recording under the
    enclosing span's path plus ``/name``, or do nothing outside one; given
    ``timings``, record the block into it as ``name``, its spans at the top."""
    into, prefix = (timings, "") if timings is not None else _SPANS.get() or (None, "")
    if into is None:
        yield
        return
    path = prefix + name
    token = _SPANS.set((into, "" if timings is not None else path + "/"))
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        into[path] = into.get(path, 0.0) + (time.perf_counter_ns() - start) / 1e3
        _SPANS.reset(token)


def _gram(E: np.ndarray) -> np.ndarray:
    # E is already validated float64.  The smaller side keeps the
    # eigensolve at O(min(n, d)^3); numpy sends E.T @ E and E @ E.T to the
    # BLAS symmetric rank-k update, which mirrors one triangle, so G comes
    # back bitwise symmetric (covered by a regression test).  The entropy's
    # eigensolve refuses a Gram that overflowed, so numpy's warning is silenced
    n, d = E.shape
    with np.errstate(over="ignore"):
        return E.T @ E if d <= n else E @ E.T


def _clamped_descending_eigvalsh(G: np.ndarray) -> np.ndarray:
    try:
        lam = np.linalg.eigvalsh(G)
    except np.linalg.LinAlgError:  # LAPACK does not converge on a G that overflowed to inf
        raise DegenerateInputError("the eigensolve did not converge: the Gram overflows") from None
    return np.clip(lam[::-1], 0.0, None)


def _normalize_rows_raw(E: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # idx is an integer index array, so E[idx] is a copy: dividing it in
    # place never writes E.  Zero rows stay zero; rows with norm >>
    # DEFAULT_EPSILON come out ~unit
    rows = E[idx]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True) + DEFAULT_EPSILON
    return rows
