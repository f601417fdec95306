"""On-disk formats: binary token/saliency files and result JSON.

Token files ("PTM1") and saliency files ("PSV1") share the same layout: a
4-byte magic, little-endian u32 dimensions, then a row-major float32 LE
payload whose byte length must match the header exactly.  Compute happens
in float64; files stay float32, and both readers and writers reject a
payload that is not finite in float32.

Selection results serialize as versioned JSON (``schema: 4``) with sorted
keys, so a fixed input always produces byte-identical output; wall-clock
timings are not part of it.  Schema 4 stores the input's token count
``n_tokens`` and the entropy as the interval ``{"low", "high"}`` that
decided the split (a point where the eigensolve ran); it has no
``stage_of`` labels.  Schemas 1 to 3 are refused.
``selection_results_equal`` compares two results' documents; ``==`` on
results is identity.  The reader checks no field itself: it builds the
result through its types, which check the facts they hold, then requires
the text to be the bytes the built result writes back, so every stored
copy of a derived value is checked.
"""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .budget import CompressConfig
from .errors import (
    AdaptokError,
    BadMagicError,
    FormatError,
    NonFiniteValueError,
    TrailingDataError,
    TruncatedPayloadError,
    ValueRangeError,
)
from .pipeline import SelectionResult
from .prominence import EntropyReport
from .tensor_core import _as_float64, _matrix

TOKEN_MAGIC = b"PTM1"
SALIENCY_MAGIC = b"PSV1"

_HEADER = struct.Struct("<4sII")

RESULT_SCHEMA = 4


def write_tokens(tokens, path) -> None:
    """Write an N x d matrix as a PTM1 file (float32 LE payload)."""
    arr = _matrix(tokens, "token payload", FormatError)
    _write_binary(path, TOKEN_MAGIC, _float32_payload(arr, "token"))


def read_tokens(path) -> np.ndarray:
    """Read a PTM1 file into a float64 N x d matrix."""
    return _read_binary(path, TOKEN_MAGIC, "token")


def write_saliency(head_scores, path) -> None:
    """Write H x N per-head scores (or a 1-D pre-reduced vector) as a PSV1 file."""
    arr = _as_float64(head_scores, "saliency payload", FormatError)
    arr = _matrix(arr[None, :] if arr.ndim == 1 else arr, "saliency payload", FormatError)
    out = _float32_payload(arr, "saliency")
    if np.any(arr < 0):
        raise ValueRangeError("saliency payload contains negative values")
    _write_binary(path, SALIENCY_MAGIC, out)


def read_saliency(path) -> np.ndarray:
    """Read a PSV1 file into a float64 H x N matrix of per-head scores."""
    arr = _read_binary(path, SALIENCY_MAGIC, "saliency")
    if np.any(arr < 0):
        raise ValueRangeError(f"{path}: saliency payload contains negative values")
    return arr


def _float32_payload(arr: np.ndarray, kind: str) -> np.ndarray:
    """The float32 payload of a float64 matrix, rejected unless finite.

    A value beyond the float32 range becomes inf in the cast, and the
    readers reject any non-finite payload, so no such file is written.
    """
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype=np.float32)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError(f"{kind} payload contains values that are not finite in float32")
    return out


def _write_binary(path, magic: bytes, out: np.ndarray) -> None:
    # out is a checked float32 rows x cols payload
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, out.shape[0], out.shape[1]))
        f.write(out.tobytes(order="C"))


def _read_binary(path, magic: bytes, kind: str) -> np.ndarray:
    """Checked header and payload of a PTM1/PSV1 file, as a finite float64 matrix."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError(
            f"{path}: file has {len(data)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    got_magic, rows, cols = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise BadMagicError(f"{path}: expected magic {magic!r}, found {got_magic!r}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: header declares empty {kind} matrix {rows}x{cols}")
    expected = 4 * rows * cols
    size = len(data) - _HEADER.size
    if size < expected:
        raise TruncatedPayloadError(f"{path}: payload has {size} bytes, expected {expected}")
    if size > expected:
        raise TrailingDataError(f"{path}: {size - expected} trailing bytes after the payload")
    # read in place past the header; a float32 is finite exactly when its float64 cast is
    payload = np.frombuffer(data, "<f4", rows * cols, _HEADER.size)
    if not np.all(np.isfinite(payload)):
        raise NonFiniteValueError(f"{path}: {kind} payload contains non-finite floats")
    return payload.reshape(rows, cols).astype(np.float64)


def selection_result_to_json(result: SelectionResult) -> str:
    """Serialize a selection result to canonical (byte-stable) JSON."""
    doc = {
        "schema": RESULT_SCHEMA,
        "config": dataclasses.asdict(result.config),
        "forced_t_sal": result.forced_t_sal,
        "n_tokens": result.n_tokens,
        "selected": result.selected.tolist(),
        **dataclasses.asdict(result.split),
        "entropy": dataclasses.asdict(result.entropy),
        "coverage_pick_order": result.coverage_pick_order.tolist(),
        "diagnostics": result.diagnostics,
    }
    return _canonical_json(doc)


def selection_results_equal(a: SelectionResult, b: SelectionResult) -> bool:
    """Whether two results write the same document (timings are not in it)."""
    return selection_result_to_json(a) == selection_result_to_json(b)


def _canonical_json(doc) -> str:
    # sorted keys and no NaN/Inf: a fixed document always gives the same bytes
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def selection_result_from_json(text: str) -> SelectionResult:
    """Parse a serialized selection result; timings come back empty.

    Only what some ``compress`` call could write, on some input, loads;
    anything else raises FormatError.  The reader parses the JSON, checks the schema, and builds
    the result through ``CompressConfig(**config)``, ``EntropyReport(**entropy)``
    and ``SelectionResult``, each of which checks the facts it holds.  The
    text must then be the bytes the result writes back, so a key a type
    defaults, a derived copy its rule does not give (the split), an unknown
    key, other spacing or another literal (``1.0`` for 1) is refused.  An
    entropy interval is checked to certify its split, but not to hold the
    entropy of the input, and the saliency picks are not checked to be the
    top-k: that needs E and the saliency, which are not in the document.
    """
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and an integer past Python's digit
    # limit; RecursionError, nesting too deep to parse; TypeError, not text
    except (ValueError, RecursionError, TypeError) as err:
        raise FormatError(f"selection result is not valid JSON: {err}") from err
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != RESULT_SCHEMA:
        raise FormatError(f"selection result schema {schema!r} is not {RESULT_SCHEMA}")
    try:
        result = SelectionResult(
            selected=doc["selected"],
            n_tokens=doc["n_tokens"],
            config=CompressConfig(**doc["config"]),
            forced_t_sal=doc["forced_t_sal"],
            entropy=EntropyReport(**doc["entropy"]),
            coverage_pick_order=doc["coverage_pick_order"],
            diagnostics=doc["diagnostics"],
        )
    # the types raise their own categories for a bad value, which in a
    # document is malformed data rather than a bad argument
    except (KeyError, TypeError, AdaptokError) as err:
        raise FormatError(f"selection result document is malformed: {err}") from err
    if selection_result_to_json(result) != text:
        raise FormatError("selection result document is not the one its fields write back")
    return result


def write_selection_result(result: SelectionResult, path) -> None:
    Path(path).write_text(selection_result_to_json(result), encoding="utf-8")


def read_selection_result(path) -> SelectionResult:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: selection result is not UTF-8 text: {err}") from None
    return selection_result_from_json(text)
