"""On-disk formats: binary token/saliency files and result JSON.

Token files ("PTM1") and saliency files ("PSV1") share the same layout: a
4-byte magic, little-endian u32 dimensions, then a row-major float32 LE
payload whose byte length must match the header exactly.  Compute happens
in float64; files stay float32, and both readers and writers reject a
payload that is not finite in float32.

Selection results serialize as versioned JSON (``schema: 1``) with sorted
keys, so a fixed input always produces byte-identical output.  Wall-clock
timings are deliberately not part of the document.
"""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .budget import BudgetSplit
from .errors import (
    AdaptokError,
    BadMagicError,
    FormatError,
    NonFiniteValueError,
    TrailingDataError,
    TruncatedPayloadError,
    ValueRangeError,
)
from .pipeline import STAGE_COVERAGE, STAGE_SALIENCY, SelectionResult
from .prominence import EntropyReport
from .tensor_core import _as_float64, _count, _real

TOKEN_MAGIC = b"PTM1"
SALIENCY_MAGIC = b"PSV1"

_HEADER = struct.Struct("<4sII")

RESULT_SCHEMA = 1


def write_tokens(tokens, path) -> None:
    """Write an N x d matrix as a PTM1 file (float32 LE payload)."""
    arr = _as_float64(tokens, "token payload", error=FormatError)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FormatError(f"token payload must be a nonempty 2-D matrix, got shape {arr.shape}")
    _write_binary(path, TOKEN_MAGIC, _float32_payload(arr, "token"))


def read_tokens(path) -> np.ndarray:
    """Read a PTM1 file into a float64 N x d matrix."""
    return _read_binary(path, TOKEN_MAGIC, "token")


def write_saliency(head_scores, path) -> None:
    """Write H x N per-head scores (or a 1-D pre-reduced vector) as a PSV1 file."""
    arr = _as_float64(head_scores, "saliency payload", error=FormatError)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FormatError(f"saliency payload must be H x N, got shape {arr.shape}")
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
    payload = data[_HEADER.size:]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise TrailingDataError(
            f"{path}: {len(payload) - expected} trailing bytes after the payload"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"{path}: {kind} payload contains non-finite floats")
    return arr


def selection_result_to_json(result: SelectionResult) -> str:
    """Serialize a selection result to canonical (byte-stable) JSON."""
    doc = {
        "schema": RESULT_SCHEMA,
        "selected": [int(i) for i in result.selected],
        "stage_of": list(result.stage_of),
        **dataclasses.asdict(result.split),
        "entropy": dataclasses.asdict(result.entropy),
        "coverage_pick_order": [int(i) for i in result.coverage_pick_order],
        "diagnostics": {k: float(v) for k, v in sorted(result.diagnostics.items())},
    }
    return _canonical_json(doc)


def _canonical_json(doc) -> str:
    # sorted keys and no NaN/Inf: a fixed document always gives the same bytes
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def selection_result_from_json(text: str) -> SelectionResult:
    """Parse a serialized selection result; timings come back empty.

    Only what some ``compress`` call could write loads; anything else
    raises FormatError.  Counts and indices must be integers and the other
    numbers finite.  ``selected`` (strictly increasing, nonnegative) and
    ``stage_of`` have ``t_sal + t_cov`` entries, ``t_sal`` labels are
    ``saliency`` and the rest ``coverage``, and ``coverage_pick_order`` is
    a permutation of the ``coverage`` picks.  An index beyond the token
    count N is not caught: N is not in the document.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"selection result is not valid JSON: {err}") from err
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != RESULT_SCHEMA:
        raise FormatError(f"selection result schema {schema!r} is not {RESULT_SCHEMA}")
    try:
        selected = _indices(doc["selected"], "selected")
        stage_of = [str(s) for s in doc["stage_of"]]
        result = SelectionResult(
            selected=selected,
            split=_from_fields(BudgetSplit, doc),
            entropy=_from_fields(EntropyReport, doc["entropy"]),
            coverage_pick_order=_indices(doc["coverage_pick_order"], "coverage_pick_order"),
            diagnostics={str(k): _real(v, k) for k, v in doc["diagnostics"].items()},
        )
    # _count, _real and BudgetSplit raise their own categories for a bad
    # value, which in a document is malformed data rather than a bad argument
    except (
        KeyError, TypeError, ValueError, OverflowError, AttributeError, AdaptokError
    ) as err:
        raise FormatError(f"selection result document is malformed: {err}") from err
    if not set(stage_of) <= {STAGE_SALIENCY, STAGE_COVERAGE}:
        raise FormatError("stage_of labels must be 'saliency' or 'coverage'")
    if selected.size and (selected[0] < 0 or np.any(np.diff(selected) <= 0)):
        raise FormatError("selected must be strictly increasing nonnegative indices")
    if not selected.size == len(stage_of) == result.split.t_sal + result.split.t_cov:
        raise FormatError("selected and stage_of must both have t_sal + t_cov entries")
    if stage_of.count(STAGE_SALIENCY) != result.split.t_sal:
        raise FormatError("stage_of must hold t_sal saliency labels")
    coverage = selected[[s == STAGE_COVERAGE for s in stage_of]]
    if not np.array_equal(np.sort(result.coverage_pick_order), coverage):
        raise FormatError("coverage_pick_order is not a permutation of the coverage picks")
    return result


def _indices(values, name: str) -> np.ndarray:
    # the negative and out-of-order indices are left to the document checks
    return np.asarray([_count(v, name) for v in values], dtype=np.int64)


def _from_fields(cls, doc: dict):
    # the inverse of dataclasses.asdict, each field read for its annotated
    # type: int through _count, float through _real, str through str; _real
    # rejects a bool, a string such as "nan" and the NaN/Infinity literals
    # that json.loads accepts
    readers = {int: _count, float: _real, str: lambda value, name: str(value)}
    return cls(**{f.name: readers[f.type](doc[f.name], f.name) for f in dataclasses.fields(cls)})


def write_selection_result(result: SelectionResult, path) -> None:
    Path(path).write_text(selection_result_to_json(result), encoding="utf-8")


def read_selection_result(path) -> SelectionResult:
    return selection_result_from_json(Path(path).read_text(encoding="utf-8"))
