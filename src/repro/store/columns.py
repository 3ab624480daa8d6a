"""Splitting cached values into storable columns and back.

The result cache persists arbitrary picklable point values; the column
store persists plain numeric arrays.  :func:`split_value` walks a value
(nested dicts/lists), lifts every storable ndarray out into a flat
``{column_name: array}`` mapping -- names are the dict/list paths,
joined with ``.`` -- and leaves a placeholder sentinel in the skeleton.
:func:`join_value` re-inserts fetched arrays into the skeleton.  The
skeleton still travels through the framed-pickle path, so values with
no arrays at all are byte-for-byte unaffected.

Only arrays with a stable raw-byte form (numeric/bool kinds) split out;
object/string/structured arrays stay in the pickle, exactly like
scalars.  A value whose paths would collide (a dict key containing
``.`` shadowing a nested path) is left unsplit rather than guessed at.
"""

from __future__ import annotations

import numpy as np

from .format import _SUPPORTED_KINDS

__all__ = ["COLUMN_SENTINEL", "join_value", "split_value"]

#: placeholder left in a pickled skeleton where an array was lifted out
COLUMN_SENTINEL = "__repro.store.column__"


def _storable(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.dtype.kind in _SUPPORTED_KINDS


def _walk_split(obj, path: str, columns: dict):
    if _storable(obj):
        columns[path] = obj
        return {COLUMN_SENTINEL: path}
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        return {
            key: _walk_split(val, f"{path}.{key}" if path else key, columns)
            for key, val in obj.items()
        }
    if isinstance(obj, list):
        return [
            _walk_split(val, f"{path}.{i}" if path else str(i), columns)
            for i, val in enumerate(obj)
        ]
    return obj


def split_value(value) -> tuple[object, dict[str, np.ndarray]]:
    """``(skeleton, columns)``: ``value`` with its arrays lifted out.

    ``columns`` is empty when there is nothing to lift -- the caller
    should then persist ``value`` untouched (scalar fast path).  When
    column names collide the value is also left whole: correctness
    beats compression.
    """
    columns: dict[str, np.ndarray] = {}
    skeleton = _walk_split(value, "", columns)
    if not columns:
        return value, {}
    if len(columns) != len(set(columns)):  # pragma: no cover - dict dedups
        return value, {}
    # a dotted dict key can alias a nested path ({"a.b": x, "a": {"b": y}})
    # -- both lift to column "a.b"; _walk_split's dict overwrote one, so
    # detect by re-counting storable leaves
    if _count_storable(value) != len(columns):
        return value, {}
    return skeleton, columns


def _count_storable(obj) -> int:
    if _storable(obj):
        return 1
    if isinstance(obj, dict):
        return sum(_count_storable(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(_count_storable(v) for v in obj)
    return 0


def join_value(skeleton, columns: dict[str, np.ndarray]):
    """Inverse of :func:`split_value`: re-insert fetched arrays.

    Raises ``KeyError`` when a placeholder's column is missing -- the
    cache turns that into a recomputable miss, never a partial value.
    """
    if isinstance(skeleton, dict):
        if set(skeleton) == {COLUMN_SENTINEL}:
            return columns[skeleton[COLUMN_SENTINEL]]
        return {key: join_value(val, columns) for key, val in skeleton.items()}
    if isinstance(skeleton, list):
        return [join_value(val, columns) for val in skeleton]
    return skeleton

