"""Patch stage — field/tag mutation with %{field} interpolation (F2/F3).

Reimplements the reference's patch filter (``ref: filter/patch/`` [U-spec],
SURVEY.md §2.2 F2) as one fused vectorized ``map_batches`` stage. Supported
ops, applied in order:

- ``("add_field", name, template)`` — static string or ``%{field}`` /
  ``%{+strftime}`` (of ``ts``) interpolated value (the reference's
  LogEvent.Format feature, ``ref: utils/logevent.go`` [U-recall]), compiled
  at stage build time into a vectorized element-wise concat.
- ``("remove_field", name)`` / ``("rename_field", old, new)``
- ``("convert", name, "int"|"float"|"string")`` — type cast
- ``("add_tag", tag)`` / ``("remove_tag", tag)`` — on the ``tags`` list
- ``("time_floor", src, dst, unit)`` — e.g. ts → ts_hour buckets (A1 prep)

Stateless: pass the instance to ``map_batches`` directly (plain tasks) —
there is no per-actor state worth amortizing.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_utils import append_tag, as_combined, remove_tag, set_column

_INTERP = re.compile(r"%\{(\+?[^}]+)\}")

_CAST = {"int": pa.int64(), "float": pa.float64(), "string": pa.string()}


def _compile_template(template: str):
    """Split an interpolation template into literal and field/time parts.

    Returns a list of ("lit", s) | ("field", name) | ("time", strftime_fmt).
    """
    parts: list[tuple[str, str]] = []
    pos = 0
    for m in _INTERP.finditer(template):
        if m.start() > pos:
            parts.append(("lit", template[pos : m.start()]))
        token = m.group(1)
        if token.startswith("+"):
            parts.append(("time", token[1:]))
        else:
            parts.append(("field", token))
        pos = m.end()
    if pos < len(template):
        parts.append(("lit", template[pos:]))
    return parts


class PatchStage:
    """Fused, vectorized patch operations over one Arrow batch."""

    def __init__(self, ops: list[tuple]):
        self.ops = []
        for op in ops:
            kind = op[0]
            if kind == "add_field":
                self.ops.append(("add_field", op[1], _compile_template(op[2])))
            elif kind in ("remove_field", "add_tag", "remove_tag"):
                self.ops.append((kind, op[1]))
            elif kind in ("rename_field", "convert"):
                self.ops.append((kind, op[1], op[2]))
            elif kind == "time_floor":
                src, dst, unit = op[1], op[2], op[3]
                if unit not in ("hour", "day", "minute", "second"):
                    raise ValueError(f"unsupported time_floor unit {unit!r}")
                self.ops.append(("time_floor", src, dst, unit))
            else:
                raise ValueError(f"unknown patch op {kind!r}")

    def _render(self, batch: pa.Table, parts) -> pa.Array:
        n = batch.num_rows
        pieces: list[pa.Array] = []
        for kind, val in parts:
            if kind == "lit":
                pieces.append(pa.array(np.full(1, val))
                              .take(pa.array(np.zeros(n, dtype=np.int64))))
            elif kind == "field":
                col = as_combined(batch[val]) if val in batch.column_names else pa.nulls(n, pa.string())
                if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
                    col = pc.cast(col, pa.string())
                pieces.append(col)
            else:  # time
                ts = as_combined(batch["ts"])
                pieces.append(pc.strftime(ts, format=val))
        if len(pieces) == 1:
            return pieces[0]
        return pc.binary_join_element_wise(*pieces, "")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        for op in self.ops:
            kind = op[0]
            if kind == "add_field":
                batch = set_column(batch, op[1], self._render(batch, op[2]))
            elif kind == "remove_field":
                if op[1] in batch.column_names:
                    batch = batch.drop_columns([op[1]])
            elif kind == "rename_field":
                old, new = op[1], op[2]
                names = [new if c == old else c for c in batch.column_names]
                batch = batch.rename_columns(names)
            elif kind == "convert":
                col = as_combined(batch[op[1]])
                batch = set_column(batch, op[1], pc.cast(col, _CAST[op[2]]))
            elif kind == "add_tag":
                tags = batch["tags"] if "tags" in batch.column_names else None
                batch = set_column(batch, "tags", append_tag(tags, pa.repeat(op[1], n)))
            elif kind == "remove_tag":
                if "tags" in batch.column_names:
                    batch = set_column(batch, "tags", remove_tag(batch["tags"], op[1]))
            elif kind == "time_floor":
                src, dst, unit = op[1], op[2], op[3]
                floored = pc.floor_temporal(as_combined(batch[src]), unit=unit)
                batch = set_column(batch, dst, floored)
        return batch
