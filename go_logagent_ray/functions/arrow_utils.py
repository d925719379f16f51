"""Vectorized Arrow helpers shared by stages (no Ray, no Python row loops).

The reference keeps per-event ``Tags []string`` (``ref: utils/logevent.go``
[U-arch], SURVEY.md §1.1); here tags are a ``list<string>`` column and all
mutations are O(batch) numpy/Arrow kernels — never a loop over rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def as_combined(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """One contiguous Array from a possibly-chunked column."""
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def bool_mask_numpy(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Boolean numpy mask from an Arrow boolean array, nulls → False."""
    filled = pc.fill_null(arr, False)
    return as_combined(filled).to_numpy(zero_copy_only=False).astype(bool, copy=False)


def _tag_lists(tags: pa.Array | pa.ChunkedArray | None, n: int = 0) -> tuple[np.ndarray, pa.Array]:
    """Each row's tag count and all rows' tags, in row order.

    ``tags`` may be None (``n`` empty rows), chunked or sliced. A null slot
    counts as an empty list, whatever span of values its offsets cover.
    """
    if tags is None:
        return np.zeros(n, dtype=np.int64), pa.array([], type=pa.string())
    base = as_combined(tags)
    lens = pc.fill_null(pc.list_value_length(base), 0)
    return lens.to_numpy(zero_copy_only=False).astype(np.int64), base.flatten()


def _per_row(lens: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """How many of each row's tags ``hit`` marks."""
    cum = np.zeros(len(hit) + 1, dtype=np.int64)
    np.cumsum(hit, out=cum[1:])
    ends = np.cumsum(lens)
    return cum[ends] - cum[ends - lens]


def _from_lens(lens: np.ndarray, values: pa.Array) -> pa.ListArray:
    """A ``list<string>`` array from per-row lengths and all rows' values."""
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets).cast(pa.int32()), values.cast(pa.string()))


def append_tag(tags: pa.Array | pa.ChunkedArray | None, values: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Append ``values[i]`` to row i's tag list; a null value appends nothing.

    One take through a scatter index: existing tags keep their order and
    each row's new tag goes last. Null tag lists count as empty.
    """
    values = as_combined(values)
    lens, old = _tag_lists(tags, len(values))
    add = bool_mask_numpy(pc.is_valid(values))
    new_lens = lens + add
    is_new = np.zeros(int(new_lens.sum()), dtype=bool)
    is_new[np.cumsum(new_lens)[add] - 1] = True
    src = np.empty(len(is_new), dtype=np.int64)
    src[~is_new] = np.arange(len(old))
    src[is_new] = len(old) + np.flatnonzero(add)
    pool = pa.concat_arrays([old.cast(pa.string()), values.cast(pa.string())])
    return _from_lens(new_lens, pool.take(pa.array(src)))


def remove_tag(tags: pa.Array | pa.ChunkedArray, tag: str) -> pa.ListArray:
    """Remove every occurrence of ``tag`` from each row's list (vectorized)."""
    lens, old = _tag_lists(tags)
    hit = bool_mask_numpy(pc.equal(old, tag))
    return _from_lens(lens - _per_row(lens, hit), old.filter(pa.array(~hit)))


def has_tag(tags: pa.Array | pa.ChunkedArray, tag: str) -> np.ndarray:
    """Boolean mask: does each row's tag list contain ``tag``?"""
    lens, old = _tag_lists(tags)
    return _per_row(lens, bool_mask_numpy(pc.equal(old, tag))) > 0


def set_column(table: pa.Table, name: str, arr: pa.Array | pa.ChunkedArray) -> pa.Table:
    """Replace-or-append a column by name."""
    if name in table.column_names:
        return table.set_column(table.schema.get_field_index(name), name, arr)
    return table.append_column(name, arr)
