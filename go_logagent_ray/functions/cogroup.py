"""Shared scaffold for two-sided co-grouped operators (as-of join,
bucketed range join): pad each side's batches to one union schema with
TYPED nulls plus an int8 ``_side`` tag, so the two Datasets can be
``union``-ed and co-located by a single ``groupby`` shuffle.

The per-group function MUST run with ``batch_format="pyarrow"`` and
split the sides BEFORE any pandas conversion: a pandas frame holding the
null-padded union would silently convert int64 columns to float64 and
corrupt values above 2^53 (distinct snowflake-style ids collapse).
Filtering each side first leaves only that side's fully-populated
columns, so types survive exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SIDE_COL = "_side"


def pad_to_schema(cols: dict[str, pa.Array],
                  schema_types: dict[str, "pa.DataType"],
                  n: int, side: int) -> pa.Table:
    """One side's batch → the shared union schema: present columns pass
    through, absent ones become typed nulls, plus the ``_side`` tag."""
    out = {name: cols.get(name, pa.nulls(n, typ))
           for name, typ in schema_types.items()}
    out[SIDE_COL] = pa.array(np.full(n, side, dtype=np.int8))
    return pa.table(out)


def sharded_cogroup(left, right, left_cols: list[str],
                    right_cols: list[str], key: str,
                    union_types: dict[str, "pa.DataType"],
                    n_shards: int, fn):
    """Union-groupby co-group of two Datasets on int64 ``key`` hashed
    into ``n_shards`` (the shared ``mix_shard_i64`` convention — both
    sides MUST shard with one function or they never meet); ``fn``
    receives (left_tbl, right_tbl) per shard, already side-split and
    column-pruned. ``union_types`` is the shared padded schema and
    must carry every left/right column plus an int32 ``_shard``.
    A null ``key`` raises ``ValueError``: it has no int64 value to shard
    on, so the two sides could not be relied on to place it alike.
    One home for the pad → union → groupby(_shard) → split_sides
    shape (PageRank's degree/rank attach; the segdedup/BPE/anti-join
    attach passes share the same convention)."""
    from .hashing import mix_shard_i64

    def tag(cols: list[str], side: int):
        def add(batch: pa.Table) -> pa.Table:
            if batch[key].null_count:
                raise ValueError(
                    f"sharded_cogroup: key {key!r} has "
                    f"{batch[key].null_count} null value(s); filter them "
                    f"out before the co-group")
            ids = batch[key].to_numpy(zero_copy_only=False)
            out = {c: batch[c].combine_chunks() for c in cols}
            out["_shard"] = pa.array(mix_shard_i64(ids, n_shards))
            return pad_to_schema(out, union_types, batch.num_rows, side)
        return add

    both = left.map_batches(tag(left_cols, 0), batch_format="pyarrow") \
        .union(right.map_batches(tag(right_cols, 1),
                                 batch_format="pyarrow"))

    def run(g: pa.Table) -> pa.Table:
        lt, rt = split_sides(g)
        return fn(lt.select(left_cols), rt.select(right_cols))

    return both.groupby("_shard").map_groups(run, batch_format="pyarrow")


def sharded_inner_join(left, right, left_key: str, right_key: str,
                       left_types: dict[str, "pa.DataType"],
                       right_types: dict[str, "pa.DataType"],
                       n_shards: int):
    """SQL inner equi-join of two Datasets on int64 keys, built on
    ``sharded_cogroup`` (a sort-shuffle groupby) rather than
    ``Dataset.join``, whose hash-shuffle aggregator actors outlive
    their Dataset and leave a later join in the session unschedulable.
    ``left_types``/``right_types`` name the non-key columns each side
    keeps; the two sets must not overlap. Rows with a null key are
    dropped first, as an inner join drops them. The output carries the
    left key (under ``left_key``) and every kept column of both sides."""
    import pyarrow.compute as pc

    k = "_k"

    def keyed(key: str, cols: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_valid(batch[key]))
            return pa.table({k: pc.cast(batch[key], pa.int64()),
                             **{c: batch[c] for c in cols}})
        return f

    lcols, rcols = list(left_types), list(right_types)
    types = {k: pa.int64(), **left_types, **right_types,
             "_shard": pa.int32()}

    def join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        out = lt.join(rt, k, join_type="inner")
        return pa.table({left_key: out[k],
                         **{c: out[c] for c in lcols + rcols}})

    return sharded_cogroup(
        left.map_batches(keyed(left_key, lcols), batch_format="pyarrow"),
        right.map_batches(keyed(right_key, rcols), batch_format="pyarrow"),
        [k] + lcols, [k] + rcols, k, types, n_shards, join)


def split_sides(group: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Split a co-grouped table back into (left, right) by ``_side`` —
    call BEFORE selecting columns / converting to pandas."""
    import pyarrow.compute as pc

    side = group[SIDE_COL]
    return (group.filter(pc.equal(side, 0)),
            group.filter(pc.equal(side, 1)))
