"""Predicate drop filter (F5) and JSON codec parse (F4).

- ``DropStage`` mirrors the filter-family conditional drop ([U-arch],
  SURVEY.md §2.2 F5): rows matching (or not matching) a predicate list are
  removed, vectorized via the same predicate mini-language as the router.
- ``JsonParseStage`` is the parse side of the reference's JSON codec
  (``ref: utils/logevent.go`` Marshal/[U-arch], SURVEY.md §2.2 F4): a
  string column of JSON objects → typed columns for the requested keys.
  Flat ``{"key": scalar}`` payloads use a vectorized regex fast path
  (pc.extract_regex); anything else falls back to ``json.loads`` per row
  (documented cost — keep off the 100 TB hot path or restrict to the
  fast-path shape).
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_utils import as_combined, bool_mask_numpy, has_tag, set_column

_CAST = {"int": pa.int64(), "float": pa.float64(), "string": pa.string(), "bool": pa.bool_()}


def pred_mask(batch: pa.Table, pred: tuple) -> np.ndarray:
    """Shared predicate evaluator (same mini-language as RouteStage)."""
    kind = pred[0]
    if kind == "has_tag":
        return has_tag(batch["tags"], pred[1])
    field = pred[1]
    if field not in batch.column_names:
        return np.zeros(batch.num_rows, dtype=bool)
    col = as_combined(batch[field])
    if kind == "eq":
        return bool_mask_numpy(pc.equal(col, pred[2]))
    if kind == "ne":
        return bool_mask_numpy(pc.not_equal(col, pred[2]))
    if kind == "in":
        return bool_mask_numpy(pc.is_in(col, value_set=pa.array(pred[2], type=col.type)))
    if kind == "lt":
        return bool_mask_numpy(pc.less(col, pred[2]))
    if kind == "gt":
        return bool_mask_numpy(pc.greater(col, pred[2]))
    if kind == "not_null":
        return bool_mask_numpy(pc.is_valid(col))
    if kind == "is_null":
        return bool_mask_numpy(pc.is_null(col))
    if kind == "match":
        return bool_mask_numpy(pc.match_substring_regex(col, pred[2]))
    raise ValueError(f"unknown predicate {kind!r}")


class DropStage:
    """Drop rows where ALL predicates hold (or keep them, inverted)."""

    def __init__(self, predicates: list[tuple], mode: str = "drop"):
        if mode not in ("drop", "keep"):
            raise ValueError("mode must be 'drop' or 'keep'")
        self.predicates = predicates
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = np.ones(batch.num_rows, dtype=bool)
        for pred in self.predicates:
            m &= pred_mask(batch, pred)
        keep = m if self.mode == "keep" else ~m
        return batch.filter(pa.array(keep))


class JsonParseStage:
    """Parse a JSON-string column into typed columns.

    ``keys``: dict key → ("int"|"float"|"string"|"bool"). Fast path: every
    requested key extracted with one compiled regex per key (valid for
    flat objects with scalar values). ``strict_json=True`` forces
    json.loads per row (handles nesting/escapes exactly).
    """

    def __init__(self, field: str, keys: dict[str, str], strict_json: bool = False,
                 prefix: str = ""):
        self.field = field
        self.keys = keys
        self.strict = strict_json
        self.prefix = prefix
        # One named group capturing the raw value (quotes included when
        # quoted) — Arrow's extract_regex forbids unnamed groups and
        # returns "" (not null) for non-participating alternates, so a
        # single always-participating group + quote-strip is the safe shape.
        self.regexes = {
            k: f'"{re.escape(k)}"\\s*:\\s*(?P<val>"[^"]*"|[^,}}\\s]+)'
            for k in keys
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = as_combined(batch[self.field])
        n = batch.num_rows
        if self.strict:
            parsed = [json.loads(v) if v else None for v in col.to_pylist()]
            for k, typ in self.keys.items():
                vals = [None if p is None else p.get(k) for p in parsed]
                arr = pa.array(vals)
                if typ != "string" or arr.type == pa.null():
                    arr = arr.cast(_CAST[typ]) if arr.type != _CAST[typ] else arr
                batch = set_column(batch, self.prefix + k, arr)
            return batch
        for k, typ in self.keys.items():
            res = pc.extract_regex(col, pattern=self.regexes[k])
            raw = pc.struct_field(res, "val")
            arr = pc.replace_substring_regex(raw, pattern='^"|"$', replacement="")
            if typ != "string":
                arr = pc.cast(arr, _CAST[typ])
            batch = set_column(batch, self.prefix + k, arr)
        return batch


def multiline_join(ds, *, key: str, order: str, text_field: str = "text",
                   pattern: str = r"^\s", out_group: str = "event_grp",
                   merge_shards: int = 64):
    """Multiline codec — the logstash-family stack-trace joiner
    (logstash/gogstash ``codec multiline`` with ``what => previous``):
    a row whose text matches ``pattern`` is a CONTINUATION and joins
    the closest preceding non-matching row of the same ``key``;
    leading continuations with no head form group 0 (emitted, like
    logstash's timeout flush, rather than dropped).

    Output: one row per joined event — (key, out_group, event_idx =
    the group's min ``order``, n_lines, text joined with newlines).

    Partitioning contract: ONE groupby co-locates every line of a
    conversation — but on ``hash(key) % merge_shards``, not the raw
    key (one Ray group per conversation drowns in per-group task
    overhead — the throttle/minhash group-count lesson). Inside a
    shard the whole codec is vectorized across conversations: sort by
    (key, order), cumulative head count ``over(key)``, one group_by
    join. A shard holds ~corpus/merge_shards rows, so ``merge_shards``
    is the scale knob: size it so one shard of the corpus fits a
    worker's heap (same contract as segdedup's ``keeper_shards``;
    shard-count invariance of the RESULT is pinned by
    tests/test_shard_invariance.py, so raising it is always safe).
    Only the (key, order, text) columns are consumed — any other input
    column, including a pre-existing ``_shard``, is dropped, never
    clobbered. Order re-established from ``order`` — Ray block order
    is meaningless after a shuffle."""
    add_shard, per_shard = multiline_kernels(
        key=key, order=order, text_field=text_field, pattern=pattern,
        out_group=out_group, merge_shards=merge_shards)
    parts = ds.map_batches(add_shard, batch_format="pyarrow")
    return parts.groupby("_shard").map_groups(per_shard,
                                              batch_format="pyarrow")


def multiline_kernels(*, key: str, order: str, text_field: str,
                      pattern: str, out_group: str, merge_shards: int):
    """(add_shard, per_shard) for the multiline codec — module-level so
    the split→partial→shard-group→merge composition is property-testable
    without a Ray session (tests/test_sharded_properties.py)."""
    import polars as pl

    from ..functions.hashing import shard_series_i32

    def add_shard(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([key, order, text_field]))
        return df.with_columns(
            shard_series_i32(df, [key], merge_shards)).to_arrow()

    def per_shard(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g.select([key, order, text_field]))
        # cast guards all-null blocks arriving as Null dtype (no str
        # namespace — same hazard chunk_batch_fn documents); rows with
        # a NULL order key cannot be placed in the line sequence and
        # are dropped (the as-of join's null-time precedent — and
        # polars sorts nulls first where SQL windows put them last, so
        # keeping them would silently diverge from any oracle)
        df = df.with_columns(pl.col(text_field).cast(pl.Utf8)) \
            .filter(pl.col(order).is_not_null()) \
            .sort([key, order], maintain_order=True)
        df = df.with_columns(
            (~pl.col(text_field).str.contains(pattern).fill_null(False))
            .cast(pl.Int64).alias("_head"))  # null text = its own head
        df = df.with_columns(
            pl.col("_head").cum_sum().over(key).alias(out_group))
        out = (df.group_by([key, out_group], maintain_order=True)
               .agg(pl.col(order).min().alias("event_idx"),
                    pl.len().cast(pl.Int64).alias("n_lines"),
                    # ignore_nulls pinned: a null line joins to '' and
                    # must keep doing so if the polars default flips
                    # (string_agg parity; repo convention, see chunk.py)
                    pl.col(text_field).str.join("\n", ignore_nulls=True)
                    .alias(text_field)))
        return out.select([key, out_group, "event_idx", "n_lines",
                           text_field]).to_arrow()

    return add_shard, per_shard


def throttle(ds, *, key_cols: list[str], order: str, max_per_key: int,
             merge_shards: int = 64):
    """Rate-limit filter — the logstash-family ``throttle`` plugin as a
    deterministic batch operator: keep only the FIRST ``max_per_key``
    rows per key (ascending ``order``), e.g. at most N events per
    (user, hour). Batch semantics are first-by-ORDER, not
    first-by-arrival — reproducible on any partitioning, unlike the
    streaming plugin's wall-clock window.

    Scale shape (the grouped_topk combiner, ascending): each batch
    first reduces to ≤ max_per_key rows per key it contains, so the
    shuffle moves ≤ k × blocks rows per key, never the corpus. The
    merge groupby runs on ``hash(key) % merge_shards`` — NOT the raw
    key: one group per (user, hour) means millions of k-row groups
    and Ray's per-group task overhead dominates (the minhash/asof
    group-count lesson; measured ~2× at sf0.1 with 64 shards). A merge
    shard holds ≤ max_per_key × blocks × keys/merge_shards rows —
    size ``merge_shards`` to the cluster (shard-count invariance of
    the result is pinned by tests/test_shard_invariance.py). The
    per-key head inside a shard is one vectorized polars group_by.
    Rows with a null key or order value are dropped (documented
    ranking-over-non-null semantics — SQL oracles must filter the
    same). Throttle passes ALL input columns through, so ``_shard``
    is reserved — a batch carrying one fails loudly (checked per
    batch, not via ds.schema(): schema() is None on schema-less empty
    inputs and forces eager execution of the upstream plan)."""
    partial, final_shard = throttle_kernels(
        key_cols=key_cols, order=order, max_per_key=max_per_key,
        merge_shards=merge_shards)
    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("_shard").map_groups(final_shard,
                                              batch_format="pyarrow")


def throttle_kernels(*, key_cols: list[str], order: str,
                     max_per_key: int, merge_shards: int):
    """(partial, final_shard) for throttle — module-level so the
    split→partial→shard-group→merge composition is property-testable
    without a Ray session (tests/test_sharded_properties.py)."""
    import polars as pl

    from ..functions.hashing import shard_series_i32

    cols = list(key_cols) + [order]

    def head_per_key(df: "pl.DataFrame") -> "pl.DataFrame":
        return (df.sort(order, maintain_order=True)
                .group_by(key_cols, maintain_order=True)
                .head(max_per_key))

    def partial(batch: pa.Table) -> pa.Table:
        if "_shard" in batch.column_names:
            raise ValueError("throttle reserves the _shard column for "
                             "its merge groupby; rename it on the "
                             "input first")
        df = head_per_key(pl.from_arrow(batch).drop_nulls(cols))
        return df.with_columns(
            shard_series_i32(df, key_cols, merge_shards)).to_arrow()

    def final_shard(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g).drop("_shard")
        return head_per_key(df).to_arrow()

    return partial, final_shard
