"""Aggregate stage (A1/A2) — pre-aggregated counts, sums, mins and
maxes, one kernel.

The reference has NO aggregations; the north_star mandates per-sink
groupby-aggregate counts by (sink/route, role, tool, ts-hour) and per
conv_id (BASELINE.json:L6; SURVEY.md §2.5 A1).

One grouping kernel builds and merges every grouped reduction in the
library. An aggregate is ``{alias: (op, column)}``: ``("count", None)``
counts rows; ``sum``, ``min`` and ``max`` reduce ``column``. A bare
``groupby(keys).count()`` shuffles every row, so ``_partial`` first
reduces each batch to one row per distinct key INSIDE ``map_batches``
(Arrow C++ hash aggregation); only partials — bounded by #blocks ×
per-block key cardinality — leave the tasks. ``_merge`` then reduces partial tables by key with one polars
group-by: counts and sums add, mins and maxes take the min and max.
Null keys form one group each. Nulls and NaN never reach a min or a
max (``_partial`` masks NaN), so a group whose values are all null or
NaN gives null, as does a sum over all-null values — SQL's rule.
Every output column keeps its input column's type (a count is int64,
a sum Arrow's sum type). ``aggregate_by`` is the entry point;
``counts_by`` and ``grouped_sum`` are its one-output forms. A module
whose finisher needs a coarser group than the reduction's (quantiles,
log templates) shards the partials on that group and calls
``_partial`` and ``_merge`` itself.

Two places run the merge:

- ``mode="tree"``: the driver streams the partial blocks and folds
  them into the running result (``_fold``): no shuffle, no barrier,
  memory about twice the result plus one block. Correct whenever the
  FINAL result fits the driver (aggregate cardinality ≤ ~10M rows) —
  true for sink/hour/route counts even at 10^12 turns.
- ``mode="shuffle"``: a hash-sharded merge, for results keyed per doc,
  fingerprint, segment, node, edge or user. Each partial row gets
  ``_shard`` = a hash of its key tuple mod ``_SHARDS``
  (``functions/hashing.py::shard_series_i32``), one sort-shuffle
  ``groupby("_shard").map_groups`` hands each shard to one task, and
  that task runs the same merge. The shard is a non-null int32, so a
  null key shuffles like any other; no Ray ``aggregate`` (which sorts
  on the raw key and cannot order a null string) is involved.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data import Dataset

from ..functions.hashing import shard_series_i32

# merge shards of mode="shuffle": the merge's parallelism, and 1/_SHARDS
# of the partial rows per merge call
_SHARDS = 32

_OPS = ("count", "sum", "min", "max")


def _partial(batch: pa.Table, keys: list[str],
             aggs: dict[str, tuple[str, str | None]]) -> pa.Table:
    """One row per distinct key of ``batch``, columns ``keys`` then one
    per ``aggs`` item ``alias: (op, column)`` (see the module docstring);
    NaN is masked to null before a min or a max."""
    cols, specs, names = {k: batch[k] for k in keys}, [], {}
    for alias, (op, c) in aggs.items():
        if op not in _OPS or (c is None) != (op == "count"):
            raise ValueError(f"bad aggregate {alias!r}: {(op, c)!r}")
        if c is None:
            names[alias] = "count_all"
            continue
        col = batch[c]
        if op in ("min", "max") and pa.types.is_floating(col.type):
            # pyarrow's hash min/max give ±inf for an all-NaN group
            col = pc.if_else(pc.is_nan(col), pa.scalar(None, col.type), col)
        cols[alias] = col
        specs.append((alias, op))
        names[alias] = f"{alias}_{op}"
    if "count_all" in names.values():
        specs.append(([], "count_all"))
    part = pa.table(cols).group_by(keys).aggregate(specs)
    # by NAME: the aggregate column's position has moved across pyarrow releases
    return pa.table({**{k: part[k] for k in keys},
                     **{a: part[n] for a, n in names.items()}})


def _merge(tables: list[pa.Table], keys: list[str],
           aggs: dict[str, tuple[str, str | None]]) -> pa.Table:
    """Reduce partial tables (``keys + list(aggs)``) by key: counts and
    sums add (an all-null sum stays null), mins and maxes skip nulls.
    Merges with polars, not ``pa.Table.group_by``: pyarrow 16.1's
    multi-key grouper splits a null fixed-width key (e.g. an all-null
    int64 or timestamp column) into many groups."""
    names = keys + list(aggs)
    t = pa.concat_tables(tables, promote_options="default").select(names)
    exprs = []
    for alias, (op, _) in aggs.items():
        c = pl.col(alias)
        e = c.min() if op == "min" else c.max() if op == "max" \
            else pl.when(c.count() > 0).then(c.sum())
        exprs.append(e.alias(alias))
    out = pl.from_arrow(t).group_by(keys).agg(exprs)
    return out.to_arrow().select(names).cast(t.schema)


def _fold(partials: Dataset, keys: list[str],
          aggs: dict[str, tuple[str, str | None]],
          seed: pa.Table | None = None) -> Dataset:
    """Tree mode: merge the partial blocks, starting from the partial
    ``seed`` if given, on the driver; returns a one-block Dataset."""
    # Fold the pending blocks into the result (zero tables or one) once they
    # outnumber its rows: merge work stays linear in the partial rows.
    result, pending, pending_rows = [] if seed is None else [seed], [], 0
    for block in partials.iter_batches(batch_format="pyarrow",
                                       batch_size=None):
        pending.append(block)
        pending_rows += block.num_rows
        if pending_rows > sum(map(len, result)):
            result = [_merge(result + pending, keys, aggs)]
            pending, pending_rows = [], 0
    tables = result + pending  # none when the input had no rows
    return ray.data.from_arrow(_merge(tables, keys, aggs) if tables
                               else pa.table({}))


def aggregate_by(ds: Dataset, keys: list[str],
                 aggs: dict[str, tuple[str, str | None]],
                 mode: str) -> Dataset:
    """Grouped counts, sums, mins and maxes in ONE pass: columns
    ``keys`` then one per ``aggs`` item ``alias: (op, column)`` —
    ``("count", None)`` counts rows; ``("sum", c)`` is exact and null
    when every value of the group is null; ``("min", c)``/``("max", c)``
    skip nulls and NaN (null when nothing is left) and keep ``c``'s
    type. An empty ``aggs`` gives the distinct keys. ``mode`` is ``"tree"`` or
    ``"shuffle"`` (see the module docstring)."""
    if mode not in ("tree", "shuffle"):
        raise ValueError(f"unknown aggregate mode {mode!r}")

    def partial(batch: pa.Table) -> pa.Table:
        part = _partial(batch, keys, aggs)
        if mode == "tree":
            return part
        shard = shard_series_i32(pl.from_arrow(part.select(keys)), keys,
                                 _SHARDS)
        return part.append_column("_shard", shard.to_arrow())

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    if mode == "tree":
        return _fold(partials, keys, aggs)

    def merge_shard(g: pa.Table) -> pa.Table:
        return _merge([g], keys, aggs)

    return partials.groupby("_shard").map_groups(merge_shard,
                                                 batch_format="pyarrow")


def counts_by(ds: Dataset, keys: list[str], alias: str = "n",
              mode: str = "tree") -> Dataset:
    """Exact grouped row counts; columns ``keys + [alias]`` (name the SQL
    oracle column identically: ``COUNT(*) AS n``)."""
    return aggregate_by(ds, keys, {alias: ("count", None)}, mode)


def grouped_sum(ds: Dataset, keys: list[str], value: str, alias: str,
                mode: str = "tree") -> Dataset:
    """Exact grouped sum with per-batch partial aggregation; a group whose
    ``value`` is null on every row sums to null, as SQL's SUM does."""
    return aggregate_by(ds, keys, {alias: ("sum", value)}, mode)


def fused_counts(ds: Dataset, key_sets: dict[str, list[str]],
                 alias: str = "n") -> Dataset:
    """SEVERAL grouped counts in ONE pass over the input.

    Each batch emits one partial-count table per key set, tagged
    ``_agg = name`` and null-padded to the union of key columns (the
    merge groups nulls as one value — see ``_merge``); one driver
    merge finishes all views. Filter the result on ``_agg`` to split
    views. At 100 TB this halves the number of full passes when a
    pipeline needs multiple aggregate views of one stream.
    """
    count = {alias: ("count", None)}
    all_keys: list[str] = []
    for keys in key_sets.values():
        for k in keys:
            if k not in all_keys:
                all_keys.append(k)

    def partial(batch: pa.Table) -> pa.Table:
        pieces = []
        for name, keys in key_sets.items():
            part = _partial(batch, keys, count)
            n = part.num_rows
            cols = {"_agg": pa.array([name] * n, type=pa.string())}
            for k in all_keys:
                cols[k] = (part[k] if k in keys
                           else pa.nulls(n, batch.schema.field(k).type))
            cols[alias] = part[alias]
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return _fold(partials, ["_agg"] + all_keys, count)


def topk_rows(ds: Dataset, order_col: str, id_col: str,
              k: int = 25) -> Dataset:
    """GLOBAL top-k rows under the total order (order_col DESC, id_col
    ASC) — the ungrouped sibling of ``grouped_topk``, for ranked
    retrieval results (BM25, PageRank centrality).

    Scale shape: each batch first prunes to its OWN top-k under the
    same total order (a combiner: any row in the global top-k is in
    its batch's top-k), so the final sort+limit runs over ≤ k × blocks
    rows, never the corpus. Rows with a null order or id value are
    excluded (SQL ORDER BY ... LIMIT ranking over non-null keys).
    """
    cols = [order_col, id_col]

    def prune(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(cols)).drop_nulls(cols)
        return (df.sort(cols, descending=[True, False]).head(k)
                .to_arrow().cast(batch.select(cols).schema))

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    return pruned.sort(cols, descending=[True, False]).limit(k)


def grouped_topk(ds: Dataset, group_key: str, order_col: str,
                 id_col: str, k: int = 5) -> Dataset:
    """Per-group top-k rows under the total order (order_col DESC,
    id_col ASC), with a 1-based ``rank`` column — row_number() OVER
    (PARTITION BY group ORDER BY ...) ≤ k, the per-language
    best-documents selection of a curation pipeline.

    Scale shape: each batch first reduces to AT MOST k rows per group
    it contains (polars sort + group head — a combiner under the same
    total order), so the shuffle moves ≤ k × blocks rows per group, not
    the corpus; the final per-group merge re-sorts ≤ k × blocks rows.
    Rows with a null group, order, or id value are excluded (SQL
    PARTITION BY/ORDER BY ranking semantics over non-null keys).
    """
    import pandas as pd

    cols = [group_key, order_col, id_col]

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(cols)).drop_nulls(cols)
        out = (df.sort([order_col, id_col], descending=[True, False])
               .group_by(group_key, maintain_order=True).head(k))
        return out.to_arrow()

    def final(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([order_col, id_col],
                          ascending=[False, True]).head(k).copy()
        g["rank"] = pd.RangeIndex(1, len(g) + 1).astype("int64")
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby(group_key).map_groups(final, batch_format="pandas")


def grouping_sets_counts(ds: Dataset, keys: list[str],
                         sets: list[list[str]], alias: str = "n", *,
                         sentinels: dict | None = None) -> Dataset:
    """``GROUP BY GROUPING SETS(sets)`` counts — the general multi-level
    aggregate behind ROLLUP (prefix sets) and CUBE (all subsets): one
    row per distinct key tuple of each requested grouping set.

    Scale shape: ONE pass, ONE reduce — each batch aggregates ONCE at
    the full-key level, re-aggregates that key-cardinality-bounded
    result per requested set (counts are additive), and emits
    sentinel-padded partials for every set at once; a single
    driver merge over the padded key space finishes all sets
    together. Per batch that is ≤ Σ per-set distinct rows, and no set
    ever re-reads the corpus or adds an execution barrier.

    Rolled-up columns are filled with caller ``sentinels`` (required,
    one per key) instead of SQL's NULL markers so downstream
    grouping/hashing never meets a null key. The sentinel must be
    OUT-OF-DOMAIN for its column (a genuine value equal to it would
    merge into the subtotal row) and DEFINES the output key dtype:
    every set's key columns — including the finest — are cast to the
    sentinel's Arrow-inferred type, so all partials share one schema
    regardless of the input's width (int32/large_string/dict keys
    upcast; an impossible cast fails loudly). Rows with a genuine null
    in any key column are excluded first (mirror with ``WHERE k IS NOT
    NULL`` + ``COALESCE`` in the oracle). If the empty set (grand
    total) is requested, its row is emitted even for empty input
    (count 0 — SQL's documented behavior, verified in DuckDB) via a
    seed partial that starts the reduce.
    """
    if not keys:
        raise ValueError("grouping_sets_counts needs at least one key")
    if sentinels is None or set(sentinels) != set(keys):
        raise ValueError("pass one sentinel per key: sentinels={col: v}")
    norm = []
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of keys")
        norm.append([k for k in keys if k in s])  # canonical key order
    if len({tuple(s) for s in norm}) != len(norm):
        raise ValueError("duplicate grouping sets")

    sent_arrays = {k: (sentinels[k], pa.scalar(sentinels[k]).type)
                   for k in keys}
    count = {alias: ("count", None)}

    def _padded(g: pa.Table, kept: list[str]) -> pa.Table:
        cols = {k: g[k].cast(t) if k in kept else pa.array([v] * len(g), t)
                for k, (v, t) in sent_arrays.items()}
        return pa.table({**cols, alias: g[alias]})

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(keys).drop_null()
        # one full-batch hash aggregation; every requested set
        # re-aggregates this key-bounded result, never the raw batch
        g = _partial(t, keys, count)
        out = []
        for kept in norm:
            if kept == keys:
                out.append(_padded(g, keys))
            elif kept:
                out.append(_padded(_partial(g, kept, {alias: ("sum", alias)}),
                                   kept))
            else:
                out.append(_padded(pa.table({alias: [t.num_rows]}), []))
        return pa.concat_tables(out)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    seed = _padded(pa.table({alias: [0]}), []) if [] in norm else None
    return _fold(parts, keys, count, seed)


def rollup_counts(ds: Dataset, keys: list[str], alias: str = "n", *,
                  sentinels: dict | None = None) -> Dataset:
    """``GROUP BY ROLLUP(keys)`` counts: the prefix grouping sets —
    finest, each prefix subtotal, grand total. See
    `grouping_sets_counts` for the one-pass/one-reduce scale shape and
    the sentinel contract."""
    sets = [list(keys[:i]) for i in range(len(keys), -1, -1)]
    return grouping_sets_counts(ds, keys, sets, alias, sentinels=sentinels)


def cube_counts(ds: Dataset, keys: list[str], alias: str = "n", *,
                sentinels: dict | None = None) -> Dataset:
    """``GROUP BY CUBE(keys)`` counts: ALL 2^d key subsets (use small
    d; every subset re-aggregates the one full-key aggregate, so depth
    costs partial rows, not corpus passes). See `grouping_sets_counts`
    for the scale shape and sentinel contract."""
    from itertools import combinations

    sets = [list(c) for r in range(len(keys), -1, -1)
            for c in combinations(keys, r)]
    return grouping_sets_counts(ds, keys, sets, alias, sentinels=sentinels)
