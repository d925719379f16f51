"""Log-template mining — the Drain/IPLoM-family operator of a log
pipeline: collapse structurally identical log lines into templates with
constant positions kept literal and variable positions wildcarded.

The reference agent parses lines against HAND-WRITTEN grok patterns;
template mining is the discovery-side complement (derive the patterns
FROM the corpus) that every production log pipeline grows — Drain (He et
al., ICWS 2017) and IPLoM are the public ancestors. This implementation
is the deterministic prefix-group variant of Drain's fixed-depth tree:

- group key = ``(token_count, first_token)`` — Drain's first two tree
  levels, which is what makes the result order-independent and
  SQL-mirrorable (no online tree mutation);
- within a group, position ``p`` is a LITERAL iff every member has the
  same token at ``p`` (``min(token) == max(token)`` — an associative
  aggregate, unlike distinct-count), else the wildcard ``<*>``;
- output: one row per group — ``(n_tokens, template, n_docs)``. The
  first position is always literal by construction, so ``(n_tokens,
  template)`` uniquely identifies the group.

Scale shape: the explode is corpus × token-count rows, but each batch
immediately combines to ``(group, pos) → (min, max, count)`` partials —
bounded by distinct-template structure, not corpus size; the aggregate
kernel's ``_partial`` builds them — so only partials shuffle. The merge
groupby runs on ``hash(group) % merge_shards`` (the throttle/multiline
group-count discipline); each shard runs the kernel's ``_merge`` and
then the pos-ordered template join, vectorized across the shard in
polars. Null-text rows contribute nothing; empty text is the 1-token
group ``("", n=1)`` (``"".split(" ") == [""]`` on both the polars and
DuckDB sides — verified).
"""

from __future__ import annotations

import pyarrow as pa
from ray.data import Dataset

WILDCARD = "<*>"


def template_kernels(*, text_field: str = "text", merge_shards: int = 64):
    """(partial, final_shard) — module-level so the
    split→partial→shard-group→merge composition is property-testable
    without a Ray session (tests/test_sharded_properties.py pattern)."""
    import polars as pl

    from ..functions.hashing import shard_series_i32
    from .aggregate import _merge, _partial

    keys = ["n_tokens", "_tok0", "pos"]
    aggs = {"tmin": ("min", "_toks"), "tmax": ("max", "_toks"),
            "cnt": ("count", None)}

    def partial(batch: pa.Table) -> pa.Table:
        # cast guards all-null blocks arriving as Null dtype (no str
        # namespace — the chunk_batch_fn hazard); null text has no
        # tokens and is dropped on both sides
        df = (pl.from_arrow(batch.select([text_field]))
              .with_columns(pl.col(text_field).cast(pl.Utf8))
              .filter(pl.col(text_field).is_not_null()))
        toks = df.with_columns(
            pl.col(text_field).str.split(" ").alias("_toks"))
        toks = toks.with_columns(
            pl.col("_toks").list.len().cast(pl.Int64).alias("n_tokens"),
            pl.col("_toks").list.first().alias("_tok0"))
        e = (toks.select(["n_tokens", "_tok0", "_toks"])
             .with_columns(
                 pl.int_ranges(1, pl.col("n_tokens") + 1).alias("pos"))
             .explode(["_toks", "pos"]))
        # per-batch combiner: one row per (group, pos) this batch saw —
        # min/max are associative so shards can finish the merge exactly
        part = _partial(e.to_arrow(), keys, aggs)
        shard = shard_series_i32(pl.from_arrow(part.select(keys[:2])),
                                 keys[:2], merge_shards)
        return part.append_column("_shard", shard.to_arrow())

    def final_shard(g: pa.Table) -> pa.Table:
        agg = pl.from_arrow(_merge([g], keys, aggs))
        agg = agg.with_columns(
            pl.when(pl.col("tmin") == pl.col("tmax"))
            .then(pl.col("tmin")).otherwise(pl.lit(WILDCARD))
            .alias("_piece")).sort(keys)
        out = (agg.group_by(["n_tokens", "_tok0"], maintain_order=True)
               .agg(pl.col("_piece").str.join(" ").alias("template"),
                    # every group member has a token at pos 1, so the
                    # pos-1 row count IS the group's document count
                    pl.col("cnt").filter(pl.col("pos") == 1).sum()
                    .alias("n_docs")))
        return out.select(["n_tokens", "template", "n_docs"]).to_arrow()

    return partial, final_shard


def mine_templates(ds: Dataset, *, text_field: str = "text",
                   merge_shards: int = 64) -> Dataset:
    """One row per discovered template: (n_tokens, template, n_docs).

    ``merge_shards`` is the scale knob — a shard holds the (group, pos)
    partials of ~#groups/merge_shards templates, so size it to the
    cluster exactly like the multiline/throttle merges (shard-count
    invariance of the result is pinned by tests)."""
    partial, final_shard = template_kernels(
        text_field=text_field, merge_shards=merge_shards)
    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("_shard").map_groups(final_shard,
                                              batch_format="pyarrow")
