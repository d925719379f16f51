"""Segment-level exact dedup: drop REPEATED fixed-size word windows
corpus-wide, keeping each distinct segment's first occurrence and
rebuilding every document from its surviving segments.

The aligned-window analog of exact substring deduplication (Lee et al.,
"Deduplicating Training Data Makes Language Models Better" — public
method; our granularity is non-overlapping k-word windows instead of
suffix-array substrings, which keeps the operator a pure two-pass
streaming shape). Not in the reference (tuhuayuan/go-logagent has no
corpus-level text ops); first-class per the training-data mandate.

ALIGNMENT BLINDSPOT of ``mode="aligned"`` (the fixed grid): a shifted
duplicate escapes detection entirely — insert ONE word at the front of
a copied document and every k-word window of the copy starts one word
later, so no window text repeats and nothing dedups. That is
out-of-contract for the aligned mode by definition (it dedups repeated
ALIGNED windows, exactly what its SQL oracle states), and
``tests/test_segdedup.py`` pins the blindspot with a planted
one-word-prefix duplicate. ``mode="cdc"`` closes it: chunk boundaries
are CONTENT-DEFINED (a chunk ends after any word whose hash ≡ 0 mod
avg_size — ``stages/chunk.py::cdc_chunk_fn``), so boundaries
re-synchronize one anchor after any insertion/deletion and all later
chunks of a shifted duplicate dedup again. Same two-pass shape, same
keeper/broadcast/scrub machinery, same oracle checkability (md5 anchor
mode). Remaining gap vs suffix arrays in BOTH modes: sub-chunk repeats
(shorter than one window/chunk) are not deduplicated.

Scale shape (mirrors ``dedup.exact_dedup_broadcast``):

- pass 1: explode each batch into segments IN PLACE, then one
  hash-sharded ``aggregate_by`` min of the packed (doc_id, seg_idx)
  per segment hash. Only per-batch (hash, packed-position) partials
  ever shuffle; full text never moves.
- keep test: an occurrence survives iff its packed position IS its
  hash's keeper position — and packed positions are globally unique
  (unique doc ids × in-doc index), so the keep set is simply the SET
  OF KEEPER POSITIONS; the segment hash never needs to travel into
  pass 2 at all.
- pass 2, broadcast regime (keeper table ≤ ``broadcast_limit_bytes``,
  measured on the MATERIALIZED keeper Dataset): the keeper positions
  are collected as ONE sorted int64 numpy array (8 bytes per distinct
  segment — never Python row-dicts) and ``ray.put`` once; each batch
  re-explodes, runs a vectorized sorted-membership test, and rebuilds
  its docs locally (polars group_by) — documents never shuffle.
  Honest regime ≈ 1 G distinct segments at the 8 GB default budget.
- pass 2, sharded fallback (past the budget): hash-shard DOCUMENTS and
  keeper positions by mix(doc_id) % ``keeper_shards`` (position //
  MAX_SEGS recovers the doc), union the two padded sides, and one
  ``groupby(_shard)`` co-group rebuilds each shard's docs against
  exactly its own keeper slice — the keeper table is never collected
  anywhere. Document text moves through that one shuffle (same volume
  as any repartition); keeper positions move once at 8 bytes each.
  Sizing contract: one shard ≈ corpus_bytes / keeper_shards must fit a
  worker's heap — size ``keeper_shards`` to the cluster, exactly like
  ``bpe_token_counts``'s ``word_shards``.

Identity is EXACT segment-text equality via a 64-bit polars hash
(collision odds ~n²/2⁶⁵ — negligible below ~10⁹ distinct segments and
the SQL oracle would catch one at test scale). Positions pack as
``doc_id * MAX_SEGS + seg_idx`` so "first occurrence" is the
lexicographic (doc_id, seg_idx) minimum in one int64 min aggregate;
docs with ≥ MAX_SEGS segments, negative ids, or ids ≥ 2^63/MAX_SEGS
(which would wrap the packing) fail loudly.

PRECONDITION: ``id_field`` is unique corpus-wide (it names a segment's
position, so a repeated id makes two distinct occurrences
indistinguishable and the output emits one row per (id, batch)).
Same-batch violations fail loudly; CROSS-batch duplicates are
undetectable without a global pass — run an id distinct-count (or
``exact_dedup_broadcast``) first if ids are untrusted.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
from ray.data import Dataset

from .aggregate import aggregate_by
from .chunk import chunk_batch_fn

SEG_SIZE = 20
MAX_SEGS = 1 << 20


def _packed_segments(batch: pa.Table, explode, id_field: str,
                     with_fp: bool = True):
    """Explode one batch into segments; return (segs, fp, pk) where fp
    is the segment-text hash and pk the packed (doc_id, seg_idx).
    ``with_fp=False`` skips the text hash (pass 2 keys on positions
    only — see module docstring) and returns fp=None."""
    from ..functions.hashing import stable_hash64_i64

    if batch.num_rows:
        bids = batch[id_field].to_numpy(zero_copy_only=False)
        if bids.size != np.unique(bids).size:
            raise ValueError(
                "segment_dedup requires unique ids (they define segment "
                "positions); duplicate id in batch — dedup rows first "
                "(e.g. exact_dedup_broadcast)")
    segs = explode(batch)
    if segs.num_rows == 0:
        e = np.zeros(0, np.int64)
        return segs, e, e
    ids = segs[id_field].to_numpy()
    idx = segs["chunk_idx"].to_numpy()
    if ids.size and int(ids.min()) < 0:
        raise ValueError("segment_dedup requires non-negative ids "
                         "(positions pack as id * MAX_SEGS + seg_idx)")
    if ids.size and int(ids.max()) >= (1 << 63) // MAX_SEGS:
        raise ValueError(
            f"id {int(ids.max())} ≥ 2^63/MAX_SEGS: the packed position "
            "would silently wrap int64 and corrupt first-occurrence "
            "ordering; renumber ids below 2^43 or shrink MAX_SEGS")
    if idx.size and int(idx.max()) >= MAX_SEGS:
        raise ValueError(
            f"document has ≥ {MAX_SEGS} segments; raise MAX_SEGS "
            "(and re-check the int64 packing headroom) for such inputs")
    pk = ids.astype(np.int64) * MAX_SEGS + idx.astype(np.int64)
    fp = stable_hash64_i64(segs["chunk_text"]) if with_fp else None
    return segs, fp, pk


def _make_explode(mode: str, size: int, text_field: str, id_field: str,
                  token_hash: str):
    if mode == "aligned":
        return chunk_batch_fn(size=size, stride=size,
                              text_field=text_field, id_field=id_field)
    if mode == "cdc":
        from .chunk import cdc_chunk_fn

        return cdc_chunk_fn(avg_size=size, text_field=text_field,
                            id_field=id_field, token_hash=token_hash)
    raise ValueError(f"unknown segment_dedup mode {mode!r}")


def segment_keepers(ds: Dataset, *, size: int = SEG_SIZE,
                    text_field: str = "text",
                    id_field: str = "doc_id",
                    mode: str = "aligned",
                    token_hash: str = "polars") -> Dataset:
    """(_fp, _pk): per distinct segment text, the packed position of its
    first occurrence. Only these 16-byte pairs shuffle."""
    explode = _make_explode(mode, size, text_field, id_field, token_hash)

    def positions(batch: pa.Table) -> pa.Table:
        _, fp, pk = _packed_segments(batch, explode, id_field)
        return pa.table({"_fp": pa.array(fp, pa.int64()),
                         "_pk": pa.array(pk, pa.int64())})

    return aggregate_by(ds.map_batches(positions, batch_format="pyarrow"),
                        ["_fp"], {"_pk": ("min", "_pk")}, "shuffle")


def _out_schema(id_field: str, text_field: str) -> pa.Schema:
    """Canonical output schema — every branch casts to THIS (the empty
    branch would otherwise emit string where polars' to_arrow emits
    large_string, and Ray 2.49's strict block concat rejects the mix;
    same hazard chunk.py::_out_schema documents)."""
    return pa.schema([(id_field, pa.int64()),
                      (text_field, pa.large_string()),
                      ("n_segs", pa.int64()),
                      ("n_kept", pa.int64())])


def _empty_out(id_field: str, text_field: str) -> pa.Table:
    return _out_schema(id_field, text_field).empty_table()


def _rebuild(segs: pa.Table, keep: np.ndarray, id_field: str,
             text_field: str) -> pa.Table:
    """Rebuild docs from their kept segment occurrences — one polars
    group_by over the (already co-located) exploded segments."""
    df = pl.DataFrame({
        id_field: segs[id_field].to_numpy(),
        "_si": segs["chunk_idx"].to_numpy(),
        "_st": pl.from_arrow(segs["chunk_text"]),
        "_keep": keep,
    })
    tot = df.group_by(id_field).agg(pl.len().alias("n_segs"))
    agg = (df.filter(pl.col("_keep"))
           .group_by(id_field)
           .agg(pl.col("_st").sort_by("_si").alias("_l"),
                pl.len().alias("n_kept"))
           .with_columns(pl.col("_l").list.join(" ").alias(text_field))
           .select([id_field, text_field, "n_kept"]))
    out = (tot.join(agg, on=id_field, how="left")
           .with_columns(pl.col(text_field).fill_null(""),
                         pl.col("n_kept").fill_null(0))
           .select([id_field, text_field, "n_segs", "n_kept"])
           .with_columns(pl.col("n_segs").cast(pl.Int64),
                         pl.col("n_kept").cast(pl.Int64)))
    return out.to_arrow().cast(_out_schema(id_field, text_field))


def _kept_membership(kept_sorted: np.ndarray, pk: np.ndarray) -> np.ndarray:
    """Vectorized ``pk ∈ kept_sorted`` — the shared sorted-membership
    idiom (one definition for all broadcast keeper/drop sets)."""
    from ..functions.hashing import in_sorted_i64

    return in_sorted_i64(kept_sorted, pk)


def segment_dedup(ds: Dataset, *, size: int = SEG_SIZE,
                  text_field: str = "text",
                  id_field: str = "doc_id",
                  mode: str = "aligned",
                  token_hash: str = "polars",
                  broadcast_limit_bytes: int = 8 << 30,
                  keeper_shards: int = 64) -> Dataset:
    """One row per non-null-text document: (id, text rebuilt from
    surviving segments joined by ' ', n_segs, n_kept). A segment
    occurrence survives iff it IS the corpus-wide first occurrence of
    its exact text (so every distinct segment text appears exactly once
    across the whole output corpus).

    ``mode="aligned"`` segments on the fixed k-word grid (alignment
    blindspot — see module docstring); ``mode="cdc"`` uses
    content-defined boundaries (shift-robust; ``size`` becomes the
    EXPECTED chunk length). ``token_hash`` selects the CDC anchor hash
    ("polars" production / "md5" oracle-parity).

    SIZE GATE: the keeper position table is broadcast only while the
    materialized keeper Dataset is ≤ ``broadcast_limit_bytes``; past
    the budget the doc-sharded co-group fallback runs instead (see
    module docstring) with ``keeper_shards`` sized so one shard of the
    corpus fits a worker. Both paths are position-set identical —
    pinned by the forced-zero-budget parity test."""
    import ray

    explode = _make_explode(mode, size, text_field, id_field, token_hash)
    # materialized: size_bytes() needs it, and whichever pass-2 path
    # runs consumes it — the pass-1 shuffle must not re-execute. Holds
    # (_fp, _pk) only, bounded by distinct-segment count.
    keep_ds = segment_keepers(ds, size=size, text_field=text_field,
                              id_field=id_field, mode=mode,
                              token_hash=token_hash).materialize()

    # gate on what the broadcast actually carries — 8 B per keeper (the
    # _pk array alone), not the 16 B/row (_fp, _pk) Dataset; count() is
    # metadata on the materialized keepers
    if keep_ds.count() * 8 <= broadcast_limit_bytes:
        # broadcast regime: ONE sorted int64 array of keeper positions
        # (8 B per distinct segment), Arrow batches → numpy, never
        # Python row-dicts
        pk_parts = [b.column("_pk").to_numpy(zero_copy_only=False)
                    for b in keep_ds.iter_batches(batch_format="pyarrow")]
        kept_all = np.sort(np.concatenate(pk_parts)) if pk_parts \
            else np.zeros(0, np.int64)
        ref = ray.put(kept_all)

        def scrub(batch: pa.Table) -> pa.Table:
            kept_sorted = ray.get(ref)
            segs, _, pk = _packed_segments(batch, explode, id_field,
                                           with_fp=False)
            if segs.num_rows == 0:
                return _empty_out(id_field, text_field)
            return _rebuild(segs, _kept_membership(kept_sorted, pk),
                            id_field, text_field)

        return ds.map_batches(scrub, batch_format="pyarrow")

    # ---- sharded fallback: co-group docs with their keeper positions
    # by mix(doc_id) % keeper_shards — no driver collect at any scale
    from ..functions.cogroup import SIDE_COL, pad_to_schema, split_sides

    if {id_field, text_field} & {"_kpk", "_shard", SIDE_COL}:
        raise ValueError(
            "segment_dedup reserves _kpk/_shard/_side for its sharded "
            "co-group; rename the id/text fields first")
    sch = ds.schema()  # ray.data Schema wrapper, not pyarrow
    types = dict(zip(sch.names, sch.types))
    union_types = {id_field: types[id_field],
                   text_field: types[text_field],
                   "_kpk": pa.int64(), "_shard": pa.int32()}
    n_shards = max(1, int(keeper_shards))

    def _shard_of_ids(ids: np.ndarray) -> pa.Array:
        from ..functions.hashing import mix_shard_i64

        return pa.array(mix_shard_i64(ids, n_shards))

    def doc_side(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # null-text docs emit no output row in either path — drop them
        # HERE so their (useless) rows never enter the shuffle
        b = batch.select([id_field, text_field]).filter(
            pc.is_valid(batch[text_field]))
        ids = b[id_field].to_numpy(zero_copy_only=False)
        cols = {id_field: b[id_field].combine_chunks(),
                text_field: b[text_field].combine_chunks(),
                "_shard": _shard_of_ids(ids)}
        return pad_to_schema(cols, union_types, b.num_rows, 0)

    def keeper_side(batch: pa.Table) -> pa.Table:
        pk = batch["_pk"].to_numpy(zero_copy_only=False)
        cols = {"_kpk": batch["_pk"].combine_chunks(),
                "_shard": _shard_of_ids(pk // MAX_SEGS)}
        return pad_to_schema(cols, union_types, batch.num_rows, 1)

    both = ds.map_batches(doc_side, batch_format="pyarrow").union(
        keep_ds.map_batches(keeper_side, batch_format="pyarrow"))

    def rebuild_shard(g: pa.Table) -> pa.Table:
        docs, kp = split_sides(g)
        docs = docs.select([id_field, text_field])
        if docs.num_rows == 0:
            return _empty_out(id_field, text_field)
        kept_sorted = np.sort(kp["_kpk"].to_numpy(zero_copy_only=False)) \
            if kp.num_rows else np.zeros(0, np.int64)
        segs, _, pk = _packed_segments(docs, explode, id_field,
                                       with_fp=False)
        if segs.num_rows == 0:
            return _empty_out(id_field, text_field)
        return _rebuild(segs, _kept_membership(kept_sorted, pk),
                        id_field, text_field)

    return both.groupby("_shard").map_groups(rebuild_shard,
                                             batch_format="pyarrow")
