"""PageRank centrality over an edge-pair Dataset (Brin & Page 1998 —
public method) as a fixed-iteration, fixed-point-INTEGER power
iteration, so the oracle is bit-exact (the repo's exact-mode
convention: ``stages/bm25.py`` and ``queries._LM_SCORE_SPEC`` follow
the same pattern).

Built for the near-dup graph the dedup family mines (charset-Jaccard /
MinHash pairs): within a duplicate cluster, PageRank ranks members by
connectivity, electing the most-central doc as the cluster's canonical
representative — the centrality-based alternative to
``cluster.py``'s min-id election. Not in the reference
(tuhuayuan/go-logagent has no graph ops); first-class per the
training-data mandate (iterative algorithms over mined structure).

Spec (all integer, replayed verbatim by the SQL oracle):

- nodes: every endpoint of ≥1 undirected pair, each direction
  materialized as a directed edge; in-degree == out-degree ≥ 1, so no
  dangling-mass handling is needed (the documented simplification vs
  full PageRank — isolated docs simply don't participate).
- r₀(v) = ``scale`` (unnormalized start — ranking is scale-free).
- iteration: r′(v) = (3·scale)//20 + Σ_{u→v} (r(u)·17) // (20·deg(u))
  — damping d = 17/20 = 0.85 and teleport (1−d)·scale = 3·scale//20,
  with FLOOR division at each edge (the fixed-point contract both
  engines compute identically; non-negative throughout, and ranks are
  bounded by base + (17/20)·n·scale so int64 holds to ~10¹⁰ nodes at
  the default scale).

Scale shape — no broadcast, no driver collect, at ANY graph size:

- degrees: one grouped count over edge sources (partials combine
  per batch first).
- degree attach (once): edges and the degree table co-locate via ONE
  hash-sharded union-groupby (``mix_shard_i64`` on src, the shared
  co-group convention) and the join runs vectorized inside each shard.
- per iteration: the rank table co-locates with the degree-carrying
  edges the same way (shard by src), each shard pre-aggregates its
  (dst, contribution) partials, and one grouped sum finishes — two
  bounded shuffles per iteration, edge payload is 3 int64 columns.
- result: global top-k via ``aggregate.topk_rows`` (per-batch prune).

Iterations are FIXED (default 3) rather than convergence-tested:
deterministic cost, deterministic oracle (3 unrolled CTEs), and rank
ordering on near-dup clusters stabilizes within a few hops of the
cluster diameter.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
from ray.data import Dataset

from ..functions.cogroup import sharded_cogroup
from .aggregate import counts_by, grouped_sum, topk_rows

DAMP_NUM, DAMP_DEN = 17, 20  # d = 0.85


def _blocks_for(mat_ds: Dataset) -> int:
    """Block count proportional to a materialized Dataset's ACTUAL
    bytes (floor 1). Ray's sort-shuffle cost scales with block COUNT
    and every groupby output inherits its input's count, so without a
    bound the iteration DAG gains the edge-table's block count every
    round (measured at sf0.1: 192 → 320 → 448 union blocks, 6.5 →
    17 s per iteration; bounding restored flat ~2 s iterations). At
    real scale size_bytes/target_max_block_size dominates and the
    repartition keeps blocks AT the configured target, so this is a
    floor on tiny tables, not a cap on big ones."""
    from ray.data import DataContext

    tgt = DataContext.get_current().target_max_block_size or (128 << 20)
    size = mat_ds.size_bytes() or 0
    return max(1, int((size + tgt - 1) // tgt))


def _directed_edges(pairs: Dataset, src_field: str,
                    dst_field: str) -> Dataset:
    """Each undirected (a, b) pair as both directed edges (null
    endpoints dropped — an edge needs two nodes)."""
    def both(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = batch.select([src_field, dst_field]).filter(
            pc.and_(pc.is_valid(batch[src_field]),
                    pc.is_valid(batch[dst_field])))
        a = b[src_field].combine_chunks().cast(pa.int64())
        c = b[dst_field].combine_chunks().cast(pa.int64())
        return pa.table({"_src": pa.concat_arrays([a, c]),
                         "_dst": pa.concat_arrays([c, a])})

    return pairs.map_batches(both, batch_format="pyarrow")


_UNION_TYPES = {"_src": pa.int64(), "_dst": pa.int64(),
                "_deg": pa.int64(), "_r": pa.int64(),
                "_shard": pa.int32()}


def pagerank_topk(pairs: Dataset, *, k: int = 25, iterations: int = 3,
                  scale: int = 10**9, src_field: str = "doc_a",
                  dst_field: str = "doc_b", id_out: str = "doc_id",
                  rank_out: str = "rank_q",
                  merge_shards: int = 64) -> Dataset:
    """Top-k nodes of the undirected pair graph by fixed-point-integer
    PageRank: (id_out, rank_out) rows under (rank DESC, id ASC). See
    module docstring for the exact iteration spec the SQL oracle
    replays."""
    if int(iterations) < 1:
        # fail loudly: a silently-clamped iteration count would desync
        # from an oracle unrolled for the requested count
        raise ValueError(
            f"pagerank needs iterations >= 1, got {iterations}")
    base = (DAMP_DEN - DAMP_NUM) * scale // DAMP_DEN
    n_shards = max(1, int(merge_shards))

    # materialized: edges feed BOTH the degree count and the degree
    # attach (upstream pair mining must not re-execute per consumer),
    # deg feeds BOTH the attach and r0 — each is bounded by edge/node
    # count and spills to the object store at scale
    edges = _directed_edges(pairs, src_field, dst_field).materialize()
    # out-degree per source; "shuffle" mode — node cardinality is
    # corpus-bound, so the one-block tree reduce is the wrong shape
    deg = counts_by(edges, ["_src"], alias="_deg",
                    mode="shuffle").materialize()

    def attach_deg(e: pa.Table, d: pa.Table) -> pa.Table:
        if e.num_rows == 0:
            return pa.table({"_src": pa.array([], pa.int64()),
                             "_dst": pa.array([], pa.int64()),
                             "_deg": pa.array([], pa.int64())})
        out = (pl.from_arrow(e).join(pl.from_arrow(d), on="_src",
                                     how="inner")
               .select(["_src", "_dst", "_deg"]))
        return out.to_arrow().cast(
            pa.schema([("_src", pa.int64()), ("_dst", pa.int64()),
                       ("_deg", pa.int64())]))

    # materialized once: every iteration re-reads the degree-carrying
    # edge table (bounded by edge count; the object store spills it).
    # Repartitioned to its size-proportional block count first — the
    # attach groupby emits one block per input block, and block count
    # is the sort-shuffle cost driver every iteration pays (_blocks_for)
    edges_deg = sharded_cogroup(edges, deg, ["_src", "_dst"],
                                ["_src", "_deg"], "_src", _UNION_TYPES,
                                n_shards, attach_deg) \
        .repartition(_blocks_for(edges)).materialize()
    rank_blocks = _blocks_for(deg)

    # r0: one row per node (deg doubles as the node table), rank=scale
    ranks = deg.map_batches(
        lambda b: pa.table({"_src": b["_src"].combine_chunks(),
                            "_r": pa.array(
                                np.full(b.num_rows, scale, np.int64))}),
        batch_format="pyarrow")

    def contrib(e: pa.Table, r: pa.Table) -> pa.Table:
        empty = pa.table({"_dst": pa.array([], pa.int64()),
                          "_c": pa.array([], pa.int64())})
        if e.num_rows == 0 or r.num_rows == 0:
            return empty
        df = (pl.from_arrow(e).join(pl.from_arrow(r), on="_src",
                                    how="inner")
              .with_columns(((pl.col("_r") * DAMP_NUM)
                             // (DAMP_DEN * pl.col("_deg"))).alias("_c"))
              .group_by("_dst").agg(pl.col("_c").sum()))
        return df.select(["_dst", "_c"]).to_arrow().cast(
            pa.schema([("_dst", pa.int64()), ("_c", pa.int64())]))

    for _ in range(int(iterations)):
        summed = grouped_sum(
            sharded_cogroup(edges_deg, ranks, ["_src", "_dst", "_deg"],
                            ["_src", "_r"], "_src", _UNION_TYPES,
                            n_shards, contrib),
            ["_dst"], "_c", alias="_c", mode="shuffle")
        # every node has in-degree ≥ 1 (undirected doubling), so the
        # summed table covers the full node set — no outer re-join.
        # NOT materialized: ranks has exactly one consumer (the next
        # iteration's co-group, or the final top-k), so the lazy plan
        # runs each iteration once.
        # Repartitioned to the node table's size-proportional count:
        # the groupby would otherwise hand the next iteration one
        # block per UNION input block and the DAG's block count (=
        # sort cost) would grow every round (_blocks_for)
        ranks = summed.map_batches(
            lambda b: pa.table({
                "_src": b["_dst"].combine_chunks(),
                "_r": pa.array(base + b["_c"].to_numpy(
                    zero_copy_only=False), pa.int64())}),
            batch_format="pyarrow").repartition(rank_blocks)

    out = ranks.map_batches(
        lambda b: pa.table({id_out: b["_src"].combine_chunks(),
                            rank_out: b["_r"].combine_chunks()}),
        batch_format="pyarrow")
    return topk_rows(out, rank_out, id_out, k=k)
