"""Distributed connected components over a near-duplicate pair graph.

The final step of every fuzzy-dedup pipeline: LSH/Jaccard/SimHash emit
*pairs*; deciding which documents to keep requires grouping the pairs
into duplicate CLUSTERS (connected components) and electing one
representative per cluster.  Not in the reference (a log agent never
dedups) — first-class here because at 100 TB the pair graph itself is
distributed and a driver-side union-find does not fit.

Algorithm: alternating large-star / small-star (Kiveris et al.,
"Connected Components in MapReduce and Beyond", SoCC'14 — public
literature).  Each round is two fully vectorized passes over the edge
list:

- ``large-star``:  for every node u, connect every *larger* neighbor
  v > u to m = min(N(u) ∪ {u}).
- ``small-star``:  for every node u, connect every *smaller* neighbor
  v < u (and u itself) to m = min(N(u) ∪ {u}).

Alternating the two converges in O(log n) rounds to a forest of stars,
each centered at its component's minimum node id.  Per round the work
is: one sort-shuffle groupby of the directed edges on a hash shard of
u (each shard computes m per node and emits in-task, so no join and no
hash-shuffle actors), and one distinct.  Everything that shuffles is the
edge list itself (compact int64 pairs); row width never grows.

Scale notes:
- Per-round cost is O(|E|) with all-vectorized kernels; no Python row
  loops.  Rounds are O(log n) — 60k synthetic docs converge in ≤ 3.
- Iterative algorithms must materialize between rounds (otherwise the
  lazy lineage re-executes every prior round); we materialize the EDGE
  set only — bounded by the candidate-pair count, never the corpus.
- A "hot" star center (one giant duplicate cluster) concentrates its
  degree in one shard; its fan-out is bounded by its degree, which is
  inherent to the output (those edges must exist somewhere).
- The per-round distinct doubles as canonicalization for convergence
  detection: after distinct, (count, sum of mix64(a,b)) is a canonical
  multiset-free signature, so fixpoint comparison is two scalars.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset
from ray.data.aggregate import Count, Min

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _mix64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cheap stable 64-bit mix of an (a, b) pair for set signatures."""
    x = a.astype(np.uint64) * _MIX ^ (b.astype(np.uint64) + _MIX)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    return x


def _symmetrize(edges: Dataset, n_shards: int) -> Dataset:
    """(a, b) with a < b → directed view (u, v) with both directions,
    plus the int32 ``_shard`` of u that co-locates each node's rows."""
    from ..functions.hashing import mix_shard_i64

    def both_np(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        u = np.concatenate([a, b])
        return pa.table({
            "u": u,
            "v": np.concatenate([b, a]),
            "_shard": mix_shard_i64(u, n_shards),
        })

    return edges.map_batches(both_np, batch_format="pyarrow")


def _distinct_edges(edges: Dataset) -> Dataset:
    """Drop duplicate (a, b) rows — one shuffle on the compact pairs."""
    g = edges.groupby(["a", "b"]).aggregate(Count(alias_name="_n"))
    return g.select_columns(["a", "b"])


def _edge_signature(edges: Dataset) -> tuple[int, int]:
    """Canonical (count, hash-sum) of a duplicate-free edge set.

    Partial per block inside map_batches; only one tiny row per block
    reaches the driver.
    """

    def part(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        h = int(_mix64(a, b).sum(dtype=np.uint64))
        return pa.table({"n": pa.array([len(a)], pa.int64()),
                         "h": pa.array([h], pa.uint64())})

    parts = edges.map_batches(part, batch_format="pyarrow").take_all()
    n = sum(p["n"] for p in parts)
    h = 0
    for p in parts:
        h = (h + int(p["h"])) % (1 << 64)
    return n, h


def _is_star_forest(edges: Dataset) -> bool:
    """True iff every member node appears exactly once and never as a
    center — the shape of a converged star forest.  One groupby over
    compact (node, flags) rows; runs once at convergence."""

    def flags(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": np.concatenate([a, b]),
            "n_a": np.concatenate([np.ones(len(a), np.int64),
                                   np.zeros(len(b), np.int64)]),
            "n_b": np.concatenate([np.zeros(len(a), np.int64),
                                   np.ones(len(b), np.int64)]),
        })

    from ray.data.aggregate import Sum
    g = (edges.map_batches(flags, batch_format="pyarrow")
         .groupby("node")
         .aggregate(Sum("n_a", alias_name="n_a"),
                    Sum("n_b", alias_name="n_b")))
    def count_bad(batch: pa.Table) -> pa.Table:
        na = batch.column("n_a").to_numpy(zero_copy_only=False)
        nb = batch.column("n_b").to_numpy(zero_copy_only=False)
        bad = int(((nb > 1) | ((na > 0) & (nb > 0))).sum())
        return pa.table({"bad": pa.array([bad], pa.int64())})

    parts = g.map_batches(count_bad, batch_format="pyarrow").take_all()
    return sum(p["bad"] for p in parts) == 0


def _star_round(edges: Dataset, *, large: bool,
                num_partitions: int = 32) -> Dataset:
    """One large-star or small-star pass over normalized (a < b) edges.

    Input edges may contain duplicates (the min aggregate and emissions
    are duplicate-tolerant); callers run ``_distinct_edges`` once per
    large+small double round, not per pass, to save a shuffle.
    """
    sym = _symmetrize(edges, num_partitions)

    def emit(shard: pa.Table) -> pa.Table:
        # every (u, v) row of a node sits in its u's shard, so the
        # shard alone holds m = min(u, min over neighbors of u)
        uv = shard.select(["u", "v"])
        mins = uv.group_by("u").aggregate([("v", "min")])
        mins = pa.table({"u": mins["u"],
                         "m": pc.min_element_wise(mins["v_min"],
                                                  mins["u"])})
        batch = uv.join(mins, "u", join_type="inner")
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        m = batch.column("m").to_numpy(zero_copy_only=False)
        if large:
            # connect larger neighbors to m:  (m, v) for v > u
            keep = v > u
            a = m[keep]
            b = v[keep]
        else:
            # connect smaller neighbors AND u itself to m
            keep = v < u
            a = np.concatenate([m[keep], m])
            b = np.concatenate([v[keep], u])
        # normalize + drop self loops (m <= min(u, v) by construction,
        # so a <= b always; only a == b rows are dropped)
        real = a != b
        return pa.table({"a": a[real], "b": b[real]})

    return sym.groupby("_shard").map_groups(emit, batch_format="pyarrow")


def _streamed_union_find(edges: Dataset) -> "Dataset":
    """Finisher for graphs that fit the driver regime: collect the edge
    list as numpy int64 arrays (16 bytes/edge — bounded by
    broadcast_limit/2 edges, e.g. 16 MB at the 2M-node default), remap
    node ids to a dense range with ``np.unique``, and run an
    array-backed path-halving union-find.  State is three int64 arrays
    (edges ×2 + parent), never boxed Python ints; the only Python-level
    loop is one pass over the edges against array storage.  One scan,
    no rounds, exact."""
    import ray as _ray

    a_parts, b_parts = [], []
    for batch in edges.iter_batches(batch_format="pyarrow"):
        a_parts.append(batch.column("a").to_numpy(zero_copy_only=False)
                       .astype(np.int64))
        b_parts.append(batch.column("b").to_numpy(zero_copy_only=False)
                       .astype(np.int64))
    a = np.concatenate(a_parts) if a_parts else np.array([], np.int64)
    b = np.concatenate(b_parts) if b_parts else np.array([], np.int64)
    nodes, flat = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = flat[:len(a)], flat[len(a):]
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:          # path halving
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(ea, eb):
        rx, ry = find(x), find(y)
        if rx != ry:
            # union toward the smaller NODE id so the root is the
            # component minimum (node ids are sorted by np.unique, so
            # dense-index order == id order)
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
    reps_idx = np.fromiter((find(int(i)) for i in range(len(nodes))),
                           dtype=np.int64, count=len(nodes))
    return _ray.data.from_arrow(pa.table({"node": nodes,
                                          "rep": nodes[reps_idx]}))


def connected_components(pairs: Dataset, *, a_col: str = "doc_a",
                         b_col: str = "doc_b",
                         max_rounds: int = 50,
                         num_partitions: int | None = None,
                         broadcast_limit: int = 2_000_000) -> Dataset:
    """Cluster a pair graph into connected components.

    ``pairs`` columns ``a_col``/``b_col`` are int64 node ids (any order,
    self loops tolerated).  Returns a Dataset with columns
    ``(node, rep)`` covering every node that appears in a NON-self-loop
    pair (a node seen only as (x, x) carries no dedup information and
    is dropped with the loop edge), where ``rep`` is the minimum node
    id of its component (the elected duplicate-cluster representative).

    Hybrid execution (the production CC shape): while the graph exceeds
    ``broadcast_limit`` nodes (conservatively bounded by 2·edges),
    alternate distributed large-star/small-star rounds — each round
    strictly shrinks edges toward stars, so a huge pair graph contracts
    in O(log n) shuffle rounds.  Once the node bound fits the driver
    regime, finish with ONE streamed union-find scan (exact,
    round-free).  At dedup workloads the pair graph is usually far
    smaller than the corpus, so the finisher often runs immediately;
    the star path is what makes a 10^9-edge graph tractable, and is
    exercised directly in tests via ``broadcast_limit=0``.

    Raises RuntimeError if ``max_rounds`` alternating star rounds do not
    converge (should never happen before round ~2·log2(n)).

    ``num_partitions`` is the number of node shards a star round
    groups the edges into.  ``map_groups`` hands each shard to one task
    whole, so a shard holds about 2·edges/``num_partitions`` (u, v)
    pairs in memory; raise it when the edge list is large next to a
    worker's memory.  The default, half the cluster CPUs clamped to
    [2, 64], is untuned: the sort-shuffle groupby starts no actors, so
    no CPU limit forces it, and no measurement yet prefers it to
    another count.
    """
    if num_partitions is None:
        import ray
        cpus = int(ray.cluster_resources().get("CPU", 8))
        num_partitions = max(2, min(64, cpus // 2))

    def norm(batch: pa.Table) -> pa.Table:
        x = batch.column(a_col).cast(pa.int64())
        y = batch.column(b_col).cast(pa.int64())
        a = pc.min_element_wise(x, y)
        b = pc.max_element_wise(x, y)
        keep = pc.not_equal(a, b)
        t = pa.table({"a": a, "b": b})
        return t.filter(keep)

    edges = _distinct_edges(
        pairs.map_batches(norm, batch_format="pyarrow")).materialize()
    sig = _edge_signature(edges)
    if sig[0] == 0:  # no non-loop edges: no components to report
        import ray
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rep": pa.array([], pa.int64())}))

    rounds = 0
    while sig[0] * 2 > broadcast_limit:
        if rounds >= max_rounds:
            raise RuntimeError(
                f"connected_components did not converge in "
                f"{max_rounds} rounds")
        rounds += 1
        edges = _star_round(edges, large=True,
                            num_partitions=num_partitions)
        edges = _star_round(edges, large=False,
                            num_partitions=num_partitions)
        edges = _distinct_edges(edges).materialize()
        new_sig = _edge_signature(edges)
        if new_sig == sig and _is_star_forest(edges):
            break
        sig = new_sig
    else:
        # node bound fits the driver regime: exact streamed finisher
        return _streamed_union_find(edges)

    # Fixpoint edge set is a union of stars, each centered at its
    # component minimum: every edge is (rep, member).
    def fmt(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("b"),
                         "rep": batch.column("a")})

    members = edges.map_batches(fmt, batch_format="pyarrow")

    def reps_self(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("a"),
                         "rep": batch.column("a")})

    reps = edges.map_batches(reps_self, batch_format="pyarrow")
    reps = reps.groupby("node").aggregate(Min("rep", alias_name="rep"))
    return members.union(reps)
