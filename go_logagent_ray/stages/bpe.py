"""Distributed BPE tokenizer training: learn the first R merge rules
from the corpus (Sennrich et al. 2016, "Neural Machine Translation of
Rare Words with Subword Units" — the public algorithm every modern LLM
tokenizer pipeline runs over its training corpus).

Not in the reference; first-class per the training-data mandate.

Scale shape — the working set is the DISTINCT-WORD table, never the
corpus:

1. ``word_counts``: one (word, count) combiner-then-groupby pass over
   the corpus (identical shape to doc-frequency). At 100 TB the corpus
   is ~10^13 tokens but the distinct-word table is ~10^8 rows — that is
   what every later round touches.
2. per merge round: (a) adjacent-symbol-pair counts — vectorized
   offsets math inside ``map_batches``, per-batch Arrow hash-agg
   partials, one small groupby over (left, right) pairs; (b) the argmax
   pair via per-block partial top-1 under the total order
   (n DESC, left ASC, right ASC) — only #blocks candidate rows reach
   the driver; (c) merge application — pure numpy over the flattened
   symbol/offset representation, no Python loop over words. The
   working table is re-materialized per round (bounded by distinct
   words), so round r+1 never re-executes rounds 1..r.

Pair counting is PER-POSITION (a word "x x x" contributes 2 to pair
(x,x)), and merge application is leftmost-non-overlapping. Key fact
used by both the numpy kernel and the SQL oracle: matches at adjacent
positions can only happen when left == right (l[i]=x, l[i+1]=y=x), so
overlap resolution reduces to keeping the even offsets of each
consecutive-match run — a parity formula, not a sequential scan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

_SYM_TYPE = pa.list_(pa.large_string())


def word_counts(ds: Dataset, text_field: str = "text") -> Dataset:
    """(word, cnt) over split-on-space tokens, empty words dropped."""
    import polars as pl

    from .aggregate import counts_by

    def words(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([text_field]))
        df = df.with_columns(pl.col(text_field).cast(pl.Utf8)) \
            .filter(pl.col(text_field).is_not_null())
        out = (df.with_columns(pl.col(text_field).str.split(" ").alias("_w"))
               .select("_w").explode("_w")
               .filter(pl.col("_w") != ""))
        return pa.table({"word": out["_w"].to_arrow().cast(pa.string())})

    return counts_by(ds.map_batches(words, batch_format="pyarrow"), ["word"],
                     alias="cnt")


def _flat_syms(batch: pa.Table):
    """(flat Arrow string array, rebased int64 offsets, int64 counts)."""
    from ..functions.arrow_utils import as_combined

    col = as_combined(batch["sym"])
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - (offsets[0] if offsets.size else 0)  # sliced arrays
    flat = col.flatten()
    cnt = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, offsets, cnt


def _match_mask(flat, offsets: np.ndarray, left: str,
                right: str) -> np.ndarray:
    """Bool mask over 0..len(flat)-2: (i, i+1) in the SAME word and
    equal to (left, right). Equality runs as Arrow kernels on
    zero-copy slices."""
    import pyarrow.compute as pc

    n = len(flat)
    if n < 2:
        return np.zeros(max(n - 1, 0), dtype=bool)
    eq = pc.and_(
        pc.equal(flat.slice(0, n - 1), pa.scalar(left, type=flat.type)),
        pc.equal(flat.slice(1, n - 1), pa.scalar(right, type=flat.type)))
    m = eq.to_numpy(zero_copy_only=False).astype(bool)
    starts = offsets[1:-1]  # word boundaries strictly inside the flat
    m[starts[(starts > 0) & (starts < n)] - 1] = False
    return m


def merge_apply(batch: pa.Table, left: str, right: str) -> pa.Table:
    """Apply one merge rule to every word's symbol list — leftmost
    non-overlapping, fully vectorized (run-parity overlap resolution)."""
    import pyarrow.compute as pc

    flat, offsets, cnt = _flat_syms(batch)
    n = len(flat)
    if n == 0:
        return batch
    match = np.zeros(n, dtype=bool)
    match[:n - 1] = _match_mask(flat, offsets, left, right)
    if not match.any():
        # no word in this batch contains the pair — skip the six-kernel
        # rebuild (most batches, most rounds, on a large vocabulary)
        return batch
    # keep even offsets within each consecutive-match run (overlapping
    # runs exist only when left == right — a match at i+1 needs
    # l[i+1] == left while the match at i needs l[i+1] == right; for
    # left != right runs have length 1 and the formula is the identity)
    starts = match & ~np.concatenate(([False], match[:-1]))
    run_start = np.maximum.accumulate(np.where(starts, np.arange(n), -1))
    keep = match & ((np.arange(n) - run_start) % 2 == 0)
    absorbed = np.concatenate(([False], keep[:-1]))
    ki = np.nonzero(keep)[0]
    merged = pc.binary_join_element_wise(
        flat.take(pa.array(ki, pa.int64())),
        flat.take(pa.array(ki + 1, pa.int64())),
        pa.scalar("", type=flat.type))
    out_flat = pc.replace_with_mask(
        flat, pa.array(keep), merged.cast(flat.type))
    sel = ~absorbed
    values = out_flat.filter(pa.array(sel)).cast(pa.large_string())
    # per-word new lengths via cumsum difference over the kept mask
    csum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sel.astype(np.int64), out=csum[1:])
    new_lens = csum[offsets[1:]] - csum[offsets[:-1]]
    new_off = np.zeros(len(new_lens) + 1, dtype=np.int64)
    np.cumsum(new_lens, out=new_off[1:])
    sym = pa.ListArray.from_arrays(pa.array(new_off, pa.int32()), values)
    out = {"sym": sym.cast(_SYM_TYPE), "cnt": pa.array(cnt, pa.int64())}
    for c in batch.column_names:  # passthrough (e.g. the word itself)
        if c not in out:
            out[c] = batch[c]
    return pa.table(out)


def pair_counts(words: Dataset) -> Dataset:
    """(left, right, n): corpus-weighted per-position adjacent-pair
    counts over the symbol lists."""
    import pyarrow.compute as pc

    from .aggregate import grouped_sum

    def pairs_of(batch: pa.Table) -> pa.Table:
        flat, offsets, cnt = _flat_syms(batch)
        n = len(flat)
        empty = pa.table({"left": pa.array([], pa.string()),
                          "right": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if n < 2:
            return empty
        same = np.ones(n - 1, dtype=bool)
        starts = offsets[1:-1]
        same[starts[(starts > 0) & (starts < n)] - 1] = False
        if not same.any():
            return empty
        sel = pa.array(same)
        lens = np.diff(offsets)
        w = np.repeat(cnt, lens)[:-1][same]  # weight of the pair's word
        return pa.table({
            "left": flat.slice(0, n - 1).filter(sel).cast(pa.string()),
            "right": flat.slice(1, n - 1).filter(sel).cast(pa.string()),
            "n": pa.array(w, pa.int64()),
        })

    pairs = words.map_batches(pairs_of, batch_format="pyarrow")
    return grouped_sum(pairs, ["left", "right"], "n", alias="n")


def _top_pair(pairs: Dataset):
    """Argmax pair under (n DESC, left ASC, right ASC) — per-block
    partial top-1, then a #blocks-row driver reduce."""
    def block_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        import polars as pl
        df = pl.from_arrow(batch)
        return df.sort(["n", "left", "right"],
                       descending=[True, False, False]).head(1).to_arrow()

    rows = pairs.map_batches(block_top, batch_format="pyarrow").take_all()
    if not rows:
        return None
    rows.sort(key=lambda r: (-r["n"], r["left"], r["right"]))
    return rows[0]


def bpe_train(ds: Dataset, rounds: int = 3, text_field: str = "text",
              return_words: bool = False):
    """Learn the first ``rounds`` BPE merges; returns one row per round:
    (round, lhs, rhs, merged, pair_n). With ``return_words`` also
    returns the post-merge distinct-word Dataset (sym, cnt) — every
    learned rule applied — for vocabulary statistics / encoding."""
    import polars as pl

    wc = word_counts(ds, text_field)

    def to_syms(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        # (?s) so a newline inside a word still counts as a symbol,
        # matching the SQL oracle's per-character w[i] indexing
        df = df.with_columns(
            pl.col("word").str.extract_all(r"(?s).").alias("sym"))
        out = df.select(["sym", "cnt"]).to_arrow()
        return pa.table({"sym": out["sym"].cast(_SYM_TYPE)
                         if out["sym"].type != _SYM_TYPE else out["sym"],
                         "cnt": out["cnt"]})

    words = wc.map_batches(to_syms, batch_format="pyarrow").materialize()
    out = {"round": [], "left": [], "right": [], "merged": [],
           "pair_n": []}
    for r in range(1, rounds + 1):
        top = _top_pair(pair_counts(words))
        if top is None:
            break
        left, right = str(top["left"]), str(top["right"])
        out["round"].append(r)
        out["left"].append(left)
        out["right"].append(right)
        out["merged"].append(left + right)
        out["pair_n"].append(int(top["n"]))
        words = words.map_batches(
            lambda b, left=left, right=right:
            merge_apply(b, left, right),
            batch_format="pyarrow").materialize()
    merges = pa.table({
        "round": pa.array(out["round"], pa.int64()),
        "lhs": pa.array(out["left"], pa.string()),
        "rhs": pa.array(out["right"], pa.string()),
        "merged": pa.array(out["merged"], pa.string()),
        "pair_n": pa.array(out["pair_n"], pa.int64()),
    })
    return (merges, words) if return_words else merges


def bpe_vocab(ds: Dataset, rounds: int = 3, top: int = 20,
              text_field: str = "text") -> Dataset:
    """Token-frequency statistics of the corpus AFTER applying the
    learned merges: (token, n) — n weighted by word counts — top
    ``top`` under (n DESC, token ASC). Runs entirely on the
    distinct-word working set; the final sort is over the aggregated
    token table (cardinality ≤ |alphabet| + rounds, each merge adds at
    most one new symbol)."""
    from .aggregate import grouped_sum

    _, words = bpe_train(ds, rounds=rounds, text_field=text_field,
                         return_words=True)

    def tokens(batch: pa.Table) -> pa.Table:
        flat, offsets, cnt = _flat_syms(batch)
        return pa.table({"token": flat.cast(pa.string()),
                         "n": pa.array(np.repeat(cnt, np.diff(offsets)),
                                       pa.int64())})

    total = grouped_sum(words.map_batches(tokens, batch_format="pyarrow"),
                        ["token"], "n", alias="n")
    return total.sort(["n", "token"], descending=[True, False]).limit(top)


def bpe_token_counts(ds: Dataset, rounds: int = 3,
                     text_field: str = "text",
                     id_field: str = "doc_id",
                     broadcast_limit_bytes: int = 128 << 20,
                     word_shards: int = 64) -> Dataset:
    """ENCODE side of tokenizer training: exact per-document BPE token
    counts after applying the learned merges — one row per
    non-null-text doc, (id, n_tokens).

    Scale shape: train on the distinct-word working set as usual;
    project the post-merge table DOWN to (word, token-length)
    distributed — the word string is reconstructed as the
    concatenation of its symbols (merges only ever join adjacent
    symbols), so training never carries it. Then, SIZE-GATED like
    ``ngram_jaccard_pairs_lsh``:

    - map fits ``broadcast_limit_bytes`` (~10⁸ words × ~20 B is GBs —
      usually fine): broadcast it ONCE (``ray.put``) and make one
      streaming corpus pass where each batch tokenizes via a
      vectorized polars join against the map (converted from Arrow
      once per worker process, cached). Zero shuffles.
    - past the budget: the hash-partitioned SIDE_COL co-group attach —
      explode the corpus to per-batch (doc, word, n-occurrences)
      partials, co-locate them with the (word, ntok) rows on
      ``hash(word) % word_shards`` (ONE bounded shuffle, never a group
      per word), attach lengths via vectorized ``index_in``/``take``,
      pre-sum per doc inside the shard, and finish with a per-doc
      grouped sum (``mode="shuffle"`` — per-doc cardinality is
      unbounded, so the tree reduce's one-block finish would not fit).
      Per-task state is one shard, never the word map.

    PRECONDITION: ``id_field`` is unique corpus-wide — a duplicate id
    spanning batches would receive per-batch partial counts where the
    SQL oracle attaches the global sum to every duplicate row."""
    import polars as pl
    import pyarrow.compute as pc
    import ray

    _, words = bpe_train(ds, rounds=rounds, text_field=text_field,
                         return_words=True)

    def project(b: pa.Table) -> pa.Table:
        sym = b.column("sym")
        return pa.table({
            "word": pc.binary_join(
                sym, pa.scalar("", type=pa.large_string())).cast(
                    pa.string()),
            "ntok": pc.cast(pc.list_value_length(sym), pa.int64()),
        })

    # materialized: size_bytes() needs it, and the fallback's attach
    # consumes it — either way the lineage (train rounds) must not
    # re-execute. Holds (word, ntok) only, bounded by distinct words.
    wmap_ds = words.map_batches(project,
                                batch_format="pyarrow").materialize()

    if wmap_ds.size_bytes() <= broadcast_limit_bytes:
        wparts = list(wmap_ds.iter_batches(batch_format="pyarrow"))
        wmap = pa.concat_tables(wparts) if wparts else \
            pa.table({"word": pa.array([], pa.string()),
                      "ntok": pa.array([], pa.int64())})
        ref = ray.put(wmap)

        def count(batch: pa.Table) -> pa.Table:
            df = pl.from_arrow(batch.select([id_field, text_field]))
            df = df.with_columns(pl.col(text_field).cast(pl.Utf8)) \
                .filter(pl.col(text_field).is_not_null())
            if len(df) == 0:
                return pa.table({
                    id_field: pa.array([],
                                       batch.schema.field(id_field).type),
                    "n_tokens": pa.array([], pa.int64())})
            wm = _WM_CACHE.get(ref.hex())
            if wm is None:
                # Arrow→polars conversion of the multi-GB map once per
                # worker process, not once per batch
                from .dedup import _cache_put

                wm = pl.from_arrow(ray.get(ref))
                _cache_put(_WM_CACHE, ref.hex(), wm)
            tok = (df.select([id_field,
                              pl.col(text_field).str.split(" ")
                              .alias("_w")])
                   .explode("_w", empty_as_null=False)
                   .filter(pl.col("_w") != ""))
            per = (tok.join(wm, left_on="_w", right_on="word",
                            how="inner")
                   .group_by(id_field).agg(pl.col("ntok").sum()))
            out = (df.select([id_field]).join(per, on=id_field,
                                              how="left")
                   .with_columns(pl.col("ntok").fill_null(0)
                                 .cast(pl.Int64).alias("n_tokens"))
                   .select([id_field, "n_tokens"]))
            return out.to_arrow()

        return ds.map_batches(count, batch_format="pyarrow")

    # ---- distributed fallback: SIDE_COL co-group attach on the word
    from ..functions.cogroup import SIDE_COL, pad_to_schema
    from ..functions.hashing import stable_hash64
    from .aggregate import grouped_sum

    sch = ds.schema()  # ray.data Schema wrapper, not pyarrow
    id_type = dict(zip(sch.names, sch.types))[id_field]
    n_shards = max(1, int(word_shards))
    union_types = {id_field: id_type, "_nw": pa.int64(),
                   "_jk": pa.string(), "_ntok": pa.int64(),
                   "_shard": pa.int32()}

    def _shard_of(series: "pl.Series") -> pa.Array:
        h = stable_hash64(series)
        return pa.array((h % np.uint64(n_shards)).astype(np.int32))

    def doc_words(batch: pa.Table) -> pa.Table:
        """Side 0: per-batch (doc, word, n-occurrences) partials, plus
        one zero-count row per non-null-text doc (word "" — excluded
        from the map by construction, so its lookup misses and sums 0;
        it only guarantees the doc a row in the final sum). The zero
        rows shard by DOC hash — a lookup miss doesn't care which
        shard it misses in, and sharding them all to hash("") would
        concentrate one row per corpus doc on a single shard."""
        df = pl.from_arrow(batch.select([id_field, text_field]))
        df = df.with_columns(pl.col(text_field).cast(pl.Utf8)) \
            .filter(pl.col(text_field).is_not_null())
        per = (df.select([id_field,
                          pl.col(text_field).str.split(" ").alias("_w")])
               .explode("_w", empty_as_null=False)
               .filter(pl.col("_w").is_not_null() & (pl.col("_w") != ""))
               .group_by([id_field, "_w"]).len())
        t = per.to_arrow()
        z = df.select([id_field]).to_arrow()
        cols = {
            id_field: pa.concat_arrays(
                [t[id_field].combine_chunks().cast(id_type),
                 z[id_field].combine_chunks().cast(id_type)]),
            "_nw": pa.concat_arrays(
                [t["len"].combine_chunks().cast(pa.int64()),
                 pa.array(np.zeros(z.num_rows, np.int64))]),
            "_jk": pa.concat_arrays(
                [t["_w"].combine_chunks().cast(pa.string()),
                 pa.array([""] * z.num_rows, pa.string())]),
            "_shard": pa.concat_arrays(
                [_shard_of(per["_w"]),
                 _shard_of(pl.from_arrow(z[id_field]).cast(pl.Utf8))]),
        }
        return pad_to_schema(cols, union_types, len(cols["_jk"]), 0)

    def pad_wmap(b: pa.Table) -> pa.Table:
        cols = {"_jk": b["word"], "_ntok": b["ntok"],
                "_shard": _shard_of(pl.from_arrow(
                    b["word"].combine_chunks()))}
        return pad_to_schema(cols, union_types, b.num_rows, 1)

    both = ds.map_batches(doc_words, batch_format="pyarrow").union(
        wmap_ds.map_batches(pad_wmap, batch_format="pyarrow"))

    def per_shard(g: pa.Table) -> pa.Table:
        from ..functions.arrow_utils import as_combined

        side = g[SIDE_COL]
        dt = g.filter(pc.equal(side, 0))
        wt = g.filter(pc.equal(side, 1))
        if dt.num_rows == 0:
            return pa.table({id_field: pa.array([], id_type),
                             "n_tokens": pa.array([], pa.int64())})
        if wt.num_rows == 0:
            ntok = pa.nulls(dt.num_rows, pa.int64())
        else:
            idx = pc.index_in(as_combined(dt["_jk"]),
                              value_set=as_combined(wt["_jk"]))
            ntok = pc.take(as_combined(wt["_ntok"]), idx)
        part = pc.multiply_checked(
            as_combined(dt["_nw"]),
            pc.fill_null(ntok, pa.scalar(0, pa.int64())))
        return pa.table({id_field: dt[id_field], "n_tokens": part})

    attached = both.groupby("_shard").map_groups(per_shard,
                                                 batch_format="pyarrow")
    return grouped_sum(attached, [id_field], "n_tokens",
                       alias="n_tokens", mode="shuffle")


# per-worker-process cache of the encode broadcast map (bounded FIFO
# via dedup._cache_put so stale multi-GB tables can't accumulate and
# interleaved pipelines don't thrash)
_WM_CACHE: dict = {}


def _bpe_chain_sql(rounds: int, table: str, text_field: str,
                   apply_all: bool) -> str:
    """Shared CTE chain for the generated oracles: word counts, initial
    symbols, and per-round pair counts / argmax / merge application."""
    parts = [f"""
WITH wc AS (
  SELECT w AS word, COUNT(*) AS cnt
  FROM (SELECT unnest(string_split({text_field}, ' ')) AS w
        FROM {table} WHERE {text_field} IS NOT NULL)
  WHERE w <> '' GROUP BY 1),
sym1 AS (
  SELECT word, cnt,
         list_transform(range(1, length(word) + 1), i -> word[i]) AS l
  FROM wc)"""]
    for r in range(1, rounds + 1):
        parts.append(f""",
pair{r} AS (
  SELECT l[i] AS lhs, l[i + 1] AS rhs, SUM(cnt) AS n
  FROM sym{r}, unnest(range(1, len(l))) t(i)
  GROUP BY 1, 2),
top{r} AS (
  SELECT lhs, rhs, n FROM pair{r} ORDER BY n DESC, lhs, rhs LIMIT 1)""")
        if r < rounds or apply_all:
            parts.append(f""",
m{r} AS (
  SELECT word, i FROM sym{r}, unnest(range(1, len(l))) t(i), top{r} tp
  WHERE l[i] = tp.lhs AND l[i + 1] = tp.rhs),
k{r} AS (
  SELECT word, i FROM (
    SELECT word, i, min(i) OVER (PARTITION BY word, g) AS r0
    FROM (SELECT word, i,
                 i - row_number() OVER (PARTITION BY word ORDER BY i) AS g
          FROM m{r}))
  WHERE (i - r0) % 2 = 0),
sym{r + 1} AS (
  SELECT s.word, s.cnt,
         list(CASE WHEN k.i IS NOT NULL THEN s.l[s.p] || s.l[s.p + 1]
              ELSE s.l[s.p] END ORDER BY s.p) AS l
  FROM (SELECT word, cnt, l, unnest(range(1, len(l) + 1)) AS p
        FROM sym{r}) s
  LEFT JOIN k{r} k ON k.word = s.word AND k.i = s.p
  LEFT JOIN k{r} k2 ON k2.word = s.word AND k2.i = s.p - 1
  WHERE k2.i IS NULL
  GROUP BY s.word, s.cnt)""")
    return "".join(parts)


def bpe_oracle_sql(rounds: int = 3, table: str = "documents",
                   text_field: str = "text") -> str:
    """GENERATED DuckDB oracle for ``bpe_train`` — the same algorithm
    unrolled as chained CTEs per merge round: per-position pair counts,
    argmax under (n DESC, lhs, rhs), and leftmost-non-overlapping merge
    application via the identical run-parity formula (window functions
    over match positions). Generated from the round count so the two
    sides cannot drift structurally."""
    chain = _bpe_chain_sql(rounds, table, text_field, apply_all=False)
    selects = [
        f"SELECT {r} AS round, lhs, rhs, lhs || rhs AS merged, "
        f"CAST(n AS BIGINT) AS pair_n FROM top{r}"
        for r in range(1, rounds + 1)]
    return chain + "\n" + "\nUNION ALL\n".join(selects)


def bpe_vocab_oracle_sql(rounds: int = 3, top: int = 20,
                         table: str = "documents",
                         text_field: str = "text") -> str:
    """GENERATED oracle for ``bpe_vocab``: the full merge chain with
    every rule applied, then weighted token frequencies."""
    chain = _bpe_chain_sql(rounds, table, text_field, apply_all=True)
    return chain + f"""
SELECT l[p] AS token, CAST(SUM(cnt) AS BIGINT) AS n
FROM sym{rounds + 1}, unnest(range(1, len(l) + 1)) t(p)
GROUP BY 1 ORDER BY n DESC, token LIMIT {top}"""


def bpe_encode_oracle_sql(rounds: int = 3, table: str = "documents",
                          text_field: str = "text",
                          id_field: str = "doc_id") -> str:
    """GENERATED oracle for ``bpe_token_counts``: full merge chain,
    word→token-length lookup, per-doc summed over unnested words
    (''-words drop out of the inner join on both sides)."""
    chain = _bpe_chain_sql(rounds, table, text_field, apply_all=True)
    return chain + f""",
wl AS (SELECT word, CAST(len(l) AS BIGINT) AS ntok
       FROM sym{rounds + 1}),
dw AS (SELECT {id_field}, unnest(string_split({text_field}, ' ')) AS w
       FROM {table} WHERE {text_field} IS NOT NULL),
sums AS (SELECT dw.{id_field}, SUM(wl.ntok) AS s
         FROM dw JOIN wl ON wl.word = dw.w GROUP BY 1)
SELECT doc.{id_field}, CAST(COALESCE(s, 0) AS BIGINT) AS n_tokens
FROM (SELECT {id_field} FROM {table}
      WHERE {text_field} IS NOT NULL) doc
LEFT JOIN sums USING ({id_field})"""
