"""Unigram-LM quality scoring — the public CCNet/ROOTS-style
"perplexity filter" shape (Wenzek et al. 2020 use a KenLM 5-gram; with
no model artifacts in this environment the language model is a unigram
table FIT ON THE CORPUS ITSELF, which is the textbook degenerate case
of the same two-pass pipeline).

Two passes, both scale-safe:

1. **Fit** — corpus term-occurrence counts: one tree-mode
   ``counts_by`` (its per-batch partials are the only (term, count)
   rows that leave a batch), then a top-V vocabulary under the
   deterministic total order (count DESC, term ASC). Top-V is taken
   with per-block partial top-V + a driver merge over ≤ V·blocks tiny
   rows — no Ray sort, no full count table on the driver (same shape
   as ``stages/partition.hot_topk``). V is the model size: bounded by
   construction, broadcast once via ``ray.put``.
2. **Score** — embarrassingly parallel: each batch tokenizes with the
   shared ``_tokenize_flat`` (bit-identical to the SQL oracle's
   tokenization) and joins its flat token stream against the broadcast
   vocab with one vectorized polars join; per-doc reductions are a
   single ``group_by``.

Outputs are INTEGER components only (the repo's oracle idiom —
``quality_stats``/``repetition_stats``): ``n_toks``, ``n_oov`` (tokens
outside the top-V vocabulary), ``sum_rank`` (sum of 1-based frequency
ranks of in-vocab tokens — the integer analog of summed
-log-frequency: rank order IS frequency order), ``sum_tok_count`` (sum
of in-vocab global occurrence counts). Consumers derive float scores
(e.g. mean rank, OOV ratio) downstream; the components are hash-exact
against SQL.

Reference parity: go-logagent has no scoring stage [U]; this is a
training-data-pipeline operator (spec §"quality scoring").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ray.data import Dataset


def _term_counts(ds: Dataset, text_field: str) -> Dataset:
    """(term, cnt) exact corpus occurrence counts; one driver merge."""
    from .aggregate import counts_by
    from .dedup import _tokenize_flat

    def terms(batch: pa.Table) -> pa.Table:
        flat, _ = _tokenize_flat(batch[text_field])
        return pa.table({"term": flat.to_arrow()})

    return counts_by(ds.map_batches(terms, batch_format="pyarrow",
                                    zero_copy_batch=True), ["term"], "cnt")


def fit_unigram_vocab(ds: Dataset, *, vocab_size: int,
                      text_field: str = "text") -> pa.Table:
    """Top-``vocab_size`` terms by (count DESC, term ASC) as an Arrow
    table (term, cnt, rank:int64 1-based). Per-block partial top-V +
    driver merge — the driver never sees more than V rows per block."""

    def block_top(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = pc.sort_indices(batch, sort_keys=[("cnt", "descending"),
                                                  ("term", "ascending")])
        return batch.take(order[:vocab_size])

    tops = _term_counts(ds, text_field).map_batches(
        block_top, batch_format="pyarrow").take_all()
    tops.sort(key=lambda r: (-r["cnt"], r["term"]))
    tops = tops[:vocab_size]
    return pa.table({
        "term": pa.array([r["term"] for r in tops], pa.large_string()),
        "cnt": pa.array([r["cnt"] for r in tops], pa.int64()),
        "rank": pa.array(range(1, len(tops) + 1), pa.int64()),
    })


def unigram_rank_score(ds: Dataset, *, vocab_size: int = 16,
                       text_field: str = "text",
                       id_field: str = "doc_id") -> Dataset:
    """Fit the top-V unigram table on ``ds`` and score every doc
    against it. Returns (id, n_toks, n_oov, sum_rank, sum_tok_count),
    all int64; docs with no tokens get zeros."""
    import ray

    vocab = fit_unigram_vocab(ds, vocab_size=vocab_size,
                              text_field=text_field)
    ref = ray.put(vocab)

    def score(batch: pa.Table) -> pa.Table:
        import polars as pl

        from .dedup import _tokenize_flat

        n = batch.num_rows
        flat, offsets = _tokenize_flat(batch[text_field])
        lens = np.diff(offsets)
        n_oov = np.zeros(n, dtype=np.int64)
        sum_rank = np.zeros(n, dtype=np.int64)
        sum_cnt = np.zeros(n, dtype=np.int64)
        if len(flat):
            vdf = pl.from_arrow(ray.get(ref))
            row_of = np.repeat(np.arange(n), lens)
            agg = (pl.DataFrame({"row": row_of, "term": flat})
                   .join(vdf, on="term", how="left")
                   .group_by("row")
                   .agg(n_oov=pl.col("rank").null_count(),
                        sum_rank=pl.col("rank").sum(),
                        sum_cnt=pl.col("cnt").sum()))
            rows = agg["row"].to_numpy()
            n_oov[rows] = agg["n_oov"].to_numpy()
            sum_rank[rows] = agg["sum_rank"].to_numpy()
            sum_cnt[rows] = agg["sum_cnt"].to_numpy()
        return pa.table({
            id_field: batch.column(id_field),
            "n_toks": pa.array(lens.astype(np.int64)),
            "n_oov": pa.array(n_oov),
            "sum_rank": pa.array(sum_rank),
            "sum_tok_count": pa.array(sum_cnt),
        })

    return ds.map_batches(score, batch_format="pyarrow")
