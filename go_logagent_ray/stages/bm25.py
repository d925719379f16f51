"""BM25 ranked retrieval over a document corpus (Robertson & Walker's
Okapi BM25 — public method) as a two-pass streaming Dataset shape:

- pass 1 (corpus stats): per-batch partials reduce each block to a
  FIXED-size census — (N docs, T total tokens, df per QUERY term) —
  so only ``|query|+2`` keyed counters ever shuffle; the census is
  collected on the driver (bounded by the query size, never the
  corpus) and captured in the scoring closure.
- pass 2 (score): every batch computes per-term term frequencies
  vectorized (polars ``list.count_matches``), scores its docs with
  integer arithmetic, and PRUNES to its local top-k before the global
  ``sort + limit`` — the shuffle moves ≤ k × blocks rows
  (``aggregate.topk_rows``).

Not in the reference (tuhuayuan/go-logagent has no retrieval ops);
first-class per the training-data mandate (similarity/relevance search
over the corpus, e.g. benchmark-leak triage or seed-document mining).

Scoring modes:

- ``mode="exact"`` (oracle-parity): integer-exact BM25 variant with
  the LINEAR rarity weight ``w(t) = N - df(t)`` instead of the log
  idf — a monotone-in-rarity substitute chosen so the whole score is
  one exact integer expression both numpy and the SQL oracle compute
  bit-identically (the repo's md5-anchor convention: exact mode
  exists to be oracle-checkable; see lm_bucket/_LM_SCORE_SPEC for the
  same pattern). With k1 = 6/5 and b = 3/4 the per-term score
  becomes the exact rational

      22 · w · tf · T / (10 · tf · T + 3 · T + 9 · dl · N)

  (clear k1*(1-b)=3/10 and k1*b=9/10 denominators by 10·T), floored
  after scaling by ``scale``. Every factor is a non-negative int64;
  an explicit per-batch bound check fails loudly before any silent
  numpy overflow (honest regime ≈ corpora below ~10⁸ docs at
  scale=1000 — past that use mode="float").
- ``mode="float"`` (production): standard Robertson idf
  ``ln((N - df + 0.5)/(df + 0.5) + 1)`` with float scores — no
  integer-range ceiling, same pipeline shape, not SQL-hash-checkable
  (float ulp); ranking sanity is pytest-asserted against exact mode.

Tokenization contract (matches the doc_freq/inverted-index family):
tokens are ``text.split(" ")`` verbatim — no lowercasing, no empty
filtering — so df/tf/dl agree with DuckDB's ``string_split(text, ' ')``
exactly; null-text docs are excluded from N, T and the ranking.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
from ray.data import Dataset

from .aggregate import grouped_sum, topk_rows

# census keys that cannot collide with query terms (terms are split on
# space, so a term containing a space is unrepresentable)
_N_KEY = "__n docs"
_T_KEY = "__n toks"

K1_NUM, K1_DEN = 6, 5    # k1 = 1.2
B_NUM, B_DEN = 3, 4      # b = 0.75


def corpus_stats(ds: Dataset, query_terms: list[str], *,
                 text_field: str = "text") -> tuple[int, int, dict[str, int]]:
    """(N, T, df-per-query-term) in ONE pass: each batch emits at most
    ``|query|+2`` (key, val) partial rows, one grouped_sum reduces them,
    and the ≤ |query|+2-row result is collected (bounded by the query,
    not the corpus)."""
    if not query_terms:
        raise ValueError("bm25 needs at least one query term")
    if any(" " in t or t in (_N_KEY, _T_KEY) for t in query_terms):
        raise ValueError("query terms are single space-split tokens")
    terms = list(dict.fromkeys(query_terms))  # dedup, keep order

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([text_field])) \
            .filter(pl.col(text_field).is_not_null()) \
            .with_columns(pl.col(text_field).str.split(" ").alias("_tk"))
        keys = [_N_KEY, _T_KEY]
        # cast before summing: polars list.len() is UInt32 and its sum
        # WRAPS silently past 2^32 tokens per batch — a wrapped T would
        # corrupt every score with no error (the loud-gate contract)
        vals = [df.height,
                int(df["_tk"].list.len().cast(pl.Int64).sum() or 0)]
        if df.height:
            for t in terms:
                keys.append(t)
                vals.append(int(
                    (df["_tk"].list.count_matches(t) > 0).sum()))
        return pa.table({"_key": pa.array(keys, pa.string()),
                         "_val": pa.array(vals, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    total = grouped_sum(parts, ["_key"], "_val", alias="_val")
    stats = {r["_key"]: r["_val"] for r in total.take_all()}
    return (stats.get(_N_KEY, 0), stats.get(_T_KEY, 0),
            {t: stats.get(t, 0) for t in terms})


def bm25_topk(ds: Dataset, query_terms: list[str], *, k: int = 25,
              text_field: str = "text", id_field: str = "doc_id",
              scale: int = 1000, mode: str = "exact") -> Dataset:
    """Top-k documents by BM25 relevance to ``query_terms``:
    (id, score_q) rows under (score DESC, id ASC) — see module
    docstring for the two scoring modes and the tokenization
    contract. ``score_q`` is int64 milli-points in exact mode,
    float64 in float mode."""
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown bm25 mode {mode!r}")
    n_docs, n_toks, dfs = corpus_stats(ds, query_terms,
                                       text_field=text_field)
    terms = list(dfs)

    if mode == "float":
        weights = {t: float(np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0))
                   for t, df in dfs.items()}
    else:
        weights = {t: n_docs - df for t, df in dfs.items()}

    def score(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([id_field, text_field])) \
            .filter(pl.col(text_field).is_not_null()) \
            .with_columns(pl.col(text_field).str.split(" ").alias("_tk"))
        if df.height == 0:
            typ = pa.float64() if mode == "float" else pa.int64()
            return pa.schema([(id_field, pa.int64()),
                              ("score_q", typ)]).empty_table()
        dl = df["_tk"].list.len().to_numpy().astype(np.int64)
        if mode == "float":
            avgdl = n_toks / n_docs
            denom_base = K1_NUM / K1_DEN * (1 - B_NUM / B_DEN
                                            + B_NUM / B_DEN * dl / avgdl)
            sc = np.zeros(df.height, np.float64)
            for t in terms:
                tf = df["_tk"].list.count_matches(t).to_numpy() \
                    .astype(np.float64)
                sc += weights[t] * tf * (1 + K1_NUM / K1_DEN) \
                    / (tf + denom_base)
            score_arr = pa.array(sc, pa.float64())
        else:
            sc = np.zeros(df.height, np.int64)
            dl_max = int(dl.max())
            # shared exact-mode denominator terms: 10·tf·T + 3·T + 9·dl·N
            d_fixed = 3 * n_toks + 9 * dl * n_docs
            for t in terms:
                tf = df["_tk"].list.count_matches(t).to_numpy() \
                    .astype(np.int64)
                w = weights[t]
                tf_max = int(tf.max())
                # loud overflow gate BEFORE numpy wraps silently, in
                # Python ints: the numerator 22·w·tf·T·scale and the
                # largest denominator 10·tf·T + 3·T + 9·dl·N
                num = 22 * w * tf_max * n_toks * scale
                den = 10 * tf_max * n_toks + 3 * n_toks + 9 * dl_max * n_docs
                if max(num, den) >= (1 << 63):
                    raise ValueError(
                        "bm25 exact-mode integer score would overflow "
                        f"int64 (w={w}, tf={tf_max}, dl={dl_max}, "
                        f"N={n_docs}, T={n_toks}, scale={scale}); use "
                        "mode='float' at this corpus size")
                sc += (22 * w * tf * n_toks * scale) \
                    // (10 * tf * n_toks + d_fixed)
            score_arr = pa.array(sc, pa.int64())
        return pa.table({
            id_field: df[id_field].to_arrow().cast(pa.int64()),
            "score_q": score_arr})

    scored = ds.map_batches(score, batch_format="pyarrow")
    return topk_rows(scored, "score_q", id_field, k=k)
