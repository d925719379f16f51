"""Driver-harness queries: every SURVEY.md §2 operator as a Ray pipeline
over the driver testdata tables, each with a DuckDB oracle (FIXTURES.md §6).

Naming contract: every computed/aggregate column is named IDENTICALLY in
the Ray result and the SQL (the driver sorts columns by name and
value-hashes). Ints preferred over floats in results; float sums are
rounded identically on both sides.

Ray is initialised by the driver before these callables run — nothing
here calls ray.init (driver contract).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_utils import as_combined, set_column
from ..functions.textstats import fingerprint, lang_id, token_stats
from ..stages.aggregate import counts_by, grouped_sum
from ..stages.dedup import (
    charset_jaccard_pairs,
    distinct_count,
    exact_keepers,
    minhash_lsh_pairs,
    simhash_pairs,
)
from ..stages.filters import DropStage, JsonParseStage
from ..stages.grok import GrokParser
from ..stages.patch import PatchStage
from ..stages.route import RouteStage

# ----------------------------------------------------------------- helpers


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# =================================================================== events

K_PATTERN = '"k": %{INT:k_val:int}'


def q_grok_parse_events(sf_dir: str):
    """F1: grok named-capture extraction over events.props."""
    ds = _read(sf_dir, "events", ["event_id", "props"])
    ds = ds.map_batches(GrokParser(K_PATTERN, field="props"),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(["event_id", "k_val"])


SQL_GROK_PARSE_EVENTS = r"""
SELECT event_id,
       CAST(regexp_extract(props, '"k": ([+-]?\d+)', 1) AS BIGINT) AS k_val
FROM events
"""


def q_json_sum_events(sf_dir: str):
    """F4 + A1: JSON codec parse + grouped sum of the extracted value."""
    ds = _read(sf_dir, "events", ["event_type", "props"])
    ds = ds.map_batches(JsonParseStage("props", {"k": "int"}),
                        batch_format="pyarrow", zero_copy_batch=True)
    return grouped_sum(ds, ["event_type"], "k", alias="sum_k")


SQL_JSON_SUM_EVENTS = r"""
SELECT event_type,
       CAST(SUM(CAST(regexp_extract(props, '"k": ([+-]?\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY event_type
"""


EVENT_ROUTE_RULES = [
    ("errors", [("eq", "event_type", "error")]),
    ("activity", [("in", "event_type", ["click", "view"])]),
    ("conversions", [("in", "event_type", ["signup", "purchase"])]),
]


def q_route_events(sf_dir: str):
    """R1: conditional fan-out routing + per-sink counts."""
    ds = _read(sf_dir, "events", ["event_id", "event_type"])
    ds = ds.map_batches(RouteStage(EVENT_ROUTE_RULES, default_sink="default",
                                   tags_column="_no_tags"),
                        batch_format="pyarrow", zero_copy_batch=True)
    return counts_by(ds, ["route"], alias="n")


SQL_ROUTE_EVENTS = """
SELECT CASE WHEN event_type = 'error' THEN 'errors'
            WHEN event_type IN ('click','view') THEN 'activity'
            WHEN event_type IN ('signup','purchase') THEN 'conversions'
            ELSE 'default' END AS route,
       COUNT(*) AS n
FROM events GROUP BY 1
"""


def q_hourly_counts_events(sf_dir: str):
    """A1: ts-hour bucketed grouped counts (pre-aggregated shuffle)."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])
    ds = ds.map_batches(PatchStage([("time_floor", "ts", "ts_hour", "hour")]),
                        batch_format="pyarrow", zero_copy_batch=True)
    return counts_by(ds, ["event_type", "ts_hour"], alias="n")


SQL_HOURLY_COUNTS_EVENTS = """
SELECT event_type, date_trunc('hour', ts) AS ts_hour, COUNT(*) AS n
FROM events GROUP BY 1, 2
"""


def q_filter_events(sf_dir: str):
    """F5: vectorized predicate keep-filter."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    ds = ds.map_batches(
        DropStage([("eq", "event_type", "click"), ("gt", "value", 20.0)],
                  mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(["event_id"])


SQL_FILTER_EVENTS = """
SELECT event_id FROM events WHERE event_type = 'click' AND value > 20.0
"""


def q_interpolate_events(sf_dir: str):
    """F3: %{field} config-string interpolation (the reference's
    LogEvent.Format feature) computing a per-event sink key."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "user_id"])
    ds = ds.map_batches(
        PatchStage([("add_field", "redis_key", "events/%{event_type}/%{user_id}")]),
        batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(["event_id", "redis_key"])


SQL_INTERPOLATE_EVENTS = """
SELECT event_id,
       'events/' || event_type || '/' || CAST(user_id AS VARCHAR) AS redis_key
FROM events
"""


def q_union_events(sf_dir: str):
    """O3: union of two filtered streams into one chain."""
    clicks = _read(sf_dir, "events", ["event_id", "event_type"]) \
        .map_batches(DropStage([("eq", "event_type", "click")], mode="keep"),
                     batch_format="pyarrow")
    signups = _read(sf_dir, "events", ["event_id", "event_type"]) \
        .map_batches(DropStage([("eq", "event_type", "signup")], mode="keep"),
                     batch_format="pyarrow")
    return clicks.union(signups).select_columns(["event_id"])


SQL_UNION_EVENTS = """
SELECT event_id FROM events WHERE event_type = 'click'
UNION ALL
SELECT event_id FROM events WHERE event_type = 'signup'
"""


# ================================================== flagship on transcripts

_LVL = {"error": "ERROR"}
_ROLE = {"error": "tool", "click": "user", "signup": "system"}
_TOOL = {"error": "search", "purchase": "bash"}


def _events_to_transcripts(batch: pa.Table) -> pa.Table:
    """Deterministic, SQL-mirrorable events→transcripts mapping (the
    driver testdata has no transcripts table; this derives one)."""
    et = as_combined(batch["event_type"])
    uid = as_combined(batch["user_id"])
    eid = as_combined(batch["event_id"])

    def case(mapping: dict[str, str], default: str) -> pa.Array:
        arr = pa.array(np.full(batch.num_rows, default, dtype=object),
                       type=pa.string())
        for key, val in mapping.items():
            arr = pc.if_else(pc.equal(et, key), val, arr)
        return arr

    role = case(_ROLE, "assistant")
    tool = case(_TOOL, "")
    status = case({"error": "err"}, "ok")
    lvl = case(_LVL, "INFO")
    uid_s = pc.cast(uid, pa.string())
    eid_s = pc.cast(eid, pa.string())
    text = pc.binary_join_element_wise(
        lvl, " executor conv=c", uid_s, " step=", eid_s,
        " latency_ms=", eid_s, " status=", status, " :: payload", "")
    return pa.table({
        "conv_id": pc.binary_join_element_wise("c", uid_s, ""),
        "turn_idx": pc.cast(eid, pa.int32()),
        "role": role,
        "text": text,
        "tool": tool,
        "ts": as_combined(batch["ts"]),
    })


def transcripts_from_events(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "event_type", "user_id", "ts"])
    return ds.map_batches(_events_to_transcripts, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_flagship_sink_counts(sf_dir: str):
    """The full flagship chain (grok parse → patch → enrich → route) over
    derived transcripts; per-sink aggregate counts. The SQL oracle routes
    from the CONSTRUCTING fields, so any parse error breaks equality."""
    from .transcript import parse_enrich_route

    routed = parse_enrich_route(transcripts_from_events(sf_dir))
    return counts_by(routed, ["route", "role", "tool", "ts_hour"], alias="n")


SQL_FLAGSHIP_SINK_COUNTS = """
WITH t AS (
  SELECT CASE event_type WHEN 'error' THEN 'tool' WHEN 'click' THEN 'user'
              WHEN 'signup' THEN 'system' ELSE 'assistant' END AS role,
         CASE event_type WHEN 'error' THEN 'search' WHEN 'purchase' THEN 'bash'
              ELSE '' END AS tool,
         CASE WHEN event_type = 'error' THEN 'err' ELSE 'ok' END AS status,
         ts
  FROM events)
SELECT CASE WHEN status IN ('err','timeout') THEN 'errors'
            WHEN role = 'tool' OR tool <> '' THEN 'tool_events'
            WHEN role IN ('user','assistant') THEN 'chat'
            ELSE 'default' END AS route,
       role, tool, date_trunc('hour', ts) AS ts_hour, COUNT(*) AS n
FROM t GROUP BY 1, 2, 3, 4
"""


def q_flagship_conv_counts(sf_dir: str):
    """A1: per-conversation turn counts through the full chain."""
    from .transcript import parse_enrich_route

    routed = parse_enrich_route(transcripts_from_events(sf_dir))
    return counts_by(routed, ["conv_id"], alias="n")


SQL_FLAGSHIP_CONV_COUNTS = """
SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id, COUNT(*) AS n
FROM events GROUP BY 1
"""


# ================================================================ documents


def q_word_extract_docs(sf_dir: str):
    """F1 on documents: first-word grok extraction."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(GrokParser("%{WORD:first_word}", field="text"),
                        batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(["doc_id", "first_word"])


SQL_WORD_EXTRACT_DOCS = r"""
SELECT doc_id, regexp_extract(text, '\b\w+\b') AS first_word FROM documents
"""


LANG_REGION = {
    ("en", ""): ("NA",),
    ("de", ""): ("EU",),
    ("fr", ""): ("EU",),
    ("es", ""): ("LATAM",),
    ("zh", ""): ("APAC",),
}


def q_enrich_docs(sf_dir: str):
    """J1: broadcast lookup enrich (lang → region) + counts."""
    from ..stages.enrich import LookupEnrich

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])
    ds = ds.map_batches(
        LookupEnrich(LANG_REGION, key_fields=("lang", "source"),
                     value_names=("region",), default=("other",)),
        batch_format="pyarrow", zero_copy_batch=True)
    return counts_by(ds, ["region"], alias="n")


SQL_ENRICH_DOCS = """
SELECT CASE lang WHEN 'en' THEN 'NA' WHEN 'de' THEN 'EU' WHEN 'fr' THEN 'EU'
            WHEN 'es' THEN 'LATAM' WHEN 'zh' THEN 'APAC' ELSE 'other' END AS region,
       COUNT(*) AS n
FROM documents GROUP BY 1
"""


def q_token_stats_docs(sf_dir: str):
    """Text analysis: regex token counting + BPE-ish token estimate."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(token_stats, batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(["doc_id", "n_words", "est_tokens"])


SQL_TOKEN_STATS_DOCS = """
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_words,
       GREATEST(CAST(CEIL(LENGTH(text) / 4.0) AS BIGINT),
                CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT)) AS est_tokens
FROM documents
"""


def q_dedup_exact_docs(sf_dir: str):
    """Exact dedup: one keeper id per distinct text (hash-partitioned)."""
    return exact_keepers(_read(sf_dir, "documents", ["doc_id", "text"]))


SQL_DEDUP_EXACT_DOCS = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id FROM documents GROUP BY text
"""


def q_distinct_docs(sf_dir: str):
    """COUNT(DISTINCT text) via hash partials."""
    n = distinct_count(_read(sf_dir, "documents", ["text"]))
    return pa.table({"n_distinct": pa.array([n], type=pa.int64())})


SQL_DISTINCT_DOCS = """
SELECT CAST(COUNT(DISTINCT text) AS BIGINT) AS n_distinct FROM documents
"""


def q_jaccard_pairs_docs(sf_dir: str):
    """N-gram/charset Jaccard near-dup pairs, SQL-verifiable (mirrors
    DuckDB's jaccard() = Jaccard over character sets) within
    (lang, source) groups — the documented co-location assumption."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = charset_jaccard_pairs(ds, ["lang", "source"], threshold=0.95)
    return pairs.select_columns(["doc_a", "doc_b"])


SQL_JACCARD_PAIRS_DOCS = """
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM documents a JOIN documents b
  ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
WHERE jaccard(a.text, b.text) >= 0.95
"""


_PAGERANK_K = 25
_PAGERANK_ITERS = 3
_PAGERANK_SCALE = 10**9


def q_pagerank_docs(sf_dir: str):
    """Fixed-point-integer PageRank centrality over the charset-Jaccard
    near-dup graph (`stages/pagerank.py`): top-25 most-central docs —
    the connectivity-based canonical-member election for dup clusters
    (complement of dedup_cluster_docs' min-id election). Iterative
    shape: degree attach + 3 power iterations, each ONE hash-sharded
    co-group + ONE grouped sum; no broadcast, no driver collect. The
    oracle replays the identical integer recurrence as 3 unrolled
    CTEs over the same jaccard(a,b) pair CTE."""
    from ..stages.pagerank import pagerank_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = charset_jaccard_pairs(ds, ["lang", "source"], threshold=0.95) \
        .select_columns(["doc_a", "doc_b"])
    return pagerank_topk(pairs, k=_PAGERANK_K, iterations=_PAGERANK_ITERS,
                         scale=_PAGERANK_SCALE)


def _sql_pagerank_docs() -> str:
    base = 3 * _PAGERANK_SCALE // 20
    it = """r{i} AS (
  SELECT e.dst AS node,
         CAST({base} + SUM((r.r * 17) // (20 * e.deg)) AS BIGINT) AS r
  FROM edges_deg e JOIN r{p} r ON r.node = e.src GROUP BY e.dst)"""
    iters = ",\n".join(it.format(i=i, p=i - 1, base=base)
                       for i in range(1, _PAGERANK_ITERS + 1))
    return f"""
WITH pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM documents a JOIN documents b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE jaccard(a.text, b.text) >= 0.95),
edges AS (SELECT doc_a AS src, doc_b AS dst FROM pairs
          UNION ALL SELECT doc_b, doc_a FROM pairs),
deg AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS deg
        FROM edges GROUP BY src),
edges_deg AS (SELECT e.src, e.dst, d.deg FROM edges e JOIN deg d USING (src)),
r0 AS (SELECT src AS node, CAST({_PAGERANK_SCALE} AS BIGINT) AS r FROM deg),
{iters}
SELECT node AS doc_id, r AS rank_q FROM r{_PAGERANK_ITERS}
ORDER BY rank_q DESC, doc_id ASC
LIMIT {_PAGERANK_K}
"""


SQL_PAGERANK_DOCS = _sql_pagerank_docs()


def q_langid_docs(sf_dir: str):
    """Language-ID heuristic vs labeled lang: confusion counts,
    ORACLE-CHECKED — the heuristic is deterministic regex counting plus
    a first-max argmax, all SQL-expressible; the oracle is generated
    from the SAME pattern constants (both engines are RE2) so the two
    sides cannot drift."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ds = ds.map_batches(lang_id, batch_format="pyarrow", zero_copy_batch=True)
    return counts_by(ds, ["lang", "pred_lang"], alias="n")


def _langid_sql() -> str:
    from ..functions.textstats import _CJK_RE, _LANG_PATTERNS

    langs = list(_LANG_PATTERNS)  # first-seen order == np.argmax tie order
    cnt = {l: f"len(regexp_extract_all(text, '{_LANG_PATTERNS[l]}'))"
           for l in langs}
    cjk = f"len(regexp_extract_all(text, '{_CJK_RE}'))"
    # first-max argmax over langs order, then the und/zh/null overrides
    # exactly as functions/textstats.py::lang_id applies them
    arms = []
    for i, l in enumerate(langs[:-1]):
        rest = ", ".join(cnt[m] for m in langs[i + 1:])
        arms.append(f"WHEN {cnt[l]} >= GREATEST({rest}) THEN '{l}'")
    case = (
        "CASE WHEN text IS NULL THEN 'und' "
        f"WHEN {cjk} > 0 THEN 'zh' "
        f"WHEN GREATEST({', '.join(cnt.values())}) <= 0 THEN 'und' "
        + " ".join(arms) + f" ELSE '{langs[-1]}' END"
    )
    return (f"SELECT lang, {case} AS pred_lang, COUNT(*) AS n "
            "FROM documents GROUP BY 1, 2")


SQL_LANGID_DOCS = _langid_sql()


def q_fingerprint_docs(sf_dir: str):
    """Content fingerprinting, ORACLE-CHECKED: each doc mapped to the min
    doc_id sharing its normalized-content fingerprint. The raw 64-bit
    hash is environment-stable but not SQL-reproducible; the induced
    partition (who shares a fingerprint with whom) IS — the SQL oracle
    partitions by the same normalization (lowercase, collapse
    non-alphanumerics, trim). The rep map is ≤ distinct-content
    cardinality (broadcast regime, documented boundary)."""
    import ray
    from ray.data.aggregate import Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    fp = ds.map_batches(fingerprint, batch_format="pyarrow",
                        zero_copy_batch=True)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["fp64", "doc_id"]).group_by(["fp64"]) \
            .aggregate([("doc_id", "min")])
        # rename by name, not position — pyarrow aggregate column order
        # has varied across releases
        return t.select(["fp64", "doc_id_min"]) \
            .rename_columns(["fp64", "doc_id"])

    reps = fp.map_batches(partial, batch_format="pyarrow") \
        .groupby("fp64").aggregate(Min("doc_id", alias_name="rep"))
    # Arrow batches → numpy (16 B per distinct text), never take_all
    # row-dicts — same driver-memory rule as exact_dedup_broadcast
    ks, vs = [], []
    for b in reps.iter_batches(batch_format="pyarrow"):
        ks.append(b.column("fp64").to_numpy(zero_copy_only=False))
        vs.append(b.column("rep").to_numpy(zero_copy_only=False))
    keys = pa.array(np.concatenate(ks) if ks else np.zeros(0, np.int64),
                    type=pa.int64())
    vals = pa.array(np.concatenate(vs) if vs else np.zeros(0, np.int64),
                    type=pa.int64())
    ref = ray.put((keys, vals))

    def assign(batch: pa.Table) -> pa.Table:
        k, v = ray.get(ref)
        idx = pc.index_in(as_combined(batch["fp64"]), value_set=k)
        return pa.table({"doc_id": as_combined(batch["doc_id"]),
                         "fp_rep": pc.take(v, idx)})

    return fp.map_batches(assign, batch_format="pyarrow")


SQL_FINGERPRINT_DOCS = r"""
SELECT doc_id,
       MIN(doc_id) OVER (
           PARTITION BY trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))
       ) AS fp_rep
FROM documents
"""


# Shared CTE: word-trigram sets per document, exactly mirroring
# _ngram_strings (lowercase, whitespace split, join-by-space trigrams;
# short docs yield their whole token list as the single shingle).
_TRIGRAM_CTE = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS tk
  FROM documents),
tg AS (
  SELECT doc_id,
         CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
              WHEN len(tk) < 3 THEN [array_to_string(tk, ' ')]
              ELSE list_transform(range(1, len(tk) - 1),
                                  i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])
         END AS grams
  FROM toks),
p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.grams, b.grams)) AS ni,
         len(list_distinct(list_concat(a.grams, b.grams))) AS nu
  FROM tg a JOIN tg b ON a.doc_id < b.doc_id)
"""


def q_minhash_pairs_docs(sf_dir: str):
    """MinHash+LSH near-dup pairs, ORACLE-CHECKED against exact word-
    trigram Jaccard ≥ 0.7 over all pairs: the corpus's near-dup pairs sit
    at j ≥ 0.9 (banding miss probability < 1e-7 at 16×4) and the densest
    background pair is far below threshold, so the estimate-thresholded
    pair set equals the exact set. Estimates stay out of the compared
    columns."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_pairs(ds, threshold=0.7) \
        .select_columns(["doc_a", "doc_b"])


SQL_MINHASH_PAIRS_DOCS = _TRIGRAM_CTE + """
SELECT doc_a, doc_b FROM p WHERE nu > 0 AND ni * 10 >= 7 * nu
"""


def q_simhash_pairs_docs(sf_dir: str):
    """SimHash near-dup pairs, ORACLE-CHECKED end-to-end: tokens hashed
    in md5 mode (= DuckDB ``md5_number_lower``, non-circular — both
    engines compute md5 independently), so the SQL oracle rebuilds every
    simhash from text and runs the all-pairs Hamming join. Banding loses
    nothing at max_hamming=3 (≤3 differing bits across 4 disjoint 16-bit
    bands leave one band identical), so the mined pair set IS the exact
    Hamming pair set. Production keeps the vectorized polars token hash —
    same pipeline, different hash constant."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3, token_hash="md5")


# SQL simhash, mirroring stages/dedup.py::SimHasher in md5 mode exactly:
# same RE2 ASCII-whitespace tokenizer, same md5-lower-64 token hash, the
# same 2·ones−n bit votes (SUM of ±1), bit set iff vote > 0. Token-less
# docs never enter ``toks`` (empty extract_all → no unnest rows), which
# matches the pipeline's n_tokens > 0 filter. The HUGEINT shift is
# needed because 1::UBIGINT << 63 overflows DuckDB's left shift.
SQL_SIMHASH_PAIRS_DOCS = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\f\r]+')) AS tok
  FROM documents),
th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks),
votes AS (
  SELECT doc_id, t.b AS bit,
         SUM(CASE WHEN (h >> t.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM th CROSS JOIN (SELECT CAST(range AS UBIGINT) AS b FROM range(64)) t
  GROUP BY 1, 2),
sh AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN v > 0
                       THEN CAST(1 AS HUGEINT) << CAST(bit AS INT)
                       ELSE 0 END) AS UBIGINT) AS s
  FROM votes GROUP BY 1)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3
"""


# =============================================================== embeddings


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (broadcast corpus, exact).
    Pairs only — cosine floats stay out of the hash-compared columns."""
    from ..stages.dedup import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_neardup_pairs(
        ds, threshold=0.3, corpus_path=f"{sf_dir}/embeddings.parquet")
    return pairs.select_columns(["doc_a", "doc_b"])


SQL_EMBEDDING_NEARDUP = """
SELECT a.vec_id AS doc_a, b.vec_id AS doc_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3
"""


def q_ngram_jaccard_docs(sf_dir: str):
    """GLOBAL word-trigram Jaccard near-dup pairs via MinHash-LSH
    candidates + exact verification (``ngram_jaccard_pairs_lsh``) —
    ORACLE-CHECKED against the all-pairs exact Jaccard SQL with integer-
    math thresholding. bands=32 (r=2) keys the banding to the 0.4
    threshold: per-pair recall ≥ 0.996 at j=0.4 and ≥ 1-1e-23 at the
    corpus's actual near-dup level (j ≥ 0.9, next pair at j ≤ 0.07), so
    the candidate stage misses nothing here; verification makes false
    positives impossible. The grouped all-pairs variant
    (``ngram_jaccard_pairs``) remains the small-co-group path."""
    from ..stages.dedup import ngram_jaccard_pairs_lsh

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs_lsh(ds, threshold_permille=400, bands=32)


SQL_NGRAM_JACCARD_DOCS = _TRIGRAM_CTE + """
SELECT doc_a, doc_b, CAST(ni AS BIGINT) AS n_inter, CAST(nu AS BIGINT) AS n_union
FROM p WHERE nu > 0 AND ni * 1000 >= 400 * nu
"""


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k ANN baseline: broadcast query matrix,
    per-batch matmul + local top-k, per-query global reduce."""
    from ..stages.ann import cosine_topk, load_queries

    qids, qmat = load_queries(f"{sf_dir}/embeddings.parquet", n_queries=5)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = cosine_topk(ds, qids, qmat.astype(np.float64), k=10)
    return out.select_columns(["query_id", "vec_id", "rank"])


SQL_ANN_TOPK = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 5),
s AS (SELECT q.qid AS query_id, e.vec_id,
             list_cosine_similarity(q.qe, e.embedding) AS sim
      FROM q, embeddings e WHERE e.vec_id <> q.qid)
SELECT query_id, vec_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY sim DESC, vec_id ASC) AS BIGINT) AS rank
FROM s QUALIFY rank <= 10
"""


def q_ann_ivf(sf_dir: str):
    """IVF ANN in full-probe verification mode: ``nprobe == n_lists``
    scans every inverted list exactly once, so the result is EXACT and
    ORACLE-CHECKED against the brute-force SQL — verifying the quantize/
    assign/score/reduce machinery end-to-end. Approximate settings
    (``q_ann_ivf_approx``, pytest recall tests) cover the scale path."""
    from ..stages.ann import ivf_topk, load_queries

    ids200, corpus = load_queries(f"{sf_dir}/embeddings.parquet", n_queries=200)
    qids, qmat = ids200[:5], corpus[:5]
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk(ds, qids, qmat, k=10, n_lists=8, nprobe=8,
                    train_sample=corpus).select_columns(
        ["query_id", "vec_id", "rank"])


def q_ann_ivf_approx(sf_dir: str):
    """IVF ANN at a real approximate setting (nprobe=3 of 8 lists;
    rows-only check — recall floor asserted in pytest)."""
    from ..stages.ann import ivf_topk, load_queries

    ids200, corpus = load_queries(f"{sf_dir}/embeddings.parquet", n_queries=200)
    qids, qmat = ids200[:5], corpus[:5]
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ivf_topk(ds, qids, qmat, k=10, n_lists=8, nprobe=3,
                    train_sample=corpus).select_columns(
        ["query_id", "vec_id", "rank"])


def q_ann_lsh(sf_dir: str):
    """LSH ANN in probe-all verification mode: every 2^n_planes bucket is
    scored, each corpus vector exactly once, so the result is EXACT and
    ORACLE-CHECKED against the brute-force SQL — verifying the bucket/
    score/reduce machinery. Approximate settings (``q_ann_lsh_approx``,
    pytest recall tests) cover the scale path."""
    from ..stages.ann import load_queries, lsh_topk

    qids, qmat = load_queries(f"{sf_dir}/embeddings.parquet", n_queries=5)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return lsh_topk(ds, qids, qmat, k=10, dim=qmat.shape[1], n_planes=6,
                    probe_all=True).select_columns(["query_id", "vec_id", "rank"])


def q_ann_lsh_approx(sf_dir: str):
    """LSH ANN at a real approximate setting (multiprobe=2 of 6 planes;
    rows-only check — recall vs brute force asserted in pytest)."""
    from ..stages.ann import load_queries, lsh_topk

    qids, qmat = load_queries(f"{sf_dir}/embeddings.parquet", n_queries=5)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return lsh_topk(ds, qids, qmat, k=10, dim=qmat.shape[1], n_planes=6,
                    multiprobe=2).select_columns(["query_id", "vec_id", "rank"])


# ========================================================= windowed (W)


def q_conv_gap_stats(sf_dir: str):
    """Per-key ordered window stats (max inter-event gap): groupby(key) +
    in-group sort — the streaming-window custom operator. Partitioning
    assumption: all rows of a key in one group (unsalted)."""
    from ..stages.window import conv_gap_stats

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return conv_gap_stats(ds, key="user_id", ts="ts", order="event_id")


SQL_CONV_GAP_STATS = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts))
             OVER (PARTITION BY user_id ORDER BY event_id) AS gap
  FROM events)
SELECT user_id, COUNT(*) AS n_turns,
       CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us
FROM g GROUP BY user_id
"""

_SESSION_GAP_US = 12 * 3600 * 1_000_000


def q_session_windows(sf_dir: str):
    """Session windowing (gaps-and-islands) per key with a 12 h gap."""
    from ..stages.window import session_windows

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return session_windows(ds, key="user_id", ts="ts", order="event_id",
                           gap_us=_SESSION_GAP_US)


SQL_SESSION_WINDOWS = f"""
WITH g AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY event_id)
                   > {_SESSION_GAP_US} THEN 1 ELSE 0 END AS brk
  FROM events),
s AS (
  SELECT user_id, t,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY event_id) AS session_idx
  FROM g)
SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
       COUNT(*) AS n_turns,
       CAST(MIN(t) AS BIGINT) AS start_us, CAST(MAX(t) AS BIGINT) AS end_us
FROM s GROUP BY 1, 2
"""


# ==================================================================== tpch


def q_lineitem_agg(sf_dir: str):
    """A-family: multi-aggregate groupby with per-batch partials."""
    from ray.data.aggregate import Sum, Count

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"), ([], "count_all")])
        # rename by name, not position — pyarrow aggregate column order
        # has varied across releases
        return t.select(["l_returnflag", "l_linestatus", "l_quantity_sum",
                         "l_extendedprice_sum", "count_all"]).rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_price", "n"])

    out = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["l_returnflag", "l_linestatus"]) \
        .aggregate(Sum("sum_qty", alias_name="sum_qty"),
                   Sum("sum_price", alias_name="sum_price"),
                   Sum("n", alias_name="n"))

    def int_exact(batch: pa.Table) -> pa.Table:
        # floats never reach the driver's value-hash: quantities are
        # integral doubles (exact cast); prices become rounded cents —
        # pc.round and DuckDB ROUND disagree by 1 ulp on doubles, ints
        # compare exactly.
        batch = set_column(batch, "sum_qty",
                           pc.cast(as_combined(batch["sum_qty"]), pa.int64()))
        cents = pc.round(pc.multiply(as_combined(batch["sum_price"]), 100.0))
        return set_column(batch, "sum_price_cents", pc.cast(cents, pa.int64())) \
            .drop_columns(["sum_price"])

    return out.map_batches(int_exact, batch_format="pyarrow")


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(l_quantity) AS BIGINT) AS sum_qty,
       CAST(ROUND(SUM(l_extendedprice) * 100, 0) AS BIGINT) AS sum_price_cents,
       COUNT(*) AS n
FROM lineitem GROUP BY 1, 2
"""


def q_topk_orders(sf_dir: str):
    """O2: global top-k by sort + limit."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


SQL_TOPK_ORDERS = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
"""


def q_broadcast_join(sf_dir: str):
    """J1 at TPC-H shape: small dimension (customer) broadcast into a
    map_batches lookup against the fact table — no shuffle join."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    keys = cust["c_custkey"].combine_chunks()
    vals = cust["c_mktsegment"].combine_chunks()

    def join(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(as_combined(batch["o_custkey"]), value_set=keys)
        return batch.append_column("c_mktsegment", pc.take(vals, idx))

    ds = _read(sf_dir, "orders", ["o_custkey"])
    ds = ds.map_batches(join, batch_format="pyarrow", zero_copy_batch=True)
    return counts_by(ds, ["c_mktsegment"], alias="n")


SQL_BROADCAST_JOIN = """
SELECT c.c_mktsegment, COUNT(*) AS n
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


def q_median_value_events(sf_dir: str):
    """Sketch-family boundary case: EXACT per-group continuous median
    (integer thousandths so float rounding cannot diverge). The mergeable
    histogram-sketch path for unbounded groups is
    ``stages/sketch.py::quantile_histogram`` (accuracy pytest-verified)."""
    from ..stages.sketch import exact_group_median

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return exact_group_median(ds, "event_type", "value")


SQL_MEDIAN_VALUE_EVENTS = """
SELECT event_type,
       CAST(ROUND(quantile_cont(value, 0.5) * 1000, 0) AS BIGINT) AS median_x1000
FROM events GROUP BY event_type
"""


def q_hash_join(sf_dir: str):
    """J2: large⋈large shuffle join (hash-sharded on the key, co-grouped
    by ``sharded_inner_join``) — orders ⋈ lineitem, line counts per
    priority. The broadcast path (q_broadcast_join) remains the default
    for small dimension tables; this exercises the shuffle join."""
    from ..functions.cogroup import sharded_inner_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    lines = _read(sf_dir, "lineitem", ["l_orderkey"])
    joined = sharded_inner_join(lines, orders, "l_orderkey", "o_orderkey",
                                {}, {"o_orderpriority": pa.string()}, 16)
    return counts_by(joined, ["o_orderpriority"], alias="n")


SQL_HASH_JOIN = """
SELECT o_orderpriority, COUNT(*) AS n
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1
"""


def q_distinct_event_types(sf_dir: str):
    """A3/O-family: distinct values of a column (Dataset.unique)."""
    ds = _read(sf_dir, "events", ["event_type"])
    vals = sorted(ds.unique("event_type"))
    return pa.table({"event_type": pa.array(vals, type=pa.string())})


SQL_DISTINCT_EVENT_TYPES = """
SELECT DISTINCT event_type FROM events
"""


# ============================================= lifecycle / state / config

# Shared oracle fragment: the flagship events→transcripts→route mapping
# (mirrors _events_to_transcripts + ROUTE_RULES).
_FLAGSHIP_T_CTE = """
WITH t AS (
  SELECT CASE event_type WHEN 'error' THEN 'tool' WHEN 'click' THEN 'user'
              WHEN 'signup' THEN 'system' ELSE 'assistant' END AS role,
         CASE event_type WHEN 'error' THEN 'search' WHEN 'purchase' THEN 'bash'
              ELSE '' END AS tool,
         CASE WHEN event_type = 'error' THEN 'err' ELSE 'ok' END AS status,
         ts
  FROM events),
r AS (
  SELECT CASE WHEN status IN ('err','timeout') THEN 'errors'
              WHEN role = 'tool' OR tool <> '' THEN 'tool_events'
              WHEN role IN ('user','assistant') THEN 'chat'
              ELSE 'default' END AS route,
         role, tool, status, ts
  FROM t)
"""


def q_checkpoint_resume_counts(sf_dir: str):
    """ST2/A2: per-partition checkpointed run with a simulated kill +
    resume. Run 1 commits ONE partition then stops (max_partitions=1);
    run 2 resumes, skips the committed partition (lineage-validated
    manifest), finishes the rest, and reports per-sink counts merged
    from MANIFEST row-count metrics — the numbers the oracle checks."""
    import math
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from ..state.checkpoint import run_checkpointed
    from .transcript import parse_enrich_route

    work = tempfile.mkdtemp(prefix="glr_ckpt_q_")
    try:
        in_dir = os.path.join(work, "in")
        transcripts_from_events(sf_dir).repartition(4).write_parquet(in_dir)
        total = sum(
            pq.ParquetFile(os.path.join(in_dir, f)).metadata.num_rows
            for f in os.listdir(in_dir) if f.endswith(".parquet"))
        out = os.path.join(work, "out")
        spec = {"q": "checkpoint_resume_counts", "v": 1}
        rpp = max(1, math.ceil(total / 3))
        run_checkpointed([in_dir], out, parse_enrich_route, spec,
                         rows_per_partition=rpp, max_partitions=1)
        r2 = run_checkpointed([in_dir], out, parse_enrich_route, spec,
                              rows_per_partition=rpp)
        assert r2["skipped"] >= 1, "resume did not skip committed work"
        assert r2["remaining"] == 0
        counts = r2["total_counts"]
        routes = sorted(counts)
        return pa.table({
            "route": pa.array(routes, type=pa.string()),
            "n": pa.array([counts[r] for r in routes], type=pa.int64()),
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)


SQL_CHECKPOINT_RESUME_COUNTS = _FLAGSHIP_T_CTE + """
SELECT route, COUNT(*) AS n FROM r GROUP BY route
"""


def q_parquet_sink_counts(sf_dir: str):
    """R4: hive-partitioned parquet sink fan-out, verified by READING THE
    WRITTEN FILES BACK (the hive dir name restores `route`) and counting
    per sink — checks what landed on disk, not just the in-memory route."""
    import shutil
    import tempfile

    import ray.data as rd

    from .transcript import parse_enrich_route, write_sinks

    work = tempfile.mkdtemp(prefix="glr_sink_q_")
    try:
        routed = parse_enrich_route(transcripts_from_events(sf_dir))
        write_sinks(routed, work)
        back = rd.read_parquet(work)
        return counts_by(back, ["route"], alias="n").to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def q_json_sink_rows(sf_dir: str):
    """R3: the redis-sink stand-in — errors route written as JSON lines,
    read back and counted per role (verifies the JSON sink contents)."""
    import shutil
    import tempfile

    import ray.data as rd

    from .transcript import parse_enrich_route, write_errors_json

    work = tempfile.mkdtemp(prefix="glr_json_q_")
    try:
        routed = parse_enrich_route(transcripts_from_events(sf_dir))
        write_errors_json(routed, work)
        back = rd.read_json(work)
        return counts_by(back, ["role"], alias="n").to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)


SQL_JSON_SINK_ROWS = _FLAGSHIP_T_CTE + """
SELECT role, COUNT(*) AS n FROM r WHERE route = 'errors' GROUP BY role
"""


def q_config_pipeline_counts(sf_dir: str):
    """X1/X2: the declarative config path — registry-compiled JSON parse +
    route stages (Pipeline.from_config), grouped sum per route."""
    from ..config import Pipeline

    conf = {
        "input": {"type": "parquet", "paths": [f"{sf_dir}/events.parquet"],
                  "columns": ["event_type", "props"]},
        "filters": [
            {"type": "json", "field": "props", "keys": {"k": "int"}},
            {"type": "route", "default_sink": "default", "rules": [
                ["errors", [["eq", "event_type", "error"]]],
                ["activity", [["in", "event_type", ["click", "view"]]]],
                ["conversions", [["in", "event_type", ["signup", "purchase"]]]],
            ]},
        ],
        "outputs": [],
    }
    pipe = Pipeline.from_config(conf)
    routed = pipe.transform(pipe.read())
    return grouped_sum(routed, ["route"], "k", alias="sum_k")


SQL_CONFIG_PIPELINE_COUNTS = r"""
SELECT CASE WHEN event_type = 'error' THEN 'errors'
            WHEN event_type IN ('click','view') THEN 'activity'
            WHEN event_type IN ('signup','purchase') THEN 'conversions'
            ELSE 'default' END AS route,
       CAST(SUM(CAST(regexp_extract(props, '"k": ([+-]?\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY 1
"""


_INLINE_LINES = [
    "INFO start id=1", "WARN disk id=2", "ERROR crash id=3",
    "INFO done id=4", "ERROR again id=5", "TRACE boot id=6",
]


def q_inline_source_counts(sf_dir: str):
    """S2: the stdin/inline input analog — a fixed in-memory line list fed
    through the config path (items input) and grok-parsed. sf_dir is
    unused by design; the SQL oracle carries the same literal VALUES."""
    from ..config import Pipeline

    conf = {
        "input": {"type": "items",
                  "items": [{"text": line} for line in _INLINE_LINES]},
        "filters": [
            {"type": "grok",
             "patterns": ["%{LOGLEVEL:level} %{WORD:msg} id=%{INT:id:int}"]},
        ],
        "outputs": [],
    }
    pipe = Pipeline.from_config(conf)
    out = pipe.transform(pipe.read())
    return out.select_columns(["level", "msg", "id"])


SQL_INLINE_SOURCE_COUNTS = (
    "WITH lines(text) AS (VALUES "
    + ", ".join(f"('{line}')" for line in _INLINE_LINES)
    + r""")
SELECT regexp_extract(text, '(INFO|WARN|ERROR|TRACE)', 1) AS level,
       regexp_extract(text, '^\w+ (\w+)', 1) AS msg,
       CAST(regexp_extract(text, 'id=([+-]?\d+)', 1) AS BIGINT) AS id
FROM lines
""")


_TCP_LINES = [
    "INFO boot id=1", "ERROR crash id=2", "WARN disk id=3",
    "INFO done id=4", "ERROR again id=-5", "TRACE deep id=6",
    "WARN fan id=7",
]


def q_tcp_source_counts(sf_dir: str):
    """S3: the tcp input — fixed lines pushed through a real loopback
    socket into ``TcpLineSource`` (two connections; the last line sent
    WITHOUT a trailing newline to exercise the flush-on-close path),
    then the same grok chain and a grouped aggregate. sf_dir is unused
    by design; the SQL oracle carries the same literal VALUES."""
    import socket
    import time

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..sources.socketline import TcpLineSource
    from ..stages.grok import GrokParser

    src = TcpLineSource()
    try:
        with socket.create_connection((src.host, src.port), timeout=5) as c:
            c.sendall(("\n".join(_TCP_LINES[:2]) + "\n").encode())
        with socket.create_connection((src.host, src.port), timeout=5) as c:
            # no trailing newline — the last line flushes on close
            c.sendall("\n".join(_TCP_LINES[2:]).encode())
        got, deadline = [], time.monotonic() + 10.0
        while sum(t.num_rows for t in got) < len(_TCP_LINES):
            if time.monotonic() > deadline:
                raise TimeoutError("tcp source did not deliver all lines")
            t = src.poll_batch(timeout_s=0.5)
            if t is not None:
                got.append(t)
        table = pa.concat_tables(got)
    finally:
        src.close()
    ds = rd.from_arrow(table)
    parsed = ds.map_batches(
        GrokParser("%{LOGLEVEL:level} %{WORD:msg} id=%{INT:id:int}"),
        batch_format="pyarrow")
    return parsed.groupby("level").aggregate(
        Sum("id", alias_name="sum_id"), Count(alias_name="n"))


SQL_TCP_SOURCE_COUNTS = (
    "WITH lines(text) AS (VALUES "
    + ", ".join(f"('{line}')" for line in _TCP_LINES)
    + r""")
SELECT regexp_extract(text, '(INFO|WARN|ERROR|TRACE)', 1) AS level,
       CAST(SUM(CAST(regexp_extract(text, 'id=([+-]?\d+)', 1) AS BIGINT))
            AS BIGINT) AS sum_id,
       COUNT(*) AS n
FROM lines GROUP BY 1
""")


def q_sorted_turns(sf_dir: str):
    """O1 + the per-turn TEXT EQUALITY invariant: first 100 transcript
    rows under the stable (conv_id, turn_idx) verification sort, text
    included — byte-compared against the SQL-constructed text."""
    ds = transcripts_from_events(sf_dir)
    return ds.sort(["conv_id", "turn_idx"]).limit(100) \
        .select_columns(["conv_id", "turn_idx", "text"])


SQL_SORTED_TURNS = """
SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id,
       CAST(event_id AS INTEGER) AS turn_idx,
       (CASE WHEN event_type = 'error' THEN 'ERROR' ELSE 'INFO' END)
       || ' executor conv=c' || CAST(user_id AS VARCHAR)
       || ' step=' || CAST(event_id AS VARCHAR)
       || ' latency_ms=' || CAST(event_id AS VARCHAR)
       || ' status=' || (CASE WHEN event_type = 'error' THEN 'err' ELSE 'ok' END)
       || ' :: payload' AS text
FROM events
ORDER BY conv_id, turn_idx
LIMIT 100
"""


def q_conv_rebuild(sf_dir: str):
    """Conversation reconstruction (turn stream -> whole-conversation
    rows): per-conv turn count, joined length, and an md5 digest of the
    turn texts concatenated in (turn_idx) order — the per-turn text
    equality invariant at conversation granularity. Any dropped,
    reordered, or byte-altered turn changes the digest vs the SQL
    ``string_agg(text ORDER BY turn_idx)`` oracle."""
    from ..stages.rebuild import rebuild_conversations

    return rebuild_conversations(transcripts_from_events(sf_dir))


SQL_CONV_REBUILD = """
WITH t AS (
  SELECT 'c' || CAST(user_id AS VARCHAR) AS conv_id,
         event_id AS turn_idx,
         (CASE WHEN event_type = 'error' THEN 'ERROR' ELSE 'INFO' END)
         || ' executor conv=c' || CAST(user_id AS VARCHAR)
         || ' step=' || CAST(event_id AS VARCHAR)
         || ' latency_ms=' || CAST(event_id AS VARCHAR)
         || ' status=' || (CASE WHEN event_type = 'error' THEN 'err' ELSE 'ok' END)
         || ' :: payload' AS text
  FROM events)
SELECT conv_id,
       CAST(COUNT(*) AS BIGINT) AS n_turns,
       CAST(length(string_agg(text, chr(10) ORDER BY turn_idx)) AS BIGINT)
         AS n_chars,
       md5(string_agg(text, chr(10) ORDER BY turn_idx)) AS text_md5
FROM t GROUP BY conv_id
"""


def q_conv_gap_stats_salted(sf_dir: str):
    """P + W wired together: the TOP-K hot-key census
    (stages/partition.py::hot_topk — the scale-independent production
    shape; in this testdata EVERY user clears any absolute threshold,
    so a threshold census grows with sf and would trip hot_keys'
    max_hot guard above sf≈0.27) picks the heaviest keys;
    conv_gap_stats runs the salted two-level assoc merge
    ((key, order//chunk) partials, per-key re-merge) for them —
    bounded group sizes, same oracle as the unsalted query (salting
    must not change the stats)."""
    from ..stages.partition import hot_topk
    from ..stages.window import conv_gap_stats

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    hot = hot_topk(ds, "user_id", k=8)
    return conv_gap_stats(ds, key="user_id", ts="ts", order="event_id",
                          salt_chunk=64, hot=hot)


def q_apache_log_parse(sf_dir: str):
    """F1 with a FILE-LOADED pattern dictionary: an Apache-combined-style
    line is constructed per event (SQL-mirrorable), a logstash-format
    pattern file is written and loaded via ``patterns_path``, and the
    composite %{APACHELOG} (= %{COMMONAPACHELOG}) pattern extracts
    clientip/verb/request/response/bytes."""
    import os
    import shutil
    import tempfile

    work = tempfile.mkdtemp(prefix="glr_grok_q_")
    try:
        pat_file = os.path.join(work, "extra.grok")
        with open(pat_file, "w") as f:
            f.write("# custom composite pattern for the apache query\n")
            f.write("APACHELOG %{COMMONAPACHELOG}\n")

        def make_line(batch: pa.Table) -> pa.Table:
            eid = as_combined(batch["event_id"])
            uid = as_combined(batch["user_id"])
            et = as_combined(batch["event_type"])
            eid_s = pc.cast(eid, pa.string())
            # C-style remainder to mirror SQL's % on any sign
            uid_mod = pa.array(
                np.fmod(uid.to_numpy(zero_copy_only=False), 256)
                .astype(np.int64))
            ip = pc.binary_join_element_wise(
                "10.0.", pc.cast(uid_mod, pa.string()), ".1", "")
            status = pc.if_else(pc.equal(et, "error"), "500", "200")
            line = pc.binary_join_element_wise(
                ip, " - frank [10/Oct/2000:13:55:36 -0700] \"GET /page/",
                eid_s, " HTTP/1.0\" ", status, " ", eid_s, "")
            return pa.table({"event_id": eid, "line": line})

        ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
        ds = ds.map_batches(make_line, batch_format="pyarrow",
                            zero_copy_batch=True)
        ds = ds.map_batches(
            GrokParser("%{APACHELOG}", field="line", patterns_path=pat_file,
                       tags_column="_no_tags"),
            batch_format="pyarrow", zero_copy_batch=True)
        return ds.select_columns(
            ["event_id", "clientip", "verb", "request", "response", "bytes"]
        ).to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)


SQL_APACHE_LOG_PARSE = r"""
SELECT event_id,
       '10.0.' || CAST(user_id % 256 AS VARCHAR) || '.1' AS clientip,
       'GET' AS verb,
       '/page/' || CAST(event_id AS VARCHAR) AS request,
       CASE WHEN event_type = 'error' THEN '500' ELSE '200' END AS response,
       CAST(event_id AS VARCHAR) AS bytes
FROM events
"""


def q_grok_multifield_events(sf_dir: str):
    """F1 multi-field match (reference grok matches several source
    fields): even event_ids carry the JSON payload in field ``a`` (k
    extracted there); odd rows fail on ``a`` and fall through to field
    ``b``'s fallback payload — field-major break_on_match semantics."""
    def two_fields(batch: pa.Table) -> pa.Table:
        eid = as_combined(batch["event_id"])
        uid_s = pc.cast(as_combined(batch["user_id"]), pa.string())
        even = pa.array(eid.to_numpy(zero_copy_only=False) % 2 == 0)
        a = pc.if_else(even, as_combined(batch["props"]), "noise")
        b = pc.binary_join_element_wise('fallback "k": ', uid_s, "")
        return pa.table({"event_id": eid, "a": a, "b": b})

    ds = _read(sf_dir, "events", ["event_id", "user_id", "props"])
    ds = ds.map_batches(two_fields, batch_format="pyarrow",
                        zero_copy_batch=True)
    ds = ds.map_batches(
        GrokParser('"k": %{INT:k_val:int}', field=["a", "b"],
                   tags_column="_no_tags"),
        batch_format="pyarrow", zero_copy_batch=True)
    return ds.select_columns(["event_id", "k_val"])


SQL_GROK_MULTIFIELD_EVENTS = r"""
SELECT event_id,
       CASE WHEN event_id % 2 = 0
            THEN CAST(regexp_extract(props, '"k": ([+-]?\d+)', 1) AS BIGINT)
            ELSE user_id END AS k_val
FROM events
"""


def q_session_windows_salted(sf_dir: str):
    """W+P: session windowing through the salted two-level path — local
    sessions per (key, order//chunk) stitched across boundaries; the
    merge task holds one row per local session, not per turn, so a hot
    key never pins a task. Same oracle as the unsalted query."""
    from ..stages.window import session_windows

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return session_windows(ds, key="user_id", ts="ts", order="event_id",
                           gap_us=_SESSION_GAP_US, salt_chunk=64)


def q_hll_distinct_events(sf_dir: str):
    """A3 sketch path: HyperLogLog distinct user_id estimate (rows-only:
    the estimate is deterministic but approximate by design; accuracy and
    merge invariance are pytest-asserted)."""
    from ..stages.sketch import hll_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = hll_distinct(ds, "user_id", p=12)
    return pa.table({"est_distinct": pa.array([int(round(est))],
                                              type=pa.int64())})


def q_incremental_counts(sf_dir: str):
    """Incremental/tail micro-batch mode (EP2 streaming analog): the
    transcript stream fed in 4 chunks through IncrementalRunner — sinks
    append per chunk, running counts live in a driver Counter — and the
    FINAL running counts must equal the one-shot batch aggregate, which
    is exactly the flagship sink-counts oracle."""
    import shutil
    import tempfile

    from .incremental import IncrementalRunner

    work = tempfile.mkdtemp(prefix="glr_incr_q_")
    try:
        ds = transcripts_from_events(sf_dir)
        runner = IncrementalRunner(work)
        # chunk the stream as DATASET splits — blocks stay in the object
        # store; the driver never materializes the input rows
        for chunk in ds.split(4):
            runner.process_chunk_dataset(chunk)
        return _sink_counts_table(runner.running_counts())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _sink_counts_table(counts) -> pa.Table:
    """(route, role, tool, ts_hour) → n Counter as a sorted table; a null
    slot sorts first (a null ``ts`` leaves ``ts_hour`` None, which plain
    ``sorted`` cannot order against a datetime)."""
    keys = sorted(counts, key=lambda k: tuple((v is not None, v) for v in k))
    return pa.table({
        "route": pa.array([k[0] for k in keys], type=pa.string()),
        "role": pa.array([k[1] for k in keys], type=pa.string()),
        "tool": pa.array([k[2] for k in keys], type=pa.string()),
        "ts_hour": pa.array([k[3] for k in keys], type=pa.timestamp("us")),
        "n": pa.array([counts[k] for k in keys], type=pa.int64()),
    })


def q_incremental_dedup_docs(sf_dir: str):
    """Streaming exact dedup (EP2 stateful analog of exact_keepers):
    the documents table fed as 5 id-range chunks through
    ``StreamingDedup`` — per-chunk (fp, min id) partials, first-seen
    answered by the driver's seen-fingerprint set. Id-ordered chunks
    make first-seen == global MIN(doc_id) per content, so the oracle is
    the batch-dedup SQL."""
    import pyarrow.compute as _pc

    from .incremental import StreamingDedup

    # Materialized once: consumed 6× below (the max() pass plus one
    # id-range filter per chunk) — unmaterialized, each consumer would
    # re-execute the full parquet read lineage.
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    max_id = int(ds.max("doc_id"))
    n_chunks = 5
    step = max_id // n_chunks + 1
    sd = StreamingDedup()
    kept: list[int] = []
    for c in range(n_chunks):
        lo, hi = c * step, (c + 1) * step

        def rng(batch: pa.Table, lo=lo, hi=hi) -> pa.Table:
            ids = batch["doc_id"]
            return batch.filter(_pc.and_(
                _pc.greater_equal(ids, pa.scalar(lo)),
                _pc.less(ids, pa.scalar(hi))))

        kept.extend(sd.process_chunk_dataset(
            ds.map_batches(rng, batch_format="pyarrow",
                           zero_copy_batch=True)))
    return pa.table({"doc_id": pa.array(sorted(kept), pa.int64())})


def q_repetition_stats_docs(sf_dir: str):
    """Gopher-style repetition quality filters: per-doc duplicate-bigram
    occurrence counts, top-bigram count, distinct bigrams — all integer
    components hash-checked against a DuckDB unnest+groupby oracle over
    the same lowercase ASCII-whitespace tokenization."""
    from ..functions.textstats import repetition_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(repetition_stats, batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.select_columns(["doc_id", "n_toks", "n_bigrams",
                              "dup_bigrams", "top_bigram_n",
                              "uniq_bigrams"])


SQL_REPETITION_STATS_DOCS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS tk
  FROM documents),
bg AS (
  SELECT doc_id,
         unnest(CASE WHEN len(tk) < 2 THEN CAST([] AS VARCHAR[])
                ELSE list_transform(range(1, len(tk)),
                                    i -> tk[i] || ' ' || tk[i+1]) END) AS g
  FROM toks),
cnt AS (SELECT doc_id, g, COUNT(*) AS c FROM bg GROUP BY 1, 2),
agg AS (
  SELECT doc_id,
         CAST(SUM(c) AS BIGINT) AS n_bigrams,
         CAST(COALESCE(SUM(CASE WHEN c > 1 THEN c END), 0) AS BIGINT)
           AS dup_bigrams,
         CAST(MAX(c) AS BIGINT) AS top_bigram_n,
         CAST(COUNT(*) AS BIGINT) AS uniq_bigrams
  FROM cnt GROUP BY 1)
SELECT t.doc_id, CAST(COALESCE(len(t.tk), 0) AS BIGINT) AS n_toks,
       COALESCE(a.n_bigrams, 0) AS n_bigrams,
       COALESCE(a.dup_bigrams, 0) AS dup_bigrams,
       COALESCE(a.top_bigram_n, 0) AS top_bigram_n,
       COALESCE(a.uniq_bigrams, 0) AS uniq_bigrams
FROM toks t LEFT JOIN agg a USING (doc_id)
"""


def q_unigram_lm_docs(sf_dir: str):
    """Unigram-LM quality scoring (the CCNet-style perplexity-filter
    pipeline shape with a corpus-fit unigram table as the model): fit
    top-16 vocab distributed (one (term,count) shuffle + per-block
    top-V), broadcast once, score every doc vectorized. Integer
    components (n_toks, n_oov, sum_rank, sum_tok_count) hash-checked;
    V=16 is deliberately smaller than the corpus vocabulary so the OOV
    path is genuinely exercised."""
    from ..stages.lm import unigram_rank_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return unigram_rank_score(ds, vocab_size=16)


SQL_UNIGRAM_LM_DOCS = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '\s+'),
                            x -> x <> '')) AS term
  FROM documents),
cnts AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS cnt
         FROM toks GROUP BY term),
vocab AS (SELECT term, cnt,
                 CAST(row_number() OVER (ORDER BY cnt DESC, term)
                      AS BIGINT) AS rank
          FROM cnts ORDER BY cnt DESC, term LIMIT 16),
per AS (
  SELECT t.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_toks,
         CAST(COUNT(CASE WHEN v.term IS NULL THEN 1 END) AS BIGINT)
           AS n_oov,
         CAST(COALESCE(SUM(v.rank), 0) AS BIGINT) AS sum_rank,
         CAST(COALESCE(SUM(v.cnt), 0) AS BIGINT) AS sum_tok_count
  FROM toks t LEFT JOIN vocab v USING (term) GROUP BY t.doc_id)
SELECT d.doc_id,
       CAST(COALESCE(p.n_toks, 0) AS BIGINT) AS n_toks,
       CAST(COALESCE(p.n_oov, 0) AS BIGINT) AS n_oov,
       CAST(COALESCE(p.sum_rank, 0) AS BIGINT) AS sum_rank,
       CAST(COALESCE(p.sum_tok_count, 0) AS BIGINT) AS sum_tok_count
FROM documents d LEFT JOIN per p USING (doc_id)
"""


# the lm_bucket score definition — single source of truth for the
# integer-score constants and the scored-table checkpoint's config hash
_LM_SCORE_SPEC = {"stage": "lm-score", "vocab_size": 16, "oov_rank": 17,
                  "scale": 1_000_000, "quant": 1_000, "version": 1}


def q_lm_bucket_docs(sf_dir: str):
    """CCNet head/middle/tail corpus split (Wenzek et al. 2020 —
    the public shape: score every doc with the LM, bucket the corpus
    at the score's terciles; CCNet trains downstream models on the
    'head'). Composition of two oracle-proven pieces:

    1. unigram-LM integer components (``stages/lm.py``) — the
       corpus-fit stand-in for KenLM in this environment;
    2. the exact (value, count)-partials quantile census
       (``quality_threshold_docs``'s machinery) over an INTEGER score.

    Score (integer math end-to-end, so the oracle is bit-exact):
    mean token rank with OOV penalized at rank V+1, scaled then
    QUANTIZED — ``score_q = ((sum_rank + 17·n_oov)·10⁶ ÷ n_toks) ÷
    10³`` (floor divisions). Quantization bounds the census: distinct
    ``score_q`` values ≤ ~16k at ANY corpus size, so the driver-side
    threshold merge never grows with the data. Zero-token docs are
    unscoreable and excluded (both sides)."""
    return lm_bucket_docs(sf_dir)


def lm_bucket_docs(sf_dir: str, *, checkpoint_dir: str | None = None,
                   fail_after_score: bool = False):
    """``q_lm_bucket_docs`` with the scored-table boundary exposed: the
    (doc_id, score_q) table has TWO consumers (the tercile census and
    the final bucketing), so it must not re-execute per consumer.
    ``checkpoint_dir=None`` materializes it in the object store;
    otherwise it commits through ``curation.checkpoint_dataset`` (the
    shared atomic tmp+rename protocol) and a later run with the same
    config skips LM scoring entirely — kill+resume tested across the
    score boundary with the raw input deleted. ``fail_after_score``
    simulates the kill right after that commit."""
    import os

    from ray.data.aggregate import Sum

    from ..stages.lm import unigram_rank_score

    # the score constants AND the checkpoint config hash both derive
    # from THIS dict (a constant change must invalidate old commits —
    # a duplicated literal could silently go stale; curation._SPEC rule)
    lm_spec = _LM_SCORE_SPEC

    def add_score(batch: pa.Table) -> pa.Table:
        nt = as_combined(batch["n_toks"]).to_numpy(zero_copy_only=False)
        m = nt > 0
        sr = as_combined(batch["sum_rank"]).to_numpy(
            zero_copy_only=False)[m]
        no = as_combined(batch["n_oov"]).to_numpy(zero_copy_only=False)[m]
        sq = ((sr + lm_spec["oov_rank"] * no) * lm_spec["scale"]
              // nt[m]) // lm_spec["quant"]
        return pa.table({
            "doc_id": as_combined(batch["doc_id"]).filter(pa.array(m)),
            "score_q": pa.array(sq.astype(np.int64), pa.int64())})

    def build():
        ds = _read(sf_dir, "documents", ["doc_id", "text"])
        comp = unigram_rank_score(ds, vocab_size=lm_spec["vocab_size"])
        return comp.map_batches(add_score, batch_format="pyarrow")

    if checkpoint_dir is None:
        scored = build().materialize()
    else:
        from .curation import checkpoint_dataset

        spec = dict(lm_spec, input=os.path.abspath(sf_dir))
        scored = checkpoint_dataset(
            build, checkpoint_dir=checkpoint_dir, name="lm_scored",
            spec=spec,
            schema_fallback=lambda: pa.schema(
                [("doc_id", pa.int64()), ("score_q", pa.int64())]))
    if fail_after_score:
        raise RuntimeError("simulated kill after the score commit")

    def partial(batch: pa.Table) -> pa.Table:
        p = batch.select(["score_q"]).group_by(["score_q"]) \
            .aggregate([([], "count_all")])
        return p.select(["score_q", "count_all"]) \
            .rename_columns(["score_q", "cnt"])

    counts = scored.map_batches(partial, batch_format="pyarrow") \
        .groupby("score_q").aggregate(Sum("cnt", alias_name="cnt"))
    vs, cs = [], []
    for b in counts.iter_batches(batch_format="pyarrow"):
        vs.append(b.column("score_q").to_numpy(zero_copy_only=False))
        cs.append(b.column("cnt").to_numpy(zero_copy_only=False))
    v = np.concatenate(vs) if vs else np.zeros(0, np.int64)
    c = np.concatenate(cs) if cs else np.zeros(0, np.int64)
    if v.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score_q": pa.array([], pa.int64()),
                         "bucket": pa.array([], pa.string())})
    o = np.argsort(v, kind="stable")
    v, c = v[o], c[o]
    n = int(c.sum())
    cum = np.cumsum(c)
    # quantile_disc convention (locked to DuckDB in the quality gate):
    # element at ceil(n·q)−1 of the sorted multiset, integer math
    t1 = int(v[np.searchsorted(cum, (n + 2) // 3)])        # q = 1/3
    t2 = int(v[np.searchsorted(cum, (2 * n + 2) // 3)])    # q = 2/3

    def bucket(batch: pa.Table) -> pa.Table:
        sq = as_combined(batch["score_q"]).to_numpy(zero_copy_only=False)
        lab = np.where(sq <= t1, "head",
                       np.where(sq <= t2, "middle", "tail"))
        return pa.table({"doc_id": batch["doc_id"],
                         "score_q": batch["score_q"],
                         "bucket": pa.array(lab, pa.string())})

    return scored.map_batches(bucket, batch_format="pyarrow",
                              zero_copy_batch=True)


SQL_LM_BUCKET_DOCS = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '\s+'),
                            x -> x <> '')) AS term
  FROM documents),
cnts AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS cnt
         FROM toks GROUP BY term),
vocab AS (SELECT term, cnt,
                 CAST(row_number() OVER (ORDER BY cnt DESC, term)
                      AS BIGINT) AS rank
          FROM cnts ORDER BY cnt DESC, term LIMIT 16),
per AS (
  SELECT t.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_toks,
         CAST(COUNT(CASE WHEN v.term IS NULL THEN 1 END) AS BIGINT)
           AS n_oov,
         CAST(COALESCE(SUM(v.rank), 0) AS BIGINT) AS sum_rank
  FROM toks t LEFT JOIN vocab v USING (term) GROUP BY t.doc_id),
sc AS (
  SELECT doc_id,
         CAST(((sum_rank + 17 * n_oov) * 1000000) // n_toks // 1000
              AS BIGINT) AS score_q
  FROM per WHERE n_toks > 0),
t AS (SELECT quantile_disc(score_q, 1.0/3) AS t1,
             quantile_disc(score_q, 2.0/3) AS t2 FROM sc)
SELECT doc_id, score_q,
       CASE WHEN score_q <= t1 THEN 'head'
            WHEN score_q <= t2 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM sc, t
"""


def q_multiline_events(sf_dir: str):
    """Multiline codec (`stages/filters.py::multiline_join`) — the
    logstash-family stack-trace joiner (codec multiline,
    what=previous): indented lines join the closest preceding
    non-indented line of the same conversation. Log lines are
    constructed from events SQL-mirrorably (click/view events become
    indented continuation frames, everything else an ERROR head);
    leading continuations form group 0 (flush semantics). One
    groupby(user) shuffle; per-group work bounded by the conversation
    (same contract as conv_rebuild). The joined TEXT itself is
    hash-compared — per-line byte equality through the codec."""
    from ..stages.filters import multiline_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def make_lines(batch: pa.Table) -> pa.Table:
        eid = as_combined(batch["event_id"])
        et = as_combined(batch["event_type"])
        eid_s = pc.cast(eid, pa.string())
        cont = pc.is_in(et, value_set=pa.array(["click", "view"]))
        # scalar prefixes: a list-built constant array infers NULL type
        # on a zero-row batch and kills binary_join_element_wise
        line = pc.if_else(
            cont,
            pc.binary_join_element_wise(
                pa.scalar("    at step "), eid_s, ""),
            pc.binary_join_element_wise(
                pa.scalar("ERROR trace e"), eid_s, ""))
        return pa.table({"user_id": batch["user_id"],
                         "event_id": eid, "text": line})

    lines = ev.map_batches(make_lines, batch_format="pyarrow",
                           zero_copy_batch=True)
    return multiline_join(lines, key="user_id", order="event_id",
                          text_field="text", pattern="^ ")


SQL_MULTILINE_EVENTS = """
WITH t AS (
  SELECT user_id, event_id,
         CASE WHEN event_type IN ('click', 'view')
              THEN '    at step ' || CAST(event_id AS VARCHAR)
              ELSE 'ERROR trace e' || CAST(event_id AS VARCHAR)
         END AS line,
         CASE WHEN event_type IN ('click', 'view') THEN 0 ELSE 1 END
           AS head
  FROM events
  -- multiline_join drops rows with a null order key (filters.py: a row
  -- without a position cannot join the line sequence); mirror that drop
  -- here so the pair agrees even if the testdata ever grows null ids
  WHERE event_id IS NOT NULL),
g AS (
  SELECT user_id, event_id, line,
         SUM(head) OVER (PARTITION BY user_id ORDER BY event_id) AS grp
  FROM t)
SELECT user_id, CAST(grp AS BIGINT) AS event_grp,
       CAST(MIN(event_id) AS BIGINT) AS event_idx,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       string_agg(line, chr(10) ORDER BY event_id) AS text
FROM g GROUP BY 1, 2
"""


def q_throttle_events(sf_dir: str):
    """Rate-limit filter (`stages/filters.py::throttle` — the logstash
    throttle plugin as a deterministic batch operator): at most 3
    events per (user, hour), first-by-event_id. Per-batch combiner
    bounds the shuffle to k × blocks rows per key."""
    from ..stages.filters import throttle

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def add_hour(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(as_combined(batch["ts"]),
                             pa.timestamp("us")), pa.int64())
        hour = pc.multiply(pc.divide(us, 3_600_000_000), 3_600_000_000)
        return pa.table({"event_id": batch["event_id"],
                         "user_id": batch["user_id"],
                         "hour_us": hour})

    ds = ev.map_batches(add_hour, batch_format="pyarrow",
                        zero_copy_batch=True)
    return throttle(ds, key_cols=["user_id", "hour_us"],
                    order="event_id", max_per_key=3)


SQL_THROTTLE_EVENTS = """
SELECT event_id, user_id, hour_us
FROM (
  SELECT event_id, user_id,
         CAST(epoch_us(date_trunc('hour', ts)) AS BIGINT) AS hour_us,
         row_number() OVER (
           PARTITION BY user_id, date_trunc('hour', ts)
           ORDER BY event_id) AS rn
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_id IS NOT NULL)
WHERE rn <= 3
"""


def q_shuffle_order_docs(sf_dir: str):
    """Deterministic training-order shuffle
    (`stages/sample.py::training_order`): hash-bucket two-level global
    shuffle — shard = seeded-hash % 16, position = rank within the
    shard under (hash, id). ONE bounded groupby (16 groups) replaces
    the all-to-all a full sort/random_shuffle would cost; the order is
    reproducible from the seed on any partitioning. md5 hash mode
    mirrors DuckDB's md5_number_lower so the oracle reproduces the
    EXACT order (hash-verified), not just the shard histogram."""
    from ..stages.sample import training_order

    ds = _read(sf_dir, "documents", ["doc_id"])
    return training_order(ds, shards=16, seed=7, hash_mode="md5")


SQL_SHUFFLE_ORDER_DOCS = """
WITH h AS (
  SELECT doc_id,
         md5_number_lower(CAST(doc_id AS VARCHAR) || ':7') AS hv
  FROM documents)
SELECT doc_id, CAST(hv % 16 AS BIGINT) AS shard,
       CAST(row_number() OVER (PARTITION BY hv % 16
                               ORDER BY hv, doc_id) - 1 AS BIGINT) AS pos
FROM h
"""


def q_quality_stats_docs(sf_dir: str):
    """Text quality scoring — the integer components are oracle-checked
    (punctuation and word counts); the float score composition is
    pytest-asserted (floats stay out of hash-compared columns)."""
    from ..functions.textstats import quality_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(quality_stats, batch_format="pyarrow",
                        zero_copy_batch=True)
    return ds.select_columns(["doc_id", "n_punct"])


SQL_QUALITY_STATS_DOCS = r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct
FROM documents
"""


def q_split_sample_docs(sf_dir: str):
    """Deterministic train/val/test split + reproducible sample (corpus-
    curation ops): modulo keying so the SQL oracle mirrors bucket
    assignment exactly; the hash-keyed variant (string keys, decorrelated
    buckets) is pytest-verified for determinism."""
    from ..stages.sample import sample_fraction, split_assign

    ds = _read(sf_dir, "documents", ["doc_id"])
    split = split_assign(ds, "doc_id", {"train": 80, "val": 10, "test": 10},
                         method="modulo")
    split_counts = counts_by(split, ["split"], alias="n").to_pandas()
    sampled = sample_fraction(_read(sf_dir, "documents", ["doc_id"]),
                              "doc_id", percent=25, method="modulo")
    split_counts["n_sampled_25pct"] = int(sampled.count())
    return split_counts


SQL_SPLIT_SAMPLE_DOCS = """
SELECT CASE WHEN doc_id % 100 < 80 THEN 'train'
            WHEN doc_id % 100 < 90 THEN 'val' ELSE 'test' END AS split,
       COUNT(*) AS n,
       (SELECT COUNT(*) FROM documents WHERE doc_id % 100 < 25) AS n_sampled_25pct
FROM documents GROUP BY 1
"""


def q_asof_join_events(sf_dir: str):
    """As-of join (custom operator, stages/asof.py): each click/view
    event annotated with the most recent PRECEDING error of the same
    user — one key-partitioned shuffle, pure-Arrow sorted merge inside
    the group, no broadcast. Oracle: DuckDB ASOF JOIN. Only the matched
    TIME is returned (exact epoch-us ints): on tied right-side times the
    matched time is identical under any tie choice, while a matched ID
    would be tie-dependent and flake the oracle."""
    from ..stages.asof import asof_join_backward
    from ..stages.filters import DropStage

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    left = ev.map_batches(
        DropStage([("in", "event_type", ["click", "view"])], mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    right = ev.map_batches(
        DropStage([("eq", "event_type", "error")], mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = asof_join_backward(left, right, key="user_id", on="ts",
                                right_values=[])

    def finish(batch: pa.Table) -> pa.Table:
        # unit-proof epoch-us: pin the timestamp unit BEFORE the int
        # cast so a pandas/arrow nanosecond coercion can never shift the
        # value by 1000x
        err_us = pc.cast(pc.cast(as_combined(batch["ts_r"]),
                                 pa.timestamp("us")), pa.int64())
        return pa.table({
            "event_id": as_combined(batch["event_id"]),
            "err_ts_us": err_us,
        })

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_ASOF_JOIN_EVENTS = """
WITH l AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type IN ('click','view')),
     r AS (SELECT user_id, ts FROM events WHERE event_type = 'error')
SELECT l.event_id,
       epoch_us(r.ts) AS err_ts_us
FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts
"""


def q_asof_join_salted(sf_dir: str):
    """The SAME as-of join through the two-level SALTED path (P × custom
    join): rows group by (user_id, ts // 6h), each time chunk resolves
    its lefts locally, and pending lefts stitch against per-chunk
    boundary rows — a hot user never pins one task. Identical oracle to
    ``asof_join_events``; 6 h chunks actually split the sf time range
    into many chunks, most without error rows, so the
    boundary-carry-forward path is genuinely exercised. Salting is
    gated by a TOP-K hot-key census (the production shape, mirroring
    the window family): only the k heaviest users pay the chunked
    two-level merge.  Salting EVERY key explodes the group count (1500
    users × 120 six-hour chunks at sf0.1 ≈ 1-row groups; Ray's
    per-group map_groups overhead made that ~5× slower than unsalted),
    and an absolute threshold admits unboundedly many keys as the
    table grows — top-k bounds the extra groups at k × chunks at any
    scale."""
    from ..stages.asof import asof_join_backward
    from ..stages.filters import DropStage
    from ..stages.partition import hot_topk

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    hot = hot_topk(ev, "user_id", k=8)
    left = ev.map_batches(
        DropStage([("in", "event_type", ["click", "view"])], mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    right = ev.map_batches(
        DropStage([("eq", "event_type", "error")], mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = asof_join_backward(left, right, key="user_id", on="ts",
                                right_values=[],
                                salt_chunk=6 * 3600 * 1_000_000,
                                hot=hot)

    def finish(batch: pa.Table) -> pa.Table:
        err_us = pc.cast(pc.cast(as_combined(batch["ts_r"]),
                                 pa.timestamp("us")), pa.int64())
        return pa.table({
            "event_id": as_combined(batch["event_id"]),
            "err_ts_us": err_us,
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def q_profile_events(sf_dir: str):
    """Column profiling: per-column row/null/NaN counts and value ranges
    via per-batch partials + tiny merge. min/max are over non-NaN values
    (NaN counted separately — engines disagree on NaN ordering), so the
    float compare against the NaN-filtered SQL is exact."""
    from ..stages.profile import profile_numeric

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return profile_numeric(ds, ["event_id", "user_id", "value"])


def _profile_col_sql(col: str) -> str:
    d = f"CAST({col} AS DOUBLE)"
    return (f"SELECT '{col}' AS \"column\", COUNT(*) AS n, "
            f"COUNT(*) - COUNT({col}) AS n_null, "
            f"CAST(COALESCE(SUM(CASE WHEN isnan({d}) THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_nan, "
            f"MIN(CASE WHEN isnan({d}) THEN NULL ELSE {d} END) AS min, "
            f"MAX(CASE WHEN isnan({d}) THEN NULL ELSE {d} END) AS max "
            "FROM events")


SQL_PROFILE_EVENTS = " UNION ALL ".join(
    _profile_col_sql(c) for c in ["event_id", "user_id", "value"])


def q_sliding_window_counts(sf_dir: str):
    """W family, hopping windows: 2h-long windows starting every hour —
    each event explodes to its 2 covering windows vectorized, then the
    pre-aggregated count shuffle. Oracle: union of the two shifted
    hour-truncs."""
    from ..stages.window import sliding_window_counts

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    return sliding_window_counts(ds, "event_type", "ts",
                                 length_us=2 * 3600 * 1_000_000,
                                 hop_us=3600 * 1_000_000)


SQL_SLIDING_WINDOW_COUNTS = """
SELECT event_type, window_start, COUNT(*) AS n FROM (
  SELECT event_type, date_trunc('hour', ts) AS window_start FROM events
  UNION ALL
  SELECT event_type, date_trunc('hour', ts) - INTERVAL 1 HOUR FROM events)
GROUP BY 1, 2
"""


def q_dedup_broadcast_docs(sf_dir: str):
    """Exact dedup, broadcast-keepers variant: keeper ids from compact
    (hash, id) partials broadcast once; full rows never shuffle — the
    bounded-distinct-count regime's fast path. Same oracle as the
    shuffle variant."""
    from ..stages.dedup import exact_dedup_broadcast

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exact_dedup_broadcast(ds).select_columns(["doc_id"])


SQL_DEDUP_BROADCAST_DOCS = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id FROM documents GROUP BY text
"""


def q_range_join_events(sf_dir: str):
    """Bucketed range join (custom operator, stages/rangejoin.py):
    events joined to value-intervals derived from orders on
    lo ≤ value ≤ hi, returning per-range match counts. Ranges are 0.3
    wide and the bucket width 0.5, so every range explodes to ≤ 2
    buckets and no all-pairs comparison happens."""
    from ..stages.rangejoin import range_join_buckets

    def make_ranges(batch: pa.Table) -> pa.Table:
        ok = as_combined(batch["o_orderkey"]).to_numpy(zero_copy_only=False)
        lo = np.fmod(ok, 4800).astype(np.float64) / 10.0
        return pa.table({
            "range_id": pa.array(ok, type=pa.int64()),
            "lo": pa.array(lo),
            "hi": pa.array(lo + 0.3),
        })

    points = _read(sf_dir, "events", ["event_id", "value"])
    ranges = _read(sf_dir, "orders", ["o_orderkey"]).map_batches(
        make_ranges, batch_format="pyarrow", zero_copy_batch=True)
    pairs = range_join_buckets(points, ranges, value="value", lo="lo",
                               hi="hi", width=0.5,
                               point_cols=["event_id"],
                               range_cols=["range_id"])
    return counts_by(pairs.select_columns(["range_id"]), ["range_id"],
                     alias="n")


SQL_RANGE_JOIN_EVENTS = """
WITH r AS (SELECT o_orderkey AS range_id,
                  (o_orderkey % 4800) / 10.0 AS lo,
                  (o_orderkey % 4800) / 10.0 + 0.3 AS hi
           FROM orders)
SELECT r.range_id, COUNT(*) AS n
FROM events e JOIN r ON e.value >= r.lo AND e.value <= r.hi
GROUP BY r.range_id
"""


def q_media_features_docs(sf_dir: str):
    """Multimodal plumbing surface: documents' text bytes stand in for
    binary media payloads (deterministic), pushed through the actor-pool
    ImageFeatureStage with the FAKE decode (the codec stub — no image
    libs in this container; rows-only check). Verifies the binary-column
    schema, small-batch actor plumbing, and feature output layout."""
    from ..stages.multimodal import ImageFeatureStage

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": as_combined(batch["doc_id"]),
            "mime": pa.array(["text/plain"] * batch.num_rows),
            "payload": pc.cast(as_combined(batch["text"]), pa.binary()),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    media = ds.map_batches(to_media, batch_format="pyarrow",
                           zero_copy_batch=True)
    feats = media.map_batches(
        ImageFeatureStage, fn_constructor_kwargs=dict(decode="fake"),
        batch_format="pyarrow", batch_size=128, concurrency=2)
    return feats.select_columns(["media_id", "mime"]).to_pandas()


def q_media_frames_docs(sf_dir: str):
    """Multimodal frame-sampling plumbing (video analog): each binary
    payload explodes to n pseudo-frames with per-frame features through
    the stubbed decode. ORACLE-CHECKED via frame-count conservation:
    every frame_idx's count equals the document count (the oracle
    assumes a non-empty documents table — with zero docs the pipeline
    yields 0 rows while the range(4) oracle yields 4 zero-count rows)."""
    from ..stages.multimodal import FrameSampleStage

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": as_combined(batch["doc_id"]),
            "payload": pc.cast(as_combined(batch["text"]), pa.binary()),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    media = ds.map_batches(to_media, batch_format="pyarrow",
                           zero_copy_batch=True)
    frames = media.map_batches(
        FrameSampleStage, fn_constructor_kwargs=dict(n_frames=4,
                                                     decode="fake"),
        batch_format="pyarrow", batch_size=128, concurrency=2)
    return counts_by(frames, ["frame_idx"], alias="n")


SQL_MEDIA_FRAMES_DOCS = """
SELECT CAST(r AS INTEGER) AS frame_idx,
       (SELECT COUNT(*) FROM documents) AS n
FROM range(4) t(r)
"""


def q_dedup_cluster_docs(sf_dir: str):
    """Duplicate-cluster election — the final step of fuzzy dedup:
    charset-Jaccard near-dup pairs → distributed connected components
    (alternating large-star/small-star, `stages/cluster.py`) → one
    (doc_id, rep_id) row per doc in any pair, rep = min doc id of its
    duplicate cluster.  The SQL oracle recomputes components with a
    recursive CTE over the same pair relation."""
    from ..stages.cluster import connected_components

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source"])
    pairs = charset_jaccard_pairs(ds, ["lang", "source"], threshold=0.95)
    cc = connected_components(pairs, a_col="doc_a", b_col="doc_b")
    return cc.rename_columns({"node": "doc_id", "rep": "rep_id"})


SQL_DEDUP_CLUSTER_DOCS = """
WITH RECURSIVE pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM documents a JOIN documents b
    ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
  WHERE jaccard(a.text, b.text) >= 0.95
), nodes AS (
  SELECT doc_a AS node FROM pairs UNION SELECT doc_b AS node FROM pairs
), edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION ALL
  SELECT doc_b AS u, doc_a AS v FROM pairs
), reach(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.v, r.lbl FROM reach r JOIN edges e ON e.u = r.node
)
SELECT node AS doc_id, MIN(lbl) AS rep_id FROM reach GROUP BY node
"""


def q_decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: a deterministic stand-in benchmark
    blocklist (first 8-word gram of every doc_id % 97 == 0 doc) is
    broadcast once; each doc reports how many blocklist grams it
    contains (0 = clean).  `stages/decontaminate.py` — blocklist via
    ray.put, K vectorized match_substring sweeps per batch."""
    from ..stages.decontaminate import decontaminate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return decontaminate(ds)


SQL_DECONTAMINATE_DOCS = """
WITH bench AS (
  SELECT DISTINCT array_to_string(list_slice(string_split(text, ' '), 1, 8),
                                  ' ') AS gram
  FROM documents
  WHERE doc_id % 97 = 0 AND len(string_split(text, ' ')) >= 8
)
SELECT d.doc_id,
       (SELECT COUNT(*) FROM bench b WHERE contains(d.text, b.gram))
         AS n_hits
FROM documents d
"""


def q_chunk_docs(sf_dir: str):
    """Document chunking: explode each doc into 32-word windows at
    stride 24 (overlapping; last chunk short) — `stages/chunk.py`, a
    pure flat-map with the loop only over chunk index."""
    from ..stages.chunk import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_documents(ds, size=32, stride=24)


SQL_CHUNK_DOCS = """
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS words,
         len(string_split(text, ' ')) AS n
  FROM documents
)
SELECT doc_id,
       CAST((g - 1) / 24 AS BIGINT) AS chunk_idx,
       CAST(len(list_slice(words, g, g + 31)) AS BIGINT) AS n_words,
       array_to_string(list_slice(words, g, g + 31), ' ') AS chunk_text
FROM (SELECT doc_id, words,
             unnest(range(1, CAST(n AS BIGINT) + 1, 24)) AS g
      FROM w)
"""


def q_curate_docs(sf_dir: str):
    """END-TO-END curation pipeline (the axis-B headline use case —
    raw corpus → training-ready chunks) composed ENTIRELY from
    operators that are each independently oracle-verified:

      1. repetition-quality gate (``repetition_stats``: n_toks ≥ 20,
         duplicate-bigram ratio ≤ 8%) — per-row, no shuffle;
      2. exact dedup via broadcast keepers
         (``exact_dedup_broadcast``: only (hash,id) partials shuffle,
         full rows never move);
      3. benchmark decontamination (``build_benchmark_grams`` on the
         surviving set, broadcast once, vectorized match_substring
         drop) — columns preserved;
      4. chunking to 32-word windows at stride 24
         (``chunk_documents``);
      5. per-doc chunk stats (partial + combine grouped sums).

    The SQL oracle is the SAME five stages as chained CTEs, so the
    hash check verifies the COMPOSITION (stage ordering and the exact
    survivor sets at every boundary), not just each operator alone.

    Implementation lives in ``pipelines/curation.py``: the shared
    quality+dedup survivor set is consumed by multiple downstream
    lineages, so it is materialized once here — or, at 100 TB scale,
    committed to a partitioned-parquet checkpoint
    (``curate_stats(checkpoint_dir=...)``, kill+resume-tested: the
    resume reproduces the identical final table from the checkpoint
    alone, raw input deleted)."""
    from .curation import curate_stats

    return curate_stats(sf_dir)


SQL_CURATE_DOCS = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'),
                     x -> x <> '') AS tk
  FROM documents),
bgr AS (
  SELECT doc_id,
         unnest(CASE WHEN len(tk) < 2 THEN CAST([] AS VARCHAR[])
                ELSE list_transform(range(1, len(tk)),
                                    i -> tk[i] || ' ' || tk[i+1]) END) AS g
  FROM toks),
bcnt AS (SELECT doc_id, g, COUNT(*) AS c FROM bgr GROUP BY 1, 2),
rep AS (
  SELECT t.doc_id, len(t.tk) AS n_toks,
         COALESCE(a.nb, 0) AS n_bigrams,
         COALESCE(a.db, 0) AS dup_bigrams
  FROM toks t LEFT JOIN (
    SELECT doc_id, SUM(c) AS nb,
           COALESCE(SUM(CASE WHEN c > 1 THEN c END), 0) AS db
    FROM bcnt GROUP BY 1) a USING (doc_id)),
q AS (
  SELECT d.doc_id, d.text FROM documents d JOIN rep USING (doc_id)
  WHERE rep.n_toks >= 20 AND rep.dup_bigrams * 1000 <= 80 * rep.n_bigrams),
keep AS (SELECT MIN(doc_id) AS doc_id FROM q GROUP BY text),
s AS (SELECT q.* FROM q JOIN keep USING (doc_id)),
bench AS (
  SELECT DISTINCT array_to_string(list_slice(string_split(text, ' '), 1, 8),
                                  ' ') AS gram
  FROM s WHERE doc_id % 97 = 0 AND len(string_split(text, ' ')) >= 8),
clean AS (
  SELECT s.* FROM s
  WHERE NOT EXISTS (SELECT 1 FROM bench b WHERE contains(s.text, b.gram))),
w AS (SELECT doc_id, string_split(text, ' ') AS words,
             len(string_split(text, ' ')) AS n
      FROM clean),
ch AS (
  SELECT doc_id, len(list_slice(words, g, g + 31)) AS nw
  FROM (SELECT doc_id, words,
               unnest(range(1, CAST(n AS BIGINT) + 1, 24)) AS g
        FROM w))
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_chunks,
       CAST(SUM(nw) AS BIGINT) AS n_chunk_words
FROM ch GROUP BY doc_id
"""


def q_curate_docs_v2(sf_dir: str):
    """The curation composition WITH the near-dup stage a real
    training-data pass runs between dedup and decontamination
    (VERDICT r4 #3): quality gate → exact dedup → MinHash-LSH
    near-dup drop (trigram-Jaccard ≥ 0.7, larger-id member of each
    pair dropped via the size-gated ``anti_join_ids``) →
    decontamination → chunk → per-doc stats.

    The SQL oracle chains the SAME stages as CTEs with the exact
    trigram-Jaccard pair CTE embedded, so the hash check verifies the
    COMPOSITION including the near-dup survivor boundary. The
    LSH-mined estimate-thresholded pair set equals the exact pair set
    here for the same reason ``minhash_pairs_docs``' oracle holds:
    corpus near-dups sit far above threshold (banding miss < 1e-7 at
    16×4) and the densest background pair sits far below."""
    from .curation import curate_stats_v2

    return curate_stats_v2(sf_dir)


# SQL_CURATE_DOCS with the near-dup stage inserted between the exact-
# dedup survivor set `s` and the benchmark-gram build: trigram sets per
# survivor (the _TRIGRAM_CTE convention, FROM s), exact-Jaccard pairs,
# drop every doc_b, and the tail CTEs re-rooted on `s2`.
SQL_CURATE_DOCS_V2 = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'),
                     x -> x <> '') AS tk
  FROM documents),
bgr AS (
  SELECT doc_id,
         unnest(CASE WHEN len(tk) < 2 THEN CAST([] AS VARCHAR[])
                ELSE list_transform(range(1, len(tk)),
                                    i -> tk[i] || ' ' || tk[i+1]) END) AS g
  FROM toks),
bcnt AS (SELECT doc_id, g, COUNT(*) AS c FROM bgr GROUP BY 1, 2),
rep AS (
  SELECT t.doc_id, len(t.tk) AS n_toks,
         COALESCE(a.nb, 0) AS n_bigrams,
         COALESCE(a.db, 0) AS dup_bigrams
  FROM toks t LEFT JOIN (
    SELECT doc_id, SUM(c) AS nb,
           COALESCE(SUM(CASE WHEN c > 1 THEN c END), 0) AS db
    FROM bcnt GROUP BY 1) a USING (doc_id)),
q AS (
  SELECT d.doc_id, d.text FROM documents d JOIN rep USING (doc_id)
  WHERE rep.n_toks >= 20 AND rep.dup_bigrams * 1000 <= 80 * rep.n_bigrams),
keep AS (SELECT MIN(doc_id) AS doc_id FROM q GROUP BY text),
s AS (SELECT q.* FROM q JOIN keep USING (doc_id)),
ntk AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'),
                     x -> x <> '') AS tk
  FROM s),
ntg AS (
  SELECT doc_id,
         CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
              WHEN len(tk) < 3 THEN [array_to_string(tk, ' ')]
              ELSE list_transform(range(1, len(tk) - 1),
                                  i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])
         END AS grams
  FROM ntk),
nd AS (
  SELECT DISTINCT b.doc_id AS doc_b
  FROM ntg a JOIN ntg b ON a.doc_id < b.doc_id
  WHERE len(list_distinct(list_concat(a.grams, b.grams))) > 0
    AND len(list_intersect(a.grams, b.grams)) * 10
        >= 7 * len(list_distinct(list_concat(a.grams, b.grams)))),
s2 AS (SELECT s.* FROM s WHERE doc_id NOT IN (SELECT doc_b FROM nd)),
bench AS (
  SELECT DISTINCT array_to_string(list_slice(string_split(text, ' '), 1, 8),
                                  ' ') AS gram
  FROM s2 WHERE doc_id % 97 = 0 AND len(string_split(text, ' ')) >= 8),
clean AS (
  SELECT s2.* FROM s2
  WHERE NOT EXISTS (SELECT 1 FROM bench b WHERE contains(s2.text, b.gram))),
w AS (SELECT doc_id, string_split(text, ' ') AS words,
             len(string_split(text, ' ')) AS n
      FROM clean),
ch AS (
  SELECT doc_id, len(list_slice(words, g, g + 31)) AS nw
  FROM (SELECT doc_id, words,
               unnest(range(1, CAST(n AS BIGINT) + 1, 24)) AS g
        FROM w))
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_chunks,
       CAST(SUM(nw) AS BIGINT) AS n_chunk_words
FROM ch GROUP BY doc_id
"""


def q_doc_freq_terms(sf_dir: str):
    """TF-IDF building block: document frequency per term (distinct
    docs containing the term), top 50 by df with deterministic
    tie-break.  Per-batch polars split → per-doc unique → local term
    counts (combiner), so only compact (term, partial_df) rows shuffle;
    the final sort runs on the tiny aggregated table."""
    import polars as pl

    from ..stages.aggregate import grouped_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial_df(batch: pa.Table) -> pa.Table:
        # null text must emit ZERO term rows (the oracle's
        # unnest(string_split(NULL)) is zero rows; an unfiltered
        # explode would emit one null 'term' row that group_by counts)
        df = pl.from_arrow(batch.select(["text"])) \
            .filter(pl.col("text").is_not_null())
        out = (df.with_columns(
                   pl.col("text").str.split(" ").list.unique().alias("_t"))
               .select(pl.col("_t"))
               .explode("_t")
               .filter(pl.col("_t").is_not_null())
               .group_by("_t").len())
        return pa.table({
            "term": out["_t"].to_arrow().cast(pa.string()),
            "df": out["len"].to_arrow().cast(pa.int64()),
        })

    partials = ds.map_batches(partial_df, batch_format="pyarrow")
    total = grouped_sum(partials, ["term"], "df", alias="df")
    return total.sort(["df", "term"], descending=[True, False]).limit(50)


SQL_DOC_FREQ_TERMS = """
SELECT term, COUNT(*) AS df
FROM (SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS term
      FROM documents)
GROUP BY term
ORDER BY df DESC, term ASC
LIMIT 50
"""


# the BM25 retrieval constants — ONE list feeds the Ray query AND the
# generated SQL oracle so the two sides cannot drift ("dup" is the
# corpus's one rare term, the middle three are common with distinct
# df, "nosuchterm" pins the df=0 / tf=0 path)
_BM25_TERMS = ["dup", "merge", "hash", "window", "nosuchterm"]
_BM25_K = 25
_BM25_SCALE = 1000


def q_bm25_docs(sf_dir: str):
    """BM25 ranked retrieval (Robertson's Okapi BM25, exact-integer
    oracle-parity mode — `stages/bm25.py`): top-25 docs by relevance to
    a fixed query. Two-pass shape: a |query|+2-counter corpus census
    (N, total tokens, per-term df — the only driver collect, bounded by
    the QUERY size), then vectorized integer scoring with per-batch
    top-k pruning before the global sort+limit. Subsumes
    doc_freq_terms' df semantics (its CTE is embedded in this oracle)
    and the O2 sort+limit shape."""
    from ..stages.bm25 import bm25_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bm25_topk(ds, _BM25_TERMS, k=_BM25_K, scale=_BM25_SCALE)


def _sql_bm25_docs() -> str:
    vals = ", ".join(f"('{t}')" for t in _BM25_TERMS)
    # integer-exact BM25 with k1=6/5, b=3/4 and the linear rarity
    # weight w = N - df: per-term score (scaled, floored) is
    #   (22·w·tf·T·scale) // (10·tf·T + 3·T + 9·dl·N)
    # — the same expression stages/bm25.py computes in int64 numpy
    return f"""
WITH stats AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS t
  FROM documents WHERE text IS NOT NULL),
q(term) AS (VALUES {vals}),
dfx AS (
  SELECT q.term, CAST(COUNT(d.doc_id) AS BIGINT) AS df
  FROM q LEFT JOIN (SELECT DISTINCT doc_id,
                           unnest(string_split(text, ' ')) AS term
                    FROM documents WHERE text IS NOT NULL) d USING (term)
  GROUP BY q.term),
tf AS (
  SELECT d.doc_id, q.term,
         CAST(len(list_filter(string_split(d.text, ' '),
                              x -> x = q.term)) AS BIGINT) AS tf,
         CAST(len(string_split(d.text, ' ')) AS BIGINT) AS dl
  FROM documents d CROSS JOIN q WHERE d.text IS NOT NULL),
scored AS (
  SELECT tf.doc_id,
         CAST(SUM((22 * (s.n - dfx.df) * tf.tf * s.t * {_BM25_SCALE})
              // (10 * tf.tf * s.t + 3 * s.t + 9 * tf.dl * s.n))
              AS BIGINT) AS score_q
  FROM tf JOIN dfx USING (term) CROSS JOIN stats s
  GROUP BY tf.doc_id)
SELECT doc_id, score_q FROM scored
ORDER BY score_q DESC, doc_id ASC
LIMIT {_BM25_K}
"""


SQL_BM25_DOCS = _sql_bm25_docs()


def q_pack_docs(sf_dir: str):
    """Sequence packing: greedy token-budget (256) bin assignment in
    doc_id order within 64-doc pack groups (`stages/pack.py`).  Only
    compact (doc_id, group, tok) rows shuffle; the sequential greedy
    loop is bounded by the group width.  The SQL oracle replays the
    same greedy recurrence with a recursive CTE."""
    from ..stages.pack import pack_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pack_documents(ds, budget=256, group_width=64)


SQL_PACK_DOCS = """
WITH RECURSIVE t AS (
  SELECT doc_id, doc_id // 64 AS pack_group,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS tok,
         row_number() OVER (PARTITION BY doc_id // 64 ORDER BY doc_id)
           AS rn
  FROM documents
), packed AS (
  SELECT pack_group, rn, doc_id, tok,
         CAST(0 AS BIGINT) AS bin_idx, tok AS bin_tok
  FROM t WHERE rn = 1
  UNION ALL
  SELECT t.pack_group, t.rn, t.doc_id, t.tok,
         CASE WHEN p.bin_tok + t.tok > 256 THEN p.bin_idx + 1
              ELSE p.bin_idx END,
         CASE WHEN p.bin_tok + t.tok > 256 THEN t.tok
              ELSE p.bin_tok + t.tok END
  FROM packed p JOIN t ON t.pack_group = p.pack_group AND t.rn = p.rn + 1
)
SELECT doc_id, pack_group, bin_idx, tok FROM packed
"""


def q_pii_redact_docs(sf_dir: str):
    """PII redaction over documents ∪ a deterministic inline PII corpus
    (testdata has no PII, so the inline rows exercise the match path
    while the corpus exercises the at-volume no-match path).  RE2 on
    both sides; oracle SQL generated from the same constants
    (`functions/pii.py`)."""
    import ray as _ray

    from ..functions.pii import PII_BASE, PII_LINES, redact_pii

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"row_id": batch.column("doc_id"),
                         "text": batch.column("text")})

    corpus = docs.map_batches(to_rows, batch_format="pyarrow")
    inline = _ray.data.from_arrow(pa.table({
        "row_id": pa.array([PII_BASE + i for i in range(len(PII_LINES))],
                           pa.int64()),
        "text": pa.array(PII_LINES, pa.string()),
    }))
    return redact_pii(corpus.union(inline))


def _sql_pii_redact_docs() -> str:
    from ..functions.pii import pii_oracle_sql

    return pii_oracle_sql()


SQL_PII_REDACT_DOCS = _sql_pii_redact_docs()


def q_stratified_sample_docs(sf_dir: str):
    """Stratified (per-group-rate) deterministic sampling: keep 50% of
    'en', 10% of 'zh', 25% of other langs by modulo bucketing; returns
    kept-count per lang.  `stages/sample.py::stratified_sample` — pure
    per-row predicate, no shuffle."""
    from ..stages.sample import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    kept = stratified_sample(ds, "doc_id", "lang",
                             rates={"en": 50, "zh": 10},
                             default_percent=25, method="modulo")
    return counts_by(kept, ["lang"], alias="n")


SQL_STRATIFIED_SAMPLE_DOCS = """
SELECT lang, COUNT(*) AS n FROM documents
WHERE doc_id % 100 < CASE lang WHEN 'en' THEN 50
                               WHEN 'zh' THEN 10 ELSE 25 END
GROUP BY lang
"""


def q_kmeans_embeddings(sf_dir: str):
    """Distributed quantized Lloyd k-means (k=8, 3 iterations,
    deterministic min-id init) over the embeddings table; returns the
    final (vec_id, cluster) assignment.  `stages/kmeans.py` — centroids
    broadcast per iteration, per-batch partial sums, corpus never
    shuffles; oracle SQL is GENERATED unrolled from the same
    constants."""
    from ..stages.kmeans import kmeans_fit_predict

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_fit_predict(ds, k=8, iters=3)


def _sql_kmeans_embeddings() -> str:
    from ..stages.kmeans import kmeans_oracle_sql

    return kmeans_oracle_sql(k=8, iters=3)


SQL_KMEANS_EMBEDDINGS = _sql_kmeans_embeddings()


def q_semdedup_embeddings(sf_dir: str):
    """SemDeDup-style semantic near-dup pairs: distributed k-means
    (same fit+assign as ``kmeans_embeddings`` — that query's machinery
    is a strict subset of this one) then exact cosine pairs WITHIN each
    cluster only; one shuffle moves each vector once. τ=0.4 sits in a
    measured gap of the within-cluster sim distribution (min |s-τ| ≥
    2.5e-5 across sf0.001–0.1 — far above double-precision drift vs
    DuckDB ``list_cosine_similarity``)."""
    from ..stages.dedup import semdedup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semdedup_pairs(ds, threshold=0.4, k=8, iters=3)


def _sql_semdedup_embeddings() -> str:
    from ..stages.kmeans import kmeans_oracle_sql

    return f"""
WITH assign AS (
{kmeans_oracle_sql(k=8, iters=3)}
)
SELECT a1.cluster, a1.vec_id AS doc_a, a2.vec_id AS doc_b
FROM assign a1
JOIN assign a2 ON a1.cluster = a2.cluster AND a2.vec_id > a1.vec_id
JOIN embeddings e1 ON e1.vec_id = a1.vec_id
JOIN embeddings e2 ON e2.vec_id = a2.vec_id
WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                             CAST(e2.embedding AS DOUBLE[])) >= 0.4
"""


SQL_SEMDEDUP_EMBEDDINGS = _sql_semdedup_embeddings()


def q_grouped_quantiles_events(sf_dir: str):
    """Exact grouped p50/p90/p99 of value (in cents) per event_type:
    per-batch (group, quantized, count) partials shuffle — never raw
    values (`stages/sketch.py::grouped_quantiles`).  quantile_disc
    convention, half-up cent quantization identical on both sides."""
    from ..stages.sketch import grouped_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles(ds, "event_type", "value",
                             {"p50_cents": 0.5, "p90_cents": 0.9,
                              "p99_cents": 0.99})


SQL_GROUPED_QUANTILES_EVENTS = """
SELECT event_type,
       quantile_disc(c, 0.5)  AS p50_cents,
       quantile_disc(c, 0.9)  AS p90_cents,
       quantile_disc(c, 0.99) AS p99_cents
FROM (SELECT event_type,
             CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c
      FROM events WHERE NOT isnan(value) AND value IS NOT NULL)
GROUP BY event_type
"""


def q_inverted_index_docs(sf_dir: str):
    """Sharded inverted index: (term, doc-range shard) → sorted postings
    CSV + count.  Sharding by doc_id // 1000 bounds every group (a hot
    term like a stopword otherwise collects the whole corpus in one
    task); postings stay ordered within shards, so a reader merges
    shard files in shard order.  Per-batch per-doc-unique explode is
    the only wide work; only compact (term, doc_id) rows shuffle."""
    import polars as pl

    from ray.data.aggregate import Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def term_rows(batch: pa.Table) -> pa.Table:
        # null text → zero postings (same null-explode trap as
        # doc_freq: the oracle's unnest of a NULL split is zero rows)
        df = pl.from_arrow(batch.select(["doc_id", "text"])) \
            .filter(pl.col("text").is_not_null())
        out = (df.with_columns(
                   pl.col("text").str.split(" ").list.unique().alias("_t"))
               .select(["doc_id", "_t"])
               .explode("_t")
               .filter(pl.col("_t").is_not_null()))
        return pa.table({
            "term": out["_t"].to_arrow().cast(pa.string()),
            "doc_id": out["doc_id"].to_arrow().cast(pa.int64()),
            "shard": (out["doc_id"] // 1000).to_arrow().cast(pa.int64()),
        })

    rows = ds.map_batches(term_rows, batch_format="pyarrow")

    def postings(g: pa.Table) -> pa.Table:
        ids = np.sort(g.column("doc_id").to_numpy(zero_copy_only=False))
        return pa.table({
            "term": g.column("term").slice(0, 1),
            "shard": g.column("shard").slice(0, 1),
            "postings": pa.array([",".join(map(str, ids))], pa.string()),
            "n": pa.array([len(ids)], pa.int64()),
        })

    return rows.groupby(["term", "shard"]).map_groups(
        postings, batch_format="pyarrow")


SQL_INVERTED_INDEX_DOCS = """
SELECT term, doc_id // 1000 AS shard,
       array_to_string(list(doc_id ORDER BY doc_id), ',') AS postings,
       COUNT(*) AS n
FROM (SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS term
      FROM documents)
GROUP BY term, doc_id // 1000
"""


def q_bloom_join(sf_dir: str):
    """Large⋈large shuffle join (``sharded_inner_join``) with a
    BLOOM-PREFILTERED probe side
    (`stages/bloom.py`): one pass over the filtered orders builds a
    1 MiB mergeable bit array, broadcast once; lineitem rows whose
    orderkey is definitely absent drop BEFORE the shuffle, and bloom
    false positives are discarded by the join itself — result is
    exactly the plain join's.  The shuffle-volume reduction is the
    point at 100 TB; correctness is oracle-identical to an unfiltered
    join."""
    import ray as _ray

    from ..functions.cogroup import sharded_inner_join
    from ..stages.bloom import bloom_prefilter, build_bloom

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.filter(pc.equal(b["o_orderstatus"], "F")),
        batch_format="pyarrow", zero_copy_batch=True)
    # materialized: build_bloom's full pass AND the join's build side
    # both consume this lineage — without the barrier the parquet read
    # + status filter execute twice (the repo's multi-consumer rule)
    orders = orders.materialize()
    lines = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    bloom = build_bloom(orders, "o_orderkey")
    ref = _ray.put(bloom)
    pruned = bloom_prefilter(lines, "l_orderkey", ref)
    joined = sharded_inner_join(
        pruned, orders, "l_orderkey", "o_orderkey",
        {"l_quantity": pa.float64()}, {"o_orderpriority": pa.string()}, 16)

    def to_parts(batch: pa.Table) -> pa.Table:
        qty = pc.cast(as_combined(batch["l_quantity"]), pa.int64())
        return pa.table({"o_orderpriority": batch["o_orderpriority"],
                         "qty": qty})

    parts = joined.map_batches(to_parts, batch_format="pyarrow")
    return grouped_sum(parts, ["o_orderpriority"], "qty", alias="sum_qty")


SQL_BLOOM_JOIN = """
SELECT o_orderpriority,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderstatus = 'F'
GROUP BY o_orderpriority
"""


def q_asof_forward_events(sf_dir: str):
    """FORWARD as-of join (earliest error at-or-after each event) —
    the direction mirror of asof_join_events, same pure-Arrow
    searchsorted co-group (`stages/asof.py`, direction='forward');
    oracle via DuckDB ASOF JOIN with the reversed inequality."""
    from ..stages.asof import asof_join_backward
    from ..stages.filters import DropStage

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    left = ev.map_batches(
        DropStage([("in", "event_type", ["click", "view"])], mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    right = ev.map_batches(
        DropStage([("eq", "event_type", "error")], mode="keep"),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = asof_join_backward(left, right, key="user_id", on="ts",
                                right_values=[], direction="forward")

    def finish(batch: pa.Table) -> pa.Table:
        err_us = pc.cast(pc.cast(as_combined(batch["ts_r"]),
                                 pa.timestamp("us")), pa.int64())
        return pa.table({
            "event_id": as_combined(batch["event_id"]),
            "err_ts_us": err_us,
        })

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_ASOF_FORWARD_EVENTS = """
WITH l AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type IN ('click', 'view')),
     r AS (SELECT user_id, ts FROM events WHERE event_type = 'error')
SELECT l.event_id,
       CAST(epoch_us(r.ts) AS BIGINT) AS err_ts_us
FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts <= r.ts
"""


def q_heavy_hitters_terms(sf_dir: str):
    """Misra–Gries heavy hitters over all term occurrences
    (`stages/sketch.py::heavy_hitters`): per-batch vectorized counts +
    MG compress, ≤ k rows shuffle per block.  The synthetic vocabulary
    (31 terms) is ≤ k=64, so the sketch is EXACT here and the oracle is
    a plain GROUP BY; the error bound n/(k+1) governs the general
    case."""
    import polars as pl

    ds = _read(sf_dir, "documents", ["text"])

    def terms(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["text"]))
        out = (df.with_columns(pl.col("text").str.split(" ").alias("_t"))
               .select("_t").explode("_t"))
        return pa.table({"term": out["_t"].to_arrow().cast(pa.string())})

    from ..stages.sketch import heavy_hitters

    rows = ds.map_batches(terms, batch_format="pyarrow")
    out = heavy_hitters(rows, "term", k=64, min_count=5)
    return out.rename(columns={"v": "term"})


SQL_HEAVY_HITTERS_TERMS = """
SELECT term, COUNT(*) AS est_count
FROM (SELECT unnest(string_split(text, ' ')) AS term FROM documents)
GROUP BY term HAVING COUNT(*) >= 5
"""


def q_quantize_embeddings(sf_dir: str):
    """Symmetric per-vector int8 quantization of the embedding column
    (`stages/ann.py::quantize_embeddings_int8`); integer summary per
    vector compared bit-exact against the same math in SQL (ROUND
    half-away, identical float64 op order)."""
    from ..stages.ann import quantize_embeddings_int8

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return quantize_embeddings_int8(ds)


SQL_QUANTIZE_EMBEDDINGS = """
WITH q AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(CASE WHEN s = 0 THEN 0
                                  ELSE ROUND(x * 127 / s) END AS BIGINT))
           AS ql
  FROM (SELECT vec_id, embedding,
               list_max(list_transform(CAST(embedding AS DOUBLE[]),
                                       x -> abs(x))) AS s
        FROM embeddings)
)
SELECT vec_id,
       CAST(list_sum(ql) AS BIGINT) AS qsum,
       CAST(list_sum(list_transform(ql, x -> abs(x))) AS BIGINT) AS ql1,
       CAST(list_min(ql) AS BIGINT) AS qmin,
       CAST(list_max(ql) AS BIGINT) AS qmax
FROM q
"""


def q_spike_hours_events(sf_dir: str):
    """Log-analytics spike detection (the alerting pass of a log
    pipeline): hours where an event type's count exceeds 2× its
    trailing 3-bucket average — INTEGER compare (n·3 > 2·Σ previous 3)
    so the oracle hash is exact. Pre-aggregated hourly counts shuffle
    (tiny); the trailing window runs per event_type on the aggregated
    table (rows = distinct hours — time-bounded, fine in one task per
    type even at 10¹² events). ROWS semantics: the trailing window is
    over the previous 3 NON-EMPTY hour buckets, identical on both
    sides."""
    import pandas as pd

    from ..stages.window import tumbling_window_counts

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    hc = tumbling_window_counts(ds, "event_type", "ts", window="hour")

    def spikes(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.rename(columns={"window_start": "ts_hour"})
        g = g.sort_values("ts_hour").reset_index(drop=True)
        n = g["n"].to_numpy()
        c = np.concatenate(([0], np.cumsum(n)))
        i = np.arange(len(n))
        trail = c[i] - c[np.maximum(i - 3, 0)]
        mask = (i >= 3) & (n * 3 > 2 * trail)
        out = g[mask].copy()
        out["trail3"] = trail[mask]
        return out

    return hc.groupby("event_type").map_groups(spikes,
                                               batch_format="pandas")


SQL_SPIKE_HOURS_EVENTS = """
WITH hc AS (
  SELECT event_type, date_trunc('hour', ts) AS ts_hour,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2),
w AS (
  SELECT event_type, ts_hour, n,
         CAST(COALESCE(SUM(n) OVER tw, 0) AS BIGINT) AS trail3,
         COUNT(*) OVER tw AS nprev
  FROM hc
  WINDOW tw AS (PARTITION BY event_type ORDER BY ts_hour
                ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING))
SELECT event_type, ts_hour, n, trail3 FROM w
WHERE nprev = 3 AND n * 3 > 2 * trail3
"""


def q_topk_users_events(sf_dir: str):
    """Top-5 most active users per event type — pre-aggregated
    (event_type, user_id) counts feeding `grouped_topk` (literal
    operator reuse: the combiner/merge machinery is the same as the
    per-language document top-k)."""
    from ..stages.aggregate import grouped_topk

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    counts = counts_by(ds, ["event_type", "user_id"], alias="n")
    return grouped_topk(counts, "event_type", "n", "user_id", k=5)


SQL_TOPK_USERS_EVENTS = """
SELECT event_type, n, user_id, CAST(rn AS BIGINT) AS rank
FROM (SELECT event_type, user_id, n,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY n DESC, user_id) AS rn
      FROM (SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY 1, 2))
WHERE rn <= 5
"""


def q_bpe_encode_docs(sf_dir: str):
    """Exact per-document BPE token counts with the 4 learned merges
    (`stages/bpe.py::bpe_token_counts`) — the encode side of tokenizer
    training: train on the distinct-word set, broadcast the
    word→token-length map once, second streaming corpus pass with a
    vectorized polars join."""
    from ..stages.bpe import bpe_token_counts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return bpe_token_counts(ds, rounds=4)


def _sql_bpe_encode_docs() -> str:
    from ..stages.bpe import bpe_encode_oracle_sql

    return bpe_encode_oracle_sql(rounds=4)


SQL_BPE_ENCODE_DOCS = _sql_bpe_encode_docs()


def q_funnel_users_events(sf_dir: str):
    """Funnel / conversion analysis: users whose FIRST signup precedes
    their FIRST purchase, with both timestamps. Shape: per-batch
    conditional-min partials (CASE-masked ts, one Arrow hash-agg per
    batch) → one small (user, 2 mins) groupby → vectorized compare.
    Only (user_id, 2 timestamps) rows ever shuffle."""
    from ray.data.aggregate import Min

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        # aggregate on int64 MICROSECONDS, not timestamps: Ray's Min
        # materializes values as Python objects when combining, and
        # datetime values can't rebuild a timestamp Arrow array there —
        # the block silently degrades to pickled-object columns. The
        # us-cast first pins the unit (a ns-written parquet would
        # otherwise be relabeled us downstream, 1000× off).
        ts = pc.cast(pc.cast(batch["ts"], pa.timestamp("us")),
                     pa.int64())
        masked = pa.table({
            "user_id": batch["user_id"],
            "ts_signup": pc.if_else(pc.equal(et, pa.scalar("signup")),
                                    ts, pa.nulls(batch.num_rows,
                                                 pa.int64())),
            "ts_purchase": pc.if_else(pc.equal(et, pa.scalar("purchase")),
                                      ts, pa.nulls(batch.num_rows,
                                                   pa.int64())),
        })
        p = masked.group_by(["user_id"]).aggregate(
            [("ts_signup", "min"), ("ts_purchase", "min")])
        return p.select(["user_id", "ts_signup_min", "ts_purchase_min"]) \
            .rename_columns(["user_id", "ts_signup", "ts_purchase"])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    mins = parts.groupby("user_id").aggregate(
        Min("ts_signup", alias_name="ts_signup"),
        Min("ts_purchase", alias_name="ts_purchase"))

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.and_(pc.is_valid(batch["ts_signup"]),
                            pc.is_valid(batch["ts_purchase"])),
                    pc.less(batch["ts_signup"], batch["ts_purchase"]))
        t = batch.filter(pc.fill_null(m, False))
        return pa.table({
            "user_id": t["user_id"],
            "ts_signup": pc.cast(t["ts_signup"], pa.timestamp("us")),
            "ts_purchase": pc.cast(t["ts_purchase"], pa.timestamp("us")),
        })

    return mins.map_batches(keep, batch_format="pyarrow")


SQL_FUNNEL_USERS_EVENTS = """
SELECT user_id,
       MIN(CASE WHEN event_type = 'signup' THEN ts END) AS ts_signup,
       MIN(CASE WHEN event_type = 'purchase' THEN ts END) AS ts_purchase
FROM events GROUP BY 1
HAVING ts_signup IS NOT NULL AND ts_purchase IS NOT NULL
   AND ts_signup < ts_purchase
"""


def q_zscore_filter_docs(sf_dir: str):
    """Per-language σ-outlier removal on n_chars
    (`stages/profile.py::grouped_zscore_filter`): keep docs with
    |x − μ_lang| ≤ 2σ_lang, computed in EXACT integer arithmetic
    ((x·n − S)² ≤ z²(n·Σx² − S²)) so no float rounding can diverge
    from the SQL side."""
    from ..stages.profile import grouped_zscore_filter

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return grouped_zscore_filter(ds, "lang", "n_chars", z=2)


# the same integer inequality, grouped stats via a window — no float
# AVG/STDDEV on either side
SQL_ZSCORE_FILTER_DOCS = """
SELECT doc_id, lang, n_chars
FROM (
  SELECT doc_id, lang, n_chars,
         COUNT(*) OVER w AS n,
         SUM(n_chars) OVER w AS s,
         SUM(n_chars * n_chars) OVER w AS s2
  FROM documents
  WHERE lang IS NOT NULL AND n_chars IS NOT NULL
  WINDOW w AS (PARTITION BY lang))
WHERE (n_chars * n + (-1) * s) * (n_chars * n + (-1) * s)
      <= 4 * (n * s2 + (-1) * s * s)
"""


def q_bpe_merges_docs(sf_dir: str):
    """Distributed BPE tokenizer training (`stages/bpe.py`): the first
    4 merge rules learned from the corpus. The working set is the
    distinct-word table; per round one small (lhs, rhs) pair-count
    groupby, a per-block partial argmax, and a vectorized Arrow merge
    application — the corpus is read once."""
    from ..stages.bpe import bpe_train

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_train(ds, rounds=4)


def _sql_bpe_merges_docs() -> str:
    from ..stages.bpe import bpe_oracle_sql

    return bpe_oracle_sql(rounds=4)


SQL_BPE_MERGES_DOCS = _sql_bpe_merges_docs()


def q_bpe_vocab_docs(sf_dir: str):
    """Token-frequency top-20 after applying the 4 learned BPE merges
    (`stages/bpe.py::bpe_vocab`) — the vocabulary statistics a
    tokenizer-training pipeline reports."""
    from ..stages.bpe import bpe_vocab

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_vocab(ds, rounds=4, top=20)


def _sql_bpe_vocab_docs() -> str:
    from ..stages.bpe import bpe_vocab_oracle_sql

    return bpe_vocab_oracle_sql(rounds=4, top=20)


SQL_BPE_VOCAB_DOCS = _sql_bpe_vocab_docs()


def q_segment_dedup_docs(sf_dir: str):
    """Segment-level exact dedup (`stages/segdedup.py` — the
    aligned-window analog of exact substring dedup): drop repeated
    20-word windows corpus-wide keeping first occurrences, rebuild each
    doc from its surviving segments. Two streaming passes; only
    (hash, packed-position) pairs shuffle; documents never move."""
    from ..stages.segdedup import segment_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return segment_dedup(ds, size=20)


# MAX_SEGS packing constant (1 << 20) is inlined below; `keep` groups by
# EXACT segment text where the Ray side groups by its 64-bit hash —
# identical modulo hash collisions (odds ~n²/2⁶⁵ at test scale).
SQL_SEGMENT_DEDUP_DOCS = """
WITH segs AS (
  SELECT doc_id,
         CAST((g - 1) / 20 AS BIGINT) AS seg_idx,
         array_to_string(list_slice(words, g, g + 19), ' ') AS seg_text
  FROM (SELECT doc_id, words,
               unnest(range(1, CAST(n AS BIGINT) + 1, 20)) AS g
        FROM (SELECT doc_id, string_split(text, ' ') AS words,
                     len(string_split(text, ' ')) AS n
              FROM documents WHERE text IS NOT NULL) w)),
keep AS (
  SELECT seg_text, MIN(doc_id * 1048576 + seg_idx) AS pk
  FROM segs GROUP BY 1),
kept AS (
  SELECT s.doc_id, s.seg_idx, s.seg_text
  FROM segs s JOIN keep k
    ON s.seg_text = k.seg_text
   AND s.doc_id * 1048576 + s.seg_idx = k.pk),
agg AS (
  SELECT doc_id, string_agg(seg_text, ' ' ORDER BY seg_idx) AS txt,
         CAST(COUNT(*) AS BIGINT) AS n_kept
  FROM kept GROUP BY 1),
tot AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_segs
  FROM segs GROUP BY 1)
SELECT t.doc_id, COALESCE(a.txt, '') AS text, t.n_segs,
       COALESCE(a.n_kept, 0) AS n_kept
FROM tot t LEFT JOIN agg a USING (doc_id)
"""


def q_cdc_dedup_docs(sf_dir: str):
    """Segment dedup with CONTENT-DEFINED chunk boundaries
    (`stages/segdedup.py` mode="cdc" / `stages/chunk.py::cdc_chunk_fn`):
    a chunk ends after any word whose 64-bit hash ≡ 0 (mod 20), so
    boundaries re-synchronize after insertions and a shifted duplicate
    still dedups — closing the aligned-grid blindspot pinned in
    tests/test_segdedup_topk.py. md5 anchor mode mirrors DuckDB's
    ``md5_number_lower`` so the oracle recomputes identical
    boundaries. Same two-pass keeper/broadcast/scrub machinery as
    segment_dedup_docs; documents never shuffle."""
    from ..stages.segdedup import segment_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return segment_dedup(ds, size=20, mode="cdc", token_hash="md5")


# Chunk index = number of anchor words strictly before this word in the
# doc (the anchor ends its own chunk); anchors via md5_number_lower —
# bit-identical to the Ray side's md5 token-hash mode. keep groups by
# EXACT chunk text where the Ray side uses its 64-bit hash (collision
# odds ~n²/2⁶⁵ at test scale), packing constant 1 << 20 as in the
# aligned oracle.
SQL_CDC_DEDUP_DOCS = """
WITH tok AS (
  SELECT doc_id, i, w[i] AS word,
         CASE WHEN md5_number_lower(w[i]) % 20 = 0 THEN 1 ELSE 0 END AS a
  FROM (SELECT doc_id, string_split(text, ' ') AS w
        FROM documents WHERE text IS NOT NULL),
       unnest(range(1, len(w) + 1)) t(i)),
ch AS (
  SELECT doc_id, i, word,
         SUM(a) OVER (PARTITION BY doc_id ORDER BY i) - a AS cidx
  FROM tok),
segs AS (
  SELECT doc_id, CAST(cidx AS BIGINT) AS seg_idx,
         string_agg(word, ' ' ORDER BY i) AS seg_text
  FROM ch GROUP BY 1, 2),
keep AS (
  SELECT seg_text, MIN(doc_id * 1048576 + seg_idx) AS pk
  FROM segs GROUP BY 1),
kept AS (
  SELECT s.doc_id, s.seg_idx, s.seg_text
  FROM segs s JOIN keep k
    ON s.seg_text = k.seg_text
   AND s.doc_id * 1048576 + s.seg_idx = k.pk),
agg AS (
  SELECT doc_id, string_agg(seg_text, ' ' ORDER BY seg_idx) AS txt,
         CAST(COUNT(*) AS BIGINT) AS n_kept
  FROM kept GROUP BY 1),
tot AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_segs
  FROM segs GROUP BY 1)
SELECT t.doc_id, COALESCE(a.txt, '') AS text, t.n_segs,
       COALESCE(a.n_kept, 0) AS n_kept
FROM tot t LEFT JOIN agg a USING (doc_id)
"""


def q_topk_per_lang_docs(sf_dir: str):
    """Per-group top-k (`stages/aggregate.py::grouped_topk`): the 5
    largest docs per language by (n_chars DESC, doc_id ASC) with a
    row_number rank. Per-batch combiner bounds the shuffle to
    k × blocks rows per group."""
    from ..stages.aggregate import grouped_topk

    ds = _read(sf_dir, "documents", ["lang", "doc_id", "n_chars"])
    return grouped_topk(ds, "lang", "n_chars", "doc_id", k=5)


SQL_TOPK_PER_LANG_DOCS = """
SELECT lang, n_chars, doc_id, CAST(rn AS BIGINT) AS rank
FROM (SELECT lang, doc_id, n_chars,
             row_number() OVER (PARTITION BY lang
                                ORDER BY n_chars DESC, doc_id) AS rn
      FROM documents
      WHERE lang IS NOT NULL AND n_chars IS NOT NULL
        AND doc_id IS NOT NULL)
WHERE rn <= 5
"""


def q_quality_threshold_docs(sf_dir: str):
    """Corpus-relative quality gate (the shape of CCNet's
    perplexity-quartile filtering, with an exact corpus statistic):
    keep docs with n_chars ≥ the corpus p25. Pass 1 reduces to
    (value, count) partials — distinct-value bounded, never rows — and
    the exact quantile_disc threshold (element at ceil(n·q)−1 of the
    sorted multiset, DuckDB's convention) is computed from the merged
    counts; pass 2 is a broadcast-scalar filter that streams."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(["n_chars"]).drop_null()
        p = t.group_by(["n_chars"]).aggregate([([], "count_all")])
        return p.select(["n_chars", "count_all"]) \
            .rename_columns(["n_chars", "cnt"])

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("n_chars").aggregate(Sum("cnt", alias_name="cnt"))
    vs, cs = [], []
    for b in counts.iter_batches(batch_format="pyarrow"):
        vs.append(b.column("n_chars").to_numpy(zero_copy_only=False))
        cs.append(b.column("cnt").to_numpy(zero_copy_only=False))
    v = np.concatenate(vs) if vs else np.zeros(0, np.int64)
    c = np.concatenate(cs) if cs else np.zeros(0, np.int64)
    if v.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_chars": pa.array([], pa.int64())})
    o = np.argsort(v, kind="stable")
    v, c = v[o], c[o]
    n = int(c.sum())
    idx = (n + 3) // 4 - 1  # ceil(n * 0.25) - 1, integer math
    thr = int(v[np.searchsorted(np.cumsum(c), idx + 1)])

    def keep(batch: pa.Table) -> pa.Table:
        col = batch["n_chars"]
        mask = pc.fill_null(pc.greater_equal(col, pa.scalar(thr)), False)
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


SQL_QUALITY_THRESHOLD_DOCS = """
SELECT doc_id, n_chars FROM documents
WHERE n_chars >= (SELECT quantile_disc(n_chars, 0.25) FROM documents)
"""


def q_log_templates_docs(sf_dir: str):
    """Log-template mining (Drain-family, `stages/templates.py`): group
    lines by (token_count, first_token), keep a position literal iff
    every group member agrees on it, else wildcard `<*>`; one row per
    template with its document count. Only (group, pos, min, max, cnt)
    partials shuffle — bounded by template structure, not corpus size —
    and the merge runs on hash(group) % merge_shards (the
    throttle/multiline group-count discipline)."""
    from ..stages.templates import mine_templates

    ds = _read(sf_dir, "documents", ["text"])
    return mine_templates(ds, text_field="text")


SQL_LOG_TEMPLATES_DOCS = """
WITH base AS (
  SELECT string_split(text, ' ') AS ts,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n,
         string_split(text, ' ')[1] AS tok0
  FROM documents WHERE text IS NOT NULL
), pos AS (
  SELECT n, tok0, unnest(ts) AS tok,
         unnest(range(1, CAST(len(ts) AS BIGINT) + 1)) AS p
  FROM base
), agg AS (
  SELECT n, tok0, p,
         CASE WHEN MIN(tok) = MAX(tok) THEN MIN(tok)
              ELSE '<*>' END AS piece
  FROM pos GROUP BY n, tok0, p
), tmpl AS (
  SELECT n, tok0, string_agg(piece, ' ' ORDER BY p) AS template
  FROM agg GROUP BY n, tok0
), cnt AS (
  SELECT n, tok0, COUNT(*) AS n_docs FROM base GROUP BY n, tok0
)
SELECT t.n AS n_tokens, t.template, c.n_docs
FROM tmpl t JOIN cnt c ON t.n = c.n AND t.tok0 = c.tok0
"""


def q_contamination_overlap_docs(sf_dir: str):
    """GPT-3-style contamination overlap
    (`stages/decontaminate.py::contamination_overlap`): per doc, the
    distinct 8-word-gram count and how many of those grams appear in
    the benchmark set (the same deterministic doc_id%97 stand-in
    benchmark as decontaminate_docs — that query counts blocklist
    grams contained as substrings; this one measures the doc-side
    overlap fraction). Shuffle-free: a doc is one row, grams are built
    with n shifted polars columns per batch, membership is an exact
    string join against the broadcast bench frame."""
    from ..stages.decontaminate import contamination_overlap

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return contamination_overlap(ds)


SQL_CONTAMINATION_OVERLAP_DOCS = """
WITH docs AS (
  SELECT doc_id, string_split(text, ' ') AS ts
  FROM documents WHERE text IS NOT NULL
), bench AS (
  SELECT DISTINCT array_to_string(list_slice(ts, 1, 8), ' ') AS gram
  FROM docs WHERE doc_id % 97 = 0 AND len(ts) >= 8
), g AS (
  SELECT doc_id, array_to_string(list_slice(ts, p, p + 7), ' ') AS gram
  FROM (SELECT doc_id, ts,
               unnest(range(1, CAST(len(ts) AS BIGINT) - 6)) AS p
        FROM docs)
), cnt AS (
  SELECT doc_id, COUNT(DISTINCT gram) AS n_grams,
         COUNT(DISTINCT CASE WHEN gram IN (SELECT gram FROM bench)
                             THEN gram END) AS n_matched
  FROM g GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(c.n_grams, 0) AS n_grams,
       COALESCE(c.n_matched, 0) AS n_matched
FROM docs d LEFT JOIN cnt c USING (doc_id)
"""


def q_retention_users_events(sf_dir: str):
    """Cohort retention — the classic log-analytics rollup: cohort a
    user by their first active day, then count distinct users active
    at each (cohort_day, day_offset). One shuffle total: batches
    reduce to distinct (user, epoch-day) pairs (compact partials, never
    rows), the per-user min and offsets are computed inside
    hash(user) % merge_shards groups with the per-user work vectorized
    across each shard (`min().over(user)`), and per-shard
    (cohort, offset) count partials finish in a tiny grouped sum.
    Days are int64 epoch days so no timestamp formatting can drift
    between the Ray and SQL sides."""
    import polars as pl

    from ..stages.aggregate import grouped_sum
    from ..stages.window import user_day_pairs_partial

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    merge_shards = 64
    # THE shared user-activity partial (also drives rolling_active_users)
    partial = user_day_pairs_partial(merge_shards=merge_shards)

    def final_shard(g: pa.Table) -> pa.Table:
        df = (pl.from_arrow(g).drop("_shard")
              .unique(["user_id", "day"]))
        df = df.with_columns(
            pl.col("day").min().over("user_id").alias("cohort_day"))
        out = (df.with_columns(
                   (pl.col("day") - pl.col("cohort_day"))
                   .alias("day_offset"))
               .group_by(["cohort_day", "day_offset"])
               .agg(pl.len().cast(pl.Int64).alias("n_users")))
        return out.to_arrow()

    parts = ds.map_batches(partial, batch_format="pyarrow")
    shard_counts = parts.groupby("_shard").map_groups(
        final_shard, batch_format="pyarrow")
    return grouped_sum(shard_counts, ["cohort_day", "day_offset"],
                       "n_users", alias="n_users")


SQL_RETENTION_USERS_EVENTS = """
WITH ud AS (
  SELECT DISTINCT user_id,
         datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS day
  FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
), cohort AS (
  SELECT user_id, MIN(day) AS cohort_day FROM ud GROUP BY user_id
)
SELECT c.cohort_day, u.day - c.cohort_day AS day_offset,
       COUNT(*) AS n_users
FROM ud u JOIN cohort c USING (user_id)
GROUP BY 1, 2
"""


def q_rollup_docs(sf_dir: str):
    """Multi-level ROLLUP counts (`stages/aggregate.py::rollup_counts`):
    one row per (lang, source), per lang subtotal, and the grand total
    — the dashboard drill-down rollup. One corpus pass, one reduce:
    each batch runs the level cascade locally (finest hash-aggregate,
    then each coarser level re-aggregates the previous level's
    key-bounded result) and a single tree reduce over the
    sentinel-padded key space finishes every level together. Sentinels
    'ALL' stand in for SQL's NULL rollup markers (mirrored with
    COALESCE in the oracle)."""
    from ..stages.aggregate import rollup_counts

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return rollup_counts(ds, ["lang", "source"], alias="n",
                         sentinels={"lang": "ALL", "source": "ALL"})


SQL_ROLLUP_DOCS = """
SELECT COALESCE(lang, 'ALL') AS lang, COALESCE(source, 'ALL') AS source,
       COUNT(*) AS n
FROM documents WHERE lang IS NOT NULL AND source IS NOT NULL
GROUP BY ROLLUP (lang, source)
"""


def q_cube_docs(sf_dir: str):
    """GROUP BY CUBE counts (`stages/aggregate.py::cube_counts`): all
    four (lang, source) subsets — the rollup's sibling that adds the
    source-only subtotal. Same one-pass/one-reduce shape as
    `rollup_docs`; every subset re-aggregates the per-batch full-key
    aggregate."""
    from ..stages.aggregate import cube_counts

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return cube_counts(ds, ["lang", "source"], alias="n",
                       sentinels={"lang": "ALL", "source": "ALL"})


SQL_CUBE_DOCS = """
SELECT COALESCE(lang, 'ALL') AS lang, COALESCE(source, 'ALL') AS source,
       COUNT(*) AS n
FROM documents WHERE lang IS NOT NULL AND source IS NOT NULL
GROUP BY CUBE (lang, source)
"""


def q_wau_events(sf_dir: str):
    """Rolling 7-day active users
    (`stages/window.py::rolling_active_users`): per calendar day with
    any activity, the distinct users active in the trailing window.
    Only distinct (user, epoch-day) pairs shuffle — one
    hash(user) % shards exchange; each shard expands its pairs to the
    report days they cover and emits per-day count partials that sum
    exactly because a user's pairs never split across shards."""
    from ..stages.window import rolling_active_users

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return rolling_active_users(ds, user_col="user_id", ts_col="ts",
                                window_days=7, merge_shards=64)


SQL_WAU_EVENTS = """
WITH pairs AS (
  SELECT DISTINCT user_id,
         datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS day
  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
), days AS (SELECT DISTINCT day FROM pairs)
SELECT days.day, COUNT(DISTINCT pairs.user_id) AS wau
FROM days JOIN pairs ON pairs.day BETWEEN days.day - 6 AND days.day
GROUP BY 1
"""


def q_transitions_events(sf_dir: str):
    """Event-sequence transition mining
    (`stages/transitions.py::transition_counts`): per-user time-ordered
    event paths reduced to corpus-wide (from_type, to_type) edge
    counts — the first-order Markov chain over event types. One shuffle
    of the four pruned columns into hash(user) % shards groups; the
    sort, per-user lag, and pair count are vectorized polars kernels
    per shard, and a tiny grouped sum (≤ n_states² rows per shard)
    finishes across shards. (ts, event_id) is a total order per user,
    so the lag is deterministic vs the oracle's LAG window."""
    from ..stages.transitions import transition_counts

    ds = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"])
    return transition_counts(ds, entity_col="user_id",
                             order_cols=("ts", "event_id"),
                             state_col="event_type", merge_shards=64)


SQL_TRANSITIONS_EVENTS = """
WITH seq AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS from_type
  FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL
    AND event_id IS NOT NULL AND event_type IS NOT NULL
)
SELECT from_type, event_type AS to_type, COUNT(*) AS n
FROM seq WHERE from_type IS NOT NULL GROUP BY 1, 2
"""


def q_dsir_select_docs(sf_dir: str):
    """DSIR importance-resampling data selection
    (`stages/dsir.py::dsir_select`, Xie et al. 2023): target = the
    deterministic doc_id%13 slice (the decontaminate stand-in-benchmark
    convention), features = md5-hashed unigrams into 4096 buckets,
    weight = exact int64 Σ c_f·(⌊log2(n_t+1)⌋−⌊log2(n_r+1)⌋), top 25
    raw docs by (weight DESC, doc_id). Corpus read twice (fit + score);
    the ratio table is a fixed 4096-long broadcast; scoring is
    shuffle-free with a per-batch top-k combiner."""
    from ..stages.dsir import dsir_select

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return dsir_select(ds, k=25, n_buckets=4096, target_mod=13,
                       hash_mode="md5")


SQL_DSIR_SELECT_DOCS = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w
  FROM documents WHERE text IS NOT NULL
), f AS (
  SELECT doc_id, CAST(md5_number_lower(w) % 4096 AS BIGINT) AS b
  FROM tok
), nt AS (
  SELECT b, COUNT(*) AS n FROM f WHERE doc_id % 13 = 0 GROUP BY b
), nr AS (
  SELECT b, COUNT(*) AS n FROM f WHERE doc_id % 13 <> 0 GROUP BY b
), ratio AS (
  SELECT b,
         CAST(floor(log2(COALESCE(nt.n, 0) + 1)) AS BIGINT)
       - CAST(floor(log2(COALESCE(nr.n, 0) + 1)) AS BIGINT) AS r
  FROM nt FULL JOIN nr USING (b)
)
SELECT f.doc_id, CAST(SUM(ratio.r) AS BIGINT) AS weight
FROM f JOIN ratio USING (b)
WHERE f.doc_id % 13 <> 0
GROUP BY f.doc_id
ORDER BY weight DESC, doc_id
LIMIT 25
"""


# ================================================================ registry

# EXACTLY 50 entries — the driver's CORRECTNESS window runs the first
# 50 in registry order, so the registry IS the driver surface. Ordered
# newest/least-proven first (the round-2 driver file cut off at 50 and
# the five newest operators went unverified). One entry per operator;
# redundant secondary variants live in EXTRA_QUERIES below (pytest-
# covered, not driver-run).
QUERIES = {
    # --- round-5 new ---
    "bm25_docs": q_bm25_docs,
    "pagerank_docs": q_pagerank_docs,
    "dsir_select_docs": q_dsir_select_docs,
    "rollup_docs": q_rollup_docs,
    "wau_events": q_wau_events,
    "transitions_events": q_transitions_events,
    "log_templates_docs": q_log_templates_docs,
    "contamination_overlap_docs": q_contamination_overlap_docs,
    "retention_users_events": q_retention_users_events,
    "curate_docs_v2": q_curate_docs_v2,
    # --- first-ever driver run (VERDICT r4 #2: the one §2 operator
    # never driver-verified) ---
    "throttle_events": q_throttle_events,
    # --- rotate-back debts paid (VERDICT r4 #2: driver-proven r1-r3,
    # EXTRA in r4 with "rotate back by r6" notes — all six back in) ---
    "langid_docs": q_langid_docs,
    "fingerprint_docs": q_fingerprint_docs,
    "embedding_neardup": q_embedding_neardup,
    "lineitem_agg": q_lineitem_agg,
    "hash_join": q_hash_join,
    "inline_source_counts": q_inline_source_counts,
    "parquet_sink_counts": q_parquet_sink_counts,
    # --- reworked this round (re-prove under the driver):
    # segment/cdc dedup (pass-2 keyed on keeper positions + sharded
    # fallback), conv_rebuild (vectorized join), curate/lm_bucket
    # (checkpoint validation), multiline (oracle null filter),
    # minhash (feeds the v2 composition) ---
    "cdc_dedup_docs": q_cdc_dedup_docs,
    "segment_dedup_docs": q_segment_dedup_docs,
    "conv_rebuild": q_conv_rebuild,
    "curate_docs": q_curate_docs,
    "lm_bucket_docs": q_lm_bucket_docs,
    "multiline_events": q_multiline_events,
    "minhash_pairs_docs": q_minhash_pairs_docs,
    # --- round-3/4 operator surface ---
    "bpe_merges_docs": q_bpe_merges_docs,
    "incremental_dedup_docs": q_incremental_dedup_docs,
    "asof_forward_events": q_asof_forward_events,
    "dedup_cluster_docs": q_dedup_cluster_docs,
    "decontaminate_docs": q_decontaminate_docs,
    "chunk_docs": q_chunk_docs,
    "pack_docs": q_pack_docs,
    "pii_redact_docs": q_pii_redact_docs,
    "stratified_sample_docs": q_stratified_sample_docs,
    "semdedup_embeddings": q_semdedup_embeddings,
    "grouped_quantiles_events": q_grouped_quantiles_events,
    "inverted_index_docs": q_inverted_index_docs,
    "bloom_join": q_bloom_join,
    "asof_join_salted": q_asof_join_salted,
    "tcp_source_counts": q_tcp_source_counts,
    # --- stable operator surface ---
    "grok_parse_events": q_grok_parse_events,
    "route_events": q_route_events,
    "flagship_sink_counts": q_flagship_sink_counts,
    "enrich_docs": q_enrich_docs,
    "ann_topk": q_ann_topk,
    "unigram_lm_docs": q_unigram_lm_docs,
    "checkpoint_resume_counts": q_checkpoint_resume_counts,
    "json_sink_rows": q_json_sink_rows,
    "config_pipeline_counts": q_config_pipeline_counts,
    "conv_gap_stats_salted": q_conv_gap_stats_salted,
}

# Redundant/secondary variants retired from the driver window (each
# operator keeps a driver-verified entry above: unsalted windows ⊂
# salted; word_extract/apache/multifield all exercise grok
# (grok_parse + multifield stay in-window); asof_join_events ⊂
# asof_join_salted (same oracle, strictly more machinery) with
# asof_forward_events covering the direction mirror; flagship_conv/hourly ⊂
# route_events/flagship_sink_counts for A1; distinct_event_types ⊂
# distinct_docs; broadcast_join ⊂ enrich_docs; the *_approx ANN modes
# are recall-checked in pytest while the exact full-probe modes above
# are hash-verified; hll_distinct/media_features are rows-only entries
# whose accuracy lives in pytest; median_value ⊂ grouped_quantiles
# (same sketch family, quantiles generalize the median);
# dedup_exact/distinct_docs ⊂ the dedup family; topk_orders ⊂ the
# sort+limit in doc_freq_terms (O2)
# (dedup_exact/broadcast/cluster all in-window); ann_lsh and
# grok_multifield passed the r02 driver gate and cede their slots to
# unproven round-3 operators; interpolate_events (F2/F3) cedes to the
# in-window flagship_sink_counts, whose chain runs the same PatchStage
# interpolations end-to-end; json_sum_events (F4 parse) cedes to
# json_sink_rows, which marshals AND re-parses the written JSON;
# token_stats_docs cedes to the in-window textstats family
# (langid/repetition) — all three passed the r02 driver gate and free
# slots for segment_dedup/topk_per_lang/quality_threshold;
# incremental_counts (EP2 micro-batch counts, r02-proven) cedes to the
# in-window incremental_dedup_docs, the stateful EP2 analog, freeing a
# slot for bpe_merges_docs). Still run by the local pytest oracle gate.
EXTRA_QUERIES = {
    # --- rotated OUT latest round 5 (driver-proven r2/r3/r4 both,
    # ceding slots to bm25_docs and pagerank_docs). In-window proxies:
    # doc_freq's distinct-doc-per-term df CTE is EMBEDDED verbatim in
    # the bm25 oracle (and its sort+limit O2 shape ⊂ bm25/pagerank's
    # topk_rows); ngram_jaccard's shingle+band+verify machinery ⊂ the
    # in-window minhash_pairs_docs (shared shingling) with the
    # charset-Jaccard pair miner driver-proven inside pagerank_docs ---
    "doc_freq_terms": q_doc_freq_terms,
    "ngram_jaccard_docs": q_ngram_jaccard_docs,
    # --- rotated OUT late round 5 (driver-proven r2–r4, ceding slots
    # to the new template-mining / contamination-overlap / retention
    # operators; rotate back by r7). In-window proxies: sorted_turns'
    # O1 per-turn byte-equality ⊂ conv_rebuild, whose oracle digests
    # md5(string_agg(text ORDER BY turn_idx)) — a strictly
    # order-AND-text-sensitive check at conversation granularity;
    # session_windows_salted ⊂ conv_gap_stats_salted (the same salted
    # two-level window machinery, W/P) with sliding_window_counts also
    # in-window for W; media_frames_docs is rows-only by design (codec
    # stubbed) — its frame-count conservation stays pytest-gated ---
    "sorted_turns": q_sorted_turns,
    "session_windows_salted": q_session_windows_salted,
    "media_frames_docs": q_media_frames_docs,
    # cube ⊂ grouping_sets_counts, the same machinery the in-window
    # rollup_docs drives (rollup = prefix sets, cube = all subsets)
    "cube_docs": q_cube_docs,
    # --- rotated OUT latest round 5 (driver-proven r2/r3/r4, ceding
    # slots to rollup/wau/transitions; rotate back by r7). In-window
    # proxies: dedup_broadcast's exact-dedup semantics stay
    # driver-proven via incremental_dedup_docs (the SAME
    # SQL_DEDUP_EXACT_DOCS oracle, raw-text keyed) plus the in-window
    # segment/cdc/cluster dedup family; range_join ⊂ the in-window
    # asof family (asof_join_salted + asof_forward_events share the
    # SIDE_COL co-group machinery); sliding_window ⊂
    # conv_gap_stats_salted (W) with the tumbling/sliding kernels
    # pytest-gated here ---
    "range_join_events": q_range_join_events,
    "sliding_window_counts": q_sliding_window_counts,
    "dedup_broadcast_docs": q_dedup_broadcast_docs,
    # profile_events (driver-proven r1-r4) cedes its slot to
    # dsir_select_docs; its per-column partial/merge shape stays
    # driver-proven via lineitem_agg's multi-agg partials (in-window),
    # and the NaN/null census semantics stay pinned here
    "profile_events": q_profile_events,
    # --- rotated OUT for round 5 (all driver-proven in r4 — and r1/r2
    # for the first four — ceding slots to the paid-back r4 debts, the
    # first-ever throttle driver row, and curate_docs_v2; rotate back
    # by r7 per the every-other-round §2 rule). In-window proxies:
    # interpolate (F2/F3) runs inside flagship_sink_counts' PatchStage
    # chain; filter (F5 DropStage) inside asof_join_salted's side
    # construction; union (O3) inside every SIDE_COL co-group
    # (asof/range joins, segdedup/bpe fallbacks); topk (O2) inside
    # doc_freq_terms' sort+limit; repetition/quality gate inside
    # curate_docs stage 1; topk_per_lang ⊂ grouped_topk (in-window via
    # doc_freq); jaccard/simhash ⊂ the in-window pair family
    # (minhash/ngram_jaccard share the shingle + verify machinery) ---
    "interpolate_events": q_interpolate_events,
    "topk_orders": q_topk_orders,
    "union_events": q_union_events,
    "filter_events": q_filter_events,
    "topk_per_lang_docs": q_topk_per_lang_docs,
    "quality_threshold_docs": q_quality_threshold_docs,
    "repetition_stats_docs": q_repetition_stats_docs,
    "jaccard_pairs_docs": q_jaccard_pairs_docs,
    "simhash_pairs_docs": q_simhash_pairs_docs,
    "bpe_vocab_docs": q_bpe_vocab_docs,
    "shuffle_order_docs": q_shuffle_order_docs,
    "zscore_filter_docs": q_zscore_filter_docs,
    "spike_hours_events": q_spike_hours_events,
    "funnel_users_events": q_funnel_users_events,
    "bpe_encode_docs": q_bpe_encode_docs,
    "topk_users_events": q_topk_users_events,
    "incremental_counts": q_incremental_counts,
    "json_sum_events": q_json_sum_events,
    "token_stats_docs": q_token_stats_docs,
    # quality_stats' integer components ⊂ repetition_stats' driver row
    # (both are the F-quality family); split_sample ⊂ stratified_sample
    # (same hash-split machinery, stratified adds the per-group quota)
    "quality_stats_docs": q_quality_stats_docs,
    "split_sample_docs": q_split_sample_docs,
    # F5 DropStage runs in-window inside asof_join_salted's left/right
    # construction; this standalone entry was driver-proven in r1/r2
    # O3 Dataset.union runs in-window inside the SIDE_COL co-group
    # pattern (asof_join_salted, range_join_events); driver-proven r1/r2
    # kmeans fit+assign ⊂ semdedup_embeddings (its oracle embeds the
    # full kmeans assignment CTE)
    "kmeans_embeddings": q_kmeans_embeddings,
    "heavy_hitters_terms": q_heavy_hitters_terms,
    "quantize_embeddings": q_quantize_embeddings,
    "asof_join_events": q_asof_join_events,
    "flagship_conv_counts": q_flagship_conv_counts,
    "distinct_docs": q_distinct_docs,
    "ann_lsh": q_ann_lsh,
    # driver-proven in round 2 (CORRECTNESS_r02 pass); ANN family keeps
    # ann_topk in-window, IVF stays exact-at-full-probe in this gate
    "ann_ivf": q_ann_ivf,
    "grok_multifield_events": q_grok_multifield_events,
    "median_value_events": q_median_value_events,
    "dedup_exact_docs": q_dedup_exact_docs,
    "hourly_counts_events": q_hourly_counts_events,
    "hll_distinct_events": q_hll_distinct_events,
    "apache_log_parse": q_apache_log_parse,
    "media_features_docs": q_media_features_docs,
    "conv_gap_stats": q_conv_gap_stats,
    "session_windows": q_session_windows,
    "word_extract_docs": q_word_extract_docs,
    "distinct_event_types": q_distinct_event_types,
    "broadcast_join": q_broadcast_join,
    "ann_lsh_approx": q_ann_lsh_approx,
    "ann_ivf_approx": q_ann_ivf_approx,
}

ORACLE_SQL = {
    "bm25_docs": SQL_BM25_DOCS,
    "pagerank_docs": SQL_PAGERANK_DOCS,
    "dsir_select_docs": SQL_DSIR_SELECT_DOCS,
    "rollup_docs": SQL_ROLLUP_DOCS,
    "cube_docs": SQL_CUBE_DOCS,
    "wau_events": SQL_WAU_EVENTS,
    "transitions_events": SQL_TRANSITIONS_EVENTS,
    "log_templates_docs": SQL_LOG_TEMPLATES_DOCS,
    "contamination_overlap_docs": SQL_CONTAMINATION_OVERLAP_DOCS,
    "retention_users_events": SQL_RETENTION_USERS_EVENTS,
    "bpe_merges_docs": SQL_BPE_MERGES_DOCS,
    "bpe_vocab_docs": SQL_BPE_VOCAB_DOCS,
    "zscore_filter_docs": SQL_ZSCORE_FILTER_DOCS,
    "spike_hours_events": SQL_SPIKE_HOURS_EVENTS,
    "funnel_users_events": SQL_FUNNEL_USERS_EVENTS,
    "bpe_encode_docs": SQL_BPE_ENCODE_DOCS,
    "topk_users_events": SQL_TOPK_USERS_EVENTS,
    "segment_dedup_docs": SQL_SEGMENT_DEDUP_DOCS,
    "cdc_dedup_docs": SQL_CDC_DEDUP_DOCS,
    "topk_per_lang_docs": SQL_TOPK_PER_LANG_DOCS,
    "quality_threshold_docs": SQL_QUALITY_THRESHOLD_DOCS,
    "conv_rebuild": SQL_CONV_REBUILD,
    "repetition_stats_docs": SQL_REPETITION_STATS_DOCS,
    "heavy_hitters_terms": SQL_HEAVY_HITTERS_TERMS,
    "quantize_embeddings": SQL_QUANTIZE_EMBEDDINGS,
    "asof_forward_events": SQL_ASOF_FORWARD_EVENTS,
    "dedup_cluster_docs": SQL_DEDUP_CLUSTER_DOCS,
    "decontaminate_docs": SQL_DECONTAMINATE_DOCS,
    "chunk_docs": SQL_CHUNK_DOCS,
    "doc_freq_terms": SQL_DOC_FREQ_TERMS,
    "pack_docs": SQL_PACK_DOCS,
    "pii_redact_docs": SQL_PII_REDACT_DOCS,
    "stratified_sample_docs": SQL_STRATIFIED_SAMPLE_DOCS,
    "kmeans_embeddings": SQL_KMEANS_EMBEDDINGS,
    "semdedup_embeddings": SQL_SEMDEDUP_EMBEDDINGS,
    "unigram_lm_docs": SQL_UNIGRAM_LM_DOCS,
    "curate_docs": SQL_CURATE_DOCS,
    "curate_docs_v2": SQL_CURATE_DOCS_V2,
    "lm_bucket_docs": SQL_LM_BUCKET_DOCS,
    "shuffle_order_docs": SQL_SHUFFLE_ORDER_DOCS,
    "multiline_events": SQL_MULTILINE_EVENTS,
    "throttle_events": SQL_THROTTLE_EVENTS,
    # id-ordered chunks make streaming first-seen == batch MIN(doc_id)
    "incremental_dedup_docs": SQL_DEDUP_EXACT_DOCS,
    "grouped_quantiles_events": SQL_GROUPED_QUANTILES_EVENTS,
    "inverted_index_docs": SQL_INVERTED_INDEX_DOCS,
    "bloom_join": SQL_BLOOM_JOIN,
    "grok_parse_events": SQL_GROK_PARSE_EVENTS,
    "json_sum_events": SQL_JSON_SUM_EVENTS,
    "route_events": SQL_ROUTE_EVENTS,
    "hourly_counts_events": SQL_HOURLY_COUNTS_EVENTS,
    "filter_events": SQL_FILTER_EVENTS,
    "interpolate_events": SQL_INTERPOLATE_EVENTS,
    "union_events": SQL_UNION_EVENTS,
    "flagship_sink_counts": SQL_FLAGSHIP_SINK_COUNTS,
    "flagship_conv_counts": SQL_FLAGSHIP_CONV_COUNTS,
    "word_extract_docs": SQL_WORD_EXTRACT_DOCS,
    "enrich_docs": SQL_ENRICH_DOCS,
    "token_stats_docs": SQL_TOKEN_STATS_DOCS,
    "dedup_exact_docs": SQL_DEDUP_EXACT_DOCS,
    "distinct_docs": SQL_DISTINCT_DOCS,
    "jaccard_pairs_docs": SQL_JACCARD_PAIRS_DOCS,
    "conv_gap_stats": SQL_CONV_GAP_STATS,
    "session_windows": SQL_SESSION_WINDOWS,
    "embedding_neardup": SQL_EMBEDDING_NEARDUP,
    "ann_topk": SQL_ANN_TOPK,
    "lineitem_agg": SQL_LINEITEM_AGG,
    "topk_orders": SQL_TOPK_ORDERS,
    "broadcast_join": SQL_BROADCAST_JOIN,
    "median_value_events": SQL_MEDIAN_VALUE_EVENTS,
    "hash_join": SQL_HASH_JOIN,
    "distinct_event_types": SQL_DISTINCT_EVENT_TYPES,
    "fingerprint_docs": SQL_FINGERPRINT_DOCS,
    "langid_docs": SQL_LANGID_DOCS,
    "minhash_pairs_docs": SQL_MINHASH_PAIRS_DOCS,
    "simhash_pairs_docs": SQL_SIMHASH_PAIRS_DOCS,
    "ngram_jaccard_docs": SQL_NGRAM_JACCARD_DOCS,
    "ann_lsh": SQL_ANN_TOPK,   # probe-all mode is exact (see q_ann_lsh)
    "ann_ivf": SQL_ANN_TOPK,   # full-probe mode is exact (see q_ann_ivf)
    "checkpoint_resume_counts": SQL_CHECKPOINT_RESUME_COUNTS,
    "parquet_sink_counts": SQL_CHECKPOINT_RESUME_COUNTS,  # same route counts
    "json_sink_rows": SQL_JSON_SINK_ROWS,
    "config_pipeline_counts": SQL_CONFIG_PIPELINE_COUNTS,
    "inline_source_counts": SQL_INLINE_SOURCE_COUNTS,
    "tcp_source_counts": SQL_TCP_SOURCE_COUNTS,
    "sorted_turns": SQL_SORTED_TURNS,
    "conv_gap_stats_salted": SQL_CONV_GAP_STATS,  # salting must not change stats
    "session_windows_salted": SQL_SESSION_WINDOWS,  # ditto for sessions
    "apache_log_parse": SQL_APACHE_LOG_PARSE,
    "grok_multifield_events": SQL_GROK_MULTIFIELD_EVENTS,
    "incremental_counts": SQL_FLAGSHIP_SINK_COUNTS,  # streaming == batch
    "quality_stats_docs": SQL_QUALITY_STATS_DOCS,
    "split_sample_docs": SQL_SPLIT_SAMPLE_DOCS,
    "asof_join_events": SQL_ASOF_JOIN_EVENTS,
    "asof_join_salted": SQL_ASOF_JOIN_EVENTS,  # same join, salted path
    "range_join_events": SQL_RANGE_JOIN_EVENTS,
    "sliding_window_counts": SQL_SLIDING_WINDOW_COUNTS,
    "dedup_broadcast_docs": SQL_DEDUP_BROADCAST_DOCS,
    "profile_events": SQL_PROFILE_EVENTS,
    "media_frames_docs": SQL_MEDIA_FRAMES_DOCS,  # frame-count conservation
    # rows-only (no SQL-expressible oracle): simhash_pairs_docs (Hamming
    # over hash bits), ann_lsh_approx / ann_ivf_approx (approximate by
    # design; recall pytest-asserted), hll_distinct_events (approximate
    # sketch; accuracy pytest-asserted), media_features_docs (stubbed
    # codec).
}
