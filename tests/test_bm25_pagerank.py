"""BM25 retrieval and integer PageRank vs pure-Python references
(no SQL in the loop — the oracle gate covers DuckDB parity; these pin
the integer recurrences, the mode split, and the guards)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from go_logagent_ray.stages.bm25 import bm25_topk, corpus_stats
from go_logagent_ray.stages.pagerank import pagerank_topk

DOCS = [
    (0, "a b c a"),
    (1, "a b"),
    (2, "c c c c c c"),
    (3, None),            # null text: excluded from N/T and ranking
    (4, ""),              # one empty token — counts as dl=1
    (5, "b b a c"),
    (6, "z z z"),
]


def _docs_ds():
    ids = [d for d, _ in DOCS]
    txt = [t for _, t in DOCS]
    return rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                   "text": pa.array(txt, pa.string())}))


def _ref_bm25(query, k=25, scale=1000):
    """The exact-mode integer recurrence, one doc at a time."""
    live = [(i, t.split(" ")) for i, t in DOCS if t is not None]
    n = len(live)
    t_tot = sum(len(tk) for _, tk in live)
    dfs = {q: sum(1 for _, tk in live if q in tk) for q in query}
    out = []
    for i, tk in live:
        dl = len(tk)
        s = 0
        for q in query:
            tf = tk.count(q)
            s += (22 * (n - dfs[q]) * tf * t_tot * scale) \
                // (10 * tf * t_tot + 3 * t_tot + 9 * dl * n)
        out.append((i, s))
    out.sort(key=lambda r: (-r[1], r[0]))
    return out[:k]


def test_corpus_stats(ray_session):
    n, t, dfs = corpus_stats(_docs_ds(), ["a", "c", "zz"])
    assert n == 6
    assert t == 4 + 2 + 6 + 1 + 4 + 3
    assert dfs == {"a": 3, "c": 3, "zz": 0}


def test_corpus_stats_rejects_bad_terms(ray_session):
    with pytest.raises(ValueError):
        corpus_stats(_docs_ds(), [])
    with pytest.raises(ValueError):
        corpus_stats(_docs_ds(), ["two words"])


def test_bm25_exact_matches_reference(ray_session):
    got = bm25_topk(_docs_ds(), ["a", "c", "zz"], k=4).to_pandas()
    ref = _ref_bm25(["a", "c", "zz"], k=4)
    assert list(zip(got["doc_id"], got["score_q"])) == ref
    # rare term z (df=1) should put doc 6 on top of a z-query
    top = bm25_topk(_docs_ds(), ["z"], k=1).to_pandas()
    assert top["doc_id"].tolist() == [6]


def test_bm25_float_mode_agrees_on_ranking(ray_session):
    ex = bm25_topk(_docs_ds(), ["a", "c"], k=6, mode="exact").to_pandas()
    fl = bm25_topk(_docs_ds(), ["a", "c"], k=6, mode="float").to_pandas()
    assert fl["score_q"].dtype == np.float64
    # same doc ranking: the linear weight is monotone in the log idf
    # for a two-term query over this corpus
    assert ex["doc_id"].tolist() == fl["doc_id"].tolist()


def test_bm25_overflow_guard(ray_session):
    with pytest.raises(Exception, match="overflow|float"):
        bm25_topk(_docs_ds(), ["a"], k=3, scale=10**17).to_pandas()


def test_bm25_overflow_guard_checks_the_denominator(ray_session,
                                                    monkeypatch):
    """Here the numerator 22·w·tf·T·scale fits int64 (2.2·10^17) but the
    denominator's 9·dl·N term is 9.9·10^18: exact mode must raise, not
    let numpy wrap the denominator (that scored the doc -1, not 0)."""
    import go_logagent_ray.stages.bm25 as bm25

    n, t = 10**12, 10**13
    monkeypatch.setattr(bm25, "corpus_stats",
                        lambda ds, terms, **kw: (n, t, {"a": n - 1}))
    ds = rd.from_arrow(pa.table({"doc_id": pa.array([1], pa.int64()),
                                 "text": ["a" + " b" * 1_100_000]}))
    with pytest.raises(Exception, match="overflow int64"):
        bm25_topk(ds, ["a"], k=1).to_pandas()


def test_bm25_all_null_text(ray_session):
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([None, None], pa.string())}))
    assert bm25_topk(ds, ["a"], k=5).count() == 0


# star (0 hub of 1..4) ∪ triangle (10,11,12) ∪ isolated pair (20,21)
PAIRS = [(0, 1), (0, 2), (0, 3), (0, 4),
         (10, 11), (10, 12), (11, 12), (20, 21)]


def _pairs_ds():
    return rd.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in PAIRS], pa.int64()),
        "doc_b": pa.array([b for _, b in PAIRS], pa.int64())}))


def _ref_pagerank(pairs, iterations=3, scale=10**9):
    edges = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    deg = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    base = 3 * scale // 20
    r = {v: scale for v in deg}
    for _ in range(iterations):
        nxt = {v: base for v in deg}
        for s, d in edges:
            nxt[d] += (r[s] * 17) // (20 * deg[s])
        r = nxt
    return sorted(r.items(), key=lambda kv: (-kv[1], kv[0]))


@pytest.mark.parametrize("shards", [1, 7, 64])
def test_pagerank_matches_reference(ray_session, shards):
    got = pagerank_topk(_pairs_ds(), k=20, merge_shards=shards).to_pandas()
    ref = _ref_pagerank(PAIRS)[:20]
    assert list(zip(got["doc_id"], got["rank_q"])) == ref
    # the degree-4 hub outranks everything
    assert got["doc_id"][0] == 0


def test_pagerank_single_iteration(ray_session):
    got = pagerank_topk(_pairs_ds(), k=20, iterations=1).to_pandas()
    ref = _ref_pagerank(PAIRS, iterations=1)[:20]
    assert list(zip(got["doc_id"], got["rank_q"])) == ref


def test_pagerank_rejects_zero_iterations(ray_session):
    with pytest.raises(ValueError, match="iterations"):
        pagerank_topk(_pairs_ds(), iterations=0)


def test_pagerank_null_endpoints_dropped(ray_session):
    ds = rd.from_arrow(pa.table({
        "doc_a": pa.array([0, None, 2], pa.int64()),
        "doc_b": pa.array([1, 5, None], pa.int64())}))
    got = pagerank_topk(ds, k=10, iterations=2).to_pandas()
    ref = _ref_pagerank([(0, 1)], iterations=2)
    assert list(zip(got["doc_id"], got["rank_q"])) == ref


def test_config_bm25_stage(ray_session):
    from go_logagent_ray.config import Pipeline

    cfg = {
        "input": {"type": "items", "items": [
            {"doc_id": i, "text": t} for i, t in DOCS if t is not None
        ]},
        "filters": [{"type": "bm25", "query": ["a", "c", "zz"], "k": 4}],
        "outputs": [],
    }
    p = Pipeline.from_config(cfg)
    rows = [(r["doc_id"], r["score_q"])
            for r in p.transform(p.read()).take_all()]
    assert rows == _ref_bm25(["a", "c", "zz"], k=4)


def test_config_pagerank_stage(ray_session):
    from go_logagent_ray.config import Pipeline

    cfg = {
        "input": {"type": "items", "items": [
            {"doc_a": a, "doc_b": b} for a, b in PAIRS
        ]},
        "filters": [{"type": "pagerank", "k": 20, "merge_shards": 2}],
        "outputs": [],
    }
    p = Pipeline.from_config(cfg)
    rows = [(r["doc_id"], r["rank_q"])
            for r in p.transform(p.read()).take_all()]
    assert rows == _ref_pagerank(PAIRS)[:20]
