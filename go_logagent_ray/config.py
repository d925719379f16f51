"""Declarative pipeline config + plugin registry (X1/X2, SURVEY.md §2.8).

The reference selects plugins by ``{"type": "grok", ...}`` config parts
registered under a type name (``ref: utils/config.go`` Regist*Handler
[U-arch]); here a registry maps type names to stage factories and a config
dict compiles to a chain of Dataset transforms:

    pipe = Pipeline.from_config({
        "input":   {"type": "parquet", "paths": [...]},
        "filters": [{"type": "grok", "patterns": [...]},
                    {"type": "patch", "ops": [...]},
                    {"type": "enrich", ...},
                    {"type": "route", "rules": [...]}],
        "outputs": [{"type": "parquet", "path": out, "partition_cols": ["route"]}],
    })
    routed = pipe.transform(ds)       # or pipe.run() to read+write too

New stage = ``@register_stage("name")`` on a factory returning either a
callable (stateless tasks) or a class + ctor kwargs (actor pool when
``concurrency`` is set in the config part). Shuffle-bearing stages that
the per-batch protocol can't express (multiline join, throttle — both
need a groupby) return a ``DatasetStage`` wrapping a Dataset→Dataset
transform instead; ``transform`` dispatches on the wrapper.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .sources.parquet import read_transcripts
from .stages.enrich import LookupEnrich
from .stages.filters import DropStage, JsonParseStage
from .stages.grok import GrokParser
from .stages.patch import PatchStage
from .stages.route import RouteStage

STAGE_REGISTRY: dict[str, Callable[[dict], tuple]] = {}

_MAP_OPTS = ("batch_size", "concurrency", "num_cpus")


class DatasetStage:
    """A whole-Dataset transform in the filter chain — for stages whose
    semantics need a shuffle (groupby) and therefore can't be one
    ``map_batches`` call. ``_MAP_OPTS`` don't apply (the stage owns its
    own execution shape); config parts carrying them raise loudly in
    ``from_config`` rather than being silently ignored."""

    def __init__(self, fn: Callable):
        self.fn = fn


def register_stage(name: str):
    def deco(factory):
        STAGE_REGISTRY[name] = factory
        return factory

    return deco


@register_stage("grok")
def _grok(conf: dict):
    return GrokParser, {
        "patterns": conf["patterns"],
        "field": conf.get("field", "text"),  # str or list (multi-field match)
        "extra_patterns": conf.get("extra_patterns"),
        "patterns_path": conf.get("patterns_path"),
        "patterns_dir": conf.get("patterns_dir"),
        "tag_on_failure": conf.get("tag_on_failure", "_grokparsefailure"),
    }


@register_stage("patch")
def _patch(conf: dict):
    return PatchStage, {"ops": [tuple(op) for op in conf["ops"]]}


@register_stage("enrich")
def _enrich(conf: dict):
    lookup = {tuple(k.split("\x1f")) if isinstance(k, str) else tuple(k): tuple(v)
              for k, v in conf["lookup"].items()}
    return LookupEnrich, {
        "lookup": lookup,
        "key_fields": tuple(conf.get("key_fields", ("role", "tool"))),
        "value_names": tuple(conf.get("value_names", ("agent_kind",))),
        "tag_value_index": conf.get("tag_value_index"),
        "default": tuple(conf["default"]) if conf.get("default") else None,
    }


@register_stage("route")
def _route(conf: dict):
    rules = [(sink, [tuple(p) for p in preds]) for sink, preds in conf["rules"]]
    return RouteStage, {"rules": rules, "default_sink": conf.get("default_sink", "default")}


@register_stage("drop")
def _drop(conf: dict):
    return DropStage, {
        "predicates": [tuple(p) for p in conf["predicates"]],
        "mode": conf.get("mode", "drop"),
    }


@register_stage("json")
def _json(conf: dict):
    return JsonParseStage, {
        "field": conf["field"],
        "keys": conf["keys"],
        "strict_json": conf.get("strict_json", False),
        "prefix": conf.get("prefix", ""),
    }


@register_stage("pii")
def _pii(conf: dict):
    """Scrub PII in place: rewrites ``field`` with redacted text and
    appends n_email / n_phone / n_ip count columns.  The scrub
    semantics live in ONE place (``functions.pii.scrub_text``) shared
    with the oracle-verified ``redact_pii``."""
    from .functions.pii import scrub_text

    field = conf.get("field", "text")

    def scrub(batch):
        from .functions.arrow_utils import set_column

        red, counts = scrub_text(batch[field])
        out = set_column(batch, field, red)
        # replace-or-append: if the stage runs twice in a chain (or the
        # input already carries a count column) the second run must
        # overwrite, not duplicate the column name and break by-name
        # selects downstream
        for cnt, arr in counts.items():
            out = set_column(out, cnt, arr)
        return out

    return scrub, {}


@register_stage("chunk")
def _chunk(conf: dict):
    """Explode documents into word windows (training-sequence prep)."""
    from .stages.chunk import chunk_batch_fn

    return chunk_batch_fn(
        size=conf.get("size", 32), stride=conf.get("stride", 24),
        text_field=conf.get("field", "text"),
        id_field=conf.get("id_field", "doc_id")), {}


@register_stage("decontaminate")
def _decontaminate(conf: dict):
    """Count benchmark-blocklist grams per row (grams given literally
    in the config; the query path builds them distributed + ray.put)."""
    from .stages.decontaminate import DecontaminateStage

    return DecontaminateStage, {
        "grams_ref": list(conf["grams"]),
        "text_field": conf.get("field", "text"),
        "id_field": conf.get("id_field", "doc_id"),
    }


@register_stage("repetition")
def _repetition(conf: dict):
    """Append Gopher-style repetition quality columns (n_toks,
    n_bigrams, dup_bigrams, top_bigram_n, uniq_bigrams); optionally
    drop rows over a duplicate-bigram permille threshold."""
    from .functions.textstats import repetition_stats

    field = conf.get("field", "text")
    max_permille = conf.get("max_dup_permille")

    def rep(batch):
        out = repetition_stats(batch, field=field)
        if max_permille is not None:
            import pyarrow as pa
            import pyarrow.compute as _pc

            keep = _pc.less_equal(
                _pc.multiply(out["dup_bigrams"], pa.scalar(1000)),
                _pc.multiply(out["n_bigrams"], pa.scalar(int(max_permille))))
            out = out.filter(keep)
        return out

    return rep, {}


@register_stage("multiline")
def _multiline(conf: dict):
    """Multiline codec (F6) — logstash-family stack-trace joiner; one
    groupby(key) shuffle, per-group work bounded by the conversation."""
    from .stages.filters import multiline_join

    kw = dict(key=conf["key"], order=conf["order"],
              text_field=conf.get("field", "text"),
              pattern=conf.get("pattern", r"^\s"),
              out_group=conf.get("out_group", "event_grp"),
              merge_shards=int(conf.get("merge_shards", 64)))
    return DatasetStage(lambda ds: multiline_join(ds, **kw)), {}


@register_stage("throttle")
def _throttle(conf: dict):
    """Rate-limit filter (F7) — first max_per_key rows per key by
    ascending order; per-batch combiner bounds the shuffle."""
    from .stages.filters import throttle

    kw = dict(key_cols=list(conf["key_cols"]), order=conf["order"],
              max_per_key=int(conf["max_per_key"]),
              merge_shards=int(conf.get("merge_shards", 64)))
    return DatasetStage(lambda ds: throttle(ds, **kw)), {}


@register_stage("templates")
def _templates(conf: dict):
    """Log-template mining (Drain-family) — REPLACES the stream with
    one row per discovered (n_tokens, template, n_docs); typically the
    terminal stage of a discovery pipeline."""
    from .stages.templates import mine_templates

    kw = dict(text_field=conf.get("field", "text"),
              merge_shards=int(conf.get("merge_shards", 64)))
    return DatasetStage(lambda ds: mine_templates(ds, **kw)), {}


@register_stage("transitions")
def _transitions(conf: dict):
    """Event-sequence transition mining — REPLACES the stream with one
    row per (from_type, to_type, n) Markov edge; terminal analytics
    stage like ``templates``."""
    from .stages.transitions import transition_counts

    kw = dict(entity_col=conf["entity"],
              order_cols=tuple(conf["order_cols"]),
              state_col=conf["state"],
              merge_shards=int(conf.get("merge_shards", 64)))
    return DatasetStage(lambda ds: transition_counts(ds, **kw)), {}


@register_stage("rollup")
def _rollup(conf: dict):
    """Multi-level ROLLUP counts — REPLACES the stream with one row per
    key-prefix level plus the grand total; ``sentinels`` maps each key
    to its roll-up marker value (required, see rollup_counts)."""
    from .stages.aggregate import rollup_counts

    kw = dict(keys=list(conf["keys"]),
              alias=conf.get("alias", "n"),
              sentinels=dict(conf["sentinels"]))
    return DatasetStage(lambda ds: rollup_counts(ds, **kw)), {}


@register_stage("wau")
def _wau(conf: dict):
    """Rolling active users — REPLACES the stream with one (day, wau)
    row per active calendar day; terminal analytics stage."""
    from .stages.window import rolling_active_users

    kw = dict(user_col=conf["user"], ts_col=conf["ts"],
              window_days=int(conf.get("window_days", 7)),
              merge_shards=int(conf.get("merge_shards", 64)))
    return DatasetStage(lambda ds: rolling_active_users(ds, **kw)), {}


@register_stage("dsir")
def _dsir(conf: dict):
    """DSIR importance-resampling selection — REPLACES the stream with
    the top-k raw-pool (id, weight) rows; terminal selector stage.
    Input materialized: dsir_select is two-pass (feature-LM fit then
    scoring) and would otherwise re-run the upstream chain per pass."""
    from .stages.dsir import dsir_select

    kw = dict(id_field=conf.get("id_field", conf.get("id", "doc_id")),
              text_field=conf.get("field", "text"),
              k=int(conf.get("k", 25)),
              n_buckets=int(conf.get("n_buckets", 4096)),
              target_mod=int(conf.get("target_mod", 13)),
              hash_mode=conf.get("hash_mode", "fast"))
    return DatasetStage(lambda ds: dsir_select(ds.materialize(),
                                               **kw)), {}


@register_stage("bm25")
def _bm25(conf: dict):
    """BM25 ranked retrieval — REPLACES the stream with the top-k
    (id, score_q) rows for the configured query terms; terminal
    retrieval stage. The input is materialized first: bm25_topk is
    two-pass (census then scoring) and would otherwise re-execute the
    whole upstream filter chain per pass."""
    from .stages.bm25 import bm25_topk

    q = conf["query"]
    if isinstance(q, str):
        # list('hash') would silently become per-CHARACTER terms
        raise ValueError("bm25 'query' must be a list of terms, "
                         f"got the string {q!r}")
    kw = dict(query_terms=list(q),
              k=int(conf.get("k", 25)),
              text_field=conf.get("field", "text"),
              id_field=conf.get("id_field", conf.get("id", "doc_id")),
              scale=int(conf.get("scale", 1000)),
              mode=conf.get("mode", "exact"))
    return DatasetStage(lambda ds: bm25_topk(ds.materialize(), **kw)), {}


@register_stage("pagerank")
def _pagerank(conf: dict):
    """PageRank centrality — consumes a PAIR stream (doc_a, doc_b by
    default) and REPLACES it with the top-k (doc_id, rank_q) rows;
    terminal graph-analytics stage."""
    from .stages.pagerank import pagerank_topk

    kw = dict(k=int(conf.get("k", 25)),
              iterations=int(conf.get("iterations", 3)),
              scale=int(conf.get("scale", 10**9)),
              src_field=conf.get("src", "doc_a"),
              dst_field=conf.get("dst", "doc_b"),
              merge_shards=int(conf.get("merge_shards", 64)))
    return DatasetStage(lambda ds: pagerank_topk(ds, **kw)), {}


@register_stage("sample")
def _sample(conf: dict):
    """Deterministic keep-percent filter (reproducible sampling)."""
    from .stages.sample import sample_batch_fn

    return sample_batch_fn(
        key=conf["key"], percent=int(conf["percent"]),
        method=conf.get("method", "hash"),
        seed=int(conf.get("seed", 0))), {}


@register_stage("split")
def _split(conf: dict):
    """Deterministic train/val/test split column from percentage
    buckets (ADDS ``out``, default 'split'; pure per-row map). Give
    CHAINED sample/stratified/split stages on one key DISTINCT
    ``seed`` values or their hash buckets correlate (see
    stages/sample.py::_buckets)."""
    from .stages.sample import split_assign

    kw = dict(key=conf["key"],
              splits={k: int(v) for k, v in conf["splits"].items()}
              if "splits" in conf else None,
              method=conf.get("method", "hash"),
              out=conf.get("out", "split"),
              seed=int(conf.get("seed", 0)))
    return DatasetStage(lambda ds: split_assign(ds, **kw)), {}


@register_stage("stratified")
def _stratified(conf: dict):
    """Per-group keep rates (corpus rebalancing / domain mixing —
    e.g. keep 50% of 'web', 100% of 'chat'); pure per-row filter.
    Seed chained bucketings distinctly (see the split stage note)."""
    from .stages.sample import stratified_sample

    kw = dict(key=conf["key"], group=conf["group"],
              rates={k: int(v) for k, v in conf["rates"].items()},
              default_percent=int(conf.get("default_percent", 0)),
              method=conf.get("method", "hash"),
              seed=int(conf.get("seed", 0)))
    return DatasetStage(lambda ds: stratified_sample(ds, **kw)), {}


class Pipeline:
    """A compiled chain of map_batches stages + input/output specs."""

    def __init__(self, input_spec: dict | None, stage_specs: list[tuple],
                 output_specs: list[dict], config: dict):
        self.input_spec = input_spec
        self.stage_specs = stage_specs
        self.output_specs = output_specs
        self.config = config

    @classmethod
    def from_config(cls, config: dict) -> "Pipeline":
        specs = []
        for part in config.get("filters", []):
            typ = part["type"]
            if typ not in STAGE_REGISTRY:
                raise KeyError(f"unknown filter type {typ!r}; registered: "
                               f"{sorted(STAGE_REGISTRY)}")
            fn_or_cls, kwargs = STAGE_REGISTRY[typ](part)
            opts = {k: part[k] for k in _MAP_OPTS if k in part}
            if isinstance(fn_or_cls, DatasetStage) and opts:
                raise ValueError(
                    f"stage {typ!r} is a whole-Dataset transform; "
                    f"{sorted(opts)} do not apply (it owns its own "
                    "execution shape)")
            specs.append((fn_or_cls, kwargs, opts))
        return cls(config.get("input"), specs, config.get("outputs", []), config)

    def transform(self, ds):
        """Apply the filter chain to a Dataset (lazy)."""
        for fn_or_cls, kwargs, opts in self.stage_specs:
            if isinstance(fn_or_cls, DatasetStage):
                ds = fn_or_cls.fn(ds)
                continue
            mb = dict(batch_format="pyarrow", zero_copy_batch=True)
            mb.update(opts)
            if isinstance(fn_or_cls, type) and "concurrency" in mb:
                ds = ds.map_batches(fn_or_cls, fn_constructor_kwargs=kwargs, **mb)
            else:
                inst = fn_or_cls(**kwargs) if isinstance(fn_or_cls, type) else fn_or_cls
                ds = ds.map_batches(inst, **mb)
        return ds

    def read(self):
        import ray.data as rd

        spec = self.input_spec or {}
        typ = spec.get("type", "parquet")
        if typ == "parquet":
            return read_transcripts(spec["paths"], columns=spec.get("columns"))
        if typ == "items":  # stdin-analog for tests/ad-hoc runs (S2)
            return rd.from_items(spec["items"])
        raise KeyError(f"unknown input type {typ!r}")

    def run(self) -> dict[str, Any]:
        """read → transform → write every output; returns the routed Dataset."""
        routed = self.transform(self.read())
        for out in self.output_specs:
            typ = out["type"]
            if typ == "parquet":
                routed.write_parquet(out["path"],
                                     partition_cols=out.get("partition_cols"))
            elif typ == "json":
                target = routed
                if out.get("route"):
                    from .stages.route import split_to_sink

                    target = routed.map_batches(
                        split_to_sink, fn_kwargs={"sink": out["route"]},
                        batch_format="pyarrow")
                target.write_json(out["path"])
            elif typ == "stdout":  # debug sink (R2)
                routed.show(out.get("limit", 10))
            else:
                raise KeyError(f"unknown output type {typ!r}")
        return {"routed": routed}
