"""End-to-end curation pipeline (raw corpus → per-doc training-chunk
stats) with an OPTIONAL partitioned-parquet checkpoint at the
stage-2 boundary — the 100 TB shape the in-memory variant's docstring
promises.

Stages (each independently oracle-verified; composition hash-verified
by the ``curate_docs`` driver query):

1. repetition-quality gate (per-row, no shuffle);
2. exact dedup via broadcast keepers (only (hash, id) partials
   shuffle);
3. benchmark decontamination (grams broadcast once, vectorized
   match_substring);
4. chunking to 32-word windows at stride 24;
5. per-doc chunk stats (partial + combine grouped sums).

The post-dedup survivor set is consumed by MULTIPLE downstream
consumers (the benchmark-gram build AND the clean→chunk→aggregate
lineage), so it must not re-execute per consumer:

- ``checkpoint_dir=None``: object-store ``materialize()`` — fine while
  the survivor set fits cluster memory + spill.
- ``checkpoint_dir=...``: the survivor set is written ONCE as a
  multi-file parquet directory (one file per block — readers get one
  read task per file), committed atomically (tmp dir + rename, then a
  manifest carrying config hash + row count, same tmp+rename protocol
  as ``state/checkpoint.py``). A later run with the same config SKIPS
  stages 1-2 entirely — the test kills the run right after the commit,
  deletes the raw input, and the resume still produces the identical
  final table from the checkpoint alone.

Scale note: the checkpoint unit here is the whole stage boundary (one
atomic commit). Within stages 1-2 the input itself can additionally be
processed wave-per-partition via ``state/checkpoint.run_checkpointed``
for per-partition resume of the PARSE work; the boundary checkpoint is
what makes the multi-consumer fan-out resumable and spill-free.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..state.checkpoint import _atomic_write_json, config_hash

# THE stage parameters — quality_gate reads them from here, so the
# checkpoint config hash is derived from the real gate definition (a
# threshold change invalidates old checkpoints by construction; a
# duplicated constant could silently go stale relative to the code)
_SPEC = {
    "stage": "curate-quality-dedup",
    "min_toks": 20,
    "dup_bigram_permille": 80,
    "version": 1,
}

# MinHash pair-mining parameters for the v2 near-dup stage — part of
# the neardup checkpoint's config hash AND the values actually passed
# to minhash_lsh_pairs (one source of truth; library defaults changing
# must not silently revalidate old commits)
_NEARDUP_MINING = {"num_perm": 64, "bands": 16, "ngram": 3}


def quality_gate(batch: pa.Table) -> pa.Table:
    """Stage 1: keep docs with ≥ _SPEC['min_toks'] tokens and duplicate
    bigrams ≤ _SPEC['dup_bigram_permille']/1000 (Gopher-style
    repetition filter, integer math)."""
    from ..functions.textstats import repetition_stats

    b = repetition_stats(batch)
    keep = pc.and_(
        pc.greater_equal(b["n_toks"], pa.scalar(_SPEC["min_toks"])),
        pc.less_equal(pc.multiply(b["dup_bigrams"], pa.scalar(1000)),
                      pc.multiply(b["n_bigrams"],
                                  pa.scalar(_SPEC["dup_bigram_permille"]))))
    return batch.filter(keep)


def _load_committed(mpath: str, data_dir: str, cfg: str):
    """The committed Dataset at a stage boundary, or None if the
    checkpoint is absent, stale (config mismatch), or DAMAGED — a
    partially deleted / truncated data directory under an intact
    manifest must fall through to recompute, never resume silently
    with fewer rows, so the read-back row count is compared to the
    manifest's recorded count (parquet footers only — no data scan)."""
    import json

    import ray.data as rd

    if not os.path.isfile(mpath):
        return None
    with open(mpath) as f:
        m = json.load(f)
    if m.get("config_hash") != cfg or not os.path.isdir(data_dir):
        return None
    try:
        out = rd.read_parquet(data_dir)
        n = out.count()
    except Exception:
        return None  # unreadable/empty dir — recompute
    if n != m.get("rows"):
        return None
    return out


def checkpoint_dataset(build, *, checkpoint_dir: str, name: str,
                       spec: dict, schema_fallback=None) -> Dataset:
    """THE stage-boundary commit protocol, shared by every checkpointed
    multi-consumer boundary (curation stage 2, the lm_bucket scored
    table): a valid manifest (config hash + row count verified against
    the data read back) skips ``build()`` entirely; otherwise the built
    Dataset is written to a multi-file parquet staging dir and
    committed atomically — tmp dir + rename, OLD manifest removed
    BEFORE the data replace (a kill in the window must leave "no
    checkpoint", never "old manifest + new data"), new manifest written
    last via the same tmp+rename as ``state/checkpoint.py``.

    ``schema_fallback``: zero-argument callable returning a ray Schema,
    used when a zero-row build reports ``schema() is None`` — the
    empty commit still writes one explicit parquet file carrying the
    schema so the checkpoint stays readable."""
    import shutil

    import ray.data as rd

    cfg = config_hash(spec)
    mpath = os.path.join(checkpoint_dir, f"_{name}_manifest.json")
    final = os.path.join(checkpoint_dir, name)
    cached = _load_committed(mpath, final, cfg)
    if cached is not None:
        return cached

    d = build()
    os.makedirs(checkpoint_dir, exist_ok=True)
    staging = os.path.join(checkpoint_dir, f".tmp-{name}")
    if os.path.isdir(staging):
        shutil.rmtree(staging)  # leftover from a killed run — redo
    d.write_parquet(staging)
    os.makedirs(staging, exist_ok=True)  # zero-row write may skip mkdir
    if not any(os.scandir(staging)):
        # zero-row run: write_parquet of an empty Dataset leaves no
        # files, and a later read_parquet of the bare directory fails —
        # commit one explicit empty file carrying the schema
        import pyarrow.parquet as pq

        sch = d.schema()
        if sch is None and schema_fallback is not None:
            sch = schema_fallback()
        empty = pa.table(
            {n: pa.array([], t) for n, t in zip(sch.names, sch.types)})
        pq.write_table(empty, os.path.join(staging, "empty.parquet"))
    if os.path.isfile(mpath):
        os.remove(mpath)
    if os.path.isdir(final):
        shutil.rmtree(final)  # stale commit under an older config
    os.replace(staging, final)
    out = rd.read_parquet(final)
    _atomic_write_json(
        mpath, {"config_hash": cfg, "rows": out.count(), "spec": spec})
    return out


def stage2_survivors(sf_dir: str, *,
                     checkpoint_dir: str | None = None) -> Dataset:
    """Quality-gated, exactly-deduplicated docs (doc_id, text) — the
    multi-consumer stage boundary. With ``checkpoint_dir``, committed
    to partitioned parquet once and read back (resumable: a valid
    manifest skips stages 1-2 without touching the raw input)."""
    import ray.data as rd

    spec = dict(_SPEC, input=os.path.abspath(sf_dir))

    def build() -> Dataset:
        from ..stages.dedup import exact_dedup_broadcast

        ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"])
        q = ds.map_batches(quality_gate, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
        return exact_dedup_broadcast(q)

    if checkpoint_dir is None:
        return build().materialize()
    # the dedup stage preserves the input columns, so the raw read's
    # schema is the authoritative fallback for a zero-survivor commit
    return checkpoint_dataset(
        build, checkpoint_dir=checkpoint_dir, name="stage2", spec=spec,
        schema_fallback=lambda: rd.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"]).schema())


def curate_stats(sf_dir: str, *, checkpoint_dir: str | None = None,
                 fail_after_stage2: bool = False) -> Dataset:
    """The full five-stage pipeline; returns (doc_id, n_chunks,
    n_chunk_words). ``fail_after_stage2`` simulates a job kill right
    AFTER the stage-2 checkpoint commits (test hook for the
    kill+resume contract)."""
    d = stage2_survivors(sf_dir, checkpoint_dir=checkpoint_dir)
    if fail_after_stage2:
        raise RuntimeError(
            "simulated kill after the stage-2 checkpoint commit")
    return _decontaminate_chunk_stats(d)


def curate_stats_v2(sf_dir: str, *, neardup_threshold: float = 0.7,
                    checkpoint_dir: str | None = None) -> Dataset:
    """The v2 composition a real training-data curation pass runs:
    quality gate → exact dedup → **MinHash-LSH near-dup drop** →
    decontamination → chunk → per-doc stats. Same output schema as
    ``curate_stats``; the added stage drops the LARGER-id member of
    every near-duplicate pair (trigram-Jaccard ≥ ``neardup_threshold``,
    mined by ``stages.dedup.minhash_lsh_pairs`` — only signatures ever
    shuffle) via the size-gated distributed anti-join
    (``stages.dedup.anti_join_ids``: sorted-array broadcast under the
    budget, doc-sharded co-group past it — no driver collect at any
    scale).

    The post-near-dup survivor set feeds TWO consumers (the
    benchmark-gram build and the clean→chunk→aggregate lineage), so it
    must not re-execute per consumer: with ``checkpoint_dir`` BOTH
    multi-consumer boundaries (stage 2 and the near-dup survivor set)
    commit through the shared ``checkpoint_dataset`` protocol — a
    resumed run with the same config skips quality gate, exact dedup,
    pair mining, AND the anti-join; without it the boundary
    materializes in the object store."""
    import ray.data as rd

    from ..stages.dedup import anti_join_ids, minhash_lsh_pairs

    def build() -> Dataset:
        d = stage2_survivors(sf_dir, checkpoint_dir=checkpoint_dir)
        # mining params passed FROM the spec constants below, so the
        # checkpoint config hash derives from the real pair-mining
        # definition (a bands/num_perm/ngram change must invalidate
        # old survivor commits — same rule as _SPEC)
        pairs = minhash_lsh_pairs(d, threshold=neardup_threshold,
                                  num_perm=_NEARDUP_MINING["num_perm"],
                                  bands=_NEARDUP_MINING["bands"],
                                  ngram=_NEARDUP_MINING["ngram"])
        # ids_field passed EXPLICITLY: a lazy select_columns projection
        # can still report the parent's schema (Ray 2.49, pandas-block
        # lineage with empty blocks), so single-column inference on the
        # unexecuted Dataset is not reliable here
        return anti_join_ids(d, pairs.select_columns(["doc_b"]),
                             id_field="doc_id", ids_field="doc_b")

    if checkpoint_dir is None:
        s2 = build().materialize()
    else:
        spec = dict(_SPEC, stage="curate-neardup",
                    threshold=neardup_threshold, **_NEARDUP_MINING,
                    input=os.path.abspath(sf_dir))
        s2 = checkpoint_dataset(
            build, checkpoint_dir=checkpoint_dir, name="neardup",
            spec=spec,
            schema_fallback=lambda: rd.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"]).schema())
    return _decontaminate_chunk_stats(s2)


def _decontaminate_chunk_stats(d: Dataset) -> Dataset:
    """Shared curation tail: benchmark decontamination (grams built
    from the survivor set, broadcast once) → 32/24 word chunking →
    per-doc chunk stats (one hash-sharded ``aggregate_by``)."""
    import ray

    from ..stages.aggregate import aggregate_by
    from ..stages.chunk import chunk_documents
    from ..stages.decontaminate import build_benchmark_grams

    gref = ray.put(build_benchmark_grams(d))

    def clean(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch.column("text"), pa.string())
        keep = np.ones(batch.num_rows, dtype=bool)
        for g in ray.get(gref):
            m = pc.fill_null(pc.match_substring(texts, g), False)
            keep &= ~m.to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keep))

    c = d.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)
    ch = chunk_documents(c, size=32, stride=24)
    return aggregate_by(ch, ["doc_id"],
                        {"n_chunks": ("count", None),
                         "n_chunk_words": ("sum", "n_words")},
                        "shuffle")
