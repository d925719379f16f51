"""Incremental micro-batch mode — the tail-file streaming analog (EP2).

The reference is a STREAMING agent: it tails files and processes events as
they arrive (``ref: input/file/`` per-file offsets, SURVEY.md §3.1 EP2).
Ray Data is a batch engine; the Ray-native analog is micro-batching: each
arriving chunk of transcript rows runs through the SAME vectorized filter
chain and ``write_sinks`` (one small Dataset per chunk), sinks append
per-chunk partitions, and the running aggregates live on the DRIVER.

Running state is plain driver memory. Each chunk reduces to per-task
partials (bounded by key cardinality per task, never rows), reported by
the sink write tasks (``IncrementalRunner``) or built in ``map_batches``
(``StreamingDedup``); the driver merges them into a ``Counter`` or a
seen-fingerprint ``set``. Chunks are fed one at a time by the caller, so
the merge is sequential and deterministic without any locking. The state
lasts exactly as long as the runner object: a killed driver loses it,
and a restarted tail run starts from empty state. The per-chunk sink
directories it already wrote stay on disk.
"""

from __future__ import annotations

import os
from collections import Counter

import pyarrow as pa


class IncrementalRunner:
    """Feed transcript chunks; sinks append, running counts stay exact.

    Counts are keyed by ``transcript.AGG_KEYS`` tuples, the same keys as
    the batch ``write_sinks`` counts. NOT for the 100 TB backfill path (use the
    checkpointed batch runner); this is the low-latency tail-processing
    mode for new data arriving in chunks.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.counts: Counter = Counter()
        self.chunk_idx = 0
        os.makedirs(out_dir, exist_ok=True)

    def process_chunk(self, table: pa.Table) -> dict:
        """Convenience wrapper: one in-memory Arrow chunk (e.g. from a
        socket source's poll loop). Like an empty chunk, a chunk whose
        rows are all dropped by the parse chain writes no chunk dir and
        reports rows=0."""
        import ray.data as rd

        if table.num_rows == 0:
            # nothing arrived this tick — no chunk dir, no state update
            return {"chunk": self.chunk_idx, "rows": 0, "groups_touched": 0}
        return self.process_chunk_dataset(rd.from_arrow(table))

    def process_chunk_dataset(self, ds) -> dict:
        """Parse→enrich→route one chunk DATASET in one execution through
        ``write_sinks``, whose write tasks also report the partial counts
        that update the running state; no rows reach the driver."""
        from .transcript import parse_enrich_route, write_sinks

        chunk_dir = os.path.join(self.out_dir, f"chunk-{self.chunk_idx:06d}")
        merged = write_sinks(parse_enrich_route(ds), chunk_dir)
        rows = sum(merged.values())
        if rows == 0:
            return {"chunk": self.chunk_idx, "rows": 0, "groups_touched": 0}
        self.counts.update(merged)
        self.chunk_idx += 1
        return {"chunk": self.chunk_idx - 1, "rows": rows,
                "groups_touched": len(merged)}

    def running_counts(self) -> dict:
        """Exact totals over everything processed so far."""
        return dict(self.counts)

    def shutdown(self) -> None:
        """No-op: the runner holds no Ray resources; its state is driver
        memory and goes with the object. Safe to call when done."""


class StreamingDedup:
    """Streaming exact dedup over arriving chunks — the stateful
    cross-chunk analog of ``exact_keepers``.

    Per chunk: one tree-mode ``aggregate_by`` min reduces every block
    to (fingerprint, min id) partials inside ``map_batches`` (rows never
    reach the driver) and merges them on the driver to one (fingerprint,
    min id) pair per distinct content; one lookup in the driver's
    seen-set per distinct fingerprint answers first-seen. Keeper semantics: the min id within
    the FIRST chunk that contains the content; feed chunks in id order
    (id-range chunks) and this equals the global ``MIN(id) GROUP BY
    text`` — the batch-dedup oracle.

    Memory regime: the seen-set grows with the distinct-content count of
    the whole stream and lives on the driver, at about 70–100 bytes per
    distinct content (a 32-byte Python int plus its hash-table slot;
    measured 69 B at 1M and 80 B at 3M entries on CPython), so ~10M
    distinct contents take ~1 GB of driver memory. This is the
    low-latency TAIL mode; the 100 TB backfill path is the batch
    ``exact_keepers`` shuffle.
    """

    def __init__(self, *, text_field: str = "text", id_field: str = "doc_id"):
        self.seen: set[int] = set()
        self.text_field = text_field
        self.id_field = id_field

    def process_chunk_dataset(self, ds) -> list[int]:
        """Returns the doc ids ACCEPTED from this chunk (first holders
        of content never seen before), ascending."""
        from ..functions.textstats import raw_fingerprint
        from ..stages.aggregate import aggregate_by

        text_field, id_field = self.text_field, self.id_field

        def fp(batch: pa.Table) -> pa.Table:
            return raw_fingerprint(batch, field=text_field, out="_fp")

        firsts = aggregate_by(ds.map_batches(fp, batch_format="pyarrow"),
                              ["_fp"], {id_field: ("min", id_field)}, "tree")
        # one (fingerprint, min id) row per distinct content, read as
        # Arrow columns, never Python row-dicts (same rule as
        # exact_dedup_broadcast); fps are unique, so a membership test
        # then one bulk insert is exact
        seen, kept = self.seen, []
        for b in firsts.iter_batches(batch_format="pyarrow", batch_size=None):
            if b.num_rows:
                fps = b["_fp"].to_pylist()
                kept += [i for f, i in zip(fps, b[id_field].to_pylist())
                         if f not in seen]
                seen.update(fps)
        return sorted(kept)

    def n_distinct(self) -> int:
        return len(self.seen)
