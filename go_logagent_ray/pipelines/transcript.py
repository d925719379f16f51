"""Flagship pipeline: transcripts → grok parse → patch → enrich → route →
sinks + aggregates (SURVEY.md §3.2).

This is the Ray-Data re-expression of the reference's whole agent run
(``main.go`` wiring input→filter chain→output fan-out, SURVEY.md §3.1):

    read_transcripts(transcripts)                   # S1, 1 read task/CPU,
      └ map_batches(GrokParser)                     # F1    all fused into
      └ map_batches(PatchStage)                     # F2/F3   ONE task per
      └ map_batches(LookupEnrich broadcast dict)    # J1      read task
      └ map_batches(RouteStage)                     # R1 route column
      └ write_datasink(RouteSink)                   # sinks, ONE pass, and
                                                    #   A1 counts by AGG_KEYS

The four stages are instances (plain tasks) that ``parse_enrich_route``
builds from ``FLAGSHIP_SPEC`` in one loop, on whole source blocks, so
Ray fuses the read into their task (``ReadParquet->...->Write``). The
stage specs mirror go_logagent_ray.oracle, the row-level reference.
"""

from __future__ import annotations

import os
import uuid
from collections import Counter

import pyarrow as pa
import pyarrow.dataset as pds
from ray.data import Dataset
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from ..oracle import ENRICH_DEFAULT, ENRICH_LOOKUP, GROK_PATTERNS
from ..stages.enrich import LookupEnrich
from ..stages.grok import GrokParser
from ..stages.patch import PatchStage
from ..stages.route import RouteStage

PATCH_OPS = [
    ("add_field", "pipeline_id", "agentlog"),
    ("time_floor", "ts", "ts_hour", "hour"),
]

ROUTE_RULES = [
    ("errors", [("in", "status", ["err", "timeout"])]),
    ("tool_events", [("eq", "role", "tool")]),
    ("tool_events", [("ne", "tool", "")]),
    ("chat", [("in", "role", ["user", "assistant"])]),
]

AGG_KEYS = ["route", "role", "tool", "ts_hour"]

# The flagship chain: each stage's full constructor arguments, in chain
# order. ``parse_enrich_route`` builds the chain from this alone, and a
# checkpointed run hashes it, so changing any argument invalidates earlier
# commits. JSON-hashable: the lookup is sorted pairs (JSON keys cannot be
# tuples).
FLAGSHIP_SPEC = {
    "grok": {"patterns": GROK_PATTERNS},
    "patch": {"ops": PATCH_OPS},
    "enrich": {
        "lookup": sorted(ENRICH_LOOKUP.items()),
        "key_fields": ("role", "tool"),
        "value_names": ("agent_kind", "enrich_tag"),
        "tag_value_index": 1,
        "default": ENRICH_DEFAULT,
    },
    "route": {"rules": ROUTE_RULES, "default_sink": "default"},
}

_STAGE_OF = {"grok": GrokParser, "patch": PatchStage,
             "enrich": LookupEnrich, "route": RouteStage}


class RouteSink(Datasink):
    """Writes routed rows as hive parquet, ``<root>/route=<sink>/``, one
    file per sink per write task. Each task reports its per-sink rows, the
    written Arrow schema and its partial counts by ``AGG_KEYS`` (an Arrow
    table, which ships far cheaper than a dict of Python tuples);
    ``on_write_complete`` adds them up on the driver into ``rows``,
    ``schema`` (None if nothing was written) and ``counts``. Adding tuple
    keys also joins the null-key groups that pyarrow's grouper splits."""

    def __init__(self, root: str):
        self.root = root
        self.rows: Counter = Counter()
        self.counts: Counter = Counter()
        self.schema: pa.Schema | None = None

    def write(self, blocks, ctx):
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        if not sum(t.num_rows for t in tables):
            return None
        table = pa.concat_tables(tables, promote_options="permissive")
        if table["route"].null_count:
            raise ValueError("routed rows without a route")
        written = []
        pds.write_dataset(
            table, self.root, format="parquet",
            partitioning=["route"], partitioning_flavor="hive",
            basename_template=uuid.uuid4().hex + "-{i}.parquet",
            existing_data_behavior="overwrite_or_ignore",
            file_visitor=written.append,
        )
        rows: Counter = Counter()
        for f in written:  # += in case a sink ever spans several files
            sink = os.path.basename(os.path.dirname(f.path))[len("route="):]
            rows[sink] += f.metadata.num_rows
        partial = table.group_by(AGG_KEYS).aggregate([([], "count_all")])
        # the file's schema, not the table's: parquet renames list items
        return rows, written[0].metadata.schema.to_arrow_schema(), partial

    def on_write_complete(self, write_result):
        for report in write_result.write_returns:
            if report is None:  # the task got no rows
                continue
            rows, schema, partial = report
            self.rows.update(rows)
            keys = zip(*(partial[k].to_pylist() for k in AGG_KEYS))
            for key, n in zip(keys, partial["count_all"].to_pylist()):
                self.counts[key] += n
            if self.schema is None:
                self.schema = schema


def parse_enrich_route(ds: Dataset, *, batch_size: int | None = None) -> Dataset:
    """The full filter chain, built from ``FLAGSHIP_SPEC``; lazy — nothing
    executes until consumed. Each stage runs as an instance in plain tasks
    (the pickled ``GrokParser`` carries its expanded patterns); a config
    chain can still put a class stage in an actor pool with
    ``concurrency``. At ``batch_size=None`` each stage gets the source's
    blocks whole (memory bounded by the block size, not a row count), and
    Ray fuses a read into the chain's task, which a set size prevents."""
    for name, stage in _STAGE_OF.items():
        ds = ds.map_batches(
            stage(**FLAGSHIP_SPEC[name]), batch_format="pyarrow",
            zero_copy_batch=True, batch_size=batch_size,
        )
    return ds


def flagship_counts(written: Dataset) -> Dataset:
    """Both aggregate views (per-sink and per-conv) in ONE pass + ONE
    shuffle via fused partial counts; filter on ``_agg`` to split."""
    from ..stages.aggregate import fused_counts

    return fused_counts(
        written, {"sink": AGG_KEYS, "conv": ["conv_id"]}, alias="n")


def write_sinks(routed: Dataset, out_dir: str) -> Counter:
    """One streaming pass through ``RouteSink``, one hive ``route=<sink>/``
    dir per sink and no shuffle. Returns the counts by ``AGG_KEYS`` tuple
    from the write tasks' partials. A null ``route`` raises ``ValueError``.

    NOTE: writing twice into the same directory APPENDS part files — use a
    fresh directory, or the checkpointed runner in ``state/checkpoint.py``
    for atomic, resumable per-partition commits.
    """
    sink = RouteSink(out_dir)
    routed.write_datasink(sink)
    return sink.counts


def write_errors_json(routed: Dataset, path: str) -> None:
    """R3: the redis-sink stand-in — the ``errors`` route additionally as
    JSON lines (the reference LPUSHes JSON to redis; sinks here are
    Parquet/JSON per BASELINE.json:L6). ``tags`` lists serialize as JSON
    arrays."""
    from ..stages.route import split_to_sink

    routed.map_batches(
        split_to_sink, fn_kwargs={"sink": "errors"}, batch_format="pyarrow",
    ).write_json(path)
