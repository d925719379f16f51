"""Per-partition checkpoints: lineage manifests + row-count metrics (M4).

Generalizes the reference's file-input offset registry (sincedb-style
per-file byte offsets, ``ref: input/file/`` [U-recall], SURVEY.md §2.1 S1)
to batch partitions, per BASELINE.json:L6/L14: "per-partition checkpoints
carrying lineage manifests + row-count metrics so a killed `ray job
submit` run resumes without re-parsing completed partitions."

Design (SURVEY.md §4.3):

- A **partition** is a deterministic group of parquet fragments
  ``(file, row-group range)`` — a pure function of the sorted input file
  list and ``rows_per_partition``, independent of Ray scheduling order.
- Each partition is its own Dataset wave: read fragments → filter chain
  → a staged write to ``out/.tmp-part-<pid>/route=<sink>/``, whose write
  tasks report per-sink row counts and the written schema → an atomic
  rename of each sink to ``out/<sink>/part-<pid>/`` → the manifest
  ``out/_manifest/part-<pid>.json`` (lineage + per-sink row counts from
  those reports + config hash), written via tmp+rename. A partition is
  committed iff its manifest exists and its config hash matches.
- Waves overlap: at most two are in flight (one running while the next
  is planned or committed), and each commits as soon as it completes, so
  commits land in completion order, not partition order. After a failure
  no new wave starts; the in-flight waves finish and commit, then the
  first error is raised. A kill therefore redoes at most two waves,
  whatever the cluster's size.
- Resume: list manifests, subtract committed partitions, run only the
  remainder; aggregate metrics merge committed manifest counts with the
  new waves. Idempotent: commits are atomic, partitions deterministic.

Scale note: each wave spreads its fragments over the whole cluster, and
the overlap only hides one wave's driver-side work (planning, executor
start and stop, rename, manifest) behind the other's tasks. It is two,
not one per CPU slot: each in-flight wave runs its own Ray Data executor
that budgets CPUs and object-store memory as if it had the cluster to
itself, and a per-slot bound would also scale the redo after a kill with
the cluster. On a multi-node cluster a wave should hold enough fragments
to keep the cluster busy (``rows_per_partition`` ≈ throughput × minutes
of work); waves bound both checkpoint granularity and the recomputation
after a kill.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink


@dataclass(frozen=True)
class Fragment:
    """Lineage unit: a contiguous row-group range of one parquet file."""

    file: str
    rg_start: int  # inclusive
    rg_end: int    # exclusive
    rows: int


def list_fragments(paths: list[str], rgs_per_fragment: int = 4) -> list[Fragment]:
    """Deterministic fragment list: sorted files, fixed row-group chunks.

    Directory entries expand to their sorted contained ``*.parquet``
    files (recursive), so CLI ``--input DIR`` works as advertised."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                files.extend(os.path.join(root, n) for n in names
                             if n.endswith(".parquet"))
        else:
            files.append(path)
    frags: list[Fragment] = []
    for path in sorted(files):
        md = pq.ParquetFile(path).metadata
        n = md.num_row_groups
        for start in range(0, n, rgs_per_fragment):
            end = min(start + rgs_per_fragment, n)
            rows = sum(md.row_group(i).num_rows for i in range(start, end))
            frags.append(Fragment(path, start, end, rows))
    return frags


def plan_partitions(
    frags: list[Fragment], rows_per_partition: int
) -> list[list[Fragment]]:
    """Greedy deterministic bin-fill in fragment order."""
    parts: list[list[Fragment]] = []
    cur: list[Fragment] = []
    cur_rows = 0
    for f in frags:
        if cur and cur_rows + f.rows > rows_per_partition:
            parts.append(cur)
            cur, cur_rows = [], 0
        cur.append(f)
        cur_rows += f.rows
    if cur:
        parts.append(cur)
    return parts


def config_hash(spec) -> str:
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def committed_partitions(out_dir: str, cfg_hash: str) -> dict[int, dict]:
    """pid -> manifest for partitions already committed under this config."""
    mdir = _manifest_dir(out_dir)
    out: dict[int, dict] = {}
    if not os.path.isdir(mdir):
        return out
    for name in os.listdir(mdir):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        with open(os.path.join(mdir, name)) as f:
            m = json.load(f)
        if m.get("config_hash") == cfg_hash:
            out[int(m["part_id"])] = m
    return out


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, default=str)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _read_fragments_batch(batch: pa.Table):
    """Generator map_batches body: spec rows in → row-group tables out.

    Runs as parallel Ray tasks (one per spec block); each task streams its
    row groups so a fragment never needs to fit in memory twice.
    """
    for row in batch.to_pylist():
        pf = pq.ParquetFile(row["file"])
        for rg in range(row["rg_start"], row["rg_end"]):
            yield pf.read_row_group(rg)


def fragments_dataset(frags: list[Fragment]):
    """A Dataset of the fragments' rows, read in parallel by row group."""
    import ray.data as rd

    specs = [asdict(f) for f in frags]
    ds = rd.from_items(specs, override_num_blocks=max(1, len(specs)))
    return ds.map_batches(
        _read_fragments_batch, batch_format="pyarrow", batch_size=1
    )


def run_checkpointed(
    input_paths: list[str],
    out_dir: str,
    transform,  # Dataset -> Dataset (must add a `route` column)
    pipeline_spec,  # hashable config for the config_hash guard
    *,
    rows_per_partition: int = 2_000_000,
    rgs_per_fragment: int = 4,
    max_partitions: int | None = None,
) -> dict:
    """Run the pipeline wave-per-partition with atomic resume.

    Returns {"committed": int, "skipped": int, "total_counts":
    Counter[sink], "manifests": [dict]}. ``max_partitions`` bounds how many
    *new* partitions run this call (used by the kill/resume test).
    """
    cfg = config_hash(pipeline_spec)
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)

    frags = list_fragments(input_paths, rgs_per_fragment)
    parts = plan_partitions(frags, rows_per_partition)
    done = committed_partitions(out_dir, cfg)

    manifests: list[dict] = []
    todo: list[tuple[int, list[Fragment]]] = []
    for pid, part in enumerate(parts):
        committed = done.get(pid)
        # A committed pid is only valid if its LINEAGE matches the freshly
        # planned fragments — if the input file set changed, partition ids
        # reshuffle and a config-hash-only match would silently skip the
        # wrong data. Mismatched manifests are recomputed (atomic replace).
        if committed is not None and committed["fragments"] == [asdict(f) for f in part]:
            manifests.append(committed)
            continue
        if max_partitions is not None and len(todo) >= max_partitions:
            break
        todo.append((pid, part))
    skipped = len(manifests)

    new = _run_waves(todo, out_dir, transform, cfg) if todo else []
    manifests = sorted(manifests + new, key=lambda m: m["part_id"])
    total_counts: Counter = Counter()
    for m in manifests:
        total_counts.update(m["counts"])
    return {
        "committed": len(new),
        "skipped": skipped,
        "remaining": len(parts) - skipped - len(new),
        "total_counts": total_counts,
        "manifests": manifests,
    }


# One wave running, one being planned or committed (see the scale note).
_WAVES_IN_FLIGHT = 2


def _run_waves(todo, out_dir: str, transform, cfg: str) -> list[dict]:
    """Run the to-do partitions, at most ``_WAVES_IN_FLIGHT`` at once.

    ``transform`` is called here, in partition order, as a slot frees up;
    each wave then writes and commits on a pool thread. After a failure no
    new wave starts, the in-flight ones finish and commit, and the first
    error is re-raised. Returns the new manifests in completion order."""
    manifests: list[dict] = []
    errors: list[BaseException] = []

    def reap(finished):
        for fut in finished:
            if fut.exception() is None:
                manifests.append(fut.result())
            else:
                errors.append(fut.exception())

    with ThreadPoolExecutor(_WAVES_IN_FLIGHT) as pool:
        running: set = set()
        for pid, part in todo:
            if len(running) >= _WAVES_IN_FLIGHT:
                finished, running = wait(running, return_when=FIRST_COMPLETED)
                reap(finished)
            if errors:
                break
            routed = transform(fragments_dataset(part))
            running.add(pool.submit(_run_wave, pid, part, routed, out_dir, cfg))
        reap(wait(running).done)
    if errors:
        raise errors[0]
    return manifests


def _run_wave(pid: int, part: list, routed, out_dir: str, cfg: str) -> dict:
    """One wave: staged write → atomic rename per sink → manifest."""
    staging = os.path.join(out_dir, f".tmp-part-{pid}")
    if os.path.isdir(staging):
        shutil.rmtree(staging)  # leftover from a killed run — safe to redo
    sink = _StagedRouteSink(staging)
    routed.write_datasink(sink)

    counts: Counter = Counter()
    schema_hash = ""
    for task_counts, schema in sink.results:
        counts.update(task_counts)
        if schema is not None and not schema_hash:
            schema_hash = hashlib.sha256(
                schema.to_string().encode()).hexdigest()[:16]
    # An uncommitted or lineage-mismatched earlier run may have left
    # part-<pid> under any sink, including one this wave does not write.
    # out_dir belongs to the runner: apart from _manifest and the
    # .tmp-part-* staging, each directory in it is a sink.
    for name in os.listdir(out_dir):
        old = os.path.join(out_dir, name, f"part-{pid}")
        if not name.startswith(("_", ".")) and os.path.isdir(old):
            shutil.rmtree(old)
    for name in counts:
        dst = os.path.join(out_dir, name, f"part-{pid}")
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.replace(os.path.join(staging, f"route={name}"), dst)
    shutil.rmtree(staging, ignore_errors=True)

    manifest = {
        "part_id": pid,
        "fragments": [asdict(f) for f in part],
        "counts": dict(counts),
        "rows_in": sum(f.rows for f in part),
        "config_hash": cfg,
        "schema_hash": schema_hash,
    }
    _atomic_write_json(
        os.path.join(_manifest_dir(out_dir), f"part-{pid}.json"), manifest
    )
    return manifest


class _StagedRouteSink(Datasink):
    """Writes each task's rows as ``<staging>/route=<sink>/<unique>.parquet``
    without the ``route`` column. A task reports (per-sink row counts,
    written Arrow schema); the driver finds them in ``results``."""

    def __init__(self, staging: str):
        self.staging = staging
        self.results: list = []

    def write(self, blocks, ctx):
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        if not sum(t.num_rows for t in tables):
            return {}, None
        table = pa.concat_tables(tables, promote_options="permissive")
        routes = table["route"]
        if routes.null_count:
            raise ValueError("transform output has rows without a route")
        data = table.drop_columns(["route"])
        name = f"{uuid.uuid4().hex}.parquet"
        counts = {}
        for sink in pc.unique(routes).to_pylist():
            rows = data.filter(pc.equal(routes, sink))
            sink_dir = os.path.join(self.staging, f"route={sink}")
            os.makedirs(sink_dir, exist_ok=True)
            pq.write_table(rows, os.path.join(sink_dir, name))
            counts[sink] = rows.num_rows
        # the file's schema, not data.schema: parquet renames list items
        return counts, pq.read_schema(os.path.join(sink_dir, name))

    def on_write_complete(self, write_result):
        self.results = write_result.write_returns
