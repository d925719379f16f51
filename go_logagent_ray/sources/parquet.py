"""Parquet source (S1) — the transcript-table analog of the reference's
file input (``ref: input/file/`` [U-recall], SURVEY.md §2.1).

The reference tails log files with per-file byte offsets; here the input
is a (directory of) parquet file(s) and resume granularity is the
per-partition checkpoint manifest (state/checkpoint.py). This module adds
the read-side scale hygiene:

- column pruning at the read (never load columns a 2-column transform
  doesn't need),
- one output block per CPU slot of the running session
  (``override_num_blocks``). Left to itself, Ray splits every file into
  ~1 MiB blocks (``ReadParquet->SplitBlocks``), and the filter chain runs
  them as many small map+write tasks, each writing one file per sink —
  fixed per-task and per-file cost that buys no parallelism (1 CPU, 180k
  rows in 4 files: 36 tasks and 128 sink files, against 1 task and 4
  files planned per CPU). With fewer CPUs than files Ray merges files
  into fewer streaming read tasks (blocks capped at
  ``target_max_block_size``), each fused with the chain and the write into
  one task; with more CPUs than files it still splits, each file into
  ceil(CPUs / files) blocks, and the split read stays its own operator.
"""

from __future__ import annotations

from ray.data import Dataset


def read_transcripts(paths: str | list[str], columns: list[str] | None = None) -> Dataset:
    import ray
    import ray.data as rd

    # Ray is up under the driver contract; one block per CPU slot (above)
    kwargs = {"override_num_blocks": int(ray.cluster_resources()["CPU"])}
    if columns is not None:
        kwargs["columns"] = columns
    return rd.read_parquet(paths, **kwargs)


def from_lines(lines: list[str]) -> Dataset:
    """Stdin-analog inline source for ad-hoc runs/tests (S2,
    ``ref: input/stdin/`` [U-recall]): one row per line, ``text`` column."""
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow(pa.table({"text": pa.array(lines, type=pa.string())}))
