"""Session-scoped Ray fixture — Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def transcripts_small():
    """1,128-row deterministic transcript table: 50 conversations of mean
    8 turns, one of them hot at 800 turns (FIXTURES.md smoke size)."""
    from go_logagent_ray.fixtures import gen_transcripts

    return gen_transcripts(50, 8, seed=42, hot_frac=0.02)


@pytest.fixture(scope="session")
def transcripts_parquet(tmp_path_factory, transcripts_small):
    import pyarrow.parquet as pq

    path = tmp_path_factory.mktemp("data") / "transcripts.parquet"
    pq.write_table(transcripts_small, str(path), row_group_size=64)
    return str(path)


@pytest.fixture(scope="session")
def oracle_result(transcripts_small):
    from go_logagent_ray.oracle import run_oracle

    return run_oracle(transcripts_small)


@pytest.fixture(scope="session")
def transcripts_null_ts():
    """~2.4k-row transcript table with every 7th ``ts`` null, so the
    ``ts_hour`` key is null on those rows. Large enough to span several
    batches: ``transcripts_small`` is too small to show a split group."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from go_logagent_ray.fixtures import gen_transcripts

    t = gen_transcripts(300, 8, seed=42)
    i = t.schema.get_field_index("ts")
    null_row = pa.array(np.arange(t.num_rows) % 7 == 0)
    ts = pc.if_else(null_row, pa.scalar(None, t["ts"].type), t["ts"])
    return t.set_column(i, "ts", ts)
