"""Local mirror of the driver's correctness gate: run every queries()
entry at sf0.001 and compare against its oracle_sql() via DuckDB —
row count, column names, and order-insensitive value equality."""

import math

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def ddb():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


def _to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
        elif str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("int64", errors="ignore")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _query_names():
    from go_logagent_ray.pipelines.queries import (EXTRA_QUERIES, ORACLE_SQL,
                                                   QUERIES)
    return sorted(QUERIES) + sorted(EXTRA_QUERIES), ORACLE_SQL


NAMES, _ = _query_names()


def test_driver_window_is_exactly_50():
    """The driver runs the first 50 queries() entries; the registry must
    expose exactly 50 so every operator lands in the CORRECTNESS window
    (round-2 lesson: entries 51+ silently go unverified)."""
    from go_logagent_ray.pipelines.queries import EXTRA_QUERIES, QUERIES

    assert len(QUERIES) == 50
    assert not set(QUERIES) & set(EXTRA_QUERIES)


@pytest.mark.parametrize("name", NAMES)
def test_query_matches_oracle(name, ray_session, ddb):
    from go_logagent_ray.pipelines.queries import EXTRA_QUERIES, ORACLE_SQL, QUERIES

    fn = QUERIES.get(name) or EXTRA_QUERIES[name]
    got = _normalize(_to_pandas(fn(SF_DIR)))
    if name not in ORACLE_SQL:
        # rows-only check, like the driver's weaker gate
        assert got is not None
        return
    exp = _normalize(ddb.sql(ORACLE_SQL[name]).df())
    assert list(got.columns) == list(exp.columns), (
        f"{name}: column mismatch {list(got.columns)} vs {list(exp.columns)}")
    assert len(got) == len(exp), f"{name}: row count {len(got)} vs {len(exp)}"
    for c in got.columns:
        a, b = got[c], exp[c]
        if str(a.dtype).startswith("float") or str(b.dtype).startswith("float"):
            assert all(
                (math.isnan(x) and math.isnan(y)) or abs(x - y) <= 1e-6
                for x, y in zip(a.astype(float), b.astype(float))
            ), f"{name}.{c}: value mismatch"
        else:
            same = a.astype(str).values == b.astype(str).values
            assert same.all(), (
                f"{name}.{c}: {int((~same).sum())} mismatches, e.g. "
                f"{a[~same].head(3).tolist()} vs {b[~same].head(3).tolist()}")
