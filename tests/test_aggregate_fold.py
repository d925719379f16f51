"""The grouping kernel of ``stages/aggregate.py``: every aggregate
equals a DuckDB reference in both merge modes (null keys one group
each, an all-null sum stays null, min and max skip NaN and an all-NaN
group gives null), one pass makes several outputs,
inputs with no rows give no groups, many partial blocks fold to the
single-block answer, and tree mode plans one partial map with no
shuffle."""

from collections import Counter
from datetime import datetime, timedelta

import duckdb
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from go_logagent_ray.stages.aggregate import (aggregate_by, counts_by,
                                              fused_counts, grouped_sum,
                                              rollup_counts)

_T0 = datetime(2024, 1, 1)


def _rows(ds) -> Counter:
    """Rows of ``ds`` as value tuples, through Arrow (no pandas NaN/NaT)."""
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()),
                         promote_options="default")
    return Counter(tuple(r.values()) for r in t.to_pylist())


def _blocks(t: pa.Table, cuts: list[int]):
    """``t`` as one Dataset block per slice between sorted ``cuts``."""
    import ray.data as rd

    edges = [0] + sorted(c % (t.num_rows + 1) for c in cuts) + [t.num_rows]
    return rd.from_arrow([t.slice(a, b - a) for a, b in zip(edges, edges[1:])])


def _ref(sql: str, **tables) -> Counter:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return Counter(tuple(r.values()) for r in con.sql(sql).arrow().to_pylist())


@pytest.mark.parametrize("mode,last_key", [
    ("tree", None), ("shuffle", "c"), ("shuffle", None)])
def test_grouped_sum_all_null_group_is_null(ray_session, mode, last_key):
    """A group whose values are all null sums to NULL, as DuckDB's SUM
    does, in both modes, under a string key (its last value
    ``last_key``), an int64 key and a timestamp key, each with a null;
    the input spans two blocks, and every output block has one
    schema."""
    import ray

    keys = [pa.array(["a", "a", "b", last_key]),
            pa.array([1, 1, 2, None], pa.int64()),
            pa.array([_T0, _T0, _T0 + timedelta(hours=1), None],
                     pa.timestamp("us"))]
    for k in keys:
        t = pa.table({"k": k, "v": pa.array([None, None, 3, 4], pa.int64())})
        out = grouped_sum(_blocks(t, [2]), ["k"], "v", alias="s", mode=mode)
        blocks = ray.get(out.to_arrow_refs())
        assert len({b.schema for b in blocks}) == 1, [b.schema for b in blocks]
        got = Counter(tuple(r.values()) for b in blocks for r in b.to_pylist())
        want = _ref("SELECT k, SUM(v)::BIGINT AS s FROM t GROUP BY k", t=t)
        assert got == want
        assert (k[0].as_py(), None) in got


# min and max of an int64, a float64, a timestamp and a string column,
# as kernel aggregates and as DuckDB select items over ``_NO_NAN``
_MINMAX = {f"{op}_{c}": (op, c) for c in ("v", "f", "t", "s")
           for op in ("min", "max")}
_MINMAX_SQL = ", ".join(f"{op}({c}) AS {a}" for a, (op, c) in _MINMAX.items())
# the kernel's min and max skip NaN; DuckDB's would order it greatest
_NO_NAN = "(SELECT * REPLACE (CASE WHEN NOT isnan(f) THEN f END AS f) FROM {})"


@pytest.mark.parametrize("mode", ["tree", "shuffle"])
def test_one_pass_counts_and_two_sums_match_duckdb(ray_session, mode):
    """One ``aggregate_by`` pass makes a row count, two column sums and
    a min and a max of an int64, a float64, a timestamp and a string
    column over a null-holding string key and int64 key, across four
    blocks; it equals DuckDB (NaN skipped by min and max), including a
    group whose ``w`` values are all null."""
    import random

    rnd = random.Random(7)
    rows = []
    for j in range(400):
        s, i = rnd.choice(["x", "y", "", None]), rnd.choice([-1, 0, 5, None])
        rows.append({"s": s, "i": i,
                     "v": rnd.choice([None, rnd.randint(-99, 99)]),
                     "w": None if s is None and i is None else 10**12 + j,
                     "f": rnd.choice([None, float("nan"), rnd.random()]),
                     "t": rnd.choice([None, _T0 + timedelta(hours=j)])})
    t = pa.Table.from_pylist(rows, schema=pa.schema(
        [("s", pa.string()), ("i", pa.int64()), ("v", pa.int64()),
         ("w", pa.int64()), ("f", pa.float64()), ("t", pa.timestamp("us"))]))
    aggs = {"n": ("count", None), "sv": ("sum", "v"), "sw": ("sum", "w"),
            **_MINMAX}
    out = aggregate_by(_blocks(t, [90, 170, 300]), ["s", "i"], aggs, mode)
    assert out.schema().types == [t.schema.field(c).type for c in "si"] + [
        pa.int64()] * 3 + [t.schema.field(c).type for _, c in _MINMAX.values()]
    got = _rows(out)
    want = _ref("SELECT s, i, COUNT(*) AS n, SUM(v)::BIGINT AS sv, "
                f"SUM(w)::BIGINT AS sw, {_MINMAX_SQL} "
                f"FROM {_NO_NAN.format('t')} GROUP BY s, i", t=t)
    assert got == want
    assert (None, None) in {r[:2] for r in got if r[4] is None}


@pytest.mark.parametrize("mode", ["tree", "shuffle"])
def test_all_nan_group_min_max_is_null(ray_session, mode):
    """A float group that holds only NaN (and null) gives null min and
    max, not NaN or ±inf, however its rows split over blocks; a group
    with one number beside NaN gives that number."""
    nan = float("nan")
    t = pa.table({"k": ["a", "a", "b", "b", "a", "c"],
                  "f": pa.array([nan, nan, nan, 2.5, None, nan])})
    for cuts in ([], [1], [3]):
        out = aggregate_by(_blocks(t, cuts), ["k"], {
            "lo": ("min", "f"), "hi": ("max", "f")}, mode)
        assert _rows(out) == Counter({("a", None, None): 1,
                                      ("b", 2.5, 2.5): 1,
                                      ("c", None, None): 1}), cuts


def test_shuffle_keeps_a_null_key_whole_across_null_typed_blocks(
        ray_session):
    """A block whose key columns are all null arrives with the Null
    dtype; its (null, null) rows still merge with the typed block's
    into one group in shuffle mode (one shard for one key tuple)."""
    import ray
    import ray.data as rd

    items = [{"k": None, "i": None, "v": 1}] * 3 + [
        {"k": "a", "i": None, "v": 2}, {"k": None, "i": 5, "v": 3},
        {"k": None, "i": None, "v": 10}]
    ds = rd.from_items(items, override_num_blocks=2)
    assert pa.null() in ray.get(ds.to_arrow_refs())[0].schema.types
    want = Counter({(None, None, 4, 13): 1, ("a", None, 1, 2): 1,
                    (None, 5, 1, 3): 1})
    for mode in ("tree", "shuffle"):
        got = aggregate_by(ds, ["k", "i"],
                           {"n": ("count", None), "s": ("sum", "v")}, mode)
        assert _rows(got) == want, mode


_EDGE_T = pa.table({"k": ["a", "b", "a", "c", "b", "a"],
                    "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64())})


@pytest.mark.parametrize("filtered", [False, True])
def test_no_input_rows_give_no_groups(ray_session, filtered):
    """Every aggregate returns zero rows when no row reaches it, from an
    empty input or one filtered down to nothing; the rollup still has
    its grand-total row with count 0."""
    import ray.data as rd

    ds = (_blocks(_EDGE_T, [2, 4]).filter(lambda r: False) if filtered
          else rd.from_arrow(_EDGE_T.slice(0, 0)))
    assert counts_by(ds, ["k"]).count() == 0
    assert grouped_sum(ds, ["k"], "v", alias="s").count() == 0
    assert fused_counts(ds, {"by_k": ["k"], "by_v": ["v"]}).count() == 0
    out = rollup_counts(ds, ["k"], sentinels={"k": "ALL"}).to_pandas()
    assert out.to_dict("records") == [{"k": "ALL", "n": 0}]


def test_many_partial_blocks_fold_to_single_block_answer(ray_session):
    """40 blocks of 50 rows over the same 51 keys (a null one included):
    each block's partial holds about as many rows as the running result,
    so the fold merges about every second block. The answer equals a
    single-block run, one row per key."""
    import ray.data as rd

    n = 2000
    t = pa.table({"k": pa.array([i % 50 if i % 7 else None
                                 for i in range(n)], pa.int64()),
                  "v": pa.array(range(n), pa.int64())})
    many = grouped_sum(_blocks(t, list(range(50, n, 50))), ["k"], "v",
                       alias="s")
    one = grouped_sum(rd.from_arrow(t), ["k"], "v", alias="s")
    got = _rows(many)
    assert got == _rows(one) and len(got) == 51


def _op_names(ds) -> list[str]:
    names: list[str] = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        names.extend(o.operator_name for o in summary.operators_stats)

    walk(ds._get_stats_summary())
    return names


def test_counts_by_plans_one_partial_map_and_no_repartition(ray_session,
                                                            monkeypatch):
    """On a multi-block input, ``counts_by`` executes one
    ``MapBatches(partial)`` and no ``Repartition``, barrier or shuffle:
    the operators of every Dataset it iterates and of its result."""
    from ray.data import Dataset

    iterated: list = []
    iter_batches = Dataset.iter_batches

    def spy(self, *args, **kwargs):
        iterated.append(self)
        return iter_batches(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "iter_batches", spy)
    out = counts_by(_blocks(_EDGE_T, [2, 4]), ["k"]).materialize()
    ops = [op for ds in iterated + [out] for op in _op_names(ds)]
    assert sum("MapBatches(partial)" in op for op in ops) == 1
    assert not [op for op in ops if "Repartition" in op]
    assert _rows(out) == Counter({("a", 3): 1, ("b", 2): 1, ("c", 1): 1})


_row = st.fixed_dictionaries({
    "s": st.one_of(st.none(), st.sampled_from(["x", "y", ""])),
    "i": st.one_of(st.none(), st.integers(-2, 2)),
    "t": st.one_of(st.none(), st.integers(0, 2).map(
        lambda h: _T0 + timedelta(hours=h))),
    "v": st.one_of(st.none(), st.integers(-10**6, 10**6)),
    "f": st.one_of(st.none(), st.just(float("nan")), st.floats(-1e6, 1e6)),
})
_SCHEMA = pa.schema([("s", pa.string()), ("i", pa.int64()),
                     ("t", pa.timestamp("us")), ("v", pa.int64()),
                     ("f", pa.float64())])


@settings(max_examples=20, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=60),
       reps=st.integers(1, 200),
       cuts=st.lists(st.integers(0, 60), max_size=4))
def test_aggregates_match_duckdb_with_null_keys(ray_session, rows, reps,
                                                cuts):
    """Nulls in string, int64 and timestamp key columns over several
    blocks: one row per key, equal to DuckDB, for ``counts_by``,
    ``grouped_sum``, min and max of every column (in both modes) and
    ``fused_counts``. Repeating the rows puts up to thousands of rows
    of one null-holding key in a block, where pyarrow's grouper splits
    that key into many partial rows."""
    tbl = pa.Table.from_pylist(rows * reps, schema=_SCHEMA)
    keys = ["s", "i", "t"]
    for mode in ("tree", "shuffle"):
        assert _rows(counts_by(_blocks(tbl, cuts), keys, mode=mode)) == _ref(
            "SELECT s, i, t, COUNT(*) AS n FROM tbl GROUP BY s, i, t",
            tbl=tbl)
        assert _rows(grouped_sum(_blocks(tbl, cuts), keys, "v", alias="sv",
                                 mode=mode)) \
            == _ref("SELECT s, i, t, SUM(v)::BIGINT AS sv FROM tbl "
                    "GROUP BY s, i, t", tbl=tbl)
        assert _rows(aggregate_by(_blocks(tbl, cuts), ["i"], _MINMAX,
                                  mode)) \
            == _ref(f"SELECT i, {_MINMAX_SQL} FROM {_NO_NAN.format('tbl')} "
                    "GROUP BY i", tbl=tbl)
    got = fused_counts(_blocks(tbl, cuts), {"si": ["s", "i"], "t": ["t"]})
    assert _rows(got) == _ref(
        "SELECT 'si' AS _agg, s, i, NULL::TIMESTAMP AS t, COUNT(*) AS n "
        "FROM tbl GROUP BY s, i UNION ALL "
        "SELECT 't', NULL, NULL, t, COUNT(*) FROM tbl GROUP BY t", tbl=tbl)
