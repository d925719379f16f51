"""Sketch family: HLL distinct, mergeable histogram quantiles, median."""

import numpy as np
import pyarrow as pa


def test_hll_accuracy(ray_session):
    import ray.data as rd

    from go_logagent_ray.stages.sketch import hll_distinct

    rng = np.random.default_rng(9)
    true_n = 5000
    vals = [f"user-{i}" for i in rng.integers(0, true_n, size=40_000)]
    distinct_true = len(set(vals))
    ds = rd.from_arrow(pa.table({"u": pa.array(vals)})).repartition(8)
    est = hll_distinct(ds, "u", p=12)
    assert abs(est - distinct_true) / distinct_true < 0.05  # ~1.6% expected


def test_hll_merge_invariance(ray_session):
    """Same data, different block layout → same estimate (mergeable)."""
    import ray.data as rd

    from go_logagent_ray.stages.sketch import hll_distinct

    vals = [f"k{i}" for i in range(3000)]
    t = pa.table({"u": pa.array(vals)})
    a = hll_distinct(rd.from_arrow(t).repartition(2), "u")
    b = hll_distinct(rd.from_arrow(t).repartition(16), "u")
    assert a == b


def test_quantile_histogram(ray_session):
    import ray.data as rd

    from go_logagent_ray.stages.sketch import (
        quantile_histogram,
        quantiles_from_hist,
    )

    rng = np.random.default_rng(4)
    v = rng.uniform(0, 100, size=50_000)
    ds = rd.from_arrow(pa.table({"v": pa.array(v)})).repartition(8)
    hist = quantile_histogram(ds, "v", lo=0.0, hi=100.0, bins=2048)
    assert hist.sum() == len(v)
    got = quantiles_from_hist(hist, 0.0, 100.0, [0.25, 0.5, 0.9])
    exact = np.quantile(v, [0.25, 0.5, 0.9])
    for g, e in zip(got, exact):
        assert abs(g - e) <= 100.0 / 2048 + 1e-9  # one bin width


def test_exact_group_median(ray_session):
    import ray.data as rd

    from go_logagent_ray.stages.sketch import exact_group_median

    t = pa.table({"k": ["a"] * 4 + ["b"] * 3,
                  "v": [1.0, 2.0, 3.0, 10.0, 5.0, 7.0, 9.0]})
    out = {r["k"]: r["median_x1000"] for r in
           exact_group_median(rd.from_arrow(t), "k", "v").take_all()}
    assert out == {"a": 2500, "b": 7000}


def test_profile_numeric_with_nulls_and_nans(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.profile import profile_numeric

    t = pa.table({
        "a": pa.array([1, None, 3, None, 5], type=pa.int64()),
        "b": pa.array([2.5, float("nan"), None, 0.0, 9.75]),
    })
    out = {r["column"]: (r["n"], r["n_null"], r["n_nan"], r["min"], r["max"])
           for r in profile_numeric(rd.from_arrow(t).repartition(3),
                                    ["a", "b"]).take_all()}
    assert out["a"] == (5, 2, 0, 1.0, 5.0)
    # NaN counted separately; min/max over non-NaN values
    assert out["b"] == (5, 1, 1, 0.0, 9.75)


def test_profile_numeric_all_nan_column_reports_null(ray_session):
    """Regression (r2 advice): pc.min_max over an all-NaN (or NaN+null)
    column returns +inf/-inf on pyarrow 16 — the profile must mask NaN
    first and report null min/max, matching the SQL oracle's NULL."""
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.profile import profile_numeric

    nan = float("nan")
    t = pa.table({
        "allnan": pa.array([nan, nan, nan]),
        "nan_and_null": pa.array([nan, None, nan]),
        "allnull": pa.array([None, None, None], type=pa.float64()),
    })
    out = {r["column"]: (r["n"], r["n_null"], r["n_nan"], r["min"], r["max"])
           for r in profile_numeric(rd.from_arrow(t).repartition(2),
                                    ["allnan", "nan_and_null",
                                     "allnull"]).take_all()}
    assert out["allnan"] == (3, 0, 3, None, None)
    assert out["nan_and_null"] == (3, 1, 2, None, None)
    assert out["allnull"] == (3, 3, 0, None, None)


def test_grouped_quantiles_negative_and_nan():
    import numpy as np
    import pyarrow as pa
    import ray

    from go_logagent_ray.stages.sketch import grouped_quantiles

    vals = [-1.005, -0.5, 0.0, 0.25, 1.0, float("nan"), 2.0]
    t = pa.table({
        "k": pa.array(["a"] * len(vals) + ["b"] * 3, pa.string()),
        "v": pa.array(vals + [10.0, 20.0, 30.0], pa.float64()),
    })
    out = grouped_quantiles(ray.data.from_arrow(t), "k", "v",
                            {"p50": 0.5, "p100": 1.0}).to_pandas()
    out = out.set_index("k")
    # group a: cents sorted [-100, -50, 0, 25, 100, 200] (NaN dropped;
    # -1.005*100+0.5 = -100.0 floor -> -100); p50 idx=ceil(6*.5)-1=2 -> 0
    assert out.loc["a", "p50"] == 0 and out.loc["a", "p100"] == 200
    assert out.loc["b", "p50"] == 2000 and out.loc["b", "p100"] == 3000


def test_grouped_quantiles_null_key_is_one_group(ray_session):
    """A null string key over two blocks is one group, as in DuckDB's
    ``quantile_disc ... GROUP BY k`` (Ray's sort on the raw key raised
    ``TypeError`` comparing None with str)."""
    from collections import Counter

    import duckdb
    import ray
    import ray.data as rd

    from go_logagent_ray.stages.sketch import grouped_quantiles

    t = pa.table({"k": ["a", None, "b", "a"], "v": [1.25, 2.5, 3.0, 0.5]})
    qs = {"p50": 0.5, "p90": 0.9, "p0": 0.0}
    out = grouped_quantiles(rd.from_arrow([t.slice(0, 2), t.slice(2)]),
                            "k", "v", qs)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    sql = ", ".join(f"quantile_disc(c, {q}) AS {n}" for n, q in qs.items())
    want = duckdb.sql(f"SELECT k, {sql} FROM (SELECT k, "
                      "CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS c FROM t) "
                      "GROUP BY k").arrow()
    assert got.schema == want.schema
    assert Counter(tuple(r.values()) for r in got.to_pylist()) == \
        Counter(tuple(r.values()) for r in want.to_pylist())
    assert (None, 250, 250, 250) in {tuple(r.values())
                                     for r in got.to_pylist()}


def test_heavy_hitters_exact_when_distinct_fits_and_bounded_error():
    import numpy as np
    import pyarrow as pa
    import ray

    from go_logagent_ray.stages.sketch import heavy_hitters

    # exact regime: distinct <= k
    vals = ["a"] * 100 + ["b"] * 50 + ["c"] * 7 + ["d"] * 1
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.string())}))
    out = heavy_hitters(ds, "v", k=8, min_count=2)
    got = dict(zip(out.v, out.est_count))
    assert got == {"a": 100, "b": 50, "c": 7}

    # bounded-error regime: distinct >> k; heavy value must survive
    rng = np.random.default_rng(9)
    tail = [f"t{i}" for i in rng.integers(0, 5000, 20_000)]
    vals2 = ["HOT"] * 4000 + tail
    ds2 = ray.data.from_arrow(pa.table({"v": pa.array(vals2, pa.string())}))
    out2 = heavy_hitters(ds2, "v", k=64, min_count=1)
    got2 = dict(zip(out2.v, out2.est_count))
    n = len(vals2)
    assert "HOT" in got2
    assert 4000 - n // 65 <= got2["HOT"] <= 4000
