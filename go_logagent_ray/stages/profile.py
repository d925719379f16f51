"""Column profiling — per-column data-quality stats in one pass.

A corpus pipeline's standard pre-flight: row/null/NaN counts and value
ranges per column, computed as per-batch partials (one tiny row per
column per batch) merged on the driver (``aggregate_by``, tree mode):
only O(columns × blocks) rows leave the tasks regardless of data size.
Only order-independent stats are emitted (counts, min, max): a float
SUM would depend on reduction order and could not be oracle-compared
exactly.

NaN semantics: min/max are defined OVER NON-NaN VALUES and NaNs are
counted separately in ``n_nan`` — engines disagree on NaN ordering
(Arrow kernels skip NaN, DuckDB sorts it greatest), so baking NaN into
min/max would silently diverge from any SQL oracle; the explicit count
keeps the comparison exact and is more useful profiling output anyway.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..functions.arrow_utils import as_combined
from .aggregate import aggregate_by


def profile_numeric(ds: Dataset, columns: list[str]) -> Dataset:
    """Per-column (n, n_null, n_nan, min, max) over numeric columns, all
    values cast to float64 for a uniform output schema. Output: one row
    per column — (column:string, n:int64, n_null:int64, n_nan:int64,
    min:float64, max:float64); min/max are null for an all-null/NaN
    column."""

    def partial(batch: pa.Table) -> pa.Table:
        names, ns, nulls, nans, mins, maxs = [], [], [], [], [], []
        for c in columns:
            col = pc.cast(as_combined(batch[c]), pa.float64())
            v = col.to_numpy(zero_copy_only=False)
            # to_numpy renders nulls as NaN too — subtract them out
            n_nan = int(np.isnan(v).sum()) - col.null_count
            # mask NaN to null BEFORE min_max: on an all-NaN (or NaN+null)
            # batch pc.min_max returns +inf/-inf instead of null
            # (pyarrow 16.1), which would leak inf into the merged profile;
            # with NaN masked out an all-NaN batch yields null as documented
            masked = pc.if_else(pc.is_nan(col),
                                pa.scalar(None, type=pa.float64()), col)
            mm = pc.min_max(masked)
            names.append(c)
            ns.append(batch.num_rows)
            nulls.append(col.null_count)
            nans.append(n_nan)
            mins.append(mm["min"].as_py())
            maxs.append(mm["max"].as_py())
        return pa.table({
            "column": pa.array(names, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
            "n_null": pa.array(nulls, type=pa.int64()),
            "n_nan": pa.array(nans, type=pa.int64()),
            "min": pa.array(mins, type=pa.float64()),
            "max": pa.array(maxs, type=pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return aggregate_by(partials, ["column"], {
        "n": ("sum", "n"), "n_null": ("sum", "n_null"),
        "n_nan": ("sum", "n_nan"), "min": ("min", "min"),
        "max": ("max", "max")}, "tree")


def grouped_zscore_filter(ds: Dataset, group_key: str, value_col: str,
                          z: int = 2) -> Dataset:
    """Per-group σ-outlier removal over an INTEGER column: keep rows
    with |x − μ_g| ≤ z·σ_g, the "drop length outliers per source"
    curation gate.

    Two-pass grouped-statistics shape (the grouped sibling of the
    global-quantile gate): pass 1 reduces every batch to one
    (group, n, Σx, Σx²) partial row per group and the driver merges
    them (``aggregate_by``, tree mode); the per-group thresholds
    broadcast as plain ints; pass 2 is a vectorized streaming filter.

    EXACT integer formulation — no float mean/std ever computed, so an
    oracle hash cannot drift on rounding:

        |x − S/n| ≤ z·σ  ⟺  (x·n − S)² ≤ z²·(n·Σx² − S²)

    evaluated vectorized in int64 when a conservative driver-side bound
    proves (x·n − S)² and the RHS fit (|x| ≤ √Σx² bounds |d|), else a
    per-row Python-int fallback for the comparison. REGIME: the
    (n, Σx, Σx²) partials themselves accumulate in int64, so each
    group needs n_g · max(x)² < 2^63 (e.g. 10⁹ rows of values ≤ 3·10⁴,
    or 10⁶ rows ≤ 10⁶) — per-row squares are multiply_checked and fail
    loudly, and beyond the sum bound the extension is a hi/lo split
    accumulator. Null group or value rows are dropped (SQL join
    semantics)."""
    import math

    import ray

    def squares(batch: pa.Table) -> pa.Table:
        t = batch.select([group_key, value_col]).drop_null()
        x = pc.cast(t.column(value_col), pa.int64())
        return pa.table({group_key: t.column(group_key), "s": x,
                         "s2": pc.multiply_checked(x, x)})

    sq = ds.map_batches(squares, batch_format="pyarrow", batch_size=None)
    stats = aggregate_by(sq, [group_key], {"n": ("count", None),
                                           "s": ("sum", "s"),
                                           "s2": ("sum", "s2")}, "tree")
    # group cardinality is bounded (languages/sources); Python ints for
    # the exact arithmetic. Per group: keep (n, S, rhs) and whether the
    # int64 vectorized compare is PROVEN safe via |d| ≤ n·√Σx² + |S|.
    thr: dict = {}
    for b in stats.iter_batches(batch_format="pyarrow"):
        for g, n, s, s2 in zip(b[group_key].to_pylist(),
                               b["n"].to_pylist(), b["s"].to_pylist(),
                               b["s2"].to_pylist()):
            n, s, s2 = int(n), int(s), int(s2)
            var_term = n * s2 - s * s
            if s2 < 0 or var_term < 0:
                # Arrow's int64 sum is unchecked — a wrapped Σx² shows
                # up as a negative sum or a Cauchy-Schwarz violation
                # (n·Σx² ≥ S² always holds mathematically)
                raise ValueError(
                    f"grouped_zscore_filter: group {g!r} partial sums "
                    "overflowed int64 — the regime bound "
                    "n_g·max(x)² < 2^63 is exceeded; rescale values "
                    "or add a hi/lo split accumulator")
            rhs = z * z * var_term
            d_bound = n * (math.isqrt(s2) + 1) + abs(s)
            fits = d_bound * d_bound < (1 << 63) and rhs < (1 << 63)
            thr[g] = (n, s, rhs, fits)
    keys = list(thr)
    fit_np = np.array([thr[g][3] for g in keys], dtype=bool)
    # unfit groups get zero placeholders — never read on the vector
    # path (masked by fit_np), never overflow it either
    n_a = np.array([thr[g][0] if thr[g][3] else 0 for g in keys],
                   np.int64)
    s_a = np.array([thr[g][1] if thr[g][3] else 0 for g in keys],
                   np.int64)
    rhs_a = np.array([thr[g][2] if thr[g][3] else 0 for g in keys],
                     np.int64)
    bad = {g: thr[g][:3] for g in keys if not thr[g][3]}
    ref = ray.put((pa.array(keys), n_a, s_a, rhs_a, fit_np, bad))

    def keep(batch: pa.Table) -> pa.Table:
        key_arr, n_v, s_v, rhs_v, fit_v, bad_v = ray.get(ref)
        # null checks on the join columns only — other columns may
        # legitimately hold nulls
        t = batch.filter(pc.and_(pc.is_valid(batch[group_key]),
                                 pc.is_valid(batch[value_col])))
        if t.num_rows == 0:
            return t
        idx = pc.index_in(as_combined(t[group_key]), value_set=key_arr)
        valid = pc.is_valid(idx).to_numpy(zero_copy_only=False) \
            .astype(bool)
        ii = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        x = t.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d = x * n_v[ii] - s_v[ii]
        fit_rows = fit_v[ii]
        mask = valid & fit_rows & (d * d <= rhs_v[ii])
        # per-row Python-int fallback ONLY for rows of unproven groups
        unfit = np.nonzero(valid & ~fit_rows)[0]
        if unfit.size:
            gcol = t.column(group_key)
            for i in unfit:
                st = bad_v.get(gcol[int(i)].as_py())
                if st is not None:
                    n, s, rhs = st
                    dd = int(x[i]) * n - s
                    mask[i] = dd * dd <= rhs
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")
