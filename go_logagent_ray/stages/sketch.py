"""Mergeable sketches for wide aggregates (A3 family, beyond the reference).

Sketches are the scale answer when exact grouped state is too big: each
batch emits ONE serialized sketch, and sketches merge associatively in a
tiny reduce — the shuffle moves kilobytes regardless of input size.

- ``hll_distinct``: HyperLogLog (dense, 2^p registers) distinct count.
  Standard bias-corrected estimator over stable 64-bit hashes; relative
  error ≈ 1.04/√(2^p).
- ``quantile_histogram`` / ``quantiles_from_hist``: fixed-range binned
  histogram (numpy bincount per batch, vector add to merge) giving
  quantiles with error bounded by the bin width — the cheap, fully
  mergeable alternative to exact sort-based quantiles.
- ``exact_group_median``: exact per-group median via ``map_groups``
  (partitioning assumption: one group fits one task — use the histogram
  path when it does not).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from ..functions.arrow_utils import as_combined


# ------------------------------------------------------------------- HLL


def _hll_update(registers: np.ndarray, hashes: np.ndarray, p: int) -> None:
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    # low 64-p bits, with a sentinel 1 so rank is bounded by 64-p+1
    rest = (hashes << np.uint64(p)) | np.uint64((1 << p) - 1)
    # rank = leading zeros + 1, via float log2 (exact for the leading bit:
    # float64 has 52 mantissa bits but the TOP bit position is what log2
    # floors to, unaffected by low-bit rounding)
    lead = 63 - np.floor(np.log2(rest.astype(np.float64))).astype(np.int64)
    rank = np.clip(lead + 1, 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(registers, idx, rank)


def _hll_estimate(registers: np.ndarray) -> float:
    m = len(registers)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -registers.astype(np.float64)))
    zeros = int((registers == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return float(est)


def hll_distinct(ds: Dataset, column: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT column); one 2^p-byte sketch per batch,
    merged by element-wise max. Error ≈ 1.04/√(2^p) (~1.6% at p=12)."""
    import polars as pl

    m = 1 << p

    def batch_sketch(batch: pa.Table) -> pa.Table:
        # fully vectorized: polars cast-to-Utf8 + hash (no per-row str())
        s = pl.Series(pl.from_arrow(as_combined(batch[column]))).drop_nulls()
        if s.dtype != pl.Utf8:
            s = s.cast(pl.Utf8)
        reg = np.zeros(m, dtype=np.uint8)
        if len(s):
            h = s.hash(seed=0).to_numpy().astype(np.uint64, copy=False)
            _hll_update(reg, h, p)
        return pa.table({"sketch": pa.array([reg.tobytes()], type=pa.binary())})

    sketches = ds.map_batches(batch_sketch, batch_format="pyarrow",
                              batch_size=None)
    reg = np.zeros(m, dtype=np.uint8)
    for row in sketches.take_all():  # one tiny row per block
        np.maximum(reg, np.frombuffer(row["sketch"], dtype=np.uint8), out=reg)
    return _hll_estimate(reg)


# ------------------------------------------------------------ histograms


def quantile_histogram(ds: Dataset, column: str, lo: float, hi: float,
                       bins: int = 4096) -> np.ndarray:
    """Mergeable fixed-range histogram of a numeric column (counts per
    bin; under/overflow clamped to edge bins)."""

    def batch_hist(batch: pa.Table) -> pa.Table:
        v = as_combined(batch[column]).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        b = np.clip(((v - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)
        counts = np.bincount(b, minlength=bins)
        return pa.table({"hist": pa.array([counts.astype(np.int64).tobytes()],
                                          type=pa.binary())})

    out = np.zeros(bins, dtype=np.int64)
    for row in ds.map_batches(batch_hist, batch_format="pyarrow",
                              batch_size=None).take_all():
        out += np.frombuffer(row["hist"], dtype=np.int64)
    return out


def quantiles_from_hist(hist: np.ndarray, lo: float, hi: float,
                        qs: list[float]) -> list[float]:
    """Quantiles from a merged histogram; error ≤ one bin width."""
    cum = np.cumsum(hist)
    total = cum[-1]
    bins = len(hist)
    out = []
    for q in qs:
        target = q * total
        b = int(np.searchsorted(cum, target))
        out.append(lo + (hi - lo) * (b + 0.5) / bins)
    return out


# ---------------------------------------------------------- exact median


def exact_group_median(ds: Dataset, key: str, value: str,
                       alias: str = "median_x1000") -> Dataset:
    """Exact per-group continuous median (interpolated), returned as
    integer thousandths so float rounding cannot diverge from the SQL
    oracle. Assumes one group fits one task — the documented boundary;
    use quantile_histogram beyond it."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        med = float(np.median(g[value].to_numpy()))
        return pd.DataFrame({key: [g[key].iloc[0]],
                             alias: np.array([round(med * 1000)], dtype=np.int64)})

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


# ---------------------------------------------------------- heavy hitters


def heavy_hitters(ds: Dataset, column: str, *, k: int = 64,
                  min_count: int = 1) -> "pd.DataFrame":
    """Misra–Gries heavy hitters over a (possibly exploded) value
    column: each batch maintains a k-counter summary, summaries merge
    associatively (counter-wise add, then decrement by the (k+1)-th
    largest), so the shuffle moves at most k (value, count) rows per
    block regardless of input size.

    Guarantee (standard MG): estimated_count ∈ [true − n/(k+1), true]
    and every value with true count > n/(k+1) survives.  When the
    distinct-value count is ≤ k the summary is EXACT — which is what
    the oracle-checked query exploits (31-term vocabulary, k = 64 →
    exact counts, plain GROUP BY SQL).

    Returns a pandas DataFrame (value, est_count) sorted by
    (est_count desc, value asc), filtered to est_count ≥ min_count.
    """
    from collections import Counter

    def partial(batch: pa.Table) -> pa.Table:
        """Vectorized per-batch summary: exact polars value_counts, then
        the MG compress (subtract the (k+1)-th largest count, keep the
        positive remainder) — equivalent error bound to the classic
        per-row update, with no Python loop over rows."""
        import polars as pl

        s = pl.Series(pl.from_arrow(as_combined(batch[column]))) \
            .drop_nulls()
        if s.dtype != pl.Utf8:
            s = s.cast(pl.Utf8)
        if len(s) == 0:
            return pa.table({"v": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        vc = s.value_counts()
        vals = vc[s.name].to_numpy()
        cnts = vc["count"].to_numpy().astype(np.int64)
        order = np.argsort(-cnts, kind="stable")
        vals, cnts = vals[order], cnts[order]
        if len(cnts) > k:
            cnts = cnts - cnts[k]
            keep = cnts > 0
            vals, cnts = vals[keep], cnts[keep]
        return pa.table({"v": pa.array(vals.astype(object), pa.string()),
                         "n": pa.array(cnts, pa.int64())})

    merged: Counter = Counter()
    for row in ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=None).take_all():
        merged[row["v"]] += row["n"]
    if len(merged) > k:                       # merge-side decrement
        cut = sorted(merged.values(), reverse=True)[k]
        merged = Counter({v: n - cut for v, n in merged.items()
                          if n - cut > 0})
    rows = [(v, n) for v, n in merged.items() if n >= min_count]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return pd.DataFrame(rows, columns=["v", "est_count"])


# ------------------------------------------------- exact grouped quantiles


def grouped_quantiles(ds: Dataset, key: str, value: str,
                      qs: dict[str, float],
                      scale: int = 100) -> Dataset:
    """EXACT discrete quantiles per group over quantized values — the
    scale-safe grouped-quantile shape: values quantize to integers
    (``floor(v*scale + 0.5)``, C-style half-up so the SQL side's
    FLOOR(x+0.5) is bit-identical), each batch pre-aggregates
    (group, quantized, count) partials (the aggregate kernel's
    ``_partial``), and ONLY those compact count rows shuffle — never
    the raw values. They shard once, on the group key, so each shard
    task merges its counts (``_merge``) and reads every group's
    quantiles off its count distribution (rows = distinct quantized
    values per group, bounded by value range × scale, not by input
    size). A null group key is one group, as in SQL's GROUP BY.

    Quantile convention matches DuckDB ``quantile_disc``: the element
    at index max(0, ceil(n·q) − 1) of the sorted values (verified
    empirically on this DuckDB build).  NaN and null values are
    excluded on both sides.
    """
    import polars as pl

    from ..functions.hashing import shard_series_i32
    from .aggregate import _SHARDS, _merge, _partial

    keys, count = [key, "_q"], {"_n": ("count", None)}

    def partial(batch: pa.Table) -> pa.Table:
        v = as_combined(batch[value]).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v)
        cents = np.floor(v[ok] * scale + 0.5).astype(np.int64)
        part = _partial(pa.table({key: as_combined(batch[key])
                                  .filter(pa.array(ok)),
                                  "_q": pa.array(cents)}), keys, count)
        shard = shard_series_i32(pl.from_arrow(part.select([key])), [key],
                                 _SHARDS)
        return part.append_column("_shard", shard.to_arrow())

    def final_shard(g: pa.Table) -> pa.Table:
        counts = _merge([g], keys, count)
        # per group, ascending _q: the q-quantile is the first value whose
        # running count reaches max(1, ceil(n·q))
        df = pl.from_arrow(counts).sort(keys).with_columns(
            _cum=pl.col("_n").cum_sum().over(key),
            _tot=pl.col("_n").sum().over(key))
        out = df.group_by(key, maintain_order=True).agg(
            [pl.col("_q").filter(
                pl.col("_cum") >= (pl.col("_tot") * q).ceil().clip(1))
             .first().alias(name) for name, q in qs.items()])
        return out.to_arrow().cast(pa.schema(
            [counts.schema.field(key)]
            + [(name, pa.int64()) for name in qs]))

    return ds.map_batches(partial, batch_format="pyarrow", batch_size=None) \
        .groupby("_shard").map_groups(final_shard, batch_format="pyarrow")
