"""Deterministic vectorized string hashing shared by dedup/fingerprint.

Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED) so it
must NEVER be used for keys that cross Ray task/actor boundaries. All
cross-process hashing goes through polars' vectorized 64-bit hash, which
is deterministic for a given seed within an environment (verified across
processes; do not persist hashes across polars upgrades).
"""

from __future__ import annotations

import numpy as np
import polars as pl


def stable_hash64(strings: list[str] | "pl.Series", seed: int = 0) -> np.ndarray:
    """uint64 hash per input string, vectorized and process-stable."""
    s = strings if isinstance(strings, pl.Series) else pl.Series(strings, dtype=pl.Utf8)
    return s.hash(seed=seed).to_numpy().astype(np.uint64, copy=False)


def stable_hash64_i64(col, seed: int = 0) -> np.ndarray:
    """``stable_hash64`` bit-reinterpreted to int64 — THE form for hash
    keys that feed a Ray groupby: Ray's aggregate materializes key
    values as Python ints when combining, and uint64 values ≥ 2^63
    overflow that int64 re-inference, silently degrading aggregate
    output blocks to pickled-object columns. Accepts an Arrow
    Array/ChunkedArray/Table column or a polars Series."""
    s = col if isinstance(col, pl.Series) else pl.from_arrow(col)
    if not isinstance(s, pl.Series):
        s = s.to_series(0)
    return stable_hash64(s.cast(pl.Utf8), seed=seed).view(np.int64)


def md5_number_lower(strings, *, assume_unique: bool = False) -> np.ndarray:
    """THE DuckDB ``md5_number_lower`` convention, pinned in ONE place:
    the lower 8 bytes of the md5 digest, little-endian, as uint64 —
    every oracle-parity hash mode (simhash tokens, CDC anchors,
    training-order) must share this byte convention or its SQL oracle
    silently diverges. By default runs per UNIQUE string (np.unique +
    inverse map — pays off for repeated tokens); callers whose inputs
    are unique by construction pass ``assume_unique=True`` to skip the
    O(n log n) sort that buys nothing there. Python-loop oracle mode
    only — production paths keep the vectorized ``stable_hash64``."""
    import hashlib

    def h(t) -> int:
        return int.from_bytes(
            hashlib.md5(str(t).encode("utf-8")).digest()[8:16], "little")

    arr = np.asarray(strings, dtype=object)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if assume_unique:
        return np.array([h(t) for t in arr], dtype=np.uint64)
    uniq, inv = np.unique(arr, return_inverse=True)
    return np.array([h(t) for t in uniq], dtype=np.uint64)[inv]


def mix_shard_i64(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard id for an int64 id array: multiplicative mix (Fibonacci
    hashing) then mod, so sequential or strided id spaces still spread
    evenly across shards. Shared by every doc-sharded co-group fallback
    (segment dedup, id anti-join) — both sides of a co-group MUST use
    THIS function or their shards never meet."""
    mixed = (ids.astype(np.uint64)
             * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (mixed % np.uint64(max(1, n_shards))).astype(np.int32)


def shard_series_i32(df: "pl.DataFrame", cols: list[str],
                     n_shards: int) -> "pl.Series":
    """int32 ``_shard`` series for a polars frame: ``hash(col) % n`` for
    a single key column, the per-column hashes mixed in column order
    for a composite key — THE merge-shard convention shared by every
    hash-sharded merge groupby (multiline codec, throttle, conversation
    rebuild, the aggregate kernel's shuffle mode). Null keys hash to
    one defined value whatever the column's dtype (a block whose key
    column is all null may arrive as the Null dtype; a struct hash
    would place its nulls apart), so a null-key group stays together
    on one shard (pinned by tests/test_shard_invariance.py). Fixes to
    the hashing/mod convention belong HERE, not at call sites; int-id
    co-groups use ``mix_shard_i64`` instead (both sides of a co-group
    must share one function)."""
    h = df.get_column(cols[0]).hash(seed=0).to_numpy()
    for c in cols[1:]:
        h = h * np.uint64(0x9E3779B97F4A7C15) \
            ^ df.get_column(c).hash(seed=0).to_numpy()
    return pl.Series(
        "_shard", (h % np.uint64(max(1, int(n_shards)))).astype(np.int32))


def in_sorted_i64(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Vectorized ``vals ∈ sorted_arr`` membership for int64 arrays —
    THE shared idiom behind every broadcast keeper/drop set
    (searchsorted + clip + equality); empty set → all-False. Fixes to
    the boundary handling belong HERE, not at call sites."""
    if len(sorted_arr) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = np.searchsorted(sorted_arr, vals).clip(max=len(sorted_arr) - 1)
    return sorted_arr[pos] == vals
