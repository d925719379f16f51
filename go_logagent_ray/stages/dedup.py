"""Deduplication operators for training-data pipelines.

Not in the reference (a log agent never dedups); first-class here because
a 100 TB corpus pipeline lives or dies on dedup. All variants follow the
same scale shape: compute a compact key/signature per row inside
``map_batches`` (vectorized where possible), shuffle ONLY the compact
representation with ``groupby``, and never materialize the corpus.

- exact_dedup / exact_keepers: content-hash partition + per-group min
- minhash_lsh_pairs: shingle → minhash → banded LSH buckets → candidate
  pairs verified on signature similarity
- simhash_pairs: 64-bit simhash, banded buckets, Hamming-distance verify
- charset_jaccard_pairs: exact character-set Jaccard within small groups
  (mirrors DuckDB's ``jaccard()`` so it is SQL-checkable)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..functions.arrow_utils import as_combined, set_column
from ..functions.textstats import raw_fingerprint
from .aggregate import aggregate_by

# ---------------------------------------------------------------- exact


def exact_keepers(ds: Dataset, text_field: str = "text",
                  id_field: str = "doc_id") -> Dataset:
    """One keeper id per distinct text: min(id) per content hash.

    Scale shape: one hash-sharded ``aggregate_by`` min over compact
    (hash, id) rows. Only per-batch (hash, min id) partials shuffle.
    """
    def fp(batch: pa.Table) -> pa.Table:
        return raw_fingerprint(batch, field=text_field, out="_fp")

    out = aggregate_by(ds.map_batches(fp, batch_format="pyarrow"), ["_fp"],
                       {id_field: ("min", id_field)}, "shuffle")
    return out.select_columns([id_field])


def exact_dedup(ds: Dataset, text_field: str = "text",
                id_field: str = "doc_id") -> Dataset:
    """Keep exactly one full row (min id) per distinct text."""
    def add_fp(batch: pa.Table) -> pa.Table:
        return raw_fingerprint(batch, field=text_field, out="_fp")

    def take_min(group: pd.DataFrame) -> pd.DataFrame:
        return group.nsmallest(1, id_field)

    return (
        ds.map_batches(add_fp, batch_format="pyarrow")
        .groupby("_fp")
        .map_groups(take_min, batch_format="pandas")
        .drop_columns(["_fp"])
    )


def exact_dedup_broadcast(ds: Dataset, text_field: str = "text",
                          id_field: str = "doc_id") -> Dataset:
    """Keep one full row (min id) per distinct text WITHOUT shuffling
    full rows: keeper ids are computed from compact (hash, id) partials
    (``exact_keepers``), broadcast once via ``ray.put``, and rows filter
    by a vectorized sorted-membership test inside ``map_batches``.

    Regime: the keeper-id array (8 bytes × distinct-content count) must
    fit in the object store — fine to ~100M distinct docs; beyond that
    use ``exact_dedup`` (hash-partitioned full-row shuffle). The ids are
    collected as Arrow batches → numpy (never Python row-dicts, whose
    ~100 bytes/row would OOM the driver long before the array does)."""
    import ray

    chunks = [as_combined(b[id_field]).to_numpy(zero_copy_only=False)
              for b in exact_keepers(ds, text_field, id_field)
              .iter_batches(batch_format="pyarrow")]
    keep_ids = np.sort(np.concatenate(chunks).astype(np.int64)) if chunks \
        else np.array([], dtype=np.int64)
    ref = ray.put(keep_ids)

    def keep(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import in_sorted_i64

        keepers = ray.get(ref)
        if len(keepers) == 0:
            return batch.slice(0, 0)
        ids = as_combined(batch[id_field]).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(in_sorted_i64(keepers, ids)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def anti_join_ids(ds: Dataset, ids: Dataset, *, id_field: str = "doc_id",
                  ids_field: str | None = None,
                  broadcast_limit_bytes: int = 8 << 30,
                  shards: int = 64) -> Dataset:
    """Drop every row of ``ds`` whose ``id_field`` (int64) appears in
    ``ids`` (a Dataset; ``ids_field`` defaults to its single column) —
    the distributed anti-join every "drop this id set" stage needs
    (near-dup drop lists, revocation lists, blocklists).

    Size gate, same discipline as ``segment_dedup``: the id set is
    broadcast while the MATERIALIZED ids Dataset is ≤
    ``broadcast_limit_bytes`` (one sorted int64 array, 8 B per distinct
    id, vectorized membership per batch — ~1 G ids at the 8 GB
    default). Past the budget the SIDE_COL co-group fallback runs:
    rows and drop-ids shard by ``mix(id) % shards``
    (``functions.hashing.mix_shard_i64`` on both sides), one
    ``groupby(_shard)`` co-locates each shard, and rows filter against
    exactly their shard's id slice — full rows move through that one
    shuffle (same volume as any repartition), ids move at 8 B each,
    nothing is ever collected on the driver. Forced-zero-budget parity
    test pins the two paths identical."""
    import ray

    from ..functions.cogroup import SIDE_COL, pad_to_schema, split_sides

    idf = ids_field
    if idf is None:
        # inference caveat: schema() on an UNEXECUTED projection can
        # still report the parent's columns (Ray 2.49, pandas-block
        # lineage holding empty blocks) — callers handing in a lazy
        # select_columns must pass ids_field explicitly
        names = ids.schema().names
        if len(names) != 1:
            raise ValueError(
                f"ids Dataset has columns {names}; pass ids_field")
        idf = names[0]
    ids = ids.select_columns([idf]).materialize()

    if ids.size_bytes() <= broadcast_limit_bytes:
        parts = [b.column(idf).to_numpy(zero_copy_only=False)
                 for b in ids.iter_batches(batch_format="pyarrow")]
        drop = np.unique(np.concatenate(parts)).astype(np.int64) \
            if parts else np.zeros(0, np.int64)
        ref = ray.put(drop)

        def keep(batch: pa.Table) -> pa.Table:
            from ..functions.hashing import in_sorted_i64

            d = ray.get(ref)
            if len(d) == 0 or batch.num_rows == 0:
                return batch
            vals = as_combined(batch[id_field]).to_numpy(
                zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(~in_sorted_i64(d, vals)))

        return ds.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)

    # ---- sharded co-group fallback (no driver collect at any scale)
    from ..functions.hashing import mix_shard_i64

    sch = ds.schema()
    clash = {"_did", "_shard", SIDE_COL} & set(sch.names)
    if clash:
        raise ValueError(
            f"anti_join_ids reserves columns {sorted(clash)} for its "
            "sharded co-group; rename them on the input first")
    union_types = dict(zip(sch.names, sch.types))
    union_types["_did"] = pa.int64()
    union_types["_shard"] = pa.int32()

    def row_side(batch: pa.Table) -> pa.Table:
        vals = as_combined(batch[id_field]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        cols = {n: batch[n].combine_chunks() for n in batch.column_names}
        cols["_shard"] = pa.array(mix_shard_i64(vals, shards))
        return pad_to_schema(cols, union_types, batch.num_rows, 0)

    def id_side(batch: pa.Table) -> pa.Table:
        vals = as_combined(batch[idf]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        cols = {"_did": pa.array(vals, pa.int64()),
                "_shard": pa.array(mix_shard_i64(vals, shards))}
        return pad_to_schema(cols, union_types, batch.num_rows, 1)

    both = ds.map_batches(row_side, batch_format="pyarrow").union(
        ids.map_batches(id_side, batch_format="pyarrow"))

    def filter_shard(g: pa.Table) -> pa.Table:
        rows, drops = split_sides(g)
        rows = rows.select(sch.names)
        if rows.num_rows == 0 or drops.num_rows == 0:
            return rows
        from ..functions.hashing import in_sorted_i64

        d = np.unique(drops["_did"].to_numpy(zero_copy_only=False))
        vals = as_combined(rows[id_field]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return rows.filter(pa.array(~in_sorted_i64(d, vals)))

    return both.groupby("_shard").map_groups(filter_shard,
                                             batch_format="pyarrow")


def distinct_count(ds: Dataset, text_field: str = "text") -> int:
    """COUNT(DISTINCT text) via hash partials — no full-text shuffle."""
    def fp(batch: pa.Table) -> pa.Table:
        return raw_fingerprint(batch, field=text_field, out="_fp")

    return aggregate_by(ds.map_batches(fp, batch_format="pyarrow"), ["_fp"],
                        {}, "shuffle").count()


# ---------------------------------------------------------------- minhash

# per-worker-process cache of the ngram-verify broadcast gram table as
# polars — bounded FIFO of TWO slots: enough that two pipelines with
# different gram tables interleaving in one worker don't evict each
# other per batch (a single-slot clear would re-run pl.from_arrow
# every batch — worse than no cache), while worst-case per-worker
# retention stays at two tables (each gated ≤ the 128 MB broadcast
# budget), not an unbounded pile of stale copies
_GM_CACHE: dict = {}
_CACHE_SLOTS = 2


def _cache_put(cache: dict, key, value):
    while len(cache) >= _CACHE_SLOTS:
        cache.pop(next(iter(cache)))  # FIFO: dicts preserve insertion
    cache[key] = value

_MERSENNE = (1 << 61) - 1
_FNV = np.uint64(1099511628211)

# Tokenization uses RE2's ASCII whitespace set ([ \t\n\f\r]) on EVERY
# side — Python, polars, and the DuckDB '\s+' oracle — so the token
# boundaries are bit-identical across engines. (Python str.split() and
# polars' unicode \S would additionally split on U+00A0 etc., silently
# diverging from the SQL oracle on non-ASCII whitespace.)
import re as _re

_ASCII_WS = _re.compile(r"[ \t\n\f\r]+")


def _ngram_strings(text: str, n: int) -> list[str]:
    toks = [t for t in _ASCII_WS.split(text.lower()) if t]
    if not toks:
        return []
    if len(toks) < n:
        return [" ".join(toks)]
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def _tokenize_flat(texts):
    """Shared tokenizer prologue for BOTH hash modes: vectorized
    lowercase + whitespace tokenize, exploded flat token series + row
    offsets.  ONE definition on purpose — the md5 oracle mode must
    tokenize bit-identically to the production polars-hash mode, so the
    tokenize sequence (Utf8 cast, fill_null, lowercase,
    ``extract_all(r"[^ \\t\\n\\f\\r]+")`` = RE2 ASCII whitespace set
    matching ``_ngram_strings``, empty-as-no-rows explode) lives here
    and only the hash step differs downstream."""
    import polars as pl

    s = pl.Series(pl.from_arrow(texts)).cast(pl.Utf8).fill_null("")
    toks = s.str.to_lowercase().str.extract_all(r"[^ \t\n\f\r]+")
    lens = toks.list.len().to_numpy().astype(np.int64)
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    # empty lists produce NO rows (pinned: polars 2.0 flips the default
    # and the un-pinned call warns per batch); real tokens are never
    # null, so drop_nulls is a no-op safety net
    flat = toks.explode(empty_as_null=False).drop_nulls()
    return flat, offsets


def _tokenize_hashes(texts) -> tuple[np.ndarray, np.ndarray]:
    """Production mode: stable vectorized polars 64-bit hash over the
    shared tokenize (see ``_tokenize_flat``). Returns (flat token
    hashes, row offsets len n+1)."""
    flat, offsets = _tokenize_flat(texts)
    h = flat.hash(seed=0).to_numpy().astype(np.uint64, copy=False)
    return h, offsets


def _shingle_hashes(h: np.ndarray, offsets: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Word-n-gram shingle hashes via a rolling polynomial over the flat
    token-hash array — no per-document Python in the common case.

    A shingle hash is ``((h0*F + h1)*F + h2)...`` over the window's token
    hashes (uint64 wraparound; F = FNV prime). Rows with 0 < t < n tokens
    yield ONE shingle combining all their tokens (mirrors the string
    path, where the whole short doc is its only shingle). Returns
    (flat shingle hashes, per-row offsets).
    """
    lens = np.diff(offsets)
    if n == 1:
        return h, offsets
    glens = np.where(lens >= n, lens - (n - 1), np.minimum(lens, 1))
    goffsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(glens, out=goffsets[1:])
    grams = np.zeros(int(goffsets[-1]), dtype=np.uint64)
    if grams.size == 0:
        return grams, goffsets
    m = len(h) - n + 1
    if m > 0:
        win = h[:m].copy()
        for k in range(1, n):
            win = win * _FNV + h[k : k + m]
        row_of = np.repeat(np.arange(len(lens)), lens)
        valid = (np.arange(m) + n) <= offsets[row_of[:m] + 1]
        src = np.nonzero(valid)[0]
        dst = goffsets[row_of[src]] + (src - offsets[row_of[src]])
        grams[dst] = win[src]
    # short rows (rare): one polynomial over all t < n tokens — uint64
    # wraparound is intended, but numpy warns on SCALAR overflow (not on
    # arrays), so silence it here
    with np.errstate(over="ignore"):
        for r in np.nonzero((lens > 0) & (lens < n))[0]:
            row = h[offsets[r] : offsets[r + 1]]
            v = row[0]
            for k in range(1, len(row)):
                v = v * _FNV + row[k]
            grams[goffsets[r]] = v
    return grams, goffsets


def _tokenize_hashes_md5(texts) -> tuple[np.ndarray, np.ndarray]:
    """Oracle-mode tokenizer: same polars tokenize as
    ``_tokenize_hashes``, but tokens hashed with the lower 64 bits of
    md5 (little-endian) — exactly DuckDB's ``md5_number_lower``, so a
    SQL oracle can recompute the identical hashes. md5 runs per UNIQUE
    token (np.unique + inverse map), not per occurrence; still a Python
    loop, so production pipelines keep the vectorized polars hash and
    this mode exists to make the pipeline SQL-checkable end-to-end.
    Tokenization is the SHARED ``_tokenize_flat`` — only the hash step
    differs from the production mode."""
    from ..functions.hashing import md5_number_lower

    flat_s, offsets = _tokenize_flat(texts)
    flat = flat_s.to_numpy()
    if flat.size == 0:
        return np.zeros(0, dtype=np.uint64), offsets
    return md5_number_lower(flat), offsets


def _triu_blocks(n: int, pair_budget: int):
    """Yield (ii, jj) upper-triangle index blocks of ≤ ~pair_budget
    pairs each — bounds peak memory of vectorized in-bucket pair passes
    (a 5000-row bucket has 12.5M pairs; materializing pairs × num_perm
    signature temporaries at once would OOM the map task, and even the
    full triu index pair is 200 MB)."""
    rows_per = max(1, pair_budget // max(1, n))
    i = 0
    while i < n - 1:
        i2 = min(i + rows_per, n - 1)
        counts = n - 1 - np.arange(i, i2)
        ii = np.repeat(np.arange(i, i2), counts)
        jj = np.concatenate([np.arange(x + 1, n) for x in range(i, i2)]) \
            if i2 > i else np.array([], dtype=np.int64)
        yield ii, jj
        i = i2


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy<2 has no bitwise_count)."""
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    by = np.ascontiguousarray(x.astype(np.uint64, copy=False)).view(np.uint8)
    return np.unpackbits(by).reshape(x.size, 64).sum(axis=1).astype(np.int64)


class MinHasher:
    """Per-batch minhash signatures, fully vectorized: polars tokenize →
    rolling-polynomial shingle hashes → per-permutation min via
    ``np.minimum.reduceat`` over row offsets (no per-document loop).
    Actor-pool friendly: the permutation parameters are generated once in
    __init__ from a fixed seed, identical on every actor."""

    def __init__(self, num_perm: int = 64, ngram: int = 3, seed: int = 7,
                 text_field: str = "text", id_field: str = "doc_id"):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.ngram = ngram
        self.text_field = text_field
        self.id_field = id_field

    def signature(self, h: np.ndarray) -> np.ndarray:
        """Signature from a uint64 shingle-hash array (empty → sentinel)."""
        if h.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (a*h + b) mod p for all perms at once: (num_perm, n_shingles)
        vals = (self.a[:, None] * h[None, :] + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1).astype(np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h, off = _tokenize_hashes(as_combined(batch[self.text_field]))
        grams, goff = _shingle_hashes(h, off, self.ngram)
        sigs = np.full((self.num_perm, n), np.iinfo(np.uint64).max,
                       dtype=np.uint64)
        if grams.size:
            starts = np.minimum(goff[:-1], grams.size - 1)
            nonempty = goff[:-1] < goff[1:]
            # one vectorized pass per permutation, O(shingles) memory —
            # the (perm × shingles) matrix would be GBs at real batch sizes
            for p in range(self.num_perm):
                vals = (self.a[p] * grams + self.b[p]) % _MERSENNE
                mins = np.minimum.reduceat(vals, starts)
                sigs[p, nonempty] = mins[nonempty]
        sig_col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.T.reshape(-1), type=pa.uint64()), self.num_perm
        )
        return pa.table({
            self.id_field: as_combined(batch[self.id_field]),
            "sig": sig_col,
        })


def minhash_lsh_pairs(
    ds: Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    threshold: float = 0.7,
    text_field: str = "text",
    id_field: str = "doc_id",
    pair_shards: int = 64,
) -> Dataset:
    """Near-duplicate pairs via MinHash + banded LSH.

    Pipeline: signatures (map_batches, carries only (id, sig)) → explode
    to (band, band_hash, id, sig) rows → groupby sharded buckets →
    pairwise verify on signature agreement ≥ threshold inside each bucket
    → global dedup of pairs. Only signatures shuffle — never text.
    Returns (doc_a, doc_b, sim_est) with doc_a < doc_b.

    Pair-mining groups are ``(band, bkey % pair_shards)`` — NOT bare
    ``band``: a band group holds one row per document (corpus/bands rows
    in one pandas frame — OOM at scale), while the sharded key bounds a
    group to ~corpus/(bands·shards) without ever splitting a bucket
    (``bkey`` is constant within a bucket). Size ``pair_shards`` to the
    cluster; results are identical for any value ≥ 1.

    ONE shuffle total: cross-band duplicate pairs are suppressed inside
    the mining task — a pair is emitted only by the FIRST band whose
    bucket keys collide (recomputed from the signatures already in the
    group), so no second dedup pass over the pair set is needed.
    """
    rows_per_band = num_perm // bands
    assert bands * rows_per_band == num_perm
    shards = np.uint64(max(1, pair_shards))

    hasher = MinHasher(num_perm=num_perm, ngram=ngram, text_field=text_field,
                       id_field=id_field)
    # stateless tasks, not an actor pool: the hasher state is a few KB
    # built in microseconds — pool startup (~seconds) dwarfs it
    sigs = ds.map_batches(hasher, batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sig = np.asarray(batch["sig"].combine_chunks().flatten()).reshape(n, num_perm)
        ids = as_combined(batch[id_field]).to_numpy(zero_copy_only=False)
        # drop shingle-less docs (null/empty text): their sentinel
        # signatures would all collide, pairing every empty doc with
        # every other — Jaccard over two empty sets is undefined and the
        # SQL oracle's nu > 0 filter excludes them. (Sentinel check is
        # exact: real signature values are < 2^61, the sentinel is
        # 2^64-1.)
        real = sig[:, 0] != np.iinfo(np.uint64).max
        if not real.all():
            sig, ids, n = sig[real], ids[real], int(real.sum())
        band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
        # hash each band slice to one uint64 bucket key
        view = sig.reshape(n, bands, rows_per_band)
        bh = view.astype(np.uint64)
        key = np.zeros((n, bands), dtype=np.uint64)
        for r in range(rows_per_band):
            key = key * _FNV + bh[:, :, r]
        flat_key = key.reshape(-1)
        return pa.table({
            "band": pa.array(band_ids),
            "shard": pa.array((flat_key % shards).astype(np.int32)),
            "bkey": pa.array(flat_key, type=pa.uint64()),
            id_field: pa.array(np.repeat(ids, bands)),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(np.repeat(sig, bands, axis=0).reshape(-1),
                         type=pa.uint64()), num_perm),
        })

    exploded = sigs.map_batches(explode, batch_format="pyarrow")

    def band_pairs(group: pd.DataFrame) -> pd.DataFrame:
        """One group per (band, shard) — bounded size at scale; buckets
        are processed with a C-speed pandas groupby inside (per-bucket
        map_groups would spin up tens of thousands of tiny frames).
        First-colliding-band ownership makes the global pair set
        duplicate-free without a second shuffle. The in-bucket compare
        is vectorized upper-triangle passes in BOUNDED pair blocks
        (``_triu_blocks``): the signature temporaries are
        block_pairs × num_perm, never all-pairs × num_perm (a
        dup-heavy 5000-row bucket would otherwise allocate ~13 GB)."""
        band = int(group["band"].iloc[0])
        out_a, out_b, out_s = [], [], []
        for _, bucket in group.groupby("bkey", sort=False):
            if len(bucket) < 2:
                continue
            g = bucket.sort_values(id_field)
            ids = g[id_field].to_numpy()
            sig = np.stack(g["sig"].to_numpy())
            keys = None
            if band > 0:
                # earlier-band bucket keys, recomputed once per bucket
                view = sig.reshape(len(ids), bands, rows_per_band)[:, :band, :] \
                    .astype(np.uint64)
                keys = np.zeros(view.shape[:2], dtype=np.uint64)
                for t in range(rows_per_band):
                    keys = keys * _FNV + view[:, :, t]
            for ii, jj in _triu_blocks(len(ids), 1 << 17):
                eq = (sig[ii] == sig[jj]).mean(axis=1)
                hit = eq >= threshold
                if keys is not None and hit.any():
                    hit &= ~(keys[ii] == keys[jj]).any(axis=1)
                sel = np.nonzero(hit)[0]
                if sel.size:
                    out_a.append(ids[ii[sel]])
                    out_b.append(ids[jj[sel]])
                    out_s.append(eq[sel].astype(np.float64))
        return pd.DataFrame({
            "doc_a": np.concatenate(out_a) if out_a
            else np.array([], dtype=np.int64),
            "doc_b": np.concatenate(out_b) if out_b
            else np.array([], dtype=np.int64),
            "sim_est": np.concatenate(out_s) if out_s
            else np.array([], dtype=np.float64),
        })

    return exploded.groupby(["band", "shard"]).map_groups(
        band_pairs, batch_format="pandas")


# ---------------------------------------------------------------- simhash


class SimHasher:
    """64-bit simhash over word tokens, fully vectorized: polars tokenize
    → per-bit vote sums via ``np.add.reduceat`` over row offsets (no
    per-document loop).

    ``token_hash``: "polars" (default, vectorized xxhash — production)
    or "md5" (DuckDB ``md5_number_lower`` parity — the SQL-oracle mode;
    identical pipeline, only the 64-bit token-hash constant differs)."""

    def __init__(self, text_field: str = "text", id_field: str = "doc_id",
                 token_hash: str = "polars"):
        if token_hash not in ("polars", "md5"):
            raise ValueError(f"unknown token_hash {token_hash!r}")
        self.text_field = text_field
        self.id_field = id_field
        self.token_hash = token_hash

    @staticmethod
    def simhash64(hs: np.ndarray) -> int:
        """Simhash from a uint64 token-hash array (bit-vote accumulation)."""
        if hs.size == 0:
            return 0
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1)
        # votes MUST be signed: uint64 arithmetic wraps minority-bit votes
        # (sum*2 - n) to huge positives, setting nearly every bit for docs
        # with odd token counts and collapsing unrelated simhashes
        votes = bits.sum(axis=0).astype(np.int64) * 2 - np.int64(len(hs))
        return int((votes > 0).astype(np.uint64) @ (np.uint64(1) << np.arange(64, dtype=np.uint64)))

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        tok = (_tokenize_hashes if self.token_hash == "polars"
               else _tokenize_hashes_md5)
        h, off = tok(as_combined(batch[self.text_field]))
        counts = np.diff(off)
        votes = np.zeros((n, 64), dtype=np.int64)
        if h.size:
            # one vectorized pass per bit, O(tokens) memory — the
            # (tokens × 64) bit matrix would be GBs at real batch sizes.
            # Segment sums via cumsum differences, NOT reduceat: reduceat
            # needs its index clamp for empty trailing segments, and that
            # clamp shifts a start INTO the preceding doc's token range,
            # splitting its votes (['0 0', ''] hashed doc0 to 0).
            csum = np.zeros(h.size + 1, dtype=np.int64)
            for k in range(64):
                bit = ((h >> np.uint64(k)) & np.uint64(1)).astype(np.int64)
                np.cumsum(bit, out=csum[1:])
                votes[:, k] = csum[off[1:]] - csum[off[:-1]]
        signed = votes * 2 - counts[:, None]
        sh = (signed > 0).astype(np.uint64) @ (
            np.uint64(1) << np.arange(64, dtype=np.uint64))
        return pa.table({
            self.id_field: as_combined(batch[self.id_field]),
            "simhash": pa.array(sh, type=pa.uint64()),
            "n_tokens": pa.array(counts, type=pa.int64()),
        })


def simhash_pairs(ds: Dataset, *, max_hamming: int = 3,
                  text_field: str = "text", id_field: str = "doc_id",
                  pair_shards: int = 64,
                  token_hash: str = "polars") -> Dataset:
    """Near-dup pairs with simhash: 4×16-bit bands (any exact band match →
    candidate; Hamming ≤ max_hamming verifies). Returns (doc_a, doc_b,
    hamming). Pair-mining groups are ``(band, bkey % pair_shards)`` so no
    task holds corpus/4 signatures, and a pair is emitted only by the
    FIRST band whose 16-bit keys collide — one shuffle, no dedup pass
    (see minhash_lsh_pairs).

    RECALL IS 1.0 for ``max_hamming ≤ 3``: at most 3 differing bits
    across 4 disjoint 16-bit bands leave ≥ 1 band identical (pigeonhole),
    so banding is a pure optimization, not an approximation — the pair
    set equals the all-pairs Hamming join and is SQL-oracle-checkable."""
    shards = np.uint64(max(1, pair_shards))
    hashed = ds.map_batches(SimHasher(text_field=text_field,
                                      id_field=id_field,
                                      token_hash=token_hash),
                            batch_format="pyarrow")

    def explode(batch: pa.Table) -> pa.Table:
        sh = as_combined(batch["simhash"]).to_numpy(zero_copy_only=False)
        ids = as_combined(batch[id_field]).to_numpy(zero_copy_only=False)
        # drop token-less docs (null/empty text): their simhash is 0 by
        # construction and every empty doc would pair with every other
        nt = as_combined(batch["n_tokens"]).to_numpy(zero_copy_only=False)
        real = nt > 0
        if not real.all():
            sh, ids = sh[real], ids[real]
        n = len(sh)
        bands = np.arange(4, dtype=np.int32)
        keys = np.stack([(sh >> (16 * b)) & 0xFFFF for b in range(4)], axis=1)
        flat_key = keys.reshape(-1).astype(np.uint64)
        return pa.table({
            "band": pa.array(np.tile(bands, n)),
            "shard": pa.array((flat_key % shards).astype(np.int32)),
            "bkey": pa.array(flat_key),
            id_field: pa.array(np.repeat(ids, 4)),
            "simhash": pa.array(np.repeat(sh, 4), type=pa.uint64()),
        })

    def band_pairs(group: pd.DataFrame) -> pd.DataFrame:
        band = int(group["band"].iloc[0])
        a, b, hd = [], [], []
        for _, bucket in group.groupby("bkey", sort=False):
            if len(bucket) < 2:
                continue
            g = bucket.sort_values(id_field)
            ids = g[id_field].to_numpy()
            sh = g["simhash"].to_numpy().astype(np.uint64)
            # vectorized upper-triangle passes in bounded pair blocks
            # (_popcount64's unpackbits expands 64× per pair)
            for ii, jj in _triu_blocks(len(ids), 1 << 20):
                x = sh[ii] ^ sh[jj]
                ham = _popcount64(x)
                hit = ham <= max_hamming
                if band > 0 and hit.any():
                    # first-colliding-band ownership: skip pairs whose
                    # earlier 16-bit band slice already matched
                    owned_earlier = np.zeros(len(x), dtype=bool)
                    for bprev in range(band):
                        owned_earlier |= ((x >> np.uint64(16 * bprev))
                                          & np.uint64(0xFFFF)) == 0
                    hit &= ~owned_earlier
                sel = np.nonzero(hit)[0]
                if sel.size:
                    a.append(ids[ii[sel]])
                    b.append(ids[jj[sel]])
                    hd.append(ham[sel])
        return pd.DataFrame({
            "doc_a": np.concatenate(a) if a else np.array([], dtype=np.int64),
            "doc_b": np.concatenate(b) if b else np.array([], dtype=np.int64),
            "hamming": np.concatenate(hd) if hd
            else np.array([], dtype=np.int64),
        })

    return hashed.map_batches(explode, batch_format="pyarrow") \
        .groupby(["band", "shard"]).map_groups(band_pairs, batch_format="pandas")


# ------------------------------------------------- embedding cosine near-dup


def embedding_neardup_pairs(
    ds: Dataset,
    threshold: float = 0.95,
    *,
    id_field: str = "vec_id",
    vec_field: str = "embedding",
    corpus_path: str | None = None,
) -> Dataset:
    """Near-duplicate pairs by embedding cosine similarity ≥ threshold.

    Exact: the corpus matrix is broadcast ONCE via ``ray.put`` and every
    batch does one matmul against it — O(corpus·batch) work per batch, no
    shuffle; emits (doc_a, doc_b, cos_sim) with doc_a < doc_b so each
    pair appears exactly once. This is the broadcastable-corpus regime
    (≤ ~1M vectors); beyond that, bucket with the random-hyperplane LSH
    in ``stages/ann.py`` and score within buckets (approximate).
    ``corpus_path`` loads the broadcast side from parquet instead of
    collecting ``ds`` itself.
    """
    import ray

    from .ann import _fixed_matrix, _normalize

    if corpus_path is not None:
        import pyarrow.parquet as pq

        t = pq.read_table(corpus_path, columns=[id_field, vec_field])
    else:
        t = pa.concat_tables(
            [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
             for b in ray.get(ds.to_arrow_refs())])
    ref = ray.put((t[id_field].to_numpy(), _normalize(_fixed_matrix(t[vec_field]))))

    def batch_pairs(batch: pa.Table) -> pa.Table:
        ids, mat = ray.get(ref)
        b_ids = as_combined(batch[id_field]).to_numpy(zero_copy_only=False)
        b_mat = _normalize(_fixed_matrix(batch[vec_field]))
        sims = b_mat @ mat.T
        hit = (sims >= threshold) & (ids[None, :] > b_ids[:, None])  # a < b
        bi, cj = np.nonzero(hit)
        return pa.table({"doc_a": pa.array(b_ids[bi].astype(np.int64)),
                         "doc_b": pa.array(ids[cj].astype(np.int64)),
                         "cos_sim": pa.array(sims[bi, cj].astype(np.float64))})

    return ds.map_batches(batch_pairs, batch_format="pyarrow")


def semdedup_pairs(
    ds: Dataset,
    *,
    threshold: float = 0.4,
    k: int = 8,
    iters: int = 3,
    id_field: str = "vec_id",
    vec_field: str = "embedding",
    max_cluster_size: int = 65536,
) -> Dataset:
    """SemDeDup-style semantic near-dup pairs (Abbas et al. 2023,
    arXiv:2303.09540 — public method): k-means the embedding space,
    then find cosine-similar pairs WITHIN each cluster only.

    Scale shape — this is the scale path past
    ``embedding_neardup_pairs``'s broadcast-corpus regime: centroids
    are fit with the shuffle-free distributed Lloyd
    (``stages/kmeans.kmeans_fit`` — corpus never moves, only k·d
    partials), assignment + vector keep is one ``map_batches`` pass,
    and the ONLY shuffle moves each vector once to its cluster's task.
    Pairwise work is O(|cluster|²) per cluster, never corpus²; at
    100 TB pick k so clusters stay bounded (SemDeDup uses ~100k
    clusters), and ``max_cluster_size`` fails loudly instead of
    running quadratic work on a degenerate cluster. Returns
    (cluster, doc_a, doc_b) with doc_a < doc_b; cosine is computed on
    L2-normalized float64, matching SQL ``list_cosine_similarity``
    (oracle thresholds must sit in a measured gap of the sim
    distribution, same contract as ``embedding_neardup``).

    Recall contract (inherent to SemDeDup, not a bug): a cross-cluster
    near-dup pair is never examined — recall is relative to the
    clustering, exact within clusters.
    """
    import ray

    from .ann import _fixed_matrix, _normalize
    from .kmeans import kmeans_fit

    cents = kmeans_fit(ds, k=k, iters=iters, vec_col=vec_field,
                       id_col=id_field)
    ref = ray.put(cents)

    def assign_keep(batch: pa.Table) -> pa.Table:
        from .kmeans import _assign_ids

        c = ray.get(ref)
        vecs = _fixed_matrix(batch.column(vec_field), dtype=np.float64)
        a = _assign_ids(vecs, c)
        return pa.table({
            "cluster": pa.array(a.astype(np.int64)),
            id_field: batch.column(id_field),
            vec_field: batch.column(vec_field),
        })

    def cluster_pairs(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n > max_cluster_size:
            raise ValueError(
                f"cluster {g['cluster'][0].as_py()} has {n} vectors "
                f"(> max_cluster_size={max_cluster_size}); raise k so "
                "clusters stay bounded, or raise the guard explicitly")
        ids = as_combined(g[id_field]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = _normalize(_fixed_matrix(g[vec_field], dtype=np.float64))
        # Row-blocked matmul: peak sims memory is block×n ≈ 32 MB of
        # float64 regardless of cluster size (a dense n×n at the
        # 65536 guard would be ~34 GB — a silent worker OOM, not the
        # loud guard failure this function promises).
        a_idx: list[np.ndarray] = []
        b_idx: list[np.ndarray] = []
        block = max(1, (1 << 22) // max(1, n))
        for i in range(0, n, block):
            sims = mat[i:i + block] @ mat.T
            ia, ib = np.nonzero((sims >= threshold)
                                & (ids[None, :] > ids[i:i + block, None]))
            a_idx.append(ia + i)
            b_idx.append(ib)
        ia = np.concatenate(a_idx) if a_idx else np.zeros(0, np.int64)
        ib = np.concatenate(b_idx) if b_idx else np.zeros(0, np.int64)
        cl = g["cluster"].slice(0, 1).to_pylist() * len(ia)
        return pa.table({
            "cluster": pa.array(cl, type=pa.int64()),
            "doc_a": pa.array(ids[ia]),
            "doc_b": pa.array(ids[ib]),
        })

    return (ds.map_batches(assign_keep, batch_format="pyarrow")
            .groupby("cluster")
            .map_groups(cluster_pairs, batch_format="pyarrow"))


# --------------------------------------------------- word n-gram jaccard


def ngram_jaccard_pairs(
    ds: Dataset,
    group_keys: list[str],
    threshold: float = 0.7,
    ngram: int = 3,
    text_field: str = "text",
    id_field: str = "doc_id",
    max_group_rows: int = 20_000,
) -> Dataset:
    """EXACT word-ngram Jaccard near-dup pairs within co-grouped rows.

    The exact counterpart of minhash_lsh_pairs' estimate: Jaccard over
    the sets of word n-grams. Pairwise work is O(group²): this is the
    SMALL-CO-GROUP path, guarded by ``max_group_rows`` (a larger group
    fails loudly rather than running quadratic work) — the scale path
    with no group-size assumption is ``ngram_jaccard_pairs_lsh``."""

    def pairs_in_group(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) > max_group_rows:
            raise ValueError(
                f"ngram_jaccard_pairs: group "
                f"{tuple(group[k].iloc[0] for k in group_keys)!r} has "
                f"{len(group)} rows (> max_group_rows={max_group_rows}); "
                "all-pairs verify would be quadratic — use "
                "ngram_jaccard_pairs_lsh (LSH-prefiltered, no group-size "
                "assumption) or raise max_group_rows explicitly")
        g = group.sort_values(id_field)
        ids = g[id_field].to_numpy()
        sets = [frozenset(_ngram_strings(t or "", ngram)) for t in g[text_field]]
        cols: dict[str, list] = {k: [] for k in group_keys}
        a_out, b_out, j_out = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                union = len(sets[i] | sets[j])
                sim = (len(sets[i] & sets[j]) / union) if union else 0.0
                if sim >= threshold:
                    a_out.append(ids[i]); b_out.append(ids[j]); j_out.append(sim)
                    for k in group_keys:
                        cols[k].append(g[k].iloc[0])
        cols.update({"doc_a": a_out, "doc_b": b_out, "jaccard": j_out})
        return pd.DataFrame(cols, columns=group_keys + ["doc_a", "doc_b", "jaccard"])

    return ds.select_columns(group_keys + [id_field, text_field]) \
        .groupby(group_keys).map_groups(pairs_in_group, batch_format="pandas")


_GRAMS_TYPE = pa.list_(pa.large_string())


def ngram_jaccard_pairs_lsh(
    ds: Dataset,
    *,
    threshold_permille: int = 400,
    ngram: int = 3,
    text_field: str = "text",
    id_field: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    candidate_threshold: float = 0.0,
    pair_shards: int = 64,
    broadcast_limit_bytes: int = 128 << 20,
) -> Dataset:
    """GLOBAL exact word-n-gram Jaccard near-dup pairs: MinHash-LSH
    candidate generation + DISTRIBUTED exact verification — the scale
    path that ``ngram_jaccard_pairs``'s docstring promises (no all-pairs
    work, no group-key co-location assumption, no driver-side text
    state).

    Stage 1 mines candidates with banded LSH (bounded sharded groups,
    only signatures shuffle; ``candidate_threshold=0.0`` by default so
    BANDING ALONE gates candidates — see recall contract). Stage 2
    collects only the candidate ID ARRAY (8 bytes/doc, numpy int64,
    ``ray.put`` once — the same broadcast regime as
    ``exact_dedup_broadcast``), streams the corpus through a vectorized
    membership filter, and computes each candidate's n-gram STRING set
    once. When the candidate gram table fits
    ``broadcast_limit_bytes`` it is broadcast whole (``ray.put`` once)
    and verification is a single shuffle-free ``map_batches``;
    otherwise the gram lists are attached to the pairs by TWO
    hash-partitioned co-group joins (``id % pair_shards`` — bounded
    groups, vectorized ``index_in``/``take`` attach), and the exact
    verify runs inside ``map_batches`` over the pair stream — per-task
    state is one shard of candidates, never the candidate set, at ANY
    dup rate. The Jaccard test is integer math
    (``inter·1000 ≥ threshold_permille·union``) so it is bit-exact
    against a SQL oracle. Returns (doc_a, doc_b, n_inter, n_union).

    Recall contract (NOT exact): a true pair is missed iff LSH banding
    misses it — with ``candidate_threshold=0.0`` nothing else filters
    candidates, so P(miss) = (1-j^r)^b exactly, with r = num_perm/bands
    rows per band. (A positive ``candidate_threshold`` adds a second
    miss term: pairs whose 64-perm signature-agreement estimate dips
    below it are dropped before exact verification.) The verification
    step makes false positives impossible, so the output is a SUBSET of
    the exact pair set with per-pair recall 1-(1-j^r)^b. Match
    ``bands`` to the threshold: at the default 16×4, recall at j=0.8 is
    ~0.996 but at j=0.4 only ~0.34; for thresholds near 0.4 use
    bands=32 (r=2): recall ≥ 0.996 at j=0.4, ≥ 1-1e-23 at j=0.9. An
    oracle comparing against the exact pair set is sound only when the
    corpus has no pairs in the low-recall band around the threshold
    (measured true for the testdata: pairs sit at j ≥ 0.9 or j ≤ 0.07).
    """
    import ray
    import ray.data as rd

    from ..functions.cogroup import SIDE_COL, pad_to_schema

    # materialized: the id-collection loop below AND the attach stage
    # both consume cands — without this the whole LSH mining lineage
    # (tokenize → shingle → minhash → shuffle → pair mining) would
    # execute twice.  Candidate pairs are small by construction.
    cands = minhash_lsh_pairs(
        ds, num_perm=num_perm, bands=bands, ngram=ngram,
        threshold=candidate_threshold, text_field=text_field,
        id_field=id_field, pair_shards=pair_shards,
    ).select_columns(["doc_a", "doc_b"]).materialize()

    _out_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                             ("n_inter", pa.int64()), ("n_union", pa.int64())])

    id_chunks = []
    for b in cands.iter_batches(batch_format="pyarrow"):
        id_chunks.append(as_combined(b["doc_a"]).to_numpy(zero_copy_only=False))
        id_chunks.append(as_combined(b["doc_b"]).to_numpy(zero_copy_only=False))
    if not id_chunks or not sum(c.size for c in id_chunks):
        # typed empty result (consistent Dataset API; note that Ray 2.49
        # drops column names when an EMPTY Dataset goes through
        # to_pandas() — consumers needing pandas should branch on
        # count() first)
        return rd.from_arrow(_out_schema.empty_table())
    cand_ids = np.unique(np.concatenate(id_chunks).astype(np.int64))
    ref = ray.put(cand_ids)  # sorted unique int64 — ids only, never text
    n_shards = max(1, int(pair_shards))

    def gram_rows(batch: pa.Table) -> pa.Table:
        """(id % shards, id, sorted-unique gram list) for CANDIDATE docs
        only — membership via vectorized searchsorted on the broadcast
        id array."""
        from ..functions.hashing import in_sorted_i64

        keep_ids = ray.get(ref)
        ids = as_combined(batch[id_field]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = in_sorted_i64(keep_ids, ids)
        ids = ids[m]
        texts = as_combined(batch[text_field]).filter(pa.array(m)).to_pylist()
        glists = [sorted(set(_ngram_strings(t or "", ngram))) for t in texts]
        return pa.table({"_jk": pa.array(ids, type=pa.int64()),
                         "_grams": pa.array(glists, type=_GRAMS_TYPE)})

    # materialized: both attach passes read it, and without this the
    # lazy lineage would re-run the corpus scan + shingle pass twice.
    # Holds only candidate rows (ids + gram lists), never the corpus.
    grams = ds.map_batches(gram_rows, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()

    def _verify_df(df) -> pa.Table:
        """Shared exact-verify kernel: integer-math Jaccard over two
        gram-LIST columns, fully vectorized (polars list set ops — the
        round-3 per-pair Python set loop cost a measurable constant on
        dup-heavy corpora). Gram lists are sorted-unique by
        construction, so list lengths ARE set cardinalities; a null
        list (possible only for a shard with no gram rows) counts as
        empty, matching the old ``set(x or ())`` semantics."""
        import polars as pl

        empty = pl.lit([], dtype=pl.List(pl.String))
        df = df.with_columns(pl.col("_ga").fill_null(empty),
                             pl.col("_gb").fill_null(empty))
        df = df.with_columns(
            pl.col("_ga").list.set_intersection(pl.col("_gb"))
            .list.len().cast(pl.Int64).alias("n_inter"),
            pl.col("_ga").list.set_union(pl.col("_gb"))
            .list.len().cast(pl.Int64).alias("n_union"))
        out = (df.filter((pl.col("n_union") > 0)
                         & (pl.col("n_inter") * 1000
                            >= threshold_permille * pl.col("n_union")))
               .select(["doc_a", "doc_b", "n_inter", "n_union"]))
        return out.to_arrow().cast(_out_schema)

    # Small-candidate regime (size-gated, same broadcast contract as
    # exact_dedup_broadcast / embedding_neardup_pairs): when the whole
    # candidate gram table fits the broadcast budget, ship it ONCE via
    # ray.put and verify pairs in a single map_batches — zero extra
    # shuffles. Above the budget the fully distributed two-pass attach
    # below runs instead, so driver/worker memory stays bounded by a
    # shard at any candidate volume (the round-2 scale concern).
    if grams.size_bytes() <= broadcast_limit_bytes:
        gt = pa.concat_tables(grams.iter_batches(batch_format="pyarrow"),
                              promote_options="default")
        gref = ray.put(gt)  # Arrow table, shipped once — never a dict

        def verify_bcast(batch: pa.Table) -> pa.Table:
            import polars as pl

            gm = _GM_CACHE.get(gref.hex())
            if gm is None:
                # Arrow→polars conversion of the gram table once per
                # worker process, not once per batch
                gm = pl.from_arrow(ray.get(gref))
                _cache_put(_GM_CACHE, gref.hex(), gm)
            df = (pl.from_arrow(batch.select(["doc_a", "doc_b"]))
                  .join(gm.rename({"_jk": "doc_a", "_grams": "_ga"}),
                        on="doc_a", how="left")
                  .join(gm.rename({"_jk": "doc_b", "_grams": "_gb"}),
                        on="doc_b", how="left"))
            return _verify_df(df)

        return cands.map_batches(verify_bcast, batch_format="pyarrow")

    def attach(pairs: Dataset, key_col: str, out_col: str,
               pair_types: dict) -> Dataset:
        """Hash-partitioned attach: co-group pair rows with the gram
        list of their ``key_col`` doc on ``id % n_shards`` (ONE bounded
        shuffle, ``n_shards`` groups — never a group per doc id), then
        a vectorized index_in + take inside the group. Both sides stay
        Arrow end-to-end (int64 ids never touch pandas)."""
        union_types = dict(pair_types)
        union_types["_jk"] = pa.int64()
        union_types["_grams"] = _GRAMS_TYPE
        union_types["_shard"] = pa.int32()
        pair_cols = list(pair_types)

        def pad_pairs(b: pa.Table) -> pa.Table:
            k = as_combined(b[key_col]).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cols = {c: as_combined(b[c]) for c in pair_cols}
            cols["_jk"] = pa.array(k)
            cols["_shard"] = pa.array((k % n_shards).astype(np.int32))
            return pad_to_schema(cols, union_types, b.num_rows, 0)

        def pad_grams(b: pa.Table) -> pa.Table:
            k = as_combined(b["_jk"]).to_numpy(zero_copy_only=False)
            cols = {"_jk": as_combined(b["_jk"]),
                    "_grams": as_combined(b["_grams"]),
                    "_shard": pa.array((k % n_shards).astype(np.int32))}
            return pad_to_schema(cols, union_types, b.num_rows, 1)

        both = pairs.map_batches(pad_pairs, batch_format="pyarrow") \
            .union(grams.map_batches(pad_grams, batch_format="pyarrow"))

        def per_shard(g: pa.Table) -> pa.Table:
            side = g[SIDE_COL]
            pt = g.filter(pc.equal(side, 0))
            gt = g.filter(pc.equal(side, 1))
            out = {c: pt[c] for c in pair_cols}
            if gt.num_rows == 0:
                out[out_col] = pa.nulls(pt.num_rows, _GRAMS_TYPE)
            else:
                idx = pc.index_in(as_combined(pt["_jk"]),
                                  value_set=as_combined(gt["_jk"]))
                out[out_col] = pc.take(as_combined(gt["_grams"]), idx)
            return pa.table(out)

        return both.groupby("_shard").map_groups(per_shard,
                                                 batch_format="pyarrow")

    with_a = attach(cands, "doc_a", "_ga",
                    {"doc_a": pa.int64(), "doc_b": pa.int64()})
    with_ab = attach(with_a, "doc_b", "_gb",
                     {"doc_a": pa.int64(), "doc_b": pa.int64(),
                      "_ga": _GRAMS_TYPE})

    def verify(batch: pa.Table) -> pa.Table:
        import polars as pl

        return _verify_df(pl.from_arrow(
            batch.select(["doc_a", "doc_b", "_ga", "_gb"])))

    return with_ab.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------------------- charset jaccard


def charset_jaccard_pairs(
    ds: Dataset,
    group_keys: list[str],
    threshold: float,
    text_field: str = "text",
    id_field: str = "doc_id",
    max_distinct: int = 4096,
) -> Dataset:
    """Exact character-set Jaccard pairs within co-grouped rows.

    Semantics mirror DuckDB's ``jaccard(s1, s2)`` (Jaccard over the SETS
    of characters) so results are SQL-verifiable. Returns group_keys +
    (doc_a, doc_b) with doc_a < doc_b.

    Scale shape: the Jaccard depends ONLY on each doc's character SET —
    a tiny canonical key (≤ alphabet size). So instead of all-pairs over
    docs (O(n²) per group — corpus/|groups| at 100 TB), the pipeline
    (1) reduces each doc to its canonical charset string inside
    ``map_batches`` (texts never shuffle), (2) collapses to one row per
    DISTINCT charset with its sorted id list (one groupby), and
    (3) compares distinct charsets pairwise — O(d²) with d = distinct
    charsets, typically ≪ docs — expanding each qualifying charset pair
    (and each same-charset clique, Jaccard 1) to its doc pairs. The
    expansion is proportional to OUTPUT size, which is inherent to the
    operator. ``max_distinct`` guards the d² stage: a group with more
    distinct charsets fails loudly instead of running quadratic work.
    """

    def add_cs(batch: pa.Table) -> pa.Table:
        texts = as_combined(batch[text_field]).to_pylist()
        cs = ["".join(sorted(set(t))) if t else "" for t in texts]
        cols = {k: as_combined(batch[k]) for k in group_keys}
        cols[id_field] = as_combined(batch[id_field])
        cols["_cs"] = pa.array(cs, type=pa.large_string())
        return pa.table(cols)

    slim = ds.select_columns(group_keys + [id_field, text_field]) \
        .map_batches(add_cs, batch_format="pyarrow", zero_copy_batch=True)

    def collect_ids(g: pa.Table) -> pa.Table:
        ids = np.sort(as_combined(g[id_field])
                      .to_numpy(zero_copy_only=False).astype(np.int64))
        cols = {k: g[k].slice(0, 1) for k in group_keys}
        cols["_cs"] = g["_cs"].slice(0, 1)
        cols["_ids"] = pa.array([ids], type=pa.list_(pa.int64()))
        return pa.table(cols)

    distinct = slim.groupby(group_keys + ["_cs"]).map_groups(
        collect_ids, batch_format="pyarrow")

    def pairs_in_group(g: pa.Table) -> pa.Table:
        css = g["_cs"].to_pylist()
        d = len(css)
        if d > max_distinct:
            raise ValueError(
                f"charset_jaccard_pairs: group {tuple(g[k][0].as_py() for k in group_keys)!r} "
                f"has {d} distinct charsets (> max_distinct={max_distinct}); "
                "the d² charset-pair stage would be quadratic — raise "
                "max_distinct explicitly or pre-partition the group")
        sets = [frozenset(c) for c in css]
        idlists = [np.asarray(x, dtype=np.int64)
                   for x in g["_ids"].to_pylist()]
        out_a, out_b = [], []
        for i in range(d):
            # same-charset clique: Jaccard 1 (or 0 for the empty set)
            sim_ii = 1.0 if sets[i] else 0.0
            if sim_ii >= threshold and len(idlists[i]) > 1:
                ii, jj = np.triu_indices(len(idlists[i]), 1)
                out_a.append(idlists[i][ii])
                out_b.append(idlists[i][jj])
            for j in range(i + 1, d):
                inter = len(sets[i] & sets[j])
                union = len(sets[i] | sets[j])
                sim = inter / union if union else 0.0
                if sim >= threshold:
                    x = np.repeat(idlists[i], len(idlists[j]))
                    y = np.tile(idlists[j], len(idlists[i]))
                    out_a.append(np.minimum(x, y))
                    out_b.append(np.maximum(x, y))
        a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        cols = {k: pa.array([g[k][0].as_py()] * len(a),
                            type=g.schema.field(k).type) for k in group_keys}
        cols["doc_a"] = pa.array(a, type=pa.int64())
        cols["doc_b"] = pa.array(b, type=pa.int64())
        return pa.table(cols)

    return distinct.groupby(group_keys).map_groups(
        pairs_in_group, batch_format="pyarrow")
