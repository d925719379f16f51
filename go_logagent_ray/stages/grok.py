"""Grok parse stage — vectorized, stateful, actor-pool friendly (F1).

Reimplements the reference's grok filter (``ref: filter/grok/`` [U-spec],
SURVEY.md §2.2 F1) as a callable class for
``Dataset.map_batches(GrokParser(...), batch_format="pyarrow",
zero_copy_batch=True, concurrency=N)``:

- ``__init__`` expands the grok pattern dictionary and compiles each
  pattern ONCE per actor (the reference compiles once per process;
  BASELINE.json:L6 "compiled pattern dictionaries cached in actor pools").
- ``__call__`` runs one cascade of ``pyarrow.compute.extract_regex``
  scans (Arrow's RE2 engine, vectorized, zero-copy input), one per
  (field, pattern) attempt in field-major order, each over only the rows
  no earlier attempt matched — logstash-grok "first match wins"
  semantics. Each capture column is then gathered from the claiming
  attempts' results with one take, and ``_grokparsefailure`` is appended
  to ``tags`` on rows no attempt matched (null text counts as no match).
  The source column (default ``text``) is passed through untouched:
  per-turn byte equality is an invariant (BASELINE.json:L15).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_utils import append_tag, as_combined, set_column
from ..functions.grok import CompiledGrok, compile_grok

_CAST_ARROW = {"int": pa.int64(), "float": pa.float64(), "string": pa.string()}


class GrokParser:
    """Callable-class stage: compile once per actor, parse per batch.

    ``field`` may be a LIST of source columns (the reference grok can
    match several source fields): every pattern is tried on the first
    field, then — for still-unmatched rows only — on the next field, and
    so on (field-major first-match-wins, the break_on_match semantics of
    the logstash family). ``patterns_path`` / ``patterns_dir`` load extra
    pattern definitions from logstash-format files (``NAME regex`` lines)
    before compiling; explicit ``extra_patterns`` override file entries.
    """

    def __init__(
        self,
        patterns: str | list[str],
        field: str | list[str] = "text",
        extra_patterns: dict[str, str] | None = None,
        patterns_path: str | None = None,
        patterns_dir: str | None = None,
        tag_on_failure: str = "_grokparsefailure",
    ):
        from ..functions.grok import load_pattern_file, load_patterns_dir

        if isinstance(patterns, str):
            patterns = [patterns]
        self.fields: list[str] = [field] if isinstance(field, str) else list(field)
        if not self.fields:
            raise ValueError("GrokParser needs at least one source field")
        self.tag_on_failure = tag_on_failure
        merged: dict[str, str] = {}
        if patterns_dir:
            merged.update(load_patterns_dir(patterns_dir))
        if patterns_path:
            merged.update(load_pattern_file(patterns_path))
        if extra_patterns:
            merged.update(extra_patterns)
        self.compiled: list[CompiledGrok] = [
            compile_grok(p, extra_patterns=merged or None) for p in patterns
        ]
        # RE2 via Arrow; validate eagerly so actor __init__ fails fast.
        for cg in self.compiled:
            re.compile(cg.regex)
        # Capture name -> cast (no cast is "string"), in first-seen order.
        # One column per capture, so the patterns must agree on its cast.
        self.casts: dict[str, str] = {}
        for cg in self.compiled:
            for name in cg.captures:
                cast = cg.casts.get(name, "string")
                if self.casts.setdefault(name, cast) != cast:
                    raise ValueError(
                        f"grok capture {name!r} cast to both "
                        f"{self.casts[name]!r} and {cast!r}")
        # field-major (field, pattern-idx) attempt order
        self.units: list[tuple[str, int]] = [
            (f, pi) for f in self.fields for pi in range(len(self.compiled))
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {f: as_combined(batch[f]) for f in self.fields}

        # One shrinking cascade: each attempt scans only the rows no earlier
        # attempt claimed (the whole column while none has matched yet) and
        # records the rows it claims and where they sit in its result.
        left: np.ndarray | None = None  # unclaimed row ids; None = all rows
        claims: list[tuple[CompiledGrok, pa.StructArray, np.ndarray, np.ndarray]] = []
        for fname, pi in self.units:
            cg = self.compiled[pi]
            col = cols[fname] if left is None else cols[fname].take(pa.array(left))
            try:
                res = pc.extract_regex(col, pattern=cg.regex)
            except pa.ArrowInvalid:
                # Pattern not RE2-compatible → per-row Python fallback.
                res = self._py_extract(col, cg)
            hit = pc.is_valid(res).to_numpy(zero_copy_only=False)
            at = np.flatnonzero(hit)
            if not len(at):
                continue
            claims.append((cg, res, at if left is None else left[at], at))
            left = np.flatnonzero(~hit) if left is None else left[~hit]
            if not len(left):
                break

        for name, cast in self.casts.items():
            # The claiming attempts' values end to end, and per row its
            # position there (null where no attempt with this capture
            # claimed the row). Unmatched struct rows carry "" children.
            children: list[pa.Array] = []
            pos = np.zeros(n, dtype=np.int64)
            claimed = np.zeros(n, dtype=bool)
            for cg, res, rows, at in claims:
                if name in cg.captures:
                    pos[rows] = at + sum(len(c) for c in children)
                    claimed[rows] = True
                    children.append(res.field(name))
            if children:
                arr = pa.concat_arrays(children).take(pa.array(pos, mask=~claimed))
            else:
                arr = pa.nulls(n, pa.string())
            if cast != "string":
                if cast == "int":
                    # grok INT matches [+-]?\d+ and Python int() accepts
                    # a leading '+', but Arrow's string→int parser does
                    # not ("+0" fails the cast) — strip it first
                    arr = pc.replace_substring_regex(
                        arr, pattern=r"^\+", replacement="")
                arr = pc.cast(arr, _CAST_ARROW[cast])
            batch = set_column(batch, name, arr)

        failed = np.zeros(n, dtype=bool)
        failed[slice(None) if left is None else left] = True
        tags = batch["tags"] if "tags" in batch.column_names else None
        failure = pc.if_else(pa.array(failed), self.tag_on_failure, pa.scalar(None, pa.string()))
        return set_column(batch, "tags", append_tag(tags, failure))

    def _py_extract(self, col: pa.Array, cg: CompiledGrok) -> pa.StructArray:
        """Python ``re`` fallback for patterns RE2 rejects (rare path)."""
        rx = re.compile(cg.regex)
        fields = [(name, pa.string()) for name in cg.captures]
        out: list[dict | None] = []
        for v in col.to_pylist():
            m = rx.search(v) if v is not None else None
            out.append({k: m.group(k) for k in cg.captures} if m else None)
        return pa.array(out, type=pa.struct(fields))
