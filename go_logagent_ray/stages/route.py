"""Conditional fan-out router (R1) — route column + per-sink writes.

The reference offers every event to every output plugin; conditional sinks
become "a conditional fan-out router that splits rows to multiple
Parquet/JSON sinks" (BASELINE.json:L6; SURVEY.md §2.7 R1). Rules are
TOTAL + DISJOINT by construction: an ordered if-chain evaluated in one
deterministic vectorized pass; rows matching nothing get ``default_sink``.
Invariant: every row routes to exactly one sink, so
∑ per-sink rows == input rows (checked in tests).

Rule predicates (each a tuple, combined per-rule as AND):
    ("eq", field, value) | ("in", field, [v1, ...]) | ("ne", field, value)
    ("not_null", field)  | ("is_null", field)       | ("has_tag", tag)
Null comparisons are False (SQL-like), so parse-failure rows fall through.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_utils import set_column


class RouteStage:
    """Adds a ``route:string`` column from ordered (sink, [predicates]) rules."""

    def __init__(
        self,
        rules: list[tuple[str, list[tuple]]],
        default_sink: str = "default",
        tags_column: str = "tags",
    ):
        self.rules = rules
        self.default_sink = default_sink
        self.tags_column = tags_column

    def _pred_mask(self, batch: pa.Table, pred: tuple) -> np.ndarray:
        # shared predicate mini-language — one evaluator for router AND
        # drop filter (lt/gt/match included); import here to avoid a
        # module cycle at import time
        from .filters import pred_mask

        return pred_mask(batch, pred, tags_column=self.tags_column)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        route = np.full(n, self.default_sink, dtype=object)
        unclaimed = np.ones(n, dtype=bool)
        for sink, preds in self.rules:
            m = np.ones(n, dtype=bool)
            for pred in preds:
                m &= self._pred_mask(batch, pred)
            m &= unclaimed
            route[m] = sink
            unclaimed &= ~m
        return set_column(batch, "route", pa.array(route, type=pa.string()))


def split_to_sink(batch: pa.Table, sink: str) -> pa.Table:
    """Vectorized per-sink filter, for ``map_batches`` before a sink write."""
    return batch.filter(pc.equal(batch["route"], sink))
