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
from .filters import pred_mask


class RouteStage:
    """Adds a ``route:string`` column from ordered (sink, [predicates]) rules."""

    def __init__(
        self,
        rules: list[tuple[str, list[tuple]]],
        default_sink: str = "default",
    ):
        self.rules = rules
        self.sinks = pa.array([sink for sink, _ in rules] + [default_sink], type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        # each row's first matching rule; the default sink's index otherwise.
        # Rules are applied last to first so that the first match stays.
        rule = np.full(batch.num_rows, len(self.rules), dtype=np.int32)
        for r in reversed(range(len(self.rules))):
            m = np.ones(batch.num_rows, dtype=bool)
            for pred in self.rules[r][1]:
                m &= pred_mask(batch, pred)
            rule[m] = r
        return set_column(batch, "route", self.sinks.take(pa.array(rule)))


def split_to_sink(batch: pa.Table, sink: str) -> pa.Table:
    """Vectorized per-sink filter, for ``map_batches`` before a sink write."""
    return batch.filter(pc.equal(batch["route"], sink))
