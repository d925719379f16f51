"""Lookup-enrich stage — broadcast small-side join, no shuffle (J1).

The reference has no joins; its nearest analog is patch-filter constant
fields (SURVEY.md §2.4). The north_star mandates "a lookup-enrich stage
(broadcast dict join on role/tool → routing tags)" (BASELINE.json:L6).

Design for scale: the lookup table is tiny, so it is broadcast — captured
once per stage instance (rides the task closure / actor state via
``ray.put`` under the hood when Ray serializes the callable) — and the
join is a vectorized ``pc.index_in`` + ``take`` per batch. NO shuffle.
A ``("<role>", "")`` row acts as a per-role wildcard fallback; rows missing
both get the configured default. ``Dataset.join`` remains the documented
fallback if the small side ever outgrows broadcast (SURVEY.md §2.4 J1).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_utils import append_tag, as_combined, set_column

_SEP = "\x1f"  # unit separator — cannot appear in role/tool values


class LookupEnrich:
    """Vectorized (key1, key2) → value columns broadcast lookup.

    ``lookup``: dict[(k1, k2)] -> tuple of values, one per ``value_names``
    (or the same as a list of pairs); a ``(k1, "")`` key is k1's wildcard.
    The value at ``tag_value_index`` (if set) is appended to ``tags``
    instead of becoming a column.
    """

    def __init__(
        self,
        lookup: dict[tuple[str, str], tuple] | list[tuple[tuple[str, str], tuple]],
        key_fields: tuple[str, str] = ("role", "tool"),
        value_names: tuple[str, ...] = ("agent_kind",),
        tag_value_index: int | None = None,
        default: tuple | None = None,
    ):
        self.key_fields = key_fields
        self.value_names = value_names
        self.tag_value_index = tag_value_index
        self.default = default

        exact_keys, exact_vals = [], []
        wild_keys, wild_vals = [], []
        for (k1, k2), vals in dict(lookup).items():
            exact_keys.append(f"{k1}{_SEP}{k2}")
            exact_vals.append(vals)
            if k2 == "":
                wild_keys.append(k1)
                wild_vals.append(vals)
        self.exact_keys = pa.array(exact_keys, type=pa.string())
        self.wild_keys = pa.array(wild_keys, type=pa.string())
        ncols = len(exact_vals[0]) if exact_vals else 0
        self.exact_cols = [
            pa.array([v[i] for v in exact_vals]) for i in range(ncols)
        ]
        self.wild_cols = [pa.array([v[i] for v in wild_vals]) for i in range(ncols)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        k1 = as_combined(batch[self.key_fields[0]])
        k2 = as_combined(batch[self.key_fields[1]])
        composite = pc.binary_join_element_wise(
            pc.cast(k1, pa.string()), pc.cast(k2, pa.string()), _SEP
        )
        idx_exact = pc.index_in(composite, value_set=self.exact_keys)
        idx_wild = pc.index_in(pc.cast(k1, pa.string()), value_set=self.wild_keys)

        for i in range(len(self.exact_cols)):
            got = pc.take(self.exact_cols[i], idx_exact)
            wild = pc.take(self.wild_cols[i], idx_wild)
            arr = pc.coalesce(got, wild)
            if self.default is not None:
                arr = pc.fill_null(arr, self.default[i])
            if i == self.tag_value_index:
                tags = batch["tags"] if "tags" in batch.column_names else None
                batch = set_column(batch, "tags", append_tag(tags, arr))
            else:
                batch = set_column(batch, self.value_names[i], arr)
        return batch
