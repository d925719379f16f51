"""Pure-Python row-level oracle for the flagship pipeline (SURVEY.md §5.2.1).

Deliberately naive and single-process — one ``re`` match per row, dict
lookup, routing if-chain — so its correctness is auditable by eye. It
defines the *reference semantics* the Ray pipeline must equal exactly:
per-sink routed-row sets, per-turn text byte-equality under stable
(conv_id, turn_idx) sort, and aggregate counts (BASELINE.json:L6/L14/L15).

Mirrors the reference's filter-chain behavior (``ref: filter/grok/``,
``ref: filter/patch/`` [U-spec]): grok patterns tried in order, first match
wins, ``_grokparsefailure`` tag when none match; enrich dict with
("", )-tool wildcard fallback; total + disjoint ordered routing rules.
"""

from __future__ import annotations

import re
from collections import Counter
from datetime import datetime
from typing import Any

import pyarrow as pa

from .functions.grok import compile_grok

# ---- flagship pipeline spec (shared with pipelines/transcript.py) ----

GROK_PATTERNS = [
    "%{LOGLEVEL:lvl} %{WORD:component} .* latency_ms=%{INT:latency_ms:int} status=%{WORD:status}",
    "%{LOGLEVEL:lvl} tool_call tool=%{WORD:tool_name} args_bytes=%{INT:args_bytes:int}",
]
GROK_FAILURE_TAG = "_grokparsefailure"

# (role, tool) -> (agent_kind, tag); "" tool = wildcard fallback row.
ENRICH_LOOKUP: dict[tuple[str, str], tuple[str, str]] = {
    ("system", ""): ("ctrl", "t_system"),
    ("user", ""): ("human", "t_user"),
    ("assistant", ""): ("model", "t_assistant"),
    ("assistant", "bash"): ("model_tool", "t_toolcall"),
    ("assistant", "search"): ("model_tool", "t_toolcall"),
    ("assistant", "editor"): ("model_tool", "t_toolcall"),
    ("assistant", "browser"): ("model_tool", "t_toolcall"),
    ("tool", "bash"): ("tool_exec", "t_tool"),
    ("tool", "search"): ("tool_exec", "t_tool"),
    ("tool", "editor"): ("tool_exec", "t_tool"),
    ("tool", "browser"): ("tool_exec", "t_tool"),
}
ENRICH_DEFAULT = ("unknown", "t_unknown")

SINKS = ["errors", "tool_events", "chat", "default"]


def route_of(status: str | None, role: str | None, tool: str | None) -> str:
    """Ordered, total, disjoint routing rules (FIXTURES.md §3)."""
    if status in ("err", "timeout"):
        return "errors"
    if role == "tool" or (tool is not None and tool != ""):
        return "tool_events"
    if role in ("user", "assistant"):
        return "chat"
    return "default"


def _floor_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def run_oracle(table: pa.Table) -> dict[str, Any]:
    """Run the full parse→patch→enrich→route chain row-by-row.

    Returns::

        {
          "rows":        [dict per row, with all derived fields],
          "sinks":       {sink: [row dicts]},
          "sink_counts": Counter[(sink, role, tool, ts_hour)],
          "conv_counts": Counter[conv_id],
        }
    """
    # re.ASCII: RE2 (the pipeline's extract_regex), like the reference's Go
    # regexp, reads \w, \d and \b as ASCII classes; Python's default is Unicode
    compiled = [(compile_grok(p), re.compile(compile_grok(p).regex, re.ASCII))
                for p in GROK_PATTERNS]
    capture_names: list[str] = []
    casts: dict[str, str] = {}
    for cg, _ in compiled:
        for name in cg.captures:
            if name not in capture_names:
                capture_names.append(name)
        casts.update(cg.casts)

    rows = table.to_pylist()
    out_rows: list[dict[str, Any]] = []
    sinks: dict[str, list[dict[str, Any]]] = {s: [] for s in SINKS}
    sink_counts: Counter = Counter()
    conv_counts: Counter = Counter()

    for row in rows:
        ev = dict(row)
        ev["tags"] = []
        for name in capture_names:
            ev[name] = None
        text = ev.get("text")
        matched = False
        if text is not None:
            for cg, rx in compiled:
                m = rx.search(text)
                if m:
                    for name in cg.captures:
                        val: Any = m.group(name)
                        if val is not None and casts.get(name) == "int":
                            val = int(val)
                        elif val is not None and casts.get(name) == "float":
                            val = float(val)
                        ev[name] = val
                    matched = True
                    break
        if not matched:
            ev["tags"].append(GROK_FAILURE_TAG)

        # patch: static field + ts_hour
        ev["pipeline_id"] = "agentlog"
        ev["ts_hour"] = _floor_hour(ev["ts"]) if ev["ts"] is not None else None

        # enrich: (role, tool) exact then (role, "") wildcard then default
        key = (ev["role"], ev["tool"])
        hit = ENRICH_LOOKUP.get(key) or ENRICH_LOOKUP.get((ev["role"], "")) or ENRICH_DEFAULT
        ev["agent_kind"] = hit[0]
        ev["tags"].append(hit[1])

        # route
        ev["route"] = route_of(ev.get("status"), ev["role"], ev["tool"])

        out_rows.append(ev)
        sinks[ev["route"]].append(ev)
        sink_counts[(ev["route"], ev["role"], ev["tool"], ev["ts_hour"])] += 1
        conv_counts[ev["conv_id"]] += 1

    return {
        "rows": out_rows,
        "sinks": sinks,
        "sink_counts": sink_counts,
        "conv_counts": conv_counts,
    }
