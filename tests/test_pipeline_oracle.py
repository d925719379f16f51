"""End-to-end flagship pipeline vs the pure-Python row oracle
(BASELINE.json:L6/L14/L15 invariants; SURVEY.md §5.2.1):

- per-sink routed-row SET equality,
- per-turn text BYTE equality under stable (conv_id, turn_idx) sort
  (null preserved distinctly from ""),
- aggregate count equality by (route, role, tool, ts_hour) and conv_id,
- conservation: ∑ per-sink rows == input rows.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def to_table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(
        [t if isinstance(t, pa.Table) else pa.Table.from_batches([t])
         for t in ray.get(ds.to_arrow_refs())],
        promote_options="permissive",
    )

from go_logagent_ray.oracle import SINKS


@pytest.fixture(scope="module")
def routed(ray_session, transcripts_parquet):
    """The flagship chain, run once (materialized) for the tests below."""
    from go_logagent_ray.pipelines.transcript import parse_enrich_route
    from go_logagent_ray.sources.parquet import read_transcripts

    return parse_enrich_route(read_transcripts(transcripts_parquet),
                              batch_size=64).materialize()


def _sorted_rows(table: pa.Table):
    import pyarrow.compute as pc

    idx = pc.sort_indices(
        table, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    return table.take(idx).to_pylist()


def test_sink_row_sets_and_text_equality(routed, oracle_result):
    _assert_rows_equal_oracle(to_table(routed), oracle_result)  # ~1.1k rows


def _assert_rows_equal_oracle(got: pa.Table, oracle_result) -> None:
    """Each sink's rows equal the oracle's, field by field."""
    assert got.num_rows == sum(len(v) for v in oracle_result["sinks"].values())

    for sink in SINKS:
        g = got.filter(pa.compute.equal(got["route"], sink))
        grows = _sorted_rows(g)
        erows = sorted(
            oracle_result["sinks"][sink], key=lambda r: (r["conv_id"], r["turn_idx"])
        )
        assert len(grows) == len(erows), sink
        for gr, er in zip(grows, erows):
            assert (gr["conv_id"], gr["turn_idx"]) == (er["conv_id"], er["turn_idx"])
            # byte equality, null vs "" preserved
            gt, et = gr["text"], er["text"]
            assert (gt is None) == (et is None)
            if gt is not None:
                assert gt.encode() == et.encode()
            for k in ("lvl", "component", "latency_ms", "status", "tool_name",
                      "args_bytes", "agent_kind", "ts_hour", "pipeline_id"):
                assert gr[k] == er[k], (sink, k, gr, er)
            assert sorted(gr["tags"]) == sorted(er["tags"])


def test_aggregate_counts_match_oracle(routed, oracle_result):
    from go_logagent_ray.pipelines.transcript import AGG_KEYS
    from go_logagent_ray.stages.aggregate import counts_by

    got = {
        (r["route"], r["role"], r["tool"], r["ts_hour"]): r["n"]
        for r in to_table(counts_by(routed, AGG_KEYS, alias="n")).to_pylist()
    }
    assert got == dict(oracle_result["sink_counts"])


def test_conv_counts_match_oracle(routed, oracle_result):
    from go_logagent_ray.stages.aggregate import counts_by

    got = {r["conv_id"]: r["n"]
           for r in to_table(counts_by(routed, ["conv_id"], alias="n")).to_pylist()}
    assert got == dict(oracle_result["conv_counts"])


def test_chain_plan_is_built_from_flagship_spec(ray_session, transcripts_small):
    """The chain's logical plan is exactly four ``MapBatches``, one per
    stage in chain order, each an instance built from ``FLAGSHIP_SPEC``
    (pickled byte for byte) with the requested batch size. logbench's
    ``chain_stages`` reads this plan."""
    import pickle

    import ray.data as rd

    from go_logagent_ray.pipelines.transcript import (FLAGSHIP_SPEC,
                                                      parse_enrich_route)
    from go_logagent_ray.stages.enrich import LookupEnrich
    from go_logagent_ray.stages.grok import GrokParser
    from go_logagent_ray.stages.patch import PatchStage
    from go_logagent_ray.stages.route import RouteStage

    ds = parse_enrich_route(rd.from_arrow(transcripts_small), batch_size=100)
    ops = []
    op = ds._logical_plan.dag
    while type(op).__name__ == "MapBatches":
        ops.append(op)
        op = op.input_dependencies[0]
    assert type(op).__name__ == "FromArrow"
    want = [cls(**FLAGSHIP_SPEC[name]) for name, cls in (
        ("grok", GrokParser), ("patch", PatchStage),
        ("enrich", LookupEnrich), ("route", RouteStage))]
    assert list(FLAGSHIP_SPEC) == ["grok", "patch", "enrich", "route"]
    assert [type(o._fn) for o in reversed(ops)] == [type(w) for w in want]
    for o, w in zip(reversed(ops), want):
        assert (o._batch_size, o._batch_format, o._zero_copy_batch) \
            == (100, "pyarrow", True)
        assert pickle.dumps(o._fn) == pickle.dumps(w)


@pytest.fixture(scope="module")
def default_pass(ray_session, transcripts_small, tmp_path_factory):
    """``write_sinks`` at the default batch size over four files of
    64-row row groups (at most one read block per file at 4 CPUs)."""
    from go_logagent_ray.pipelines.transcript import parse_enrich_route, write_sinks
    from go_logagent_ray.sources.parquet import read_transcripts

    root = tmp_path_factory.mktemp("default_pass")
    files, step = [], -(-transcripts_small.num_rows // 4)
    for i in range(4):
        files.append(str(root / f"part-{i}.parquet"))
        pq.write_table(transcripts_small.slice(i * step, step), files[-1],
                       row_group_size=64)
    routed = parse_enrich_route(read_transcripts(files))
    write_sinks(routed, str(root / "out"))
    return routed, str(root / "out")


def test_default_batch_fuses_read_into_chain(default_pass):
    """The read, the four stages and the write run as ONE operator."""
    routed, _ = default_pass
    summary, names = [routed._write_ds._get_stats_summary()], []
    while summary:
        s = summary.pop()
        summary.extend(s.parents)
        names += [o.operator_name for o in s.operators_stats]
    assert len(names) == 1, names
    assert names[0].startswith("ReadParquet->") and names[0].endswith("->Write")


def test_default_batch_sinks_equal_oracle(default_pass, oracle_result):
    import pyarrow.dataset as pds

    _, out = default_pass
    got = pds.dataset(out, format="parquet", partitioning="hive").to_table()
    _assert_rows_equal_oracle(got, oracle_result)


def test_config_grok_actor_pool_matches_tasks(ray_session, transcripts_parquet):
    """A config chain's class stage runs in an actor pool when its part
    sets ``concurrency``; the flagship grok stage there gives the same
    table as the task path."""
    import pyarrow.compute as pc
    import ray.data as rd

    from go_logagent_ray.config import Pipeline
    from go_logagent_ray.oracle import GROK_PATTERNS
    from go_logagent_ray.stages.grok import GrokParser

    def run(**opts):
        part = {"type": "grok", "patterns": GROK_PATTERNS, "batch_size": 64, **opts}
        ds = Pipeline.from_config({"filters": [part]}).transform(
            rd.read_parquet(transcripts_parquet))
        out = to_table(ds)
        return ds, out.take(pc.sort_indices(out, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")]))

    task_ds, tasks = run()
    pool_ds, pooled = run(concurrency=2)
    # the pool is built from the class, the task path from an instance
    assert pool_ds._logical_plan.dag._fn is GrokParser
    assert isinstance(task_ds._logical_plan.dag._fn, GrokParser)
    assert tasks.num_rows == pq.ParquetFile(transcripts_parquet).metadata.num_rows
    assert pooled.equals(tasks)


def test_sinks_written_partitioned(ray_session, transcripts_parquet, tmp_path, oracle_result):
    from go_logagent_ray.pipelines.transcript import parse_enrich_route, write_sinks
    import ray.data as rd

    out = str(tmp_path / "sinks")
    ds = rd.read_parquet(transcripts_parquet)
    write_sinks(parse_enrich_route(ds, batch_size=64), out)
    total = 0
    for sink in SINKS:
        d = os.path.join(out, f"route={sink}")
        if not os.path.isdir(d):
            assert len(oracle_result["sinks"][sink]) == 0
            continue
        n = pq.read_table(d).num_rows
        assert n == len(oracle_result["sinks"][sink]), sink
        total += n
    assert total == sum(len(v) for v in oracle_result["sinks"].values())


def test_errors_json_sink(ray_session, transcripts_parquet, tmp_path, oracle_result):
    import glob
    import json as jsonlib

    import ray.data as rd

    from go_logagent_ray.pipelines.transcript import (
        parse_enrich_route,
        write_errors_json,
    )

    out = str(tmp_path / "errors_json")
    routed = parse_enrich_route(rd.read_parquet(transcripts_parquet), batch_size=64)
    write_errors_json(routed, out)
    rows = []
    for f in glob.glob(out + "/*.json"):
        with open(f) as fh:
            rows.extend(jsonlib.loads(line) for line in fh if line.strip())
    assert len(rows) == len(oracle_result["sinks"]["errors"])
    assert all(r["route"] == "errors" for r in rows)
    assert all(isinstance(r["tags"], list) for r in rows)


def test_counts_group_null_keys_once(ray_session, transcripts_null_ts,
                                     tmp_path):
    """A null key is ONE group in the final combine: both
    ``flagship_counts`` views (whose per-conv view null-pads the sink
    keys) and ``counts_by`` over ``AGG_KEYS`` with null ``ts_hour`` rows
    equal the oracle with one row per group, over a multi-batch input."""
    import pyarrow.compute as pc
    import ray.data as rd

    from go_logagent_ray.oracle import run_oracle
    from go_logagent_ray.pipelines.transcript import (
        AGG_KEYS, flagship_counts, parse_enrich_route)
    from go_logagent_ray.stages.aggregate import counts_by

    path = str(tmp_path / "null_ts.parquet")
    pq.write_table(transcripts_null_ts, path, row_group_size=1024)
    want = run_oracle(transcripts_null_ts)
    assert any(k[3] is None for k in want["sink_counts"])

    routed = parse_enrich_route(rd.read_parquet(path)).materialize()
    fused = to_table(flagship_counts(routed))
    views = {v: fused.filter(pc.equal(fused["_agg"], v)).to_pylist()
             for v in ("sink", "conv")}
    sink_counts = to_table(counts_by(routed, AGG_KEYS, alias="n")).to_pylist()
    for rows in (views["sink"], sink_counts):
        assert len(rows) == len(want["sink_counts"])
        assert {(r["route"], r["role"], r["tool"], r["ts_hour"]): r["n"]
                for r in rows} == dict(want["sink_counts"])
    assert len(views["conv"]) == len(want["conv_counts"])
    assert {r["conv_id"]: r["n"] for r in views["conv"]} \
        == dict(want["conv_counts"])


@pytest.mark.parametrize("table_name",
                         ["transcripts_small", "transcripts_null_ts"])
def test_write_sinks_returns_oracle_counts(ray_session, tmp_path, request,
                                           table_name):
    """``write_sinks`` returns the oracle's sink counts, one entry per
    group, merged from several write tasks' partials (the ``(route, role,
    tool, None)`` groups of null-``ts`` rows included)."""
    from go_logagent_ray.oracle import run_oracle
    from go_logagent_ray.pipelines.transcript import (parse_enrich_route,
                                                      write_sinks)
    from go_logagent_ray.sources.parquet import read_transcripts

    table = request.getfixturevalue(table_name)
    path = str(tmp_path / "in.parquet")
    pq.write_table(table, path, row_group_size=256)
    routed = parse_enrich_route(read_transcripts(path), batch_size=64)
    got = write_sinks(routed, str(tmp_path / "sinks"))
    want = run_oracle(table)["sink_counts"]
    assert len(got) == len(want)
    assert dict(got) == dict(want)


def _unroute(ds):
    """The flagship chain with every ``route`` nulled."""
    from go_logagent_ray.pipelines.transcript import parse_enrich_route

    def null_routes(batch):
        i = batch.schema.get_field_index("route")
        return batch.set_column(i, "route",
                                pa.nulls(batch.num_rows, batch["route"].type))

    return parse_enrich_route(ds, batch_size=64).map_batches(
        null_routes, batch_format="pyarrow")


def test_null_route_is_rejected(ray_session, transcripts_parquet, tmp_path):
    """A routed row without a route fails the write: ``write_sinks`` and
    ``run_checkpointed`` raise ``ValueError``, and no manifest commits."""
    import glob

    import ray.data as rd

    from go_logagent_ray.pipelines.transcript import write_sinks
    from go_logagent_ray.state.checkpoint import run_checkpointed

    with pytest.raises(ValueError, match="without a route"):
        write_sinks(_unroute(rd.read_parquet(transcripts_parquet)),
                    str(tmp_path / "sinks"))
    out = str(tmp_path / "ck")
    with pytest.raises(ValueError, match="without a route"):
        run_checkpointed([transcripts_parquet], out, _unroute,
                         {"test": "null route"}, rows_per_partition=10_000)
    assert not glob.glob(os.path.join(out, "_manifest", "*.json"))


# ---- the four flagship stages in process vs the row oracle ----

from datetime import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

_word = st.text(alphabet="abcxyz_019éß", min_size=1, max_size=6)
_maybe = lambda known: st.one_of(st.none(), st.sampled_from(known), _word)  # noqa: E731
_level = st.sampled_from(["INFO", "WARN", "ERROR", "DEBUG", "info", "NOTE"])
_text = st.one_of(
    st.none(),
    st.just(""),
    st.builds("{} {} {}latency_ms={} status={}".format, _level, _word,
              st.sampled_from(["", "x ", "a = b "]), st.integers(0, 10**6),
              st.one_of(st.sampled_from(["ok", "err", "timeout"]), _word)),
    st.builds("{} tool_call tool={} args_bytes={}".format, _level, _word,
              st.integers(0, 10**6)),
    st.text(alphabet="abc =_:ERORtoluclsy0123é", max_size=30),
)
_row = st.fixed_dictionaries({
    "role": _maybe(["system", "user", "assistant", "tool"]),
    "tool": _maybe(["", "bash", "search", "editor", "browser"]),
    "text": _text,
    "ts": st.one_of(st.none(), st.datetimes(datetime(2024, 1, 1),
                                            datetime(2024, 12, 31))),
})
_COMPARED = ["tags", "agent_kind", "route", "ts_hour", "lvl", "component",
             "latency_ms", "status", "tool_name", "args_bytes"]


@settings(max_examples=100, deadline=None)
@given(st.lists(_row, max_size=30), st.integers(0, 30))
def test_flagship_stages_match_oracle_rows(rows, cut):
    """``FLAGSHIP_SPEC``'s four stages, called in process on a two-chunk
    batch, give each row the oracle's tags, enrich, route and captures,
    also for null or unknown keys, unparsed or non-ASCII text and a null
    ``ts``."""
    from go_logagent_ray.fixtures import TRANSCRIPT_SCHEMA
    from go_logagent_ray.oracle import run_oracle
    from go_logagent_ray.pipelines.transcript import FLAGSHIP_SPEC
    from go_logagent_ray.stages.enrich import LookupEnrich
    from go_logagent_ray.stages.grok import GrokParser
    from go_logagent_ray.stages.patch import PatchStage
    from go_logagent_ray.stages.route import RouteStage

    rows = [dict(r, conv_id="c", turn_idx=i) for i, r in enumerate(rows)]
    table = pa.Table.from_pylist(rows, schema=TRANSCRIPT_SCHEMA)
    cut = min(cut, len(rows))
    batch = pa.concat_tables([table.slice(0, cut), table.slice(cut)])
    for name, cls in (("grok", GrokParser), ("patch", PatchStage),
                      ("enrich", LookupEnrich), ("route", RouteStage)):
        batch = cls(**FLAGSHIP_SPEC[name])(batch)
    got = batch.select(_COMPARED).to_pylist()
    want = [{k: r[k] for k in _COMPARED} for r in run_oracle(table)["rows"]]
    assert got == want
