"""Unit tests for patch, enrich, and route stages (SURVEY.md §5.2.3)."""

import numpy as np
import pyarrow as pa

from go_logagent_ray.functions.arrow_utils import append_tag, has_tag, remove_tag
from go_logagent_ray.stages.enrich import LookupEnrich
from go_logagent_ray.stages.patch import PatchStage
from go_logagent_ray.stages.route import RouteStage, split_to_sink


def _batch():
    return pa.table(
        {
            "role": ["user", "tool", "assistant", "system"],
            "tool": ["", "bash", "search", ""],
            "status": pa.array(["ok", "err", None, "timeout"], type=pa.string()),
            "ts": pa.array(
                np.array(
                    ["2024-03-01T10:31:02", "2024-03-01T10:59:59",
                     "2024-03-02T00:00:00", "2024-03-02T23:01:01"],
                    dtype="datetime64[us]",
                )
            ),
        }
    )


# ---- arrow_utils list kernels ----

def _where(mask, tag: str) -> pa.Array:
    """The per-row tag values that append ``tag`` where ``mask`` holds."""
    return pa.array([tag if m else None for m in mask], type=pa.string())


def test_append_tag_fresh_and_merge():
    tags = append_tag(None, _where([True, False, True], "a"))
    assert tags.to_pylist() == [["a"], [], ["a"]]
    tags2 = append_tag(tags, _where([False, True, True], "b"))
    assert tags2.to_pylist() == [["a"], ["b"], ["a", "b"]]


def test_append_tag_per_row_values():
    base = pa.array([["x"], [], None, ["y", "z"]], type=pa.list_(pa.string()))
    out = append_tag(base, pa.array(["p", None, "q", "r"]))
    assert out.to_pylist() == [["x", "p"], [], ["q"], ["y", "z", "r"]]
    assert append_tag(None, pa.array([], type=pa.string())).to_pylist() == []


def test_append_tag_null_lists_become_empty():
    base = pa.array([["x"], None, []], type=pa.list_(pa.string()))
    out = append_tag(base, _where([False, True, False], "t"))
    assert out.to_pylist() == [["x"], ["t"], []]


def test_tag_helpers_on_null_slot_spanning_values():
    """Arrow lets a null list slot's offsets span values; every helper
    must read that slot as an empty list, not as the values it spans."""
    arr = pa.ListArray.from_arrays([0, 1, 3, 3], ["x", "y", "z"],
                                   mask=pa.array([False, True, False]))
    assert arr.to_pylist() == [["x"], None, []]
    assert has_tag(arr, "y").tolist() == [False, False, False]
    assert remove_tag(arr, "x").to_pylist() == [[], [], []]
    assert append_tag(arr, _where([False, True, False], "t")).to_pylist() \
        == [["x"], ["t"], []]
    chunked = pa.chunked_array([arr.slice(0, 2), arr.slice(2)])
    assert has_tag(chunked, "y").tolist() == [False, False, False]


def test_remove_and_has_tag():
    base = pa.array([["a", "b"], ["b"], []], type=pa.list_(pa.string()))
    assert has_tag(base, "b").tolist() == [True, True, False]
    out = remove_tag(base, "b")
    assert out.to_pylist() == [["a"], [], []]


# ---- patch ----

def test_patch_add_static_and_interpolated():
    p = PatchStage([
        ("add_field", "pipe", "agentlog"),
        ("add_field", "key", "%{role}/%{tool}@%{+%Y-%m-%d}"),
    ])
    out = p(_batch())
    assert out["pipe"].to_pylist() == ["agentlog"] * 4
    assert out["key"].to_pylist()[0] == "user/@2024-03-01"
    assert out["key"].to_pylist()[1] == "tool/bash@2024-03-01"


def test_patch_rename_remove_convert_timefloor():
    p = PatchStage([
        ("rename_field", "status", "st"),
        ("time_floor", "ts", "ts_hour", "hour"),
        ("add_field", "num", "42"),
        ("convert", "num", "int"),
        ("remove_field", "tool"),
    ])
    out = p(_batch())
    assert "status" not in out.column_names and "st" in out.column_names
    assert "tool" not in out.column_names
    assert out["num"].to_pylist() == [42] * 4
    assert [str(x) for x in out["ts_hour"].to_pylist()] == [
        "2024-03-01 10:00:00", "2024-03-01 10:00:00",
        "2024-03-02 00:00:00", "2024-03-02 23:00:00",
    ]


def test_patch_add_remove_tag():
    p = PatchStage([("add_tag", "x"), ("add_tag", "y"), ("remove_tag", "x")])
    out = p(_batch())
    assert out["tags"].to_pylist() == [["y"]] * 4


# ---- enrich ----

def test_enrich_exact_wildcard_default():
    lookup = {
        ("user", ""): ("human", "t_user"),
        ("tool", "bash"): ("exec", "t_tool"),
    }
    e = LookupEnrich(
        lookup, key_fields=("role", "tool"),
        value_names=("kind", "tag"), tag_value_index=1,
        default=("unknown", "t_unknown"),
    )
    out = e(_batch())
    # user/"" exact; tool/bash exact; assistant/search -> no exact, no
    # wildcard -> default; system/"" -> no entry -> default
    assert out["kind"].to_pylist() == ["human", "exec", "unknown", "unknown"]
    assert out["tags"].to_pylist() == [["t_user"], ["t_tool"], ["t_unknown"], ["t_unknown"]]


def test_enrich_wildcard_fallback():
    lookup = {("assistant", ""): ("model", "t_a")}
    e = LookupEnrich(lookup, value_names=("kind", "tag"), tag_value_index=1,
                     default=("d", "t_d"))
    out = e(_batch())
    # assistant/search falls back to (assistant, "") wildcard
    assert out["kind"].to_pylist() == ["d", "d", "model", "d"]


# ---- route ----

def test_route_total_disjoint_ordered():
    rules = [
        ("errors", [("in", "status", ["err", "timeout"])]),
        ("tool_events", [("eq", "role", "tool")]),
        ("tool_events", [("ne", "tool", "")]),
        ("chat", [("in", "role", ["user", "assistant"])]),
    ]
    out = RouteStage(rules)(_batch())
    # user/ok->chat; tool/err->errors (rule order!); assistant/null+search->
    # tool_events; system/timeout->errors
    assert out["route"].to_pylist() == ["chat", "errors", "tool_events", "errors"]


def test_route_null_predicates_false_and_default():
    rules = [("a", [("eq", "status", "nope")])]
    out = RouteStage(rules, default_sink="dflt")(_batch())
    assert out["route"].to_pylist() == ["dflt"] * 4


def test_split_to_sink_partitions_rows():
    rules = [("errors", [("in", "status", ["err", "timeout"])])]
    routed = RouteStage(rules)(_batch())
    n = sum(split_to_sink(routed, s).num_rows for s in ("errors", "default"))
    assert n == routed.num_rows


# ---- property tests for the vectorized list<string> tag kernels ----

from hypothesis import given, settings
from hypothesis import strategies as st

_tags_strategy = st.lists(
    st.one_of(st.none(), st.lists(st.sampled_from(["a", "b", "c", ""]),
                                  max_size=4)),
    min_size=1, max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(_tags_strategy, st.data())
def test_append_tag_property(base_lists, data):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(base_lists),
                                       max_size=len(base_lists))))
    base = pa.array(base_lists, type=pa.list_(pa.string()))
    out = append_tag(base, _where(mask, "T")).to_pylist()
    exp = [(lst or []) + (["T"] if m else []) for lst, m in zip(base_lists, mask)]
    assert out == exp


@settings(max_examples=150, deadline=None)
@given(_tags_strategy.filter(lambda ls: all(x is not None for x in ls)))
def test_remove_has_tag_property(base_lists):
    base = pa.array(base_lists, type=pa.list_(pa.string()))
    assert remove_tag(base, "b").to_pylist() == [
        [x for x in lst if x != "b"] for lst in base_lists]
    assert has_tag(base, "b").tolist() == [("b" in lst) for lst in base_lists]


@settings(max_examples=50, deadline=None)
@given(_tags_strategy)
def test_append_tag_on_sliced_array(base_lists):
    # exercise the non-zero-offset buffer path (sliced list arrays)
    base = pa.array(base_lists + [["x"]], type=pa.list_(pa.string()))
    sliced = base.slice(0, len(base_lists))
    mask = np.ones(len(base_lists), dtype=bool)
    out = append_tag(sliced, _where(mask, "T")).to_pylist()
    exp = [(lst or []) + ["T"] for lst in base_lists]
    assert out == exp


def test_asof_join_backward(ray_session):
    """As-of join: each left row gets the latest right row at-or-before
    its time, per key; no-match left rows drop (inner semantics)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.asof import asof_join_backward

    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a", "a", "b", "c"]),
        "t": pa.array([10, 20, 5, 7, 9], type=pa.int64()),
        "payload": pa.array(["l1", "l2", "l0", "lb", "lc"]),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a", "b"]),
        "t": pa.array([8, 15, 99], type=pa.int64()),
        "state": pa.array(["s8", "s15", "s99"]),
    }))
    out = asof_join_backward(left, right, key="k", on="t",
                             right_values=["state"]).take_all()
    got = {(r["k"], r["t"]): (r["t_r"], r["state_r"]) for r in out}
    # a@10 -> right a@8; a@20 -> a@15; a@5 no match (drops);
    # b@7 before b@99 (drops); c has no right rows (drops)
    assert got == {("a", 10): (8, "s8"), ("a", 20): (15, "s15")}


def test_asof_join_null_timestamps_match_nothing(ray_session):
    """Regression (r2 advice): NULL join columns must produce NO match
    (SQL ASOF JOIN semantics) — previously a null left time became NaN,
    sorted as the largest value, and wrongly matched the latest right
    row; a null right time could be matched as t_r."""
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.asof import asof_join_backward

    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a", None]),
        "t": pa.array([10, None, 10], type=pa.int64()),
        "payload": pa.array(["ok", "null_t", "null_k"]),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a", "a"]),
        "t": pa.array([8, None, None], type=pa.int64()),
        "state": pa.array(["s8", "snull1", "snull2"]),
    }))
    out = asof_join_backward(left, right, key="k", on="t",
                             right_values=["state"]).take_all()
    got = {(r["payload"]): (r["t_r"], r["state_r"]) for r in out}
    # only the fully-non-null left row matches, and only the non-null
    # right row can be its match
    assert got == {"ok": (8, "s8")}


def test_asof_join_salted_matches_unsalted(ray_session):
    """The two-level salted as-of join must be exact: same matches as
    the single-group path, including left rows whose match lives many
    (possibly right-empty) chunks earlier, tied right times, and the
    hot-key-restricted mode."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.asof import asof_join_backward

    rng = np.random.default_rng(5)
    n_l, n_r = 400, 60
    lk = rng.choice(["a", "b", "hot"], size=n_l, p=[0.2, 0.2, 0.6])
    lt = rng.integers(0, 10_000, n_l, dtype=np.int64)
    rk = rng.choice(["a", "b", "hot"], size=n_r)
    # cluster right times low so many later chunks have no right rows,
    # and duplicate some times to exercise ties
    rt_ = rng.integers(0, 4_000, n_r, dtype=np.int64)
    rt_[10:20] = rt_[0:10]
    left = rd.from_arrow(pa.table({
        "k": pa.array(lk), "t": pa.array(lt),
        "lid": pa.array(np.arange(n_l), type=pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array(rk), "t": pa.array(rt_),
        "state": pa.array([f"s{i}" for i in range(n_r)])}))

    def collect(out):
        # compare matched TIME per left row (tie-safe, see tie semantics)
        return {r["lid"]: r["t_r"] for r in out.take_all()}

    base = collect(asof_join_backward(left, right, key="k", on="t",
                                      right_values=["state"]))
    assert 0 < len(base) < n_l  # some match, some drop — the test bites
    for kwargs in ({"salt_chunk": 500}, {"salt_chunk": 1},
                   {"salt_chunk": 500, "hot": {"hot"}}):
        got = collect(asof_join_backward(left, right, key="k", on="t",
                                         right_values=["state"], **kwargs))
        assert got == base, f"salted mismatch for {kwargs}"

    # FORWARD direction: pandas-reference check + salted mirror
    import pandas as pd

    fwd = collect(asof_join_backward(left, right, key="k", on="t",
                                     right_values=["state"],
                                     direction="forward"))
    ldf = pd.DataFrame({"k": lk, "t": lt, "lid": np.arange(n_l)}) \
        .sort_values("t", kind="stable")
    # carry the right time as a VALUE column so the matched time
    # survives merge_asof (the on-column keeps the left value)
    rdf = pd.DataFrame({"k": rk, "t": rt_, "rt": rt_}) \
        .sort_values("t", kind="stable")
    ref = pd.merge_asof(ldf, rdf, on="t", by="k", direction="forward")
    want = {int(r.lid): int(r.rt) for r in ref.itertuples()
            if not pd.isna(r.rt)}
    assert fwd == want
    for kwargs in ({"salt_chunk": 500}, {"salt_chunk": 1},
                   {"salt_chunk": 500, "hot": {"hot"}}):
        got = collect(asof_join_backward(left, right, key="k", on="t",
                                         right_values=["state"],
                                         direction="forward", **kwargs))
        assert got == fwd, f"forward salted mismatch for {kwargs}"


def test_range_join_buckets(ray_session):
    """Bucketed range join equals the brute-force containment join,
    including ranges spanning multiple buckets and empty buckets."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.rangejoin import range_join_buckets

    rng = np.random.default_rng(17)
    v = np.round(rng.uniform(0, 100, size=400), 3)
    points = rd.from_arrow(pa.table({
        "pid": pa.array(range(400), type=pa.int64()),
        "value": pa.array(v),
    }))
    lo = np.round(rng.uniform(0, 100, size=120), 3)
    width_each = rng.uniform(0.1, 7.0, size=120)  # some span many buckets
    hi = np.round(lo + width_each, 3)
    ranges = rd.from_arrow(pa.table({
        "range_id": pa.array(range(120), type=pa.int64()),
        "lo": pa.array(lo), "hi": pa.array(hi),
    }))
    out = range_join_buckets(points, ranges, value="value", lo="lo",
                             hi="hi", width=2.0, point_cols=["pid"],
                             range_cols=["range_id"]).take_all()
    got = sorted((int(r["pid"]), int(r["range_id"])) for r in out)
    exp = sorted((p, ri) for p in range(400) for ri in range(120)
                 if lo[ri] <= v[p] <= hi[ri])
    assert got == exp


def test_cogrouped_joins_preserve_int64_precision(ray_session):
    """Regression (r2 review): the null-padded tagged union must never
    pass through pandas — snowflake-style ids above 2^53 were float64-
    rounded and distinct ids collapsed."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.asof import asof_join_backward
    from go_logagent_ray.stages.rangejoin import range_join_buckets

    big = 2**60
    left = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a"]),
        "t": pa.array([10, 20], type=pa.int64()),
        "lid": pa.array([big + 1, big + 2], type=pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["a"]),
        "t": pa.array([8], type=pa.int64()),
        "rid": pa.array([big + 8], type=pa.int64()),
    }))
    out = asof_join_backward(left, right, key="k", on="t",
                             right_values=["rid"]).take_all()
    got = sorted((r["lid"], r["rid_r"]) for r in out)
    assert got == [(big + 1, big + 8), (big + 2, big + 8)]

    points = rd.from_arrow(pa.table({
        "pid": pa.array([big + 1, big + 2], type=pa.int64()),
        "value": pa.array([1.0, 5.0]),
    }))
    ranges = rd.from_arrow(pa.table({
        "range_id": pa.array([big + 6], type=pa.int64()),
        "lo": pa.array([0.0]), "hi": pa.array([2.0]),
    }))
    pairs = range_join_buckets(points, ranges, value="value", lo="lo",
                               hi="hi", width=1.0, point_cols=["pid"],
                               range_cols=["range_id"]).take_all()
    assert [(r["pid"], r["range_id"]) for r in pairs] == [(big + 1, big + 6)]


def test_multiline_join_semantics(ray_session):
    """Multiline codec: continuations join the closest preceding head,
    leading continuations form their own group 0, null text is a head,
    order is re-established per conversation."""
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.filters import multiline_join

    rows = [
        ("a", 2, " frame1"),    # continuation of head 1 (out of order)
        ("a", 1, "ERROR x"),
        ("a", 3, " frame2"),
        ("a", 4, "ERROR y"),
        ("b", 1, " orphan"),    # leading continuation -> group 0
        ("b", 2, "ERROR z"),
        ("c", 1, None),         # null text = its own head
    ]
    t = pa.table({
        "conv": pa.array([r[0] for r in rows]),
        "idx": pa.array([r[1] for r in rows], pa.int64()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    })
    out = multiline_join(rd.from_arrow(t).repartition(3), key="conv",
                         order="idx", text_field="text",
                         pattern="^ ").to_pandas()
    out = out.sort_values(["conv", "event_grp"]).reset_index(drop=True)
    got = [(r.conv, int(r.event_grp), int(r.event_idx), int(r.n_lines),
            r.text) for r in out.itertuples()]
    assert got == [
        ("a", 1, 1, 3, "ERROR x\n frame1\n frame2"),
        ("a", 2, 4, 1, "ERROR y"),
        ("b", 0, 1, 1, " orphan"),
        ("b", 1, 2, 1, "ERROR z"),
        ("c", 1, 1, 1, ""),   # str.join over a null line yields ''
    ]


def test_throttle_keeps_first_n_per_key(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from go_logagent_ray.stages.filters import throttle

    rows = [("u1", 0, 5), ("u1", 0, 1), ("u1", 0, 3), ("u1", 0, 4),
            ("u1", 1, 9), ("u2", 0, 7), ("u2", 0, None), (None, 0, 2)]
    t = pa.table({
        "user": pa.array([r[0] for r in rows]),
        "bucket": pa.array([r[1] for r in rows], pa.int64()),
        "eid": pa.array([r[2] for r in rows], pa.int64()),
    })
    out = throttle(rd.from_arrow(t).repartition(3),
                   key_cols=["user", "bucket"], order="eid",
                   max_per_key=2).to_pandas()
    got = sorted((r.user, int(r.bucket), int(r.eid))
                 for r in out.itertuples())
    # first 2 by eid per (user,bucket); null key/order rows dropped
    assert got == [("u1", 0, 1), ("u1", 0, 3), ("u1", 1, 9),
                   ("u2", 0, 7)]
