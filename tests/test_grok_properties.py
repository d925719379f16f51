"""Property-based tests: the vectorized Arrow grok path must agree with
plain Python ``re`` on arbitrary inputs (hypothesis)."""

import re

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from go_logagent_ray.functions.grok import compile_grok
from go_logagent_ray.stages.grok import GrokParser

PATTERN = "%{LOGLEVEL:lvl} %{WORD:comp} latency_ms=%{INT:ms:int} status=%{WORD:st}"
_RX = re.compile(compile_grok(PATTERN).regex)

text_strategy = st.one_of(
    st.none(),
    st.text(max_size=80),
    # structured lines that often match
    st.builds(
        lambda lvl, comp, ms, stt, suffix: f"{lvl} {comp} latency_ms={ms} status={stt}{suffix}",
        st.sampled_from(["DEBUG", "INFO", "WARN", "ERROR", "info", "bogus"]),
        st.from_regex(r"[A-Za-z_]{1,8}", fullmatch=True),
        st.integers(min_value=-10, max_value=99999),
        st.from_regex(r"[a-z]{1,6}", fullmatch=True),
        st.sampled_from(["", " :: tail", "x"]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(text_strategy, min_size=1, max_size=30))
def test_grok_matches_python_re(texts):
    parser = GrokParser(PATTERN)
    out = parser(pa.table({"text": pa.array(texts, type=pa.string())}))
    for i, t in enumerate(texts):
        m = _RX.search(t) if t is not None else None
        if m:
            assert out["lvl"][i].as_py() == m.group("lvl")
            assert out["comp"][i].as_py() == m.group("comp")
            assert out["ms"][i].as_py() == int(m.group("ms"))
            assert out["st"][i].as_py() == m.group("st")
            assert out["tags"][i].as_py() == []
        else:
            assert out["lvl"][i].as_py() is None
            assert out["tags"][i].as_py() == ["_grokparsefailure"]
        # text byte-identical incl. null
        assert out["text"][i].as_py() == t


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=40)),
                min_size=1, max_size=20))
def test_multi_pattern_first_match_wins_property(texts):
    patterns = ["a=%{INT:a:int}", "%{INT:b:int}"]
    parser = GrokParser(patterns)
    rx1 = re.compile(compile_grok(patterns[0]).regex)
    rx2 = re.compile(compile_grok(patterns[1]).regex)
    out = parser(pa.table({"text": pa.array(texts, type=pa.string())}))
    for i, t in enumerate(texts):
        m1 = rx1.search(t) if t is not None else None
        m2 = rx2.search(t) if t is not None else None
        if m1:
            assert out["a"][i].as_py() == int(m1.group("a"))
            assert out["b"][i].as_py() is None
        elif m2:
            assert out["a"][i].as_py() is None
            assert out["b"][i].as_py() == int(m2.group("b"))
        else:
            assert out["tags"][i].as_py() == ["_grokparsefailure"]


_FIELD_TEXT = st.one_of(
    st.none(),
    st.text(alphabet="xy =0123abc-+", max_size=16),
    st.builds(lambda k, v: f"{k} {v}", st.sampled_from(["x", "y", "z"]),
              st.from_regex(r"[+-]?[0-9a-c]{1,4}(=[0-9a-c]{1,3})?",
                            fullmatch=True)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT), min_size=0, max_size=20))
def test_multi_field_shared_capture_property(rows):
    """Two fields × two patterns that share the capture ``v``: each row
    takes its captures from the first (field, pattern) attempt, in
    field-major order, whose regex finds a match."""
    patterns = ["x %{INT:v}", "y %{WORD:w}=%{WORD:v}"]
    parser = GrokParser(patterns, field=["a", "b"])
    cgs = [compile_grok(p) for p in patterns]
    rxs = [re.compile(cg.regex) for cg in cgs]
    out = parser(pa.table({
        "a": pa.array([a for a, _ in rows], type=pa.string()),
        "b": pa.array([b for _, b in rows], type=pa.string()),
    }))
    for i, row in enumerate(rows):
        want = {"v": None, "w": None}
        tags = ["_grokparsefailure"]
        hits = ((cg, rx.search(t)) for t in row for cg, rx in zip(cgs, rxs)
                if t is not None)
        for cg, m in hits:
            if m:
                want.update({k: m.group(k) for k in cg.captures})
                tags = []
                break
        assert {k: out[k][i].as_py() for k in want} == want
        assert out["tags"][i].as_py() == tags
        assert (out["a"][i].as_py(), out["b"][i].as_py()) == row
