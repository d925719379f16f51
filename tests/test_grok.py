"""Unit tests for the grok compiler and parse stage (SURVEY.md §5.2.3 —
mirrors the reference's per-plugin table tests, ref: filter/grok/*_test.go
[U-arch])."""

import pyarrow as pa
import pytest

from go_logagent_ray.functions.grok import BASE_PATTERNS, compile_grok
from go_logagent_ray.stages.grok import GrokParser


def test_compile_simple():
    cg = compile_grok("%{INT:n}")
    assert cg.captures == ["n"]
    assert cg.regex == r"(?P<n>[+-]?(?:[0-9]+))"


def test_compile_nested_and_cast():
    cg = compile_grok("%{LOGLEVEL:lvl} x=%{INT:x:int}")
    assert cg.captures == ["lvl", "x"]
    assert cg.casts == {"x": "int"}


def test_compile_unknown_pattern():
    with pytest.raises(KeyError):
        compile_grok("%{NOPE:x}")


def test_compile_duplicate_capture():
    with pytest.raises(ValueError):
        compile_grok("%{INT:x} %{INT:x}")


def test_compile_extra_patterns():
    cg = compile_grok("%{HEXPAIR:h}", extra_patterns={"HEXPAIR": "[0-9a-f]{2}"})
    assert "[0-9a-f]{2}" in cg.regex


def _table(texts):
    return pa.table({"text": pa.array(texts, type=pa.string())})


def test_grok_match_and_capture():
    p = GrokParser("%{LOGLEVEL:lvl} %{WORD:comp} latency_ms=%{INT:ms:int}")
    out = p(_table(["INFO worker latency_ms=42", "garbage line"]))
    assert out["lvl"].to_pylist() == ["INFO", None]
    assert out["comp"].to_pylist() == ["worker", None]
    assert out["ms"].to_pylist() == [42, None]
    assert out["ms"].type == pa.int64()
    assert out["tags"].to_pylist() == [[], ["_grokparsefailure"]]


def test_grok_null_and_empty_text():
    p = GrokParser("%{WORD:w}")
    out = p(_table([None, "", "ok"]))
    assert out["w"].to_pylist() == [None, None, "ok"]
    assert out["tags"].to_pylist() == [
        ["_grokparsefailure"],
        ["_grokparsefailure"],
        [],
    ]
    # text passes through byte-identical incl. null vs ""
    assert out["text"].to_pylist() == [None, "", "ok"]


def test_grok_first_match_wins():
    p = GrokParser(["a=%{INT:a:int}", "%{INT:b:int}"])
    out = p(_table(["a=1", "7", "zzz"]))
    assert out["a"].to_pylist() == [1, None, None]
    assert out["b"].to_pylist() == [None, 7, None]
    assert out["tags"].to_pylist() == [[], [], ["_grokparsefailure"]]


def test_grok_shared_capture_coalesce():
    p = GrokParser(["x %{INT:v}", "y %{WORD:v}"])
    out = p(_table(["x 5", "y abc"]))
    assert out["v"].to_pylist() == ["5", "abc"]


def test_grok_shared_capture_cast_conflict_raises():
    """One capture, one column: patterns that cast it differently fail at
    build time (no cast counts as ``string``), not on the first row of the
    other pattern."""
    with pytest.raises(ValueError, match="'v'"):
        GrokParser(["x %{INT:v:int}", "y %{WORD:v}"])
    with pytest.raises(ValueError, match="'v'"):
        GrokParser(["x %{INT:v:int}", "y %{NUMBER:v:float}"])


def test_grok_shared_capture_agreeing_casts():
    p = GrokParser(["x %{INT:v:int}", "y %{INT:v:int}"])
    out = p(_table(["x 5", "y 7", "z"]))
    assert out["v"].to_pylist() == [5, 7, None]
    out = GrokParser(["x %{INT:v}", "y %{WORD:v:string}"])(_table(["x 5", "y abc"]))
    assert out["v"].to_pylist() == ["5", "abc"]


def test_grok_appends_to_existing_tags():
    p1 = GrokParser("a=%{INT:a}", tag_on_failure="fail_a")
    p2 = GrokParser("b=%{INT:b}", tag_on_failure="fail_b")
    out = p2(p1(_table(["a=1", "b=2", "c=3"])))
    assert out["tags"].to_pylist() == [["fail_b"], ["fail_a"], ["fail_a", "fail_b"]]


def test_base_patterns_all_compile():
    for name in BASE_PATTERNS:
        compile_grok(f"%{{{name}:x}}")


def test_grok_quantifier_next_to_literal():
    """A quantifier right after a literal run makes its last char
    optional: both spellings match."""
    p = GrokParser(["%{INT:n} colou?r"])
    out = p(_table(["5 color", "6 colour", "zzz"]))
    assert out["n"].to_pylist() == ["5", "6", None]
    assert out["tags"].to_pylist() == [[], [], ["_grokparsefailure"]]


def test_grok_character_class_after_literal():
    """Text inside [...] is a set of alternatives, not a literal:
    '7 id=AB12x' matches 'id=[A-Z0-9]+x'."""
    p = GrokParser(["%{INT:n} id=[A-Z0-9]+x"])
    out = p(_table(["7 id=AB12x", "nope"]))
    assert out["n"].to_pylist() == ["7", None]
    assert out["tags"].to_pylist() == [[], ["_grokparsefailure"]]


def test_grok_zero_row_batch():
    """An empty batch keeps the capture columns' types."""
    p = GrokParser(["a=%{INT:a:int}", "b=%{WORD:b}"])
    out = p(_table([]))
    assert out.num_rows == 0
    assert out.schema.field("a").type == pa.int64()
    assert out.schema.field("b").type == pa.string()
    assert out["tags"].to_pylist() == []


def test_grok_all_miss_batch():
    """No row matches either pattern: every capture is null and every row
    is tagged."""
    p = GrokParser(["a=%{INT:a:int}", "b=%{WORD:b}"])
    out = p(_table(["zzz", None, "", "a=x"]))
    assert out["a"].to_pylist() == [None] * 4
    assert out["a"].type == pa.int64()
    assert out["b"].to_pylist() == [None] * 4
    assert out["tags"].to_pylist() == [["_grokparsefailure"]] * 4


def test_pattern_file_loading(tmp_path):
    from go_logagent_ray.functions.grok import (
        load_pattern_file, load_patterns_dir)

    f1 = tmp_path / "a.grok"
    f1.write_text("# comment\nFOO ab+c\n\nBAR %{FOO}-%{INT}\n")
    f2 = tmp_path / "b.grok"
    f2.write_text("FOO xyz\n")
    assert load_pattern_file(str(f1)) == {"FOO": "ab+c", "BAR": "%{FOO}-%{INT}"}
    # dir merge: later (sorted) files override
    assert load_patterns_dir(str(tmp_path))["FOO"] == "xyz"

    p = GrokParser(["%{BAR:x}"], patterns_path=str(f1))
    out = p(_table(["zz abbc-42 zz", "nope"]))
    assert out["x"].to_pylist() == ["abbc-42", None]


def test_apache_combined_pattern():
    p = GrokParser(["%{COMBINEDAPACHELOG}"])
    line = ('10.0.8.1 - frank [10/Oct/2000:13:55:36 -0700] '
            '"GET /page/42 HTTP/1.0" 200 2326 "http://ref.example" "UA/1.0"')
    out = p(_table([line]))
    assert out["clientip"].to_pylist() == ["10.0.8.1"]
    assert out["verb"].to_pylist() == ["GET"]
    assert out["request"].to_pylist() == ["/page/42"]
    assert out["response"].to_pylist() == ["200"]
    assert out["referrer"].to_pylist() == ['"http://ref.example"']


def test_multifield_break_on_match():
    """Field-major first-match-wins across source fields: rows failing on
    field a fall through to field b; matched rows never re-match."""
    t = pa.table({
        "a": pa.array(["k=1", "zzz", None]),
        "b": pa.array(["k=9", "k=7", "k=5"]),
    })
    p = GrokParser(["k=%{INT:k:int}"], field=["a", "b"])
    out = p(t)
    assert out["k"].to_pylist() == [1, 7, 5]
    assert out["tags"].to_pylist() == [[], [], []]

    # no field matches -> failure tag
    t2 = pa.table({"a": pa.array(["x"]), "b": pa.array(["y"])})
    out2 = GrokParser(["k=%{INT:k:int}"], field=["a", "b"])(t2)
    assert out2["k"].to_pylist() == [None]
    assert out2["tags"].to_pylist() == [["_grokparsefailure"]]


def test_pattern_file_tab_separated(tmp_path):
    """Regression (r2 review): tab-separated pattern files load too."""
    from go_logagent_ray.functions.grok import load_pattern_file

    f = tmp_path / "tabs.grok"
    f.write_text("FOO\tab+c\nBAR \t %{FOO}x\n")
    assert load_pattern_file(str(f)) == {"FOO": "ab+c", "BAR": "%{FOO}x"}
