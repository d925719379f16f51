"""CLI (EP1 analog) and source-module tests."""

import json

import pytest


def test_cli_gen_and_flagship(ray_session, tmp_path, capsys):
    """``flagship`` prints the oracle's per-route row totals."""
    import pyarrow.parquet as pq

    from go_logagent_ray.cli import main
    from go_logagent_ray.oracle import run_oracle

    src = str(tmp_path / "t.parquet")
    assert main(["gen", "--out", src, "--convs", "50"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["status"] == "ok"

    sink = str(tmp_path / "sinks")
    assert main(["flagship", "--input", src, "--out", sink]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["status"] == "ok"
    want: dict = {}
    for (route, *_), n in run_oracle(pq.read_table(src))["sink_counts"].items():
        want[route] = want.get(route, 0) + n
    assert out["counts"] == want


def test_cli_run_config(ray_session, tmp_path, capsys, transcripts_parquet):
    from go_logagent_ray.cli import main
    from go_logagent_ray.oracle import GROK_PATTERNS

    conf = {
        "input": {"type": "parquet", "paths": [transcripts_parquet]},
        "filters": [
            {"type": "grok", "patterns": GROK_PATTERNS},
            {"type": "route", "rules": [
                ["errors", [["in", "status", ["err", "timeout"]]]]]},
        ],
        "outputs": [{"type": "parquet", "path": str(tmp_path / "o"),
                     "partition_cols": ["route"]}],
    }
    cpath = tmp_path / "conf.json"
    cpath.write_text(json.dumps(conf))
    assert main(["run", "--config", str(cpath)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["status"] == "ok" and out["rows"] > 0


def test_cli_checkpoint_mode(ray_session, tmp_path, capsys, transcripts_parquet):
    from go_logagent_ray.cli import main

    sink = str(tmp_path / "ck")
    assert main(["flagship", "--input", transcripts_parquet, "--out", sink,
                 "--checkpoint", "--rows-per-partition", "200"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["committed"] > 0
    # rerun resumes: nothing recomputed
    assert main(["flagship", "--input", transcripts_parquet, "--out", sink,
                 "--checkpoint", "--rows-per-partition", "200"]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["committed"] == 0 and out2["skipped"] == out["committed"]
    assert out2["counts"] == out["counts"]


def test_sources(ray_session, transcripts_parquet):
    from go_logagent_ray.sources.parquet import from_lines, read_transcripts

    ds = read_transcripts(transcripts_parquet, columns=["conv_id", "text"])
    assert set(ds.schema().names) == {"conv_id", "text"}
    ds2 = from_lines(["a", "b"])
    assert ds2.count() == 2


def test_read_transcripts_one_block_per_cpu(ray_session, transcripts_parquet):
    """The read is planned at one block per CPU slot of the session (4
    here); Ray's own autodetect splits even this small file into 2 blocks
    per CPU."""
    from go_logagent_ray.sources.parquet import read_transcripts

    ds = read_transcripts(transcripts_parquet).materialize()
    assert ds.num_blocks() <= int(ray_session.cluster_resources()["CPU"])


@pytest.mark.parametrize("n_files", [3, 6])
def test_read_transcripts_multi_file_sinks_match_oracle(
        ray_session, transcripts_small, oracle_result, tmp_path, n_files):
    """Fewer files than CPUs (Ray splits them) and more files than CPUs
    (Ray merges them into fewer read tasks) both write every sink row
    once: per-sink rows equal the oracle."""
    import os

    import pyarrow.parquet as pq

    from go_logagent_ray.oracle import SINKS
    from go_logagent_ray.pipelines.transcript import (
        parse_enrich_route, write_sinks)
    from go_logagent_ray.sources.parquet import read_transcripts

    src = tmp_path / "src"
    src.mkdir()
    n = transcripts_small.num_rows
    cuts = [i * n // n_files for i in range(n_files + 1)]
    for i in range(n_files):
        pq.write_table(transcripts_small.slice(cuts[i], cuts[i + 1] - cuts[i]),
                       str(src / f"part-{i}.parquet"), row_group_size=64)

    # files >= CPUs: Ray merges files into one read task per CPU; fewer
    # files: each file's read task splits into ceil(CPUs / files) blocks
    cpus = int(ray_session.cluster_resources()["CPU"])
    bound = cpus if n_files >= cpus else n_files * -(-cpus // n_files)
    ds = read_transcripts(str(src))
    assert ds.materialize().num_blocks() <= bound
    out = str(tmp_path / "sinks")
    write_sinks(parse_enrich_route(ds), out)
    for sink in SINKS:
        d = os.path.join(out, f"route={sink}")
        got = pq.read_table(d).num_rows if os.path.isdir(d) else 0
        assert got == len(oracle_result["sinks"][sink]), sink


def test_tcp_line_source_feeds_filter_chain(ray_session):
    """S3 (tcp input): lines pushed over a localhost socket surface as
    Arrow micro-batches and run through the same grok chain as any other
    source; trailing unterminated lines flush on disconnect."""
    import socket

    import ray.data as rd

    from go_logagent_ray.sources.socketline import TcpLineSource
    from go_logagent_ray.stages.grok import GrokParser

    src = TcpLineSource()
    try:
        with socket.create_connection((src.host, src.port), timeout=5) as c:
            c.sendall(b"INFO boot id=1\nERROR crash id=2\n")
        with socket.create_connection((src.host, src.port), timeout=5) as c:
            c.sendall(b"WARN disk id=3")  # no trailing newline
        got = []
        for _ in range(20):
            t = src.poll_batch(timeout_s=0.5)
            if t is not None:
                got.append(t)
            if sum(x.num_rows for x in got) >= 3:
                break
        import pyarrow as pa

        table = pa.concat_tables(got)
        assert table.num_rows == 3
        ds = rd.from_arrow(table)
        out = ds.map_batches(
            GrokParser("%{LOGLEVEL:level} %{WORD:msg} id=%{INT:id:int}"),
            batch_format="pyarrow").take_all()
        assert sorted((r["level"], r["id"]) for r in out) == [
            ("ERROR", 2), ("INFO", 1), ("WARN", 3)]
    finally:
        src.close()


def test_stdout_sink_prints_rows(ray_session, capsys):
    """R2 debug sink: an output of type 'stdout' shows rows on stdout
    (the go-logagent stdout output plugin analog)."""
    from go_logagent_ray.config import Pipeline

    conf = {
        "input": {"type": "items",
                  "items": [{"conv_id": "c1", "text": "hello"},
                            {"conv_id": "c2", "text": "world"}]},
        "filters": [],
        "outputs": [{"type": "stdout", "limit": 5}],
    }
    Pipeline.from_config(conf).run()
    printed = capsys.readouterr().out
    assert "c1" in printed and "hello" in printed
    assert "c2" in printed and "world" in printed
