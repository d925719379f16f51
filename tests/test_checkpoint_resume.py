"""Checkpoint/resume tests (SURVEY.md §5.2.4): kill after K of P
partitions commit; rerun; committed partitions are NOT re-parsed
(manifest mtimes unchanged) and final sinks + counts equal a clean run."""

import glob
import os

import pyarrow.parquet as pq
import pytest

from go_logagent_ray.state.checkpoint import (
    Fragment,
    committed_partitions,
    config_hash,
    list_fragments,
    plan_partitions,
    run_checkpointed,
)


def _transform(ds):
    from go_logagent_ray.pipelines.transcript import parse_enrich_route

    return parse_enrich_route(ds, batch_size=128)


SPEC = {"pipeline": "flagship", "v": 1}


def test_fragment_planning_deterministic(transcripts_parquet):
    frags = list_fragments([transcripts_parquet], rgs_per_fragment=2)
    assert frags == list_fragments([transcripts_parquet], rgs_per_fragment=2)
    assert sum(f.rows for f in frags) == pq.ParquetFile(transcripts_parquet).metadata.num_rows
    parts = plan_partitions(frags, rows_per_partition=128)
    assert [f for p in parts for f in p] == frags  # order-preserving cover


def test_partial_run_then_resume(ray_session, transcripts_parquet, tmp_path, oracle_result):
    out = str(tmp_path / "ckpt")
    # phase 1: "killed" after 2 partitions
    r1 = run_checkpointed(
        [transcripts_parquet], out, _transform, SPEC,
        rows_per_partition=128, rgs_per_fragment=1, max_partitions=2,
    )
    assert r1["committed"] == 2 and r1["remaining"] > 0
    mtimes = {
        p: os.path.getmtime(p) for p in glob.glob(os.path.join(out, "_manifest", "*.json"))
    }
    assert len(mtimes) == 2

    # phase 2: resume to completion
    r2 = run_checkpointed(
        [transcripts_parquet], out, _transform, SPEC,
        rows_per_partition=128, rgs_per_fragment=1,
    )
    assert r2["skipped"] == 2 and r2["remaining"] == 0
    # committed partitions were not re-parsed: their manifests untouched
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t

    # final sinks equal the oracle exactly
    expected = {s: len(rows) for s, rows in oracle_result["sinks"].items() if rows}
    got: dict[str, int] = {}
    for sink_dir in glob.glob(os.path.join(out, "*")):
        sink = os.path.basename(sink_dir)
        if sink.startswith("_") or sink.startswith("."):
            continue
        n = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in glob.glob(os.path.join(sink_dir, "part-*", "*.parquet"))
        )
        got[sink] = n
    assert got == expected
    assert dict(r2["total_counts"]) == expected


def test_config_change_invalidates_commits(ray_session, transcripts_parquet, tmp_path):
    out = str(tmp_path / "ckpt2")
    run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                     rows_per_partition=256, max_partitions=1)
    other = {"pipeline": "flagship", "v": 2}
    assert committed_partitions(out, config_hash(SPEC))
    assert not committed_partitions(out, config_hash(other))


def test_leftover_staging_is_cleaned(ray_session, transcripts_parquet, tmp_path):
    out = str(tmp_path / "ckpt3")
    os.makedirs(os.path.join(out, ".tmp-part-0", "route=chat"), exist_ok=True)
    r = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                         rows_per_partition=10_000)
    assert r["committed"] >= 1
    assert not glob.glob(os.path.join(out, ".tmp-*"))


def test_killed_wave_leftovers_past_plan_are_cleaned(
        ray_session, transcripts_parquet, tmp_path):
    """A kill can leave a wave's staging dir and a half-written manifest;
    the up-front cleanup removes both, also for pids past a smaller plan."""
    out = str(tmp_path / "ck_leftovers")
    os.makedirs(os.path.join(out, ".tmp-part-3", "route=chat"))
    os.makedirs(os.path.join(out, "_manifest"))
    for pid in (0, 3):
        with open(os.path.join(out, "_manifest", f"part-{pid}.json.tmp"), "w") as f:
            f.write('{"part_id": ')
    r = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                         rows_per_partition=10**9)
    assert r["committed"] == 1 and r["remaining"] == 0
    assert not glob.glob(os.path.join(out, ".tmp-*"))
    assert os.listdir(os.path.join(out, "_manifest")) == ["part-0.json"]
    _assert_manifests_match_files(out)


def _sorted_copies(src: str, tmp_path) -> tuple[str, str]:
    """Two copies of ``src`` in one directory; the first sorts first, so
    adding it to a run of the second shifts every partition id."""
    import shutil

    d = tmp_path / "inputs"
    d.mkdir()
    first, second = str(d / "a.parquet"), str(d / "b.parquet")
    shutil.copy(src, first)
    shutil.copy(src, second)
    return first, second


def test_changed_input_set_invalidates_stale_partitions(
        ray_session, transcripts_parquet, tmp_path):
    """Regression: adding an input file reshuffles partition ids; a
    config-hash-only match would skip the WRONG data silently."""
    first, second = _sorted_copies(transcripts_parquet, tmp_path)
    out = str(tmp_path / "ck_changed")

    r1 = run_checkpointed([second], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    n1 = sum(r1["total_counts"].values())

    # resubmit with an additional file: previously committed pids now map
    # to different fragments and must be recomputed, not skipped
    r2 = run_checkpointed([first, second], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    assert r2["skipped"] == 0
    assert sum(r2["total_counts"].values()) == 2 * n1
    assert r2["remaining"] == 0


def _drop_all_rows(ds):
    from go_logagent_ray.pipelines.transcript import parse_enrich_route

    return parse_enrich_route(ds, batch_size=128).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow")


def test_empty_wave_commits_empty_manifest(ray_session, transcripts_parquet, tmp_path):
    """A partition whose transform output has no rows still commits, with
    empty counts, and a rerun skips it."""
    out = str(tmp_path / "ck_empty")
    r1 = run_checkpointed([transcripts_parquet], out, _drop_all_rows, SPEC,
                          rows_per_partition=10_000)
    assert r1["committed"] == 1 and r1["remaining"] == 0
    assert [m["counts"] for m in r1["manifests"]] == [{}]
    assert not r1["total_counts"]
    assert not glob.glob(os.path.join(out, ".tmp-*"))
    r2 = run_checkpointed([transcripts_parquet], out, _drop_all_rows, SPEC,
                          rows_per_partition=10_000)
    assert r2["skipped"] == 1 and r2["committed"] == 0


def _file_rows(out: str) -> dict[tuple[str, int], int]:
    """(sink, part id) -> rows in ``<sink>/part-<pid>/*.parquet``."""
    rows: dict[tuple[str, int], int] = {}
    for f in glob.glob(os.path.join(out, "*", "part-*", "*.parquet")):
        part_dir = os.path.dirname(f)
        key = (os.path.basename(os.path.dirname(part_dir)),
               int(os.path.basename(part_dir)[len("part-"):]))
        rows[key] = rows.get(key, 0) + pq.ParquetFile(f).metadata.num_rows
    return rows


def _assert_manifests_match_files(out: str, spec=SPEC) -> dict[int, dict]:
    manifests = committed_partitions(out, config_hash(spec))
    want = {(sink, pid): n for pid, m in manifests.items()
            for sink, n in m["counts"].items()}
    assert _file_rows(out) == want
    return manifests


def test_manifests_match_sink_files(ray_session, transcripts_parquet, tmp_path):
    """Manifest counts and schema hash describe the committed files."""
    import hashlib

    out = str(tmp_path / "ck_files")
    r = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                         rows_per_partition=128, rgs_per_fragment=1)
    manifests = _assert_manifests_match_files(out)
    assert len(manifests) == r["committed"] > 1
    for pid, m in manifests.items():
        files = glob.glob(os.path.join(out, "*", f"part-{pid}", "*.parquet"))
        assert files
        for f in files:
            schema = pq.read_schema(f)
            assert "route" not in schema.names
            assert m["schema_hash"] == hashlib.sha256(
                schema.to_string().encode()).hexdigest()[:16]


def test_failure_mid_call_commits_earlier_partitions(
        ray_session, transcripts_parquet, tmp_path, oracle_result):
    """The transform fails on the batch holding partition k's first row:
    the call raises, partitions before k are committed and k is not, and a
    resume skips the committed ones and ends equal to the oracle."""
    import pyarrow.compute as pc

    k = 2
    parts = plan_partitions(list_fragments([transcripts_parquet], 1), 128)
    assert len(parts) > k
    first = parts[k][0]
    row = pq.ParquetFile(first.file).read_row_group(first.rg_start).slice(0, 1)
    conv_id, turn_idx = row["conv_id"][0].as_py(), row["turn_idx"][0].as_py()

    def fail_on_k(batch):
        hit = pc.and_(pc.equal(batch["conv_id"], conv_id),
                      pc.equal(batch["turn_idx"], turn_idx))
        if pc.any(hit).as_py():
            raise RuntimeError("injected failure")
        return batch

    def failing(ds):
        return _transform(ds).map_batches(fail_on_k, batch_format="pyarrow")

    out = str(tmp_path / "ck_fail")
    with pytest.raises(Exception, match="injected failure"):
        run_checkpointed([transcripts_parquet], out, failing, SPEC,
                         rows_per_partition=128, rgs_per_fragment=1)
    manifests = _assert_manifests_match_files(out)
    assert set(range(k)) <= set(manifests) and k not in manifests
    mtimes = {p: os.path.getmtime(p)
              for p in glob.glob(os.path.join(out, "_manifest", "*.json"))}

    r = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                         rows_per_partition=128, rgs_per_fragment=1)
    assert r["skipped"] == len(manifests) and r["remaining"] == 0
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t
    _assert_manifests_match_files(out)
    expected = {s: len(rows) for s, rows in oracle_result["sinks"].items() if rows}
    assert dict(r["total_counts"]) == expected
    got: dict[str, int] = {}
    for (sink, _pid), n in _file_rows(out).items():
        got[sink] = got.get(sink, 0) + n
    assert got == expected


def test_waves_in_flight_bounded(ray_session, transcripts_parquet, tmp_path,
                                 monkeypatch):
    """At most ``_WAVES_IN_FLIGHT`` waves run at once, ``transform`` is
    called in partition order, and after a failure no new wave starts
    while the waves already in flight finish."""
    import threading
    from concurrent.futures import ThreadPoolExecutor, wait

    from go_logagent_ray.state import checkpoint

    slots = checkpoint._WAVES_IN_FLIGHT
    lock = threading.Lock()
    state = {}

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            fut = super().submit(*args, **kwargs)
            state["futures"].append(fut)
            return fut

    def fake_wave(pid, part, routed, out_dir, cfg):
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        if pid < slots:
            state["barrier"].wait()  # the first waves are in flight together
        fail_pid = state["fail_pid"]
        if fail_pid is not None and pid != fail_pid:
            wait([state["futures"][fail_pid]])  # the failing wave ends first
        with lock:
            state["active"] -= 1
            state["ran"].append(pid)
        if pid == fail_pid:
            raise RuntimeError("wave failed")
        return {"part_id": pid, "counts": {}}

    def transform(ds):
        state["called"].append(len(state["called"]))
        return ds

    def run(name, fail_pid=None):
        state.update(active=0, peak=0, ran=[], called=[], futures=[],
                     fail_pid=fail_pid,
                     barrier=threading.Barrier(slots, timeout=60))
        return run_checkpointed([transcripts_parquet], str(tmp_path / name),
                                transform, SPEC, rows_per_partition=32,
                                rgs_per_fragment=1)

    monkeypatch.setattr(checkpoint, "_run_wave", fake_wave)
    monkeypatch.setattr(checkpoint, "ThreadPoolExecutor", RecordingPool)
    n_parts = len(plan_partitions(list_fragments([transcripts_parquet], 1), 32))
    assert n_parts > 2 * slots

    r = run("a")
    assert r["committed"] == n_parts and state["peak"] == slots
    assert state["called"] == list(range(n_parts))

    with pytest.raises(RuntimeError, match="wave failed"):
        run("b", fail_pid=0)
    assert sorted(state["ran"]) == list(range(slots))
    assert state["called"] == list(range(slots))


def test_wave_is_one_task_and_one_batch(ray_session, tmp_path):
    """A wave of many fragments, more rows than a 16k batch, starts from
    one spec block and runs as one task, and a stage after the default
    chain is called once with all the wave's rows. One spec block per
    fragment would split the wave into a task (and a file per sink) per
    fragment."""
    from go_logagent_ray.fixtures import gen_transcripts
    from go_logagent_ray.pipelines.transcript import parse_enrich_route

    src = str(tmp_path / "wave.parquet")
    pq.write_table(gen_transcripts(1250, 8, seed=7), src, row_group_size=2048)
    log = str(tmp_path / "probe.log")

    def probe(batch):
        with open(log, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return batch

    routed = []

    def transform(ds):
        routed.append(parse_enrich_route(ds).map_batches(
            probe, batch_format="pyarrow"))
        return routed[-1]

    r = run_checkpointed([src], str(tmp_path / "out"), transform, SPEC,
                         rows_per_partition=10**6, rgs_per_fragment=1)
    (m,) = r["manifests"]
    assert len(m["fragments"]) >= 4 and m["rows_in"] > 16 * 1024
    with open(log) as f:
        assert [int(n) for n in f.read().split()] == [m["rows_in"]]
    (ds,) = routed
    assert ds._plan.initial_num_blocks() == 1
    summary, tasks = [ds._write_ds._get_stats_summary()], {}
    while summary:
        s = summary.pop()
        summary.extend(s.parents)
        tasks.update((o.operator_name, o.task_rows["count"])
                     for o in s.operators_stats)
    (chain,) = [name for name in tasks if name.endswith("->Write")]
    assert chain.startswith("MapBatches(_read_fragments_batch)->")
    assert tasks[chain] == 1


def _route_some_extra(ds):
    """``_transform`` with every first turn routed to an ``extra`` sink."""
    import pyarrow.compute as pc

    def reroute(batch):
        route = pc.if_else(pc.equal(batch["turn_idx"], 0), "extra",
                           batch["route"])
        return batch.set_column(batch.schema.get_field_index("route"),
                                "route", route)

    return _transform(ds).map_batches(reroute, batch_format="pyarrow")


def test_recomputed_partition_drops_sink_it_no_longer_writes(
        ray_session, transcripts_parquet, tmp_path):
    """A partition recomputed for a lineage mismatch removes its old
    ``part-<pid>`` under a sink the new wave does not write, so the files
    match the new manifests."""
    import shutil

    first, second = _sorted_copies(transcripts_parquet, tmp_path)
    out = str(tmp_path / "ck_stale_sink")

    r1 = run_checkpointed([second], out, _route_some_extra, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    assert r1["total_counts"]["extra"] > 0
    assert glob.glob(os.path.join(out, "extra", "part-*", "*.parquet"))

    # every old pid now maps to fragments of ``first``: all are recomputed
    r2 = run_checkpointed([first, second], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    assert r2["skipped"] == 0 and r2["remaining"] == 0
    assert "extra" not in r2["total_counts"]
    assert not glob.glob(os.path.join(out, "extra", "part-*", "*.parquet"))
    _assert_manifests_match_files(out)


def test_smaller_plan_drops_partitions_past_it(
        ray_session, transcripts_parquet, tmp_path):
    """A rerun whose plan has fewer partitions deletes the manifests and
    sink data of the pids past it, so no row sits in the sinks twice."""
    out = str(tmp_path / "ck_shrunk")
    r1 = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                          rows_per_partition=300, rgs_per_fragment=1)
    assert r1["committed"] == 5
    r2 = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                          rows_per_partition=10**9, rgs_per_fragment=1)
    assert r2["committed"] == 1 and r2["remaining"] == 0
    assert os.listdir(os.path.join(out, "_manifest")) == ["part-0.json"]
    rows_in = pq.ParquetFile(transcripts_parquet).metadata.num_rows
    assert sum(_file_rows(out).values()) == rows_in
    assert sum(r2["total_counts"].values()) == rows_in
    _assert_manifests_match_files(out)


def test_config_change_with_cut_drops_old_config_data(
        ray_session, transcripts_parquet, tmp_path):
    """A call under a new config, cut short by ``max_partitions``, drops
    every old-config partition, not only the ones it recomputes: the sink
    files equal the current config's manifests."""
    out = str(tmp_path / "ck_cfg_cut")
    r1 = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    assert r1["committed"] > 2
    other = {"pipeline": "flagship", "v": 2}
    r2 = run_checkpointed([transcripts_parquet], out, _transform, other,
                          rows_per_partition=128, rgs_per_fragment=1,
                          max_partitions=1)
    assert r2["committed"] == 1 and r2["skipped"] == 0
    assert os.listdir(os.path.join(out, "_manifest")) == ["part-0.json"]
    assert list(_assert_manifests_match_files(out, other)) == [0]


def test_valid_commit_past_cut_survives(
        ray_session, transcripts_parquet, tmp_path, oracle_result):
    """A valid commit after a ``max_partitions`` cut keeps its manifest and
    sink data, and the next call skips it; the invalid pids before it are
    dropped."""
    import json

    out = str(tmp_path / "ck_past_cut")
    r1 = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    n = r1["committed"]
    assert n > 3
    mdir = os.path.join(out, "_manifest")
    for pid in (0, 1):  # commits of another config: no longer valid
        path = os.path.join(mdir, f"part-{pid}.json")
        with open(path) as f:
            m = json.load(f)
        m["config_hash"] = "stale"
        with open(path, "w") as f:
            json.dump(m, f)
    kept = os.path.join(mdir, "part-2.json")
    mtime = os.path.getmtime(kept)
    files_2 = {k: v for k, v in _file_rows(out).items() if k[1] == 2}
    assert files_2

    r2 = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1,
                          max_partitions=1)
    assert r2["committed"] == 1 and r2["remaining"] == n - 1
    assert os.path.getmtime(kept) == mtime
    assert not os.path.exists(os.path.join(mdir, "part-1.json"))
    rows = _file_rows(out)
    assert not [k for k in rows if k[1] == 1]
    assert {k: v for k, v in rows.items() if k[1] == 2} == files_2
    _assert_manifests_match_files(out)

    r3 = run_checkpointed([transcripts_parquet], out, _transform, SPEC,
                          rows_per_partition=128, rgs_per_fragment=1)
    assert r3["skipped"] == n - 1 and r3["committed"] == 1
    assert os.path.getmtime(kept) == mtime
    _assert_manifests_match_files(out)
    expected = {s: len(rows) for s, rows in oracle_result["sinks"].items() if rows}
    assert dict(r3["total_counts"]) == expected


def _sink_rows(out: str) -> dict[str, list[tuple]]:
    """sink -> sorted (conv_id, turn_idx) of every committed row."""
    rows: dict[str, list[tuple]] = {}
    for f in glob.glob(os.path.join(out, "*", "part-*", "*.parquet")):
        sink = os.path.basename(os.path.dirname(os.path.dirname(f)))
        t = pq.read_table(f, columns=["conv_id", "turn_idx"])
        rows.setdefault(sink, []).extend(
            zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()))
    return {s: sorted(r) for s, r in rows.items()}


def test_sigkilled_cli_run_resumes_to_oracle(
        ray_session, transcripts_parquet, tmp_path, oracle_result):
    """A real kill: ``flagship --checkpoint`` runs as a child driver on this
    session's cluster and gets SIGKILL once its first manifest appears. A
    resume in this process then ends with sinks equal to the oracle and
    manifests equal to the files; it rewrites no manifest it found and
    leaves no staging, whatever the kill timing."""
    import signal
    import subprocess
    import sys
    import time

    from go_logagent_ray.pipelines.transcript import (FLAGSHIP_SPEC,
                                                      parse_enrich_route)

    out = str(tmp_path / "ck_kill")
    manifests = os.path.join(out, "_manifest", "part-*.json")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               RAY_ADDRESS=ray_session.get_runtime_context().gcs_address)
    log = tmp_path / "child.log"
    with open(log, "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "go_logagent_ray.cli", "flagship",
             "--checkpoint", "--rows-per-partition", "128",
             "--input", transcripts_parquet, "--out", out],
            cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + 120
        try:
            while not glob.glob(manifests):
                assert child.poll() is None, log.read_text()[-3000:]
                assert time.monotonic() < deadline, "no manifest in 120 s"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)

    def stamp(path):
        with open(path) as f:
            return os.path.getmtime(path), f.read()

    before = {p: stamp(p) for p in glob.glob(manifests)}

    r = run_checkpointed([transcripts_parquet], out, parse_enrich_route,
                         FLAGSHIP_SPEC, rows_per_partition=128)
    assert r["skipped"] == len(before) and r["remaining"] == 0
    for p, was in before.items():
        assert stamp(p) == was
    _assert_manifests_match_files(out, FLAGSHIP_SPEC)
    assert not glob.glob(os.path.join(out, ".tmp-part-*"))
    want = {s: sorted((row["conv_id"], row["turn_idx"]) for row in rows)
            for s, rows in oracle_result["sinks"].items() if rows}
    assert _sink_rows(out) == want


def test_flagship_spec_names_every_stage_constant():
    """``FLAGSHIP_SPEC`` holds every constructor argument of the flagship
    chain (``parse_enrich_route`` builds the stages from it alone), so
    changing any one of them changes the checkpoint config hash and
    invalidates earlier commits."""
    import copy

    from go_logagent_ray.pipelines.transcript import FLAGSHIP_SPEC

    assert FLAGSHIP_SPEC["route"]["default_sink"] == "default"
    assert FLAGSHIP_SPEC["enrich"]["value_names"] == ("agent_kind", "enrich_tag")
    hashes = {config_hash(FLAGSHIP_SPEC)}
    n_args = 0
    for stage, kwargs in FLAGSHIP_SPEC.items():
        for arg in kwargs:
            changed = copy.deepcopy(FLAGSHIP_SPEC)
            changed[stage][arg] = f"changed {stage}.{arg}"
            hashes.add(config_hash(changed))
            n_args += 1
    assert n_args == 9 and len(hashes) == n_args + 1


def test_list_fragments_expands_directories(transcripts_parquet, tmp_path):
    """Regression (ADVICE r1): CLI --input DIR advertised but a directory
    crashed ParquetFile; directories now expand to contained parquet."""
    import shutil

    d = tmp_path / "indir" / "nested"
    d.mkdir(parents=True)
    shutil.copy(transcripts_parquet, d / "b.parquet")
    shutil.copy(transcripts_parquet, d / "a.parquet")
    frags = list_fragments([str(tmp_path / "indir")], rgs_per_fragment=2)
    files = sorted({f.file for f in frags})
    assert [os.path.basename(f) for f in files] == ["a.parquet", "b.parquet"]
    direct = list_fragments([str(d / "a.parquet"), str(d / "b.parquet")],
                            rgs_per_fragment=2)
    assert frags == direct


def test_curate_checkpoint_kill_resume_identical(ray_session, tmp_path):
    """The stage-2 (quality+dedup) boundary as a partitioned-parquet
    checkpoint: kill right after the commit, DELETE the raw input,
    resume — the final table must be identical to the single-shot
    in-memory run, proving stages 1-2 never re-execute."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from go_logagent_ray.pipelines.curation import curate_stats

    sf = tmp_path / "sf"
    sf.mkdir()
    rng = np.random.default_rng(31)
    vocab = [f"v{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(5, 90)))
             for _ in range(120)]
    texts[7] = texts[3]          # exact dup for stage 2
    texts[11] = "tiny doc"       # fails the >= 20 token gate
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(sf / "documents.parquet"))

    def as_sorted(ds):
        return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)

    baseline = as_sorted(curate_stats(str(sf)))

    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="simulated kill"):
        curate_stats(str(sf), checkpoint_dir=ckpt, fail_after_stage2=True)
    assert os.path.isfile(os.path.join(ckpt, "_stage2_manifest.json"))

    # the kill left a committed checkpoint; the raw input disappears —
    # the resume may only touch the checkpoint
    shutil.rmtree(sf)
    resumed = as_sorted(curate_stats(str(sf), checkpoint_dir=ckpt))

    assert baseline.doc_id.tolist() == resumed.doc_id.tolist()
    assert baseline.n_chunks.tolist() == resumed.n_chunks.tolist()
    assert baseline.n_chunk_words.tolist() == resumed.n_chunk_words.tolist()


def test_curate_checkpoint_damaged_data_recomputes(ray_session, tmp_path):
    """A partially deleted stage2 directory under an INTACT manifest
    must fall through to recompute (row-count validation), never resume
    silently with fewer rows."""
    import json
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_logagent_ray.pipelines.curation import stage2_survivors

    sf = tmp_path / "sf"
    sf.mkdir()
    rng = np.random.default_rng(32)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(25, 60)))
             for _ in range(80)]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(sf / "documents.parquet"))

    ckpt = str(tmp_path / "ckpt")
    full = stage2_survivors(str(sf), checkpoint_dir=ckpt).to_pandas()
    n = len(full)
    assert n > 0

    # simulate truncation: drop one NON-EMPTY committed data file,
    # keeping the manifest intact — the resume must detect the row
    # deficit and recompute
    stage2 = os.path.join(ckpt, "stage2")
    files = sorted(os.listdir(stage2))
    victim = next(f for f in files
                  if pq.read_metadata(os.path.join(stage2, f)).num_rows)
    os.remove(os.path.join(stage2, victim))
    with open(os.path.join(ckpt, "_stage2_manifest.json")) as f:
        assert json.load(f)["rows"] == n  # manifest still claims all rows

    again = stage2_survivors(str(sf), checkpoint_dir=ckpt).to_pandas()
    assert len(again) == n  # recomputed, not the truncated read-back
    assert sorted(again.doc_id) == sorted(full.doc_id)


def test_curate_checkpoint_zero_survivors(ray_session, tmp_path):
    """A corpus the quality gate empties entirely must still commit a
    readable checkpoint (explicit empty parquet file) and resume to the
    same zero-row survivor set with the raw input gone."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_logagent_ray.pipelines.curation import stage2_survivors

    sf = tmp_path / "sf"
    sf.mkdir()
    t = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                  "text": pa.array(["tiny doc"] * 6, pa.string())})
    pq.write_table(t, str(sf / "documents.parquet"))

    ckpt = str(tmp_path / "ckpt")
    out = stage2_survivors(str(sf), checkpoint_dir=ckpt)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "text"}

    shutil.rmtree(sf)  # resume may only touch the checkpoint
    resumed = stage2_survivors(str(sf), checkpoint_dir=ckpt)
    assert resumed.count() == 0
    assert set(resumed.schema().names) == {"doc_id", "text"}


def test_lm_bucket_checkpoint_kill_resume_identical(ray_session, tmp_path):
    """The lm_bucket scored-table boundary as a committed checkpoint
    (VERDICT r4 #6): kill right after the score commit, DELETE the raw
    input, resume — the full head/middle/tail bucketing must be
    identical to the single-shot run, proving LM scoring never
    re-executes."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from go_logagent_ray.pipelines.queries import lm_bucket_docs

    sf = tmp_path / "sf"
    sf.mkdir()
    rng = np.random.default_rng(41)
    vocab = [f"t{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 30)))
             for _ in range(90)] + ["", None]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(sf / "documents.parquet"))

    def as_sorted(ds):
        return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)

    baseline = as_sorted(lm_bucket_docs(str(sf)))
    assert set(baseline.bucket) == {"head", "middle", "tail"}

    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="simulated kill"):
        lm_bucket_docs(str(sf), checkpoint_dir=ckpt,
                       fail_after_score=True)
    import os
    assert os.path.isfile(os.path.join(ckpt, "_lm_scored_manifest.json"))

    shutil.rmtree(sf)  # the resume may only touch the checkpoint
    resumed = as_sorted(lm_bucket_docs(str(sf), checkpoint_dir=ckpt))
    assert baseline.doc_id.tolist() == resumed.doc_id.tolist()
    assert baseline.score_q.tolist() == resumed.score_q.tolist()
    assert baseline.bucket.tolist() == resumed.bucket.tolist()


def test_curate_v2_checkpoint_resume_skips_all_dedup(ray_session, tmp_path):
    """curate_stats_v2's near-dup survivor boundary commits through the
    shared protocol: resume with the raw input DELETED reproduces the
    single-shot result, proving quality gate, exact dedup, pair mining
    and the anti-join all skip."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_logagent_ray.pipelines.curation import (curate_stats,
                                                    curate_stats_v2)

    sf = tmp_path / "sf"
    sf.mkdir()
    rng = np.random.default_rng(43)
    vocab = [f"u{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, size=40)) for _ in range(50)]
    # a NON-exact near-dup pair: one word edited → trigram j ≈ 0.9
    w = texts[5].split(" ")
    w[-1] = "edited"
    texts.append(" ".join(w))
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, str(sf / "documents.parquet"))

    def as_sorted(ds):
        return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)

    v1 = as_sorted(curate_stats(str(sf)))
    baseline = as_sorted(curate_stats_v2(str(sf)))
    assert len(baseline) == len(v1) - 1      # the near-dup stage bit
    assert 50 not in set(baseline.doc_id)    # larger-id member dropped

    ckpt = str(tmp_path / "ckpt")
    first = as_sorted(curate_stats_v2(str(sf), checkpoint_dir=ckpt))
    assert first.doc_id.tolist() == baseline.doc_id.tolist()

    shutil.rmtree(sf)  # resume may only touch the checkpoint
    resumed = as_sorted(curate_stats_v2(str(sf), checkpoint_dir=ckpt))
    assert baseline.doc_id.tolist() == resumed.doc_id.tolist()
    assert baseline.n_chunks.tolist() == resumed.n_chunks.tolist()
    assert baseline.n_chunk_words.tolist() == resumed.n_chunk_words.tolist()
