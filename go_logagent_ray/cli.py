"""CLI entry — the Ray-native analog of the reference's `main.go`.

The reference runs `logagent --config conf.json` (EP1, SURVEY.md §3.1);
here:

    python -m go_logagent_ray.cli run --config pipeline.json [--num-cpus N]
    python -m go_logagent_ray.cli flagship --input DIR_OR_FILE --out DIR \\
        [--checkpoint]            # resumable per-partition waves (§4.3)
    python -m go_logagent_ray.cli gen --out FILE --convs 1000

On a real cluster the same commands run under `ray job submit` (the
script detects an existing cluster via RAY_ADDRESS and does not
re-init). This is the ONE library-adjacent place that owns ray.init —
the library itself never calls it (driver contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter


def _init_ray(num_cpus: int | None):
    """Returns (ray, created): connect to RAY_ADDRESS if set (e.g. a
    cluster head under ``ray job submit``), else start a local instance.
    Only sessions WE created are shut down afterwards."""
    import os

    import ray

    if ray.is_initialized():
        return ray, False
    kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                  logging_level="ERROR")
    address = os.environ.get("RAY_ADDRESS", "local")
    if num_cpus is not None and address == "local":
        kwargs["num_cpus"] = num_cpus
    ray.init(address=address, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray, True


def cmd_run(args) -> int:
    from .config import Pipeline

    with open(args.config) as f:
        conf = json.load(f)
    ray, created = _init_ray(args.num_cpus)
    try:
        pipe = Pipeline.from_config(conf)
        res = pipe.run()
        print(json.dumps({"status": "ok",
                          "rows": res["routed"].count()}))
        return 0
    finally:
        if created:
            ray.shutdown()


def cmd_flagship(args) -> int:
    ray, created = _init_ray(args.num_cpus)
    try:
        if args.checkpoint:
            from .pipelines.transcript import FLAGSHIP_SPEC, parse_enrich_route
            from .state.checkpoint import run_checkpointed

            r = run_checkpointed(
                [args.input], args.out, parse_enrich_route,
                FLAGSHIP_SPEC, rows_per_partition=args.rows_per_partition,
            )
            print(json.dumps({"status": "ok", "committed": r["committed"],
                              "skipped": r["skipped"],
                              "counts": dict(r["total_counts"])}))
        else:
            from .pipelines.transcript import parse_enrich_route, write_sinks
            from .sources.parquet import read_transcripts

            counts: Counter = Counter()
            routed = parse_enrich_route(read_transcripts(args.input))
            for (route, *_), n in write_sinks(routed, args.out).items():
                counts[route] += n
            print(json.dumps({"status": "ok", "counts": dict(counts)}))
        return 0
    finally:
        if created:
            ray.shutdown()


def cmd_gen(args) -> int:
    from .fixtures import write_transcripts

    path = write_transcripts(args.out, n_convs=args.convs,
                             mean_turns=args.mean_turns, seed=args.seed)
    print(json.dumps({"status": "ok", "path": path}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="go_logagent_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a declarative pipeline config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--num-cpus", type=int, default=None)
    p_run.set_defaults(fn=cmd_run)

    p_fl = sub.add_parser("flagship", help="run the flagship transcript pipeline")
    p_fl.add_argument("--input", required=True)
    p_fl.add_argument("--out", required=True)
    p_fl.add_argument("--checkpoint", action="store_true",
                      help="resumable per-partition waves with manifests")
    p_fl.add_argument("--rows-per-partition", type=int, default=2_000_000)
    p_fl.add_argument("--num-cpus", type=int, default=None)
    p_fl.set_defaults(fn=cmd_flagship)

    p_gen = sub.add_parser("gen", help="generate a synthetic transcript table")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--convs", type=int, default=1000)
    p_gen.add_argument("--mean-turns", type=int, default=8)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.set_defaults(fn=cmd_gen)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
