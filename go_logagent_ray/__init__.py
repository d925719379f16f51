"""go_logagent_ray — a Ray-Data-native parse → enrich → route → aggregate engine.

A brand-new engine with the query/data-processing capabilities of
``tuhuayuan/go-logagent`` (a logstash-style Go log agent: input plugins →
grok/patch filter chain → output fan-out), re-expressed Ray-Data-first:

- events are rows of an Arrow-backed ``ray.data.Dataset`` (not per-row Go
  channel messages),
- the filter chain is a sequence of vectorized ``map_batches`` stages over
  zero-copy Arrow batches (grok = a cascade of Arrow regex scans, patch =
  column ops, enrich = broadcast dict lookup); the flagship chain is built
  from one spec, ``pipelines.transcript.FLAGSHIP_SPEC``,
- the output fan-out is a conditional router writing partitioned
  Parquet/JSON sinks, and
- per-sink groupby-aggregate counts are the correctness oracle.

See SURVEY.md for the full blueprint and the mapping from reference plugins
(``ref: filter/grok/``, ``ref: filter/patch/``, ``ref: input/file/``,
``ref: output/*`` — unverified path-level citations, see SURVEY.md §0) to
the stages in this package.

Library code NEVER calls ``ray.init()`` / ``ray.shutdown()`` — sessions are
owned by logbench, the CLI, and the test fixture (driver contract).
"""

__version__ = "0.1.0"
