"""``repro.obs`` — end-to-end tracing, metrics and profiling hooks for
the serving stack (DESIGN.md §13).

Three pillars, all stdlib-only and off by default:

* **tracing** (:mod:`repro.obs.trace`): ``span("site", **tags)``
  context managers with monotonic timing and contextvar nesting; a
  per-query trace id minted at the root and propagated through wire
  frames and pool command/result queues, so one served query's spans
  stitch across client → server thread → forked worker;
* **metrics** (:mod:`repro.obs.metrics`): a process-local registry of
  counters, gauges and fixed-bucket histograms whose snapshots merge
  across processes — workers ship deltas back on the existing result
  queue and the pool master aggregates;
* **export** (:mod:`repro.obs.sink` / :mod:`repro.obs.export`): ring
  buffer and NDJSON file sinks, a Prometheus text renderer behind the
  ``metrics`` wire verb, and a ``python -m repro.obs`` tail/summarize
  CLI.

Quick start::

    from repro import obs

    ring = obs.RingBufferSink()
    obs.enable(ring)                     # before pool.start(): forked
    ...serve queries...                  # workers inherit the switch
    for line in obs.format_span_tree(
            *obs.build_span_tree(ring.spans(trace=ring.traces()[-1]))):
        print(line)
    print(obs.render_prometheus(obs.registry().snapshot()))

The layer checks its own switch: while disabled, :func:`span` returns
the shared :data:`NOOP_SPAN`, the metric helpers return before
touching the registry, and :func:`current_trace` /
:func:`activate_trace` are inert — so an instrumentation site keeps
one body and never reads :func:`enabled` itself.
``benchmarks/bench_obs.py`` holds the disabled-mode overhead of the
warm query path under 2%.
"""

from repro.obs.export import (
    build_span_tree,
    format_span_tree,
    render_prometheus,
    summarize_spans,
)
from repro.obs.health import (
    DEFAULT_POLICY,
    FlightRecorder,
    SloPolicy,
    discover_kinds,
    evaluate_slo,
    evaluate_slos,
    render_health_prometheus,
    worst_status,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedHistogram,
    snapshot_delta,
)
from repro.obs.sink import NdjsonFileSink, RingBufferSink, Sink, read_ndjson
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    activate_trace,
    add_sink,
    configure_shipping,
    current_trace,
    deactivate_trace,
    disable,
    enable,
    enabled,
    inc,
    ingest,
    new_trace_id,
    observe,
    observe_windowed,
    record_span,
    registry,
    remove_sink,
    reset,
    set_gauge,
    ship_delta,
    sinks,
    span,
)

__all__ = [
    # trace
    "span",
    "Span",
    "NOOP_SPAN",
    "enabled",
    "enable",
    "disable",
    "reset",
    "new_trace_id",
    "current_trace",
    "activate_trace",
    "deactivate_trace",
    "record_span",
    "configure_shipping",
    "ship_delta",
    "ingest",
    # metrics
    "registry",
    "inc",
    "observe",
    "observe_windowed",
    "set_gauge",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedHistogram",
    "MetricsRegistry",
    "snapshot_delta",
    "DEFAULT_BUCKETS",
    # health
    "SloPolicy",
    "DEFAULT_POLICY",
    "evaluate_slo",
    "evaluate_slos",
    "discover_kinds",
    "worst_status",
    "FlightRecorder",
    "render_health_prometheus",
    # sinks + export
    "Sink",
    "RingBufferSink",
    "NdjsonFileSink",
    "read_ndjson",
    "add_sink",
    "remove_sink",
    "sinks",
    "render_prometheus",
    "summarize_spans",
    "build_span_tree",
    "format_span_tree",
]
