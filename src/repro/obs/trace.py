"""Lightweight tracing: monotonic-clock spans, contextvar nesting and
cross-process trace propagation (DESIGN.md §13).

A span is a timed, named, tagged interval::

    with obs.span("labeling.build", graph="g", bags=41) as sp:
        ...
        sp.tag(repaired=7)

Spans nest through a :mod:`contextvars` context: the span open when a
new one starts becomes its parent, so one query's work — client call,
server dispatch, worker execution, per-site kernels — renders as a
tree.  Each span carries a ``trace_id`` minted at the root (or adopted
from an incoming wire frame / pool command, which is how one query's
spans stitch across client → server thread → forked worker: see
:func:`current_trace` / :func:`activate_trace`).

**The disabled path is the design center.**  The layer gates itself
on one module-global bool: :func:`span` returns one shared no-op
context manager, the metric helpers (:func:`inc`, :func:`observe`,
:func:`observe_windowed`, :func:`set_gauge`) return before touching
the registry, and :func:`current_trace` / :func:`activate_trace` are
inert while it is off.  An instrumented site therefore keeps one body
and costs a few function calls when disabled
(``benchmarks/bench_obs.py`` gates the warm-query overhead at ≤ 2%).

Finished spans are plain JSON-safe dicts handed to the registered
sinks (:mod:`repro.obs.sink`).  A worker process runs in *shipping
mode* instead (:func:`configure_shipping`): finished spans buffer
locally and :func:`ship_delta` drains them — plus the metrics delta
since the last drain — for the master to :func:`ingest`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time

from repro.obs.metrics import MetricsRegistry, snapshot_delta

# ----------------------------------------------------------------------
# runtime state (process-global; the trace context is per-task)
# ----------------------------------------------------------------------
_enabled = False
_sinks = []
_lock = threading.Lock()
_registry = MetricsRegistry()

#: shipping mode (worker processes): finished spans buffer here instead
#: of going to sinks, and metric deltas are cut against ``_ship_base``
_shipping = False
_ship_spans = []
_ship_base = {}

#: (trace_id, span_id) of the innermost open span, or None
_ctx = contextvars.ContextVar("repro_obs_trace", default=None)

_span_counter = itertools.count(1)
_trace_counter = itertools.count(1)


def enabled():
    """Whether tracing + metrics collection are on (cheap: one global
    read).  Instrumentation sites need not check it — every helper
    here gates itself; it is for the few callers whose *behaviour*
    differs by mode (forking workers into shipping mode, SLO
    evaluation)."""
    return _enabled


def enable(*sinks):
    """Turn the observability layer on, optionally registering sinks
    (idempotent; sinks add to the existing set)."""
    global _enabled
    for s in sinks:
        add_sink(s)
    _enabled = True


def disable():
    """Turn collection off.  Sinks stay registered (re-``enable`` picks
    them back up); the registry keeps its values."""
    global _enabled
    _enabled = False


def registry():
    """The process-global :class:`~repro.obs.metrics.MetricsRegistry`
    every instrumentation site writes to."""
    return _registry


def add_sink(sink):
    with _lock:
        if sink not in _sinks:
            _sinks.append(sink)
    return sink


def remove_sink(sink):
    with _lock:
        if sink in _sinks:
            _sinks.remove(sink)


def sinks():
    with _lock:
        return list(_sinks)


def reset(registry_too=True):
    """Test helper: disable, drop sinks and shipping state, and
    (optionally) clear the global registry."""
    global _enabled, _shipping
    _enabled = False
    _shipping = False
    with _lock:
        _sinks.clear()
    _ship_spans.clear()
    _ship_base.clear()
    if registry_too:
        _registry.clear()


# ----------------------------------------------------------------------
# metric write helpers: each returns at once while the layer is off
# ----------------------------------------------------------------------
def inc(name, n=1):
    if _enabled:
        _registry.inc(name, n)


def observe(name, value):
    if _enabled:
        _registry.observe(name, value)


def observe_windowed(name, value, now=None):
    if _enabled:
        _registry.observe_windowed(name, value, now)


def set_gauge(name, value):
    if _enabled:
        _registry.set_gauge(name, value)


# ----------------------------------------------------------------------
# trace ids and context
# ----------------------------------------------------------------------
def new_trace_id():
    """A fresh trace id: unique across the processes of one serving
    stack (pid-qualified counter plus entropy for cross-host logs)."""
    return (f"{os.getpid():x}-{next(_trace_counter):x}-"
            f"{os.urandom(4).hex()}")


def _new_span_id():
    return f"{os.getpid():x}.{next(_span_counter):x}"


def current_trace():
    """``(trace_id, span_id)`` of the innermost open span, or ``None``
    — the context to propagate into a wire frame or pool command.
    Always ``None`` while the layer is disabled."""
    return _ctx.get() if _enabled else None


def activate_trace(ctx):
    """Adopt a propagated ``(trace_id, parent_span_id)`` pair (list or
    tuple, e.g. straight off a wire frame) as the current trace
    context; returns a token for :func:`deactivate_trace`.  ``None``
    (or a malformed value, or a disabled layer) activates nothing and
    returns ``None``."""
    if (not _enabled or not isinstance(ctx, (list, tuple))
            or len(ctx) != 2 or not all(isinstance(x, str) for x in ctx)):
        return None
    return _ctx.set((ctx[0], ctx[1]))


def deactivate_trace(token):
    """Undo :func:`activate_trace` (no-op for a ``None`` token)."""
    if token is not None:
        _ctx.reset(token)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Span:
    """One open span; use via :func:`span`.  ``tag()`` adds fields
    mid-flight; the finished record is a JSON-safe dict shipped to the
    sinks (or the shipping buffer) on ``__exit__``."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "tags",
                 "_t0", "_start", "_token", "seconds")

    def __init__(self, name, tags):
        self.name = name
        self.tags = tags
        parent = _ctx.get()
        if parent is None:
            self.trace_id = new_trace_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = _new_span_id()
        self._token = None
        self._t0 = 0.0
        self._start = 0.0
        self.seconds = 0.0

    def tag(self, **tags):
        self.tags.update(tags)
        return self

    def __enter__(self):
        self._token = _ctx.set((self.trace_id, self.span_id))
        self._start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self._t0
        _ctx.reset(self._token)
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        record = {"trace": self.trace_id, "span": self.span_id,
                  "parent": self.parent_id, "name": self.name,
                  "pid": os.getpid(), "start": self._start,
                  "seconds": self.seconds}
        if self.tags:
            record["tags"] = self.tags
        record_span(record)
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    trace_id = span_id = parent_id = None
    seconds = 0.0

    def tag(self, **tags):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NOOP_SPAN = _NoopSpan()


def span(name, **tags):
    """A context-managed :class:`Span` named ``name`` — or the shared
    no-op when the layer is disabled."""
    if not _enabled:
        return NOOP_SPAN
    return Span(name, tags)


def record_span(record):
    """Route one finished span dict to the sinks (or, in a worker's
    shipping mode, the ship buffer)."""
    if _shipping:
        with _lock:
            _ship_spans.append(record)
        return
    for sink in sinks():
        sink.record_span(record)


# ----------------------------------------------------------------------
# worker shipping protocol
# ----------------------------------------------------------------------
def configure_shipping(on=True):
    """Enter (or leave) shipping mode: finished spans buffer for
    :func:`ship_delta` instead of hitting sinks, and the metrics
    baseline resets so the first delta is everything since now.  Called
    by pool workers right after fork/spawn."""
    global _shipping, _ship_base
    _shipping = on
    _ship_spans.clear()
    _ship_base = _registry.snapshot() if on else {}


def ship_delta():
    """Drain the shipping buffer: ``{"spans": [...], "metrics": {...}}``
    with only what happened since the previous call, or ``None`` when
    disabled / nothing happened.  Piggybacked by pool workers on every
    reply frame."""
    global _ship_base
    if not _enabled:
        return None
    with _lock:
        spans = list(_ship_spans)
        _ship_spans.clear()
    now = _registry.snapshot()
    delta = snapshot_delta(now, _ship_base)
    _ship_base = now
    if not spans and not delta:
        return None
    return {"spans": spans, "metrics": delta}


def ingest(payload):
    """Fold a worker's :func:`ship_delta` payload into this process:
    spans go to the local sinks, the metrics delta merges into the
    local registry.  Tolerant of ``None``."""
    if not payload:
        return
    for record in payload.get("spans", ()):
        record_span(record)
    metrics = payload.get("metrics")
    if metrics:
        _registry.merge(metrics)


__all__ = [
    "Span",
    "NOOP_SPAN",
    "span",
    "enabled",
    "enable",
    "disable",
    "registry",
    "add_sink",
    "remove_sink",
    "sinks",
    "reset",
    "inc",
    "observe",
    "observe_windowed",
    "set_gauge",
    "new_trace_id",
    "current_trace",
    "activate_trace",
    "deactivate_trace",
    "record_span",
    "configure_shipping",
    "ship_delta",
    "ingest",
]
