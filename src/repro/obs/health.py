"""Continuous health evaluation: SLO policies over rolling windows and
a flight recorder for exemplar traces (DESIGN.md §15).

Two pieces sit on top of the raw observability layer:

* :class:`SloPolicy` — a declarative latency + error budget for one
  query kind, evaluated by :func:`evaluate_slo` against the rolling
  ``health.query_seconds.<kind>`` / ``health.error_seconds.<kind>``
  windows that :class:`repro.server.pool.WarmWorkerPool` writes as
  each query completes.  The verdict is ``ok`` / ``warn`` /
  ``breach`` plus a *burn rate* (how fast the
  budget is being consumed: 1.0 means exactly at budget, 2.0 means
  burning twice the allowance).
* :class:`FlightRecorder` — a :class:`~repro.obs.sink.Sink` that
  tail-samples full span trees: it buffers each trace until its
  ``query.execute`` root lands, then retains the tree only if the
  query errored or ranks among the slowest ``K`` of its time window.
  Everything else is dropped, so the recorder stays bounded while the
  interesting one-in-a-thousand query keeps its complete
  cross-process tree for ``python -m repro.obs exemplars``.

The pool watchdog (``repro.server.pool``) combines these with worker
liveness into the ``health`` wire verb's report;
:func:`render_health_prometheus` turns that report into gauges for
scraping.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import trace as _trace
from repro.obs.export import _prom_name, _prom_num
from repro.obs.metrics import WindowedHistogram
from repro.obs.sink import Sink

#: metric-name prefixes the serving pool writes and
#: :func:`evaluate_slo` reads
LATENCY_PREFIX = "health.query_seconds."
ERROR_PREFIX = "health.error_seconds."

_STATUS_RANK = {"ok": 0, "warn": 1, "breach": 2}


def worst_status(statuses):
    """The most severe of an iterable of ``ok``/``warn``/``breach``
    strings (``ok`` when empty)."""
    worst = "ok"
    for s in statuses:
        if _STATUS_RANK.get(s, 0) > _STATUS_RANK[worst]:
            worst = s
    return worst


@dataclass(frozen=True)
class SloPolicy:
    """Latency + error budget for one query kind.

    ``latency_budget_s`` bounds the ``latency_quantile`` (default p99)
    of the rolling window; ``error_budget`` bounds the fraction of
    queries that may error.  ``warn_fraction`` is the early-warning
    threshold: burning more than that fraction of either budget is a
    ``warn`` before it becomes a ``breach``.  ``kind`` is the query
    class name (``"FlowQuery"``) or ``"*"`` to apply to every kind
    observed in the window that has no kind-specific policy.
    """

    kind: str
    latency_budget_s: float = 1.0
    latency_quantile: float = 0.99
    error_budget: float = 0.01
    window_seconds: float = 60.0
    warn_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.latency_quantile < 1.0:
            raise ValueError("latency_quantile must be in (0, 1)")
        if self.latency_budget_s <= 0:
            raise ValueError("latency_budget_s must be positive")
        if not 0.0 < self.error_budget <= 1.0:
            raise ValueError("error_budget must be in (0, 1]")
        if not 0.0 < self.warn_fraction <= 1.0:
            raise ValueError("warn_fraction must be in (0, 1]")


#: the fallback policy applied to kinds without an explicit one —
#: generous enough that a healthy smoke-scale run never warns
DEFAULT_POLICY = SloPolicy(kind="*", latency_budget_s=30.0,
                           latency_quantile=0.99, error_budget=0.05)


def discover_kinds(registry):
    """Query kinds with windowed health data in ``registry``."""
    kinds = set()
    for name in registry.names():
        for prefix in (LATENCY_PREFIX, ERROR_PREFIX):
            if name.startswith(prefix):
                kinds.add(name[len(prefix):])
    return sorted(kinds)


def _frac_over(window, budget):
    """Fraction of a :meth:`WindowedHistogram.window` aggregate above
    ``budget``, at bucket resolution (an observation counts as over
    unless its whole bucket fits under the budget — conservative)."""
    if not window["count"]:
        return 0.0
    under = 0
    for bound, c in zip(window["buckets"], window["counts"]):
        if bound <= budget:
            under += c
        else:
            break
    return (window["count"] - under) / window["count"]


def evaluate_slo(policy, registry=None, kind=None, now=None):
    """Evaluate one :class:`SloPolicy` against the live windowed
    metrics in ``registry`` (default: the process registry).

    ``kind`` overrides the metric names consulted (used when a ``"*"``
    policy is applied to a discovered kind).  Returns a JSON-safe
    report dict; an empty window is ``ok`` with ``count == 0`` —
    absence of traffic is not a breach.
    """
    if registry is None:
        registry = _trace.registry()
    kind = kind or policy.kind
    w = policy.window_seconds
    lat = registry.get(LATENCY_PREFIX + kind)
    err = registry.get(ERROR_PREFIX + kind)
    lat_w = (lat.window(w, now) if isinstance(lat, WindowedHistogram)
             else None)
    err_w = (err.window(w, now) if isinstance(err, WindowedHistogram)
             else None)
    ok_count = lat_w["count"] if lat_w else 0
    err_count = err_w["count"] if err_w else 0
    total = ok_count + err_count

    # latency: burn = (fraction over budget) / (allowed fraction)
    allowed_over = 1.0 - policy.latency_quantile
    if ok_count:
        q = lat.quantile(policy.latency_quantile, w, now)
        frac_over = _frac_over(lat_w, policy.latency_budget_s)
        lat_burn = frac_over / allowed_over
    else:
        q, frac_over, lat_burn = None, 0.0, 0.0

    # errors: burn = error rate / error budget
    err_rate = err_count / total if total else 0.0
    err_burn = err_rate / policy.error_budget

    burn = max(lat_burn, err_burn)
    if burn > 1.0:
        status = "breach"
    elif burn > policy.warn_fraction:
        status = "warn"
    else:
        status = "ok"
    return {
        "kind": kind, "status": status, "burn_rate": burn,
        "window_seconds": w, "count": total, "error_count": err_count,
        "latency": {
            "quantile": policy.latency_quantile,
            "value_s": None if q is None or q == math.inf else q,
            "budget_s": policy.latency_budget_s,
            "frac_over_budget": frac_over, "burn_rate": lat_burn},
        "errors": {"rate": err_rate, "budget": policy.error_budget,
                   "burn_rate": err_burn},
    }


def evaluate_slos(policies=None, registry=None, now=None):
    """Evaluate a set of policies, applying any ``"*"`` policy to every
    discovered kind that lacks a specific one (with no policies at all,
    :data:`DEFAULT_POLICY` covers everything observed).  Returns
    ``{"status": worst, "slos": [per-kind reports]}``."""
    if registry is None:
        registry = _trace.registry()
    policies = list(policies) if policies else [DEFAULT_POLICY]
    by_kind = {p.kind: p for p in policies if p.kind != "*"}
    wildcard = next((p for p in policies if p.kind == "*"), None)
    reports = []
    for kind, p in sorted(by_kind.items()):
        reports.append(evaluate_slo(p, registry, now=now))
    if wildcard is not None:
        for kind in discover_kinds(registry):
            if kind not in by_kind:
                reports.append(evaluate_slo(wildcard, registry,
                                            kind=kind, now=now))
    return {"status": worst_status(r["status"] for r in reports),
            "slos": reports}


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class FlightRecorder(Sink):
    """Tail-sampling span sink: keep full trees for every errored query
    plus the slowest ``slowest_k`` per ``window_seconds``, drop the
    rest.

    Spans buffer per trace id until the trace's ``root_name`` span
    (default ``query.execute``) arrives — workers ship a query's spans
    children-first with the root last, so by decision time the whole
    worker-side subtree is in hand.  Later spans of an already-retained
    trace (the server/client side of the tree, which finish after the
    worker root ships) are appended to the retained entry, completing
    the cross-process tree.

    Bounded everywhere: at most ``max_pending`` traces buffer awaiting
    a root (oldest dropped first — rootless span noise cannot grow the
    recorder), at most ``capacity`` trees are retained (oldest
    non-error entries evicted before errored ones).
    """

    def __init__(self, slowest_k=4, window_seconds=60.0, capacity=64,
                 root_name="query.execute", max_pending=256):
        if slowest_k < 1 or capacity < 1 or max_pending < 1:
            raise ValueError("slowest_k, capacity and max_pending "
                             "must be >= 1")
        self.slowest_k = int(slowest_k)
        self.window_seconds = float(window_seconds)
        self.capacity = int(capacity)
        self.root_name = root_name
        self.max_pending = int(max_pending)
        self._pending = OrderedDict()   # trace -> [span, ...]
        self._retained = OrderedDict()  # trace -> entry dict
        self._windows = {}              # window idx -> [(secs, trace)]
        self._lock = threading.Lock()
        self.dropped = 0

    # Sink protocol -----------------------------------------------------
    def record_span(self, record):
        trace = record.get("trace")
        if trace is None:
            return
        with self._lock:
            entry = self._retained.get(trace)
            if entry is not None:
                entry["spans"].append(record)
                return
            self._pending.setdefault(trace, []).append(record)
            if record.get("name") == self.root_name:
                self._decide(trace, record)
            while len(self._pending) > self.max_pending:
                self._pending.popitem(last=False)
                self.dropped += 1

    # -------------------------------------------------------------------
    def _decide(self, trace, root):
        spans = self._pending.pop(trace)
        seconds = root.get("seconds", 0.0)
        errored = any((s.get("tags") or {}).get("error")
                      for s in spans)
        if errored:
            self._retain(trace, spans, root, "error")
            return
        idx = int(root.get("start", 0.0) // self.window_seconds)
        ranked = self._windows.setdefault(idx, [])
        # retire ranking state for windows that have scrolled away
        for old in [w for w in self._windows if w < idx - 1]:
            del self._windows[old]
        if len(ranked) < self.slowest_k:
            ranked.append((seconds, trace))
            self._retain(trace, spans, root, "slow")
            return
        fastest = min(range(len(ranked)), key=lambda i: ranked[i][0])
        if seconds <= ranked[fastest][0]:
            self.dropped += 1
            return
        _, evicted = ranked[fastest]
        ranked[fastest] = (seconds, trace)
        if self._retained.pop(evicted, None) is not None:
            self.dropped += 1
        self._retain(trace, spans, root, "slow")

    def _retain(self, trace, spans, root, reason):
        self._retained[trace] = {
            "trace": trace, "reason": reason,
            "seconds": root.get("seconds", 0.0),
            "start": root.get("start", 0.0),
            "kind": (root.get("tags") or {}).get("kind"),
            "spans": spans}
        while len(self._retained) > self.capacity:
            victim = next(
                (t for t, e in self._retained.items()
                 if e["reason"] != "error"),
                next(iter(self._retained)))
            del self._retained[victim]
            self.dropped += 1

    # -------------------------------------------------------------------
    def exemplars(self, limit=None, reason=None):
        """Retained entries, oldest first; filter by ``reason``
        (``"error"``/``"slow"``), keep the last ``limit``."""
        with self._lock:
            out = list(self._retained.values())
        if reason is not None:
            out = [e for e in out if e["reason"] == reason]
        if limit is not None:
            out = out[-limit:]
        return out

    def dump(self, limit=None):
        """JSON-safe dump for the wire/CLI: exemplar entries plus the
        recorder's own accounting."""
        return {"exemplars": self.exemplars(limit),
                "retained": len(self._retained),
                "pending": len(self._pending),
                "dropped": self.dropped,
                "slowest_k": self.slowest_k,
                "window_seconds": self.window_seconds}

    def clear(self):
        with self._lock:
            self._pending.clear()
            self._retained.clear()
            self._windows.clear()
            self.dropped = 0

    def __len__(self):
        return len(self._retained)


# ----------------------------------------------------------------------
# prometheus rendering of a health report
# ----------------------------------------------------------------------
def render_health_prometheus(report, prefix="repro_"):
    """Gauge rendering of a ``health`` verb report (the
    ``format="prometheus"`` payload of ``ServiceClient.health()``):
    overall and per-SLO status as ``0``/``1``/``2`` (ok/warn/breach),
    burn rates, and the watchdog's liveness numbers."""
    lines = []

    def gauge(name, value, labels=""):
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname}{labels} {_prom_num(value)}")

    gauge("health.status", _STATUS_RANK.get(report.get("status"), 2))
    gauge("health.ready", 1 if report.get("state") == "ready" else 0)
    if "uptime_s" in report:
        gauge("health.uptime_seconds", report["uptime_s"])
    workers = report.get("workers")
    if workers:
        gauge("health.workers_alive", workers.get("alive", 0))
        gauge("health.workers_stalled", workers.get("stalled", 0))
    if "queue_depth" in report:
        gauge("health.queue_depth", report["queue_depth"])
    if "inflight" in report:
        gauge("health.inflight", report["inflight"])
    for slo in (report.get("slos") or {}).get("slos", []):
        labels = f'{{kind="{slo["kind"]}"}}'
        pname = _prom_name("slo.status", prefix)
        lines.append(f"{pname}{labels} "
                     f"{_STATUS_RANK.get(slo['status'], 2)}")
        pname = _prom_name("slo.burn_rate", prefix)
        lines.append(f"{pname}{labels} {_prom_num(slo['burn_rate'])}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "SloPolicy",
    "DEFAULT_POLICY",
    "evaluate_slo",
    "evaluate_slos",
    "discover_kinds",
    "worst_status",
    "FlightRecorder",
    "render_health_prometheus",
    "LATENCY_PREFIX",
    "ERROR_PREFIX",
]
