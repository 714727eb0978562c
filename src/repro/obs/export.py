"""Exporters: Prometheus text rendering and span-log summarization
(DESIGN.md §13).

:func:`render_prometheus` turns a registry snapshot into the Prometheus
text exposition format (the payload of the ``metrics`` wire verb with
``format="prometheus"``); :func:`summarize_spans` folds a span stream
into a per-site table and :func:`build_span_tree` reassembles one
trace's parent/child structure — the analyses behind
``python -m repro.obs summarize`` and the benchmark's stitched-tree
acceptance gate.
"""

from __future__ import annotations

import math
import re

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name, prefix="repro_"):
    return prefix + _NAME_RE.sub("_", name)


def _prom_num(v):
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return repr(v) if isinstance(v, float) else str(v)


def render_prometheus(snapshot, prefix="repro_"):
    """Prometheus text format for a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict.

    Metric names sanitize dots to underscores under ``prefix``;
    histograms expose cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``, counters get the conventional ``_total``
    suffix.
    """
    lines = []
    for name in sorted(snapshot):
        d = snapshot[name]
        pname = _prom_name(name, prefix)
        t = d.get("type")
        if t == "counter":
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total {_prom_num(d['value'])}")
        elif t == "gauge":
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_num(d['value'])}")
        elif t == "histogram":
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            bounds = list(d["buckets"]) + [math.inf]
            for bound, c in zip(bounds, d["counts"]):
                cumulative += c
                lines.append(f'{pname}_bucket{{le="{_prom_num(bound)}"}}'
                             f' {cumulative}')
            lines.append(f"{pname}_sum {_prom_num(d['sum'])}")
            lines.append(f"{pname}_count {d['count']}")
        elif t == "windowed":
            # aggregate the retained slots into one histogram series
            # plus a gauge advertising the window length
            counts = [0] * (len(d["buckets"]) + 1)
            count, total = 0, 0.0
            for rec in d["data"].values():
                for i, c in enumerate(rec["counts"]):
                    counts[i] += c
                count += rec["count"]
                total += rec["sum"]
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            bounds = list(d["buckets"]) + [math.inf]
            for bound, c in zip(bounds, counts):
                cumulative += c
                lines.append(f'{pname}_bucket{{le="{_prom_num(bound)}"}}'
                             f' {cumulative}')
            lines.append(f"{pname}_sum {_prom_num(total)}")
            lines.append(f"{pname}_count {count}")
            lines.append(f"# TYPE {pname}_window_seconds gauge")
            lines.append(f"{pname}_window_seconds "
                         f"{_prom_num(d['slot_seconds'] * d['slots'])}")
        else:
            raise ValueError(f"unknown metric type {t!r} for {name!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------
def summarize_spans(spans):
    """Per-site rollup of an iterable of span dicts:
    ``{name: {"count", "total_s", "self_s", "mean_s", "max_s"}}``,
    insertion sorted by total time descending.  ``self_s`` is the
    exclusive time: each span's seconds minus those of its direct
    children in the same trace, whichever process recorded them, so
    over one whole trace the self times add up to the root's total."""
    spans = [s for s in spans if "name" in s and "seconds" in s]
    nested = {}  # (trace, parent span id) -> children's seconds
    for s in spans:
        if s.get("trace") is not None and s.get("parent") is not None:
            key = (s["trace"], s["parent"])
            nested[key] = nested.get(key, 0.0) + s["seconds"]
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["seconds"]
        row["self_s"] += s["seconds"] - nested.get(
            (s.get("trace"), s.get("span")), 0.0)
        row["max_s"] = max(row["max_s"], s["seconds"])
    for row in rows.values():
        row["mean_s"] = row["total_s"] / row["count"]
    return dict(sorted(rows.items(),
                       key=lambda kv: -kv[1]["total_s"]))


def build_span_tree(spans, trace=None):
    """Reassemble one trace's spans into ``(roots, children)``:
    ``roots`` are the span dicts whose parent is absent from the trace
    (normally exactly one — the client/root span) and ``children`` maps
    span id -> list of child span dicts.

    With ``trace=None`` and several trace ids present, raises
    ``ValueError`` — pass the id to disambiguate.
    """
    spans = [s for s in spans if s.get("trace") is not None]
    traces = {s["trace"] for s in spans}
    if trace is None:
        if len(traces) > 1:
            raise ValueError(f"{len(traces)} traces present; pass "
                             f"trace=... to pick one")
    else:
        spans = [s for s in spans if s["trace"] == trace]
    ids = {s["span"] for s in spans}
    roots = []
    children = {}
    for s in spans:
        parent = s.get("parent")
        if parent is None or parent not in ids:
            roots.append(s)
        else:
            children.setdefault(parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.get("start", 0.0))
    roots.sort(key=lambda s: s.get("start", 0.0))
    return roots, children


def format_span_tree(roots, children, indent=0):
    """Human-readable indented rendering of :func:`build_span_tree`."""
    lines = []
    for s in roots:
        tags = s.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        lines.append("  " * indent
                     + f"{s['name']}  {s['seconds'] * 1e3:.3f} ms"
                     + f"  [pid {s.get('pid', '?')}]"
                     + (f"  {tag_text}" if tag_text else ""))
        lines.extend(format_span_tree(children.get(s["span"], []),
                                      children, indent + 1))
    return lines


__all__ = [
    "render_prometheus",
    "summarize_spans",
    "build_span_tree",
    "format_span_tree",
]
