"""CLI for the observability layer (DESIGN.md §13/§15)::

    python -m repro.obs tail obs.ndjson [--limit 20] [--trace ID]
    python -m repro.obs summarize obs.ndjson
    python -m repro.obs tree obs.ndjson [--trace ID]
    python -m repro.obs scrape HOST:PORT [--format prometheus]
    python -m repro.obs health HOST:PORT [--format prometheus]
    python -m repro.obs exemplars HOST:PORT [--limit K] [--trees]

``tail`` pretty-prints the last spans of an
:class:`~repro.obs.sink.NdjsonFileSink` log, ``summarize`` rolls the
log up per site, ``tree`` reassembles one trace's stitched span tree,
and ``scrape`` fetches the live ``metrics`` wire verb from a running
``repro.server`` and prints the snapshot (or Prometheus text).
``health`` fetches the liveness/SLO report (exit code 0 on ``ok``, 1
on ``warn``, 2 on ``breach`` — scriptable as a probe) and
``exemplars`` dumps the server flight recorder's retained span trees.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import (
    build_span_tree,
    format_span_tree,
    summarize_spans,
)
from repro.obs.sink import read_ndjson


def _load_spans(path, trace=None):
    spans = [r for r in read_ndjson(path) if r.get("type") == "span"]
    if trace is not None:
        spans = [s for s in spans if s.get("trace") == trace]
    return spans


def _cmd_tail(args):
    spans = _load_spans(args.path, args.trace)
    for s in spans[-args.limit:]:
        tags = s.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
        print(f"{s.get('start', 0):.6f} {s.get('trace', '-'):<28} "
              f"{s.get('name', '?'):<28} {s.get('seconds', 0) * 1e3:9.3f} ms "
              f"pid={s.get('pid', '?')}"
              + (f" {tag_text}" if tag_text else ""))
    return 0


def _cmd_summarize(args):
    spans = _load_spans(args.path, args.trace)
    rows = summarize_spans(spans)
    if not rows:
        print("no spans")
        return 0
    width = max(len(name) for name in rows)
    print(f"{'site':<{width}}  {'count':>7}  {'total':>10}  "
          f"{'self':>10}  {'mean':>10}  {'max':>10}")
    for name, row in rows.items():
        print(f"{name:<{width}}  {row['count']:>7}  "
              f"{row['total_s'] * 1e3:>8.3f}ms  "
              f"{row['self_s'] * 1e3:>8.3f}ms  "
              f"{row['mean_s'] * 1e3:>8.3f}ms  "
              f"{row['max_s'] * 1e3:>8.3f}ms")
    return 0


def _cmd_tree(args):
    spans = _load_spans(args.path, args.trace)
    if not spans:
        print("no spans")
        return 0
    trace = args.trace
    if trace is None:
        trace = spans[-1]["trace"]  # default: the most recent trace
    roots, children = build_span_tree(spans, trace=trace)
    print(f"trace {trace}:")
    for line in format_span_tree(roots, children):
        print(line)
    return 0


def _cmd_scrape(args):
    from repro.server.client import ServiceClient

    host, _, port = args.address.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port),
                       timeout=args.timeout) as client:
        payload = client.metrics(format=args.format)
    if args.format == "prometheus":
        sys.stdout.write(payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _cmd_health(args):
    from repro.server.client import ServiceClient

    host, _, port = args.address.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port),
                       timeout=args.timeout) as client:
        payload = client.health(format=args.format)
    if args.format == "prometheus":
        sys.stdout.write(payload)
        return 0
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return {"ok": 0, "warn": 1, "breach": 2}.get(
        payload.get("status"), 2)


def _cmd_exemplars(args):
    from repro.obs.export import build_span_tree, format_span_tree
    from repro.server.client import ServiceClient

    host, _, port = args.address.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port),
                       timeout=args.timeout) as client:
        dump = client.exemplars(limit=args.limit)
    if not args.trees:
        json.dump(dump, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    for entry in dump.get("exemplars", []):
        print(f"trace {entry['trace']}  [{entry['reason']}]  "
              f"{entry['seconds'] * 1e3:.3f} ms  "
              f"kind={entry.get('kind')}")
        roots, children = build_span_tree(entry["spans"],
                                          trace=entry["trace"])
        for line in format_span_tree(roots, children, indent=1):
            print(line)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="tail/summarize observability logs and scrape a "
                    "live server's metrics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tail", help="print the last spans of an "
                                    "NDJSON span log")
    p.add_argument("path")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser("summarize", help="per-site rollup of a span log")
    p.add_argument("path")
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("tree", help="stitched span tree of one trace")
    p.add_argument("path")
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("scrape", help="fetch the metrics verb from a "
                                      "running repro.server")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("--format", choices=("snapshot", "prometheus"),
                   default="prometheus")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(fn=_cmd_scrape)

    p = sub.add_parser("health", help="fetch the health verb from a "
                                      "running repro.server (exit "
                                      "0=ok 1=warn 2=breach)")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("--format", choices=("report", "prometheus"),
                   default="report")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(fn=_cmd_health)

    p = sub.add_parser("exemplars", help="dump the server flight "
                                         "recorder's exemplar traces")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--trees", action="store_true",
                   help="render each exemplar as an indented span "
                        "tree instead of JSON")
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(fn=_cmd_exemplars)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
