"""Benchmark entry point.

    python3 perfbench/run.py --workload catalog-read --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (``catalog-read``, ``served-read`` or ``reprice``) on
inputs made from ``--seed``, checks every answer against computations
made apart from the program, prints the attempted and failed operations
per kind, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the workload runs traced, followed by short probes of the
layers it does not reach (``probe.py``), and the metrics are the
per-layer ones.  Every workload prints every metric of its mode; the
figures that exist on one workload only (the p50 of each operation
kind, self time per layer, the cached-flow server figures) are printed
on the ``more figures:`` line before the result.  The spans of the
traced run are written to ``perfbench/out/``.

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("catalog-read", "served-read", "reprice")


def make_workload(name, seed, seconds):
    import workloads

    if name == "catalog-read":
        return workloads.CatalogRead(seed, seconds)
    if name == "served-read":
        return workloads.ServedRead(seed, seconds, str(SRC))
    return workloads.Reprice(seed, seconds)


def warm_up():
    """Import and first-call costs, paid once before any measured pass:
    every query kind and a write on a small grid."""
    from repro.planar.generators import grid, randomize_weights
    from repro.service import (CutQuery, DistanceQuery, FlowQuery,
                               GirthQuery, GraphCatalog)

    catalog = GraphCatalog()
    catalog.register("warm", randomize_weights(grid(6, 6), seed=0,
                                               directed_capacities=True))
    for q in (FlowQuery("warm", 0, 35), CutQuery("warm", 0, 35),
              DistanceQuery("warm", 0, 3), GirthQuery("warm")):
        catalog.serve(q)
    catalog.mutate_weights("warm", {0: 30})
    catalog.serve(DistanceQuery("warm", 0, 3))
    catalog.unregister("warm")


def run_pass(workload, tracer=None):
    """One full pass (set-up and timed phase); returns the outcome with
    its wall time."""
    from workloads import Outcome

    out = Outcome()
    t0 = time.perf_counter()
    if tracer:
        tracer.begin("bench", "harness")
    workload.run(out, tracer)
    if tracer:
        tracer.end()
    out.wall_s = time.perf_counter() - t0
    return out


#: the end-to-end metrics (``--trace 0``), printed on every workload
END_TO_END = ("setup_s", "throughput_ops", "distance_p50_ms",
              "heavy_p50_ms", "peak_rss_mb")

#: the per-layer metrics (``--trace 1``), printed on every workload
PER_LAYER = (
    "engine.compile_ms", "bdd.build_s", "bdd.dual_bags_s",
    "labeling.build_s", "core.flow_solver_ms", "core.flow_solve_p50_ms",
    "core.flow_probes", "core.cut_p50_ms", "labeling.decode_p50_us",
    "core.girth_p50_ms", "service.fingerprint_p50_us",
    "service.hit_p50_us", "service.mutate_p50_ms",
    "service.first_read_p50_ms", "labeling.dirty_bags",
    "labeling.rebuild_fallbacks", "service.results_migrated",
    "wire.distance_frame_us", "wire.flow_frame_ms", "wire.flow_frame_kb",
    "server.ready_s", "server.inline_p50_ms", "server.pool_hop_p50_ms",
    "trace.overhead_s", "trace.unattributed_ms", "trace.wall_ms",
    "host.calibration_us")

#: the distance tail is the median over this many consecutive slices of
#: the timed phase, so a burst of host noise in one slice does not move it
SLICES = 10


def sliced(items, k=SLICES):
    n = len(items)
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


def end_to_end(out, heavy):
    """The end-to-end metrics, and the p50 of every sampled operation
    kind in ms (with the distance p99 where the run has enough samples)
    for the line before the result."""
    from common import metric, p50, percentile

    s = out.ops.samples
    ms = 1e3
    kinds = {f"{kind}_p50_ms": round(p50(v) * ms, 4)
             for kind, v in sorted(s.items())}
    # a p99 needs 1000 samples (ten beyond it) in every slice
    if len(s.get("distance", ())) >= 1000 * SLICES:
        kinds["distance_p99_ms"] = round(p50(
            [percentile(part, 99) for part in sliced(s["distance"])])
            * ms, 4)
    m = {"setup_s": metric(p50(out.setup), "s"),
         "throughput_ops": metric(len(out.answers) / out.timed_s, "1/s"),
         "distance_p50_ms": metric(p50(s["distance"]) * ms, "ms"),
         "heavy_p50_ms": metric(p50(s[heavy]) * ms, "ms"),
         "peak_rss_mb": metric(out.peak_rss_mb, "MB")}
    return m, kinds


def traced(name, workload, seed):
    """Traced pass, the layer probes it needs, per-layer metrics (and
    the figures outside the manifest, for the line before the result)."""
    import random

    import probe
    import tracer as tracing
    from common import metric, p50
    from repro.service import FlowQuery

    us, ms = 1e6, 1e3
    m, more = {}, {}
    served = name == "served-read"
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        out = run_pass(workload, tr)
        spans = len(tr.spans)
        if served:
            catalog, inproc = served_inproc(workload, tr)
        else:
            catalog = out.catalog
            probe_hits(workload.hit_query(), catalog, tr)
    finally:
        tr.unpatch()
    if served:
        inline = served_inline(workload)
    workload.check(out, **({"catalog": catalog} if served else {}))

    main = workload.main()
    gname, graph, _, _ = main
    rng = random.Random(seed * 7919 + 17)
    probes = out.extra.get("probes")
    writes = out.extra if "dirty_bags" in out.extra else None
    tr.phase = "probe"
    tracing.install(tr)
    try:
        if probes is None:
            probes = probe.flow_probe(catalog, main, rng, tr, out.ops,
                                      avoid=getattr(workload, "cached", ()))
        if writes is None:
            writes = probe.write_probe(catalog, main, rng, tr, out.ops)
    finally:
        tr.unpatch()

    selfs = tr.self_times(0, spans)
    more["self_ms"] = {k: round(v * ms, 3) for k, v in sorted(selfs.items())}
    m["trace.unattributed_ms"] = metric(selfs.get("harness", 0.0) * ms,
                                        "ms")
    m["trace.wall_ms"] = metric(out.wall_s * ms, "ms")
    m["trace.overhead_s"] = metric(probe.span_cost(tracing.Tracer)
                                   * (spans - 1), "s")
    m["host.calibration_us"] = metric(p50(out.clock.calibrations) * us,
                                      "us")

    def built(span_name, scale, unit, key):
        per_rep = tr.phase_sums(span_name, "setup")
        if per_rep:
            m[key] = metric(p50(per_rep) * scale, unit)

    built("compile_graph", ms, "ms", "engine.compile_ms")
    built("build_bdd", 1, "s", "bdd.build_s")
    built("build_all_dual_bags", 1, "s", "bdd.dual_bags_s")
    built("DualDistanceLabeling", 1, "s", "labeling.build_s")
    built("PlanarMaxFlow", ms, "ms", "core.flow_solver_ms")

    def spans_p50(span_name, op, scale, unit, key):
        d = tr.durations_under(span_name, op)
        if d:
            m[key] = metric(p50(d) * scale, unit)

    spans_p50("PlanarMaxFlow.solve", "op.flow", ms, "ms",
              "core.flow_solve_p50_ms")
    m["core.flow_probes"] = metric(probes, "count")
    spans_p50("min_st_cut", "op.cut", ms, "ms", "core.cut_p50_ms")
    spans_p50("DualDistanceLabeling.distance", None, us, "us",
              "labeling.decode_p50_us")
    spans_p50("weighted_girth", None, ms, "ms", "core.girth_p50_ms")
    spans_p50("CatalogEntry.fingerprint", None, us, "us",
              "service.fingerprint_p50_us")
    spans_p50("GraphCatalog.serve", "op.hit", us, "us",
              "service.hit_p50_us")
    spans_p50("GraphCatalog.mutate_weights", None, ms, "ms",
              "service.mutate_p50_ms")
    spans_p50("op.first_read", None, ms, "ms", "service.first_read_p50_ms")
    for key in ("dirty_bags", "rebuild_fallbacks", "results_migrated"):
        m[("service." if key == "results_migrated" else "labeling.")
          + key] = metric(writes[key], "count")

    dq = next(q for kind, q in workload.sequence
              if kind in ("distance", "first_read"))
    m["wire.distance_frame_us"] = metric(
        probe.frame_cost(catalog, dq)[0] * us, "us")
    fq = (workload.cached[0] if served
          else FlowQuery(gname, 0, graph.n - 1))
    t, size = probe.frame_cost(catalog, fq)
    m["wire.flow_frame_ms"] = metric(t * ms, "ms")
    m["wire.flow_frame_kb"] = metric(size / 1024.0, "KB")

    if served:
        pooled = out.ops.samples
        m["server.ready_s"] = metric(p50(out.setup), "s")
        for kind, key in (("distance", ""), ("cached", "_cached")):
            w0 = p50(inline.ops.samples[kind])
            w1 = p50(pooled[kind])
            more[f"server.inproc{key}_p50_ms"] = \
                p50(inproc.ops.samples[kind]) * ms
            m[f"server.inline{key}_p50_ms"] = metric(w0 * ms, "ms")
            m[f"server.pool_hop{key}_p50_ms"] = metric((w1 - w0) * ms,
                                                       "ms")
    else:
        ready, reads = probe.server_probe(str(SRC), main, rng, out.ops)
        m["server.ready_s"] = metric(ready, "s")
        m["server.inline_p50_ms"] = metric(reads[0] * ms, "ms")
        m["server.pool_hop_p50_ms"] = metric((reads[1] - reads[0]) * ms,
                                             "ms")

    dump = HERE / "out" / f"{name}-seed{seed}.spans.jsonl"
    dump.parent.mkdir(exist_ok=True)
    tr.dump(dump)
    print(f"spans: {dump.relative_to(HERE.parent)}")
    more.update({k: v["value"] for k, v in m.items()
                 if k not in PER_LAYER})
    return out, {k: m[k] for k in PER_LAYER if k in m}, more


def probe_hits(query, catalog, tr, repeats=200):
    """Time ``GraphCatalog.serve`` of one repeated query (a result cache
    hit), outside the traced pass."""
    catalog.serve(query)
    tr.phase = "probe"
    for _ in range(repeats):
        tr.begin("op.hit", "harness")
        catalog.serve(query)
        tr.end()


def served_inproc(workload, tr):
    """The served queries in-process, traced, on a catalog built as the
    server builds it; the cold-build, decode and probe figures of
    ``served-read`` come from here."""
    from workloads import Outcome, drive

    tr.phase = "setup-inproc"
    catalog = workload.local_catalog()
    tr.phase = "inproc"
    inproc = Outcome()
    drive(workload.sequence, lambda kind, q: catalog.serve(q).result,
          inproc, tr)
    probe_hits(workload.cached[0], catalog, tr)
    return catalog, inproc


def served_inline(workload):
    """The served queries on a ``--workers 0`` server, untraced."""
    from common import on_all_cpus
    from workloads import Outcome

    inline = Outcome()
    with on_all_cpus():
        server, client = workload.start(0)
        try:
            workload.serve_all(client, inline)
        finally:
            client.close()
            server.close()
    return inline


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # in-process work and every set-up run on one CPU, so the busy
    # process never migrates; served operations leave it (see
    # common.on_all_cpus)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = make_workload(args.workload, args.seed, args.seconds)
    warm_up()
    if args.trace:
        out, metrics, more = traced(args.workload, workload, args.seed)
        names = PER_LAYER
    else:
        out = run_pass(workload)
        workload.check(out)
        metrics, more = end_to_end(out, workload.HEAVY)
        names = END_TO_END
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"perfbench: no figure for {', '.join(missing)}",
              file=sys.stderr)
        return 1

    ops = out.ops
    print("more figures: " + json.dumps(more))
    print("operations: " + json.dumps(ops.table()))
    for line in ops.wrong[:10] + ops.unexpected[:10]:
        print("problem: " + line)
    correct = not ops.wrong and not ops.unexpected
    print(json.dumps({"correct": correct,
                      "attempted": ops.total_attempted(),
                      "failed": ops.total_failed(),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
