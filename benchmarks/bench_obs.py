"""Observability overhead + stitched-trace benchmark (DESIGN.md §13).

Two acceptance gates:

1. **Disabled overhead ≤ 2%** — the ``repro.obs`` layer checks its
   own switch (``execute_query`` alone reads the flag, to skip its
   instrumented body), so with observability off the warm query path
   must cost within 2% of an uninstrumented replica.  The
   replica is exactly what ``execute_query`` did before the layer
   existed: entry lookup, backend resolution, and the untouched
   ``_serve`` core (cache probe + dispatch) — so the comparison
   isolates precisely the added branches.  Both sides run the same
   warm :class:`~repro.service.queries.DistanceQuery` mix over a grid
   (default 64×64) in *paired* batches: each batch times one pass of
   each side back to back, alternating which side goes first, and
   yields one paired ratio.  The gate reads the median paired ratio
   and the report gives its interquartile range, so host drift, which
   moves both halves of a pair together, cancels instead of deciding
   the verdict.

2. **Stitched cross-process trace, durations within 10% of wall** —
   with observability on, each query served through a forked 1-worker
   pool behind a live TCP server must produce exactly one trace whose
   spans parent-link into a single tree rooted at ``client.query``,
   spanning ≥ 2 processes, and the summed root-span durations must be
   within 10% of the wall time measured around the client calls — the
   spans really measure the query, not some fraction of it.

Under pytest (benchmark suite) the same paths run at smoke scale with
the structural assertions inline; timing gates are script-mode only.

    PYTHONPATH=src python benchmarks/bench_obs.py \\
        [--rows 64] [--cols 64] [--queries 200] [--trials 400] \\
        [--json BENCH_obs.json]
"""

import argparse
import random
import statistics
import time

from _json_out import add_json_arg, emit_json

from repro import obs
from repro.planar.generators import grid, randomize_weights
from repro.server import QueryServer, ServiceClient, WarmWorkerPool
from repro.service import DistanceQuery, GraphCatalog, execute_query
from repro.service.queries import _backend, _serve


def _make_instance(rows, cols, seed):
    return randomize_weights(grid(rows, cols), seed=seed,
                             directed_capacities=True)


def _warm_queries(name, g, count, seed):
    rng = random.Random(seed)
    nf = g.num_faces()
    pairs = {(rng.randrange(nf), rng.randrange(nf))
             for _ in range(max(8, count // 8))}
    distinct = [DistanceQuery(name, f, h) for f, h in sorted(pairs)]
    return [distinct[i % len(distinct)] for i in range(count)]


def _uninstrumented_replica(catalog, query):
    """The pre-obs ``execute_query`` body: lookup, resolve, serve."""
    entry = catalog.get(query.graph)
    return _serve(catalog, entry, query, _backend(query))


def _timed_pass(serve, catalog, queries):
    t0 = time.perf_counter()
    for q in queries:
        serve(catalog, q)
    return time.perf_counter() - t0


def measure_disabled_overhead(g, queries, trials):
    """Disabled-path overhead from ``trials`` paired batches.

    Each batch times one pass of ``execute_query`` and one of the
    replica back to back, the first side alternating between batches.
    Returns ``(instrumented_s, replica_s, overhead_frac, iqr)``: the
    median per-query time of each side, the median paired ratio minus
    one, and that ratio's (q1, q3) minus one.
    """
    assert not obs.enabled()
    catalog = GraphCatalog()
    catalog.register("g", g)
    for q in queries:
        r = execute_query(catalog, q)
        assert _uninstrumented_replica(catalog, q).result == r.result
    sides = {execute_query: [], _uninstrumented_replica: []}
    for i in range(trials):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for serve in order:
            sides[serve].append(_timed_pass(serve, catalog, queries))
    inst, repl = sides[execute_query], sides[_uninstrumented_replica]
    ratios = [a / b for a, b in zip(inst, repl)]
    if len(ratios) > 1:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
    else:
        q1 = q3 = ratios[0]
    inst_s = statistics.median(inst) / len(queries)
    repl_s = statistics.median(repl) / len(queries)
    return (inst_s, repl_s, statistics.median(ratios) - 1.0,
            (q1 - 1.0, q3 - 1.0))


def measure_stitched_traces(g, queries, workers=1):
    """Serve ``queries`` through a forked pool + TCP server with the
    layer on; returns ``(wall_s, span_s, trees)`` where ``trees`` is a
    list of per-query structural summaries (one stitched tree each)."""
    ring = obs.RingBufferSink()
    obs.enable(ring)
    try:
        pool = WarmWorkerPool(workers=workers)
        pool.register("g", g)
        pool.prewarm(kinds=("distance",))
        pool.start()
        server = QueryServer(pool).start_background()
        host, port = server.address
        wall_s = 0.0
        with ServiceClient(host, port, timeout=60) as client:
            for q in queries:
                t0 = time.perf_counter()
                client.query(q)
                wall_s += time.perf_counter() - t0
            pool.drain()
        # worker span deltas ride the reply frames; the last ones land
        # just after the futures resolve
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            roots = [s for s in ring.spans(name="client.query")]
            done = {s["trace"] for s in ring.spans(name="query.execute")}
            if len(roots) == len(queries) \
                    and all(r["trace"] in done for r in roots):
                break
            time.sleep(0.05)
        server.shutdown()
        pool.close()
        trees = []
        span_s = 0.0
        for root in ring.spans(name="client.query"):
            spans = ring.spans(trace=root["trace"])
            ids = {s["span"] for s in spans}
            orphans = [s for s in spans
                       if s["parent"] is not None
                       and s["parent"] not in ids]
            roots = [s for s in spans if s["parent"] is None]
            trees.append({
                "trace": root["trace"],
                "spans": len(spans),
                "pids": len({s["pid"] for s in spans}),
                "single_root": len(roots) == 1,
                "orphans": len(orphans),
                "names": sorted({s["name"] for s in spans}),
            })
            span_s += root["seconds"]
        return wall_s, span_s, trees
    finally:
        obs.reset()


def check_trees(trees, count, expect_pids=2):
    """Every query yields one fully stitched, cross-process tree."""
    ok = len(trees) == count
    for t in trees:
        ok = ok and t["single_root"] and t["orphans"] == 0 \
            and t["pids"] >= expect_pids \
            and {"client.query", "server.query",
                 "query.execute"} <= set(t["names"])
    return ok


# ----------------------------------------------------------------------
# pytest mode (structural smoke; timing gates are script-mode)
# ----------------------------------------------------------------------
def test_obs_disabled_overhead_smoke(benchmark, instances):
    obs.reset()
    g = instances["grid-large"]
    catalog = GraphCatalog()
    catalog.register("g", g)
    queries = _warm_queries("g", g, 64, seed=5)
    for q in queries:
        execute_query(catalog, q)
    benchmark(lambda: [execute_query(catalog, q) for q in queries])
    # disabled means *nothing* was recorded
    assert obs.registry().snapshot() == {}
    benchmark.extra_info.update({"n": g.n, "queries": len(queries)})


def test_obs_stitched_trace_smoke(instances):
    obs.reset()
    g = instances["grid-small"]
    queries = _warm_queries("g", g, 6, seed=5)
    wall_s, span_s, trees = measure_stitched_traces(g, queries)
    assert check_trees(trees, len(queries))
    assert 0 < span_s <= wall_s * 1.10


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------
def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--cols", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--queries", type=int, default=200,
                    help="warm distance queries per overhead trial")
    ap.add_argument("--trials", type=int, default=400,
                    help="paired, order-alternating timing batches "
                         "(the median paired ratio is gated)")
    ap.add_argument("--traced-queries", type=int, default=10,
                    help="queries served for the stitched-trace gate")
    ap.add_argument("--max-overhead", type=float, default=0.02,
                    help="disabled-path overhead gate (fraction)")
    add_json_arg(ap)
    args = ap.parse_args(argv)

    g = _make_instance(args.rows, args.cols, args.seed)
    print(f"instance: {args.rows}x{args.cols} grid, n={g.n}, m={g.m}, "
          f"faces={g.num_faces()}")

    # -- gate 1: disabled overhead on the warm query path
    obs.reset()
    queries = _warm_queries("g", g, args.queries, seed=args.seed)
    inst_s, repl_s, overhead, (iqr_lo, iqr_hi) = \
        measure_disabled_overhead(g, queries, args.trials)
    print(f"warm query, obs disabled : {inst_s * 1e6:8.2f} us/query")
    print(f"warm query, uninstrum.   : {repl_s * 1e6:8.2f} us/query")
    ok1 = overhead <= args.max_overhead
    print(f"acceptance (disabled overhead <= "
          f"{args.max_overhead:.0%}): "
          f"{'PASS' if ok1 else 'FAIL'} ({overhead:+.2%} median of "
          f"{args.trials} paired batches, IQR {iqr_lo:+.2%} to "
          f"{iqr_hi:+.2%})")

    # -- gate 2: stitched cross-process trace, durations ~ wall
    traced = _warm_queries("g", g, args.traced_queries,
                           seed=args.seed + 1)
    wall_s, span_s, trees = measure_stitched_traces(g, traced)
    stitched = check_trees(trees, len(traced))
    ratio = span_s / wall_s if wall_s > 0 else 0.0
    ok2 = stitched and abs(ratio - 1.0) <= 0.10
    pids = max((t["pids"] for t in trees), default=0)
    print(f"traced queries           : {len(traced)} over "
          f"{pids} processes; root spans cover {ratio:.1%} of "
          f"{wall_s * 1e3:.1f} ms wall")
    print(f"acceptance (stitched tree, span sum within 10% of wall): "
          f"{'PASS' if ok2 else 'FAIL'}")

    ok = ok1 and ok2
    emit_json(args.json, "obs", {
        "instance": {"rows": args.rows, "cols": args.cols, "n": g.n,
                     "m": g.m},
        "queries": len(queries),
        "trials": args.trials,
        "warm_disabled_s": inst_s,
        "warm_uninstrumented_s": repl_s,
        "disabled_overhead_frac": overhead,
        "disabled_overhead_iqr": [iqr_lo, iqr_hi],
        "traced_queries": len(traced),
        "traced_wall_s": wall_s,
        "traced_span_s": span_s,
        "span_wall_ratio": ratio,
        "stitched": stitched,
        "max_pids": pids,
    }, ok)
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
