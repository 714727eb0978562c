"""Server benchmark: warm-pool serving vs fork-cold workers
(DESIGN.md §10).

Two modes:

* under pytest (part of the benchmark suite): times a mixed warm batch
  through an in-process :class:`~repro.server.pool.WarmWorkerPool`,
  asserting bit-parity with direct ``execute_query`` inline;

* as a script, the headline experiment of the server subsystem —

      PYTHONPATH=src python benchmarks/bench_server.py \\
          [--rows 64] [--cols 64] [--workers 4] ...

  races two ways of serving the same mixed query batch (distinct
  st-flow pairs and dual-distance pairs, each repeated — the
  steady-state shape of real traffic):

  1. **warm pool** — artifacts built once in the parent, workers forked
     afterwards (copy-on-write inheritance), every query load-balanced
     over the pool.  This is what ``repro.server`` deploys.
  2. **fork-cold** — every query handled by a fresh one-worker
     process: fork it, build a private catalog from scratch (CSR
     compile + BDD + Theorem 2.1 labeling for distance queries),
     answer, exit.  Measured on a small
     sample per query kind and extrapolated to the full mix — running
     the whole batch cold would take hours on a 64×64 grid, which is
     precisely the point.

  Parity is asserted inline (pool answers == in-process
  ``execute_query`` answers), so the reported throughputs can never
  come from a wrong answer.  Acceptance: warm pool >= 10x fork-cold.
"""

import argparse
import random
import time
from concurrent.futures import ProcessPoolExecutor

from _json_out import add_json_arg, emit_json

from repro.planar.generators import grid, randomize_weights
from repro.server import WarmWorkerPool
from repro.service import (
    DistanceQuery,
    FlowQuery,
    GraphCatalog,
    execute_query,
)


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_pool_warm_mixed_batch(benchmark, instances):
    """Steady-state mixed batch through a warm in-process pool."""
    g = instances["grid-large"]
    pool = WarmWorkerPool(workers=0)
    pool.register("g", g)
    pool.prewarm(kinds=("flow", "distance"))
    pool.start()
    nf = g.num_faces()
    queries = [FlowQuery("g", 0, g.n - 1),
               DistanceQuery("g", 0, nf - 1),
               DistanceQuery("g", 1, 2)] * 4

    report = benchmark(lambda: pool.run(queries))
    catalog = GraphCatalog()
    catalog.register("g", g)
    assert report.values() == [execute_query(catalog, q).result
                               for q in queries]
    benchmark.extra_info.update({"n": g.n, "queries": len(queries)})
    pool.close()


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------
def _cold_answer(name, graph, query):
    """Fork-cold worker: a private catalog, built from scratch, answers
    one query."""
    catalog = GraphCatalog()
    catalog.register(name, graph)
    return execute_query(catalog, query)


def _fmt(x):
    return f"{x:,.1f}".replace(",", " ")


def _mixed_batch(name, g, rng, flow_pairs, distance_pairs, repeats):
    nf = g.num_faces()
    queries = []
    for _ in range(flow_pairs):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        while t == s:
            t = rng.randrange(g.n)
        queries.append(FlowQuery(name, s, t))
    for _ in range(distance_pairs):
        queries.append(DistanceQuery(name, rng.randrange(nf),
                                     rng.randrange(nf)))
    return queries * repeats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--cols", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=4,
                    help="warm-pool worker processes")
    ap.add_argument("--flow-pairs", type=int, default=6,
                    help="distinct st-pairs in the mix")
    ap.add_argument("--distance-pairs", type=int, default=40,
                    help="distinct dual-face pairs in the mix")
    ap.add_argument("--repeats", type=int, default=5,
                    help="times the distinct mix repeats in the batch")
    ap.add_argument("--cold-flow-samples", type=int, default=2,
                    help="fork-cold st-flow measurements")
    ap.add_argument("--cold-distance-samples", type=int, default=1,
                    help="fork-cold distance measurements (each pays a "
                         "full BDD + labeling build)")
    add_json_arg(ap)
    args = ap.parse_args(argv)

    g = randomize_weights(grid(args.rows, args.cols), seed=args.seed,
                          directed_capacities=True)
    name = f"grid-{args.rows}x{args.cols}"
    rng = random.Random(args.seed)
    queries = _mixed_batch(name, g, rng, args.flow_pairs,
                           args.distance_pairs, args.repeats)
    n_flow = args.flow_pairs * args.repeats
    n_dist = args.distance_pairs * args.repeats
    print(f"instance: {args.rows}x{args.cols} grid, n={g.n}, m={g.m}, "
          f"faces={g.num_faces()}")
    print(f"mix: {len(queries)} queries ({n_flow} flow + {n_dist} "
          f"distance; {args.flow_pairs}+{args.distance_pairs} distinct)")

    # -- warm pool: prewarm in the parent, fork, serve the whole batch
    t0 = time.perf_counter()
    pool = WarmWorkerPool(workers=args.workers)
    pool.register(name, g)
    took = pool.prewarm(kinds=("flow", "distance"))
    pool.start()
    prewarm_s = time.perf_counter() - t0
    print(f"prewarm (once, pre-fork) : {prewarm_s:8.1f} s   "
          + "  ".join(f"{kind}={sec:.1f}s"
                      for (_n, kind), sec in took.items()))

    t0 = time.perf_counter()
    report = pool.run(queries)
    warm_s = time.perf_counter() - t0
    warm_qps = len(queries) / warm_s
    print(f"warm pool ({args.workers} workers)     : "
          f"{warm_s * 1e3 / len(queries):8.2f} ms/query "
          f"({_fmt(warm_qps)} q/s)")

    # parity: the pool's answers are bit-identical to in-process ones
    catalog = GraphCatalog()
    catalog.register(name, g.copy())
    sample = rng.sample(range(len(queries)), min(25, len(queries)))
    for i in sample:
        assert report.values()[i] == \
            execute_query(catalog, queries[i]).result, \
            f"pool answer diverges on {queries[i]}"
    pool.close()

    # -- fork-cold: per-query fresh process + private cold catalog,
    #    sampled per kind and extrapolated to the mix
    def cold_seconds(query, samples):
        total = 0.0
        for _ in range(samples):
            fresh = g.copy()  # fresh topology token: nothing cached
            t0 = time.perf_counter()
            with ProcessPoolExecutor(max_workers=1) as ex:
                r = ex.submit(_cold_answer, name, fresh, query).result()
            total += time.perf_counter() - t0
            assert r.result == execute_query(catalog, query).result
        return total / samples

    cold_flow_s = cold_seconds(queries[0], args.cold_flow_samples)
    print(f"fork-cold st-flow        : {cold_flow_s * 1e3:8.1f} "
          f"ms/query ({_fmt(1.0 / cold_flow_s)} q/s)")
    cold_dist_s = cold_seconds(
        DistanceQuery(name, 0, 1), args.cold_distance_samples)
    print(f"fork-cold distance       : {cold_dist_s * 1e3:8.1f} "
          f"ms/query ({_fmt(1.0 / cold_dist_s)} q/s)")

    cold_total_s = n_flow * cold_flow_s + n_dist * cold_dist_s
    cold_qps = len(queries) / cold_total_s
    speedup = warm_qps / cold_qps
    print(f"extrapolated cold mix    : {cold_total_s:8.1f} s "
          f"({_fmt(cold_qps)} q/s)")
    ok = speedup >= 10.0
    print(f"acceptance (warm pool >= 10x fork-cold): "
          f"{'PASS' if ok else 'FAIL'} ({speedup:,.0f}x)")
    emit_json(args.json, "server", {
        "instance": {"rows": args.rows, "cols": args.cols, "n": g.n,
                     "m": g.m},
        "workers": args.workers,
        "queries": len(queries),
        "prewarm_s": prewarm_s,
        "warm_pool_qps": warm_qps,
        "fork_cold_flow_s": cold_flow_s,
        "fork_cold_distance_s": cold_dist_s,
        "fork_cold_qps": cold_qps,
        "speedup": speedup,
    }, ok)
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
