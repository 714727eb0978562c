"""Serving-layer benchmark: queries/sec cold vs warm (DESIGN.md §8).

Two modes:

* under pytest (part of the benchmark suite): times warm serving of
  repeated flow queries and label-decoded distance queries on the
  shared small instances, asserting parity with the per-call entry
  points inline;

* as a script, the headline experiment of the serving subsystem —

      PYTHONPATH=src python benchmarks/bench_service.py \
          [--rows 64] [--cols 64] [--seed 7] ...

  measures, on a rows x cols grid:

  1. **st-flow, cold** — every query pays the full per-call cost
     (fresh topology compile + workspace + solve), which is what the
     repo did before the catalog existed;
  2. **st-flow, warm** — the same repeated query served from the
     catalog (artifacts + result cache).  Acceptance: >= 10x;
  3. **st-flow, warm / distinct pairs** — artifact reuse only (every
     pair still solves), the steady-state cost of new queries, against
     a cold solve (fresh topology) of the same pairs;
  3b. **st-cut after its flow** — a cut of each of those pairs, served
     right after its flow: the memoized flow plus one residual sweep
     (Theorem 6.1), against a cold cut of the same pair on a catalog
     that holds the solver but no memoized flow.  Acceptance: the cut
     after its flow costs <= 0.1x the cold cut (total over the pairs;
     the report adds the interquartile range of the per-pair ratios);
  4. **dual distance, cold** — one Theorem 2.1 labeling build per
     query, measured twice: the legacy recursion (what every miss paid
     before the engine labeling path of DESIGN.md §9) and the served
     miss (engine build over shared-cached compiled bag arrays);
  5. **dual distance, warm** — distinct pairs decoded from the cached
     labels (Lemma 2.2).  Acceptance: >= 100x over the served miss.

  Parity is asserted inline (catalog answers == per-call answers ==
  networkx oracle), so the reported throughputs can never come from a
  wrong answer.
"""

import argparse
import random
import statistics
import time

import pytest

from _json_out import add_json_arg, emit_json

from repro.bdd import build_bdd
from repro.core import (
    flow_value_networkx,
    max_st_flow,
    min_st_cut,
    weighted_girth,
)
from repro.labeling import DualDistanceLabeling
from repro.planar.generators import grid, randomize_weights
from repro.service import (
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    GraphCatalog,
    default_dual_lengths,
)


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_service_warm_flow_queries(benchmark, instances):
    """Steady-state repeated flow query: result-cache lookup."""
    g = instances["grid-large"]
    catalog = GraphCatalog()
    catalog.register("g", g)
    q = FlowQuery("g", 0, g.n - 1)
    cold = catalog.serve(q)

    res = benchmark(lambda: catalog.serve(q))
    assert res.warm is True
    assert res.result is cold.result
    assert res.result == max_st_flow(g, 0, g.n - 1, backend="engine")
    benchmark.extra_info.update({"n": g.n, "value": res.result.value})


def test_service_warm_distance_queries(benchmark, instances):
    """Steady-state distinct distance queries: label decode only."""
    g = instances["grid-small"]
    catalog = GraphCatalog()
    catalog.register("g", g)
    nf = g.num_faces()
    catalog.serve(DistanceQuery("g", 0, 1))  # builds the labeling
    pairs = [(f, h) for f in range(min(nf, 6)) for h in range(min(nf, 6))]

    def run():
        return [catalog.serve(DistanceQuery("g", f, h)).result
                for f, h in pairs]

    values = benchmark(run)
    lab = DualDistanceLabeling(build_bdd(g), default_dual_lengths(g))
    assert values == [lab.distance(f, h) for f, h in pairs]
    benchmark.extra_info.update({"pairs": len(pairs)})


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------
def _fmt_qps(x):
    return f"{x:,.1f}".replace(",", " ")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--cols", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cold-iters", type=int, default=3,
                    help="cold st-flow measurements (fresh compile each)")
    ap.add_argument("--flow-repeats", type=int, default=200,
                    help="warm repeats of the same st-flow query")
    ap.add_argument("--distinct-pairs", type=int, default=8,
                    help="distinct st-pairs for the artifact-reuse row")
    ap.add_argument("--distance-pairs", type=int, default=500,
                    help="distinct warm distance queries")
    add_json_arg(ap)
    args = ap.parse_args(argv)

    g = randomize_weights(grid(args.rows, args.cols), seed=args.seed,
                          directed_capacities=True)
    s, t = 0, g.n - 1
    name = f"grid-{args.rows}x{args.cols}"
    print(f"instance: {args.rows}x{args.cols} grid, n={g.n}, m={g.m}, "
          f"faces={g.num_faces()}")

    # -- 1. cold st-flow: full per-call cost, fresh topology each time
    cold_s = 0.0
    cold_value = None
    for _ in range(args.cold_iters):
        fresh = g.copy()  # new instance -> new topology token -> cold
        t0 = time.perf_counter()
        res = max_st_flow(fresh, s, t, directed=True, backend="engine")
        cold_s += time.perf_counter() - t0
        cold_value = res.value
    cold_s /= args.cold_iters
    cold_qps = 1.0 / cold_s
    assert cold_value == flow_value_networkx(g, s, t, directed=True), \
        "engine value does not match the networkx oracle"
    print(f"st-flow  cold          : {cold_s * 1e3:8.1f} ms/query "
          f"({_fmt_qps(cold_qps)} q/s)  value={cold_value}")

    # -- 2. warm st-flow: repeated query through the catalog
    catalog = GraphCatalog()
    catalog.register(name, g)
    q = FlowQuery(name, s, t)
    first = catalog.serve(q)
    assert first.result.value == cold_value
    t0 = time.perf_counter()
    for _ in range(args.flow_repeats):
        warm = catalog.serve(q)
    warm_flow_s = (time.perf_counter() - t0) / args.flow_repeats
    warm_flow_qps = 1.0 / warm_flow_s
    assert warm.warm and warm.result == first.result
    flow_speedup = warm_flow_qps / cold_qps
    print(f"st-flow  warm repeated : {warm_flow_s * 1e6:8.1f} us/query "
          f"({_fmt_qps(warm_flow_qps)} q/s)  "
          f"speedup {flow_speedup:,.0f}x")

    # -- 3. warm st-flow, distinct pairs: artifact reuse only, against
    #       a cold solve of the same pairs (a solve's cost depends on
    #       its endpoints, so row 1's single pair is no yardstick)
    rng = random.Random(args.seed)
    pairs = []
    while len(pairs) < args.distinct_pairs:
        a, b = rng.randrange(g.n), rng.randrange(g.n)
        if a != b and (a, b) not in pairs:
            pairs.append((a, b))
    t0 = time.perf_counter()
    warm_values = [catalog.serve(FlowQuery(name, a, b)).result.value
                   for a, b in pairs]
    distinct_s = (time.perf_counter() - t0) / len(pairs)
    cold_distinct_s = 0.0
    for (a, b), value in zip(pairs, warm_values):
        fresh = g.copy()
        t0 = time.perf_counter()
        res = max_st_flow(fresh, a, b, directed=True, backend="engine")
        cold_distinct_s += time.perf_counter() - t0
        assert res.value == value, "warm distinct flow mismatch"
    cold_distinct_s /= len(pairs)
    print(f"st-flow  cold distinct : {cold_distinct_s * 1e3:8.1f} ms/query "
          f"({_fmt_qps(1.0 / cold_distinct_s)} q/s)")
    print(f"st-flow  warm distinct : {distinct_s * 1e3:8.1f} ms/query "
          f"({_fmt_qps(1.0 / distinct_s)} q/s)  "
          f"amortization {cold_distinct_s / distinct_s:.2f}x")

    # -- 3b. st-cut right after its flow vs a cold cut of the same pair
    cold_catalog = GraphCatalog()
    cold_catalog.register(name, g)
    cold_catalog.get(name).flow_solver()  # warm solver, no results
    cold_times, after_times = [], []
    for a, b in pairs:
        t0 = time.perf_counter()
        cold_cut = cold_catalog.serve(CutQuery(name, a, b))
        cold_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        after = catalog.serve(CutQuery(name, a, b))
        after_times.append(time.perf_counter() - t0)
        assert not cold_cut.warm and not after.warm
        assert after.result == cold_cut.result == \
            min_st_cut(g, a, b, backend="engine"), "cut mismatch"
    cut_cold_s = sum(cold_times) / len(pairs)
    cut_after_s = sum(after_times) / len(pairs)
    cut_ratio = cut_after_s / cut_cold_s
    pair_ratios = [x / y for x, y in zip(after_times, cold_times)]
    cut_iqr = (statistics.quantiles(pair_ratios, n=4)[0::2]
               if len(pairs) > 1 else pair_ratios * 2)
    print(f"st-cut   cold          : {cut_cold_s * 1e3:8.1f} ms/query "
          f"({_fmt_qps(1.0 / cut_cold_s)} q/s)")
    print(f"st-cut   after its flow: {cut_after_s * 1e3:8.3f} ms/query "
          f"({_fmt_qps(1.0 / cut_after_s)} q/s)  "
          f"{cut_ratio:.3f}x the cold cut")

    # -- girth through the same catalog (oracle warm on repeat)
    gq = catalog.serve(GirthQuery(name))
    assert gq.result == weighted_girth(g, backend="engine")
    assert catalog.serve(GirthQuery(name)).warm

    # -- 4. cold distance: one Theorem 2.1 labeling build per query.
    #       The legacy row is what every miss paid before the engine
    #       labeling path (DESIGN.md §9); the served row is the actual
    #       miss cost — the catalog builds the labeling on the engine
    #       backend over shared-cached compiled bag arrays.
    t0 = time.perf_counter()
    lab = DualDistanceLabeling(build_bdd(g), default_dual_lengths(g))
    ref01 = lab.distance(0, 1)
    cold_legacy_s = time.perf_counter() - t0
    print(f"distance cold legacy   : {cold_legacy_s * 1e3:8.1f} ms/query "
          f"({_fmt_qps(1.0 / cold_legacy_s)} q/s)  [legacy Thm 2.1 "
          f"build]")

    t0 = time.perf_counter()
    first_dist = catalog.serve(DistanceQuery(name, 0, 1))
    cold_dist_s = time.perf_counter() - t0
    assert first_dist.warm is False and first_dist.backend == "engine"
    print(f"distance cold served   : {cold_dist_s * 1e3:8.1f} ms/query "
          f"({_fmt_qps(1.0 / cold_dist_s)} q/s)  [engine Thm 2.1 "
          f"build; miss speedup {cold_legacy_s / cold_dist_s:.1f}x]")

    # -- 5. warm distance: distinct pairs decoded from cached labels
    assert first_dist.result == ref01
    nf = g.num_faces()
    fh = [(rng.randrange(nf), rng.randrange(nf))
          for _ in range(args.distance_pairs)]
    t0 = time.perf_counter()
    values = [catalog.serve(DistanceQuery(name, f, h)).result
              for f, h in fh]
    warm_dist_s = (time.perf_counter() - t0) / len(fh)
    warm_dist_qps = 1.0 / warm_dist_s
    dist_speedup = warm_dist_qps * cold_dist_s
    print(f"distance warm distinct : {warm_dist_s * 1e6:8.1f} us/query "
          f"({_fmt_qps(warm_dist_qps)} q/s)  "
          f"speedup {dist_speedup:,.0f}x")
    sample = rng.sample(range(len(fh)), min(20, len(fh)))
    for i in sample:
        f, h = fh[i]
        assert values[i] == lab.distance(f, h), "warm decode mismatch"

    ok_flow = flow_speedup >= 10.0
    ok_dist = dist_speedup >= 100.0
    ok_cut = cut_ratio <= 0.1
    print(f"acceptance (flow warm/cold >= 10x)      : "
          f"{'PASS' if ok_flow else 'FAIL'} ({flow_speedup:,.0f}x)")
    print(f"acceptance (distance warm/cold >= 100x) : "
          f"{'PASS' if ok_dist else 'FAIL'} ({dist_speedup:,.0f}x)")
    print(f"acceptance (cut-after-flow/cold <= 0.1) : "
          f"{'PASS' if ok_cut else 'FAIL'} ({cut_ratio:.3f}x; per pair "
          f"IQR {cut_iqr[0]:.3f}x-{cut_iqr[1]:.3f}x over {len(pairs)} "
          f"pairs)")
    emit_json(args.json, "service", {
        "instance": {"rows": args.rows, "cols": args.cols, "n": g.n,
                     "m": g.m},
        "flow_cold_s": cold_s,
        "flow_warm_repeated_s": warm_flow_s,
        "flow_warm_distinct_s": distinct_s,
        "flow_cold_distinct_s": cold_distinct_s,
        "flow_speedup": flow_speedup,
        "cut_cold_s": cut_cold_s,
        "cut_after_flow_s": cut_after_s,
        "cut_after_flow_ratio": cut_ratio,
        "cut_after_flow_ratio_iqr": cut_iqr,
        "distance_cold_legacy_s": cold_legacy_s,
        "distance_cold_served_s": cold_dist_s,
        "distance_warm_s": warm_dist_s,
        "distance_speedup": dist_speedup,
    }, ok_flow and ok_dist and ok_cut)
    return 0 if (ok_flow and ok_dist and ok_cut) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
