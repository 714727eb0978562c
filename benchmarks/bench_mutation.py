"""Mutation benchmark: delta reprice vs full labeling rebuild
(DESIGN.md §11).

Two modes:

* under pytest (part of the benchmark suite): times a steady-state
  ``mutate_weights`` round through the catalog — each round really
  flips edge weights, so every iteration pays a genuine repair — and
  audits bit-parity against a from-scratch rebuild inline;

* as a script, the headline experiment of the incremental-repair
  subsystem —

      PYTHONPATH=src python benchmarks/bench_mutation.py \\
          [--rows 64] [--cols 64] [--edges 8] [--json out.json]

  measures, on a rows x cols grid at the default BDD leaf size, and
  interleaved so that host drift hits both sides alike:

  1. **full rebuild** — the Theorem 2.1 labeling rebuilt after a
     ``set_weights`` reprice, which is what every such reprice pays on
     the next distance query (warm: the topology-only BDD and dual
     bags are reused, as they are in service; the first, cold build
     is reported apart and kept out of the ratio);
  2. **delta reprice** — ``mutate_weights`` of a contiguous run of
     edge ids (a *localized* weight change — the congestion-update
     shape incremental repair exists for): only the bags whose dual
     contains a touched dart recompute, the rest of the labeling is
     reused (p50/p99 over many rounds).  ``--scatter`` spreads the
     same number of edges across the whole grid instead, which dirties
     most of the bag tree (every touched leaf drags in its ancestors);
     those rounds are repairs too.

  Acceptance: the median rebuild over the median reprice of
  <= ``--edges`` edges is >= 5x (each side's range is reported with
  it), and ``audit_labeling`` confirms the repaired labels are
  *bit-identical* (values and Python types) to a fresh build.
"""

import argparse
import random
import statistics
import time

from _json_out import add_json_arg, emit_json

from repro.planar.generators import grid, randomize_weights
from repro.service import DistanceQuery, GraphCatalog


# ----------------------------------------------------------------------
# pytest mode
# ----------------------------------------------------------------------
def test_catalog_mutation_reprice(benchmark, instances):
    """Steady-state few-edge reprice of a warm labeling."""
    g = instances["grid-large"]
    catalog = GraphCatalog()
    catalog.register("g", g)
    catalog.get("g").labeling(leaf_size=10)  # small leaf: multi-bag
    base = list(g.weights)
    eids = [0, 3, 11]

    def reprice_round():
        # flip between two weight sets so every iteration repairs
        edges = {e: (base[e] + 1 if g.weights[e] == base[e]
                     else base[e]) for e in eids}
        return catalog.mutate_weights("g", edges)

    report = benchmark(reprice_round)
    assert report["changed_edges"] == len(eids)
    rows = [r for r in report["labelings"] if r["leaf_size"] == 10]
    assert rows and all(r["action"] == "repaired" for r in rows)
    assert all(r["dirty_bags"] < r["total_bags"] for r in rows)
    # the repaired labels must be bit-identical to a fresh build
    audit = catalog.audit_labeling("g", leaf_size=10)
    assert audit["error"] is None and audit["labels"] > 0
    benchmark.extra_info.update(
        {"edges": len(eids), "dirty_bags": rows[0]["dirty_bags"],
         "total_bags": rows[0]["total_bags"]})


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------
def _percentile(sorted_vals, frac):
    return sorted_vals[min(len(sorted_vals) - 1,
                           int(frac * len(sorted_vals)))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=64)
    ap.add_argument("--cols", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--leaf-size", type=int, default=None,
                    help="BDD leaf size (default: paper's "
                         "max(16, D log n))")
    ap.add_argument("--edges", type=int, default=8,
                    help="edges mutated per reprice round (a "
                         "contiguous id run: one grid locality)")
    ap.add_argument("--scatter", action="store_true",
                    help="mutate random edges across the whole grid "
                         "instead of one locality")
    ap.add_argument("--rounds", type=int, default=20,
                    help="reprice rounds (p50/p99 over these)")
    ap.add_argument("--rebuilds", type=int, default=3,
                    help="full labeling rebuilds, spread evenly over "
                         "the reprice rounds (at most one per round)")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="acceptance: median rebuild / median "
                         "reprice")
    ap.add_argument("--skip-audit", action="store_true",
                    help="skip the final bit-parity audit (it pays "
                         "one more from-scratch build)")
    add_json_arg(ap)
    args = ap.parse_args(argv)

    g = randomize_weights(grid(args.rows, args.cols), seed=args.seed,
                          directed_capacities=True)
    name = f"grid-{args.rows}x{args.cols}"
    leaf = args.leaf_size
    catalog = GraphCatalog()
    entry = catalog.register(name, g)
    print(f"instance: {args.rows}x{args.cols} grid, n={g.n}, m={g.m}, "
          f"faces={g.num_faces()}, leaf_size="
          f"{'default' if leaf is None else leaf}")

    # -- 1. the cold build (BDD, dual bags and labels): reported
    #       apart — the first build pays what no later rebuild pays
    t0 = time.perf_counter()
    entry.labeling(leaf_size=leaf)
    cold_s = time.perf_counter() - t0
    print(f"cold build               : {cold_s * 1e3:8.1f} ms "
          f"(not part of the ratio)")

    # -- 2. interleaved samples: each round times one delta reprice (a
    #       localized edge run repaired in place — every round verified
    #       to be a repair); ``--rebuilds`` rounds,
    #       spread evenly, first time a full rebuild after a
    #       set_weights teardown — what a reprice costs without §11
    rebuild_at = {k * args.rounds // max(1, args.rebuilds)
                  for k in range(args.rebuilds)}
    rng = random.Random(args.seed)
    rebuild_s, reprice_s = [], []
    dirty = total = 0
    #: Bellman–Ford rows of the dirty slices over all reprice rounds
    rows = {"recomputed_rows": 0, "reused_rows": 0}
    for i in range(args.rounds):
        if i in rebuild_at:
            catalog.set_weights(name, weights=[w + 1 for w in g.weights])
            t0 = time.perf_counter()
            entry.labeling(leaf_size=leaf)
            rebuild_s.append(time.perf_counter() - t0)
        if args.scatter:
            eids = rng.sample(range(g.m), args.edges)
        else:
            anchor = rng.randrange(g.m - args.edges)
            eids = range(anchor, anchor + args.edges)
        edges = {e: g.weights[e] + rng.randint(1, 9) for e in eids}
        t0 = time.perf_counter()
        report = catalog.mutate_weights(name, edges)
        reprice_s.append(time.perf_counter() - t0)
        (row,) = report["labelings"]
        assert row["action"] == "repaired", f"reprice not repaired: {row}"
        dirty, total = row["dirty_bags"], row["total_bags"]
        for key in rows:
            rows[key] += row[key]
    if not reprice_s or not rebuild_s:
        print("no reprice round or no rebuild was timed; nothing to "
              "report")
        return 1
    rebuild_s.sort()
    reprice_s.sort()
    rebuild_p50 = statistics.median(rebuild_s)
    p50 = statistics.median(reprice_s)
    p99 = _percentile(reprice_s, 0.99)
    print(f"full rebuild             : {rebuild_p50 * 1e3:8.1f} ms "
          f"median of {len(rebuild_s)} (range "
          f"{rebuild_s[0] * 1e3:.1f}-{rebuild_s[-1] * 1e3:.1f} ms; "
          f"what set_weights pays on the next distance query)")
    print(f"delta reprice ({args.edges} edges)  : "
          f"{p50 * 1e3:8.1f} ms median of {len(reprice_s)} (range "
          f"{reprice_s[0] * 1e3:.1f}-{reprice_s[-1] * 1e3:.1f} ms, "
          f"p99={p99 * 1e3:.1f} ms; {dirty}/{total} bags dirty)")
    print(f"label rows recomputed    : {rows['recomputed_rows']} of "
          f"{rows['recomputed_rows'] + rows['reused_rows']} over the "
          f"reprice rounds ({rows['reused_rows']} reused by the row "
          f"test)")

    # -- 3. the repaired labeling must still answer correctly: audit
    #       against a from-scratch rebuild, bit for bit
    audit_row = None
    if not args.skip_audit:
        audit = catalog.audit_labeling(name, leaf_size=leaf)
        assert audit["error"] is None
        audit_row = {"labels": audit["labels"],
                     "entries": audit["entries"]}
        print(f"bit-parity audit         : PASS ({audit['labels']} "
              f"labels, {audit['entries']} entries)")
        catalog.serve(DistanceQuery(name, 0, g.num_faces() - 1,
                                    leaf_size=leaf))

    # the ratio of medians, and its extremes over the sample ranges
    speedup = rebuild_p50 / p50
    spread = (rebuild_s[0] / reprice_s[-1], rebuild_s[-1] / reprice_s[0])
    ok = speedup >= args.min_speedup
    print(f"acceptance (reprice >= {args.min_speedup:g}x rebuild) : "
          f"{'PASS' if ok else 'FAIL'} ({speedup:,.1f}x median over "
          f"median; {spread[0]:,.1f}x-{spread[1]:,.1f}x over the "
          f"ranges)")
    emit_json(args.json, "mutation", {
        "instance": {"rows": args.rows, "cols": args.cols, "n": g.n,
                     "m": g.m, "leaf_size": leaf},
        "edges_per_round": args.edges,
        "rounds": args.rounds,
        "cold_build_s": cold_s,
        "rebuild_p50_s": rebuild_p50,
        "rebuild_mean_s": statistics.fmean(rebuild_s),
        "rebuild_samples": len(rebuild_s),
        "reprice_p50_s": p50,
        "reprice_mean_s": statistics.fmean(reprice_s),
        "reprice_p99_s": p99,
        "speedup_range": list(spread),
        "dirty_bags": dirty,
        "total_bags": total,
        **rows,
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "audit": audit_row,
    }, ok)
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
