"""Serving planar queries over the network (DESIGN.md §10).

End-to-end tour of ``repro.server``: start the server as a subprocess
(exactly as you would in production: ``python -m repro.server``), point
a :class:`~repro.server.client.ServiceClient` at it, and run a mixed
query batch — st-flows, st-cuts, girth, dual distances — in one
round-trip.  Every answer is asserted bit-identical to in-process
:func:`~repro.service.queries.execute_query`, so this doubles as the
CI smoke for the whole wire path.  The finale mutates a few edge
weights live (``mutate_weights``, DESIGN.md §11) and audits the
delta-repaired labeling against a from-scratch rebuild.

    PYTHONPATH=src python examples/network_serving.py [--rows 6 ...]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

from repro.planar.generators import grid, randomize_weights
from repro.server import ServiceClient
from repro.service import (
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    GraphCatalog,
    execute_query,
)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="repro.server demo: subprocess server, one-batch "
                    "client, bit-parity check")
    ap.add_argument("--rows", type=int, default=6)
    ap.add_argument("--cols", type=int, default=8)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)

    name = f"grid-{args.rows}x{args.cols}"
    g = randomize_weights(grid(args.rows, args.cols), seed=args.seed,
                          directed_capacities=True)

    # 1. start the server: prewarms, forks workers, prints its address
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--workers", str(args.workers), "--rows", str(args.rows),
         "--cols", str(args.cols), "--seed", str(args.seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True)
    try:
        line = proc.stdout.readline().strip()
        print(line)
        assert "listening on" in line, (line, proc.stderr.read())
        host, port = line.split("listening on ")[1] \
                         .split(" ")[0].rsplit(":", 1)

        # 2. a mixed batch, one round-trip
        nf = g.num_faces()
        queries = [FlowQuery(name, 0, g.n - 1),
                   CutQuery(name, 0, g.n - 1),
                   GirthQuery(name),
                   DistanceQuery(name, 0, nf - 1),
                   DistanceQuery(name, 1, 2)]
        with ServiceClient(host, int(port), timeout=120) as client:
            deadline = time.monotonic() + 60
            while True:
                try:
                    client.ping()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)
            t0 = time.perf_counter()
            report = client.run(queries * 4)
            took = time.perf_counter() - t0
            print(f"served {len(report.results)} queries in one "
                  f"round-trip: {took * 1e3:.1f} ms "
                  f"({len(report.results) / took:,.0f} q/s)")

            # 3. bit-parity with in-process serving
            catalog = GraphCatalog()
            catalog.register(name, g)
            for r, q in zip(report.results, queries * 4):
                assert r.result == execute_query(catalog, q).result, q
            print("parity: every served answer == in-process "
                  "execute_query")

            # 4. coalesced distances + server stats
            pairs = [(f, h) for f in range(2) for h in range(nf - 2, nf)]
            print(f"distances({pairs}) -> "
                  f"{client.distances(name, pairs)}")
            stats = client.stats()
            occ = ", ".join(
                f"w{row['worker']}:{row['completed']}"
                for row in stats["occupancy"])
            print(f"worker occupancy: {occ}")
            for kind, row in stats["by_kind"].items():
                print(f"  {kind:<14} count={row['count']:<4} "
                      f"warm={row['warm']}")
            # the pool accounts served traffic with observability off
            # too: health judges each served kind, never an empty set
            health = client.health()
            slos = health["slos"]["slos"]
            assert slos, health
            print(f"health: {health['state']}/{health['status']}, "
                  + ", ".join(f"{s['kind']} {s['status']} "
                              f"({s['count']})" for s in slos))

            # 5. live weight mutation (DESIGN.md §11): delta-reprice
            #    a few edges pool-wide, then audit the repaired
            #    labeling bit-for-bit against a from-scratch rebuild
            edges = {0: g.weights[0] + 5, 3: g.weights[3] + 2}
            mreport = client.mutate_weights(name, edges)
            print(f"mutate_weights({sorted(edges)}) -> "
                  f"{mreport['changed_edges']} edges repriced, "
                  f"{mreport['results_migrated']} results kept warm")
            for eid, w in edges.items():
                g.weights[eid] = w
            q = DistanceQuery(name, 0, nf - 1)
            fresh = GraphCatalog()
            fresh.register(name, g)
            assert client.query(q).result == \
                execute_query(fresh, q).result, "stale after mutate"
            audit = client.audit_labeling(name)
            assert audit["master"]["error"] is None
            assert all(rep["error"] is None
                       for rep in audit["workers"].values())
            print(f"audit_labeling: master + "
                  f"{len(audit['workers'])} workers bit-identical "
                  f"to a from-scratch rebuild")
    finally:
        proc.terminate()
        proc.wait(timeout=15)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
