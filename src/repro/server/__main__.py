"""``python -m repro.server`` — start the query server.

Pre-warms a worker pool (optionally with a demo grid so a bare
invocation is immediately queryable), forks the workers, then accepts
NDJSON clients until interrupted (SIGINT or SIGTERM; either one stops
the workers before the process exits):

    PYTHONPATH=src python -m repro.server --host 127.0.0.1 --port 8423 \\
        --workers 2 --rows 12 --cols 16

The first stdout line is machine-readable —

    repro.server listening on HOST:PORT (workers=N, graphs=[...])

— which is how scripted callers (CI smoke, the example client) find an
ephemeral ``--port 0`` binding.
"""

from __future__ import annotations

import argparse
import signal

from repro.server.app import QueryServer
from repro.server.pool import WarmWorkerPool


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="repro.server: multi-worker planar query server "
                    "over a newline-delimited JSON socket protocol")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8423,
                    help="TCP port (0 binds an ephemeral port, printed "
                         "on the first line)")
    ap.add_argument("--workers", type=int, default=2,
                    help="worker processes (0 = serve in-process)")
    ap.add_argument("--start-method", default=None,
                    choices=["fork", "spawn"],
                    help="multiprocessing start method (default: fork "
                         "where available)")
    ap.add_argument("--rows", type=int, default=12,
                    help="demo grid rows (0 disables the demo graph)")
    ap.add_argument("--cols", type=int, default=16)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--prewarm", default="flow,distance",
                    help="comma-separated artifact kinds to build "
                         "before forking (from: flow,cut,distance,"
                         "girth; empty string skips)")
    ap.add_argument("--obs", action="store_true",
                    help="enable the observability layer before "
                         "forking (metrics/health/exemplars verbs "
                         "report live data)")
    ap.add_argument("--heartbeat-interval", type=float, default=0.25,
                    help="idle-worker heartbeat period in seconds")
    ap.add_argument("--stall-after", type=float, default=30.0,
                    help="heartbeat silence (seconds) before a live "
                         "worker counts as stalled in the health verb")
    ap.add_argument("--audit-interval", type=float, default=None,
                    help="opt-in background labeling audit period in "
                         "seconds (runs on idle ticks; surfaced via "
                         "the health verb)")
    args = ap.parse_args(argv)

    if args.obs:
        from repro import obs

        obs.enable()
    pool = WarmWorkerPool(workers=args.workers,
                          start_method=args.start_method,
                          heartbeat_interval=args.heartbeat_interval,
                          stall_after=args.stall_after,
                          audit_interval=args.audit_interval)
    if args.rows > 0 and args.cols > 0:
        from repro.planar.generators import grid, randomize_weights

        g = randomize_weights(grid(args.rows, args.cols),
                              seed=args.seed,
                              directed_capacities=True)
        pool.register(f"grid-{args.rows}x{args.cols}", g)
    kinds = tuple(k for k in args.prewarm.split(",") if k)
    took = pool.prewarm(kinds=kinds) \
        if kinds and pool.catalog.names() else {}
    pool.start()
    # a SIGTERM (service managers, ``Popen.terminate``) unwinds like ^C,
    # so the ``finally`` below still stops the forked workers; installed
    # after the fork so the workers keep the default handler
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    server = QueryServer(pool, host=args.host, port=args.port)
    host, port = server.address
    print(f"repro.server listening on {host}:{port} "
          f"(workers={args.workers}, graphs={pool.catalog.names()})",
          flush=True)
    for (name, kind), seconds in took.items():
        print(f"prewarmed {kind:<9} for {name!r} in {seconds:.2f}s",
              flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        pool.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
