"""Layer probes for the traced mode.

The traced pass of a workload only times the layers its operations
reach.  So that every per-layer figure exists on every workload, the
traced mode follows the pass with short probes of the layers the pass
left out, on the workload's own main graph (``workload.main()``):

* flow probe — new (s, t) pairs asked as ``FlowQuery`` and then as
  ``CutQuery``;
* write probe — two fixed 8-edge windows raised and restored, each write
  followed by a distance read and a ``GirthQuery``;
* server probe — distinct distance reads against a ``--workers 0`` and a
  ``--workers 1`` server of the same grid;
* frame cost — the result frames of one distance and one flow answer,
  encoded as the server does and decoded as the client does.

Probe operations are checked like the workload's own, but they are not
counted in the run's attempted and failed operations, so the failed
share of a run does not depend on whether it was traced.  A wrong probe
answer makes the run's ``correct`` false.
"""

from __future__ import annotations

import time

from common import HostClock, on_all_cpus, p50
from workloads import (Outcome, ServedRead, check_answers, check_writes,
                       distance_pairs, drive, grid_flow_pair,
                       start_server, write_counts)

FLOW_PAIRS = 4
WINDOW = 8
SERVER_READS = 300
FRAME_REPEATS = 200


def _report(probe_ops, ops):
    """Carry a probe's wrong or failed answers over as problems of the
    run, without counting its operations."""
    ops.wrong += [f"probe: {line}" for line in probe_ops.wrong]
    ops.unexpected += [f"probe: {line}" for line in probe_ops.unexpected]


def flow_probe(catalog, main, rng, tracer, ops, avoid=()):
    """New pairs as ``FlowQuery`` then ``CutQuery`` (op spans ``op.flow``
    and ``op.cut``); returns the summed probes of the flows."""
    from repro.service import CutQuery, FlowQuery

    name, graph, rows, _ = main
    pairs = []
    while len(pairs) < FLOW_PAIRS:
        pair = grid_flow_pair(rows, rng)
        if pair not in pairs and FlowQuery(name, *pair) not in avoid:
            pairs.append(pair)
    sequence = [("flow", FlowQuery(name, *pair)) for pair in pairs]
    sequence += [("cut", CutQuery(name, *pair)) for pair in pairs]
    out = Outcome()
    drive(sequence, lambda kind, q: catalog.serve(q).result, out, tracer)
    check_answers({name: graph}, out.answers, out.ops)
    _report(out.ops, ops)
    return sum(r.probes for kind, _, r, _ in out.answers
               if kind == "flow" and not isinstance(r, Exception))


def write_probe(catalog, main, rng, tracer, ops):
    """Raise two windows and restore them, each write followed by a
    first read and a girth; returns the mutate-report counts.  The graph
    must still hold its base weights."""
    from repro.service import DistanceQuery, GirthQuery

    name, graph, _, _ = main
    base = graph.weights
    faces = max(graph.face_of) + 1
    source = rng.randrange(faces)
    sequence = []
    for start, raise_ in ((0, True), (graph.m // 2, True), (0, False),
                          (graph.m // 2, False)):
        edges = {e: base[e] + (rng.randint(1, 20) if raise_ else 0)
                 for e in range(start, start + WINDOW)}
        sequence += [("write", edges),
                     ("first_read", DistanceQuery(name, source,
                                                  rng.randrange(faces))),
                     ("girth", GirthQuery(name))]

    def call(kind, arg):
        if kind == "write":
            return catalog.mutate_weights(name, arg)
        return catalog.serve(arg).result

    out = Outcome()
    drive(sequence, call, out, tracer)
    check_writes(graph, out.answers, out.ops)
    _report(out.ops, ops)
    return write_counts(out.answers)


def server_probe(src, main, rng, ops):
    """Distinct distance reads against a ``--workers 0`` and a
    ``--workers 1`` server of the main grid; returns the scaled seconds
    of a ``--workers 1`` set-up (spawned on one CPU, as set-ups are, and
    closed) and the scaled p50 seconds of a read on each."""
    from repro.service import DistanceQuery

    _, graph, rows, seed = main
    served = f"grid-{rows}x{rows}"
    sequence = [("distance", DistanceQuery(served, *pair))
                for pair in distance_pairs(graph, rng, SERVER_READS)]
    spawn = Outcome()
    server, client = spawn.time_setup(
        lambda: start_server(src, rows, seed, 1))
    client.close()
    server.close()
    p50s = {}
    for workers in (0, 1):
        out = Outcome()
        with on_all_cpus():
            server, client = start_server(src, rows, seed, workers)
            try:
                clock = HostClock(wakeups=ServedRead.WAKEUPS, interval=0.0)
                try:
                    drive(sequence, lambda kind, q: client.query(q).result,
                          out, clock=clock)
                finally:
                    clock.close()
            finally:
                client.close()
                server.close()
        check_answers({served: graph}, out.answers, out.ops)
        _report(out.ops, ops)
        p50s[workers] = p50(out.ops.samples["distance"])
    return spawn.setup[0], p50s


def frame_cost(catalog, query):
    """Encode the result frame of ``query`` as the server does and
    decode it as the client does: median seconds and frame bytes."""
    from repro.server import wire

    r = catalog.serve(query)
    times = []
    for _ in range(FRAME_REPEATS):
        t0 = time.perf_counter()
        data = wire.encode_frame({"v": wire.PROTOCOL_VERSION, "id": 1,
                                  "ok": True,
                                  **wire.query_result_to_wire(r)})
        wire.query_result_from_wire(query, wire.decode_frame(data))
        times.append(time.perf_counter() - t0)
    return p50(times), len(data)


def span_cost(tracer_cls, calls=20000, blocks=5):
    """Seconds one traced call adds over a plain call: median over
    ``blocks`` of a wrapped no-op against the bare no-op."""
    def noop():
        return None

    wrapped = tracer_cls()._wrapper(noop, "noop", "noop")
    costs = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return p50(costs)
