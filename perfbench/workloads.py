"""The three workloads.

Each workload builds its inputs from the seed, sets up its serving state
:data:`~common.SETUP_REPS` times (``setup_s`` is the median), then runs a
fixed, seeded sequence of operations in one closed loop with a single
caller, and checks every answer after the timed phase.  The number of
operations is fixed by ``--seconds`` through a per-workload rate
(rounds per second), never by the clock, so two runs of the same seed do
the same work.  Every interval is measured on a
:class:`~common.HostClock`.

Input make-up (README.md gives the reasons and reference figures):

* ``catalog-read`` — a 32x32 grid and a Delaunay triangulation on 700
  points (fixed topology; weights and capacities from the seed), plus
  the 4x4 precision-edge instance.  One round asks, per family, a new
  ``FlowQuery`` pair, distance reads, the same pair as ``CutQuery``,
  more distance reads; then the precision-edge flow once.
* ``served-read`` — the server's own demo grid (32x32, weighted by the
  seed) behind ``python -m repro.server --workers 1``.  One round is
  distinct distance reads and one repeated (cached) flow.
* ``reprice`` — a 24x24 grid with fixed weights.  One round is three
  writes (raise window A, raise window B, restore A) over a fixed list
  of eight edge windows;
  each write is followed by one distance read, a ``GirthQuery`` and a
  burst of distance reads.
"""

from __future__ import annotations

import random
import time

from common import (SETUP_REPS, HostClock, Ops, ServerProcess,
                    on_all_cpus, self_peak_rss_mb, tree_peak_rss_mb,
                    wait_ready)
import oracle

GRID = 32
TRI_POINTS = 700
#: the triangulation's point set is fixed, so every seed serves the same
#: topology (and the same decomposition); the seed draws the weights
TRI_TOPOLOGY_SEED = 1
REPRICE_GRID = 24
#: ``reprice``'s base weights are fixed too: the girth kernel's work
#: depends on the whole weight field, so the seed draws only the writes
#: and the reads
REPRICE_WEIGHT_SEED = 0

#: the precision-edge instance (a known fault: float64 is not exact
#: above 2**53, so this feasible instance raises InfeasibleFlowError)
EDGE_SCALE = 2 ** 52
EDGE_S, EDGE_T = 0, 15


def grid_graph(rows, seed):
    from repro.planar.generators import grid, randomize_weights

    return randomize_weights(grid(rows, rows), seed=seed,
                             directed_capacities=True)


def tri_graph(seed):
    from repro.planar.generators import random_planar, randomize_weights

    return randomize_weights(random_planar(TRI_POINTS,
                                           seed=TRI_TOPOLOGY_SEED),
                             seed=seed, directed_capacities=True)


def edge_graph():
    from repro.planar.generators import grid, randomize_weights

    g = randomize_weights(grid(4, 4), seed=3, directed_capacities=True)
    return g.copy(capacities=[c * EDGE_SCALE + 1 for c in g.capacities])


def fresh_copy(graph):
    """Same topology and weights, new object: a new topology token, so
    every engine cache misses and the build is cold."""
    return graph.copy(weights=list(graph.weights),
                      capacities=list(graph.capacities))


def distance_pairs(graph, rng, count):
    """``count`` distinct (f, g) face pairs whose f is one of as few
    source faces as give enough pairs (at least four), so the oracle
    runs a few Dijkstras only."""
    faces = max(graph.face_of) + 1
    srcs = rng.sample(range(faces), max(4, -(-count // (faces - 1))))
    pool = [(f, g) for f in srcs for g in range(faces) if g != f]
    return rng.sample(pool, count)


def grid_flow_pair(rows, rng):
    """s above-left of t, at least a quarter of the grid apart, so the
    directed (right/down) capacities carry a positive flow."""
    gap = rows // 4
    r1 = rng.randrange(rows - gap)
    c1 = rng.randrange(rows - gap)
    r2 = rng.randrange(r1 + gap, rows)
    c2 = rng.randrange(c1 + gap, rows)
    return r1 * rows + c1, r2 * rows + c2


def tri_flow_pair(graph, rng):
    """t reachable from s along edge directions and not adjacent."""
    while True:
        s = rng.randrange(graph.n)
        near = {graph.head(d) for d in graph.rotations[s]}
        far = sorted(oracle.reachable(graph, s) - near - {s})
        if far:
            return s, rng.choice(far)


def rounds_for(seconds, rate):
    return max(1, round(seconds * rate))


def result_cache_size():
    """The bound of a catalog's memoized results at default settings
    (what ``python -m repro.server`` runs with)."""
    from repro.service import GraphCatalog

    return GraphCatalog().results.maxsize


class Outcome:
    """What one pass of a workload produced."""

    def __init__(self):
        self.ops = Ops()
        self.clock = HostClock()
        #: scaled seconds of each set-up
        self.setup = []
        #: scaled seconds the program spent on the timed operations
        self.timed_s = 0.0
        self.peak_rss_mb = 0.0
        #: raw wall seconds of the pass (set-up and timed phase)
        self.wall_s = 0.0
        #: (kind, argument, answer or exception, scaled seconds)
        self.answers = []
        self.catalog = None
        self.extra = {}

    def time_setup(self, build):
        """Run ``build()`` and record its scaled duration, calibrating
        right before and after."""
        self.clock.calibrate(5)
        t0 = time.perf_counter()
        result = build()
        raw = time.perf_counter() - t0
        self.clock.calibrate(5)
        self.setup.append(self.clock.scale(raw))
        return result


#: operation kinds timed straight after the previous operation, with no
#: calibration in between (they measure one chain: write, then read)
CHAINED = frozenset({"first_read"})


def drive(sequence, call, out, tracer=None, expected_failure=(),
          clock=None):
    """Run ``call(kind, arg)`` for each ``(kind, arg)`` in order, timing
    each on ``clock`` (default ``out.clock``).  A failure of a kind in
    ``expected_failure`` is counted and not sampled; any other failure
    is also reported as unexpected."""
    ops, clock = out.ops, clock or out.clock
    perf = time.perf_counter
    busy = 0.0
    for kind, arg in sequence:
        if kind not in CHAINED:
            clock.tick()
        if tracer:
            tracer.begin("op." + kind, "harness")
        t0 = perf()
        try:
            r = call(kind, arg)
        except Exception as exc:  # counted and reported, the run goes on
            r = exc
        raw = perf() - t0
        if tracer:
            tracer.end()
        dt = clock.scale(raw)
        busy += dt
        failed = isinstance(r, Exception)
        ops.done(kind, ok=not failed)
        if kind not in expected_failure:
            if failed:
                ops.unexpected.append(f"{kind} {arg}: {r!r}")
            else:
                ops.sample(kind, dt)
        out.answers.append((kind, arg, r, dt))
    out.timed_s = busy


def check_answers(graphs, answers, ops):
    """Check flow, cut, distance and precision-edge answers against the
    oracles; each wrong answer turns its operation into a failed one."""
    flow_values = {}
    flow_oracles = {}

    def expected_flow(q):
        key = (q.graph, q.s, q.t)
        if key not in flow_values:
            if q.graph not in flow_oracles:
                flow_oracles[q.graph] = oracle.MaxFlowOracle(
                    graphs[q.graph])
            flow_values[key] = flow_oracles[q.graph].value(q.s, q.t)
        return flow_values[key]

    dual = {}
    for kind, q, r, _ in answers:
        if isinstance(r, Exception):
            continue  # already failed
        problems = []
        if kind in ("flow", "cached", "edge_flow"):
            problems = oracle.check_flow(graphs[q.graph], q.s, q.t, r,
                                         expected_flow(q))
        elif kind == "cut":
            problems = oracle.check_cut(graphs[q.graph], q.s, q.t, r,
                                        expected_flow(q))
        elif kind == "distance":
            key = (q.graph, q.f)
            if key not in dual:
                g = graphs[q.graph]
                dual[key] = oracle.dual_distances(g, g.weights, q.f)
            if r != dual[key][q.g]:
                problems = [f"distance {q.graph} {q.f}->{q.g}: {r} != "
                            f"{dual[key][q.g]}"]
        if problems:
            ops.mark_wrong(kind, problems)


def start_server(src, rows, seed, workers):
    """Spawn ``python -m repro.server`` on ``grid_graph(rows, seed)`` and
    connect a client once it answers."""
    from repro.server.client import ServiceClient

    server = ServerProcess(src, rows, rows, seed, workers)
    try:
        client = wait_ready(ServiceClient, server)
    except BaseException:
        server.close()
        raise
    return server, client


def write_counts(answers):
    """Dirty bags, rebuild fallbacks and migrated results summed over
    the mutate reports among ``answers``."""
    reports = [r for kind, _, r, _ in answers if kind == "write"]
    rows = [row for rep in reports for row in rep["labelings"]]
    return {"dirty_bags": sum(row.get("dirty_bags", 0) for row in rows),
            "rebuild_fallbacks": sum(row["action"] == "rebuild"
                                     for row in rows),
            "results_migrated": sum(rep["results_migrated"]
                                    for rep in reports)}


def check_writes(graph, answers, ops):
    """Replay the writes among ``answers`` on a copy of ``graph``'s
    weights; after every write check its reads against the dual Dijkstra
    and its girths against the certificate and the minimum-weight-cycle
    oracle.  Returns the replayed weights."""
    weights = list(graph.weights)
    dist = {}
    for kind, arg, r, _ in answers:
        if isinstance(r, Exception):
            continue
        if kind == "write":
            for e, w in arg.items():
                weights[e] = w
            dist = {}
        elif kind == "girth":
            problems = oracle.check_girth(
                graph, weights, r, oracle.min_weight_cycle(graph, weights))
            if problems:
                ops.mark_wrong(kind, problems)
        elif kind in ("distance", "first_read"):
            if arg.f not in dist:
                dist[arg.f] = oracle.dual_distances(graph, weights, arg.f)
            if r != dist[arg.f][arg.g]:
                ops.mark_wrong(kind, [f"distance {arg.f}->{arg.g} "
                                      f"{r} != {dist[arg.f][arg.g]}"])
    return weights


# ======================================================================
# catalog-read
# ======================================================================
class CatalogRead:
    #: rounds per second of --seconds
    RATE = 3.3
    #: the sample behind ``heavy_p50_ms``: a round's two flows on new
    #: pairs (grid and triangulation) averaged, since the flow times of
    #: the two families form two clusters and the median of all flows
    #: would fall in the gap between them
    HEAVY = "flow_round"
    DISTANCES_PER_SLOT = 40

    def __init__(self, seed, seconds):
        from repro.service import CutQuery, DistanceQuery, FlowQuery

        rng = random.Random(seed)
        self.seed = seed
        self.graphs = {"grid": grid_graph(GRID, seed),
                       "tri": tri_graph(seed), "edge": edge_graph()}
        rounds = rounds_for(seconds, self.RATE)
        fill = result_cache_size() // 2
        dist = {fam: iter(distance_pairs(
                    self.graphs[fam], rng,
                    fill + 2 * rounds * self.DISTANCES_PER_SLOT))
                for fam in ("grid", "tri")}
        #: distinct distance reads that fill the result cache before the
        #: timed phase, which then runs with a full (evicting) cache as
        #: a long-running catalog does
        self.prefill = [DistanceQuery(fam, *next(dist[fam]))
                        for fam in ("grid", "tri") for _ in range(fill)]
        seen = set()
        self.sequence = []
        for _ in range(rounds):
            for fam in ("grid", "tri"):
                while True:
                    s, t = (grid_flow_pair(GRID, rng) if fam == "grid"
                            else tri_flow_pair(self.graphs[fam], rng))
                    if (fam, s, t) not in seen:
                        seen.add((fam, s, t))
                        break
                for q in (FlowQuery(fam, s, t), CutQuery(fam, s, t)):
                    self.sequence.append(
                        ("flow" if isinstance(q, FlowQuery) else "cut", q))
                    self.sequence += [
                        ("distance", DistanceQuery(fam, *next(dist[fam])))
                        for _ in range(self.DISTANCES_PER_SLOT)]
            self.sequence.append(("edge_flow",
                                  FlowQuery("edge", EDGE_S, EDGE_T)))

    def build(self, graphs):
        from repro.service import GraphCatalog

        catalog = GraphCatalog()
        for name, g in graphs.items():
            entry = catalog.register(name, g)
            if name != "edge":
                entry.labeling()
            entry.flow_solver()
        return catalog

    def run(self, out, tracer=None):
        catalog = None
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.phase = f"setup{rep}"
            if catalog is not None:
                for name in catalog.names():
                    catalog.unregister(name)
            graphs = {name: fresh_copy(g)
                      for name, g in self.graphs.items()}
            catalog = out.time_setup(lambda: self.build(graphs))
        for q in self.prefill:
            catalog.serve(q)
        if tracer:
            tracer.phase = "run"
        drive(self.sequence, lambda kind, q: catalog.serve(q).result, out,
              tracer, expected_failure={"edge_flow"})
        out.peak_rss_mb = self_peak_rss_mb()
        out.catalog = catalog
        flows = [(q, r, dt) for kind, q, r, dt in out.answers
                 if kind == "flow"]
        for (_, _, a), (_, _, b) in zip(flows[0::2], flows[1::2]):
            out.ops.sample("flow_round", (a + b) / 2)
        out.extra["probes"] = sum(r.probes for _, r, _ in flows)

    def hit_query(self):
        return next(q for kind, q in reversed(self.sequence)
                    if kind == "distance")

    def main(self):
        """Catalog name, graph, grid side and weight seed of the graph
        the layer probes run on."""
        return "grid", self.graphs["grid"], GRID, self.seed

    def check(self, out):
        check_answers(self.graphs, out.answers, out.ops)


# ======================================================================
# served-read
# ======================================================================
class ServedRead:
    RATE = 11.0
    #: the sample behind ``heavy_p50_ms``: a cached flow, mostly its
    #: result frame
    HEAVY = "cached"
    DISTANCES_PER_ROUND = 60
    CACHED_PAIRS = 4
    #: echo round trips per calibration of the served clock
    WAKEUPS = 10

    def __init__(self, seed, seconds, src):
        from repro.service import DistanceQuery, FlowQuery

        self.seed = seed
        self.src = src
        rng = random.Random(seed)
        self.graph = grid_graph(GRID, seed)
        self.gname = f"grid-{GRID}x{GRID}"
        rounds = rounds_for(seconds, self.RATE)
        fill = result_cache_size()
        pairs = iter(distance_pairs(self.graph, rng,
                                    fill + rounds * self.DISTANCES_PER_ROUND))
        #: distinct distance reads that fill the worker's result cache
        #: before the timed phase (see CatalogRead.prefill)
        self.prefill = [DistanceQuery(self.gname, *next(pairs))
                        for _ in range(fill)]
        self.cached = []
        while len(self.cached) < self.CACHED_PAIRS:
            q = FlowQuery(self.gname, *grid_flow_pair(GRID, rng))
            if q not in self.cached:
                self.cached.append(q)
        self.sequence = []
        for i in range(rounds):
            self.sequence += [
                ("distance", DistanceQuery(self.gname, *next(pairs)))
                for _ in range(self.DISTANCES_PER_ROUND)]
            self.sequence.append(("cached",
                                  self.cached[i % self.CACHED_PAIRS]))

    def start(self, workers):
        return start_server(self.src, GRID, self.seed, workers)

    def run(self, out, tracer=None, workers=1):
        server = client = None

        def spawn():
            if tracer:
                tracer.begin("server.start", "server_pool")
            try:
                return self.start(workers)
            finally:
                if tracer:
                    tracer.end()

        try:
            for _ in range(SETUP_REPS):
                if server is not None:
                    client.close()
                    server.close()
                server, client = out.time_setup(spawn)
            client.close()
            server.close()
            server = client = None
            # the served operations run on a server spawned off the
            # one-CPU pin (see common.on_all_cpus), untimed
            with on_all_cpus():
                server, client = spawn()
                if tracer:
                    tracer.phase = "run"
                self.serve_all(client, out, tracer)
                out.peak_rss_mb = tree_peak_rss_mb(server.proc.pid)
        finally:
            if client is not None:
                client.close()
            if server is not None:
                server.close()

    def serve_all(self, client, out, tracer=None):
        """Fill the result cache (untimed, the repeated flows last so
        they stay in it), then drive the sequence through
        ``client.query``, on a clock whose calibration includes process
        wake-ups."""
        for i in range(0, len(self.prefill), 512):
            client.run(self.prefill[i:i + 512])
        for q in self.cached:
            client.query(q)
        clock = HostClock(wakeups=self.WAKEUPS, interval=0.0)
        try:
            drive(self.sequence, lambda kind, q: client.query(q).result,
                  out, tracer, clock=clock)
        finally:
            clock.close()

    def main(self):
        return self.gname, self.graph, GRID, self.seed

    def local_catalog(self):
        """The served grid, built in-process the same way the server
        builds it."""
        from repro.service import GraphCatalog

        catalog = GraphCatalog()
        entry = catalog.register(self.gname, fresh_copy(self.graph))
        entry.labeling()
        entry.flow_solver()
        return catalog

    def check(self, out, catalog=None):
        """Oracle checks, then served == in-process for every distinct
        query."""
        check_answers({self.gname: self.graph}, out.answers, out.ops)
        catalog = catalog or self.local_catalog()
        local = {}
        for kind, q, r, _ in out.answers:
            if isinstance(r, Exception):
                continue
            if q not in local:
                local[q] = catalog.serve(q).result
            if not _same_answer(r, local[q]):
                out.ops.mark_wrong(kind, [f"served {q} differs from "
                                          f"in-process"])


def _same_answer(a, b):
    if isinstance(a, (int, float)):
        return a == b and type(a) is type(b)
    return (a.value == b.value and a.flow == b.flow
            and a.probes == b.probes
            and list(a.path_darts) == list(b.path_darts))


# ======================================================================
# reprice
# ======================================================================
class Reprice:
    RATE = 2.0
    #: the sample behind ``heavy_p50_ms``: a write until its first read
    HEAVY = "write_visible"
    WINDOW = 8
    #: first edge id of each 8-edge window, the same for every seed.  A
    #: write dirties the bags whose dual holds a changed dart, which
    #: depends on topology alone: the last two windows dirty 4-5 of the
    #: 7 bags, over ``max_dirty_frac`` = 0.5, and fall back to a rebuild;
    #: the others dirty 3 and are repaired.  Windows at even indexes are
    #: raised and restored within a round, the others stay raised.
    WINDOWS = (0, 144, 320, 496, 624, 800, 912, 1040)
    BURST = 8

    def __init__(self, seed, seconds):
        from repro.service import DistanceQuery, GirthQuery

        rng = random.Random(seed)
        self.graph = grid_graph(REPRICE_GRID, REPRICE_WEIGHT_SEED)
        rounds = rounds_for(seconds, self.RATE)
        faces = max(self.graph.face_of) + 1
        sources = rng.sample(range(faces), 4)
        base = self.graph.weights
        self.sequence = []
        for r in range(rounds):
            a = self.WINDOWS[(2 * r) % len(self.WINDOWS)]
            b = self.WINDOWS[(2 * r + 1) % len(self.WINDOWS)]
            for start, raise_ in ((a, True), (b, True), (a, False)):
                edges = {e: base[e] + (rng.randint(1, 20) if raise_ else 0)
                         for e in range(start, start + self.WINDOW)}
                reads = [DistanceQuery("g", rng.choice(sources), g)
                         for g in rng.sample(range(faces), self.BURST)]
                self.sequence += [("write", edges),
                                  ("first_read", reads[0]),
                                  ("girth", GirthQuery("g"))]
                self.sequence += [("distance", q) for q in reads[1:]]

    def build(self, graph):
        from repro.service import GraphCatalog

        catalog = GraphCatalog()
        entry = catalog.register("g", graph)
        entry.labeling()
        entry.flow_solver()
        return catalog

    def run(self, out, tracer=None):
        from repro.service import FlowQuery

        catalog = None
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.phase = f"setup{rep}"
            if catalog is not None:
                catalog.unregister("g")
            graph = fresh_copy(self.graph)
            catalog = out.time_setup(lambda: self.build(graph))
        # one memoized flow answer, untimed, which every write migrates
        catalog.serve(FlowQuery("g", 0, self.graph.n - 1))
        if tracer:
            tracer.phase = "run"

        def call(kind, arg):
            if kind == "write":
                return catalog.mutate_weights("g", arg)
            return catalog.serve(arg).result

        drive(self.sequence, call, out, tracer)
        out.peak_rss_mb = self_peak_rss_mb()
        out.catalog = catalog
        answers = out.answers
        for i, (kind, _, _, dt) in enumerate(answers):
            if kind == "write":
                out.ops.sample("write_visible", dt + answers[i + 1][3])
        out.extra.update(write_counts(answers))

    def hit_query(self):
        return self.sequence[-1][1]

    def main(self):
        return "g", self.graph, REPRICE_GRID, REPRICE_WEIGHT_SEED

    def check(self, out):
        """The writes, reads and girths against the oracles, and the
        served graph's final weights against the replayed writes."""
        weights = check_writes(self.graph, out.answers, out.ops)
        if list(out.catalog.get("g").graph.weights) != weights:
            out.ops.mark_wrong("write", ["served weights differ from the "
                                         "replayed writes"])
