"""Dart-simple cycle extraction on compiled arc sets (DESIGN.md §7).

The minimum-weight **dart-simple** directed cycle — a cycle that never
uses both a dart and its reversal — is the common combinatorial core of
two theorem families:

* **directed global min-cut (Theorem 1.5)**: by cycle-cut duality with
  darts (Section 7), a directed cut corresponds to a dart-simple
  directed dual cycle where crossing an edge along its direction costs
  ``w(e)`` and against it costs 0;
* **weighted girth (Theorem 1.7)**: viewing each undirected edge as its
  two darts (both of weight ``w(e)``), a minimum dart-simple cycle of
  the *primal* is exactly a minimum-weight simple cycle — equivalently,
  the minimum cut of G* that the legacy pipeline extracts through the
  minor-aggregation simulation (Fact 3.1).

:class:`DartCycleOracle` owns the per-node arc index and a
:class:`~repro.engine.dijkstra.TwoBestDijkstra` workspace, both sized
once and reused across the sources of a batch (all ``f ∈ F_X`` of a
dual bag; all vertices of the primal).  :meth:`min_cycle_through`
reproduces the legacy reference kernel
(:func:`repro.core.global_mincut._min_cycle_through`) step for step —
self-loop candidates, the two-best settle loop, and the closing scan
over in-arcs in the legacy's dict-insertion order — so the extracted
cycles are bit-identical to the legacy backend's, ties included.

Pruning safety (the ``bound`` argument): callers keep a running best
value and compare candidates with strict ``<``.  Every label on a cycle
of value ``v < bound`` has distance ``≤ v − w(closing arc) ≤ v <
bound`` (lengths are nonnegative), so truncating the settle loop at
``bound`` preserves every candidate that could win the strict
comparison; candidates at or above the bound may be missed or differ,
but the caller discards those either way.  The bound therefore never
changes the final result — it only skips work on sources that cannot
improve it.

Warm starts (the girth after a weight write): a write leaves the
topology alone, so the last girth cycle C is still a cycle and its
weight under the new lengths bounds the new girth from above.
:class:`PrimalCycleOracle` keeps one arc index per topology, rewrites
the arcs of written edges in place (load order, hence every tie-break,
unchanged) and remembers C; the girth sweep passes a seed ``(B, None)``
with B just above w'(C).  Every candidate below B is exact, the sweep
still keeps the first strict winner, and the girth is at most w'(C) <
B, so value and witness equal a cold sweep's — the seed only prunes
sources whose cycles cannot reach below B.
"""

from __future__ import annotations

import math

from repro.engine.dijkstra import TwoBestDijkstra
from repro.errors import SimulationError
from repro.planar.graph import rev

INF = math.inf


class DartCycleOracle:
    """Minimum dart-simple cycle through a node, over reusable buffers.

    ``num_ids`` is the dense node-id universe (primal vertices or dual
    faces).  Load an arc set with :meth:`load_arcs` — once per graph for
    the girth sweep, once per dual bag for the min-cut recursion — then
    query :meth:`min_cycle_through` for each candidate node.
    """

    __slots__ = ("num_ids", "two_best", "adj", "in_adj", "_touched")

    def __init__(self, num_ids):
        self.num_ids = num_ids
        self.two_best = TwoBestDijkstra(num_ids)
        #: id -> [(dart, head, length)] out-arcs in load order
        self.adj = [()] * num_ids
        #: id -> [(tail, dart, length)] in-arcs in legacy closing-scan
        #: order (tails ordered by first appearance, see load_arcs)
        self.in_adj = [()] * num_ids
        self._touched = []

    def load_arcs(self, arcs):
        """Load arcs ``(dart, tail, head, length)``; lengths must be
        nonnegative.

        The order of ``arcs`` is semantic: nodes are recorded in first-
        appearance order (tail before head, per arc) and the in-arc
        lists are materialized by scanning that node order — matching
        the dict-insertion iteration of the legacy ``_arc_index`` so the
        closing scan breaks ties identically.
        """
        for u in self._touched:
            self.adj[u] = ()
            self.in_adj[u] = ()
        order = []
        seen = set()
        out = {}
        for (d, t, h, ln) in arcs:
            if t not in seen:
                seen.add(t)
                order.append(t)
                out[t] = []
            if h not in seen:
                seen.add(h)
                order.append(h)
                out[h] = []
            out[t].append((d, h, ln))
        inb = {}
        for t in order:
            for (d, h, ln) in out[t]:
                inb.setdefault(h, []).append((t, d, ln))
        for u, lst in out.items():
            self.adj[u] = lst
        for u, lst in inb.items():
            self.in_adj[u] = lst
        self._touched = order

    def min_cycle_through(self, f, bound=INF):
        """Min-weight dart-simple cycle through node ``f``, or None.

        Returns ``(value, dart list)``.  With a finite ``bound`` the
        result is exact whenever ``value < bound`` (see the module
        docstring); candidates at or above the bound may be reported
        with a different witness or as None.
        """
        best_val = INF
        best_label = None  # (closing arc dart, last node, first dart)
        best_loop = None

        # self-loops at f are one-dart cycles (bridge cuts)
        for (d, h, w) in self.adj[f]:
            if h == f and w < best_val:
                best_val = w
                best_loop = [d]

        tb = self.two_best
        tb.run(self.adj, f, bound=min(bound, best_val))

        # close cycles with the in-arcs of f; first valid label per tail
        # is the best one (labels are in settle order).  Reads the label
        # arrays directly — this is the hottest loop of the oracle, one
        # iteration per in-arc per candidate
        gen = tb._gen
        stamp = tb._stamp
        count = tb.label_count
        ldist = tb.label_dist
        lfd = tb.label_fd
        for (g, b, wb) in self.in_adj[f]:
            if g == f or stamp[g] != gen:
                continue
            rb = rev(b)
            base = 2 * g
            for s in range(base, base + count[g]):
                if lfd[s] == rb:
                    continue
                if ldist[s] + wb < best_val:
                    best_val = ldist[s] + wb
                    best_label = (b, g, lfd[s])
                    best_loop = None
                break
        if best_label is not None:
            darts = tb.walk_parents(best_label[1], best_label[2], f)
            darts.append(best_label[0])
            return best_val, darts
        if best_loop is not None:
            return best_val, best_loop
        return None


def min_dart_simple_cycle(oracle, candidates, best=None):
    """Minimum dart-simple cycle through any of ``candidates``.

    Scans candidates in order with strict improvement (first winner is
    kept on ties, like the legacy bag recursion) and threads the running
    best value back into the oracle as the pruning bound.  ``best`` (a
    previous ``(value, dart list)`` or None) seeds the scan, so batched
    callers — one call per dual bag — carry one running optimum through
    every batch; a seed ``(bound, None)`` is a bare upper bound (only
    cycles strictly below it can win).  Returns the final best or None.
    """
    for f in candidates:
        cand = oracle.min_cycle_through(
            f, bound=best[0] if best is not None else INF)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = cand
    return best


def primal_cycle_arcs(graph):
    """Arc set of the primal graph for the girth kernel: one arc per
    dart, tail -> head, weighted by the edge weight (both darts), in
    rotation order per vertex."""
    face_weights = graph.weights
    arcs = []
    for v in range(graph.n):
        for d in graph.rotations[v]:
            arcs.append((d, v, graph.head(d), face_weights[d >> 1]))
    return arcs


class PrimalCycleOracle(DartCycleOracle):
    """The girth oracle of one primal topology, kept across weight writes.

    Loads :func:`primal_cycle_arcs` and indexes each dart's out- and
    in-arc slot.  :meth:`sync` brings the lengths
    up to date with a weight list of the same topology; ``last_cycle``
    holds the edge ids of the last girth winner (a cycle of this
    topology under any weights), or None before the first girth.
    """

    __slots__ = ("weights", "last_cycle", "_out_slot", "_in_slot")

    def __init__(self, graph):
        super().__init__(graph.n)
        self.load_arcs(primal_cycle_arcs(graph))
        self.weights = list(graph.weights)
        self.last_cycle = None
        self._out_slot = out_slot = [None] * (2 * graph.m)
        self._in_slot = in_slot = [None] * (2 * graph.m)
        for u in self._touched:
            for i, (d, _h, _w) in enumerate(self.adj[u]):
                out_slot[d] = (u, i)
            for i, (_t, d, _w) in enumerate(self.in_adj[u]):
                in_slot[d] = (u, i)

    def sync(self, weights):
        """Rewrite, in place, the two arcs of every edge whose weight
        differs from the loaded one by value or by Python type (``1`` →
        ``1.0`` is a change, so lengths keep the graph's number type)."""
        mine = self.weights
        adj = self.adj
        in_adj = self.in_adj
        out_slot = self._out_slot
        in_slot = self._in_slot
        for eid, w in enumerate(weights):
            old = mine[eid]
            if w is old or (w == old and type(w) is type(old)):
                continue
            mine[eid] = w
            for d in (2 * eid, 2 * eid + 1):
                u, i = out_slot[d]
                adj[u][i] = (d, adj[u][i][1], w)
                h, j = in_slot[d]
                in_adj[h][j] = (in_adj[h][j][0], d, w)


def cycle_side_faces(graph, cycle_edge_ids):
    """Canonical dual side of a simple primal cycle (Fact 3.1).

    The cycle's edges are a minimal dual cut, splitting the faces of
    ``graph`` into exactly two blocks; the block **not containing face
    0** is returned (sorted), making the choice backend-independent.
    Both backends of :func:`repro.core.girth.weighted_girth` normalize
    their reported ``cut_side_faces`` through this function.
    """
    cyc = set(cycle_edge_ids)
    nf = graph.num_faces()
    parent = list(range(nf))

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for eid in range(graph.m):
        if eid in cyc:
            continue
        a = find(graph.face_of[2 * eid])
        b = find(graph.face_of[2 * eid + 1])
        if a != b:
            parent[a] = b
    r0 = find(0)
    side = [f for f in range(nf) if find(f) != r0]
    blocks = {find(f) for f in range(nf)}
    if len(blocks) != 2:
        raise SimulationError(
            f"cycle does not split the dual into two sides "
            f"({len(blocks)} blocks)")
    return side
