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
improve it.  The same holds one level up: a source whose cycles are
known to weigh at least the running best cannot win the strict
comparison either, so :func:`min_dart_simple_cycle` skips it outright
when a per-source lower bound says so (the girth's ``lb`` list below).

Per-source lower bounds (the girth sweep): :class:`PrimalCycleOracle`
keeps ``lb[v]``, a lower bound on the value the kernel computes for a
source v.  Two facts keep it valid:

* *Static bound.*  A dart-simple cycle through v is a self-loop at v or
  uses two distinct non-loop edges at v (it leaves on its first dart,
  closes on an arc that is not that dart's reverse, and never revisits
  v).  With nonnegative weights every partial sum of its walk is at
  least its first term, and float rounding is monotone, so its computed
  value is at least ``min(lightest self-loop, w1 + w2)`` over the two
  lightest non-loop edges at v.  Above 2^53 an int converts to a float
  with rounding, so a walk that mixes in a float may sum below the
  exact ``w1 + w2``; such a vertex gets the bound 0.
* *Kept bound.*  A source run with bound β proved its value exactly
  when it found v < β, and proved ``≥ β`` otherwise; it records that.
  The computed value is a minimum over a family of walk sums that does
  not depend on the weights, and each sum is monotone in every weight
  as long as no weight changes its Python type (int sums are exact;
  int → float conversion and float addition round monotonically).  So
  a recorded bound survives any :meth:`~PrimalCycleOracle.sync` in
  which every changed weight rose and kept its type.  Any other change
  resets ``lb`` to the static bound, which ``sync`` maintains for the
  endpoints of changed edges only.

The girth sweep skips v when ``lb[v] ≥`` the running best.  A skipped
source could not have won the strict comparison, so value, witness and
tie-breaks equal a cold sweep's that runs every source.

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
from repro.errors import NegativeWeightError, SimulationError
from repro.planar.graph import rev

INF = math.inf
#: below this every int converts to float exactly
_EXACT = 2 ** 53


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


def min_dart_simple_cycle(oracle, candidates, best=None, bounds=None):
    """Minimum dart-simple cycle through any of ``candidates``.

    Scans candidates in order with strict improvement (first winner is
    kept on ties, like the legacy bag recursion) and threads the running
    best value back into the oracle as the pruning bound.  ``best`` (a
    previous ``(value, dart list)`` or None) seeds the scan, so batched
    callers — one call per dual bag — carry one running optimum through
    every batch; a seed ``(bound, None)`` is a bare upper bound (only
    cycles strictly below it can win).  ``bounds`` (the girth's
    :attr:`PrimalCycleOracle.lb`) is read and written: a candidate whose
    bound is at least the running best is skipped, and each candidate
    run records what it proved (its exact value below the running best,
    else the running best).  Returns the final best or None.
    """
    for f in candidates:
        beta = best[0] if best is not None else INF
        if bounds is not None and bounds[f] >= beta:
            continue
        cand = oracle.min_cycle_through(f, bound=beta)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = cand
        if bounds is not None:
            # its exact value if it won, else at least beta
            bounds[f] = best[0] if best is not None else INF
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
    ``lb`` holds the per-vertex lower bounds the girth sweep skips
    sources by (module docstring), ``static`` the bounds they reset to.
    """

    __slots__ = ("weights", "last_cycle", "lb", "static", "_negative",
                 "_out_slot", "_in_slot")

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
        self.static = [self._static_bound(v) for v in range(graph.n)]
        self.lb = list(self.static)
        #: ids of the edges whose loaded weight is negative
        self._negative = {e for e, w in enumerate(self.weights) if w < 0}

    def _static_bound(self, v):
        """``min(lightest self-loop, w1 + w2)`` at ``v``, or 0 where the
        sum exceeds 2^53 (module docstring)."""
        loop = w1 = w2 = INF
        for (_d, h, w) in self.adj[v]:
            if h == v:
                if w < loop:
                    loop = w
            elif w < w1:
                w1, w2 = w, w1
            elif w < w2:
                w2 = w
        pair = w1 + w2
        if _EXACT < pair < INF:
            pair = 0
        return loop if loop < pair else pair

    def sync(self, weights):
        """Rewrite, in place, the two arcs of every edge whose weight
        differs from the loaded one by value or by Python type (``1`` →
        ``1.0`` is a change, so lengths keep the graph's number type).

        Keeps ``lb`` when every change raised a weight and kept its
        type, and resets it to ``static`` otherwise.  Raises
        :class:`~repro.errors.NegativeWeightError` for the first
        negative weight after the update; only changed edges are
        checked, so the check adds no scan of its own."""
        mine = self.weights
        adj = self.adj
        in_adj = self.in_adj
        out_slot = self._out_slot
        in_slot = self._in_slot
        negative = self._negative
        ends = []
        raised = True
        for eid, w in enumerate(weights):
            old = mine[eid]
            if w is old or (w == old and type(w) is type(old)):
                continue
            if raised and not (w > old and type(w) is type(old)):
                raised = False
            if w < 0:
                negative.add(eid)
            else:
                negative.discard(eid)
            mine[eid] = w
            for d in (2 * eid, 2 * eid + 1):
                u, i = out_slot[d]
                adj[u][i] = (d, adj[u][i][1], w)
                h, j = in_slot[d]
                in_adj[h][j] = (in_adj[h][j][0], d, w)
            ends.append(u)
            ends.append(h)
        if ends:
            static = self.static
            for v in ends:
                static[v] = self._static_bound(v)
            if raised:
                lb = self.lb
                for v in ends:
                    if static[v] > lb[v]:
                        lb[v] = static[v]
            else:
                self.lb[:] = static
        if negative:
            eid = min(negative)
            raise NegativeWeightError.at(eid, mine[eid])


def cycle_side_faces(graph, cycle_edge_ids):
    """Canonical dual side of a simple primal cycle (Fact 3.1).

    The cycle's edges are a minimal dual cut, splitting the faces of
    ``graph`` into exactly two blocks; the block **not containing face
    0** is returned (sorted), making the choice backend-independent.
    Both backends of :func:`repro.core.girth.weighted_girth` normalize
    their reported ``cut_side_faces`` through this function.

    The two blocks are flooded at once, one face per side in turn, from
    the two faces of one cycle edge: a face reaches its neighbors across
    its non-cycle edges.  The flood stops when either side runs out, so
    it costs the smaller block plus |C|, not m.  Raises
    :class:`~repro.errors.SimulationError` when the two floods meet or
    when an edge of C does not have exactly one face on the finished
    side — with a simple cycle (:func:`repro.planar.dual.is_simple_cycle`
    holds for every caller's C), a bond of G*, that is the old "exactly
    two blocks" check.
    """
    if not cycle_edge_ids:
        raise SimulationError("an empty edge set does not split the dual")
    cyc = set(cycle_edge_ids)
    face_of = graph.face_of
    faces = graph.faces
    e0 = cycle_edge_ids[0]
    a, b = face_of[2 * e0], face_of[2 * e0 + 1]
    if a == b:
        raise SimulationError(f"cycle edge {e0} has one face on both "
                              f"sides")
    side = {a: 0, b: 1}
    blocks = ([a], [b])
    done = [0, 0]
    s = 0
    while done[s] < len(blocks[s]):
        f = blocks[s][done[s]]
        done[s] += 1
        for d in faces[f]:
            if d >> 1 in cyc:
                continue
            g = face_of[d ^ 1]
            t = side.get(g)
            if t is None:
                side[g] = s
                blocks[s].append(g)
            elif t != s:
                raise SimulationError(
                    "cycle does not split the dual into two sides "
                    "(its floods meet)")
        s ^= 1
    # side s is closed: it holds every face it reaches across a
    # non-cycle edge
    for e in cyc:
        if (side.get(face_of[2 * e]) == s) == (side.get(face_of[2 * e + 1])
                                               == s):
            raise SimulationError(
                f"cycle edge {e} does not border the closed side")
    if side.get(0) == s:
        return [f for f in range(len(faces)) if side.get(f) != s]
    return sorted(blocks[s])
