"""The dual graph G* of an embedded planar graph.

The dual has a node per face of ``G`` and, following the dart formalism of
the paper (Sections 3 and 6), an *arc per dart*: the arc of dart ``d``
goes from the face containing ``d`` to the face containing ``rev(d)``
("from the face on the left of e to the face on the right of e").  The
undirected dual edge ``e*`` of edge ``e`` is the arc of the plus dart
``2e``; the arc of ``2e+1`` is its reversal dart.

``G*`` may be a multigraph with self-loops even when ``G`` is simple
(parallel dual edges for faces sharing several edges; self-loops for
bridges), and the library preserves this faithfully — Lemma 4.15's
parallel-edge deactivation is implemented in
:mod:`repro.aggregation.orientation`, not hidden here.

This module also contains the *centralized* shortest-path and cycle-space
reference routines that the distributed algorithms are verified against.
"""

from __future__ import annotations

from collections import deque

from repro.errors import NegativeCycleError
from repro.planar.graph import rev


class DualGraph:
    """Dual of an embedded :class:`~repro.planar.graph.PlanarGraph`."""

    def __init__(self, primal):
        self.primal = primal
        self.num_nodes = primal.num_faces()
        self.face_of = primal.face_of
        self._workspace = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def arc(self, dart):
        """Dual arc of ``dart``: (tail face, head face)."""
        return self.face_of[dart], self.face_of[rev(dart)]

    def arcs(self, lengths=None):
        """All dual arcs as ``(dart, tail_face, head_face, length)``.

        ``lengths`` maps dart -> length; defaults to the primal edge
        weight on plus darts and 0 on reverse darts (the directed
        capacity convention of Sections 6-7).
        """
        out = []
        for d in self.primal.darts():
            t, h = self.arc(d)
            if lengths is not None:
                ln = lengths[d]
            else:
                ln = self.primal.weights[d >> 1] if (d & 1) == 0 else 0
            out.append((d, t, h, ln))
        return out

    def undirected_edges(self):
        """One undirected dual edge per primal edge: (eid, f, g, weight)."""
        out = []
        for eid in range(self.primal.m):
            f, g = self.arc(2 * eid)
            out.append((eid, f, g, self.primal.weights[eid]))
        return out

    def degree(self, face_id):
        return len(self.primal.faces[face_id])

    # ------------------------------------------------------------------
    # centralized references (used by tests and leaf-bag computations)
    # ------------------------------------------------------------------
    def bellman_ford(self, source, lengths, backend="legacy"):
        """Exact SSSP on the dual arcs with arbitrary (± integral) lengths.

        ``lengths``: dart -> length.  Returns dict face -> distance.
        Raises :class:`NegativeCycleError` if a negative cycle is
        reachable from ``source``.

        ``backend="engine"`` runs on the compiled CSR dual with a
        workspace cached on this instance (same distances, reusable
        buffers — the fast path for repeated queries on one graph).
        """
        if backend == "engine":
            return {f: d for f, d in
                    enumerate(self.workspace(lengths).sssp(source))}
        if backend != "legacy":
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of ('legacy', 'engine')")
        arcs = [(self.face_of[d], self.face_of[rev(d)], lengths[d])
                for d in self.primal.darts()]
        return bellman_ford_arcs(self.num_nodes, arcs, source)

    def workspace(self, lengths=None):
        """The cached :class:`~repro.engine.workspace.FlowWorkspace`
        over this dual's compiled topology, optionally loaded with
        per-dart ``lengths``."""
        if self._workspace is None:
            from repro.engine import FlowWorkspace, compile_graph

            self._workspace = FlowWorkspace(compile_graph(self.primal))
        if lengths is not None:
            self._workspace.load_lengths(lengths)
        return self._workspace

    def all_faces_of_vertex(self, v):
        """Face ids of all faces containing vertex ``v``."""
        p = self.primal
        return sorted({p.face_of[d] for d in p.rotations[v]}
                      | {p.face_of[rev(d)] for d in p.rotations[v]})


def bellman_ford_arcs(num_nodes, arcs, source):
    """Centralized Bellman-Ford over an arc list with negative lengths.

    SPFA-style queue implementation with a relaxation counter for
    negative-cycle detection.  Reference implementation: the distributed
    algorithms are validated against it.
    """
    inf = float("inf")
    dist = [inf] * num_nodes
    cnt = [0] * num_nodes
    dist[source] = 0
    out = [[] for _ in range(num_nodes)]
    for t, h, ln in arcs:
        out[t].append((h, ln))
    q = deque([source])
    inq = [False] * num_nodes
    inq[source] = True
    while q:
        u = q.popleft()
        inq[u] = False
        du = dist[u]
        for h, ln in out[u]:
            nd = du + ln
            if nd < dist[h]:
                dist[h] = nd
                cnt[h] += 1
                if cnt[h] > num_nodes:
                    raise NegativeCycleError(where="bellman_ford_arcs")
                if not inq[h]:
                    inq[h] = True
                    q.append(h)
    return {v: dist[v] for v in range(num_nodes)}


def cut_edges_of_dual_cut(primal, side_faces):
    """Primal edges dual to the cut (side_faces, rest) in G*.

    By cycle-cut duality (Fact 3.1) these form a cycle in ``G`` when the
    cut is simple.  Used by the girth algorithm and its tests.
    """
    side = set(side_faces)
    out = []
    for eid in range(primal.m):
        f = primal.face_of[2 * eid]
        g = primal.face_of[2 * eid + 1]
        if (f in side) != (g in side):
            out.append(eid)
    return out


def is_simple_cycle(primal, edge_ids):
    """Check that ``edge_ids`` form a simple cycle in the primal graph."""
    if not edge_ids:
        return False
    deg = {}
    verts = set()
    for eid in edge_ids:
        u, v = primal.edges[eid]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        verts.add(u)
        verts.add(v)
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity of the cycle edges
    adj = {v: [] for v in verts}
    for eid in edge_ids:
        u, v = primal.edges[eid]
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u])
    return seen == verts
