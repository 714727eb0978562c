"""The face-disjoint graph Ĝ of Ghaffari-Parter, with the paper's E_C
extension (Section 3).

Ĝ is the communication scaffold for simulating computations on the dual
graph ``G*``: faces of ``G`` map to vertex- and edge-disjoint cycles of
Ĝ, and two such cycles are connected by an ``E_C`` edge exactly when the
corresponding dual nodes are adjacent in ``G*``.

Vertex set (paper notation):

* *star centers* ``V_S`` — one per vertex of ``G``;
* *corner copies* — one per corner (local region) of each vertex: corner
  ``(v, k)`` sits between consecutive darts ``rot[v][k]`` and
  ``rot[v][k+1]`` and belongs to the face whose traversal leaves ``v``
  via ``rot[v][k+1]``.

Edge set  ``E(Ĝ) = E_S ∪ E_R ∪ E_C``:

* ``E_S`` — star edges ``(v, v_k)`` for every corner ``k`` of ``v``;
* ``E_R`` — one edge per dart ``d=(u→v)``: connects the corner of ``u``
  *before* ``d`` and the corner of ``v`` at ``rev(d)`` — both lie on
  ``face(d)``, so the components of ``Ĝ[E_R]`` are exactly the face
  cycles of ``G`` (Property 4);
* ``E_C`` — one edge per edge ``e`` of ``G``, placed at the higher-id
  endpoint, joining its two corners on either side of ``e``; the map
  ``E_C → E(G*)`` is a bijection (Property 5).

Properties 1-3 of Section 3 (planarity, diameter ≤ 3D+O(1), 2x CONGEST
simulation overhead) are checked in the test-suite and reflected in the
round charges of the hosts that communicate over Ĝ.
"""

from __future__ import annotations

from collections import deque

from repro.planar.graph import rev


class FaceDisjointGraph:
    """The graph Ĝ built from an embedded planar graph ``G``."""

    def __init__(self, primal):
        self.primal = primal
        n = primal.n

        # vertex layout: star centers 0..n-1, then corner copies
        self._corner_offset = [0] * (n + 1)
        for v in range(n):
            self._corner_offset[v + 1] = \
                self._corner_offset[v] + max(primal.degree(v), 0)
        self.num_vertices = n + self._corner_offset[n]
        self._n = n

        self.adj = [[] for _ in range(self.num_vertices)]
        self.es_edges = []
        self.er_edge_of_dart = {}
        self.ec_edge_of_edge = {}

        self._build()

    # ------------------------------------------------------------------
    # vertex naming
    # ------------------------------------------------------------------
    def star_center(self, v):
        return v

    def corner_copy(self, v, k):
        """Ĝ-vertex of the corner at ``v`` after rotation position ``k``."""
        deg = self.primal.degree(v)
        return self._n + self._corner_offset[v] + (k % deg)

    def owner_vertex(self, x):
        """The G-vertex that simulates Ĝ-vertex ``x``."""
        if x < self._n:
            return x
        x -= self._n
        lo, hi = 0, self._n
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self._corner_offset[mid] <= x:
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self):
        p = self.primal

        def add(a, b, kind):
            self.adj[a].append(b)
            self.adj[b].append(a)
            if kind == "S":
                self.es_edges.append((a, b))

        # E_S
        for v in range(p.n):
            for k in range(p.degree(v)):
                add(self.star_center(v), self.corner_copy(v, k), "S")

        # E_R: per dart d (tail u at position i, head v, rev at position j):
        # corner (u, i-1) and corner (v, j) both lie on face(d).
        for d in p.darts():
            u = p.tail(d)
            v = p.head(d)
            i = p._dart_pos[d]
            j = p._dart_pos[rev(d)]
            a = self.corner_copy(u, i - 1)
            b = self.corner_copy(v, j)
            self.er_edge_of_dart[d] = (a, b)
            add(a, b, "R")

        # E_C: one per edge, at the higher-id endpoint x; joins the two
        # corners of x on either side of the edge.
        for eid, (u, v) in enumerate(p.edges):
            x = max(u, v)
            d_x = 2 * eid if p.edges[eid][0] == x else 2 * eid + 1
            ppos = p._dart_pos[d_x]
            a = self.corner_copy(x, ppos - 1)   # on face(d_x)
            b = self.corner_copy(x, ppos)       # on face(rev(d_x))
            self.ec_edge_of_edge[eid] = (a, b)
            add(a, b, "C")

    # ------------------------------------------------------------------
    # Property 4: face identification
    # ------------------------------------------------------------------
    def face_cycle_vertices(self, fid):
        """Corner copies lying on the Ĝ-cycle of face ``fid`` of G."""
        p = self.primal
        out = []
        for d in p.faces[fid]:
            u = p.tail(d)
            i = p._dart_pos[d]
            out.append(self.corner_copy(u, i - 1))
        return out

    def face_of_corner(self, x):
        """G-face id whose cycle contains corner copy ``x``."""
        v = self.owner_vertex(x)
        k = x - self._n - self._corner_offset[v]
        return self.primal.corner_face(v, k)

    def face_leader(self, fid):
        """Deterministic leader (min corner id) of the face's Ĝ-cycle."""
        return min(self.face_cycle_vertices(fid))

    def er_components(self):
        """Connected components of Ĝ[E_R]; one per face of G."""
        comp = {}
        comps = []
        adj = {}
        for d, (a, b) in self.er_edge_of_dart.items():
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for x0 in adj:
            if x0 in comp:
                continue
            cid = len(comps)
            members = []
            q = deque([x0])
            comp[x0] = cid
            while q:
                x = q.popleft()
                members.append(x)
                for y in adj[x]:
                    if y not in comp:
                        comp[y] = cid
                        q.append(y)
            comps.append(members)
        return comps

    # ------------------------------------------------------------------
    # communication-related measurements
    # ------------------------------------------------------------------
    def bfs(self, root):
        dist = [-1] * self.num_vertices
        dist[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            for y in self.adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return dist

    def eccentricity(self, root=0):
        return max(d for d in self.bfs(root) if d >= 0)

    def diameter_upper_bound(self):
        """2-approximation: double one eccentricity."""
        ecc = self.eccentricity(0)
        return 2 * ecc

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        for x in range(self.num_vertices):
            for y in self.adj[x]:
                g.add_edge(x, y)
        return g
