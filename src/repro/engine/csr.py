"""One-shot compilation of an embedded planar graph into flat arrays.

A :class:`CompiledPlanarGraph` freezes everything about the topology
that the flow/cut/SSSP kernels touch per probe into plain Python lists
indexed by dart, vertex or face id:

* per-dart arrays — ``dart_head``, ``dart_tail``, ``face_left`` (the
  face containing the dart), ``face_right`` (= ``face_left[rev(d)]``);
* the dual topology in CSR form — the dual arc of dart ``d`` runs
  ``face_left[d] → face_right[d]`` (Sections 3 and 6 of the paper), and
  the arcs are grouped by tail face so an SSSP relaxation scans
  ``dual_arc_dart[dual_indptr[f] : dual_indptr[f+1]]`` contiguously;
* the primal rotation system in CSR form (``prim_indptr`` /
  ``prim_darts``), read as per-vertex ``(dart, head)`` lists
  (:meth:`CompiledPlanarGraph.adjacency`) by the Miller–Naor path
  search (:meth:`CompiledPlanarGraph.st_path_darts`) and the residual
  sweep of :func:`repro.core.mincut._cut_from_flow`;
* with numpy, int64 copies of ``face_left``, ``dart_tail`` and
  ``dart_head`` (:meth:`CompiledPlanarGraph.arrays`) for the flow
  assignment and :func:`repro.core.flow_utils.validate_flow`.

Arc *lengths* are deliberately not part of the compiled object: the
Miller–Naor binary search changes them every probe, so they live in the
reusable buffers of :class:`repro.engine.workspace.FlowWorkspace`, keyed
by the ``slot_of_dart`` permutation computed here.

Compilation is cached in the process-wide artifact cache keyed by the
graph's topology token (:func:`compile_graph`), so every solver,
benchmark and test sharing a graph shares one compiled topology — the
dual topology never depends on λ, only the lengths do.
"""

from __future__ import annotations

from collections import namedtuple

from repro._artifacts import shared_cache, topo_token
from repro._compat import np as _np
from repro.errors import InfeasibleFlowError

#: int64 copies of the per-dart lists (:meth:`CompiledPlanarGraph.arrays`)
DartArrays = namedtuple("DartArrays", "face_left dart_tail dart_head")


class CompiledPlanarGraph:
    """Flat-array snapshot of a :class:`~repro.planar.graph.PlanarGraph`.

    The source graph's faces are computed (and therefore validated)
    during compilation; dart, vertex and face ids are the global ids of
    the source graph, so results translate back without any mapping.
    """

    __slots__ = (
        "graph", "n", "m", "num_darts", "num_faces",
        "dart_head", "dart_tail", "face_left", "face_right",
        "dual_indptr", "dual_arc_dart", "dual_arc_head", "slot_of_dart",
        "prim_indptr", "prim_darts", "_adjacency", "_arrays",
    )

    def __init__(self, graph):
        self.graph = graph
        n = graph.n
        m = graph.m
        nd = 2 * m
        self.n = n
        self.m = m
        self.num_darts = nd

        dart_head = [0] * nd
        dart_tail = [0] * nd
        for eid, (u, v) in enumerate(graph.edges):
            d = 2 * eid
            dart_tail[d] = u
            dart_head[d] = v
            dart_tail[d + 1] = v
            dart_head[d + 1] = u
        self.dart_head = dart_head
        self.dart_tail = dart_tail

        face_left = list(graph.face_of)
        self.face_left = face_left
        self.face_right = [face_left[d ^ 1] for d in range(nd)]
        num_faces = len(graph.faces)
        self.num_faces = num_faces

        # dual CSR: one arc per dart, grouped by tail face
        indptr = [0] * (num_faces + 1)
        for d in range(nd):
            indptr[face_left[d] + 1] += 1
        for f in range(num_faces):
            indptr[f + 1] += indptr[f]
        fill = indptr[:num_faces]
        arc_dart = [0] * nd
        arc_head = [0] * nd
        slot_of_dart = [0] * nd
        for d in range(nd):
            f = face_left[d]
            s = fill[f]
            fill[f] = s + 1
            arc_dart[s] = d
            arc_head[s] = face_left[d ^ 1]
            slot_of_dart[d] = s
        self.dual_indptr = indptr
        self.dual_arc_dart = arc_dart
        self.dual_arc_head = arc_head
        self.slot_of_dart = slot_of_dart

        # primal CSR: out-darts per vertex in rotation order
        prim_indptr = [0] * (n + 1)
        for v in range(n):
            prim_indptr[v + 1] = prim_indptr[v] + len(graph.rotations[v])
        self.prim_indptr = prim_indptr
        self.prim_darts = [d for rot in graph.rotations for d in rot]
        self._adjacency = None
        self._arrays = None

    def adjacency(self):
        """Per vertex, its out-darts in rotation order as ``(dart,
        head)`` pairs: the primal CSR as Python lists, built once."""
        if self._adjacency is None:
            head = self.dart_head
            darts = self.prim_darts
            ptr = self.prim_indptr
            self._adjacency = [
                [(d, head[d]) for d in darts[ptr[v]:ptr[v + 1]]]
                for v in range(self.n)]
        return self._adjacency

    def arrays(self):
        """:class:`DartArrays` of int64 copies of ``face_left``,
        ``dart_tail`` and ``dart_head``, built once (numpy only)."""
        if self._arrays is None:
            np = _np
            self._arrays = DartArrays(
                *(np.asarray(a, dtype=np.int64) for a in
                  (self.face_left, self.dart_tail, self.dart_head)))
        return self._arrays

    def st_path_darts(self, s, t):
        """The Miller–Naor path P from ``s`` to ``t`` ignoring edge
        directions, by BFS over :meth:`adjacency`.

        Darts are scanned in rotation order, as
        :meth:`PlanarGraph.bfs <repro.planar.graph.PlanarGraph.bfs>`
        does, so every vertex is discovered by the same dart and P is
        that BFS tree's path; the sweep stops once ``t`` is reached.
        """
        adj = self.adjacency()
        parent = [-1] * self.n
        seen = bytearray(self.n)
        seen[s] = 1
        queue = [s]
        for u in queue:
            for d, w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = d
                    queue.append(w)
            if seen[t]:
                break
        else:
            raise InfeasibleFlowError(f"no undirected path {s} -> {t}")
        darts = []
        v = t
        while v != s:
            darts.append(parent[v])
            v = self.dart_tail[parent[v]]
        darts.reverse()
        return darts


def compile_graph(graph):
    """Compiled topology of ``graph``, cached in the shared
    :class:`~repro._artifacts.ArtifactCache` under the graph's topology
    token (formerly an ad-hoc ``_engine_compiled`` instance attribute).

    The compiled object is immutable topology; capacities/weights are
    read through to the source graph at use time, so only *structural*
    edits (which create a new :class:`PlanarGraph`, hence a new token)
    invalidate it.  LRU eviction just means a recompile on next use.
    """
    return shared_cache().get_or_build(
        ("csr", topo_token(graph)), lambda: CompiledPlanarGraph(graph))
