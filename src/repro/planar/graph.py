"""Embedded planar graphs: rotation systems, darts, faces.

The central data structure of the library.  A planar graph is stored as a
*combinatorial embedding* (rotation system): for every vertex, the cyclic
clockwise order of its incident darts.  Every edge ``e = (u, v)`` owns two
darts:

* dart ``2*e``   — tail ``u``, head ``v`` (the *plus* dart, agreeing with
  the direction of the edge when the graph is directed);
* dart ``2*e+1`` — tail ``v``, head ``u`` (the *reverse* dart).

``rev(d) == d ^ 1``.  Faces are the orbits of the permutation
``next(d) = cw_successor_at_head(rev(d))``; with this convention every dart
belongs to exactly one face (the face on one fixed side of the dart), which
is precisely the dart/face formalism the paper uses in Section 5
("each face of G is a cycle of darts", Figure 10).

Both the full graph and edge-subset *views* (used for the bags of the
bounded-diameter decomposition) expose the same traversal interface, and
views never relabel vertices or darts — identities are global, which is
what makes face-part tracking across the decomposition straightforward.
"""

from __future__ import annotations

from collections import deque

from repro.errors import EmbeddingError, NotConnectedError


def rev(dart):
    """Reverse dart: the same edge traversed in the opposite direction."""
    return dart ^ 1


def edge_of(dart):
    """Edge id that the dart belongs to."""
    return dart >> 1


def is_plus(dart):
    """True when the dart agrees with the stored direction of its edge."""
    return (dart & 1) == 0


class VersionedList(list):
    """A ``list`` that counts its in-place mutations.

    Every mutator bumps :attr:`version` (reads are plain ``list``
    reads), so ``version`` identifies the current contents exactly:
    two observations with the same version saw the same values, of the
    same Python types.  That is what lets
    :func:`repro._artifacts.graph_fingerprint` key caches by version in
    O(1) instead of re-hashing the values.  The version survives a
    pickle, so it stays monotone over a list's whole lineage.
    """

    __slots__ = ("version",)

    def __init__(self, iterable=(), version=0):
        super().__init__(iterable)
        self.version = version

    def __reduce__(self):
        return (type(self), (list(self), self.version))

    def __setitem__(self, index, value):
        list.__setitem__(self, index, value)
        self.version += 1

    def __delitem__(self, index):
        list.__delitem__(self, index)
        self.version += 1

    def __iadd__(self, other):
        list.__iadd__(self, other)
        self.version += 1
        return self

    def __imul__(self, count):
        list.__imul__(self, count)
        self.version += 1
        return self

    def append(self, value):
        list.append(self, value)
        self.version += 1

    def extend(self, values):
        list.extend(self, values)
        self.version += 1

    def insert(self, index, value):
        list.insert(self, index, value)
        self.version += 1

    def pop(self, index=-1):
        value = list.pop(self, index)
        self.version += 1
        return value

    def remove(self, value):
        list.remove(self, value)
        self.version += 1

    def clear(self):
        list.clear(self)
        self.version += 1

    def sort(self, *, key=None, reverse=False):
        list.sort(self, key=key, reverse=reverse)
        self.version += 1

    def reverse(self):
        list.reverse(self)
        self.version += 1


#: the per-edge value lists of a :class:`PlanarGraph` that are
#: versioned (see :meth:`PlanarGraph.__setattr__`)
_VERSIONED = frozenset(("weights", "capacities"))

#: the attributes a pickled :class:`PlanarGraph` carries (see
#: :meth:`PlanarGraph.__reduce__`), in ``__init__`` order
_PICKLED = ("n", "edges", "rotations", "weights", "capacities",
            "_dart_pos", "_faces", "_face_of")


def _restore_graph(cls, values):
    """Unpickle a :class:`PlanarGraph`: set the attributes as they were
    (no ``__setattr__``, so the value-list versions are kept as is)."""
    graph = cls.__new__(cls)
    for name, value in zip(_PICKLED, values):
        object.__setattr__(graph, name, value)
    return graph


class PlanarGraph:
    """An embedded planar (multi)graph.

    Parameters
    ----------
    n:
        Number of vertices, labelled ``0 .. n-1``.
    edges:
        List of ``(u, v)`` pairs; the position in the list is the edge id.
        Parallel edges and self-loops are allowed (the dual graph needs
        them), although the standard generators produce simple graphs.
    rotations:
        ``rotations[v]`` is the list of darts whose tail is ``v``, in
        clockwise cyclic order.  Every dart must appear exactly once over
        all rotations.
    weights:
        Optional per-edge weights (lengths); defaults to 1 for every edge.
    capacities:
        Optional per-edge capacities; defaults to ``weights``.

    ``weights`` and ``capacities`` are :class:`VersionedList` s: they may
    be mutated in place (each mutation bumps the list's ``version``),
    and assigning either attribute stores a *copy* whose version
    continues the old list's, so a version never repeats on a graph.
    """

    def __init__(self, n, edges, rotations, weights=None, capacities=None,
                 validate=True):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.rotations = [list(r) for r in rotations]
        m = len(self.edges)
        self.weights = weights if weights is not None else [1] * m
        self.capacities = capacities if capacities is not None \
            else self.weights

        # Position of each dart inside the rotation of its tail.
        self._dart_pos = [-1] * (2 * m)
        for v, rot in enumerate(self.rotations):
            for i, d in enumerate(rot):
                self._dart_pos[d] = i

        self._faces = None
        self._face_of = None

        if validate:
            self._validate()

    def __setattr__(self, name, value):
        # reads stay plain attribute loads; only assignment pays.  Not
        # ``self.__dict__``: materializing the instance dict slows
        # every later attribute load on the graph by a third or more
        if name in _VERSIONED:
            old = getattr(self, name, None)
            value = VersionedList(
                value, 0 if old is None else old.version + 1)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # basic dart arithmetic
    # ------------------------------------------------------------------
    @property
    def m(self):
        """Number of edges."""
        return len(self.edges)

    @property
    def num_darts(self):
        return 2 * len(self.edges)

    def tail(self, dart):
        u, v = self.edges[dart >> 1]
        return u if (dart & 1) == 0 else v

    def head(self, dart):
        u, v = self.edges[dart >> 1]
        return v if (dart & 1) == 0 else u

    def endpoints(self, eid):
        return self.edges[eid]

    def darts(self):
        """Iterate over all dart ids."""
        return range(2 * len(self.edges))

    def degree(self, v):
        return len(self.rotations[v])

    def neighbors(self, v):
        """Heads of darts leaving ``v`` (with multiplicity)."""
        return [self.head(d) for d in self.rotations[v]]

    def out_darts(self, v):
        return self.rotations[v]

    # ------------------------------------------------------------------
    # rotation / face structure
    # ------------------------------------------------------------------
    def cw_successor(self, dart):
        """The next dart clockwise around ``tail(dart)``."""
        v = self.tail(dart)
        rot = self.rotations[v]
        i = self._dart_pos[dart]
        return rot[(i + 1) % len(rot)]

    def next_in_face(self, dart):
        """Successor of ``dart`` along its face cycle."""
        return self.cw_successor(rev(dart))

    @property
    def faces(self):
        """List of faces; each face is a tuple of darts in traversal order."""
        if self._faces is None:
            self._compute_faces()
        return self._faces

    @property
    def face_of(self):
        """``face_of[d]`` is the face id containing dart ``d``."""
        if self._face_of is None:
            self._compute_faces()
        return self._face_of

    def num_faces(self):
        return len(self.faces)

    def _compute_faces(self):
        nd = self.num_darts
        face_of = [-1] * nd
        faces = []
        for d0 in range(nd):
            if face_of[d0] != -1:
                continue
            cycle = []
            d = d0
            while face_of[d] == -1:
                face_of[d] = len(faces)
                cycle.append(d)
                d = self.next_in_face(d)
            if d != d0:
                raise EmbeddingError(
                    "face traversal did not return to the starting dart; "
                    "the rotation system is inconsistent")
            faces.append(tuple(cycle))
        self._faces = faces
        self._face_of = face_of

    def corner_face(self, v, i):
        """Face occupying the corner at ``v`` after rotation position ``i``.

        The corner between consecutive darts ``rotations[v][i]`` and
        ``rotations[v][i+1]`` belongs to the face whose traversal leaves
        ``v`` via ``rotations[v][(i+1) % deg]``.
        """
        rot = self.rotations[v]
        return self.face_of[rot[(i + 1) % len(rot)]]

    # ------------------------------------------------------------------
    # global checks
    # ------------------------------------------------------------------
    def _validate(self):
        seen = [False] * self.num_darts
        for v, rot in enumerate(self.rotations):
            for d in rot:
                if d < 0 or d >= self.num_darts:
                    raise EmbeddingError(f"dart {d} out of range")
                if self.tail(d) != v:
                    raise EmbeddingError(
                        f"dart {d} appears in rotation of {v} but its tail "
                        f"is {self.tail(d)}")
                if seen[d]:
                    raise EmbeddingError(f"dart {d} appears twice")
                seen[d] = True
        if not all(seen):
            missing = seen.index(False)
            raise EmbeddingError(f"dart {missing} missing from rotations")

    def check_euler(self):
        """Verify Euler's formula ``n - m + f = 1 + c`` (c components).

        Holds for every valid embedding of a planar graph in the sphere
        with one face set per component; raises otherwise.
        """
        comps = self.connected_components()
        c = len(comps)
        f = self.num_faces()
        # For a disconnected plane graph each extra component shares the
        # outer face, so n - m + f = 1 + c.
        if self.n - self.m + f != 1 + c:
            raise EmbeddingError(
                f"Euler check failed: n={self.n} m={self.m} f={f} c={c}")
        return True

    # ------------------------------------------------------------------
    # traversals
    # ------------------------------------------------------------------
    def bfs(self, root, weights=None):
        """Unweighted BFS.  Returns (dist list, parent-dart list).

        ``parent[v]`` is the dart by which ``v`` was discovered (head v).
        """
        dist = [-1] * self.n
        parent = [-1] * self.n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for d in self.rotations[u]:
                w = self.head(d)
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = d
                    q.append(w)
        return dist, parent

    def connected_components(self):
        comp = [-1] * self.n
        comps = []
        for s in range(self.n):
            if comp[s] != -1:
                continue
            cur = len(comps)
            comp[s] = cur
            members = [s]
            q = deque([s])
            while q:
                u = q.popleft()
                for d in self.rotations[u]:
                    w = self.head(d)
                    if comp[w] == -1:
                        comp[w] = cur
                        members.append(w)
                        q.append(w)
            comps.append(members)
        return comps

    def is_connected(self):
        return len(self.connected_components()) == 1

    def diameter(self):
        """Exact unweighted hop diameter (over the largest component)."""
        if self.n == 0:
            return 0
        best = 0
        comps = self.connected_components()
        big = max(comps, key=len)
        # Exact: BFS from every vertex of the component.  Fine for the
        # instance sizes the simulator targets.
        for s in big:
            dist, _ = self.bfs(s)
            best = max(best, max(dist[v] for v in big))
        return best

    def eccentricity(self, root):
        dist, _ = self.bfs(root)
        return max(d for d in dist if d >= 0)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self, directed=False):
        import networkx as nx

        g = nx.MultiDiGraph() if directed else nx.MultiGraph()
        g.add_nodes_from(range(self.n))
        for eid, (u, v) in enumerate(self.edges):
            g.add_edge(u, v, key=eid, weight=self.weights[eid],
                       capacity=self.capacities[eid])
        return g

    def copy(self, weights=None, capacities=None):
        return PlanarGraph(
            self.n, self.edges, self.rotations,
            weights=self.weights if weights is None else weights,
            capacities=self.capacities if capacities is None else capacities,
            validate=False)

    def __reduce__(self):
        # the artifact-cache topology token (repro._artifacts) is
        # process-local: carrying it across a pickle would let a
        # receiving process collide two different graphs in its own
        # caches, so a pickled copy must earn a fresh token there.
        # Attributes are read by name, never through ``self.__dict__``
        # (see __setattr__), on this graph and on the restored copy
        return (_restore_graph,
                (type(self), [getattr(self, name) for name in _PICKLED]))


class SubgraphView:
    """A live-edge view of a :class:`PlanarGraph`.

    Vertex and dart identities are *global* (those of the parent graph);
    only edges in ``edge_ids`` are visible.  The view supports rotation
    successor queries (skipping dead darts), face traversal — which yields
    the faces of the sub-embedding, i.e. the faces of the bag — and BFS.

    Used for the bags of the bounded-diameter decomposition.
    """

    def __init__(self, parent, edge_ids):
        self.parent = parent
        self.edge_ids = sorted(set(edge_ids))
        self._edge_set = set(self.edge_ids)
        # live rotations: per vertex, the parent's rotation restricted to
        # live darts (preserving cyclic order).
        self._rot = {}
        self._pos = {}
        for eid in self.edge_ids:
            for d in (2 * eid, 2 * eid + 1):
                v = parent.tail(d)
                if v not in self._rot:
                    self._rot[v] = []
        for v in self._rot:
            live = [d for d in parent.rotations[v] if (d >> 1) in self._edge_set]
            self._rot[v] = live
            for i, d in enumerate(live):
                self._pos[d] = i
        self._faces = None
        self._face_of = None

    # -- basic ----------------------------------------------------------
    @property
    def vertices(self):
        return self._rot.keys()

    def has_edge(self, eid):
        return eid in self._edge_set

    @property
    def m(self):
        return len(self.edge_ids)

    def tail(self, dart):
        return self.parent.tail(dart)

    def head(self, dart):
        return self.parent.head(dart)

    def degree(self, v):
        return len(self._rot.get(v, ()))

    def out_darts(self, v):
        return self._rot.get(v, ())

    def darts(self):
        for eid in self.edge_ids:
            yield 2 * eid
            yield 2 * eid + 1

    # -- rotation / faces -------------------------------------------------
    def cw_successor(self, dart):
        v = self.parent.tail(dart)
        rot = self._rot[v]
        i = self._pos[dart]
        return rot[(i + 1) % len(rot)]

    def next_in_face(self, dart):
        return self.cw_successor(rev(dart))

    @property
    def faces(self):
        if self._faces is None:
            self._compute_faces()
        return self._faces

    @property
    def face_of(self):
        """dict: dart -> local face index of the view."""
        if self._face_of is None:
            self._compute_faces()
        return self._face_of

    def _compute_faces(self):
        face_of = {}
        faces = []
        for d0 in self.darts():
            if d0 in face_of:
                continue
            cycle = []
            d = d0
            while d not in face_of:
                face_of[d] = len(faces)
                cycle.append(d)
                d = self.next_in_face(d)
            if d != d0:
                raise EmbeddingError("inconsistent sub-rotation system")
            faces.append(tuple(cycle))
        self._faces = faces
        self._face_of = face_of

    # -- traversals -------------------------------------------------------
    def bfs(self, root):
        """BFS inside the view.  Returns (dist dict, parent-dart dict)."""
        if root not in self._rot:
            raise NotConnectedError(f"vertex {root} not in view")
        dist = {root: 0}
        parent = {root: -1}
        q = deque([root])
        while q:
            u = q.popleft()
            for d in self._rot[u]:
                w = self.parent.head(d)
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = d
                    q.append(w)
        return dist, parent

    def connected_edge_components(self):
        """Partition of live edges into connected components (edge id lists)."""
        seen_v = set()
        comps = []
        for v0 in self._rot:
            if v0 in seen_v or not self._rot[v0]:
                continue
            comp_edges = set()
            seen_v.add(v0)
            q = deque([v0])
            while q:
                u = q.popleft()
                for d in self._rot[u]:
                    comp_edges.add(d >> 1)
                    w = self.parent.head(d)
                    if w not in seen_v:
                        seen_v.add(w)
                        q.append(w)
            comps.append(sorted(comp_edges))
        return comps

    def is_connected(self):
        return len(self.connected_edge_components()) <= 1

    def eccentricity(self, root):
        dist, _ = self.bfs(root)
        return max(dist.values())
