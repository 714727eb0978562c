"""Bags of the bounded-diameter decomposition.

Per Section 5.1 a bag is a *set of edges* of ``G`` (a subgraph), together
with the set of its *live darts* — the darts whose G-face is a face or
face-part of the bag rather than a hole.  Lemma 5.5 semantics: every dart
of ``G`` is live in exactly one bag per level; a dart whose reversal is
missing lies on a hole (it belongs to an ancestor separator).

Vertex, edge, dart and face identities are global (those of ``G``),
which makes face-part tracking trivial: the dual node of bag ``X`` for
G-face ``f`` is simply the set of live darts of ``X`` lying on ``f``
(one face-part per bag — parts inherited down one chain can never
recombine because bags only shrink).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.planar.graph import SubgraphView


@dataclass(eq=False)
class Bag:
    """One node of the BDD tree (Lemma 5.1).  Identity-hashed."""

    bag_id: int
    level: int
    edge_ids: list
    live_darts: frozenset
    parent: "Bag" = None
    children: list = field(default_factory=list)

    #: separator data (None for leaves)
    sx_vertices: list = None
    sx_edge_ids: list = None        # real S_X edges (tree paths + real e_X)
    ex_endpoints: tuple = None
    ex_virtual: bool = False
    separator_balance: float = 0.0
    bfs_depth: int = 0

    _view: SubgraphView = field(default=None, repr=False)
    _graph = None

    @property
    def is_leaf(self):
        return not self.children

    @property
    def m(self):
        return len(self.edge_ids)

    def view(self):
        if self._view is None:
            self._view = SubgraphView(self._graph, self.edge_ids)
        return self._view

    def live_faces(self):
        """dict face id -> sorted list of live darts on that face
        (the dual nodes of this bag, Section 5.1.2)."""
        g = self._graph
        out = {}
        for d in sorted(self.live_darts):
            out.setdefault(g.face_of[d], []).append(d)
        return out


@dataclass
class BDD:
    """The decomposition tree (Lemma 5.1 + Theorem 5.2 extensions)."""

    graph: object
    root: Bag
    bags: list
    leaf_size: int
    forced_leaves: int = 0

    @property
    def depth(self):
        return max(b.level for b in self.bags)

    def levels(self):
        """Bags grouped by level, deepest first."""
        by = {}
        for b in self.bags:
            by.setdefault(b.level, []).append(b)
        return [by[lv] for lv in sorted(by, reverse=True)]

    def leaf_bags(self):
        return [b for b in self.bags if b.is_leaf]

    def validate(self):
        """Check the structural properties the labeling scheme uses."""
        from repro.bdd.checks import validate_bdd

        return validate_bdd(self)
