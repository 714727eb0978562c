"""Construction of the bounded-diameter decomposition (Lemma 5.1).

The recursion mirrors [27]: split each bag with a balanced cycle
separator (two BFS-tree paths + one possibly-virtual closing edge, from
:mod:`repro.planar.separator`), the interior and each exterior component
becoming child bags; separator edges belong to both sides; live darts
follow the side of the closed curve they are enclosed by (Lemma 5.5).

Distributively this costs Õ(D) rounds per level ([17], [27]); the ledger
is charged the measured BFS depths and separator sizes.

Two construction backends share this one recursion loop (and therefore
every forced-leaf decision, ledger charge and error site):

* ``backend="legacy"`` (default) — the reference substrate:
  :class:`~repro.planar.graph.SubgraphView` per bag, dict-keyed BFS and
  faces, :func:`~repro.planar.separator.fundamental_cycle_separator`;
* ``backend="engine"`` — :class:`repro.engine.decomp.DecompKernels`:
  the same separator algorithm over the compiled CSR arrays (flat BFS
  frontiers, array-built face walks, vectorized dual-subtree weights,
  int edge-id splitting) plus a bit-packed all-pairs-BFS diameter
  kernel for the default leaf size.  **Bit-identical output** — same
  bag ids, levels, sorted ``edge_ids``, ``live_darts``, separator
  metadata, ``forced_leaves`` and error sites — enforced by
  ``tests/test_engine_bdd_parity.py``.
"""

from __future__ import annotations

import math

from repro import obs
from repro.bdd.bags import BDD, Bag
from repro.errors import DecompositionError, NotConnectedError
from repro.planar.graph import SubgraphView
from repro.planar.separator import fundamental_cycle_separator


def default_leaf_size(graph, diameter=None):
    """Paper leaf size O(D log n) (BDD property 3).

    ``diameter`` short-circuits the exact hop-diameter computation when
    the caller already knows it (the engine backend computes it with the
    bit-packed BFS kernel instead of ``graph.diameter()``'s
    BFS-per-vertex loop — same value, orders of magnitude faster).
    """
    n = max(graph.n, 2)
    d = max(graph.diameter() if diameter is None else diameter, 1)
    return max(16, d * math.ceil(math.log2(n)))


class _LegacyKernels:
    """Reference decomposition substrate over :class:`SubgraphView`."""

    def __init__(self, graph):
        self.graph = graph

    def is_connected(self):
        return self.graph.is_connected()

    def diameter(self):
        return self.graph.diameter()

    def separate(self, bag):
        return fundamental_cycle_separator(bag.view())

    def children(self, bag, sep):
        """``(edge_ids, live_darts)`` of each child bag, interior
        components first (Lemma 5.5 side rule for the live darts)."""
        out = []
        inside = sep.inside_darts
        for side_edges, is_inside in _split_edges(bag.view(), sep):
            live = {d for d in bag.live_darts
                    if (d >> 1) in side_edges and
                    ((d in inside) if is_inside else (d not in inside))}
            out.append((side_edges, live))
        return out


def _make_kernels(graph, backend):
    if backend == "legacy":
        return _LegacyKernels(graph)
    if backend == "engine":
        from repro.engine.decomp import DecompKernels

        return DecompKernels(graph)
    raise ValueError(f"unknown BDD backend {backend!r}; expected "
                     f"'legacy' or 'engine'")


def build_bdd(graph, leaf_size=None, ledger=None, max_depth=None,
              backend="legacy"):
    """Build a BDD of an embedded connected planar graph.

    ``leaf_size``: maximum edge count of a leaf bag (default
    Θ(D log n)); smaller values exercise deeper recursions.
    ``backend``: ``"legacy"`` (default, the round-audited reference) or
    ``"engine"`` (array kernels, bit-identical result — see the module
    docstring).
    """
    kernels = _make_kernels(graph, backend)
    with obs.span("bdd.build", m=graph.m, leaf_size=leaf_size,
                  backend=backend) as sp:
        bdd = _build_bdd(graph, leaf_size, ledger, max_depth, kernels)
        sp.tag(bags=len(bdd.bags), depth=bdd.depth)
        return bdd


def _separate(kernels, bag):
    """One separator call, traced per level when obs is on."""
    obs.inc("bdd.separator.calls")
    with obs.span("bdd.separator", level=bag.level, m=bag.m) as sp:
        sep = kernels.separate(bag)
        sp.tag(balance=round(sep.balance, 4),
               sx=len(sep.cycle_vertices), bfs_depth=sep.tree_depth)
        return sep


def _build_bdd(graph, leaf_size, ledger, max_depth, kernels):
    if not kernels.is_connected():
        raise NotConnectedError("BDD requires a connected graph")
    if leaf_size is None:
        leaf_size = default_leaf_size(graph, diameter=kernels.diameter())
    if max_depth is None:
        max_depth = 4 * math.ceil(math.log2(max(graph.m, 2))) + 8

    bags = []
    forced_leaves = 0

    def new_bag(level, edge_ids, live_darts, parent):
        bag = Bag(bag_id=len(bags), level=level,
                  edge_ids=sorted(edge_ids),
                  live_darts=frozenset(live_darts), parent=parent)
        bag._graph = graph
        bags.append(bag)
        if parent is not None:
            parent.children.append(bag)
        return bag

    root = new_bag(0, list(range(graph.m)), range(graph.num_darts), None)

    stack = [root]
    while stack:
        bag = stack.pop()
        if bag.m <= leaf_size:
            continue
        if bag.level >= max_depth:
            raise DecompositionError(
                f"BDD exceeded depth {max_depth}; separator balance broke")

        sep = _separate(kernels, bag)
        bag.sx_vertices = list(sep.cycle_vertices)
        bag.sx_edge_ids = sorted(set(sep.cycle_edge_ids) |
                                 ({sep.chord_eid} if not sep.chord_virtual
                                  else set()))
        bag.ex_endpoints = sep.chord_endpoints
        bag.ex_virtual = sep.chord_virtual
        bag.separator_balance = sep.balance
        bag.bfs_depth = sep.tree_depth

        if ledger is not None:
            ledger.charge(2 * sep.tree_depth + len(sep.cycle_vertices),
                          f"bdd/level{bag.level}/separator",
                          detail=f"bag {bag.bag_id}: |S_X|="
                                 f"{len(sep.cycle_vertices)}",
                          ref="[17]/[27] via DESIGN.md substitution 2")

        children = kernels.children(bag, sep)
        if any(len(ch) >= bag.m for ch, _ in children):
            # separator failed to make progress; keep as leaf
            forced_leaves += 1
            bag.sx_vertices = None
            bag.sx_edge_ids = None
            bag.ex_endpoints = None
            continue

        for side_edges, live in children:
            child = new_bag(bag.level + 1, side_edges, live, bag)
            stack.append(child)

    bdd = BDD(graph=graph, root=root, bags=bags, leaf_size=leaf_size,
              forced_leaves=forced_leaves)
    _check_dart_partition(bdd)
    return bdd


def _split_edges(view, sep):
    """Edge sets of the child bags, each tagged with its side.

    The interior of the separator curve and each connected exterior
    component become children; separator edges belong to both sides.
    Returns list of ``(edge_set, is_inside)`` pairs.
    """
    inside_edges = set()
    outside_edges = set()
    for eid in view.edge_ids:
        a = (2 * eid) in sep.inside_darts
        b = (2 * eid + 1) in sep.inside_darts
        if a or b:
            inside_edges.add(eid)
        if (not a) or (not b):
            outside_edges.add(eid)

    children = []
    for side, is_inside in ((inside_edges, True), (outside_edges, False)):
        if not side:
            continue
        sub = SubgraphView(view.parent, sorted(side))
        for comp in sub.connected_edge_components():
            children.append((set(comp), is_inside))
    return children


def _check_dart_partition(bdd):
    """Lemma 5.5: each live dart of a bag lands in exactly one child."""
    for bag in bdd.bags:
        if bag.is_leaf:
            continue
        for d in bag.live_darts:
            owners = [c for c in bag.children if d in c.live_darts]
            if len(owners) != 1:
                raise DecompositionError(
                    f"dart {d} of bag {bag.bag_id} is live in "
                    f"{len(owners)} children")
