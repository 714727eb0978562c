"""Engine-backed Theorem 2.1 label construction (DESIGN.md §9).

The legacy labeling recursion (:mod:`repro.labeling.scheme`) is the
round-audited CONGEST simulation: per bag it rebuilds dict-keyed dual
arcs, runs hashable-node SPFA, and derives every child distance by
*decoding* the child's label chain — faithful to the protocol, and by
far the most expensive cold path left in the serving layer.  This
module is its centralized fast path.  On integral lengths it produces
**bit-identical labels** (the same :class:`~repro.labeling.labels.Label`
chains, the same dict contents, the same
:class:`~repro.errors.NegativeCycleError` messages and ``where``
sites).  On non-integral float lengths the two backends may differ in
the last bit, and an integral float sum comes back as an int here
(legacy keeps ``1.0``): the legacy decodes child distances as sums of
label entries, which associates path sums differently.  There are
three compiled ingredients:

* :class:`CompiledBagSlice` — the dual of one bag as a CSR sub-array
  sliced out of the global topology: local int node/dart ids (with the
  ``rev(d) == d ^ 1`` pairing preserved, so the in-arc trick of
  :class:`~repro.engine.workspace._VectorDualKernel` applies verbatim),
  plus a per-slice :class:`~repro.engine.workspace.FlowWorkspace` whose
  Bellman–Ford kernels run the per-bag shortest paths.  Leaf-bag APSP
  is one :meth:`~repro.engine.workspace.FlowWorkspace.batched_sssp`
  call with every bag node as a source.  A build or repair turns the
  per-dart lengths into one float64 table once
  (:func:`dart_length_table`), and each slice load is one gather from
  it through the slice's global dart ids.

* :class:`CompiledInternalBag` — the Section 5.3 DDG of a non-leaf bag
  with int-indexed ``F_X`` faces and ``(child, face)`` node-parts: the
  dual ``S_X`` arcs, the zero links between parts of one face, and the
  *slots* of the per-child cliques whose lengths are child distances.
  Child distances are not decoded from labels: within child bag ``c``
  the decoded distance *is* the distance in ``c``'s dual (Lemma 5.16),
  so the builder runs one forward and one reverse batched SSSP over the
  child's slice anchored at ``F_X ∩ c`` and reads the clique lengths
  and every node-to-anchor distance straight out of the two matrices.

* the DDG relaxation.  With numpy, the clique/S_X/zero arcs are
  assembled as one dense ``P x P`` matrix (parallel arcs min-reduced)
  and, when every arc is nonnegative, relaxed for all parts at once by
  min-plus Bellman–Ford passes over blocks of sources; each candidate
  is the left-fold ``dist(u) + len`` of a Dijkstra, so the distances
  equal the per-part Dijkstra rows exactly.  The ``F_X`` part-group
  minima are ``np.minimum.reduceat`` over the contiguous groups.
  Without numpy, the same DDG runs one Dijkstra per part on a pooled
  :class:`~repro.engine.dijkstra.DijkstraWorkspace` (O(1) re-init via
  generation stamps).  Either way, mixed signs fall back to an
  int-indexed SPFA with the legacy relaxation-count detection.

Compilation is topology-only and cached in the process-wide artifact
cache keyed by the graph's topology token (:func:`compile_labeling_
bags`), so a ``set_weights`` reprice on a served graph rebuilds labels
over the *same* bag arrays — only the per-dart lengths are reloaded.
The per-slice workspaces live inside the compiled artifact, so the
recursion over the BDD allocates nothing per bag in steady state.

Negative-cycle parity (Lemma 5.19): bags are processed in the legacy
order (levels deepest-first, bags in level order), every legacy raise
site is replicated with the same message and ``where``, and the child
SSSPs can never trip first — a negative cycle inside a child's dual
would already have raised while that child was processed.

**Delta repair** (DESIGN.md §11): a weight mutation touches one dual
dart per edge, and the set of bags whose labels can depend on that
dart's length — the bags whose dual contains the dart as an arc — is
ancestor-closed (live darts nest upward, and ``sx_arc_darts ⊆
arc_darts`` per :func:`repro.bdd.dual_bags.build_dual_bag`).  So a
clean bag's whole subtree is clean and its labels are exactly what a
full rebuild would produce.  :func:`repair_dual_labels_engine` walks
the same level order recomputing only the dirty bags; inside a dirty
internal bag it reuses the recorded anchored-SSSP matrices of clean
children (the dominant per-bag cost) and skips re-labeling a clean
child's nodes outright when that child's DDG boundary rows
(``m_out`` / ``m_in``) come back unchanged.  Clean bags cannot raise
(their inputs are unchanged and the previous build succeeded), and
dirty bags run in the legacy order, so the first
:class:`NegativeCycleError` — message and ``where`` — matches the
full rebuild bit for bit.
"""

from __future__ import annotations

import math
import time
from collections import deque

from repro import obs
from repro._artifacts import shared_cache, topo_token
from repro._compat import np as _np
from repro.engine.dijkstra import DijkstraWorkspace
from repro.engine.workspace import FlowWorkspace, _as_scalar, _dart_array
from repro.errors import DecompositionError, NegativeCycleError
from repro.planar.graph import rev

# Label / LabelEntry are imported lazily inside the builders:
# repro.labeling imports repro.engine (for the SSSP fast path), so a
# module-level import here would close an import cycle.

INF = math.inf


#: cap on the ``(block, P, P)`` float64 temporary of one min-plus DDG
#: pass (2**19 elements = 4 MB); bigger DDGs relax a source block at a
#: time
_DDG_BLOCK_ELEMS = 1 << 19


def dart_length_table(lengths, num_darts):
    """The per-dart ``lengths`` mapping in the form
    :meth:`CompiledBagSlice.load_lengths` reads, built once per build
    or repair: with numpy one float64 array of ``num_darts + 1``
    entries whose last is ``inf`` (so a slice's padding dart ``-1``
    indexes it); without numpy the mapping unchanged."""
    if _np is None:
        return lengths
    table = _np.empty(num_darts + 1, dtype=_np.float64)
    table[:num_darts] = _dart_array(lengths, num_darts)
    table[num_darts] = INF
    return table


def _matrix_scalars(m):
    """A distance matrix -> list of rows of Python scalars with legacy
    types: ints where integral (the common case, converted wholesale in
    one call), ``math.inf`` where unreached — the matrix form of
    :func:`repro.engine.workspace._as_scalar`."""
    if _np is not None and isinstance(m, _np.ndarray):
        if (_np.isfinite(m).all() and (m == _np.rint(m)).all()
                and (_np.abs(m) < 2.0 ** 63).all()):
            return m.astype(_np.int64).tolist()
        return [[_as_scalar(x) for x in row] for row in m.tolist()]
    return [[_as_scalar(x) for x in row] for row in m]


def _transpose(m):
    """Transpose of a distance matrix (ndarray, or list of rows)."""
    if _np is not None and isinstance(m, _np.ndarray):
        return m.T
    return [list(col) for col in zip(*m)]


class CompiledBagSlice:
    """The dual of one bag as flat local arrays + a reusable workspace.

    Exposes exactly the attribute surface of
    :class:`~repro.engine.csr.CompiledPlanarGraph` that
    :class:`~repro.engine.workspace.FlowWorkspace` consumes
    (``num_faces`` / ``num_darts`` / ``face_left`` / ``dual_indptr`` /
    ``dual_arc_dart`` / ``dual_arc_head`` / ``slot_of_dart``), so the
    flow kernels run on a bag slice unchanged.  Local dart ids keep the
    ``rev`` pairing: global pair ``(d, d^1)`` maps to local ``(2i,
    2i+1)``.  Faces with no dual arc in the slice get a padding
    self-loop pair (global dart ``-1``, length forced to ``inf``) so
    every CSR segment is nonempty — a precondition of the workspace's
    ``reduceat`` kernels.
    """

    __slots__ = ("bag_id", "nodes", "index", "num_faces", "num_darts",
                 "dart_global", "face_left", "dual_indptr",
                 "dual_arc_dart", "dual_arc_head", "slot_of_dart",
                 "_workspace", "_flat", "_gather")

    def __init__(self, dual, graph):
        self.bag_id = dual.bag.bag_id
        nodes = sorted(dual.nodes)
        self.nodes = nodes
        index = {f: i for i, f in enumerate(nodes)}
        self.index = index
        nf = len(nodes)
        self.num_faces = nf

        dart_global = []
        face_left = []
        for d in dual.arc_darts:
            if d & 1:
                continue  # the partner dart joins with its pair
            dart_global.append(d)
            dart_global.append(d ^ 1)
            face_left.append(index[graph.face_of[d]])
            face_left.append(index[graph.face_of[d ^ 1]])

        counts = [0] * nf
        for lf in face_left:
            counts[lf] += 1
        for fi in range(nf):
            if counts[fi] == 0:
                dart_global.extend((-1, -1))
                face_left.extend((fi, fi))
        nd = len(dart_global)
        self.num_darts = nd
        self.dart_global = dart_global
        self.face_left = face_left

        indptr = [0] * (nf + 1)
        for lf in face_left:
            indptr[lf + 1] += 1
        for f in range(nf):
            indptr[f + 1] += indptr[f]
        fill = indptr[:nf]
        arc_dart = [0] * nd
        arc_head = [0] * nd
        slot_of_dart = [0] * nd
        for ld in range(nd):
            lf = face_left[ld]
            s = fill[lf]
            fill[lf] = s + 1
            arc_dart[s] = ld
            arc_head[s] = face_left[ld ^ 1]
            slot_of_dart[ld] = s
        self.dual_indptr = indptr
        self.dual_arc_dart = arc_dart
        self.dual_arc_head = arc_head
        self.slot_of_dart = slot_of_dart
        self._workspace = None
        self._flat = [INF] * nd if _np is None else None
        self._gather = None

    @property
    def workspace(self):
        """The slice's reusable :class:`FlowWorkspace` (built once)."""
        if self._workspace is None:
            self._workspace = FlowWorkspace(self)
        return self._workspace

    def load_lengths(self, lengths, reverse=False):
        """Load per-global-dart ``lengths`` into the slice workspace.

        ``lengths`` is a :func:`dart_length_table`: with numpy a float64
        array whose last entry is the ``inf`` that the padding dart
        ``-1`` reads, and the load is one gather through the slice's
        global dart ids, precomposed with the kernel's in-slot order;
        without numpy, the per-dart mapping itself.

        With ``reverse=True`` the loaded graph is the slice's reverse:
        the arc of local dart ``ld`` (same tail/head arrays) carries the
        length of its partner's global dart, which is exactly the
        reversed arc set because the slice contains both darts of every
        pair.
        """
        ws = self.workspace
        if _np is not None:
            if self._gather is None:
                partner = _np.arange(self.num_darts) ^ 1
                self._gather = (
                    ws.in_slot_index(self.dart_global),
                    ws.in_slot_index(_np.asarray(self.dart_global)[partner]))
            ws.load_in_slot_lengths(lengths[self._gather[reverse]])
            return
        dg = self.dart_global
        flat = self._flat
        if reverse:
            for ld in range(len(dg)):
                gd = dg[ld ^ 1]
                flat[ld] = INF if gd < 0 else lengths[gd]
        else:
            for ld, gd in enumerate(dg):
                flat[ld] = INF if gd < 0 else lengths[gd]
        ws.load_lengths(flat)

    def batched_sssp(self, lengths, sources, reverse=False):
        """Distance rows (matrix or list of rows, see
        :meth:`FlowWorkspace.batched_sssp`) from local ``sources``."""
        self.load_lengths(lengths, reverse=reverse)
        return self.workspace.batched_sssp(sources)


class _ChildRec:
    """One child of an internal bag: its ``F_X`` anchors, int-indexed
    three ways (face id, child-slice node, DDG part)."""

    __slots__ = ("bag_id", "cf_faces", "cf_local", "cf_part",
                 "fx_cf_pos", "direct")

    def __init__(self, bag_id, cf_faces, cf_local, cf_part, fx_cf_pos):
        self.bag_id = bag_id
        self.cf_faces = cf_faces
        self.cf_local = cf_local
        self.cf_part = cf_part
        #: j -> position of f_x[j] in cf_faces, or -1 when the face
        #: does not live in this child (the "direct distance" test)
        self.fx_cf_pos = fx_cf_pos
        if _np is not None:
            #: (F_X positions, anchors) of the faces living in this
            #: child — the array form of ``fx_cf_pos >= 0``
            js = [j for j, a in enumerate(fx_cf_pos) if a >= 0]
            self.direct = (_np.array(js, dtype=_np.intp),
                           _np.array([fx_cf_pos[j] for j in js],
                                     dtype=_np.intp))


class CompiledInternalBag:
    """Int-indexed Section 5.3 structures of one non-leaf bag."""

    __slots__ = ("bag_id", "f_x", "node_list", "owner_pos", "owner_idx",
                 "children", "num_parts", "group_bounds", "sx_arcs",
                 "zero_links", "group_starts", "group_nonempty",
                 "sx_index", "sx_darts", "zero_index")

    def __init__(self, bag, dual, duals, compiled_slices, graph):
        self.bag_id = bag.bag_id
        f_x = sorted(dual.f_x)
        self.f_x = f_x
        fx_pos = {f: j for j, f in enumerate(f_x)}

        dart_child = {}
        for c in bag.children:
            for d in c.live_darts:
                dart_child[d] = c

        # parts in legacy order (F_X-major, children in bag order), so
        # every parts_of_face group is one contiguous index range
        part_index = {}
        group_bounds = []
        for f in f_x:
            start = len(part_index)
            for c in bag.children:
                if f in duals[c.bag_id].nodes:
                    part_index[(c.bag_id, f)] = len(part_index)
            group_bounds.append((start, len(part_index)))
        self.num_parts = len(part_index)
        self.group_bounds = group_bounds

        children = []
        for c in bag.children:
            child_slice = compiled_slices[c.bag_id]
            cf_faces = [f for f in f_x
                        if f in duals[c.bag_id].nodes]
            cf_local = [child_slice.index[f] for f in cf_faces]
            cf_part = [part_index[(c.bag_id, f)] for f in cf_faces]
            fx_cf_pos = [-1] * len(f_x)
            for a, f in enumerate(cf_faces):
                fx_cf_pos[fx_pos[f]] = a
            children.append(_ChildRec(c.bag_id, cf_faces, cf_local,
                                      cf_part, fx_cf_pos))
        self.children = children

        self.sx_arcs = []
        for d in dual.sx_arc_darts:
            p = part_index[(dart_child[d].bag_id, graph.face_of[d])]
            q = part_index[(dart_child[rev(d)].bag_id,
                            graph.face_of[rev(d)])]
            self.sx_arcs.append((p, q, d))

        self.zero_links = []
        for (start, end) in group_bounds:
            for p in range(start, end):
                for q in range(start, end):
                    if p != q:
                        self.zero_links.append((p, q))

        if _np is not None:
            self._index_arrays()

        child_pos = {c.bag_id: i for i, c in enumerate(bag.children)}
        node_list = sorted(dual.nodes)
        self.node_list = node_list
        #: per node: -1 = F_X face, -2 = no owning child (legacy
        #: DecompositionError), else index into ``children``
        owner_pos = []
        owner_idx = []
        for f in node_list:
            if f in dual.f_x:
                owner_pos.append(-1)
                owner_idx.append(-1)
                continue
            c = dual.child_of_node[f]
            if c is None:
                owner_pos.append(-2)
                owner_idx.append(-1)
            else:
                owner_pos.append(child_pos[c.bag_id])
                owner_idx.append(
                    compiled_slices[c.bag_id].index[f])
        self.owner_pos = owner_pos
        self.owner_idx = owner_idx


    def _index_arrays(self):
        """Array forms of the DDG structures for the vectorized stage:
        the starts of the nonempty part groups (the ``reduceat``
        offsets — an empty group spans nothing between two of them),
        the F_X positions those groups belong to, and the ``S_X`` /
        zero-link endpoints as index arrays."""
        nonempty = [j for j, (s, e) in enumerate(self.group_bounds)
                    if e > s]
        self.group_starts = _np.array(
            [self.group_bounds[j][0] for j in nonempty], dtype=_np.intp)
        self.group_nonempty = _np.array(nonempty, dtype=_np.intp)
        self.sx_index = (
            _np.array([p for p, _, _ in self.sx_arcs], dtype=_np.intp),
            _np.array([q for _, q, _ in self.sx_arcs], dtype=_np.intp))
        self.sx_darts = [d for _, _, d in self.sx_arcs]
        self.zero_index = (
            _np.array([p for p, _ in self.zero_links], dtype=_np.intp),
            _np.array([q for _, q in self.zero_links], dtype=_np.intp))


class CompiledLabelingBags:
    """Topology-only compilation of a BDD + dual bags for the engine
    labeling builder: per-bag slices, per-internal-bag DDG arrays, the
    legacy processing order, and one pooled DDG Dijkstra workspace."""

    def __init__(self, bdd, duals=None):
        if duals is None:
            from repro.bdd.dual_bags import build_all_dual_bags

            duals = build_all_dual_bags(bdd)
        graph = bdd.graph
        root_id = bdd.root.bag_id
        self.root_id = root_id
        self.slices = {}
        for bag in bdd.bags:
            if bag.bag_id == root_id and not bag.is_leaf:
                continue  # the root is nobody's child and never a leaf
            self.slices[bag.bag_id] = CompiledBagSlice(
                duals[bag.bag_id], graph)
        self.internal = {}
        for bag in bdd.bags:
            if not bag.is_leaf:
                self.internal[bag.bag_id] = CompiledInternalBag(
                    bag, duals[bag.bag_id], duals, self.slices, graph)
        #: legacy processing order: (bag_id, is_leaf) by level,
        #: deepest level first, bags in level order
        self.levels = [[(b.bag_id, b.is_leaf) for b in level]
                       for level in bdd.levels()]
        self.max_parts = max(
            (rec.num_parts for rec in self.internal.values()),
            default=0)
        self._ddg_ws = None
        self._bags_of_dart = None

    @property
    def ddg_workspace(self):
        """Pooled nonnegative-DDG Dijkstra workspace (built once,
        O(1) re-init per bag via generation stamps)."""
        if self._ddg_ws is None:
            self._ddg_ws = DijkstraWorkspace(max(self.max_parts, 1))
        return self._ddg_ws

    @property
    def bags_of_dart(self):
        """global dart -> list of bag ids whose dual contains the dart
        as an arc (built lazily on the first repair).  The non-leaf
        root has no slice and is not listed — it has every dart live,
        so :func:`dirty_bags` adds it unconditionally."""
        if self._bags_of_dart is None:
            bd = {}
            for bag_id, sl in self.slices.items():
                for gd in sl.dart_global:
                    if gd >= 0:
                        bd.setdefault(gd, []).append(bag_id)
            self._bags_of_dart = bd
        return self._bags_of_dart


def compile_labeling_bags(bdd, duals=None):
    """Compiled bag arrays for ``bdd``, cached in the process-wide
    artifact cache under the graph's topology token.

    The BDD construction is deterministic in ``(graph, leaf_size)``, so
    a rebuild of the same decomposition (e.g. after a
    ``GraphCatalog.set_weights`` reprice dropped the per-name BDD
    artifact) hits the same compiled arrays — weight-only changes never
    recompile the bags.
    """
    key = ("labels-bags", topo_token(bdd.graph), bdd.leaf_size,
           len(bdd.bags), bdd.depth)

    def build():
        with obs.span("labeling.compile_bags", bags=len(bdd.bags)):
            return CompiledLabelingBags(bdd, duals)

    return shared_cache().get_or_build(key, build)


class _InternalRepair:
    """Weight-dependent repair state of one internal bag: the anchored
    child SSSP matrices and the per-child DDG boundary rows of the last
    successful build.  Lives on the *labeling* instance (per weight
    vector), never inside the shared topology-only compilation."""

    __slots__ = ("fwd", "back", "m_out", "m_in")

    def __init__(self, num_children):
        self.fwd = [None] * num_children
        self.back = [None] * num_children
        self.m_out = [None] * num_children
        self.m_in = [None] * num_children


#: marks a clean child whose node labels were verified unchanged and
#: therefore skipped wholesale during a repair
_REUSED = object()


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
def build_dual_labels_engine(labeling, compiled=None):
    """Fill ``labeling._labels`` with the Theorem 2.1 labels (equal
    to the legacy backend's bit for bit on integral lengths) using the
    compiled bag arrays (see the module docstring).

    When the labeling carries a repair-state dict
    (``labeling._repair`` is not ``None`` — see
    ``DualDistanceLabeling(repair_state=True)``), the per-bag child
    SSSP matrices and DDG boundary rows are recorded as they are
    computed, arming :func:`repair_dual_labels_engine`.
    """
    if compiled is None:
        compiled = compile_labeling_bags(labeling.bdd, labeling.duals)
    lengths = dart_length_table(labeling.lengths, labeling.graph.num_darts)
    labels = labeling._labels
    state = getattr(labeling, "_repair", None)
    with obs.span("labeling.build",
                  bags=sum(len(lv) for lv in compiled.levels)):
        for level in compiled.levels:
            for bag_id, is_leaf in level:
                if is_leaf:
                    _label_leaf(compiled, bag_id, lengths, labels)
                else:
                    _label_internal(compiled, bag_id, lengths, labels,
                                    state=state)
    return labels


def dirty_bags(compiled, darts):
    """Bag ids whose labels may depend on the lengths of ``darts``.

    A bag is dirty when its dual contains a changed dart as an arc;
    the set is ancestor-closed because live darts nest upward (see the
    module docstring).  The non-leaf root carries no slice but has
    every dart live, so any real change dirties it.
    """
    bd = compiled.bags_of_dart
    dirty = set()
    for d in darts:
        dirty.update(bd.get(d, ()))
    if dirty or darts:
        dirty.add(compiled.root_id)
    return dirty


def repair_dual_labels_engine(labeling, changed, compiled=None,
                              dirty=None):
    """Apply the dart-length ``changed`` mapping to ``labeling`` by
    recomputing only the dirty bags, in the legacy level order.

    Requires a labeling built with repair state (see
    :func:`build_dual_labels_engine`).  Returns a stats dict.  On
    :class:`NegativeCycleError` the raise site matches a full rebuild
    bit for bit, but the labeling is left *corrupt* (partially
    repriced) — the caller must discard it.
    """
    if compiled is None:
        compiled = compile_labeling_bags(labeling.bdd, labeling.duals)
    state = getattr(labeling, "_repair", None)
    if state is None:
        raise ValueError("labeling has no repair state; construct it "
                         "with repair_state=True to enable "
                         "delta repair")
    if dirty is None:
        dirty = dirty_bags(compiled, changed)
    labeling.lengths.update(changed)
    lengths = dart_length_table(labeling.lengths, labeling.graph.num_darts)
    labels = labeling._labels
    stats = {"changed_darts": len(changed),
             "dirty_bags": len(dirty),
             "total_bags": sum(len(lv) for lv in compiled.levels),
             "repaired_leaves": 0, "repaired_internal": 0,
             "sssp_children": 0, "reused_children": 0}
    with obs.span("labeling.repair", changed=len(changed),
                  dirty=len(dirty)):
        for level in compiled.levels:
            for bag_id, is_leaf in level:
                if bag_id not in dirty:
                    continue
                if is_leaf:
                    _label_leaf(compiled, bag_id, lengths, labels)
                    stats["repaired_leaves"] += 1
                else:
                    _label_internal(compiled, bag_id, lengths, labels,
                                    state=state, dirty=dirty, stats=stats)
                    stats["repaired_internal"] += 1
    return stats


def _label_leaf(compiled, bag_id, lengths, labels):
    """Leaf bag: whole-bag APSP in one batched Bellman–Ford call."""
    from repro.labeling.labels import Label, LabelEntry

    t0 = time.perf_counter()
    sl = compiled.slices[bag_id]
    nodes = sl.nodes
    k = len(nodes)
    if k == 0:
        return
    try:
        rows = sl.batched_sssp(lengths, range(k))
    except NegativeCycleError:
        raise NegativeCycleError(
            f"negative cycle in leaf bag {bag_id}",
            where=("leaf", bag_id))
    # rows[v][h] = dist(nodes[v] -> nodes[h]); dist_from reads the
    # transpose of the same matrix
    to_rows = _matrix_scalars(rows)
    from_rows = _matrix_scalars(_transpose(rows))
    for vi, v in enumerate(nodes):
        entry = LabelEntry(
            bag_id=bag_id, node=v, is_leaf=True,
            dist_to=dict(zip(nodes, to_rows[vi])),
            dist_from=dict(zip(nodes, from_rows[vi])))
        labels[(bag_id, v)] = Label(node=v, entries=[entry])
    obs.observe("labeling.leaf_apsp_seconds", time.perf_counter() - t0)


def _ddg_arcs(rec, fwd, lengths):
    """The assembled DDG arcs ``(tail part, head part, length)`` in
    legacy order — child cliques, ``S_X`` arcs, zero links — and
    whether any is negative."""
    arcs = []
    has_negative = False
    for ci, child in enumerate(rec.children):
        f_rows = fwd[ci]
        if f_rows is None:
            continue
        cf_local = child.cf_local
        cf_part = child.cf_part
        for a1 in range(len(cf_local)):
            row = f_rows[a1]
            p = cf_part[a1]
            for a2 in range(len(cf_local)):
                if a1 == a2:
                    continue
                dd = row[cf_local[a2]]
                if dd < INF:
                    arcs.append((p, cf_part[a2], dd))
                    if dd < 0:
                        has_negative = True
    for (p, q, d) in rec.sx_arcs:
        ln = lengths[d]
        arcs.append((p, q, ln))
        if ln < 0:
            has_negative = True
    for (p, q) in rec.zero_links:
        arcs.append((p, q, 0))
    return arcs, has_negative


def _ddg_dijkstra(compiled, rec, arcs):
    """All-parts distance rows over nonnegative DDG arcs, one Dijkstra
    per part on the pooled workspace (the numpy-free kernel)."""
    ws = compiled.ddg_workspace
    ws.load_arcs([(i, t, h, ln) for i, (t, h, ln) in enumerate(arcs)
                  if ln < INF])
    p_count = rec.num_parts
    ddg = []
    for p in range(p_count):
        ws.sssp(p)
        ddg.append([ws.distance(q) for q in range(p_count)])
    return ddg


def _ddg_spfa(rec, arcs):
    """All-parts distance rows over mixed-sign DDG arcs: int-indexed
    SPFA with the legacy relaxation-count negative-cycle detection
    (limit ``P + 1``, as in :func:`repro.labeling.scheme._spfa`)."""
    p_count = rec.num_parts
    adj = [[] for _ in range(p_count)]
    for (t, h, ln) in arcs:
        if ln < INF:
            adj[t].append((h, ln))
    limit = p_count + 1
    ddg = []
    for p in range(p_count):
        dist = [INF] * p_count
        cnt = [0] * p_count
        inq = bytearray(p_count)
        dist[p] = 0
        inq[p] = 1
        q = deque([p])
        while q:
            u = q.popleft()
            inq[u] = 0
            du = dist[u]
            for (h, ln) in adj[u]:
                nd = du + ln
                if nd < dist[h]:
                    dist[h] = nd
                    cnt[h] += 1
                    if cnt[h] > limit:
                        raise NegativeCycleError(
                            f"negative cycle crossing F_X of bag "
                            f"{rec.bag_id}", where=("ddg", rec.bag_id))
                    if not inq[h]:
                        inq[h] = 1
                        q.append(h)
        ddg.append(dist)
    return ddg


def _ddg_matrix(rec, fwd, lengths):
    """The DDG of ``rec`` as one dense ``P x P`` arc-length matrix
    (``inf`` = no arc): child cliques copied out of the anchored forward
    matrices, then ``S_X`` arcs and zero links, parallel arcs
    min-reduced (never summed)."""
    p_count = rec.num_parts
    w = _np.full((p_count, p_count), INF)
    for ci, child in enumerate(rec.children):
        f_rows = fwd[ci]
        if f_rows is None:
            continue
        # the parts of different children are disjoint, so each clique
        # block lands on arcs no other clique touches
        clique = f_rows[:, child.cf_local]
        _np.fill_diagonal(clique, INF)
        w[_np.ix_(child.cf_part, child.cf_part)] = clique
    if rec.sx_darts:
        _np.minimum.at(w, rec.sx_index,
                       _np.array([lengths[d] for d in rec.sx_darts],
                                 dtype=_np.float64))
    zp, zq = rec.zero_index
    w[zp, zq] = _np.minimum(w[zp, zq], 0.0)
    return w


def _ddg_relax(w):
    """All-parts distance matrix over the nonnegative DDG arc matrix
    ``w``.

    Min-plus Bellman–Ford passes ``D = min(D, min_u D[:, u] + W[u, :])``
    over a block of sources at a time, so the ``(block, P, P)``
    temporary holds at most :data:`_DDG_BLOCK_ELEMS` elements (or one
    source's ``P x P`` when that is more).  Every candidate is
    the left-fold ``dist(u) + len(u, v)`` a per-source Dijkstra forms,
    so the fixpoint (the minimum over walks of those left-folds) equals
    the Dijkstra rows exactly, for non-integral floats too —
    Floyd–Warshall or min-plus squaring would re-associate the sums.
    Rows are independent, so a row with no improvement in a pass has
    converged and leaves the active set.
    """
    p_count = w.shape[0]
    # the first pass from the zero diagonal reaches exactly the out-arcs
    dist = w.copy()
    _np.fill_diagonal(dist, 0.0)
    if p_count == 0:
        return dist
    block = max(1, min(p_count, _DDG_BLOCK_ELEMS // (p_count * p_count)))
    buf = _np.empty((block, p_count, p_count))
    for lo in range(0, p_count, block):
        rows = dist[lo:lo + block]
        active = _np.arange(rows.shape[0])
        while active.size:
            sub = rows[active]
            tmp = buf[:active.size]
            _np.add(sub[:, :, None], w, out=tmp)
            cand = tmp.min(axis=1)
            improved = (cand < sub).any(axis=1)
            active = active[improved]
            rows[active] = _np.minimum(sub[improved], cand[improved])
    return dist


def _group_min_np(rec, m, axis):
    """Min of ``m`` over each contiguous ``F_X`` part group along
    ``axis`` — one row/column per ``F_X`` face, ``inf`` for a face with
    no part (``reduceat`` alone would return an element there)."""
    nfx = len(rec.f_x)
    ne = rec.group_nonempty
    if nfx and len(ne) == nfx:
        return _np.minimum.reduceat(m, rec.group_starts, axis=axis)
    shape = list(m.shape)
    shape[axis] = nfx
    out = _np.full(shape, INF)
    if len(ne):
        idx = [slice(None)] * m.ndim
        idx[axis] = ne
        out[tuple(idx)] = _np.minimum.reduceat(m, rec.group_starts,
                                               axis=axis)
    return out


def _ddg_stage_np(rec, fwd, lengths):
    """The DDG stage on arrays: ``(fd, self_dist, m_out_c, m_in_c)`` —
    the ``F_X`` face-to-face matrix (zero diagonal), the per-face
    self-distances of the negative-cycle check, and per child the
    boundary rows ``m_out[a][j] = min_{q in parts(f_x[j])}
    ddg[part(cf[a])][q]`` and ``m_in[a][j] = min_q ddg[q][part(cf[a])]``
    (``None`` for a child with no ``F_X`` face)."""
    w = _ddg_matrix(rec, fwd, lengths)
    negative = w.size > 0 and w.min() < 0
    # mixed signs: the legacy SPFA over the arc list, and its raise site
    arcs = _ddg_arcs(rec, fwd, lengths)[0] if negative else None
    t0 = time.perf_counter()
    if negative:
        ddg = _np.array(_ddg_spfa(rec, arcs), dtype=_np.float64)
    else:
        ddg = _ddg_relax(w)
    obs.observe("labeling.ddg_relax_seconds", time.perf_counter() - t0)
    row_g = _group_min_np(rec, ddg, axis=1)   # part x face
    col_g = _group_min_np(rec, ddg, axis=0)   # face x part
    fd = _group_min_np(rec, row_g, axis=0)
    self_dist = fd.diagonal().copy()
    _np.fill_diagonal(fd, 0.0)
    m_out_c = []
    m_in_c = []
    for ci, child in enumerate(rec.children):
        if fwd[ci] is None:
            m_out_c.append(None)
            m_in_c.append(None)
        else:
            m_out_c.append(row_g[child.cf_part])
            m_in_c.append(col_g[:, child.cf_part].T)
    return fd, self_dist, m_out_c, m_in_c


def _group_min(row, bounds):
    """min over one contiguous part group of a distance row."""
    start, end = bounds
    best = INF
    for q in range(start, end):
        if row[q] < best:
            best = row[q]
    return best


def _ddg_stage_py(compiled, rec, fwd, lengths):
    """The numpy-free DDG stage; same contract as
    :func:`_ddg_stage_np`, on lists."""
    arcs, has_negative = _ddg_arcs(rec, fwd, lengths)
    t0 = time.perf_counter()
    if has_negative:
        ddg = _ddg_spfa(rec, arcs)
    else:
        ddg = _ddg_dijkstra(compiled, rec, arcs)
    obs.observe("labeling.ddg_relax_seconds", time.perf_counter() - t0)

    nfx = len(rec.f_x)
    bounds = rec.group_bounds
    fd = [[INF] * nfx for _ in range(nfx)]
    self_dist = [INF] * nfx
    for i in range(nfx):
        si, ei = bounds[i]
        for j in range(nfx):
            best = INF
            for p in range(si, ei):
                b = _group_min(ddg[p], bounds[j])
                if b < best:
                    best = b
            if i == j:
                self_dist[i] = best
                fd[i][j] = 0
            else:
                fd[i][j] = best

    m_out_c = []
    m_in_c = []
    for ci, child in enumerate(rec.children):
        if fwd[ci] is None:
            m_out_c.append(None)
            m_in_c.append(None)
            continue
        ncf = len(child.cf_local)
        m_out = [[INF] * nfx for _ in range(ncf)]
        m_in = [[INF] * nfx for _ in range(ncf)]
        for a in range(ncf):
            p = child.cf_part[a]
            row = ddg[p]
            for j in range(nfx):
                m_out[a][j] = _group_min(row, bounds[j])
                sj, ej = bounds[j]
                best = INF
                for q in range(sj, ej):
                    if ddg[q][p] < best:
                        best = ddg[q][p]
                m_in[a][j] = best
        m_out_c.append(m_out)
        m_in_c.append(m_in)
    return fd, self_dist, m_out_c, m_in_c


def _label_internal(compiled, bag_id, lengths, labels, state=None,
                    dirty=None, stats=None):
    from repro.labeling.labels import Label, LabelEntry

    rec = compiled.internal[bag_id]
    f_x = rec.f_x
    nfx = len(f_x)
    repairing = dirty is not None
    rep = None
    if state is not None:
        rep = state.get(bag_id)
        if rep is None:
            rep = _InternalRepair(len(rec.children))
            state[bag_id] = rep

    # ---- child anchored SSSPs (forward + reverse per child) ----------
    # A clean child's slice lengths are untouched, so its recorded
    # matrices from the last build are exactly what a fresh SSSP would
    # return — the dominant per-bag cost a repair skips.
    fwd = []     # fwd[ci][a][node] = d_c(cf[a] -> node)
    back = []    # back[ci][a][node] = d_c(node -> cf[a])
    for ci, child in enumerate(rec.children):
        if not child.cf_local:
            fwd.append(None)
            back.append(None)
            continue
        if repairing and child.bag_id not in dirty:
            fwd.append(rep.fwd[ci])
            back.append(rep.back[ci])
            if stats is not None:
                stats["reused_children"] += 1
            continue
        sl = compiled.slices[child.bag_id]
        fwd.append(sl.batched_sssp(lengths, child.cf_local))
        back.append(sl.batched_sssp(lengths, child.cf_local,
                                    reverse=True))
        if stats is not None:
            stats["sssp_children"] += 1
    old_m_out = rep.m_out if rep is not None else None
    old_m_in = rep.m_in if rep is not None else None
    if rep is not None:
        rep.fwd = fwd
        rep.back = back

    # ---- DDG: assemble, relax, F_X part-group minima -----------------
    if _np is not None:
        fd, self_dist, m_out_c, m_in_c = _ddg_stage_np(rec, fwd, lengths)
    else:
        fd, self_dist, m_out_c, m_in_c = _ddg_stage_py(
            compiled, rec, fwd, lengths)

    # ---- negative-cycle face check + F_X labels ----------------------
    for j, f in enumerate(f_x):
        if self_dist[j] < 0:
            raise NegativeCycleError(
                f"negative cycle through F_X node {f} of bag "
                f"{bag_id}", where=("ddg", bag_id))
    fd_to = _matrix_scalars(fd)
    fd_from = _matrix_scalars(_transpose(fd))
    for j, f in enumerate(f_x):
        entry = LabelEntry(bag_id=bag_id, node=f, is_leaf=False,
                           dist_to=dict(zip(f_x, fd_to[j])),
                           dist_from=dict(zip(f_x, fd_from[j])))
        labels[(bag_id, f)] = Label(node=f, entries=[entry])

    # ---- per-child node-to-F_X distance matrices ---------------------
    d_out_c = []
    d_in_c = []
    viol_c = []
    for ci, child in enumerate(rec.children):
        m_out = m_out_c[ci]
        m_in = m_in_c[ci]
        if m_out is None:
            # no F_X face lives in this child: this bag's entries are
            # all-inf regardless of weights, but the chained child
            # entries still change when the child is dirty
            keep = repairing and child.bag_id not in dirty
            d_out_c.append(_REUSED if keep else None)
            d_in_c.append(None)
            viol_c.append(None)
            continue
        if repairing and child.bag_id not in dirty:
            if _np is not None:
                same = (_np.array_equal(old_m_out[ci], m_out)
                        and _np.array_equal(old_m_in[ci], m_in))
            else:
                same = old_m_out[ci] == m_out and old_m_in[ci] == m_in
            if same:
                # clean child + unchanged boundary rows: every node
                # label this child owns is a pure function of (fwd,
                # back, m_out, m_in), all unchanged — keep the stored
                # labels (they also passed the previous build's
                # negative-cycle check, so a full rebuild could not
                # raise at any of them)
                d_out_c.append(_REUSED)
                d_in_c.append(None)
                viol_c.append(None)
                continue
        ncf = len(child.cf_local)
        if _np is not None:
            x_out = back[ci].T    # node x a: d_c(node -> cf[a])
            x_in = fwd[ci].T      # node x a: d_c(cf[a] -> node)
            n_c = x_out.shape[0]
            do = _np.full((n_c, nfx), INF)
            di = _np.full((n_c, nfx), INF)
            for a in range(ncf):
                _np.minimum(do, x_out[:, a, None] + m_out[a], out=do)
                _np.minimum(di, x_in[:, a, None] + m_in[a], out=di)
            # f_x[j] living in this child at anchor a: direct distance
            js, anchors = child.direct
            do[:, js] = _np.minimum(do[:, js], x_out[:, anchors])
            di[:, js] = _np.minimum(di[:, js], x_in[:, anchors])
            viol = ((do + di) < 0).any(axis=1).tolist()
        else:
            n_c = len(compiled.slices[child.bag_id].nodes)
            do = [[INF] * nfx for _ in range(n_c)]
            di = [[INF] * nfx for _ in range(n_c)]
            viol = [False] * n_c
            f_rows = fwd[ci]
            b_rows = back[ci]
            for node in range(n_c):
                row_o = do[node]
                row_i = di[node]
                for j in range(nfx):
                    best_o = INF
                    best_i = INF
                    for a in range(ncf):
                        cand = b_rows[a][node] + m_out[a][j]
                        if cand < best_o:
                            best_o = cand
                        cand = f_rows[a][node] + m_in[a][j]
                        if cand < best_i:
                            best_i = cand
                    a = child.fx_cf_pos[j]
                    if a >= 0:
                        if b_rows[a][node] < best_o:
                            best_o = b_rows[a][node]
                        if f_rows[a][node] < best_i:
                            best_i = f_rows[a][node]
                    row_o[j] = best_o
                    row_i[j] = best_i
                    if best_o + best_i < 0:
                        viol[node] = True
        d_out_c.append(_matrix_scalars(do))
        d_in_c.append(_matrix_scalars(di))
        viol_c.append(viol)
    if rep is not None:
        rep.m_out = m_out_c
        rep.m_in = m_in_c

    # ---- node labels in legacy (sorted) order ------------------------
    for ni, f in enumerate(rec.node_list):
        pos = rec.owner_pos[ni]
        if pos == -1:
            continue  # F_X faces already labeled above
        if pos == -2:
            raise DecompositionError(
                f"node {f} of bag {bag_id} has no owning child")
        child = rec.children[pos]
        r = rec.owner_idx[ni]
        do = d_out_c[pos]
        if do is _REUSED:
            continue  # stored labels verified unchanged (see above)
        if do is None:
            # no F_X face lives in this child: all distances stay inf
            d_to = {h: INF for h in f_x}
            d_from = {h: INF for h in f_x}
        else:
            if viol_c[pos][r]:
                raise NegativeCycleError(
                    f"negative cycle through node {f} of bag "
                    f"{bag_id}", where=("node", bag_id))
            d_to = dict(zip(f_x, do[r]))
            d_from = dict(zip(f_x, d_in_c[pos][r]))
        entry = LabelEntry(bag_id=bag_id, node=f, is_leaf=False,
                           dist_to=d_to, dist_from=d_from)
        child_label = labels[(child.bag_id, f)]
        labels[(bag_id, f)] = Label(
            node=f, entries=[entry] + child_label.entries)
