"""Engine-backed Theorem 2.1 label construction (DESIGN.md §9).

The legacy labeling recursion (:mod:`repro.labeling.scheme`) is the
round-audited CONGEST simulation: per bag it rebuilds dict-keyed dual
arcs, runs hashable-node SPFA, and derives every child distance by
*decoding* the child's label chain — faithful to the protocol, and by
far the most expensive cold path left in the serving layer.  This
module is its centralized fast path.  It keeps the labels as per-bag
row tables, the *label store*: a leaf's APSP rows, and for an internal
bag the ``F_X`` rows plus, per child, the rows of the nodes that child
owns — Python scalars in ``F_X`` order, to and from.  A face's label is
its chain of rows from the root down (:meth:`CompiledLabelingBags.
chain`, topology only); :func:`decode_distance_engine` decodes a
distance from two chains by index, and the
:class:`~repro.labeling.labels.Label` objects are built only on demand
(:func:`engine_labels`, :func:`engine_label`).  On integral lengths
those are **bit-identical** to legacy's (the same chains, the same dict
contents, the same :class:`~repro.errors.NegativeCycleError` messages
and ``where`` sites).  On non-integral float lengths the two backends
may differ in the last bit at the bags above the lowest internal level,
and an integral float sum comes back as an int here (legacy keeps
``1.0``): the legacy decodes child distances as sums of label entries,
which associates path sums differently.  There are three compiled
ingredients:

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
  A leaf child relabeled in the same pass needs neither: its APSP
  already holds both, as its rows and columns at the anchors.

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
full rebuild would produce.  A build and a repair run one level loop
(:func:`_relabel`), and a build is a repair with every bag dirty.
Inside a dirty internal bag a repair reuses the recorded anchored-SSSP
matrices of clean children (the dominant per-bag cost) and keeps a
clean child's stored rows outright when that child's DDG boundary rows
(``m_out`` / ``m_in``) come back unchanged.  In a dirty slice it reruns
only the Bellman–Ford rows the write can change (the row test of
:func:`_rows_to_redo`).  Clean bags cannot raise
(their inputs are unchanged and the previous build succeeded), and
dirty bags run in the legacy order, so the first
:class:`NegativeCycleError` — message and ``where`` — matches the
full rebuild bit for bit.
"""

from __future__ import annotations

import math
import time
from collections import deque, namedtuple
from operator import add

from repro import obs
from repro._artifacts import shared_cache, topo_token
from repro._compat import np as _np
from repro.engine.dijkstra import DijkstraWorkspace
from repro.engine.workspace import FlowWorkspace, _as_scalars, _dart_array
from repro.errors import DecompositionError, NegativeCycleError
from repro.planar.graph import rev

# Label / LabelEntry are imported lazily inside the readers:
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
            ws.load_in_slot_lengths(self.in_slot_lengths(lengths, reverse))
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

    def in_slot_lengths(self, lengths, reverse=False):
        """The float64 lengths the kernel relaxes, in its in-slot order,
        read from the :func:`dart_length_table` ``lengths`` (numpy
        only): one gather through the slice's global dart ids."""
        if self._gather is None:
            ws = self.workspace
            partner = _np.arange(self.num_darts) ^ 1
            self._gather = (
                ws.in_slot_index(self.dart_global),
                ws.in_slot_index(_np.asarray(self.dart_global)[partner]))
        return lengths[self._gather[reverse]]

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

    __slots__ = ("bag_id", "f_x", "node_list", "locate", "children",
                 "num_parts", "group_bounds", "sx_arcs", "zero_links",
                 "group_starts", "group_nonempty", "sx_index",
                 "sx_darts", "zero_index")

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
        self.node_list = sorted(dual.nodes)
        #: face -> (block, row) of its label row in this bag's tables:
        #: block 0 row j for ``f_x[j]``, block ``1 + ci`` row ``r`` for
        #: a node owned by child ``ci`` at slice index ``r``; a node
        #: with no owning child (legacy DecompositionError) has none
        locate = {f: (0, j) for j, f in enumerate(f_x)}
        for f in self.node_list:
            if f in locate:
                continue
            c = dual.child_of_node[f]
            if c is not None:
                locate[f] = (1 + child_pos[c.bag_id],
                             compiled_slices[c.bag_id].index[f])
        self.locate = locate

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
        self._root_chains = None

    def chain(self, bag_id, face):
        """The label chain of ``face`` in ``bag_id``'s dual as a tuple
        of ``(bag_id, block, row)`` — one per Theorem 2.1 entry, from
        ``bag_id`` down through the owning children to the bag where
        the face is in ``F_X`` or is a leaf node (topology only)."""
        out = []
        while True:
            rec = self.internal.get(bag_id)
            if rec is None:
                out.append((bag_id, 0, self.slices[bag_id].index[face]))
                return tuple(out)
            blk, row = rec.locate[face]
            out.append((bag_id, blk, row))
            if blk == 0:
                return tuple(out)
            bag_id = rec.children[blk - 1].bag_id

    @property
    def root_chains(self):
        """face -> :meth:`chain` in the root bag (built once)."""
        if self._root_chains is None:
            root = self.internal.get(self.root_id)
            nodes = (self.slices[self.root_id].nodes if root is None
                     else root.node_list)
            self._root_chains = {f: self.chain(self.root_id, f)
                                 for f in nodes}
        return self._root_chains

    def entry_words(self, bag_id):
        """Words of one label entry in ``bag_id`` (``LabelEntry.words``):
        two ids plus both-direction distances to every ``F_X`` face, or
        to every node of a leaf."""
        rec = self.internal.get(bag_id)
        width = (self.slices[bag_id].num_faces if rec is None
                 else len(rec.f_x))
        return 2 + 2 * width

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


#: Weight-dependent repair state of one internal bag: the anchored
#: child SSSP matrices and the per-child DDG boundary rows of its last
#: labeling.  Lives on the *labeling* instance (per weight vector),
#: never inside the shared topology-only compilation.
_InternalRepair = namedtuple("_InternalRepair", "fwd back m_out m_in")


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
def build_dual_labels_engine(labeling, compiled=None):
    """Fill ``labeling._store`` with the Theorem 2.1 label tables (the
    legacy backend's labels bit for bit on integral lengths, see
    :func:`engine_labels`) using the compiled bag arrays (see the
    module docstring), and point ``labeling._chains`` at the root
    chains the decode walks.

    A build is a repair with every bag dirty: it runs the same level
    loop, and records the per-bag child SSSP matrices and DDG boundary
    rows in ``labeling._repair`` as they are computed, arming
    :func:`repair_dual_labels_engine`.
    """
    if compiled is None:
        compiled = compile_labeling_bags(labeling.bdd, labeling.duals)
    labeling._store = {}
    labeling._repair = {}
    every = {bag_id for level in compiled.levels for bag_id, _ in level}
    with obs.span("labeling.build", bags=len(every)):
        _relabel(labeling, compiled, every)
    labeling._chains = compiled.root_chains
    return labeling._store


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


def repair_dual_labels_engine(labeling, changed):
    """Apply the dart-length ``changed`` mapping to a labeling built by
    :func:`build_dual_labels_engine`, recomputing only the dirty bags.

    Returns a stats dict.  On :class:`NegativeCycleError` the raise
    site matches a full rebuild bit for bit, but the labeling is left
    *corrupt* (partially repriced) — the caller must discard it.
    """
    compiled = compile_labeling_bags(labeling.bdd, labeling.duals)
    dirty = dirty_bags(compiled, changed)
    old = {d: labeling.lengths[d] for d in changed}
    labeling.lengths.update(changed)
    with obs.span("labeling.repair", changed=len(changed),
                  dirty=len(dirty)):
        return {"changed_darts": len(changed),
                **_relabel(labeling, compiled, dirty, old)}


def _relabel(labeling, compiled, dirty, old=None):
    """The one level loop of a build and a repair: recompute the
    ``dirty`` bags in the legacy level order (deepest level first), so
    the first :class:`NegativeCycleError` is the legacy one.  ``old``
    maps each changed dart to its length before a repair (``None`` for
    a build).  Returns the recompute counters."""
    lengths = dart_length_table(labeling.lengths, labeling.graph.num_darts)
    #: the dart-length table of the last labeling, for the row test of
    #: :func:`_rows_to_redo` (numpy only; a build has none)
    before = None
    if old is not None and _np is not None:
        before = lengths.copy()
        before[list(old)] = _np.fromiter(old.values(), dtype=_np.float64,
                                         count=len(old))
    stats = {"dirty_bags": len(dirty),
             "total_bags": sum(len(lv) for lv in compiled.levels),
             "repaired_leaves": 0, "repaired_internal": 0,
             "sssp_children": 0, "apsp_children": 0,
             "reused_children": 0, "recomputed_rows": 0,
             "reused_rows": 0}
    store = labeling._store
    #: this pass's leaf APSP matrices, which their parents read their
    #: anchored rows out of
    apsp = {}
    for level in compiled.levels:
        for bag_id, is_leaf in level:
            if bag_id not in dirty:
                continue
            if is_leaf:
                _label_leaf(compiled, bag_id, lengths, before, store,
                            labeling._repair, apsp, stats)
                stats["repaired_leaves"] += 1
            else:
                _label_internal(compiled, bag_id, lengths, before, store,
                                labeling._repair, apsp, dirty, stats)
                stats["repaired_internal"] += 1
    return stats


def _row_test_proven(was, now, num_faces):
    """Whether the row test of :func:`_rows_to_redo` is sound on a
    slice whose in-slot lengths go from ``was`` to ``now``: every
    length is nonnegative, or every length is integral or ``+inf`` and
    small enough that each left fold of at most ``num_faces + 1`` of
    them (the longest walk the kernel sums before it reports a
    negative cycle) is exact in float64."""
    both = _np.concatenate((was, now))
    if (both >= 0).all():
        return True
    finite = _np.isfinite(both)
    if not (finite | (both == INF)).all():
        return False
    f = both[finite]
    return bool((f == _np.rint(f)).all()
                and (num_faces + 1) * _np.abs(f).max(initial=0.0)
                <= 2.0 ** 53)


def _rows_to_redo(sl, before, lengths, reverse, old):
    """The rows of ``old`` (float64 distance rows over slice ``sl``
    under the table ``before``, forward or ``reverse``) that the new
    table ``lengths`` can change, as an index array; ``None`` when
    every row must be recomputed (a build, no recorded rows, no numpy,
    or a slice where the test is not proven).

    Row ``d`` is kept iff no changed arc ``u -> v`` (old length ``l``,
    new ``l'``) is *tight*, ``d[u] + l == d[v]`` with ``d[v]`` finite,
    or *improving*, ``d[u] + l' < d[v]`` — the kernel's own left folds.
    Then ``d`` still satisfies every Bellman inequality under the new
    lengths, so a cold run never goes below it, and every face's
    distance is reached by a path of tight, hence unchanged, arcs, so
    the cold run reaches it: the cold row is ``d`` bit for bit, and no
    negative cycle is reachable from its source (DESIGN.md §11).
    """
    if before is None or old is None:
        return None
    was = sl.in_slot_lengths(before, reverse)
    now = sl.in_slot_lengths(lengths, reverse)
    slots = (was != now).nonzero()[0]
    if not slots.size:
        return slots  # no length of this slice moved: no row can
    if not _row_test_proven(was, now, sl.num_faces):
        return None
    tail, head = sl.workspace.in_slot_ends(slots)
    du = old[:, tail]
    dv = old[:, head]
    hit = (((du + was[slots] == dv) & (dv < INF))
           | (du + now[slots] < dv))
    return hit.any(axis=1).nonzero()[0]


def _sssp_rows(sl, sources, lengths, before, reverse, old, stats):
    """Distance rows of slice ``sl`` from local ``sources`` under
    ``lengths``: ``old`` (the same rows under ``before``, or ``None``)
    with the rows the write can change recomputed in one batched call.
    Returns ``(rows, redo)``, ``redo`` being :func:`_rows_to_redo`'s
    verdict; counts the rows in ``stats``."""
    redo = _rows_to_redo(sl, before, lengths, reverse, old)
    if redo is None:
        stats["recomputed_rows"] += len(sources)
        return sl.batched_sssp(lengths, sources, reverse=reverse), None
    stats["recomputed_rows"] += len(redo)
    stats["reused_rows"] += len(sources) - len(redo)
    rows = old.copy()
    if len(redo):
        rows[redo] = sl.batched_sssp(
            lengths, _np.asarray(sources)[redo], reverse=reverse)
    return rows, redo


def _label_leaf(compiled, bag_id, lengths, before, store, state, apsp,
                stats):
    """Leaf bag: whole-bag APSP in one batched Bellman–Ford call; its
    rows ``rows[v][h] = dist(nodes[v] -> nodes[h])`` are the bag's
    label table (a ``dist_from`` is a column of the same rows).

    A repair (numpy only) keeps the float64 APSP in ``state[bag_id]``
    from the leaf's first repair on, and the next repair recomputes
    only the rows :func:`_rows_to_redo` selects, converting just those
    to Python-scalar rows."""
    t0 = time.perf_counter()
    sl = compiled.slices[bag_id]
    k = len(sl.nodes)
    if k == 0:
        return
    try:
        rows, redo = _sssp_rows(sl, range(k), lengths, before, False,
                                state.get(bag_id), stats)
    except NegativeCycleError:
        raise NegativeCycleError(
            f"negative cycle in leaf bag {bag_id}",
            where=("leaf", bag_id))
    apsp[bag_id] = rows
    if redo is None:
        table = _as_scalars(rows)
    else:
        table = list(store[bag_id][0][0])
        for r, row in zip(redo.tolist(), _as_scalars(rows[redo])):
            table[r] = row
    store[bag_id] = ([table], None)
    if before is not None:
        state[bag_id] = rows
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


def _label_internal(compiled, bag_id, lengths, before, store, state, apsp,
                    dirty, stats):
    """Internal bag: child anchored rows, the DDG stage, and the bag's
    label table — block 0 the ``F_X`` rows, block ``1 + ci`` the rows
    of the nodes child ``ci`` owns, each a ``(to rows, from rows)``
    pair of Python-scalar rows in ``F_X`` order."""
    rec = compiled.internal[bag_id]
    f_x = rec.f_x
    nfx = len(f_x)
    old = state.get(bag_id)  # None while building: every child dirty

    # ---- child anchored SSSPs (forward + reverse per child) ----------
    # A clean child's slice lengths are untouched, so its recorded
    # matrices from the last build are exactly what a fresh SSSP would
    # return — the dominant per-bag cost a repair skips.  A leaf child
    # relabeled in this pass already holds every row in its APSP.  A
    # dirty non-leaf child recomputes only the rows the write can
    # change (:func:`_sssp_rows`).
    fwd = []     # fwd[ci][a][node] = d_c(cf[a] -> node)
    back = []    # back[ci][a][node] = d_c(node -> cf[a])
    for ci, child in enumerate(rec.children):
        if not child.cf_local:
            fwd.append(None)
            back.append(None)
            continue
        if child.bag_id not in dirty:
            fwd.append(old.fwd[ci])
            back.append(old.back[ci])
            stats["reused_children"] += 1
            continue
        rows = apsp.get(child.bag_id)
        if rows is None:
            sl = compiled.slices[child.bag_id]
            was = (None, None) if old is None else (old.fwd[ci],
                                                    old.back[ci])
            fwd.append(_sssp_rows(sl, child.cf_local, lengths, before,
                                  False, was[0], stats)[0])
            back.append(_sssp_rows(sl, child.cf_local, lengths, before,
                                   True, was[1], stats)[0])
            stats["sssp_children"] += 1
        elif _np is not None:
            fwd.append(rows[child.cf_local])
            back.append(rows[:, child.cf_local].T)
            stats["apsp_children"] += 1
        else:
            fwd.append([rows[a] for a in child.cf_local])
            back.append([[row[a] for row in rows] for a in child.cf_local])
            stats["apsp_children"] += 1

    # ---- DDG: assemble, relax, F_X part-group minima -----------------
    if _np is not None:
        fd, self_dist, m_out_c, m_in_c = _ddg_stage_np(rec, fwd, lengths)
    else:
        fd, self_dist, m_out_c, m_in_c = _ddg_stage_py(
            compiled, rec, fwd, lengths)

    # ---- negative-cycle face check + F_X rows ------------------------
    for j, f in enumerate(f_x):
        if self_dist[j] < 0:
            raise NegativeCycleError(
                f"negative cycle through F_X node {f} of bag "
                f"{bag_id}", where=("ddg", bag_id))
    to_blocks = [_as_scalars(fd)]
    from_blocks = [_as_scalars(_transpose(fd))]

    # ---- per-child node-to-F_X distance rows -------------------------
    viol_c = []
    inf_row = [INF] * nfx
    for ci, child in enumerate(rec.children):
        m_out = m_out_c[ci]
        m_in = m_in_c[ci]
        viol_c.append(None)
        if m_out is None:
            # no F_X face lives in this child: every distance is inf
            # regardless of weights
            n_c = len(compiled.slices[child.bag_id].nodes)
            to_blocks.append([inf_row] * n_c)
            from_blocks.append(to_blocks[-1])
            continue
        if child.bag_id not in dirty:
            if _np is not None:
                same = (_np.array_equal(old.m_out[ci], m_out)
                        and _np.array_equal(old.m_in[ci], m_in))
            else:
                same = old.m_out[ci] == m_out and old.m_in[ci] == m_in
            if same:
                # clean child + unchanged boundary rows: every row this
                # child owns is a pure function of (fwd, back, m_out,
                # m_in), all unchanged — keep the stored rows (they
                # also passed the previous build's negative-cycle
                # check, so a full rebuild could not raise at them)
                old_to, old_from = store[bag_id]
                to_blocks.append(old_to[1 + ci])
                from_blocks.append(old_from[1 + ci])
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
            viol = ((do + di) < 0).any(axis=1)
            if viol.any():
                viol_c[ci] = viol
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
            if any(viol):
                viol_c[ci] = viol
        to_blocks.append(_as_scalars(do))
        from_blocks.append(_as_scalars(di))
    state[bag_id] = _InternalRepair(fwd, back, m_out_c, m_in_c)

    # ---- legacy raise sites, in sorted node order --------------------
    if (len(rec.locate) < len(rec.node_list)
            or any(v is not None for v in viol_c)):
        for f in rec.node_list:
            if f not in rec.locate:
                raise DecompositionError(
                    f"node {f} of bag {bag_id} has no owning child")
            blk, r = rec.locate[f]
            if blk and viol_c[blk - 1] is not None and viol_c[blk - 1][r]:
                raise NegativeCycleError(
                    f"negative cycle through node {f} of bag "
                    f"{bag_id}", where=("node", bag_id))
    store[bag_id] = (to_blocks, from_blocks)


# ----------------------------------------------------------------------
# readers: decode by index; Label objects only on demand
# ----------------------------------------------------------------------
def decode_distance_engine(chains, store, a, b):
    """dist(a → b) read from the label tables along the two faces'
    :meth:`CompiledLabelingBags.chain` — the index form of
    :func:`repro.labeling.labels.decode_distance`, with the same
    strict-``<`` minimum over ``F_X`` in order, hence the same value
    and Python type."""
    if a == b:
        return 0
    best = INF
    for (bag, blk, ra), (bag_b, blk_b, rb) in zip(chains[a], chains[b]):
        if bag != bag_b:
            break
        to, frm = store[bag]
        if frm is None:  # an aligned leaf: the direct entry
            cand = to[0][ra][rb]
            return cand if cand < best else best
        cand = min(map(add, to[blk][ra], frm[blk_b][rb]), default=INF)
        if cand < best:
            best = cand
    return best


def _entry(compiled, store, bag_id, blk, row, face):
    """The :class:`~repro.labeling.labels.LabelEntry` of one table row."""
    from repro.labeling.labels import LabelEntry

    to, frm = store[bag_id]
    if frm is None:
        nodes = compiled.slices[bag_id].nodes
        rows = to[0]
        return LabelEntry(bag_id=bag_id, node=face, is_leaf=True,
                          dist_to=dict(zip(nodes, rows[row])),
                          dist_from=dict(zip(nodes,
                                             [r[row] for r in rows])))
    f_x = compiled.internal[bag_id].f_x
    return LabelEntry(bag_id=bag_id, node=face, is_leaf=False,
                      dist_to=dict(zip(f_x, to[blk][row])),
                      dist_from=dict(zip(f_x, frm[blk][row])))


def engine_label(compiled, store, bag_id, face):
    """The :class:`~repro.labeling.labels.Label` of ``face`` in
    ``bag_id``'s dual, built from the tables along its chain."""
    from repro.labeling.labels import Label

    return Label(node=face, entries=[
        _entry(compiled, store, b, blk, row, face)
        for b, blk, row in compiled.chain(bag_id, face)])


def engine_labels(compiled, store):
    """Every ``(bag_id, face) -> Label`` the legacy builder produces,
    built from the tables bottom-up (a chained label shares its
    child's entries, as legacy's does)."""
    from repro.labeling.labels import Label

    labels = {}
    for level in compiled.levels:
        for bag_id, is_leaf in level:
            if bag_id not in store:
                continue  # an empty leaf has no labels
            if is_leaf:
                for row, f in enumerate(compiled.slices[bag_id].nodes):
                    labels[(bag_id, f)] = Label(node=f, entries=[
                        _entry(compiled, store, bag_id, 0, row, f)])
                continue
            rec = compiled.internal[bag_id]
            for f in rec.node_list:
                blk, row = rec.locate[f]
                entries = [_entry(compiled, store, bag_id, blk, row, f)]
                if blk:
                    child = rec.children[blk - 1].bag_id
                    entries += labels[(child, f)].entries
                labels[(bag_id, f)] = Label(node=f, entries=entries)
    return labels
