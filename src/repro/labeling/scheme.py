"""The dual distance labeling algorithm (Theorem 2.1, Algorithm 2).

Bottom-up over the BDD levels:

* **leaf bags** — the whole dual bag (Õ(D) nodes and arcs, property 10)
  is broadcast inside the bag; every vertex computes APSP locally
  (Bellman-Ford: lengths may be negative) and reads off the labels;

* **non-leaf bags** — the dual separator arcs and the child labels of
  all ``F_X`` node-parts are broadcast (the Õ(D²) term: Õ(D) labels of
  Õ(D) words over an Õ(D)-diameter bag), then each node ``g`` builds its
  dense distance graph ``DDG(g)`` — cliques of decoded child distances,
  dual ``S_X`` arcs, zero-weight links between parts of the same face —
  and extracts its distances to ``F_X`` (Section 5.3, Figure 13).

Negative cycles are detected in the leafmost bag containing them
(Lemma 5.19) and surface as :class:`NegativeCycleError`.

A labeling is built once and then *answers queries* (Lemma 2.2): the
serving layer caches one instance per graph weight fingerprint and
routes every :class:`~repro.service.queries.DistanceQuery` through
:meth:`DualDistanceLabeling.distance` — see
:mod:`repro.service` and DESIGN.md §8 for the amortization economics.

Construction has two backends: the legacy recursion below (the
round-audited reference) and ``backend="engine"``
(:mod:`repro.engine.labels`, DESIGN.md §9), which builds bit-identical
labels on compiled per-bag arrays and is what the serving layer uses
for cold :class:`~repro.service.queries.DistanceQuery` misses.
"""

from __future__ import annotations

import time
from collections import deque

from repro import obs
from repro.bdd.dual_bags import build_all_dual_bags
from repro.engine.labels import (
    build_dual_labels_engine,
    compile_labeling_bags,
    decode_distance_engine,
    engine_label,
    engine_labels,
    repair_dual_labels_engine,
)
from repro.errors import NegativeCycleError
from repro.labeling.labels import INF, Label, LabelEntry, decode_distance
from repro.planar.graph import rev


def _spfa(nodes, out_arcs, source):
    """Queue Bellman-Ford over hashable nodes.

    ``out_arcs``: dict node -> list of (head, length).  Returns dist
    dict; raises :class:`NegativeCycleError` on a reachable negative
    cycle (including negative self-loops).
    """
    dist = {v: INF for v in nodes}
    cnt = {v: 0 for v in nodes}
    dist[source] = 0
    q = deque([source])
    inq = {source}
    limit = len(nodes) + 1
    while q:
        u = q.popleft()
        inq.discard(u)
        du = dist[u]
        for (h, ln) in out_arcs.get(u, ()):
            nd = du + ln
            if nd < dist[h]:
                dist[h] = nd
                cnt[h] += 1
                if cnt[h] > limit:
                    raise NegativeCycleError(where="spfa")
                if h not in inq:
                    inq.add(h)
                    q.append(h)
    return dist


class DualDistanceLabeling:
    """Distance labels for the dual of an embedded planar graph.

    Parameters
    ----------
    bdd:
        A :class:`repro.bdd.bags.BDD` of the primal graph.
    lengths:
        dict dart -> length of the dual arc of that dart (arc goes from
        ``face(d)`` to ``face(rev d)``); lengths may be negative.
    duals:
        Optional precomputed dual bags (reused across the Miller-Naor
        binary search, whose topology never changes).
    ledger:
        Optional :class:`repro.congest.rounds.RoundLedger`.  Rounds are
        only charged on the legacy backend — the engine is a
        centralized fast path, so CONGEST accounting on it would be
        meaningless (same contract as
        :class:`repro.core.maxflow.PlanarMaxFlow`).
    backend:
        ``"legacy"`` (default) — the round-audited Algorithm 2
        simulation above; ``"engine"`` — the compiled-array builder of
        :mod:`repro.engine.labels`, which produces bit-identical labels
        (including :class:`NegativeCycleError` sites) from cached
        per-bag CSR slices and batched Bellman–Ford kernels.  It keeps
        them as per-bag row tables and decodes :meth:`distance` from
        those by index; :meth:`label` and ``_labels`` build the
        :class:`~repro.labeling.labels.Label` objects on demand.  An
        engine build also records the per-bag child SSSP matrices and
        DDG boundary rows, so that :meth:`reprice` can delta-repair
        the labels after a weight mutation (DESIGN.md §11); that
        costs O(total label words) extra memory.
    """

    BACKENDS = ("legacy", "engine")

    def __init__(self, bdd, lengths, duals=None, ledger=None,
                 backend="legacy"):
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {self.BACKENDS}")
        self.bdd = bdd
        self.graph = bdd.graph
        self.lengths = lengths
        self.duals = duals if duals is not None else build_all_dual_bags(bdd)
        self.ledger = ledger
        self.backend = backend
        #: (bag_id, face) -> Label (in that bag's dual); on the engine
        #: backend built on demand from ``_store`` (see ``_labels``)
        self._label_objs = {} if backend == "legacy" else None
        self._decode_cache = {}
        #: engine only: bag_id -> label table, face -> root chain, and
        #: bag_id -> repair state (all None on the legacy backend)
        self._store = self._chains = self._repair = None
        if backend == "engine":
            build_dual_labels_engine(self)
        else:
            self._compute()

    @property
    def _labels(self):
        """(bag_id, face) -> Label.  The engine keeps its labels as
        per-bag row tables and builds these objects only when asked
        (an audit or a legacy comparison), once per weight vector."""
        if self._label_objs is None:
            self._label_objs = engine_labels(self._compiled(), self._store)
        return self._label_objs

    def _compiled(self):
        return compile_labeling_bags(self.bdd, self.duals)

    # ------------------------------------------------------------------
    def label(self, face, bag=None):
        """Label of a face in a bag's dual (default: the root, G*)."""
        bag_id = self.bdd.root.bag_id if bag is None else bag
        if self._store is None:
            return self._labels[(bag_id, face)]
        return engine_label(self._compiled(), self._store, bag_id, face)

    def distance(self, f, g):
        """dist_{G*}(f → g) decoded from the two labels (on the engine
        backend, from the label tables by index)."""
        t0 = time.perf_counter()
        if self._store is None:
            d = decode_distance(self.label(f), self.label(g))
        else:
            d = decode_distance_engine(self._chains, self._store, f, g)
        obs.observe("labeling.decode_seconds", time.perf_counter() - t0)
        return d

    def all_labels_root(self):
        root = self.bdd.root.bag_id
        return [self.label(f) for f in sorted(self.duals[root].nodes)]

    # ------------------------------------------------------------------
    def reprice(self, changes):
        """Delta-repair the labels after a dart-length mutation
        (DESIGN.md §11).  Engine backend only.

        ``changes`` maps global dart -> new length.  No-op entries
        (already at that length, of the same type) are dropped; the
        remaining darts determine the dirty bag set, and only those
        bags are recomputed — reusing each clean child's recorded SSSP
        matrices, skipping its node labels outright when its DDG
        boundary rows come back unchanged, and rerunning in a dirty
        slice only the rows the change can move.  The repaired labels are
        *bit-identical* to a from-scratch rebuild under the new
        lengths, including the first :class:`NegativeCycleError`
        (message and ``where``) — but after such a raise the labeling
        is corrupt (partially repriced) and must be discarded.

        Returns a stats dict (``changed_darts``, ``dirty_bags``,
        ``total_bags``, per-kind recompute counters and the
        ``recomputed_rows`` / ``reused_rows`` of the dirty slices).
        """
        if self._repair is None:
            raise ValueError("reprice() requires a labeling built "
                             "with backend='engine'")
        self._label_objs = None
        return repair_dual_labels_engine(
            self, {d: v for d, v in changes.items()
                   if self.lengths.get(d) != v
                   or type(self.lengths.get(d)) is not type(v)})

    # ------------------------------------------------------------------
    def _compute(self):
        copies = 1
        for level_bags in self.bdd.levels():
            level_cost = 0
            for bag in level_bags:
                cost = self._label_bag(bag)
                level_cost = max(level_cost, cost)
            if self.ledger is not None and level_bags:
                lvl = level_bags[0].level
                self.ledger.charge(
                    2 * level_cost, f"labeling/level{lvl}",
                    detail=f"{len(level_bags)} bags in parallel",
                    ref="Section 5.3 (property 7 parallelism)")

    def _label_bag(self, bag):
        if bag.is_leaf:
            return self._label_leaf(bag)
        return self._label_internal(bag)

    # ------------------------------------------------------------------
    def _label_leaf(self, bag):
        dual = self.duals[bag.bag_id]
        nodes = sorted(dual.nodes)
        out = {}
        rin = {}
        g = self.graph
        for d in dual.arc_darts:
            t, h = g.face_of[d], g.face_of[rev(d)]
            ln = self.lengths[d]
            out.setdefault(t, []).append((h, ln))
            rin.setdefault(h, []).append((t, ln))

        try:
            dist_to = {v: _spfa(nodes, out, v) for v in nodes}
        except NegativeCycleError:
            raise NegativeCycleError(
                f"negative cycle in leaf bag {bag.bag_id}",
                where=("leaf", bag.bag_id))

        for v in nodes:
            entry = LabelEntry(
                bag_id=bag.bag_id, node=v, is_leaf=True,
                dist_to={h: dist_to[v][h] for h in nodes},
                dist_from={h: dist_to[h][v] for h in nodes})
            self._labels[(bag.bag_id, v)] = Label(node=v, entries=[entry])

        # rounds: gather the whole bag (property 10): Õ(D) ids + arcs
        # pipelined over the bag's BFS tree
        return len(nodes) + len(dual.arc_darts) + self._bag_depth(bag)

    # ------------------------------------------------------------------
    def _label_internal(self, bag):
        g = self.graph
        dual = self.duals[bag.bag_id]
        f_x = sorted(dual.f_x)

        dart_child = {}
        for c in bag.children:
            for d in c.live_darts:
                dart_child[d] = c

        # parts: (child_bag_id, face) for every F_X face in every child
        parts = []
        parts_of_face = {f: [] for f in f_x}
        for f in f_x:
            for c in bag.children:
                if f in self.duals[c.bag_id].nodes:
                    key = (c.bag_id, f)
                    parts.append(key)
                    parts_of_face[f].append(key)

        # ---- shared DDG over the parts --------------------------------
        ddg_out = {p: [] for p in parts}
        ddg_in = {p: [] for p in parts}

        def add_arc(p, q, ln):
            ddg_out[p].append((q, ln))
            ddg_in[q].append((p, ln))

        # (i) per-child cliques of decoded distances
        fx_in_child = {}
        for c in bag.children:
            cf = [f for f in f_x if f in self.duals[c.bag_id].nodes]
            fx_in_child[c.bag_id] = cf
            for f1 in cf:
                for f2 in cf:
                    if f1 == f2:
                        continue
                    dd = self._child_dist(c.bag_id, f1, f2)
                    if dd < INF:
                        add_arc((c.bag_id, f1), (c.bag_id, f2), dd)

        # (ii) dual S_X arcs
        for d in dual.sx_arc_darts:
            fd, fr = g.face_of[d], g.face_of[rev(d)]
            cd = dart_child[d].bag_id
            cr = dart_child[rev(d)].bag_id
            add_arc((cd, fd), (cr, fr), self.lengths[d])

        # (iii) zero links between parts of the same face
        for f in f_x:
            plist = parts_of_face[f]
            for i in range(len(plist)):
                for j in range(len(plist)):
                    if i != j:
                        add_arc(plist[i], plist[j], 0)

        # ---- APSP over the shared DDG ----------------------------------
        try:
            ddg_dist = {p: _spfa(parts, ddg_out, p) for p in parts}
        except NegativeCycleError:
            raise NegativeCycleError(
                f"negative cycle crossing F_X of bag {bag.bag_id}",
                where=("ddg", bag.bag_id))

        # distances face-to-face across parts
        def face_dist(f1, f2):
            best = INF
            for p in parts_of_face[f1]:
                dp = ddg_dist[p]
                for q in parts_of_face[f2]:
                    if dp[q] < best:
                        best = dp[q]
            return best

        fx_dist = {}
        for f1 in f_x:
            for f2 in f_x:
                fx_dist[(f1, f2)] = 0 if f1 == f2 else face_dist(f1, f2)
        # negative self-reaching distance through the DDG = negative cycle
        for f in f_x:
            if face_dist(f, f) < 0:
                raise NegativeCycleError(
                    f"negative cycle through F_X node {f} of bag "
                    f"{bag.bag_id}", where=("ddg", bag.bag_id))

        # ---- labels ----------------------------------------------------
        label_words = 0
        for f in f_x:
            entry = LabelEntry(
                bag_id=bag.bag_id, node=f, is_leaf=False,
                dist_to={h: fx_dist[(f, h)] for h in f_x},
                dist_from={h: fx_dist[(h, f)] for h in f_x})
            self._labels[(bag.bag_id, f)] = Label(node=f, entries=[entry])
            label_words += entry.words()

        for f in sorted(dual.nodes):
            if f in dual.f_x:
                continue
            c = dual.child_of_node[f]
            if c is None:
                from repro.errors import DecompositionError

                raise DecompositionError(
                    f"node {f} of bag {bag.bag_id} has no owning child")
            cf = fx_in_child[c.bag_id]
            child_label = self._labels[(c.bag_id, f)]

            d_out = {}
            d_in = {}
            for fx in f_x:
                best_o = INF
                best_i = INF
                for f1 in cf:
                    d1 = self._child_dist_label(child_label, c.bag_id, f1,
                                                to_part=True)
                    d2 = self._child_dist_label(child_label, c.bag_id, f1,
                                                to_part=False)
                    if d1 < INF:
                        for q in parts_of_face[fx]:
                            cand = d1 + ddg_dist[(c.bag_id, f1)][q]
                            if cand < best_o:
                                best_o = cand
                    if d2 < INF:
                        for q in parts_of_face[fx]:
                            cand = ddg_dist[q][(c.bag_id, f1)] + d2
                            if cand < best_i:
                                best_i = cand
                # direct within-child distance when fx itself lives in c
                if fx in self.duals[c.bag_id].nodes:
                    cand = self._child_dist(c.bag_id, f, fx)
                    if cand < best_o:
                        best_o = cand
                    cand = self._child_dist(c.bag_id, fx, f)
                    if cand < best_i:
                        best_i = cand
                d_out[fx] = best_o
                d_in[fx] = best_i

            # negative cycle through g crossing F_X
            for fx in f_x:
                if d_out[fx] + d_in[fx] < 0:
                    raise NegativeCycleError(
                        f"negative cycle through node {f} of bag "
                        f"{bag.bag_id}", where=("node", bag.bag_id))

            entry = LabelEntry(bag_id=bag.bag_id, node=f, is_leaf=False,
                               dist_to=d_out, dist_from=d_in)
            self._labels[(bag.bag_id, f)] = Label(
                node=f, entries=[entry] + child_label.entries)
            label_words += entry.words()

        # rounds (Section 5.3 broadcast step): S_X arcs + F_X labels of
        # Õ(D) words each, pipelined over the bag
        return (len(dual.sx_arc_darts)
                + sum(self._labels[(c.bag_id, f)].words()
                      for c in bag.children
                      for f in fx_in_child[c.bag_id])
                + self._bag_depth(bag))

    # ------------------------------------------------------------------
    def _child_dist(self, child_bag_id, f1, f2):
        key = (child_bag_id, f1, f2)
        if key not in self._decode_cache:
            la = self._labels[(child_bag_id, f1)]
            lb = self._labels[(child_bag_id, f2)]
            self._decode_cache[key] = decode_distance(la, lb)
        return self._decode_cache[key]

    def _child_dist_label(self, child_label, child_bag_id, fx, to_part):
        """Distance between the label's node and F_X face ``fx`` inside
        the child bag, in the requested direction."""
        f = child_label.node
        if to_part:
            return self._child_dist(child_bag_id, f, fx)
        return self._child_dist(child_bag_id, fx, f)

    def _bag_depth(self, bag):
        if bag.bfs_depth:
            return bag.bfs_depth
        # leaf bags: measure a BFS depth once
        view = bag.view()
        v0 = next(iter(view.vertices))
        return view.eccentricity(v0)

    def max_label_bits(self, word_bits=32):
        if self._store is not None:
            # the size of a label is topology only: one entry per chain
            # link, each as wide as its bag's F_X (or leaf)
            compiled = self._compiled()
            return word_bits * max(
                sum(compiled.entry_words(b) for b, _, _ in chain)
                for chain in self._chains.values())
        root = self.bdd.root.bag_id
        return max(lbl.bits(word_bits)
                   for (b, _f), lbl in self._labels.items() if b == root)
