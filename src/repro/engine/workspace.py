"""Reusable shortest-path workspaces over the compiled dual.

A :class:`FlowWorkspace` owns every buffer the dual shortest-path
kernels need — per-slot arc lengths, distance / parent / relaxation-
count arrays, the in-queue bitmap — sized once for a
:class:`~repro.engine.csr.CompiledPlanarGraph` and *reused across all
probes* of a Miller–Naor binary search (and across solves on the same
graph).  The legacy backend reallocates dict-keyed equivalents of all of
these per probe; keeping them alive, and running the relaxations as
whole-array operations, is where the engine's speedup on large
instances comes from.

Three kernels run on the buffers:

* :meth:`FlowWorkspace.has_negative_cycle` — feasibility probe: seeds
  *every* face at distance 0 (a virtual super-source), so a negative
  cycle anywhere in G* is found, matching the labeling's global
  detection (Lemma 5.19);
* :meth:`FlowWorkspace.sssp` — exact distances from one dual node, used
  for the flow assignment and for engine-backed dual SSSP;
* :meth:`FlowWorkspace.batched_sssp` — one distance row per source, the
  kernel of every Theorem 2.1 bag (leaf APSP and the anchored child
  SSSPs of :mod:`repro.engine.labels`).

All have a vectorized synchronous Bellman–Ford implementation (used
when numpy is importable) and a queue-based SPFA fallback in pure
Python with the same relaxation-count negative-cycle detection as the
legacy reference (:func:`repro.planar.dual.bellman_ford_arcs`).  The
batched kernel relaxes on a *degree-padded in-arc layout*: the first
``D = min(max in-degree, 4)`` in-arcs of every face as two ``(D, nf)``
index arrays (tail face, length slot), a missing arc pointing at a
sentinel ``inf`` slot, so a pass is one gather, one in-place add and
one ``min`` over the ``D`` axis; the few faces wider than ``D`` (a
bag's outer face) fold in the rest with one ``minimum.reduceat`` over
those overflow slots only.  Every candidate is still the left-fold
``dist[tail] + len`` and a minimum is exact however it is grouped, so
the rows are bit-identical to a ``reduceat`` over all slots, floats
included.  The single-source kernels keep the all-slot ``reduceat``:
their certificates need the first tight in-arc of every face.  The
vectorized path detects negative cycles early with an exact
*improving-arc cycle* certificate: arcs with ``dist[tail] + len <
dist[head]`` (all against the same distance snapshot) that close a
cycle telescope to a negative cycle length, and the cycle test is a
pointer-doubling sweep; the classical |faces|-pass limit remains as the
completeness backstop.  Distances are computed in float64, which is
exact for the paper's polynomially-bounded integral lengths, and
returned as Python ints wherever integral so both backends produce
identical values.

With numpy the lengths live only in the vector kernel, in its in-slot
order (``len_in``); the padded lengths are gathered from the current
``len_in`` on every batched call, so no writer can leave them stale.
The per-slot list buffers of the SPFA fallback are kept only without
numpy.

Residual lengths follow Section 6.1:
``len_λ(d) = cap(d) − λ·[d ∈ P] + λ·[rev(d) ∈ P]``.  The workspace
stores the λ-independent base once (:meth:`bind_flow_problem`) and each
probe only copies the base row and patches the O(|P|) path slots
(:meth:`set_lambda`).

:func:`dijkstra_undirected` is the free-standing nonnegative-weights
kernel used by the engine backend of the Hassin approximate-flow
pipeline, which runs on a quotient of the split dual rather than on the
compiled dual itself.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from repro._compat import np as _np
from repro.errors import NegativeCycleError

INF = math.inf

#: in-arc columns of the padded layout of
#: :meth:`_VectorDualKernel.multi_sssp`; a face with more in-arcs folds
#: the rest in as overflow
PAD_WIDTH = 4


class _VectorDualKernel:
    """Whole-array synchronous Bellman–Ford over the compiled dual.

    Arc slot ``s`` of the dual CSR is reinterpreted *in-arc-wise*: the
    out-slots of face ``f`` hold the darts of ``f``, and the reversed
    dart of each is precisely an arc whose head is ``f`` — so the same
    ``indptr`` segments the in-arcs of every face, and one
    ``minimum.reduceat`` per pass computes every face's best incoming
    candidate.
    """

    def __init__(self, compiled):
        np = _np
        self.nf = compiled.num_faces
        self.indptr = np.asarray(compiled.dual_indptr, dtype=np.int64)
        self.starts = self.indptr[:-1]
        arc_dart = np.asarray(compiled.dual_arc_dart, dtype=np.int64)
        #: dart of the in-arc at each slot
        self.in_dart = arc_dart ^ 1
        face_left = np.asarray(compiled.face_left, dtype=np.int64)
        #: tail face of the in-arc at each slot
        self.in_tail = face_left[self.in_dart]
        sod = np.asarray(compiled.slot_of_dart, dtype=np.int64)
        #: in-layout slot of the arc of dart ``e`` (= out-slot of rev e)
        self.in_slot_of_dart = sod[np.arange(len(sod)) ^ 1]
        sizes = np.diff(self.indptr)
        self._seg_of_slot = np.repeat(np.arange(self.nf), sizes)
        self._arange_slots = np.arange(len(arc_dart))
        #: pointer-doubling steps covering any simple chain of faces
        self._doublings = max(1, (self.nf + 1).bit_length())
        self.len_in = np.zeros(len(arc_dart), dtype=np.float64)
        self._pad = None

    def load_lengths_by_dart(self, lengths):
        self.len_in = _dart_array(lengths, len(self.in_dart))[self.in_dart]

    def _parent_cycle(self, parent_slot):
        """True iff the accumulated predecessor graph certifies a
        negative cycle.

        A cycle of predecessor arcs telescopes to total length ≤ 0 (each
        arc satisfies ``len ≤ dist[head] − dist[tail]`` from the moment
        it last relaxed its head), so a pointer-doubling sweep flags
        candidates and an explicit walk sums one concrete cycle to rule
        out the zero-length edge case exactly.
        """
        np = _np
        sent = self.nf
        parent = np.full(self.nf + 1, sent, dtype=np.int64)
        has = parent_slot >= 0
        parent[:-1][has] = self.in_tail[parent_slot[has]]
        hop = parent
        for _ in range(self._doublings):
            hop = hop[hop]
            if (hop[:-1] == sent).all():
                return False
        flagged = np.nonzero(hop[:-1] != sent)[0]
        if len(flagged) == 0:
            return False
        # walk one flagged node onto its cycle, then sum the cycle
        v = int(flagged[0])
        for _ in range(self.nf):
            v = int(parent[v])
        start = v
        total = 0.0
        while True:
            s = int(parent_slot[v])
            total += float(self.len_in[s])
            v = int(parent[v])
            if v == start:
                break
        return total < 0

    def _run(self, dist, track_parents=False):
        """Relax until fixpoint; True iff a negative cycle was proven.

        Synchronous Bellman–Ford in whole-array passes.  Feasible
        instances converge in about as many passes as the hop radius of
        the shortest-path forest; negative cycles are caught early by
        the predecessor-graph certificate (checked periodically) with
        the classical |faces|-pass limit as the completeness backstop.
        """
        np = _np
        starts = self.starts
        in_tail = self.in_tail
        len_in = self.len_in
        seg_of_slot = self._seg_of_slot
        arange_slots = self._arange_slots
        nslots = len(len_in)
        parent_slot = np.full(self.nf, -1, dtype=np.int64)
        passes = 0
        next_check = 64
        limit = self.nf + 1
        while True:
            cand = dist[in_tail] + len_in
            seg_min = np.minimum.reduceat(cand, starts)
            improved = seg_min < dist
            if not improved.any():
                return False
            # predecessor bookkeeping: the first arc achieving seg_min
            # (cheap passes early on; certificates only matter later)
            if track_parents or passes >= 32:
                tight = cand == seg_min[seg_of_slot]
                idx = np.where(tight, arange_slots, nslots)
                first = np.minimum.reduceat(idx, starts)
                parent_slot[improved] = first[improved]
            np.minimum(dist, seg_min, out=dist)
            passes += 1
            if passes >= next_check:
                if passes > limit or self._parent_cycle(parent_slot):
                    return True
                next_check = passes + 32

    def sssp(self, source):
        np = _np
        dist = np.full(self.nf, np.inf, dtype=np.float64)
        dist[source] = 0.0
        if self._run(dist):
            raise NegativeCycleError(where="engine-sssp")
        return dist

    def _padded_layout(self):
        """The degree-padded in-arc layout of :meth:`multi_sssp`, built
        once per kernel from the CSR.

        ``pad_tail`` / ``pad_slot`` are ``(D, nf)`` with ``D = min(max
        in-degree, PAD_WIDTH)``: entry ``(j, f)`` is the ``j``-th in-arc
        of face ``f``, or, past ``f``'s in-degree, tail 0 and the
        sentinel slot ``nslots`` whose length is ``inf``.  The in-arcs
        of faces wider than ``D`` beyond the first ``D`` are the
        *overflow*: their slots, concatenated face by face, with the
        ``reduceat`` offsets of each wide face's run.
        """
        np = _np
        nslots = len(self.in_tail)
        deg = np.diff(self.indptr)
        width = max(1, min(int(deg.max()) if self.nf else 0, PAD_WIDTH))
        col = np.arange(width)[:, None]
        pad_slot = np.where(col < deg, self.starts + col, nslots)
        tail_ext = np.append(self.in_tail, 0)
        wide = np.nonzero(deg > width)[0]
        extra = deg[wide] - width
        ov_starts = np.zeros(len(wide), dtype=np.int64)
        np.cumsum(extra[:-1], out=ov_starts[1:])
        ov_slots = (np.repeat(self.starts[wide] + width - ov_starts, extra)
                    + np.arange(int(extra.sum())))
        self._pad = (tail_ext[pad_slot], pad_slot, wide,
                     self.in_tail[ov_slots], ov_slots, ov_starts)
        return self._pad

    def multi_sssp(self, sources):
        """Synchronous Bellman–Ford from many sources at once: one
        distance row per source, all rows relaxed in whole-*matrix*
        passes (the batched form of :meth:`sssp`, used by the labeling
        kernels of :mod:`repro.engine.labels` where every bag needs a
        whole anchor set's distances).

        Each pass runs on the degree-padded in-arc layout of
        :meth:`_padded_layout`: one ``cur[:, pad_tail]`` gather into a
        ``(rows, D, nf)`` block, one in-place add of the padded lengths
        (gathered once per call from the current ``len_in``, so they
        can never be stale), and one ``min(axis=1)``; the few faces
        wider than ``D`` fold in their overflow arcs with one
        ``minimum.reduceat`` over those slots only.  Every candidate is
        still the left-fold ``dist[tail] + len`` and a minimum is exact
        whatever the grouping, so the rows equal the per-pass
        ``reduceat`` over all slots bit for bit, floats included;
        padding contributes ``inf`` candidates only.

        Simple paths have at most ``nf - 1`` arcs, so an improving pass
        beyond ``nf`` proves a walk strictly better than every simple
        path — a negative cycle reachable from one of the sources.

        Rows are independent single-source relaxations (they never read
        each other), so a row with no improvement in a pass has reached
        its fixpoint: converged rows leave the active set and later
        passes touch only the rows still shrinking, which caps the work
        at Σ_r hops(r) instead of |sources| · max_r hops(r).  The active
        rows stay compacted in one matrix relaxed in place; a row is
        written back to the result only when it leaves.
        """
        np = _np
        pad = self._pad if self._pad is not None else self._padded_layout()
        pad_tail, pad_slot, wide, ov_tail, ov_slots, ov_starts = pad
        len_ext = np.append(self.len_in, INF)
        pad_len = len_ext[pad_slot]
        ov_len = len_ext[ov_slots]
        k = len(sources)
        cur = np.full((k, self.nf), np.inf, dtype=np.float64)
        cur[np.arange(k), np.asarray(sources, dtype=np.int64)] = 0.0
        # cur holds the active rows; a converged row goes back to its
        # place in dist as it leaves
        dist = np.empty_like(cur)
        rows = np.arange(k)
        passes = 0
        while len(rows):
            cand = cur[:, pad_tail]
            cand += pad_len
            seg = cand.min(axis=1)
            if len(wide):
                ov = cur[:, ov_tail]
                ov += ov_len
                seg[:, wide] = np.minimum(
                    seg[:, wide], np.minimum.reduceat(ov, ov_starts, axis=1))
            improved = (seg < cur).any(axis=1)
            if not improved.all():
                done = ~improved
                dist[rows[done]] = cur[done]
                rows = rows[improved]
                if not len(rows):
                    break
                cur = cur[improved]
                seg = seg[improved]
            np.minimum(cur, seg, out=cur)
            passes += 1
            if passes > self.nf:
                raise NegativeCycleError(where="engine-sssp")
        return dist

    def tight_parents(self, dist):
        """One tight in-arc dart per face under ``dist`` (-1 where none:
        the source and unreached faces)."""
        np = _np
        cand = dist[self.in_tail] + self.len_in
        # isfinite excludes unreached faces (inf == inf would otherwise
        # fabricate parents among them)
        tight = (cand == dist[self._seg_of_slot]) & np.isfinite(cand)
        nslots = len(cand)
        idx = np.where(tight, self._arange_slots, nslots)
        first = np.minimum.reduceat(idx, self.starts)
        parent = np.full(self.nf, -1, dtype=np.int64)
        has = first < nslots
        parent[has] = self.in_dart[first[has]]
        return parent


def _dart_array(lengths, num_darts):
    """Per-dart lengths (dict or sequence) as one float64 array."""
    np = _np
    if isinstance(lengths, np.ndarray):
        return lengths.astype(np.float64, copy=False)
    return np.fromiter(map(lengths.__getitem__, range(num_darts)),
                       dtype=np.float64, count=num_darts)


def _as_scalar(x):
    """float64 distance -> the Python number the legacy backend yields."""
    if x == INF or x == -INF:
        return x if isinstance(x, float) else float(x)
    f = float(x)
    return int(f) if f.is_integer() else f


class FlowWorkspace:
    """Preallocated dual shortest-path buffers for one compiled graph."""

    def __init__(self, compiled):
        self.compiled = compiled
        nd = compiled.num_darts
        nf = compiled.num_faces
        self._vec = _VectorDualKernel(compiled) if _np is not None else None
        if self._vec is None:
            #: per-slot arc lengths (out-slot order of the dual CSR) of
            #: the SPFA kernels; with numpy the lengths live only in
            #: the vector kernel (see :meth:`_slot_lengths`)
            self.arc_len = [0] * nd
            self._base_len = [0] * nd
            self._path_minus = []
            self._path_plus = []
        #: face id -> distance, valid after :meth:`sssp`
        self.dist = [INF] * nf
        #: face id -> dart of a tight parent arc (-1 at source/unreached)
        self.parent_dart = [-1] * nf
        self._cnt = [0] * nf
        self._inq = bytearray(nf)
        self._inf_row = [INF] * nf
        self._zero_row = [0] * nf
        #: kernel invocation counters (benchmark introspection)
        self.sssp_runs = 0
        self.probe_runs = 0

    # ------------------------------------------------------------------
    # length loading
    # ------------------------------------------------------------------
    def load_lengths(self, lengths):
        """Load arbitrary per-dart lengths (dict, sequence or array)
        into the arc-length buffers."""
        if self._vec is not None:
            self._vec.load_lengths_by_dart(lengths)
            return
        arc_dart = self.compiled.dual_arc_dart
        al = self.arc_len
        for s in range(len(al)):
            al[s] = lengths[arc_dart[s]]

    def in_slot_index(self, dart_map):
        """``dart_map`` (one entry per dart) re-read in the vector
        kernel's in-slot order (numpy only): ``table[index]`` is then a
        whole length load for :meth:`load_in_slot_lengths`."""
        return _np.asarray(dart_map, dtype=_np.intp)[self._vec.in_dart]

    def load_in_slot_lengths(self, len_in):
        """Load float64 lengths already in in-slot order (numpy only)."""
        self._vec.len_in = len_in

    def bind_flow_problem(self, cap, path_darts):
        """Fix the λ-independent part of the residual lengths: ``cap``
        per dart plus the Miller–Naor path P whose darts get ∓λ."""
        if self._vec is not None:
            v = self._vec
            self._vec_base = _dart_array(cap, len(v.in_dart))[v.in_dart]
            path = _np.asarray(path_darts, dtype=_np.intp)
            self._vec_minus = v.in_slot_of_dart[path]
            self._vec_plus = v.in_slot_of_dart[path ^ 1]
            return
        arc_dart = self.compiled.dual_arc_dart
        base = self._base_len
        for s in range(len(base)):
            base[s] = cap[arc_dart[s]]
        slot = self.compiled.slot_of_dart
        self._path_minus = [slot[d] for d in path_darts]
        self._path_plus = [slot[d ^ 1] for d in path_darts]

    def set_lambda(self, lam):
        """Materialize ``len_λ`` for the bound flow problem: one row
        copy plus O(|P|) patches."""
        if self._vec is not None:
            li = self._vec_base.copy()
            if lam:
                li[self._vec_minus] -= lam
                li[self._vec_plus] += lam
            self._vec.len_in = li
            return
        al = self.arc_len
        al[:] = self._base_len
        if lam:
            for s in self._path_minus:
                al[s] -= lam
            for s in self._path_plus:
                al[s] += lam

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def has_negative_cycle(self):
        """True iff G* has a negative cycle under the current lengths.

        Virtual super-source Bellman–Ford: every face starts at 0, so
        detection is global (not limited to one source's reachable set),
        matching the per-bag detection of the labeling scheme.
        """
        self.probe_runs += 1
        if self._vec is not None:
            dist = _np.zeros(self._vec.nf, dtype=_np.float64)
            return self._vec._run(dist)
        return self._spfa_probe()

    def sssp(self, source, track_parents=False):
        """Exact SSSP over the dual arcs from face ``source`` under the
        current lengths (negative lengths allowed).

        Fills and returns the ``dist`` buffer (copy before the next
        kernel call if you need to keep it); unreachable faces get
        ``math.inf``.  Raises :class:`NegativeCycleError` on a negative
        cycle *reachable from the source*.  With ``track_parents`` the
        ``parent_dart`` buffer gets the dart of one tight incoming arc
        per face (which tight arc is unspecified among ties).
        """
        self.sssp_runs += 1
        if self._vec is not None:
            nd = self._vec.sssp(source)
            self.dist[:] = [_as_scalar(x) for x in nd]
            if track_parents:
                pd = self._vec.tight_parents(nd)
                pd[source] = -1
                self.parent_dart[:] = [int(x) for x in pd]
            return self.dist
        return self._spfa_sssp(source, track_parents)

    def batched_sssp(self, sources):
        """Distance rows from every face in ``sources`` under the
        current lengths — the batched form of :meth:`sssp`.

        Returns a ``len(sources) x num_faces`` float64 matrix on the
        vectorized path, or a list of per-source Python rows on the
        SPFA fallback; either way the rows are fresh (not aliased to
        the reusable ``dist`` buffer), so callers may keep them across
        later kernel calls.  Raises :class:`NegativeCycleError` when a
        negative cycle is reachable from any source.
        """
        self.sssp_runs += len(sources)
        if self._vec is not None:
            return self._vec.multi_sssp(sources)
        return [list(self._spfa_sssp(s, False)) for s in sources]

    # ------------------------------------------------------------------
    # pure-Python fallbacks (numpy-free environments)
    # ------------------------------------------------------------------
    def _slot_lengths(self):
        """Per-out-slot arc lengths for the SPFA kernels: the list
        buffer without numpy, else read back (as floats) from the
        vector kernel's current lengths."""
        if self._vec is None:
            return self.arc_len
        v = self._vec
        return v.len_in[v.in_slot_of_dart[
            _np.asarray(self.compiled.dual_arc_dart)]].tolist()

    def _spfa_probe(self):
        c = self.compiled
        nf = c.num_faces
        dist = self.dist
        dist[:] = self._zero_row
        cnt = self._cnt
        cnt[:] = self._zero_row
        inq = self._inq
        inq[:] = b"\x01" * nf
        indptr = c.dual_indptr
        arc_head = c.dual_arc_head
        al = self._slot_lengths()
        limit = nf + 1
        q = deque(range(nf))
        while q:
            u = q.popleft()
            inq[u] = 0
            du = dist[u]
            for s in range(indptr[u], indptr[u + 1]):
                h = arc_head[s]
                nd = du + al[s]
                if nd < dist[h]:
                    dist[h] = nd
                    ch = cnt[h] + 1
                    if ch > limit:
                        return True
                    cnt[h] = ch
                    if not inq[h]:
                        inq[h] = 1
                        q.append(h)
        return False

    def _spfa_sssp(self, source, track_parents):
        c = self.compiled
        nf = c.num_faces
        dist = self.dist
        dist[:] = self._inf_row
        cnt = self._cnt
        cnt[:] = self._zero_row
        inq = self._inq
        inq[:] = bytes(nf)
        parent = self.parent_dart
        if track_parents:
            parent[:] = [-1] * nf
        indptr = c.dual_indptr
        arc_head = c.dual_arc_head
        arc_dart = c.dual_arc_dart
        al = self._slot_lengths()
        limit = nf + 1
        dist[source] = 0
        inq[source] = 1
        q = deque([source])
        while q:
            u = q.popleft()
            inq[u] = 0
            du = dist[u]
            for s in range(indptr[u], indptr[u + 1]):
                h = arc_head[s]
                nd = du + al[s]
                if nd < dist[h]:
                    dist[h] = nd
                    if track_parents:
                        parent[h] = arc_dart[s]
                    ch = cnt[h] + 1
                    if ch > limit:
                        raise NegativeCycleError(where="engine-sssp")
                    cnt[h] = ch
                    if not inq[h]:
                        inq[h] = 1
                        q.append(h)
        return dist


def dijkstra_undirected(num_nodes, edges, weights, source):
    """Dijkstra over an undirected edge list with nonnegative weights.

    Returns ``(dist, parents)`` where ``parents[v]`` is ``(prev_node,
    edge_index)`` on a shortest-path tree (``None`` at the source and on
    unreachable nodes) — the same parent convention as
    :meth:`repro.aggregation.sssp_ma.ApproxSsspOracle.query`, so the
    Hassin cut-path reconstruction is backend-agnostic.
    """
    adj = [[] for _ in range(num_nodes)]
    for idx, ((a, b), w) in enumerate(zip(edges, weights)):
        adj[a].append((b, w, idx))
        adj[b].append((a, w, idx))
    dist = [INF] * num_nodes
    parents = [None] * num_nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w, idx in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                parents[v] = (u, idx)
                heapq.heappush(heap, (nd, v))
    return dist, parents
