"""Reusable shortest-path workspaces over the compiled dual.

A :class:`FlowWorkspace` owns every buffer the dual shortest-path
kernels need — per-slot arc lengths, distance / relaxation-count
arrays, the in-queue bitmap — sized once for a
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
vectorized kernels relax on a *degree-padded in-arc layout*
(:meth:`_VectorDualKernel._padded_layout`): a pass is one gather, one
add and one reduction over each face's first ``D`` in-arcs, and the
few wider faces fold in the rest with one ``reduceat`` over those
overflow slots.  Every candidate is the left-fold ``dist[tail] + len``
and a minimum is exact however grouped, so distances are bit-identical
to an all-slot ``reduceat``, floats included.  The single-source
kernel reduces by ``argmin`` and records each improved face's best
in-arc as its parent: parent arcs closing a cycle telescope to a
nonpositive length, so a pointer-doubling sweep plus one explicit
cycle sum is an exact negative-cycle certificate, checked every few
passes, with the |faces|-pass limit as the completeness backstop.
Distances are float64, exact for the paper's
polynomially-bounded integral lengths, and returned as Python ints
wherever integral so both backends produce identical values.

With numpy the lengths live only in the vector kernel, in its in-slot
order (``len_in``); the per-slot list buffers of the SPFA fallback are
kept only without numpy.

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
from collections import deque, namedtuple

from repro._compat import np as _np
from repro.errors import NegativeCycleError

INF = math.inf

#: in-arc columns of the padded layout; a face with more in-arcs folds
#: the rest in as overflow
PAD_WIDTH = 4

#: passes between two predecessor-cycle checks of
#: :meth:`_VectorDualKernel._run`.  A check costs about a pass; on
#: perfbench catalog-read, feasible probes converge in 14–17 passes and
#: infeasible ones certify after a mean of 7 (grid) or 21 (triangulation)
#: passes: every 6 to 16 measured alike, every pass a fifth slower
CYCLE_CHECK_PASSES = 8

#: the degree-padded in-arc layout (:meth:`_VectorDualKernel._padded_layout`)
_PaddedLayout = namedtuple(
    "_PaddedLayout", "tail slot face_tail face_slot wide ov_tail ov_slots "
    "ov_starts ov_head")


class _VectorDualKernel:
    """Whole-array synchronous Bellman–Ford over the compiled dual.

    Arc slot ``s`` of the dual CSR is reinterpreted *in-arc-wise*: the
    out-slots of face ``f`` hold the darts of ``f``, and the reversed
    dart of each is precisely an arc whose head is ``f`` — so the same
    ``indptr`` segments the in-arcs of every face.  Every kernel relaxes
    on the degree-padded in-arc layout built from those segments
    (:meth:`_padded_layout`).
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
        it last relaxed its head), so a pointer-doubling sweep finds one
        and an explicit sum rules out the zero-length case exactly.
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
        # hop is parent^(2^doublings), more than nf steps: the hop of a
        # face not led to the sentinel lies on its cycle; sum that cycle
        start = v = int(hop[np.argmax(hop[:-1] != sent)])
        total = 0.0
        while True:
            total += float(self.len_in[parent_slot[v]])
            v = int(parent[v])
            if v == start:
                return total < 0

    def _run(self, dist):
        """Relax until fixpoint; True iff a negative cycle was proven.

        A pass is one ``dist[face_tail]`` gather, one add and one
        ``argmin`` over the ``D`` axis, giving every face its best
        candidate and that in-arc's slot at once; a wide face takes its
        best overflow arc when strictly smaller.  Improved faces record
        the slot as their parent for the predecessor-cycle certificate,
        checked every ``CYCLE_CHECK_PASSES`` passes; the |faces|-pass
        limit is the completeness backstop.
        """
        np = _np
        pad = self._padded_layout()
        face_len, ov_len = self._gather_lengths(pad.face_slot, pad.ov_slots)
        face_tail = pad.face_tail
        face_slot = pad.face_slot.ravel()
        wide = pad.wide
        # flat index of each face's first column
        row0 = np.arange(0, face_tail.size, face_tail.shape[1])
        nslots = len(self.in_tail)
        parent_slot = np.full(self.nf, -1, dtype=np.int64)
        passes = 0
        limit = self.nf + 1
        while True:
            cand = dist[face_tail]
            cand += face_len
            best = cand.argmin(axis=1)
            best += row0
            seg = cand.take(best)
            slot = face_slot.take(best)
            if len(wide):
                ov = dist[pad.ov_tail]
                ov += ov_len
                ov_min = np.minimum.reduceat(ov, pad.ov_starts)
                take = ov_min < seg[wide]
                if take.any():
                    seg[wide[take]] = ov_min[take]
                    first = np.minimum.reduceat(
                        np.where(ov == seg[pad.ov_head], pad.ov_slots,
                                 nslots), pad.ov_starts)
                    slot[wide[take]] = first[take]
            improved = seg < dist
            if not improved.any():
                return False
            np.copyto(parent_slot, slot, where=improved)
            np.minimum(dist, seg, out=dist)
            passes += 1
            if passes % CYCLE_CHECK_PASSES == 0 and (
                    passes > limit or self._parent_cycle(parent_slot)):
                return True

    def sssp(self, source):
        dist = _np.full(self.nf, INF)
        dist[source] = 0.0
        if self._run(dist):
            raise NegativeCycleError(where="engine-sssp")
        return dist

    def _padded_layout(self):
        """The degree-padded in-arc layout, built once per kernel.

        ``tail`` / ``slot`` are ``(D, nf)``, ``D = min(max in-degree,
        PAD_WIDTH)``: entry ``(j, f)`` is the tail face and length slot
        of ``f``'s ``j``-th in-arc, or, past its in-degree, tail 0 and
        the sentinel slot ``nslots`` of length ``inf``.  ``face_tail`` /
        ``face_slot`` hold them as contiguous ``(nf, D)`` rows for the
        single-row kernels (an ``argmin`` along the last axis is the
        fast one).  The in-arcs of a face past its first ``D`` are its
        *overflow*, concatenated face by face in slot order, with each
        wide face's ``reduceat`` offset and each slot's head face.
        """
        if self._pad is not None:
            return self._pad
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
        pad_tail = tail_ext[pad_slot]
        self._pad = _PaddedLayout(
            pad_tail, pad_slot, np.ascontiguousarray(pad_tail.T),
            np.ascontiguousarray(pad_slot.T), wide, self.in_tail[ov_slots],
            ov_slots, ov_starts, np.repeat(wide, extra))
        return self._pad

    def _gather_lengths(self, *slots):
        """The current ``len_in`` at each slot array (``inf`` at the
        sentinel), gathered afresh on every kernel call so no writer of
        ``len_in`` can leave padded lengths stale."""
        len_ext = _np.append(self.len_in, INF)
        return tuple(len_ext[s] for s in slots)

    def multi_sssp(self, sources):
        """Synchronous Bellman–Ford from many sources at once: one
        distance row per source (the batched form of :meth:`sssp`, for
        the labeling kernels of :mod:`repro.engine.labels`).

        Each pass is one ``cur[:, tail]`` gather into a ``(rows, D,
        nf)`` block, one in-place add and one ``min(axis=1)``, plus the
        overflow ``reduceat``.  An improving pass beyond ``nf`` proves
        a walk better than every simple path: a negative cycle
        reachable from a source.  Rows never read each other, so a row
        with no improvement has converged and leaves the active set
        (written back once), capping the work at Σ_r hops(r).
        """
        np = _np
        pad = self._padded_layout()
        pad_len, ov_len = self._gather_lengths(pad.slot, pad.ov_slots)
        k = len(sources)
        cur = np.full((k, self.nf), np.inf, dtype=np.float64)
        cur[np.arange(k), np.asarray(sources, dtype=np.int64)] = 0.0
        # cur holds the active rows; a converged row goes back to its
        # place in dist as it leaves
        dist = np.empty_like(cur)
        rows = np.arange(k)
        passes = 0
        while len(rows):
            cand = cur[:, pad.tail]
            cand += pad_len
            seg = cand.min(axis=1)
            if len(pad.wide):
                ov = cur[:, pad.ov_tail]
                ov += ov_len
                ov_min = np.minimum.reduceat(ov, pad.ov_starts, axis=1)
                seg[:, pad.wide] = np.minimum(seg[:, pad.wide], ov_min)
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


def _dart_array(lengths, num_darts):
    """Per-dart lengths (dict or sequence) as one float64 array."""
    np = _np
    if isinstance(lengths, np.ndarray):
        return lengths.astype(np.float64, copy=False)
    return np.fromiter(map(lengths.__getitem__, range(num_darts)),
                       dtype=np.float64, count=num_darts)


def _as_scalar(x):
    """float64 distance -> the Python number the legacy backend yields."""
    f = float(x)
    return int(f) if f.is_integer() else f


def _as_scalars(a):
    """A float64 array (vector or matrix) -> (nested) lists of the Python
    numbers :func:`_as_scalar` gives element by element: ints where
    integral, whatever the magnitude, floats elsewhere, ``inf`` kept.
    A list of rows (the numpy-free kernels) is converted row by row."""
    np = _np
    if np is None or not isinstance(a, np.ndarray):
        return [[_as_scalar(x) for x in row] for row in a]
    integral = np.isfinite(a) & (a == np.rint(a))
    small = integral & (np.abs(a) < 2.0 ** 63)
    if small.all():
        return a.astype(np.int64).tolist()
    out = a.astype(object)
    out[small] = a[small].astype(np.int64)
    big = integral & ~small
    if big.any():
        out[big] = np.array([int(x) for x in a[big].tolist()], dtype=object)
    return out.tolist()


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

    def in_slot_ends(self, slots):
        """``(tail faces, head faces)`` of the arcs at the in-slot
        positions ``slots`` (numpy only); the head of a slot is the
        face whose ``indptr`` segment holds it."""
        v = self._vec
        return (v.in_tail[slots],
                _np.searchsorted(v.indptr, slots, side="right") - 1)

    def load_in_slot_lengths(self, len_in):
        """Load float64 lengths already in in-slot order (numpy only)."""
        self._vec.len_in = len_in

    def bind_flow_problem(self, cap, path_darts):
        """Fix the λ-independent part of the residual lengths: ``cap``
        per dart (dict, sequence or, cheapest, a float64 array) plus
        the Miller–Naor path P whose darts get ∓λ."""
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
            return self._vec._run(_np.zeros(self._vec.nf))
        return self._spfa_probe()

    def sssp(self, source):
        """Exact SSSP over the dual arcs from face ``source`` under the
        current lengths (negative lengths allowed).

        Fills and returns the ``dist`` buffer (copy before the next
        kernel call if you need to keep it); unreachable faces get
        ``math.inf``.  Raises :class:`NegativeCycleError` on a negative
        cycle *reachable from the source*.
        """
        if self._vec is not None:
            self.dist[:] = _as_scalars(self.sssp_array(source))
            return self.dist
        self.sssp_runs += 1
        return self._spfa_sssp(source)

    def sssp_array(self, source):
        """:meth:`sssp`'s distances as the vector kernel's own float64
        array (numpy only), with no per-face Python list."""
        self.sssp_runs += 1
        return self._vec.sssp(source)

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
        return [list(self._spfa_sssp(s)) for s in sources]

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

    def _spfa_sssp(self, source):
        c = self.compiled
        nf = c.num_faces
        dist = self.dist
        dist[:] = self._inf_row
        cnt = self._cnt
        cnt[:] = self._zero_row
        inq = self._inq
        inq[:] = bytes(nf)
        indptr = c.dual_indptr
        arc_head = c.dual_arc_head
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
