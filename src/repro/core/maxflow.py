"""Exact maximum st-flow in directed planar graphs (Theorem 1.2).

Implements the Miller-Naor reduction [31]: binary search on the flow
value λ; for each candidate, push λ units along a fixed undirected
s-to-t dart path ``P``, set the dual arc lengths to the residual dart
capacities

    len_λ(d)  =  cap(d) − λ·[d ∈ P] + λ·[rev(d) ∈ P],

and test feasibility = "no negative cycle in G*" via the dual distance
labeling (Theorem 2.1).  The maximum feasible λ is the max-flow value;
an SSSP from an arbitrary face then yields the flow assignment

    f(d) = dist(face(rev d)) − dist(face(d)) + λ·[d∈P] − λ·[rev(d)∈P].

Each feasibility probe is one labeling construction (Õ(D²) rounds); the
binary search adds the log λ factor the paper absorbs into Õ(·).  It
searches ``[0, min(out_cap(s), in_cap(t))]``: the trivial s-cut and
t-cut bound every flow value, so the search needs at most
``ceil(log2(bracket + 1)) + 1`` probes (the λ=0 probe included).

The per-dart capacity convention covers both variants:
directed edges carry (c(e), 0); undirected edges carry (c(e), c(e)).
Capacities must be integral, as the paper's are: λ runs over integers.

Two execution backends share this driver (DESIGN.md §6):

* ``backend="legacy"`` (default) — the round-audited reference path:
  each probe is one :class:`~repro.labeling.scheme.DualDistanceLabeling`
  construction over the BDD, exactly as the distributed algorithm works.
* ``backend="engine"`` — the centralized fast path: probes are
  negative-cycle sweeps on the compiled CSR dual
  (:mod:`repro.engine`), with all buffers reused across the O(log λ)
  probes.  Outputs (value, flow assignment, probe count) are identical;
  CONGEST round accounting is only meaningful on the legacy backend.

Both backends find P by a BFS over the compiled primal CSR.  With
numpy the engine keeps the per-dart capacities as one float64 array
and, when every SSSP distance is integral and below 2^62, builds the
assignment from one int64 gather by ``face_left`` plus the O(|P|) path
patch; otherwise a per-edge loop gives the same values and types.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._compat import np as _np
from repro.bdd import build_bdd, build_all_dual_bags
from repro.core.flow_utils import (INT64_BOUND, undirected_st_path_darts,
                                   validate_flow)
from repro.engine import FlowWorkspace, compile_graph
from repro.engine.workspace import _as_scalars, _dart_array
from repro.errors import InfeasibleFlowError, NegativeCycleError
from repro.labeling import DualDistanceLabeling, dual_sssp
from repro.planar.graph import rev

BACKENDS = ("legacy", "engine")


@dataclass
class MaxFlowResult:
    value: int
    #: eid -> signed flow along the stored edge direction
    flow: dict
    #: number of dual SSSP / labeling constructions used
    probes: int
    path_darts: list


def dart_capacities(graph, directed=True):
    """cap per dart: directed edges (c, 0); undirected (c, c).

    Raises :class:`InfeasibleFlowError` at the first capacity that is
    not integral (an ``int`` or an integral ``float``): the binary
    search runs over integer λ, so a fractional max-flow value would
    come back as its floor, or the search would never end."""
    cap = {}
    for eid, c in enumerate(graph.capacities):
        if c % 1:
            raise InfeasibleFlowError(f"edge {eid}: capacity {c!r} is "
                                      f"not integral")
        cap[2 * eid] = c
        cap[2 * eid + 1] = 0 if directed else c
    return cap


class PlanarMaxFlow:
    """Reusable max-flow solver: the probe-invariant structures (legacy:
    BDD and dual bags; engine: compiled CSR dual and workspace buffers)
    are built once per graph and shared by all probes — the dual
    topology never depends on λ."""

    def __init__(self, graph, directed=True, leaf_size=None, ledger=None,
                 backend="legacy"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        self.graph = graph
        self.directed = directed
        self.ledger = ledger
        self.backend = backend
        self.cap = dart_capacities(graph, directed=directed)
        if backend == "legacy":
            self.bdd = build_bdd(graph, leaf_size=leaf_size, ledger=ledger)
            self.duals = build_all_dual_bags(self.bdd)
            self.workspace = None
        else:
            self.bdd = None
            self.duals = None
            self.workspace = FlowWorkspace(compile_graph(graph))
            #: per-dart capacities as the workspace loads them
            self._cap_array = (self.cap if _np is None else
                               _dart_array(self.cap, 2 * graph.m))

    def trivial_cut_bound(self, s, t):
        """``min(out_cap(s), in_cap(t))``: the capacity of the trivial
        s-cut and of the trivial t-cut, a sound upper bound on every
        s-t flow value (directed and undirected alike)."""
        g, cap = self.graph, self.cap
        out_s = sum(cap[d] for d in g.out_darts(s))
        in_t = sum(cap[rev(d)] for d in g.out_darts(t))
        return min(out_s, in_t)

    # ------------------------------------------------------------------
    def _lengths(self, path_darts, lam):
        on_path = set(path_darts)
        lengths = {}
        for d in self.graph.darts():
            ln = self.cap[d]
            if d in on_path:
                ln -= lam
            if rev(d) in on_path:
                ln += lam
            lengths[d] = ln
        return lengths

    def _feasible(self, path_darts, lam):
        """λ units of s-t flow exist iff the λ-residual dual has no
        negative cycle [31].  Returns a truthy witness (the labeling on
        the legacy backend) or None."""
        if self.backend == "engine":
            self.workspace.set_lambda(lam)
            return None if self.workspace.has_negative_cycle() else True
        try:
            lab = DualDistanceLabeling(self.bdd, self._lengths(path_darts,
                                                               lam),
                                       duals=self.duals, ledger=self.ledger)
        except NegativeCycleError:
            return None
        return lab

    # ------------------------------------------------------------------
    def solve(self, s, t, validate=True):
        if s == t:
            raise InfeasibleFlowError("s == t")
        g = self.graph
        path = undirected_st_path_darts(g, s, t)
        # round accounting is audited on the legacy backend only; a
        # partial audit would be worse than none (DESIGN.md §2)
        if self.ledger is not None and self.backend == "legacy":
            self.ledger.charge_bfs(g.eccentricity(s), "maxflow/find-path",
                                   ref="Theorem 1.2")
        if self.backend == "engine":
            self.workspace.bind_flow_problem(self._cap_array, path)

        # binary search the max feasible λ in [0, trivial-cut bound];
        # λ=0 is feasible (lengths are the nonnegative capacities)
        probes = 0
        lo, hi = 0, self.trivial_cut_bound(s, t)
        lab_lo = self._feasible(path, 0)
        probes += 1
        if lab_lo is None:
            raise InfeasibleFlowError("capacities produce a negative "
                                      "dual cycle at λ=0")
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lab = self._feasible(path, mid)
            probes += 1
            if lab is not None:
                lo = mid
                lab_lo = lab
            else:
                hi = mid - 1

        lam = lo
        flow = self._assignment(lab_lo, path, lam)
        if validate:
            validate_flow(g, s, t, flow, lam, directed=self.directed)
        return MaxFlowResult(value=lam, flow=flow, probes=probes,
                             path_darts=path)

    # ------------------------------------------------------------------
    def _assignment(self, lab, path_darts, lam):
        """Flow from the dual SSSP distances [31] (Section 6.1).

        Both backends compute the exact distances from face 0, so the
        assignment is identical: shortest-path distances are unique even
        when the trees are not.  With numpy and integral distances below
        2^62 the engine gathers them in int64 (exact differences) and
        patches P; the dict holds the same Python ints the loop builds.
        """
        g = self.graph
        if self.backend == "legacy":
            dist = dual_sssp(lab, source=0, ledger=self.ledger).dist
        else:
            ws = self.workspace
            ws.set_lambda(lam)
            if _np is None:
                dist = ws.sssp(0)
            else:
                dist = ws.sssp_array(0)
                if (_np.abs(dist) < INT64_BOUND).all() and (
                        dist == _np.rint(dist)).all():
                    d = dist.astype(_np.int64)
                    face = ws.compiled.arrays().face_left
                    # dist(face(rev d)) − dist(face(d)), d the plus dart
                    flow = dict(enumerate(
                        (d[face[1::2]] - d[face[0::2]]).tolist()))
                    for p in path_darts:
                        flow[p >> 1] += -lam if p & 1 else lam
                    return flow
                dist = _as_scalars(dist)
        on_path = set(path_darts)
        flow = {}
        for eid in range(g.m):
            d = 2 * eid
            fd = g.face_of[d]
            fr = g.face_of[rev(d)]
            x = dist[fr] - dist[fd]
            if d in on_path:
                x += lam
            if rev(d) in on_path:
                x -= lam
            flow[eid] = x
        return flow


def max_st_flow(graph, s, t, directed=True, leaf_size=None, ledger=None,
                validate=True, backend="legacy"):
    """One-shot exact maximum st-flow (Theorem 1.2)."""
    solver = PlanarMaxFlow(graph, directed=directed, leaf_size=leaf_size,
                           ledger=ledger, backend=backend)
    return solver.solve(s, t, validate=validate)
