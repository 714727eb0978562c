"""Minimum st-cut: exact directed (Theorem 6.1) and approximate
st-planar (Theorem 6.2).

Exact: run the max-flow algorithm, then find the source side of the
residual graph.  The paper reduces residual reachability to an SSSP with
0/∞ weights solved by the Õ(D²)-round primal SSSP of [27]; the library
substitutes a direct reachability sweep and charges the same Õ(D²)
(DESIGN.md §2) — the *output* (bisection + marked cut edges) is
identical.  The sweep runs on the compiled primal CSR lists
(:meth:`~repro.engine.csr.CompiledPlanarGraph.adjacency`) on both
backends and reads a dart's residual capacity only when it scans the
dart, so a cut costs the volume of its source side rather than |E|:
the crossing edges are that side's darts leading out of it.  The
residuals are the same Python expressions for every number type.

Approximate: Reif's duality [39] — an st-separating cycle in the dual is
an st-cut; the (1+ε)-approximate shortest f₁-to-f₂ path found by the
Hassin pipeline closes such a cycle with the virtual dual edge, so its
primal edges are a genuine st-cut of near-minimum capacity (the
validity is exact; only the value is approximate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.maxflow import PlanarMaxFlow
from repro.engine.csr import compile_graph
from repro.errors import InfeasibleFlowError


@dataclass
class MinCutResult:
    value: float
    #: vertices on the source side
    source_side: list
    #: edge ids crossing the cut (directed: from side to complement)
    cut_edge_ids: list
    flow: dict


def min_st_cut(graph, s, t, directed=True, leaf_size=None, ledger=None,
               backend="legacy", solver=None):
    """Exact minimum st-cut (Theorem 6.1).

    ``backend="engine"`` runs the underlying max-flow on the compiled
    array kernel of :mod:`repro.engine` (identical output, no round
    audit); the residual sweep below is backend-independent.

    ``solver`` lets batched callers reuse one prebuilt
    :class:`PlanarMaxFlow` — and hence its probe-invariant BDD /
    compiled-CSR / workspace structures — across many ``(s, t)`` pairs.
    The solver must have been built for the same graph and direction
    convention, and it *carries its own* backend, leaf size and (absent)
    ledger — passing ``ledger`` alongside ``solver`` raises rather than
    silently recording an empty audit.  The result is identical to the
    per-call path because ``min_st_cut`` without a solver builds exactly
    this object.  Only ``graph``, ``directed``, ``backend`` and
    ``solve(s, t)`` are used: the serving layer of :mod:`repro.service`
    passes a solver whose ``solve`` returns the pair's memoized flow.
    """
    if solver is None:
        solver = PlanarMaxFlow(graph, directed=directed,
                               leaf_size=leaf_size, ledger=ledger,
                               backend=backend)
    else:
        if solver.graph is not graph or solver.directed != directed:
            raise ValueError("prebuilt solver does not match the "
                             "requested graph/directedness")
        if ledger is not None:
            raise ValueError("a prebuilt solver carries its own "
                             "(ledger-free) configuration; drop "
                             "ledger= or drop solver= for an audited "
                             "run")
        backend = solver.backend
    res = solver.solve(s, t)
    # source side = residual reachability from s (the R' SSSP of §6.2,
    # charged as one more labeling-scale computation)
    if ledger is not None and backend == "legacy":
        ledger.charge(graph.eccentricity(s) ** 2 + 1, "mincut/residual-sssp",
                      ref="Theorem 6.1 via [27] SSSP")
    return _cut_from_flow(graph, s, t, res, directed)


def _cut_from_flow(graph, s, t, res, directed):
    """The min st-cut of a max st-flow ``res`` (Theorem 6.1): the source
    side is everything reachable from ``s`` in the residual graph.

    Reads only ``res`` and the graph's current capacities, not the
    solver that produced ``res`` — so a served cut can run it on a
    memoized :class:`~repro.core.maxflow.MaxFlowResult` of the same
    ``(graph, s, t, directed)`` instead of solving the flow again.
    """
    # residual capacity per dart (dart capacities as in
    # maxflow.dart_capacities: directed edges (c, 0), undirected (c, c)),
    # read only for the darts the sweep scans
    caps = graph.capacities
    flow = res.flow
    adj = compile_graph(graph).adjacency()
    seen = bytearray(graph.n)
    seen[s] = 1
    side = [s]
    for u in side:
        for d, w in adj[u]:
            if seen[w]:
                continue
            eid = d >> 1
            if d & 1:
                resid = (0 if directed else caps[eid]) + flow[eid]
            else:
                resid = caps[eid] - flow[eid]
            if resid > 1e-9:
                seen[w] = 1
                side.append(w)
    if seen[t]:
        raise InfeasibleFlowError("sink reachable in residual graph; "
                                  "flow was not maximum")

    # every crossing edge has one end on the side: scan its darts
    cut = sorted(d >> 1 for u in side for d, w in adj[u]
                 if not seen[w] and not (directed and d & 1))
    val = 0
    for eid in cut:
        val += caps[eid]
    if val != res.value:
        raise InfeasibleFlowError(
            f"min-cut {val} does not match max-flow {res.value}")
    return MinCutResult(value=val, source_side=sorted(side),
                        cut_edge_ids=cut, flow=res.flow)


def verify_st_cut(graph, s, t, cut_edge_ids, directed=True):
    """Check that removing the cut edges disconnects t from s (in the
    directed sense when ``directed``)."""
    removed = set(cut_edge_ids)
    seen = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for d in graph.rotations[u]:
            eid = d >> 1
            if eid in removed:
                continue
            if directed and (d & 1):  # dart against edge direction
                continue
            w = graph.head(d)
            if w not in seen:
                seen.add(w)
                q.append(w)
    return t not in seen
