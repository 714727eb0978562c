"""Flow validation and conversion utilities.

Every flow the library outputs is validated against the standard
definitions (capacity constraints, conservation, value at the source)
by :func:`validate_flow`; the independent value oracle for tests is
:func:`flow_value_networkx`.

With numpy, integer capacities and flows are validated in int64 over
the compiled edge arrays (:meth:`repro.engine.csr.CompiledPlanarGraph.
arrays`) whenever they are small enough for every vertex sum to stay
exact; anything else (floats, huge ints, no numpy) runs the per-edge
loop with its ``tol``.  Both raise the same message naming the same
first edge or vertex.
"""

from __future__ import annotations

from itertools import repeat

from repro._compat import np as _np
from repro.engine.csr import compile_graph
from repro.errors import InfeasibleFlowError

#: integers below this in magnitude take the int64 paths: a difference
#: of two of them cannot overflow
INT64_BOUND = 1 << 62


def _exceeds(a, b, tol):
    """``a > b``: exact when both are ints (a float tolerance would
    round away above 2^53), with slack ``tol`` otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        return a > b
    return a > b + tol


def _int64(values, limit):
    """``values`` as an int64 array if every one is an int of magnitude
    below ``limit``, else None."""
    a = _np.array(values)
    if a.dtype == _np.int64 and -limit < a.min() and a.max() < limit:
        return a
    return None


def validate_flow(graph, s, t, flow, value, directed=True, tol=1e-6):
    """Check that ``flow`` (dict eid -> signed flow along the stored edge
    direction) is a feasible s-t flow of the given value.

    Integer flows on integer capacities are checked exactly; ``tol``
    applies wherever a float is involved.  Capacity violations are
    reported at the first offending edge, then conservation at the
    first offending vertex, then the source and sink imbalance.

    Raises :class:`InfeasibleFlowError` on violation; returns True.
    """
    caps = graph.capacities
    m = graph.m
    xs = list(map(flow.get, range(m), repeat(0, m)))
    x = None
    if _np is not None and m:
        c = _int64(caps, INT64_BOUND)
        # a vertex sums at most m flows: below INT64_BOUND // m each,
        # every sum is exact in int64
        if c is not None:
            x = _int64(xs, INT64_BOUND // m)
    if x is None:
        net = [0] * graph.n
        for eid, ((u, v), cap) in enumerate(zip(graph.edges, caps)):
            _check_capacity(eid, xs[eid], cap, directed, tol)
            net[u] -= xs[eid]
            net[v] += xs[eid]
        for v in range(graph.n):
            if v not in (s, t) and _exceeds(abs(net[v]), 0, tol):
                _conservation_error(v, net[v])
        net_s, net_t = net[s], net[t]
    else:
        np = _np
        bad = (x < 0) | (x > c) if directed else np.abs(x) > c
        if bad.any():
            eid = int(bad.argmax())
            _check_capacity(eid, xs[eid], caps[eid], directed, tol)
        ends = compile_graph(graph).arrays()
        net = np.zeros(graph.n, dtype=np.int64)
        np.add.at(net, ends.dart_tail[0::2], -x)
        np.add.at(net, ends.dart_head[0::2], x)
        off = net != 0
        off[[s, t]] = False
        if off.any():
            v = int(off.argmax())
            _conservation_error(v, int(net[v]))
        net_s, net_t = int(net[s]), int(net[t])
    if _exceeds(abs(net_s + value), 0, tol):
        raise InfeasibleFlowError(
            f"source imbalance {net_s} != -value {-value}")
    if _exceeds(abs(net_t - value), 0, tol):
        raise InfeasibleFlowError(
            f"sink imbalance {net_t} != value {value}")
    return True


def _check_capacity(eid, x, cap, directed, tol):
    if directed:
        if _exceeds(0, x, tol) or _exceeds(x, cap, tol):
            raise InfeasibleFlowError(
                f"edge {eid}: flow {x} outside [0, {cap}]")
    elif _exceeds(abs(x), cap, tol):
        raise InfeasibleFlowError(
            f"edge {eid}: |flow| {x} exceeds capacity {cap}")


def _conservation_error(v, net):
    raise InfeasibleFlowError(
        f"conservation violated at vertex {v}: net {net}")


def flow_value_networkx(graph, s, t, directed=True):
    """Independent max-flow value via networkx (tests/benchmark oracle)."""
    import networkx as nx

    g = nx.DiGraph() if directed else nx.Graph()
    g.add_nodes_from(range(graph.n))
    for eid, (u, v) in enumerate(graph.edges):
        cap = graph.capacities[eid]
        if g.has_edge(u, v):
            g[u][v]["capacity"] += cap
        else:
            g.add_edge(u, v, capacity=cap)
    return nx.maximum_flow_value(g, s, t)


def undirected_st_path_darts(graph, s, t):
    """A path of darts from s to t ignoring edge directions (the path P
    of Miller-Naor; found by BFS in O(D) rounds): the BFS tree path of
    :meth:`PlanarGraph.bfs <repro.planar.graph.PlanarGraph.bfs>`, run
    on the compiled primal CSR
    (:meth:`~repro.engine.csr.CompiledPlanarGraph.st_path_darts`)."""
    return compile_graph(graph).st_path_darts(s, t)
