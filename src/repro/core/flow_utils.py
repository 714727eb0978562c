"""Flow validation and conversion utilities.

Every flow the library outputs is validated against the standard
definitions (capacity constraints, conservation, value at the source)
by :func:`validate_flow`; the independent value oracle for tests is
:func:`flow_value_networkx`.
"""

from __future__ import annotations

from repro.errors import InfeasibleFlowError


def _exceeds(a, b, tol):
    """``a > b``: exact when both are ints (a float tolerance would
    round away above 2^53), with slack ``tol`` otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        return a > b
    return a > b + tol


def validate_flow(graph, s, t, flow, value, directed=True, tol=1e-6):
    """Check that ``flow`` (dict eid -> signed flow along the stored edge
    direction) is a feasible s-t flow of the given value.

    Integer flows on integer capacities are checked exactly; ``tol``
    applies wherever a float is involved.

    Raises :class:`InfeasibleFlowError` on violation; returns True.
    """
    net = [0] * graph.n
    for eid, ((u, v), cap) in enumerate(zip(graph.edges, graph.capacities)):
        x = flow.get(eid, 0)
        if directed:
            if _exceeds(0, x, tol) or _exceeds(x, cap, tol):
                raise InfeasibleFlowError(
                    f"edge {eid}: flow {x} outside [0, {cap}]")
        else:
            if _exceeds(abs(x), cap, tol):
                raise InfeasibleFlowError(
                    f"edge {eid}: |flow| {x} exceeds capacity {cap}")
        net[u] -= x
        net[v] += x
    for v in range(graph.n):
        if v in (s, t):
            continue
        if _exceeds(abs(net[v]), 0, tol):
            raise InfeasibleFlowError(
                f"conservation violated at vertex {v}: net {net[v]}")
    if _exceeds(abs(net[s] + value), 0, tol):
        raise InfeasibleFlowError(
            f"source imbalance {net[s]} != -value {-value}")
    if _exceeds(abs(net[t] - value), 0, tol):
        raise InfeasibleFlowError(
            f"sink imbalance {net[t]} != value {value}")
    return True


def flow_value_networkx(graph, s, t, directed=True):
    """Independent max-flow value via networkx (tests/benchmark oracle)."""
    import networkx as nx

    if directed:
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.n))
        for eid, (u, v) in enumerate(graph.edges):
            cap = graph.capacities[eid]
            if g.has_edge(u, v):
                g[u][v]["capacity"] += cap
            else:
                g.add_edge(u, v, capacity=cap)
    else:
        g = nx.Graph()
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
    of Miller-Naor; found by BFS in O(D) rounds)."""
    dist, parent = graph.bfs(s)
    if dist[t] == -1:
        raise InfeasibleFlowError(f"no undirected path {s} -> {t}")
    darts = []
    v = t
    while v != s:
        d = parent[v]
        darts.append(d)
        v = graph.tail(d)
    darts.reverse()
    return darts
