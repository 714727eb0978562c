"""Checks computed apart from the program.

Every function here reads only a graph's raw structure (edges, rotation
darts, face incidence, weights, capacities) and an answer object, and
returns a list of problems (empty when the answer is right).  None of
them call the program's algorithms: max-flow values come from networkx,
dual distances from the benchmark's own Dijkstra over a dual built from
face incidence, and girth from a bounded Dijkstra per edge.
"""

from __future__ import annotations

import heapq
import math
from collections import deque


class MaxFlowOracle:
    """Max st-flow values on the primal with directed capacities, by
    networkx's Edmonds-Karp (parallel arcs merged by summing
    capacities); the digraph and its residual network are built once
    per graph and reused across pairs."""

    def __init__(self, graph):
        import networkx as nx
        from networkx.algorithms.flow import build_residual_network

        self._nx = nx
        d = nx.DiGraph()
        d.add_nodes_from(range(graph.n))
        for eid, (u, v) in enumerate(graph.edges):
            c = graph.capacities[eid]
            if d.has_edge(u, v):
                d[u][v]["capacity"] += c
            else:
                d.add_edge(u, v, capacity=c)
        self._graph = d
        self._residual = build_residual_network(d, "capacity")

    def value(self, s, t):
        from networkx.algorithms.flow import edmonds_karp

        return self._nx.maximum_flow_value(self._graph, s, t,
                                           flow_func=edmonds_karp,
                                           residual=self._residual)


def check_flow(graph, s, t, result, expected):
    """Value equals ``expected``; every edge within [0, capacity];
    conservation at every vertex other than s and t."""
    problems = []
    if result.value != expected:
        problems.append(f"flow {s}->{t}: value {result.value} != "
                        f"networkx {expected}")
    net = [0] * graph.n
    for eid, (u, v) in enumerate(graph.edges):
        x = result.flow[eid]
        if not 0 <= x <= graph.capacities[eid]:
            problems.append(f"flow {s}->{t}: edge {eid} carries {x} "
                            f"outside [0, {graph.capacities[eid]}]")
        net[u] -= x
        net[v] += x
    for v in range(graph.n):
        if v not in (s, t) and net[v] != 0:
            problems.append(f"flow {s}->{t}: vertex {v} loses "
                            f"{net[v]} units")
            break
    if net[t] != result.value or net[s] != -result.value:
        problems.append(f"flow {s}->{t}: net into t {net[t]} and out of "
                        f"s {-net[s]} differ from value {result.value}")
    return problems


def check_cut(graph, s, t, result, expected):
    """Value equals ``expected`` and the crossing capacity; removing the
    cut edges leaves t unreachable from s along edge directions."""
    problems = []
    crossing = sum(graph.capacities[e] for e in result.cut_edge_ids)
    if result.value != expected or crossing != expected:
        problems.append(f"cut {s}->{t}: value {result.value}, crossing "
                        f"capacity {crossing}, networkx {expected}")
    removed = set(result.cut_edge_ids)
    out = [[] for _ in range(graph.n)]
    for eid, (u, v) in enumerate(graph.edges):
        if eid not in removed:
            out[u].append(v)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if t in seen:
        problems.append(f"cut {s}->{t}: t still reachable from s")
    return problems


def reachable(graph, s):
    """Vertices reachable from ``s`` along edge directions."""
    out = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        out[u].append(v)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def dual_distances(graph, weights, source):
    """Dijkstra over the dual: one arc per dart d, from the face holding
    d to the face holding its reverse, of length weight(e) on the plus
    dart 2e and 0 on the reverse dart 2e+1."""
    face_of = graph.face_of
    nfaces = max(face_of) + 1
    adj = [[] for _ in range(nfaces)]
    for d in range(2 * graph.m):
        length = weights[d >> 1] if d % 2 == 0 else 0
        adj[face_of[d]].append((face_of[d ^ 1], length))
    dist = [math.inf] * nfaces
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, length in adj[u]:
            nd = du + length
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def min_weight_cycle(graph, weights):
    """Minimum cycle weight: for each edge (u, v), its weight plus the
    shortest u-v path avoiding it, pruned at the best cycle so far."""
    adj = [[] for _ in range(graph.n)]
    for eid, (u, v) in enumerate(graph.edges):
        adj[u].append((v, weights[eid], eid))
        adj[v].append((u, weights[eid], eid))
    best = math.inf
    for eid, (u, v) in enumerate(graph.edges):
        limit = best - weights[eid]
        dist = {u: 0}
        heap = [(0, u)]
        while heap:
            du, x = heapq.heappop(heap)
            if du > dist[x] or du >= limit:
                continue
            if x == v:
                best = du + weights[eid]
                break
            for y, w, f in adj[x]:
                if f == eid:
                    continue
                nd = du + w
                if nd < dist.get(y, math.inf) and nd < limit:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
    return best


def check_girth(graph, weights, result, expected):
    """The certified cycle is simple (connected, every vertex of degree
    two), weighs the reported value, and that value is ``expected``."""
    problems = []
    edges = result.cycle_edge_ids
    degree = {}
    adj = {}
    for eid in edges:
        u, v = graph.edges[eid]
        for a, b in ((u, v), (v, u)):
            degree[a] = degree.get(a, 0) + 1
            adj.setdefault(a, []).append(b)
    if len(set(edges)) != len(edges) or not edges \
            or any(d != 2 for d in degree.values()):
        problems.append(f"girth: edges {edges} are not a simple cycle")
    else:
        start = next(iter(adj))
        seen = {start}
        queue = deque([start])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != len(degree):
            problems.append(f"girth: edges {edges} form several cycles")
    weight = sum(weights[e] for e in edges)
    if weight != result.value or result.value != expected:
        problems.append(f"girth: value {result.value}, cycle weight "
                        f"{weight}, oracle {expected}")
    return problems
