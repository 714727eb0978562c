"""Centralized baselines, implemented from scratch.

These are the independent comparators the paper's algorithms are
validated against in tests and raced against in benchmarks.  Where the
test-suite wants a *second* independent opinion it additionally uses
networkx; the implementations here share no code with the distributed
pipeline.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from repro.errors import NegativeWeightError


def centralized_max_flow(graph, s, t, directed=True):
    """BFS-augmenting-path (Edmonds-Karp) max flow on the primal graph.

    Returns (value, flow dict eid -> signed flow)."""
    # residual capacities per dart
    resid = {}
    for eid in range(graph.m):
        c = graph.capacities[eid]
        resid[2 * eid] = c
        resid[2 * eid + 1] = 0 if directed else c

    def bfs_path():
        parent = {s: None}
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            for d in graph.rotations[u]:
                if resid[d] <= 0:
                    continue
                w = graph.head(d)
                if w not in parent:
                    parent[w] = d
                    q.append(w)
        if t not in parent:
            return None
        darts = []
        v = t
        while v != s:
            d = parent[v]
            darts.append(d)
            v = graph.tail(d)
        return darts

    value = 0
    while True:
        path = bfs_path()
        if path is None:
            break
        aug = min(resid[d] for d in path)
        for d in path:
            resid[d] -= aug
            resid[d ^ 1] += aug
        value += aug

    flow = {}
    for eid in range(graph.m):
        c = graph.capacities[eid]
        if directed:
            flow[eid] = c - resid[2 * eid]
        else:
            # resid[2e] = c - x, resid[2e+1] = c + x
            flow[eid] = (resid[2 * eid + 1] - resid[2 * eid]) / 2
    return value, flow


def _dijkstra(adj, source, forbidden_eid=None):
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for (v, w, eid) in adj.get(u, ()):
            if eid == forbidden_eid:
                continue
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def centralized_weighted_girth(graph):
    """Exact min-weight cycle: for each edge, its weight plus the
    shortest path between its endpoints avoiding it.  O(m · Dijkstra).
    Raises :class:`~repro.errors.NegativeWeightError` on a negative
    weight, where Dijkstra need not stop."""
    NegativeWeightError.check(graph.weights)
    adj = {}
    for eid, (u, v) in enumerate(graph.edges):
        w = graph.weights[eid]
        adj.setdefault(u, []).append((v, w, eid))
        adj.setdefault(v, []).append((u, w, eid))
    best = math.inf
    for eid, (u, v) in enumerate(graph.edges):
        dist = _dijkstra(adj, u, forbidden_eid=eid)
        cand = dist.get(v, math.inf) + graph.weights[eid]
        best = min(best, cand)
    return best


def centralized_directed_global_mincut(graph):
    """Exact directed global min cut by n−1 max-flow pairs against a
    fixed root (both directions)."""
    # the flows run on a copy with capacities = weights, never on the
    # caller's graph: rebinding its capacities would bump their version
    # (and so its cache keys) and race any reader of a served graph
    flow_graph = graph.copy(capacities=graph.weights)
    best = math.inf
    for t in range(1, graph.n):
        v1, _ = centralized_max_flow(flow_graph, 0, t, directed=True)
        v2, _ = centralized_max_flow(flow_graph, t, 0, directed=True)
        best = min(best, v1, v2)
    return best


def centralized_sssp(graph, source):
    """Dijkstra on the primal graph (undirected weights)."""
    adj = {}
    for eid, (u, v) in enumerate(graph.edges):
        w = graph.weights[eid]
        adj.setdefault(u, []).append((v, w, eid))
        adj.setdefault(v, []).append((u, w, eid))
    return _dijkstra(adj, source)
