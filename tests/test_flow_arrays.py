"""The engine's post-probe steps on the compiled arrays.

After the Miller–Naor binary search, the engine backend finds the path
P on the compiled primal CSR (both backends), builds the flow from one int64 gather of
the dual distances, validates it with an int64 core and sweeps the
residual graph on the CSR lists.  These tests pin every one of those
to the per-edge loops they replace: equal results (value types
included), equal errors with equal messages.  The loop path is forced
by clearing the numpy handle of :mod:`repro.core.maxflow` and
:mod:`repro.core.flow_utils` only; the probe kernel keeps numpy.
"""

import random
from collections import deque

import pytest

from repro import _compat
from repro.core import flow_utils, maxflow
from repro.core.flow_utils import undirected_st_path_darts, validate_flow
from repro.core.maxflow import PlanarMaxFlow
from repro.core.mincut import _cut_from_flow
from repro.engine import compile_graph
from repro.errors import InfeasibleFlowError
from repro.planar.generators import (
    bidirect,
    cylinder,
    grid,
    random_planar,
    randomize_weights,
)
from repro.planar.graph import PlanarGraph

needs_numpy = pytest.mark.skipif(_compat.np is None,
                                 reason="the array paths need numpy")


def _parallel_graph():
    """Three same-direction parallel edges 0 -> 1, then a path 1-2-3."""
    return PlanarGraph(4, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 3)],
                       [[0, 2, 4], [5, 3, 1, 6], [7, 8], [9]],
                       capacities=[3, 4, 5, 9, 7])


def _instances():
    return {
        "grid": randomize_weights(grid(6, 6), seed=1,
                                  directed_capacities=True),
        "tri": randomize_weights(random_planar(40, seed=2), seed=2,
                                 directed_capacities=True),
        "cylinder": randomize_weights(cylinder(4, 6), seed=3,
                                      directed_capacities=True),
        "antiparallel": bidirect(randomize_weights(grid(4, 4), seed=4)),
        "parallel": _parallel_graph(),
    }


def _pairs(g, k, seed):
    rng = random.Random(seed)
    pairs = [(0, g.n - 1)]
    while len(pairs) < k:
        s, t = rng.sample(range(g.n), 2)
        pairs.append((s, t))
    return pairs


def _reference_cut(graph, s, t, res, directed):
    """The residual sweep as a per-edge loop over the rotation system:
    a residual dict, a BFS, a crossing-edge scan; None if t is
    reachable."""
    resid = {}
    for eid, c in enumerate(graph.capacities):
        x = res.flow[eid]
        resid[2 * eid] = c - x
        resid[2 * eid + 1] = (0 if directed else c) + x
    side = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for d in graph.rotations[u]:
            if resid[d] > 1e-9 and graph.head(d) not in side:
                side.add(graph.head(d))
                q.append(graph.head(d))
    if t in side:
        return None
    cut = [eid for eid, (u, v) in enumerate(graph.edges)
           if ((u in side and v not in side) if directed
               else (u in side) != (v in side))]
    val = 0
    for eid in cut:
        val += graph.capacities[eid]
    return sorted(side), cut, val


def _outcome(g, s, t, directed):
    """repr of the flow and of its cut, or the error type and message."""
    solver = PlanarMaxFlow(g, directed=directed, backend="engine")
    try:
        res = solver.solve(s, t)
    except InfeasibleFlowError as exc:
        return ("error", str(exc))
    ref = _reference_cut(g, s, t, res, directed)
    try:
        cut = _cut_from_flow(g, s, t, res, directed)
    except InfeasibleFlowError as exc:
        if ref is None:
            assert str(exc).startswith("sink reachable")
        else:
            assert str(exc) == (f"min-cut {ref[2]} does not match "
                                f"max-flow {res.value}")
        return (repr(res), "error", str(exc))
    assert (cut.source_side, cut.cut_edge_ids, cut.value) == ref
    return (repr(res), repr(cut))


def _loop_outcome(g, s, t, directed, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(maxflow, "_np", None)
        mp.setattr(flow_utils, "_np", None)
        return _outcome(g, s, t, directed)


def _no_fallback(monkeypatch):
    """Fail if the assignment leaves the int64 gather."""
    def refuse(_):
        raise AssertionError("assignment fell back to the loop")
    monkeypatch.setattr(maxflow, "_as_scalars", refuse)


@needs_numpy
@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("name", sorted(_instances()))
def test_integer_capacities_array_path_equals_loop(name, directed,
                                                   monkeypatch):
    g = _instances()[name]
    for s, t in _pairs(g, 4, seed=len(name)):
        loop = _loop_outcome(g, s, t, directed, monkeypatch)
        with monkeypatch.context() as mp:
            _no_fallback(mp)
            assert _outcome(g, s, t, directed) == loop


@needs_numpy
@pytest.mark.parametrize("name, directed", [("grid", True), ("tri", False)])
def test_assignment_loop_beyond_int64_bound(name, directed, monkeypatch):
    """With ``INT64_BOUND`` at 0 no distance fits the int64 gather, so
    the assignment converts with ``_as_scalars`` and takes the per-edge
    loop (the path of distances at or above 2^62); its flow dict equals
    the gather's, values and types alike."""
    g = _instances()[name]
    real = maxflow._as_scalars
    for s, t in _pairs(g, 3, seed=9):
        with monkeypatch.context() as mp:
            _no_fallback(mp)
            gathered = PlanarMaxFlow(g, directed=directed,
                                     backend="engine").solve(s, t).flow
        ran = []
        with monkeypatch.context() as mp:
            mp.setattr(maxflow, "INT64_BOUND", 0)
            mp.setattr(maxflow, "_as_scalars",
                       lambda a: ran.append(len(a)) or real(a))
            looped = PlanarMaxFlow(g, directed=directed,
                                   backend="engine").solve(s, t).flow
        assert ran
        assert [(e, x, type(x)) for e, x in sorted(looped.items())] \
            == [(e, x, type(x)) for e, x in sorted(gathered.items())]


def _fractional_instance():
    """Capacities ``c + 0.25·(eid mod 3)``: the trivial-cut bound of
    the undirected pair (23, 11) is 24.5, and networkx gives 24.5 for
    the directed pair (0, 24)."""
    g = randomize_weights(grid(5, 5), seed=5, directed_capacities=True)
    return g.copy(capacities=[c + 0.25 * (e % 3)
                              for e, c in enumerate(g.capacities)])


@pytest.mark.parametrize("directed, s, t", [(False, 23, 11),
                                            (True, 0, 24)])
def test_fractional_capacities_rejected(directed, s, t, monkeypatch):
    """A fractional capacity is refused by both backends and by the
    loop path, naming the first such edge; the search over integer λ
    would return the floor or never end."""
    g = _fractional_instance()

    def refused(backend):
        with pytest.raises(InfeasibleFlowError,
                           match="edge 1: capacity 18.25 is not integral"):
            PlanarMaxFlow(g, directed=directed, backend=backend).solve(s, t)

    refused("legacy")
    refused("engine")
    with monkeypatch.context() as mp:
        mp.setattr(maxflow, "_np", None)
        mp.setattr(flow_utils, "_np", None)
        refused("engine")


@needs_numpy
def test_precision_edge_raises_the_same_error(monkeypatch):
    """Capacities c·2^52 + 1 round in the float64 probes; both paths
    reject the resulting flow with the same message."""
    g = randomize_weights(grid(4, 4), seed=3, directed_capacities=True)
    g = g.copy(capacities=[c * 2 ** 52 + 1 for c in g.capacities])
    loop = _loop_outcome(g, 0, 15, True, monkeypatch)
    assert loop[0] == "error" and "outside" in loop[1]
    ran = []
    real = flow_utils._int64
    monkeypatch.setattr(flow_utils, "_int64",
                        lambda v, lim: ran.append(real(v, lim)) or ran[-1])
    assert _outcome(g, 0, 15, True) == loop
    assert len(ran) == 2 and all(a is not None for a in ran)


# ----------------------------------------------------------------------
# validate_flow: the int64 core against the loop
# ----------------------------------------------------------------------
def _message(monkeypatch, *args, **kwargs):
    """(int64-core message, loop message); the core must have run."""
    ran = []
    real = flow_utils._int64

    def spy(values, limit):
        a = real(values, limit)
        ran.append(a is not None)
        return a

    out = []
    with monkeypatch.context() as mp:
        mp.setattr(flow_utils, "_int64", spy)
        with pytest.raises(InfeasibleFlowError) as core:
            validate_flow(*args, **kwargs)
    assert ran == [True, True]
    out.append(str(core.value))
    with monkeypatch.context() as mp:
        mp.setattr(flow_utils, "_np", None)
        with pytest.raises(InfeasibleFlowError) as loop:
            validate_flow(*args, **kwargs)
    out.append(str(loop.value))
    return out


@pytest.fixture
def solved():
    g = randomize_weights(grid(4, 4), seed=0, directed_capacities=True)
    res = PlanarMaxFlow(g, backend="engine").solve(0, 15)
    assert validate_flow(g, 0, 15, res.flow, res.value)
    return g, res


def _slack_edge(g, flow, lo, hi, avoid=()):
    """First edge with lo <= flow and flow + 1 <= capacity - hi whose
    ends avoid ``avoid``."""
    for eid, (u, v) in enumerate(g.edges):
        if (flow[eid] >= lo and flow[eid] + 1 <= g.capacities[eid] - hi
                and u not in avoid and v not in avoid):
            return eid
    raise AssertionError("no such edge")


@needs_numpy
def test_negative_flow(solved, monkeypatch):
    g, res = solved
    flow = dict(res.flow)
    eid = _slack_edge(g, flow, 0, 0)
    flow[eid] = -1
    flow[eid + 1] = -2
    core, loop = _message(monkeypatch, g, 0, 15, flow, res.value)
    assert core == loop == \
        f"edge {eid}: flow -1 outside [0, {g.capacities[eid]}]"


@needs_numpy
def test_over_capacity(solved, monkeypatch):
    g, res = solved
    flow = dict(res.flow)
    flow[7] = g.capacities[7] + 1
    flow[9] = -5
    core, loop = _message(monkeypatch, g, 0, 15, flow, res.value)
    assert core == loop == \
        f"edge 7: flow {g.capacities[7] + 1} outside [0, {g.capacities[7]}]"


@needs_numpy
def test_undirected_magnitude_over_capacity(solved, monkeypatch):
    g, res = solved
    flow = dict(res.flow)
    flow[5] = -(g.capacities[5] + 1)
    core, loop = _message(monkeypatch, g, 0, 15, flow, res.value,
                          directed=False)
    assert core == loop == (f"edge 5: |flow| {flow[5]} exceeds capacity "
                            f"{g.capacities[5]}")


@needs_numpy
def test_conservation_broken_at_two_vertices(solved, monkeypatch):
    g, res = solved
    flow = dict(res.flow)
    eid = _slack_edge(g, flow, 0, 0, avoid=(0, 15))
    flow[eid] += 1
    u, v = g.edges[eid]
    first = min(u, v)
    core, loop = _message(monkeypatch, g, 0, 15, flow, res.value)
    net = 1 if first == v else -1
    assert core == loop == \
        f"conservation violated at vertex {first}: net {net}"


@needs_numpy
def test_source_imbalance(solved, monkeypatch):
    g, res = solved
    core, loop = _message(monkeypatch, g, 0, 15, res.flow, res.value + 1)
    assert core == loop == (f"source imbalance {-res.value} != -value "
                            f"{-res.value - 1}")


def test_sink_imbalance_needs_a_float_flow():
    """Nets sum to zero, so on exact integers conservation and the
    source check leave net(t) = value: the sink check fires only on
    float flows whose per-vertex slack adds up past ``tol`` (the loop,
    as before)."""
    g = grid(1, 4)
    g = g.copy(capacities=[9] * g.m)
    flow = {0: 5, 1: 5 + 0.9e-6, 2: 5 + 1.8e-6}
    with pytest.raises(InfeasibleFlowError,
                       match=r"^sink imbalance 5\.0000018\d* != value 5$"):
        validate_flow(g, 0, 3, flow, 5)


@needs_numpy
def test_int_core_compares_above_2_53_exactly(monkeypatch):
    c = 2 ** 55 + 1
    g = grid(1, 3)
    g = g.copy(capacities=[c] * g.m)
    assert validate_flow(g, 0, 2, {0: c, 1: c}, c)
    core, loop = _message(monkeypatch, g, 0, 2, {0: c + 1, 1: c + 1},
                          c + 1)
    assert core == loop == f"edge 0: flow {c + 1} outside [0, {c}]"
    core, loop = _message(monkeypatch, g, 0, 2, {0: c, 1: c - 1}, c)
    assert core == loop == "conservation violated at vertex 1: net 1"


def test_float_flow_keeps_the_loop(monkeypatch):
    g = grid(1, 2)
    g = g.copy(capacities=[5] * g.m)
    calls = []
    monkeypatch.setattr(flow_utils, "compile_graph",
                        lambda graph: calls.append(graph))
    assert validate_flow(g, 0, 1, {0: 5 + 1e-9}, 5)
    assert calls == []


# ----------------------------------------------------------------------
# path P
# ----------------------------------------------------------------------
def _bfs_path(graph, s, t):
    """P read off :meth:`PlanarGraph.bfs`'s parent darts."""
    dist, parent = graph.bfs(s)
    if dist[t] == -1:
        raise InfeasibleFlowError(f"no undirected path {s} -> {t}")
    darts = []
    v = t
    while v != s:
        darts.append(parent[v])
        v = graph.tail(parent[v])
    return darts[::-1]


@pytest.mark.parametrize("g", [
    grid(5, 5),
    random_planar(18, seed=4),
    bidirect(randomize_weights(grid(3, 3), seed=1)),
    _parallel_graph(),
], ids=["grid", "tri", "antiparallel", "parallel"])
def test_compiled_path_equals_bfs_path(g):
    compiled = compile_graph(g)
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                assert compiled.st_path_darts(s, t) == \
                    undirected_st_path_darts(g, s, t) == _bfs_path(g, s, t)


def test_compiled_path_reports_disconnection():
    g = PlanarGraph(3, [(0, 1)], [[0], [1], []])
    with pytest.raises(InfeasibleFlowError,
                       match="^no undirected path 0 -> 2$"):
        undirected_st_path_darts(g, 0, 2)
    with pytest.raises(InfeasibleFlowError,
                       match="^no undirected path 0 -> 2$"):
        _bfs_path(g, 0, 2)
