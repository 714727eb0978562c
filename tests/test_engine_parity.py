"""Backend parity: the engine (array/CSR) backend must reproduce the
legacy (dict/labeling) backend bit-for-bit — flow values and
assignments, cut bisections and weights, dual distances and SSSP trees
— including the failure modes (infeasible flow, negative cycles).
DESIGN.md §6 documents why this is the engine's contract.
"""

import random

import pytest

from repro.bdd import build_bdd
from repro.core import (
    approx_max_st_flow,
    flow_value_networkx,
    max_st_flow,
    min_st_cut,
)
from repro.engine import FlowWorkspace, compile_graph
from repro.errors import InfeasibleFlowError, NegativeCycleError
from repro.labeling import DualDistanceLabeling, dual_sssp, dual_sssp_engine
from repro.planar import DualGraph
from repro.planar.generators import (
    cylinder,
    grid,
    random_planar,
    randomize_weights,
)


def _instances():
    return [
        ("grid", randomize_weights(grid(5, 7), seed=11,
                                   directed_capacities=True)),
        ("cylinder", randomize_weights(cylinder(4, 7), seed=12,
                                       directed_capacities=True)),
        ("delaunay", randomize_weights(random_planar(45, seed=13), seed=13,
                                       directed_capacities=True)),
        ("sparse-delaunay", randomize_weights(
            random_planar(40, seed=14, keep=0.8), seed=14,
            directed_capacities=True)),
    ]


@pytest.mark.parametrize("name,g", _instances())
def test_maxflow_parity(name, g):
    s, t = 0, g.n - 1
    a = max_st_flow(g, s, t, directed=True, backend="legacy")
    b = max_st_flow(g, s, t, directed=True, backend="engine")
    assert b.value == a.value == flow_value_networkx(g, s, t, directed=True)
    assert b.flow == a.flow
    assert b.probes == a.probes
    assert b.path_darts == a.path_darts


def test_maxflow_parity_undirected():
    g = randomize_weights(grid(5, 6), seed=21)
    s, t = 0, g.n - 1
    a = max_st_flow(g, s, t, directed=False, backend="legacy")
    b = max_st_flow(g, s, t, directed=False, backend="engine")
    assert b.value == a.value
    assert b.flow == a.flow


@pytest.mark.parametrize("name,g", _instances()[:2])
def test_mincut_parity(name, g):
    s, t = 0, g.n - 1
    a = min_st_cut(g, s, t, directed=True, backend="legacy")
    b = min_st_cut(g, s, t, directed=True, backend="engine")
    assert b.value == a.value
    assert b.source_side == a.source_side
    assert b.cut_edge_ids == a.cut_edge_ids
    assert b.flow == a.flow


def _mixed_lengths(g, seed):
    """Mixed-sign dual arc lengths that stay negative-cycle-free: the
    λ-residual profile of the *maximum* flow along a BFS path — exactly
    the shape of the last feasible Miller–Naor probe, with genuinely
    negative arcs."""
    from repro.core.flow_utils import undirected_st_path_darts
    from repro.core.maxflow import dart_capacities

    lam = max_st_flow(g, 0, g.n - 1, directed=True,
                      backend="engine").value
    cap = dart_capacities(g, directed=True)
    path = set(undirected_st_path_darts(g, 0, g.n - 1))
    lengths = {}
    for d in g.darts():
        ln = cap[d]
        if d in path:
            ln -= lam
        if (d ^ 1) in path:
            ln += lam
        lengths[d] = ln
    return lengths


def test_dual_sssp_parity():
    g = randomize_weights(random_planar(45, seed=3), seed=3,
                          directed_capacities=True)
    lengths = _mixed_lengths(g, seed=3)
    lab = DualDistanceLabeling(build_bdd(g), lengths)
    a = dual_sssp(lab, source=0)
    b = dual_sssp_engine(g, lengths, source=0)
    assert a.dist == b.dist
    assert a.tree_darts == b.tree_darts
    assert a.parent_dart == b.parent_dart


def test_label_distances_match_engine():
    g = randomize_weights(grid(4, 6), seed=5, directed_capacities=True)
    lengths = _mixed_lengths(g, seed=5)
    lab = DualDistanceLabeling(build_bdd(g), lengths)
    dg = DualGraph(g)
    for src in (0, 2):
        dist = dg.bellman_ford(src, lengths, backend="engine")
        for f in range(dg.num_nodes):
            assert lab.distance(src, f) == dist[f]


def test_dual_bellman_ford_backend_parity():
    g = randomize_weights(random_planar(40, seed=9), seed=9)
    dg = DualGraph(g)
    rng = random.Random(9)
    lengths = {d: (g.weights[d >> 1] if d % 2 == 0 else rng.randint(0, 3))
               for d in g.darts()}
    for src in (0, 1, 5):
        assert dg.bellman_ford(src, lengths) == \
            dg.bellman_ford(src, lengths, backend="engine")


def test_negative_cycle_parity():
    g = randomize_weights(grid(4, 5), seed=2)
    dg = DualGraph(g)
    lengths = {d: -1 for d in g.darts()}
    with pytest.raises(NegativeCycleError):
        dg.bellman_ford(0, lengths)
    with pytest.raises(NegativeCycleError):
        dg.bellman_ford(0, lengths, backend="engine")


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_infeasible_modes(backend):
    g = randomize_weights(grid(4, 5), seed=1, directed_capacities=True)
    with pytest.raises(InfeasibleFlowError):
        max_st_flow(g, 0, 0, backend=backend)
    caps = list(g.capacities)
    caps[3] = -5
    bad = g.copy(capacities=caps)
    with pytest.raises(InfeasibleFlowError):
        max_st_flow(bad, 0, bad.n - 1, backend=backend)


def test_approx_flow_engine_exact():
    g = randomize_weights(grid(5, 7), seed=4)
    s, t = 0, g.n - 1
    ref = flow_value_networkx(g, s, t, directed=False)
    res = approx_max_st_flow(g, s, t, eps=0.25, seed=1, backend="engine")
    # exact potentials: the "approximation" collapses to the optimum,
    # and the dual shortest path dualizes to a minimum cut
    assert res.value == pytest.approx(ref)
    assert res.cut_capacity == pytest.approx(ref)
    assert res.ma_rounds == 0
    legacy = approx_max_st_flow(g, s, t, eps=0.25, seed=1, backend="legacy")
    assert legacy.value <= res.value + 1e-9
    assert legacy.cut_capacity >= res.cut_capacity - 1e-9


def test_workspace_reuse_and_fallback_kernels():
    """The vectorized kernels and the pure-Python SPFA fallbacks agree,
    and a workspace stays correct across repeated reloads."""
    g = randomize_weights(random_planar(35, seed=6), seed=6,
                          directed_capacities=True)
    ws = FlowWorkspace(compile_graph(g))
    lengths = _mixed_lengths(g, seed=6)
    ws.load_lengths(lengths)
    for src in (0, 3):
        if ws._vec is not None:
            vec = [x for x in ws.sssp(src)]
            spfa = [x for x in ws._spfa_sssp(src)]
            assert vec == spfa
    # probe kernels agree on both signs of the answer
    ws.load_lengths(lengths)
    assert ws.has_negative_cycle() is False
    if ws._vec is not None:
        assert ws._spfa_probe() is False
    neg = {d: -1 for d in g.darts()}
    ws.load_lengths(neg)
    assert ws.has_negative_cycle() is True
    if ws._vec is not None:
        assert ws._spfa_probe() is True
    # reload restores the feasible profile
    ws.load_lengths(lengths)
    assert ws.has_negative_cycle() is False


def _probe_kernels_agree(g, s, t):
    """The vector probe equals the SPFA probe at λ = 0, v−1, v, v+1 and
    the trivial-cut bound, v the networkx max-flow value; λ is feasible
    exactly up to v."""
    from repro.core.flow_utils import undirected_st_path_darts
    from repro.core.maxflow import PlanarMaxFlow

    solver = PlanarMaxFlow(g, directed=True, backend="engine")
    ws = solver.workspace
    if ws._vec is None:
        pytest.skip("the vector probe needs numpy")
    v = flow_value_networkx(g, s, t, directed=True)
    assert v >= 1
    ws.bind_flow_problem(solver.cap, undirected_st_path_darts(g, s, t))
    for lam in (0, v - 1, v, v + 1, solver.trivial_cut_bound(s, t)):
        ws.set_lambda(lam)
        assert ws.has_negative_cycle() is (lam > v)
        assert ws._spfa_probe() is (lam > v)


@pytest.mark.parametrize("name,g", _instances()[:3])
def test_vector_probe_matches_spfa_probe(name, g):
    _probe_kernels_agree(g, 0, g.n - 1)


def test_vector_probe_matches_spfa_probe_with_zero_length_cycles():
    """Zero-capacity edges make zero-length dual 2-cycles (both darts
    0), and a vertex with only such edges a zero-length face cycle: the
    certificate must not take them for negative ones."""
    g = randomize_weights(grid(6, 6), seed=31, directed_capacities=True)
    caps = list(g.capacities)
    for eid in range(0, g.m, 3):
        caps[eid] = 0
    for d in g.out_darts(14):
        caps[d >> 1] = 0
    _probe_kernels_agree(g.copy(capacities=caps), 0, g.n - 1)


def test_unknown_backend_rejected_everywhere():
    g = randomize_weights(grid(3, 4), seed=1, directed_capacities=True)
    with pytest.raises(ValueError):
        max_st_flow(g, 0, g.n - 1, backend="engnie")
    with pytest.raises(ValueError):
        min_st_cut(g, 0, g.n - 1, backend="fast")
    with pytest.raises(ValueError):
        approx_max_st_flow(g, 0, g.n - 1, backend="Engine")
    with pytest.raises(ValueError):
        DualGraph(g).bellman_ford(0, {d: 1 for d in g.darts()},
                                  backend="numpy")


def test_engine_backend_leaves_ledger_unaudited():
    from repro.congest import RoundLedger

    g = randomize_weights(grid(4, 5), seed=8, directed_capacities=True)
    led = RoundLedger()
    max_st_flow(g, 0, g.n - 1, backend="engine", ledger=led)
    min_st_cut(g, 0, g.n - 1, backend="engine", ledger=led)
    approx_max_st_flow(randomize_weights(grid(4, 5), seed=8), 0, 19,
                       backend="engine", ledger=led)
    assert led.total() == 0


def test_compile_graph_cached():
    g = grid(4, 4)
    assert compile_graph(g) is compile_graph(g)
    c = compile_graph(g)
    assert c.num_faces == g.num_faces()
    # dual CSR covers every dart exactly once
    assert sorted(c.dual_arc_dart) == list(range(c.num_darts))
    for d in range(c.num_darts):
        s = c.slot_of_dart[d]
        assert c.dual_arc_dart[s] == d
        assert c.dual_arc_head[s] == c.face_right[d]
    # primal CSR mirrors the rotation system
    assert c.prim_darts == [d for rot in g.rotations for d in rot]
    assert c.prim_indptr[-1] == c.num_darts
