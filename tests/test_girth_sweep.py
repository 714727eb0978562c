"""The engine girth sweep: kept lower bounds and the small-side flood
(DESIGN.md §7).

* The served girth after every write — a sweep that skips sources by
  ``PrimalCycleOracle.lb`` and starts from the last girth cycle — must
  equal a cold sweep on a fresh oracle that runs every source with no
  bound at all: value and type, cycle, and dual side.
* The skipping is pinned by count, not timing: after a raise-only
  write the next girth runs a few two-best Dijkstras; after a lowering
  write it runs exactly as many as the static bounds allow.
* ``cycle_side_faces`` floods both sides of one cycle edge and stops
  when either runs out; it must return what a union-find over every
  non-cycle edge returns, and refuse what that refuses.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregation.dual_sim import DualMAHost
from repro.core.girth import _warm_bound, weighted_girth
from repro.engine.cycles import (
    PrimalCycleOracle,
    cycle_side_faces,
    min_dart_simple_cycle,
)
from repro.errors import SimulationError
from repro.planar.dual import cut_edges_of_dual_cut, is_simple_cycle
from repro.planar.generators import grid, random_planar, randomize_weights
from repro.planar.graph import PlanarGraph
from repro.service import GirthQuery, GraphCatalog


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def _uf_side(graph, cycle_edge_ids):
    """The dual side of ``cycle_edge_ids`` by union-find over every
    non-cycle edge: the block without face 0, or SimulationError unless
    there are exactly two blocks."""
    cyc = set(cycle_edge_ids)
    nf = graph.num_faces()
    parent = list(range(nf))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in range(graph.m):
        if eid not in cyc:
            a = find(graph.face_of[2 * eid])
            b = find(graph.face_of[2 * eid + 1])
            parent[a] = b
    blocks = {find(f) for f in range(nf)}
    if len(blocks) != 2:
        raise SimulationError(f"{len(blocks)} blocks")
    r0 = find(0)
    return [f for f in range(nf) if find(f) != r0]


def _cold_unbounded(g):
    """A fresh oracle, every source run, no seed and no bounds."""
    value, darts = min_dart_simple_cycle(PrimalCycleOracle(g), range(g.n))
    cycle = sorted({d >> 1 for d in darts})
    return (value, type(value), cycle, _uf_side(g, cycle))


def _key(res):
    return (res.value, type(res.value), res.cycle_edge_ids,
            res.cut_side_faces)


def with_loops_and_parallels(base, parallels, loops):
    """``base`` plus a parallel copy of each ``(edge id, weight)`` in
    ``parallels`` (the two bound a 2-gon face) and a self-loop at each
    ``(vertex, weight)`` in ``loops`` (bounding a 1-gon face)."""
    edges = list(base.edges)
    rot = [list(r) for r in base.rotations]
    w = list(base.weights)
    for e, wt in parallels:
        u, v = edges[e]
        new = len(edges)
        edges.append((u, v))
        w.append(wt)
        rot[u].insert(rot[u].index(2 * e) + 1, 2 * new)
        rot[v].insert(rot[v].index(2 * e + 1), 2 * new + 1)
    for v, wt in loops:
        new = len(edges)
        edges.append((v, v))
        w.append(wt)
        rot[v][0:0] = [2 * new + 1, 2 * new]
    g = PlanarGraph(base.n, edges, rot, weights=w)
    g.check_euler()
    return g


FAMILIES = {
    "grid": lambda: randomize_weights(grid(6, 7), seed=11),
    "triangulation": lambda: randomize_weights(random_planar(40, seed=3),
                                               seed=3),
    "loops_parallels": lambda: with_loops_and_parallels(
        randomize_weights(grid(5, 5), seed=4),
        parallels=[(0, 6), (9, 2), (17, 11)],
        loops=[(6, 14), (12, 7), (20, 30)]),
}


# ----------------------------------------------------------------------
# warm bounded sweep == cold unbounded sweep
# ----------------------------------------------------------------------
#: write kinds; each maps (rng, graph, last cycle) to a list of
#: (edge id, new weight) writes, applied one write per list element
#: so that a "raise_run" is several raise-only writes in a row
KINDS = ("raise_run", "lower", "on_cycle_raise", "on_cycle_lower", "zero",
         "tie", "int_to_float", "ulp_raise", "float_raise")


def _writes(kind, rng, g, cycle):
    w = g.weights
    eid = rng.randrange(g.m)
    if kind == "raise_run":
        return [{e: w[e] + rng.randint(1, 9)}
                for e in rng.sample(range(g.m), 3)]
    if kind == "lower":
        return [{eid: max(0, w[eid] - rng.randint(1, 9))}]
    if kind == "on_cycle_raise":
        e = rng.choice(cycle)
        return [{e: w[e] + rng.choice((1, 2, 5))}]
    if kind == "on_cycle_lower":
        e = rng.choice(cycle)
        return [{e: max(0, w[e] - rng.choice((1, 2, 5)))}]
    if kind == "zero":
        return [{eid: 0}]
    if kind == "tie":
        return [dict.fromkeys(range(g.m), rng.choice((1, 2, 1.5)))]
    if kind == "int_to_float":
        # the same value as a float: a type change resets the bounds
        return [{eid: float(w[eid])}]
    if kind == "ulp_raise":
        # the smallest float raise, on the last cycle and off it
        edges = {rng.choice(cycle), eid}
        return [{e: math.nextafter(float(w[e]), math.inf) for e in edges}]
    # a non-integral float raise (an int edge becomes a float one)
    return [{eid: w[eid] + rng.choice((0.1, 0.25, 1e-9))}]


def _replay(family, kinds, seed):
    cat = GraphCatalog()
    g = FAMILIES[family]()
    cat.register("g", g)
    rng = random.Random(seed)
    try:
        res = cat.serve(GirthQuery("g")).result
        assert _key(res) == _cold_unbounded(g)
        for kind in kinds:
            for edges in _writes(kind, rng, g, res.cycle_edge_ids):
                cat.mutate_weights("g", edges)
                res = cat.serve(GirthQuery("g")).result
                assert _key(res) == _cold_unbounded(g), kind
    finally:
        cat.unregister("g")


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_warm_bounded_sweep_equals_cold_unbounded(family, seed):
    rng = random.Random(seed)
    kinds = list(KINDS) * 2 + [rng.choice(KINDS) for _ in range(12)]
    rng.shuffle(kinds)
    _replay(family, kinds, seed)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=10),
       seed=st.integers(0, 2 ** 16))
def test_warm_bounded_sweep_equals_cold_unbounded_property(family, kinds,
                                                           seed):
    _replay(family, kinds, seed)


def test_big_ints_get_the_static_bound_zero():
    """Above 2^53 an int sum is exact while a walk that mixes in a
    float rounds it, so such a vertex is never skipped by its static
    bound; the sweep still equals a cold unbounded one."""
    g = randomize_weights(grid(3, 3), seed=1)
    for d in g.rotations[0]:
        g.weights[d >> 1] = 2 ** 53 + 1
    g.weights[g.m - 1] = 0.5
    oracle = PrimalCycleOracle(g)
    assert oracle.static[0] == 0
    centre = sorted(g.weights[d >> 1] for d in g.rotations[4])
    assert oracle.static[4] == centre[0] + centre[1]
    assert _key(weighted_girth(g, backend="engine")) == _cold_unbounded(g)


# ----------------------------------------------------------------------
# the skipping, by count
# ----------------------------------------------------------------------
def _runs(g):
    return DualMAHost(g, backend="engine").engine_cycle_oracle() \
        .two_best.runs


def test_raise_only_write_runs_few_sources_and_a_lower_resets():
    g = randomize_weights(grid(8, 8), seed=4)
    res = weighted_girth(g, backend="engine")
    cold = _runs(g)
    rng = random.Random(0)
    for _ in range(4):
        e = rng.choice([e for e in range(g.m)
                        if e not in res.cycle_edge_ids])
        before = _runs(g)
        g.weights[e] += 3
        res = weighted_girth(g, backend="engine")
        assert _runs(g) - before <= 2
    assert cold >= 20

    # a lowering write falls back to the static bounds: as many runs as
    # a fresh oracle sweeping from the same warm bound
    e = next(e for e in range(g.m)
             if e not in res.cycle_edge_ids and g.weights[e] > 1)
    last = res.cycle_edge_ids
    before = _runs(g)
    g.weights[e] -= 1
    warm = weighted_girth(g, backend="engine")
    fresh = PrimalCycleOracle(g)
    best = min_dart_simple_cycle(fresh, range(g.n),
                                 best=(_warm_bound(g.weights, last), None),
                                 bounds=fresh.lb)
    assert _runs(g) - before == fresh.two_best.runs
    assert fresh.two_best.runs > 2
    assert sorted({d >> 1 for d in best[1]}) == warm.cycle_edge_ids


def test_bounds_never_exceed_the_source_values():
    """Every kept bound is at most what an unbounded run of its source
    computes, after a mix of writes."""
    g = FAMILIES["triangulation"]()
    rng = random.Random(5)
    for _ in range(12):
        weighted_girth(g, backend="engine")
        e = rng.randrange(g.m)
        if rng.random() < 0.7:
            g.weights[e] += rng.randint(1, 6)
        else:
            g.weights[e] = max(0, g.weights[e] - rng.randint(1, 6))
    weighted_girth(g, backend="engine")
    lb = DualMAHost(g, backend="engine").engine_cycle_oracle().lb
    fresh = PrimalCycleOracle(g)
    for v in range(g.n):
        cand = fresh.min_cycle_through(v)
        assert lb[v] <= (cand[0] if cand is not None else math.inf)


# ----------------------------------------------------------------------
# cycle_side_faces: the flood against the union-find reference
# ----------------------------------------------------------------------
def _random_bond(g, rng, start):
    """Edge ids of a random simple cycle: the dual cut of a random
    connected face set grown from ``start`` whose complement is
    connected too (a bond of G*), or None."""
    nf = g.num_faces()
    target = rng.randint(1, max(1, nf // 2))
    inside = {start}
    frontier = [start]
    while frontier and len(inside) < target:
        f = frontier.pop(rng.randrange(len(frontier)))
        for d in g.faces[f]:
            h = g.face_of[d ^ 1]
            if h not in inside and rng.random() < 0.7:
                inside.add(h)
                frontier.append(h)
    if len(inside) == nf:
        return None
    cycle = cut_edges_of_dual_cut(g, inside)
    if not is_simple_cycle(g, cycle):
        return None
    return cycle


SIDE_GRAPHS = [
    ("grid", randomize_weights(grid(5, 6), seed=1)),
    ("triangulation", randomize_weights(random_planar(50, seed=7), seed=7)),
    ("loops_parallels", FAMILIES["loops_parallels"]()),
]


@pytest.mark.parametrize("name,g", SIDE_GRAPHS, ids=[n for n, _ in SIDE_GRAPHS])
def test_flood_matches_union_find_on_random_cycles(name, g):
    rng = random.Random(name)
    seen_face0_small = 0
    checked = 0
    for trial in range(300):
        # every fourth cycle is grown from face 0, so face 0 often sits
        # on the small side and the complement is returned
        start = 0 if trial % 4 == 0 else rng.randrange(g.num_faces())
        cycle = _random_bond(g, rng, start)
        if cycle is None:
            continue
        rng.shuffle(cycle)  # the flood starts from cycle[0]
        want = _uf_side(g, cycle)
        assert cycle_side_faces(g, cycle) == want
        checked += 1
        if 2 * (g.num_faces() - len(want)) < g.num_faces():
            seen_face0_small += 1
    assert checked >= 50
    assert seen_face0_small >= 5


@pytest.mark.parametrize("name,g", SIDE_GRAPHS, ids=[n for n, _ in SIDE_GRAPHS])
def test_flood_refuses_edge_sets_that_do_not_separate(name, g):
    rng = random.Random(name)
    refused = 0
    for _ in range(200):
        cycle = _random_bond(g, rng, rng.randrange(g.num_faces()))
        if cycle is None or len(cycle) < 2:
            continue
        # a cycle minus one edge: the floods meet
        path = cycle[1:]
        with pytest.raises(SimulationError):
            _uf_side(g, path)
        with pytest.raises(SimulationError):
            cycle_side_faces(g, path)
        refused += 1
    assert refused >= 20
    with pytest.raises(SimulationError):
        cycle_side_faces(g, [])
    # one edge of a longer cycle, not a loop: the floods meet
    with pytest.raises(SimulationError):
        cycle_side_faces(g, [0])


def test_flood_refuses_two_disjoint_cycles():
    """Two face boundaries far apart cut the dual into three blocks: the
    flood finishes one face and finds edges of C not on its border."""
    g = randomize_weights(grid(5, 6), seed=1)
    small = [f for f in range(g.num_faces()) if len(g.faces[f]) == 4]
    a, b = small[0], small[-1]
    edges_a = {d >> 1 for d in g.faces[a]}
    edges_b = {d >> 1 for d in g.faces[b]}
    assert not edges_a & edges_b
    both = sorted(edges_a | edges_b)
    with pytest.raises(SimulationError):
        _uf_side(g, both)
    with pytest.raises(SimulationError):
        cycle_side_faces(g, both)


def test_flood_refuses_a_bridge():
    from repro.planar.generators import path

    g = path(4)
    with pytest.raises(SimulationError):
        cycle_side_faces(g, [1])


@pytest.mark.parametrize("backend", ["legacy", "engine"])
@pytest.mark.parametrize("seed", range(6))
def test_girth_side_faces_match_union_find(backend, seed):
    """Both girth backends report their side through the flood."""
    make = random_planar if seed % 2 else (lambda n, seed: grid(4, 5))
    g = randomize_weights(make(16, seed=seed), seed=seed)
    res = weighted_girth(g, backend=backend)
    assert res.cut_side_faces == _uf_side(g, res.cycle_edge_ids)
