"""The engine girth after a weight write (DESIGN.md §7, §8).

One cycle oracle serves every weight version of a topology: a write
rewrites only the written edges' arcs, and the sweep is bounded from
the start by the previous girth cycle re-weighted.  The served
``GirthQuery`` result after every write must equal a cold engine
``weighted_girth`` on a fresh copy (its own topology token, hence its
own cold oracle): the value with its Python type, the cycle and the
dual side.  The write sequences mix raises, lowers, zeros, writes on
the last girth cycle, all-tied weights, non-integral floats a few ulps
apart and int -> equal float writes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro._artifacts import shared_cache, topo_token
from repro.core.girth import _warm_bound, weighted_girth
from repro.planar.generators import grid, random_planar, randomize_weights
from repro.planar.graph import PlanarGraph
from repro.service import DistanceQuery, GirthQuery, GraphCatalog

FAMILIES = {
    "grid": lambda: randomize_weights(grid(6, 7), seed=11),
    "triangulation": lambda: randomize_weights(random_planar(40, seed=3),
                                               seed=3),
}

#: write kinds drawn by the sequences; each maps (rng, graph, last
#: cycle) to a list of (edge id, new weight) pairs
KINDS = ("raise", "lower", "zero", "on_cycle", "tie", "near_tie",
         "int_to_float")


def _cold(g):
    """A cold engine girth on a fresh copy, its oracle freed after."""
    fresh = g.copy()
    try:
        return weighted_girth(fresh, backend="engine")
    finally:
        topo = topo_token(fresh)
        shared_cache().invalidate(lambda k: len(k) > 1 and k[1] == topo)


def _key(res):
    return (res.value, type(res.value), res.cycle_edge_ids,
            res.cut_side_faces)


def _write(kind, rng, g, cycle):
    w = g.weights
    eid = rng.randrange(g.m)
    if kind == "raise":
        return [(eid, w[eid] + rng.randint(1, 9))]
    if kind == "lower":
        return [(eid, max(0, w[eid] - rng.randint(1, 9)))]
    if kind == "zero":
        return [(eid, 0)]
    if kind == "on_cycle":
        e = rng.choice(cycle)
        return [(e, max(0, w[e] + rng.choice((-3, -1, 1, 3))))]
    if kind == "tie":
        # every weight equal: every face cycle of one length ties
        value = rng.choice((1, 2, 1.5))
        return [(e, value) for e in range(g.m)]
    if kind == "near_tie":
        # non-integral floats a few ulps from each other, on the last
        # cycle and off it, so float sums round in the sweep's order
        base = rng.choice((0.1, 0.3, 1.7))
        edges = (rng.sample(range(g.m), 6)
                 + rng.sample(cycle, min(2, len(cycle))))
        return [(e, base + rng.randrange(4) * 2e-16) for e in edges]
    # int -> equal float: the value is unchanged, the number type is not
    ints = [e for e in range(g.m) if type(w[e]) is int]
    e = rng.choice(ints) if ints else eid
    return [(e, float(w[e]))]


def _replay(family, kinds):
    """Serve a girth after every write of ``kinds``; each must equal a
    cold engine girth."""
    cat = GraphCatalog()
    g = FAMILIES[family]()
    cat.register("g", g)
    rng = random.Random(len(kinds) * 31 + len(family))
    try:
        res = cat.serve(GirthQuery("g")).result
        assert _key(res) == _key(_cold(g))
        for kind in kinds:
            edges = _write(kind, rng, g, res.cycle_edge_ids)
            if len(edges) == g.m:
                cat.set_weights("g", weights=[v for _e, v in edges])
            else:
                cat.mutate_weights("g", dict(edges))
            res = cat.serve(GirthQuery("g")).result
            assert _key(res) == _key(_cold(g)), kind
    finally:
        cat.unregister("g")


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_served_girth_equals_cold_after_every_write(family, seed):
    rng = random.Random(seed)
    # every kind at least twice, the rest drawn
    kinds = list(KINDS) * 2 + [rng.choice(KINDS) for _ in range(16)]
    rng.shuffle(kinds)
    _replay(family, kinds)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
def test_served_girth_equals_cold_property(family, kinds):
    _replay(family, kinds)


def test_direct_in_place_writes_match_cold():
    """The oracle syncs on every use, not only through the catalog:
    in-place writes between two ``weighted_girth`` calls on the same
    graph are seen, including an int -> equal float write."""
    g = FAMILIES["grid"]()
    first = weighted_girth(g, backend="engine")
    for e in first.cycle_edge_ids:
        g.weights[e] = float(g.weights[e])
    warm = weighted_girth(g, backend="engine")
    assert type(warm.value) is float
    assert _key(warm) == _key(_cold(g))
    g.weights[first.cycle_edge_ids[0]] += 50
    assert _key(weighted_girth(g, backend="engine")) == _key(_cold(g))


def _ring(perm, weights):
    """The cycle 0 -> 1 -> ... -> k-1 -> 0 whose i-th edge has id
    ``perm[i]``: the sweep sums the cycle in walk order, not in edge-id
    order, so float sums differ between the two in the last bits."""
    k = len(perm)
    edges = [None] * k
    for i in range(k):
        edges[perm[i]] = (i, (i + 1) % k)
    rotations = [[2 * perm[i], 2 * perm[i - 1] + 1] for i in range(k)]
    return PlanarGraph(k, edges, rotations, weights=weights)


def test_float_slack_covers_the_sweep_summation_order():
    """On rings with shuffled edge ids and non-integral float weights
    the walk-order sum of the one cycle often exceeds its edge-id-order
    sum by an ulp or more; the warm bound's slack must keep the cycle
    below the bound after a write, as in a cold sweep."""
    rng = random.Random(7)
    values = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.1, 3.3, 1e-3)
    for _ in range(300):
        k = rng.randint(4, 9)
        perm = rng.sample(range(k), k)
        g = _ring(perm, [rng.choice(values) for _ in range(k)])
        weighted_girth(g, backend="engine")
        g.weights[rng.randrange(k)] = rng.choice(values)
        assert _key(weighted_girth(g, backend="engine")) == _key(_cold(g))
        topo = topo_token(g)
        shared_cache().invalidate(
            lambda key: len(key) > 1 and key[1] == topo)


def test_warm_bound_is_just_above_the_reweighted_cycle():
    assert _warm_bound([3, 4, 5], None) == float("inf")
    assert _warm_bound([3, 4, 5], [0, 2]) == 9
    assert _warm_bound([0, 0], [0, 1]) == 1
    assert _warm_bound([0.0, 0.0], [0, 1]) > 0.0
    weights = [0.1, 0.2, 0.3]
    bound = _warm_bound(weights, [0, 1, 2])
    # above the sum in every order
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        assert sum(weights[e] for e in order) < bound


def test_one_cycle_oracle_per_topology():
    """Writes sync the one oracle instead of leaving a dead oracle per
    weight version in the shared cache; the topology's CSR and
    compiled labeling bags stay cached alongside it."""
    cat = GraphCatalog()
    g = randomize_weights(grid(8, 8), seed=5)
    cat.register("g", g)
    topo = topo_token(g)
    rng = random.Random(20)
    try:
        for _ in range(20):
            eid = rng.randrange(g.m)
            cat.mutate_weights("g", {eid: g.weights[eid] + 5})
            cat.serve(DistanceQuery("g", 0, g.num_faces() - 1))
            cat.serve(GirthQuery("g"))
        mine = [k for k in shared_cache().keys()
                if len(k) > 1 and k[1] == topo]
        assert [k for k in mine if k[0] == "cycle-oracle"] \
            == [("cycle-oracle", topo)]
        assert ("csr", topo) in mine
        assert any(k[0] == "labels-bags" for k in mine)
    finally:
        cat.unregister("g")
