"""Backend parity for the girth / global-min-cut theorem family:
the engine (array Dijkstra + dart-simple cycle) backend must reproduce
the legacy (minor-aggregation / labeling) backend — values, witness
cycles, canonical cut sides, bisections — including the failure modes
and the numpy-free fallback.  DESIGN.md §7 documents the contract.

Global min-cut parity is *structural*: the engine kernel replicates the
legacy two-best Dijkstra heap tuples, so entire result dataclasses are
compared.  Girth parity is compared field by field — both backends
certify a minimum-weight simple cycle and normalize the dual side
through :func:`repro.engine.cycles.cycle_side_faces`; the instances
below have unique minima, so the witnesses coincide too.
"""

import os
import random
import subprocess
import sys

import pytest

import repro.core.girth as girth_module
from repro.baselines.centralized import (
    centralized_directed_global_mincut,
    centralized_weighted_girth,
)
from repro.congest import RoundLedger
from repro.core import (
    directed_global_mincut,
    directed_weighted_girth,
    weighted_girth,
)
from repro.engine.cycles import (
    DartCycleOracle,
    cycle_side_faces,
    min_dart_simple_cycle,
    primal_cycle_arcs,
)
from repro.errors import SimulationError
from repro.planar.dual import cut_edges_of_dual_cut, is_simple_cycle
from repro.planar.generators import (
    bidirect,
    grid,
    path,
    random_planar,
    randomize_weights,
)


def _girth_instances():
    return [
        ("grid", randomize_weights(grid(6, 7), seed=31)),
        ("grid-wide-weights", randomize_weights(grid(5, 5), high=200,
                                                seed=32)),
        ("delaunay", randomize_weights(random_planar(45, seed=33),
                                       seed=33)),
        ("sparse-delaunay", randomize_weights(
            random_planar(40, seed=34, keep=0.8), seed=34)),
    ]


def _mincut_instances():
    return [
        ("bidirected-delaunay", bidirect(
            randomize_weights(random_planar(16, seed=41), seed=41),
            seed=41)),
        ("bidirected-grid", bidirect(
            randomize_weights(grid(4, 4), seed=42), seed=42)),
        ("sparse-digraph", randomize_weights(random_planar(18, seed=43),
                                             seed=43)),
    ]


# ----------------------------------------------------------------------
# weighted girth (Theorem 1.7)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,g", _girth_instances())
def test_girth_parity(name, g):
    a = weighted_girth(g, backend="legacy")
    b = weighted_girth(g, backend="engine")
    assert b.value == a.value == centralized_weighted_girth(g)
    assert b.cycle_edge_ids == a.cycle_edge_ids
    assert b.cut_side_faces == a.cut_side_faces
    assert is_simple_cycle(g, b.cycle_edge_ids)
    assert sum(g.weights[e] for e in b.cycle_edge_ids) == b.value


def test_girth_engine_cycle_cuts_the_dual():
    g = randomize_weights(grid(5, 6), seed=35)
    res = weighted_girth(g, backend="engine")
    recovered = cut_edges_of_dual_cut(g, res.cut_side_faces)
    assert sorted(recovered) == res.cycle_edge_ids
    assert 0 not in res.cut_side_faces  # canonical: face 0 stays outside


def test_girth_engine_unaudited_rounds():
    g = randomize_weights(grid(4, 5), seed=36)
    led = RoundLedger()
    res = weighted_girth(g, ledger=led, backend="engine")
    assert led.total() == 0
    assert res.ma_rounds == 0 and res.congest_rounds == 0


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_girth_forest_returns_none(backend):
    assert weighted_girth(path(7), backend=backend) is None


def test_girth_parallel_dual_edges():
    # 2x2 grid: the girth is the boundary 4-cycle; its dual cut bundles
    # all four parallel dual edges (Lemma 4.15 on the legacy path, the
    # one-cycle primal sweep on the engine path)
    g = randomize_weights(grid(2, 2), seed=37)
    a = weighted_girth(g)
    b = weighted_girth(g, backend="engine")
    assert a.value == b.value == sum(g.weights)
    assert a.cycle_edge_ids == b.cycle_edge_ids == [0, 1, 2, 3]
    assert a.cut_side_faces == b.cut_side_faces


#: non-integral float weights whose sums round differently by order
FLOAT_POOL = (0.1, 0.2, 0.3, 0.7, 1.1, 0.1 + 1e-12, None)  # None: random()


def _float_weighted(make, seed):
    g = make()
    rng = random.Random(seed)
    for e in range(g.m):
        w = rng.choice(FLOAT_POOL)
        g.weights[e] = rng.random() if w is None else w
    return g


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("make", [
    lambda seed: grid(4, 4),
    lambda seed: random_planar(16, seed=seed),
], ids=["grid4x4", "random_planar16"])
def test_legacy_girth_on_float_weights(make, seed):
    """The legacy girth compares its cycle's weight with the min-cut's
    bundled cut edges within float rounding (it used to require equal
    floats and raised on 11 of these 40 instances); the value is its
    cycle summed in edge-id order, and within the same rounding bound
    of the engine's (whose cycle may be another of a near-tie)."""
    g = _float_weighted(lambda: make(seed), seed)
    a = weighted_girth(g)
    b = weighted_girth(g, backend="engine")
    assert a.value == sum(g.weights[e] for e in a.cycle_edge_ids)
    slack = (len(a.cycle_edge_ids) + 1) * 2.0 ** -52
    assert abs(a.value - b.value) <= slack * a.value


def test_legacy_girth_cut_weight_mismatch_raises(monkeypatch):
    """A cut whose bundle weights differ from its cycle's beyond float
    rounding is a typed SimulationError, not an assert."""
    mincut = girth_module.minor_aggregate_mincut

    def skewed(nodes, edges, weights, **kw):
        res = mincut(nodes, edges, weights, **kw)
        weights[res.cut_edge_ids[0]] += 1e-9
        return res

    monkeypatch.setattr(girth_module, "minor_aggregate_mincut", skewed)
    g = _float_weighted(lambda: grid(4, 4), 0)
    with pytest.raises(SimulationError, match="bundled cut weight"):
        weighted_girth(g)


# ----------------------------------------------------------------------
# directed girth ([36] comparator)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_directed_girth_parity(seed):
    base = randomize_weights(random_planar(16 + seed, seed=seed),
                             seed=seed + 50)
    g = bidirect(base, seed=seed)
    a = directed_weighted_girth(g, leaf_size=12, backend="legacy")
    b = directed_weighted_girth(g, backend="engine")
    assert b.value == a.value
    assert b.witness_edge == a.witness_edge


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_directed_girth_dag_returns_none(backend):
    # a grid with all edges oriented rightward/downward has no cycle
    g = randomize_weights(grid(3, 4), seed=51)
    assert directed_weighted_girth(g, leaf_size=10,
                                   backend=backend) is None


# ----------------------------------------------------------------------
# directed global min-cut (Theorem 1.5)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,g", _mincut_instances())
def test_global_mincut_parity(name, g):
    a = directed_global_mincut(g, leaf_size=12, backend="legacy")
    b = directed_global_mincut(g, leaf_size=12, backend="engine")
    assert a == b  # full dataclass: value, side, cut edges, cycle darts
    assert a.value == centralized_directed_global_mincut(g)


def test_global_mincut_parity_across_leaf_sizes():
    """The recursion shape changes with leaf_size; parity must hold for
    every BDD the two backends share."""
    g = bidirect(randomize_weights(random_planar(15, seed=44), seed=44),
                 seed=44)
    for leaf_size in (6, 10, 20):
        a = directed_global_mincut(g, leaf_size=leaf_size)
        b = directed_global_mincut(g, leaf_size=leaf_size,
                                   backend="engine")
        assert a == b


def test_global_mincut_engine_unaudited_rounds():
    g = bidirect(randomize_weights(grid(3, 4), seed=45), seed=45)
    led = RoundLedger()
    directed_global_mincut(g, leaf_size=10, ledger=led, backend="engine")
    assert led.total() == 0


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_global_mincut_disconnected_fails(backend):
    from repro.errors import NotConnectedError
    from repro.planar import PlanarGraph

    g = PlanarGraph(4, [(0, 1), (2, 3)], [[0], [1], [2], [3]],
                    weights=[1, 1])
    with pytest.raises(NotConnectedError):
        directed_global_mincut(g, leaf_size=4, backend=backend)


# ----------------------------------------------------------------------
# backend validation + kernel internals
# ----------------------------------------------------------------------
def test_unknown_backend_rejected():
    g = randomize_weights(grid(3, 4), seed=46)
    with pytest.raises(ValueError):
        weighted_girth(g, backend="engnie")
    with pytest.raises(ValueError):
        directed_weighted_girth(g, backend="fast")
    with pytest.raises(ValueError):
        directed_global_mincut(bidirect(g, seed=0), backend="Engine")
    from repro.aggregation.dual_sim import DualMAHost

    with pytest.raises(ValueError):
        DualMAHost(g, backend="numpy")
    with pytest.raises(ValueError):
        DualMAHost(g).engine_cycle_oracle()


def test_cycle_oracle_matches_reference_kernel():
    """DartCycleOracle vs the legacy _min_cycle_through on the same dual
    arc set — per-candidate, without pruning."""
    from repro.core.global_mincut import _arc_index, _min_cycle_through
    from repro.bdd import build_bdd, build_all_dual_bags

    g = bidirect(randomize_weights(random_planar(14, seed=47), seed=47),
                 seed=47)
    lengths = {}
    for eid in range(g.m):
        lengths[2 * eid] = g.weights[eid]
        lengths[2 * eid + 1] = 0
    bdd = build_bdd(g, leaf_size=8)
    duals = build_all_dual_bags(bdd)
    oracle = DartCycleOracle(g.num_faces())
    from repro.planar.graph import rev

    for bag in bdd.bags:
        dual = duals[bag.bag_id]
        candidates = sorted(dual.nodes) if bag.is_leaf else sorted(dual.f_x)
        if not candidates:
            continue
        arcs = _arc_index(g, dual, lengths)
        oracle.load_arcs(
            [(d, g.face_of[d], g.face_of[rev(d)], lengths[d])
             for d in dual.arc_darts])
        for f in candidates:
            ref = _min_cycle_through(g, arcs, f, lengths)
            got = oracle.min_cycle_through(f)
            assert got == ref, (bag.bag_id, f)


def test_oracle_buffer_reuse_across_loads():
    """Reloading the oracle with a different arc set must not leak
    labels, adjacency or node order from the previous load."""
    g1 = randomize_weights(grid(4, 4), seed=48)
    g2 = randomize_weights(random_planar(20, seed=49), seed=49)
    n_ids = max(g1.n, g2.n)
    oracle = DartCycleOracle(n_ids)
    for g in (g1, g2, g1):
        oracle.load_arcs(primal_cycle_arcs(g))
        best = min_dart_simple_cycle(oracle, range(g.n))
        cycle = sorted({d >> 1 for d in best[1]})
        assert best[0] == centralized_weighted_girth(g)
        assert sum(g.weights[e] for e in cycle) == best[0]


def test_cycle_side_faces_canonical():
    g = randomize_weights(grid(4, 5), seed=52)
    res = weighted_girth(g, backend="engine")
    side = cycle_side_faces(g, res.cycle_edge_ids)
    assert side == res.cut_side_faces
    assert side == sorted(side)
    assert 0 not in side


# ----------------------------------------------------------------------
# numpy-free fallback
# ----------------------------------------------------------------------
def test_no_numpy_fallback_parity():
    """The whole girth/min-cut family — including the legacy tree
    packing, which used to hard-require numpy — runs without numpy and
    stays backend-parous (REPRO_ENGINE_NO_NUMPY is read at import time,
    hence the subprocess)."""
    code = (
        "from repro._compat import np\n"
        "assert np is None\n"
        "from repro.core import (weighted_girth, directed_weighted_girth,"
        " directed_global_mincut)\n"
        "from repro.planar.generators import bidirect, grid,"
        " randomize_weights\n"
        "g = randomize_weights(grid(4, 5), seed=3)\n"
        "a = weighted_girth(g); b = weighted_girth(g, backend='engine')\n"
        "assert (a.value, a.cycle_edge_ids, a.cut_side_faces) == \\\n"
        "    (b.value, b.cycle_edge_ids, b.cut_side_faces)\n"
        "gd = bidirect(randomize_weights(grid(3, 4), seed=1), seed=1)\n"
        "x = directed_global_mincut(gd, leaf_size=10)\n"
        "y = directed_global_mincut(gd, leaf_size=10, backend='engine')\n"
        "assert x == y\n"
        "p = directed_weighted_girth(gd, leaf_size=10)\n"
        "q = directed_weighted_girth(gd, backend='engine')\n"
        "assert (p.value, p.witness_edge) == (q.value, q.witness_edge)\n"
        "print('OK')\n"
    )
    env = dict(os.environ, REPRO_ENGINE_NO_NUMPY="1",
               PYTHONPATH="src" + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"
