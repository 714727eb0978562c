"""Weighted girth of undirected planar graphs in Õ(D) rounds
(Theorem 1.7).

Legacy pipeline, exactly as Section 4.3:

1. make the dual simple — deactivate self-loops and collapse parallel
   dual edges, summing their weights (Lemma 4.15, via the low
   out-degree orientation);
2. run the minor-aggregation exact min-cut on G* (Theorem 4.16
   substitute) through the dual simulation host (Theorem 4.14);
3. mark the cut edges (Lemma 4.17); by cycle-cut duality (Fact 3.1)
   they form a minimum-weight cycle of G.

``backend="engine"`` is the centralized fast path (DESIGN.md §7): by
the same duality, the minimum cut of G* *is* a minimum-weight simple
cycle of G, extracted directly as the minimum dart-simple cycle of the
compiled primal (one pruned two-best Dijkstra per vertex,
:mod:`repro.engine.cycles`) — no simulation host, no tree packing, no
round audit.  The sweep is bounded from the start by the previous girth
cycle of the same topology, re-weighted (:func:`_warm_bound`), and
skips every vertex whose kept lower bound reaches the running best.  Both
backends canonicalize ``cut_side_faces`` to the dual side not
containing face 0, so on instances with a unique minimum cycle the
results are bit-identical (``tests/test_engine_girth_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.aggregation.dual_sim import DualMAHost
from repro.aggregation.mincut_ma import minor_aggregate_mincut
from repro.aggregation.orientation import deactivate_parallel_edges
from repro.errors import NegativeWeightError, SimulationError
from repro.planar.dual import is_simple_cycle

BACKENDS = ("legacy", "engine")


@dataclass
class GirthResult:
    value: float
    #: primal edge ids of a minimum-weight cycle
    cycle_edge_ids: list
    #: dual-side faces of the corresponding cut (canonical: the side
    #: not containing face 0)
    cut_side_faces: list
    ma_rounds: int
    congest_rounds: int


def weighted_girth(graph, ledger=None, num_trees=None, backend="legacy"):
    """Minimum-weight cycle of an undirected weighted planar graph.

    Returns None when the graph is a forest (no cycle).  Raises
    :class:`~repro.errors.NegativeWeightError` naming the first negative
    weight, on a forest too, on both backends.  The round
    ledger is audited on the legacy backend only; ``num_trees`` (the
    tree-packing knob of the Theorem 4.16 substitute) has no effect on
    the engine backend.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected one of {BACKENDS}")
    if backend == "engine":
        return _weighted_girth_engine(graph)
    NegativeWeightError.check(graph.weights)
    if graph.num_faces() < 2:
        return None

    host = DualMAHost(graph, ledger=ledger)
    ma = host.ma_graph()

    # Lemma 4.15: self-loops out, parallel bundles summed
    representative = deactivate_parallel_edges(ma, lambda a, b: a + b)
    host.charge(ma, "girth/simplify-dual")

    active = ma.active_edges()
    nodes = sorted({e.u for e in active} | {e.v for e in active})
    edges = [(e.u, e.v) for e in active]
    weights = [e.weight for e in active]
    eids = [e.eid for e in active]

    res = minor_aggregate_mincut(nodes, edges, weights,
                                 num_trees=num_trees)
    congest = 0
    if ledger is not None:
        congest = ledger.total()
        ledger.charge(res.ma_rounds * host.pa_rounds, "girth/ma-mincut",
                      detail=f"{res.ma_rounds} MA rounds",
                      ref="Theorem 4.16 via Theorem 4.14")
        congest = ledger.total()

    # map the simple-graph cut edges back through the parallel bundles
    # to primal edge ids (Fact 3.1: they are a cycle of G)
    cycle = []
    for i in res.cut_edge_ids:
        for orig_eid in representative[eids[i]]:
            cycle.append(orig_eid)
    cycle.sort()

    # the cut's bundle weights sum the cycle's weights in another order
    # (a float sum may differ in the last bits, within the slack of
    # _warm_bound); the value reported is the edge-id-order sum.  The
    # min-cut's own res.value is a subtree sum over every edge, whose
    # rounding is not bounded by the cut's.
    value = sum(graph.weights[e] for e in cycle)
    cut = sum(weights[i] for i in res.cut_edge_ids)
    if abs(value - cut) > _sum_slack(len(cycle)) * abs(value):
        raise SimulationError(
            f"bundled cut weight {cut!r} differs from its cycle's "
            f"weight {value!r} beyond float rounding")
    return _girth_result(graph, value, cycle, ma_rounds=res.ma_rounds,
                         congest_rounds=congest)


def _weighted_girth_engine(graph):
    """Engine backend: minimum dart-simple cycle of the compiled primal
    (cycle-cut duality makes it the minimum cut of G*)."""
    from repro.engine.cycles import min_dart_simple_cycle

    # synced before the forest check, so a negative weight is refused
    # on a forest too, as on the legacy backend
    oracle = DualMAHost(graph, backend="engine").engine_cycle_oracle()
    if graph.num_faces() < 2:
        return None
    bound = _warm_bound(graph.weights, oracle.last_cycle)
    value, darts = min_dart_simple_cycle(oracle, range(graph.n),
                                         best=(bound, None),
                                         bounds=oracle.lb)
    if darts is None:
        if bound == math.inf:  # a connected graph with >= 2 faces has one
            return None
        raise SimulationError(
            f"no cycle below the warm girth bound {bound!r}")
    # summed in walk order, as the sweep summed it: a float sum in
    # another order may differ in the last bits
    assert value == sum(graph.weights[d >> 1] for d in darts), \
        "cycle weight mismatch"
    cycle = sorted({d >> 1 for d in darts})
    result = _girth_result(graph, value, cycle, ma_rounds=0,
                           congest_rounds=0)
    oracle.last_cycle = cycle
    return result


def _warm_bound(weights, cycle):
    """A bound just above w'(C), the weight of the last girth cycle C
    under the current ``weights`` (∞ before the first girth).

    Integer weights sum exactly, so ``w'(C) + 1`` keeps every cycle of
    weight ≤ w'(C).  A float sum of |C| terms is off by at most
    (|C|−1)·2^-53 of the total in any order (plus 2^-53 per term where
    an int is converted), and the sweep sums C in another order than
    here; the relative slack (|C|+1)·2^-52 covers both sums, and
    ``nextafter`` puts B strictly above the result.
    """
    if cycle is None:
        return math.inf
    total = sum(weights[e] for e in cycle)
    if isinstance(total, int):
        return total + 1
    return math.nextafter(total * (1 + _sum_slack(len(cycle))), math.inf)


def _sum_slack(terms):
    """Relative bound (|C|+1)·2^-52 on how far two float sums of the
    same ``terms`` weights, added in different orders, can differ (see
    :func:`_warm_bound`)."""
    return (terms + 1) * 2.0 ** -52


def _girth_result(graph, value, cycle, ma_rounds, congest_rounds):
    from repro.engine.cycles import cycle_side_faces

    assert is_simple_cycle(graph, cycle), \
        "dual min cut did not dualize to a simple cycle"
    return GirthResult(value=value, cycle_edge_ids=cycle,
                       cut_side_faces=cycle_side_faces(graph, cycle),
                       ma_rounds=ma_rounds,
                       congest_rounds=congest_rounds)
