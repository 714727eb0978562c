"""Simulating minor-aggregation algorithms on the dual graph G*
(Theorems 4.10 and 4.14).

:class:`DualMAHost` owns the face-disjoint graph Ĝ, its measured
shortcut quality, and the conversion rate between MA rounds on ``G*``
(or a virtual ``G*_virt``) and CONGEST rounds on ``G``:

    CONGEST rounds  =  MA rounds × PA-cost(Ĝ) × Ĝ-overhead × β

with β the virtual-node multiplier of Lemma 4.13.  Algorithms obtain a
:class:`~repro.aggregation.model.MinorAggregationGraph` over the dual
nodes from the host and run unchanged; on completion the host charges
the ledger.

``backend="engine"`` builds the *array-backed* host instead
(DESIGN.md §7): no shortcut machinery, no Ĝ, no round conversion — the
host serves the dart-level cycle oracle of the primal topology that the
engine girth (Theorem 1.7) extracts dual cuts from, by cycle-cut duality
(Fact 3.1).  There is one oracle per topology in the shared cache; a
weight write rewrites only the written edges' arcs on the next use, and
the oracle keeps the last girth cycle to bound the next sweep and a
lower bound per vertex to skip sources by.  On this
backend :meth:`charge` is a no-op and ``pa_rounds`` is 0: the engine
leaves the ledger unaudited, exactly like the flow engine (DESIGN.md
§2/§6).
"""

from __future__ import annotations

from repro._artifacts import shared_cache, topo_token
from repro.aggregation.model import MinorAggregationGraph

BACKENDS = ("legacy", "engine")


class DualMAHost:
    """Host for minor-aggregation algorithms on G*."""

    def __init__(self, primal, ledger=None, backend="legacy"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        self.primal = primal
        self.ledger = ledger
        self.backend = backend
        if backend == "legacy":
            from repro.shortcuts.partwise import DualPartwiseHost

            self.pa = DualPartwiseHost(primal, ledger=ledger)
            self.dual = self.pa.dual
            self._oracle = None
        else:
            self.pa = None
            self.dual = None
            from repro.engine.cycles import PrimalCycleOracle

            # shared-cached like compile_graph, one oracle per topology:
            # engine_cycle_oracle syncs its arc lengths with the weights
            self._oracle = shared_cache().get_or_build(
                ("cycle-oracle", topo_token(primal)),
                lambda: PrimalCycleOracle(primal))

    @property
    def pa_rounds(self):
        return self.pa.pa_rounds if self.pa is not None else 0

    def ma_graph(self, weights=None, directed_reversals=False):
        """A fresh MA graph over the dual nodes.

        Edges are the undirected dual edges (one per primal edge), with
        ``weights`` defaulting to primal edge weights.  Each node/edge of
        the MA graph is simulated by the corresponding face cycle / E_C
        endpoints of Ĝ (Theorem 4.10); the identification costs one
        component-detection pass on Ĝ[E_R] (Property 4)."""
        if self.ledger is not None and self.backend == "legacy":
            self.ledger.charge(self.pa_rounds, "dual-ma/identify-faces",
                               ref="Ĝ Property 4 / Thm 4.10")
        faces = list(range(self.primal.num_faces()))
        edges = []
        w = []
        for eid in range(self.primal.m):
            f = self.primal.face_of[2 * eid]
            g = self.primal.face_of[2 * eid + 1]
            edges.append((f, g))
            w.append(self.primal.weights[eid]
                     if weights is None else weights[eid])
        return MinorAggregationGraph(faces, edges, weights=w)

    def engine_cycle_oracle(self):
        """The primal cycle oracle of the engine backend, its arc
        lengths synced with the primal's current weights.

        Minimum cuts of G* are minimum dart-simple cycles of the primal
        (Fact 3.1); the oracle is loaded once per topology and its
        buffers are shared by every candidate-vertex query."""
        if self._oracle is None:
            raise ValueError("engine_cycle_oracle requires "
                             "backend='engine'")
        self._oracle.sync(self.primal.weights)
        return self._oracle

    def charge(self, ma_graph, phase, extra_detail=""):
        """Convert the MA rounds consumed so far into CONGEST rounds on
        G and charge the ledger (Theorem 4.10 / 4.14).  No-op on the
        engine backend (unaudited fast path)."""
        if self.ledger is None or self.backend == "engine":
            return 0
        beta = ma_graph.virtual_overhead
        rounds = ma_graph.ma_rounds * self.pa_rounds * beta
        self.ledger.charge(
            rounds, f"dual-ma/{phase}",
            detail=f"{ma_graph.ma_rounds} MA rounds x {self.pa_rounds} "
                   f"PA cost x beta={beta} {extra_detail}",
            ref="Theorem 4.10 / Theorem 4.14")
        ma_graph.ma_rounds = 0
        return rounds
