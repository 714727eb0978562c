"""The minor-aggregation model (Definition 4.7) and its extension with
virtual nodes (Definition 4.11).

Algorithms are written against :class:`MinorAggregationGraph`; every
contraction / consensus / aggregation step increments the MA round
counter.  A *host* (e.g. :class:`repro.aggregation.dual_sim.DualMAHost`)
converts MA rounds into CONGEST rounds using its measured part-wise
aggregation cost (Theorem 4.10 / Lemma 4.8), so the same algorithm code
serves both the primal and the dual simulation.

Virtual nodes (extended model): up to Õ(1) nodes may be added or may
replace existing nodes, arbitrarily connected; per Lemma 4.13 an MA round
on the virtual graph costs O(β) basic MA rounds with β the number of
virtual nodes — hosts account for this via :meth:`virtual_overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass
class MAEdge:
    eid: int
    u: int
    v: int
    weight: float = 1.0
    active: bool = True
    data: object = None


class MinorAggregationGraph:
    """Mutable minor of an input graph, with MA-round accounting."""

    def __init__(self, nodes, edges, weights=None, virtual_nodes=()):
        """``nodes``: iterable of hashable node ids.  ``edges``: list of
        (u, v) pairs (ids into ``nodes``); position = edge id.
        ``virtual_nodes``: subset of ``nodes`` that are virtual (extended
        model)."""
        self.nodes = list(nodes)
        self._node_set = set(self.nodes)
        self.edges = []
        for eid, (u, v) in enumerate(edges):
            if u not in self._node_set or v not in self._node_set:
                raise SimulationError(f"edge ({u},{v}) references unknown node")
            w = 1.0 if weights is None else weights[eid]
            self.edges.append(MAEdge(eid=eid, u=u, v=v, weight=w))
        self.virtual_nodes = set(virtual_nodes)
        self._uf = {v: v for v in self.nodes}
        self.ma_rounds = 0

    # ------------------------------------------------------------------
    # union-find over supernodes
    # ------------------------------------------------------------------
    def find(self, v):
        r = v
        while self._uf[r] != r:
            r = self._uf[r]
        while self._uf[v] != r:
            self._uf[v], v = r, self._uf[v]
        return r

    def supernode_members(self):
        groups = {}
        for v in self.nodes:
            groups.setdefault(self.find(v), []).append(v)
        return groups

    def supernodes(self):
        return sorted(self.supernode_members().keys(),
                      key=lambda x: str(x))

    # ------------------------------------------------------------------
    # the three MA steps
    # ------------------------------------------------------------------
    def contract(self, edge_flags):
        """Contraction step: union endpoints of active edges whose flag
        is 1.  ``edge_flags``: dict eid -> bool (missing = 0)."""
        self.ma_rounds += 1
        for e in self.edges:
            if not e.active:
                continue
            if edge_flags.get(e.eid):
                ru, rv = self.find(e.u), self.find(e.v)
                if ru != rv:
                    self._uf[ru] = rv

    def consensus(self, node_values, op, identity=None):
        """Consensus step: each supernode folds its members' values; all
        members learn the result.  Returns dict node -> supernode value."""
        self.ma_rounds += 1
        acc = {}
        for v in self.nodes:
            if v not in node_values:
                continue
            r = self.find(v)
            acc[r] = node_values[v] if r not in acc \
                else op(acc[r], node_values[v])
        if identity is not None:
            for r in self.supernode_members():
                acc.setdefault(r, identity)
        return {v: acc.get(self.find(v)) for v in self.nodes}

    def aggregate(self, edge_fn, op, identity=None):
        """Aggregation step: every active minor edge (between distinct
        supernodes) contributes values to its two endpoints.

        ``edge_fn(edge, super_u, super_v) -> (z_for_u, z_for_v) | None``.
        Returns dict node -> folded value over incident minor edges.
        """
        self.ma_rounds += 1
        acc = {}

        def push(r, z):
            if z is None:
                return
            acc[r] = z if r not in acc else op(acc[r], z)

        for e in self.edges:
            if not e.active:
                continue
            ru, rv = self.find(e.u), self.find(e.v)
            if ru == rv:
                continue
            res = edge_fn(e, ru, rv)
            if res is None:
                continue
            zu, zv = res
            push(ru, zu)
            push(rv, zv)
        if identity is not None:
            for r in self.supernode_members():
                acc.setdefault(r, identity)
        return {v: acc.get(self.find(v)) for v in self.nodes}

    # ------------------------------------------------------------------
    # bookkeeping helpers (free: purely local choices)
    # ------------------------------------------------------------------
    def deactivate(self, eids):
        for eid in eids:
            self.edges[eid].active = False

    def active_edges(self):
        return [e for e in self.edges if e.active]

    def reset_contractions(self):
        """Undo all contractions (used between phases of multi-pass
        algorithms; a fresh contraction step re-establishes state)."""
        self._uf = {v: v for v in self.nodes}

    @property
    def virtual_overhead(self):
        """β of Lemma 4.13: MA-round multiplier for the extended model."""
        return max(1, len(self.virtual_nodes))

    def add_virtual_node(self, node_id, neighbor_edges, weights=None):
        """Extended model: add an arbitrarily-connected virtual node
        (Definition 4.11 / Lemma 4.12).  ``neighbor_edges``: list of
        existing node ids to connect to.  Returns the new edge ids."""
        if node_id in self._node_set:
            raise SimulationError(f"node {node_id} already present")
        self.nodes.append(node_id)
        self._node_set.add(node_id)
        self.virtual_nodes.add(node_id)
        self._uf[node_id] = node_id
        new_ids = []
        for i, u in enumerate(neighbor_edges):
            eid = len(self.edges)
            w = 1.0 if weights is None else weights[i]
            self.edges.append(MAEdge(eid=eid, u=node_id, v=u, weight=w))
            new_ids.append(eid)
        self.ma_rounds += 1  # storing the virtual graph (Lemma 4.12)
        return new_ids
