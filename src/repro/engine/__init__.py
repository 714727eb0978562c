"""repro.engine — flat-array execution backend for the planar flow stack.

The distributed algorithms in :mod:`repro.core` and :mod:`repro.labeling`
are *simulations*: they follow the paper's knowledge-level protocol
(BDD, labels, minor aggregation) and charge CONGEST rounds to a ledger.
That fidelity is expensive in wall-clock time — every Miller–Naor
feasibility probe rebuilds dict-keyed dual capacities and labeling
structures from scratch, which caps the instance sizes the benchmarks
can reach.

This package is the centralized fast path.  It compiles an embedded
:class:`~repro.planar.graph.PlanarGraph` once into flat dart/face arrays
with a CSR view of the dual (:mod:`repro.engine.csr`) and keeps the
distance / parent / queue buffers of the shortest-path kernels alive in
a reusable :class:`~repro.engine.workspace.FlowWorkspace` across the
O(log λ) binary-search probes.  The engine produces *bit-identical
outputs* to the legacy dict backend (flow values and assignments, cut
bisections, dual distances) — parity is enforced by
``tests/test_engine_parity.py`` — it just gets there orders of magnitude
faster (``benchmarks/bench_engine.py``).

Two kernel families run on the compiled arrays:

* the Bellman–Ford workspaces (:mod:`repro.engine.workspace`) for the
  mixed-sign residual lengths of the flow family (Theorems 1.2/1.3,
  6.1/6.2, Lemma 2.2);
* the nonnegative-weight Dijkstra / dart-simple-cycle kernels
  (:mod:`repro.engine.dijkstra`, :mod:`repro.engine.cycles`) for the
  girth and global-min-cut family (Theorems 1.5/1.7), including the
  constrained best/second-best-distance driver of Section 7;
* the labeling kernels (:mod:`repro.engine.labels`) for the Theorem 2.1
  distance-label construction: compiled per-bag dual slices sharing the
  Bellman–Ford workspaces, batched leaf APSP, and the int-indexed
  Section 5.3 DDG relaxation — bit-identical labels, built on arrays;
* the decomposition kernels (:mod:`repro.engine.decomp`) for the
  Lemma 5.1 BDD construction: bit-packed all-pairs-BFS diameter, flat
  frontier-array separator BFS, vectorized dual-subtree weights and
  int edge-id bag splitting — bit-identical BDDs via
  ``build_bdd(graph, backend="engine")``.

Select the engine per call with ``backend="engine"`` on
:func:`repro.core.max_st_flow`, :func:`repro.core.min_st_cut`,
:func:`repro.core.approx_max_st_flow`,
:func:`repro.core.weighted_girth`,
:func:`repro.core.directed_weighted_girth`,
:func:`repro.core.directed_global_mincut`,
:meth:`repro.planar.dual.DualGraph.bellman_ford` and
:func:`repro.bdd.build_bdd`; the default
``backend="legacy"`` keeps the round-audited reference path.  See
DESIGN.md §6–§7 for the architecture and docs/API.md for the full
backend support matrix.
"""

from repro.engine.csr import CompiledPlanarGraph, compile_graph
from repro.engine.cycles import DartCycleOracle, cycle_side_faces
from repro.engine.decomp import DecompKernels, engine_diameter
from repro.engine.dijkstra import DijkstraWorkspace, TwoBestDijkstra
from repro.engine.labels import (
    CompiledBagSlice,
    CompiledLabelingBags,
    build_dual_labels_engine,
    compile_labeling_bags,
    dart_length_table,
)
from repro.engine.workspace import FlowWorkspace, dijkstra_undirected

__all__ = [
    "CompiledPlanarGraph",
    "compile_graph",
    "FlowWorkspace",
    "dijkstra_undirected",
    "DijkstraWorkspace",
    "TwoBestDijkstra",
    "DartCycleOracle",
    "cycle_side_faces",
    "DecompKernels",
    "engine_diameter",
    "CompiledBagSlice",
    "CompiledLabelingBags",
    "compile_labeling_bags",
    "build_dual_labels_engine",
    "dart_length_table",
]
