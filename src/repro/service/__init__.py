"""repro.service — the query-serving layer (DESIGN.md §8).

Everything below this package treats a call as a cold start; everything
above a production workload is *queries against graphs that were
registered once*.  This layer closes the gap:

* :class:`~repro.service.catalog.GraphCatalog` — named graphs plus
  owned, LRU-bounded :class:`~repro._artifacts.ArtifactCache`\\ s of the
  expensive derived objects (compiled CSR topology, flow solvers with
  their reusable workspaces, BDDs, Theorem 2.1 labelings, workspace
  pools) and of memoized query results, keyed by weight/capacity
  fingerprints so in-place mutation can never serve stale answers;
* :mod:`~repro.service.queries` — typed requests (:class:`FlowQuery`,
  :class:`CutQuery`, :class:`GirthQuery`, :class:`DistanceQuery`), one
  :class:`QueryPlanner` resolving each to the legacy or engine backend,
  and :func:`execute_query`;
* :mod:`~repro.service.batch` — :func:`run_batch` for many queries over
  one hot catalog, :func:`run_sharded` for multi-graph fan-out over
  worker processes.

Results are bit-identical to the per-call entry points of
:mod:`repro.core` and :mod:`repro.labeling` on both backends
(``tests/test_service.py``); ``benchmarks/bench_service.py`` measures
the warm-over-cold throughput the amortization buys.  ``python -m
repro.service`` runs a self-contained demo.
"""

from repro._artifacts import ArtifactCache, Fingerprint, graph_fingerprint
from repro.service.batch import BatchReport, run_batch, run_sharded
from repro.service.catalog import (
    CatalogEntry,
    CatalogSnapshot,
    GraphCatalog,
    default_dual_lengths,
)
from repro.service.queries import (
    CutQuery,
    DistanceQuery,
    FlowQuery,
    GirthQuery,
    QueryPlanner,
    QueryResult,
    execute_query,
)

__all__ = [
    "ArtifactCache",
    "Fingerprint",
    "graph_fingerprint",
    "GraphCatalog",
    "CatalogEntry",
    "CatalogSnapshot",
    "default_dual_lengths",
    "FlowQuery",
    "CutQuery",
    "GirthQuery",
    "DistanceQuery",
    "QueryPlanner",
    "QueryResult",
    "execute_query",
    "BatchReport",
    "run_batch",
    "run_sharded",
]
