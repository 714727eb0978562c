"""Batched query execution: many queries against cached artifacts, and
a warm-pool path for multi-graph fan-out (DESIGN.md §8).

:func:`run_batch` serves a sequence of typed queries through one
catalog.  Amortization is automatic — the catalog's artifact cache
means the first flow query pays for the solver (compiled CSR +
workspace on the engine backend; BDD + dual bags on legacy) and every
later ``(s, t)`` pair against the same graph reuses it; the first
distance query pays for the Theorem 2.1 labeling and every later pair
decodes in label-size time (Lemma 2.2).  Results come back in input
order and are bit-identical to the per-call entry points.

:func:`run_sharded` fans a multi-graph batch out over the pre-warmed
worker pool of :mod:`repro.server.pool`: artifacts are built once in
the parent (per the query mix), the workers inherit them copy-on-write,
and every query is load-balanced over *all* workers — so a skewed mix
(10⁴ queries on one graph, 3 on another) never serializes behind the
one worker that owns the hot graph.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.service.queries import execute_query


@dataclass
class BatchReport:
    """Results (input order) plus serving statistics for one batch."""

    results: list
    seconds: float

    @property
    def warm_hits(self):
        """Results served from a warm result cache."""
        return sum(bool(r.warm) for r in self.results)

    @property
    def cold_misses(self):
        """Results executed cold."""
        return len(self.results) - self.warm_hits

    def values(self):
        """The bare result objects, in input order."""
        return [r.result for r in self.results]

    def by_kind(self):
        """Per query-type aggregates: count, warm hits, total seconds,
        queries/sec — the rows of the CLI throughput table."""
        rows = OrderedDict()
        for r in self.results:
            kind = type(r.query).__name__
            row = rows.setdefault(kind, {"count": 0, "warm": 0,
                                         "seconds": 0.0})
            row["count"] += 1
            row["warm"] += bool(r.warm)
            row["seconds"] += r.seconds
        for row in rows.values():
            row["qps"] = row["count"] / max(row["seconds"], 1e-9)
        return rows


def run_batch(catalog, queries):
    """Serve ``queries`` (any mix of types/graphs) through ``catalog``.

    Returns a :class:`BatchReport`; ``report.results[i]`` answers
    ``queries[i]``.
    """
    t0 = time.perf_counter()
    results = [execute_query(catalog, q) for q in queries]
    return BatchReport(results=results,
                       seconds=time.perf_counter() - t0)


# ----------------------------------------------------------------------
# multi-process fan-out
# ----------------------------------------------------------------------
def _prewarm_queries(queries):
    """One representative query per distinct *artifact signature* —
    what :func:`run_sharded` executes in the parent, pre-fork, so the
    workers inherit exactly the artifacts the mix will hit.

    The signature is the set of query fields the catalog's artifact
    keys depend on (graph, query type, direction, backend, knobs) —
    never the endpoints — so 10⁴ flow pairs warm one solver, while a
    ``leaf_size=9`` or ``backend="legacy"`` query warms *that* variant
    instead of an unused default build."""
    reps = OrderedDict()
    for q in queries:
        sig = (q.graph, type(q).__name__,
               getattr(q, "directed", None), q.backend,
               getattr(q, "leaf_size", None),
               getattr(q, "num_trees", None))
        reps.setdefault(sig, q)
    return list(reps.values())


def run_sharded(graphs, queries, max_workers=None, prewarm=True):
    """Fan a multi-graph batch out over worker processes.

    ``graphs`` maps name -> :class:`~repro.planar.graph.PlanarGraph`;
    every ``query.graph`` must name a key of ``graphs``.  Returns a
    :class:`BatchReport` with results in input order.

    Since the :class:`~repro.server.pool.WarmWorkerPool` rewrite this
    registers every graph in one master catalog, builds the artifacts
    the query mix needs **once** in the parent (``prewarm=True``: one
    representative query per distinct artifact signature — graph, type,
    direction, backend, knobs — runs pre-fork), forks ``max_workers``
    workers that inherit them copy-on-write, and load-balances the
    queries over all workers — so no query count skew between graphs
    can idle a worker, and no artifact is ever built twice.
    ``max_workers`` defaults to ``min(os.cpu_count(), #queries, 8)``.

    ``warm`` accounting in the report is per *worker* catalog: a
    repeated query may land on different workers and be cold in each
    until every copy has seen it.
    """
    from repro.errors import ServiceError

    queries = list(queries)
    for q in queries:
        if q.graph not in graphs:
            raise ServiceError(f"query names unknown graph "
                               f"{q.graph!r}; provided: "
                               f"{sorted(graphs)}")

    # lazy import: repro.server builds on repro.service, so the service
    # layer only reaches up from inside this call, never at import time
    from repro.server.pool import WarmWorkerPool

    if max_workers is None:
        import os

        max_workers = max(1, min(os.cpu_count() or 1, len(queries), 8))
    t0 = time.perf_counter()
    from repro._artifacts import shared_cache

    # topology tokens with shared-cache entries predating this call —
    # their graphs belong to the caller's own serving state and must
    # survive the cleanup below
    pre_shared_topos = {key[1] for key in shared_cache().keys()
                        if len(key) > 1}
    pool = WarmWorkerPool(workers=max_workers)
    try:
        for name, graph in graphs.items():
            pool.register(name, graph)
        if prewarm:
            for rep in _prewarm_queries(queries):
                try:
                    execute_query(pool.catalog, rep)
                except Exception:
                    # best-effort warming; the real serve reports the
                    # failure on the query that owns it
                    pass
        pool.start()
        report = pool.run(queries)
    finally:
        pool.close()
        # the warm pool builds in the parent, so free the shared-cache
        # entries (compiled CSR, bags, oracles) of graphs this call
        # introduced — but never those of a graph the caller was
        # already serving engine queries from before this call
        from repro._artifacts import topo_token

        for name, graph in graphs.items():
            if topo_token(graph) not in pre_shared_topos \
                    and name in pool.catalog:
                pool.catalog.unregister(name)
    report.seconds = time.perf_counter() - t0
    return report
