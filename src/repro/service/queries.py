"""Typed queries, backend resolution, and single-query execution
(DESIGN.md §8).

A query is a frozen (hashable) dataclass naming a registered graph plus
the parameters of one theorem entry point:

* :class:`FlowQuery`   → :func:`repro.core.max_st_flow` (Theorem 1.2)
* :class:`CutQuery`    → :func:`repro.core.min_st_cut` (Theorem 6.1)
* :class:`GirthQuery`  → :func:`repro.core.weighted_girth` (Theorem 1.7)
* :class:`DistanceQuery` → dual distance decoded straight from the
  cached :class:`~repro.labeling.DualDistanceLabeling` (Lemma 2.2)

Each query names a backend: ``legacy`` — the round-audited reference,
``engine`` — the compiled-array fast path, or ``auto`` (the default),
which resolves to ``engine``: it is output-identical, and the legacy
backend exists for round audits, which a serving path does not
produce.  For a distance query the backend selects how the cold
Theorem 2.1 labeling build runs — the warm path always decodes from
the cached labels.  :func:`execute_query` dispatches with every level
of amortization the catalog offers:

1. **result memoization** — the resolved ``(query, backend)`` pair plus
   the graph's current weight/capacity fingerprint keys a result cache,
   so a repeated query is a dictionary lookup;
2. **artifact reuse** — a cold result still reuses the cached solver /
   labeling / compiled topology of every previous query on that graph.

Results are *bit-identical* to the corresponding per-call entry point
on both backends (``tests/test_service.py``): the dispatch constructs
exactly the objects the one-shot functions construct, just cached.  A
cut is its pair's flow plus one residual sweep (Theorem 6.1), so a
:class:`CutQuery` reuses the memoized :class:`FlowQuery` result of the
same ``(s, t, directed)`` — and memoizes it on a miss, leaving the
flow warm.

**Ownership**: memoization means a warm hit returns the *same* result
object every caller of that query sees (that sharing is the speedup).
Treat served results as immutable; a caller that wants to edit e.g. a
flow assignment dict must copy it first — unlike the per-call entry
points, which build a fresh object per call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ServiceError
from repro.obs import trace as _obs_trace

#: backends a query may request; ``auto`` resolves to ``engine``
QUERY_BACKENDS = ("auto", "legacy", "engine")

_MISS = object()


@dataclass(frozen=True)
class FlowQuery:
    """Exact max st-flow (Theorem 1.2) against a registered graph."""

    graph: str
    s: int
    t: int
    directed: bool = True
    backend: str = "auto"
    validate: bool = True
    #: legacy-backend BDD knob (ignored by the engine)
    leaf_size: int | None = None


@dataclass(frozen=True)
class CutQuery:
    """Exact min st-cut (Theorem 6.1) against a registered graph."""

    graph: str
    s: int
    t: int
    directed: bool = True
    backend: str = "auto"
    leaf_size: int | None = None


@dataclass(frozen=True)
class GirthQuery:
    """Exact weighted girth (Theorem 1.7) of a registered graph."""

    graph: str
    backend: str = "auto"
    #: tree-packing knob of the legacy Theorem 4.16 substitute
    num_trees: int | None = None


@dataclass(frozen=True)
class DistanceQuery:
    """dist_{G*}(f → g) under :func:`~repro.service.catalog.
    default_dual_lengths`, decoded from the cached labels (Lemma 2.2).

    The warm path is always the label decode — that is what the
    labeling scheme exists for.  ``backend`` selects how the *cold*
    Theorem 2.1 construction runs on a miss (and after a
    ``set_weights`` reprice): the compiled-array builder of
    :mod:`repro.engine.labels` or the round-audited legacy recursion,
    resolved exactly like every other query type.
    """

    graph: str
    f: int
    g: int
    backend: str = "auto"
    leaf_size: int | None = None


@dataclass
class QueryResult:
    """Envelope for one served query."""

    query: object
    #: resolved backend ("legacy" / "engine"; for a DistanceQuery this
    #: is the backend the cold labeling build runs on)
    backend: str
    #: the underlying result object (MaxFlowResult, MinCutResult,
    #: GirthResult or None, or a plain distance number).  Shared with
    #: every other caller of the same query via the result cache —
    #: treat as immutable, copy before editing
    result: object
    #: True when the result came from the catalog's result cache
    warm: bool
    seconds: float = field(repr=False, default=0.0)
    #: the exception this query raised server-side, or None on
    #: success (only populated by error-returning batch surfaces, e.g.
    #: ``ServiceClient.run(on_error="return")``).  Each envelope owns
    #: a *fresh* exception instance — raising it, attaching context to
    #: it, or retrying the query never affects another envelope that
    #: answered the same query
    error: object = None
    #: True when the round-trip that served this envelope was replayed
    #: over a fresh connection after a transport drop (set client-side
    #: by :class:`~repro.server.client.ServiceClient`; always False for
    #: in-process serving).  Lets latency consumers — e.g. the load
    #: generator's percentile tables — distinguish queue wait from
    #: transport recovery
    retried: bool = False


def _backend(query):
    """The backend ``query`` runs on: an explicit ``backend`` wins and
    ``auto`` is the engine."""
    backend = query.backend
    if backend not in QUERY_BACKENDS:
        raise ServiceError(f"unknown backend {backend!r}; expected "
                           f"one of {QUERY_BACKENDS}")
    return "engine" if backend == "auto" else backend


def execute_query(catalog, query):
    """Serve one typed query from a :class:`~repro.service.catalog.
    GraphCatalog`; returns a :class:`QueryResult`.

    The result cache key embeds the resolved backend and the graph's
    current weight/capacity versions, so repeats are warm hits and
    in-place weight mutation is never served stale.

    With :mod:`repro.obs` enabled, each call runs inside a
    ``query.execute`` span — the per-query root when no trace context
    is active (this is where a trace id is minted), a child span when
    one arrived over the wire or in a pool query frame — and feeds the
    ``service.result.hit``/``miss`` counters, a per-kind latency
    histogram, and the rolling ``health.query_seconds.<kind>`` /
    ``health.error_seconds.<kind>`` windows that
    :mod:`repro.obs.health` evaluates SLOs against.
    """
    # the one instrumented site that keeps a disabled body (DESIGN.md
    # §13): a warm hit is a few microseconds, so even no-op span and
    # metric calls would show; it reads the flag itself, not
    # obs.enabled(), because the call alone would be ~1% of it
    if not _obs_trace._enabled:
        entry = catalog.get(query.graph)
        return _serve(catalog, entry, query, _backend(query))
    kind = type(query).__name__
    with obs.span("query.execute", kind=kind,
                  graph=query.graph) as sp:
        t0 = time.perf_counter()
        try:
            entry = catalog.get(query.graph)
            backend = _backend(query)
            sp.tag(backend=backend)
            r = _serve(catalog, entry, query, backend)
        except Exception:
            obs.inc(f"health.errors.{kind}")
            obs.observe_windowed(f"health.error_seconds.{kind}",
                                 time.perf_counter() - t0)
            raise
        sp.tag(warm=r.warm)
        obs.inc("service.result.hit" if r.warm
                else "service.result.miss")
        obs.observe(f"service.query_seconds.{kind}", r.seconds)
        obs.observe_windowed(f"health.query_seconds.{kind}", r.seconds)
        return r


def _serve(catalog, entry, query, backend, fp=None):
    """The uninstrumented serving core (cache probe + dispatch).

    ``fp`` is the entry's current fingerprint when the caller already
    has it (a cut serving its sibling flow).
    """
    if fp is None:
        fp = entry.fingerprint()

    t0 = time.perf_counter()
    key = ("result", query.graph, query, backend, fp.weights,
           fp.capacities)
    cached = catalog.results.get(key, _MISS)
    if cached is not _MISS:
        return QueryResult(query=query, backend=backend, result=cached,
                           warm=True, seconds=time.perf_counter() - t0)

    result = _dispatch(catalog, entry, query, backend, fp)
    catalog.results.put(key, result)
    return QueryResult(query=query, backend=backend, result=result,
                       warm=False, seconds=time.perf_counter() - t0)


class _ServedFlow:
    """The ``solver=`` a served cut hands :func:`~repro.core.min_st_cut`:
    :meth:`solve` answers the cut's sibling :class:`FlowQuery` through
    :func:`_serve`, so a memoized flow is reused and a missing one is
    solved once and memoized for later flow queries of the pair."""

    def __init__(self, catalog, entry, flow_query, backend, fp):
        self.graph = entry.graph
        self.directed = flow_query.directed
        self.backend = backend
        self._serve_args = (catalog, entry, flow_query, backend, fp)

    def solve(self, s, t):
        served = _serve(*self._serve_args)
        obs.inc("service.cut.flow.hit" if served.warm
                else "service.cut.flow.miss")
        return served.result


def _dispatch(catalog, entry, query, backend, fp):
    """Run the underlying entry point with the catalog's artifacts."""
    if isinstance(query, FlowQuery):
        solver = entry.flow_solver(directed=query.directed,
                                   backend=backend,
                                   leaf_size=query.leaf_size)
        return solver.solve(query.s, query.t, validate=query.validate)

    if isinstance(query, CutQuery):
        from repro.core import min_st_cut

        # Theorem 6.1: the cut is the max flow plus one residual sweep,
        # and the flow is the pair's own (memoized) FlowQuery
        flow = FlowQuery(query.graph, query.s, query.t,
                         directed=query.directed, backend=query.backend,
                         validate=True, leaf_size=query.leaf_size)
        return min_st_cut(entry.graph, query.s, query.t,
                          directed=query.directed,
                          solver=_ServedFlow(catalog, entry, flow,
                                             backend, fp))

    if isinstance(query, GirthQuery):
        from repro.core import weighted_girth

        # the engine's cycle oracle is shared-cached per weight
        # fingerprint (repro._artifacts), so repeats are warm there too
        return weighted_girth(entry.graph, num_trees=query.num_trees,
                              backend=backend)

    if isinstance(query, DistanceQuery):
        labeling = entry.labeling(leaf_size=query.leaf_size,
                                  backend=backend)
        return labeling.distance(query.f, query.g)

    raise ServiceError(f"unknown query type {type(query).__name__}")
