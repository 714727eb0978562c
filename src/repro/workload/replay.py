"""Replay a :class:`~repro.workload.scenario.Scenario` against a
serving surface and prove bit-parity against a reference replay
(DESIGN.md §12).

The replay driver walks a scenario's event schedule in timestamp
order — registrations, weight mutations, repricings, query bursts —
against any *executor*:

* :class:`CatalogExecutor` — a hot in-process
  :class:`~repro.service.catalog.GraphCatalog` (the single-threaded
  reference surface);
* :class:`PoolExecutor` — a running
  :class:`~repro.server.pool.WarmWorkerPool` (multi-process, no
  sockets);
* :class:`ClientExecutor` — a :class:`~repro.server.client.
  ServiceClient` talking NDJSON to a :class:`~repro.server.app.
  QueryServer` (the full over-the-wire stack).

Every query outcome (result *or* typed error) and every
``audit_labeling`` checkpoint lands in a :class:`ReplayLog` as a
canonical JSON record, and :meth:`ReplayLog.signature` renders the log
as canonical bytes — so "the pool served exactly what a single
catalog would have served" is checkable as *byte equality*:

    scenario = evacuation_scenario(rows=16, cols=16)
    reference = reference_replay(scenario)
    served = replay_scenario(scenario, ClientExecutor(client))
    assert_replay_parity(served, reference)   # ReplayDivergenceError

What is (and is not) signed: query outcomes travel through the wire
codecs (:func:`~repro.server.wire.result_to_wire` /
:func:`~repro.server.wire.exception_to_wire`), which round-trip every
result type exactly, so a served ``int`` vs reference ``float`` is a
divergence.  Audit checkpoints sign the deterministic report fields
(label/entry counts, error site) — and a pool audit must agree across
the master *and every worker* before it signs at all.  Mutation and
registration records sign their event content only: timings, cache
hit/miss flags and repair-vs-rebuild actions are execution details
that legitimately differ between a cold reference and a warm pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import (
    NegativeCycleError,
    ReplayDivergenceError,
    ServiceError,
)
from repro.workload.scenario import (
    MutateWeights,
    QueryBurst,
    Register,
    Scenario,
    SetWeights,
    _canonical_line,
    event_to_wire,
)


@dataclass(frozen=True)
class ReplayRecord:
    """One signed step of a replay: ``kind`` in {"register", "mutate",
    "set-weights", "query", "audit"}, ``payload`` the canonical
    JSON-safe dict that enters the signature."""

    kind: str
    payload: dict


@dataclass
class ReplayLog:
    """The ordered record stream one replay produced."""

    scenario: Scenario
    records: list = field(default_factory=list)

    def add(self, kind, payload):
        self.records.append(ReplayRecord(kind, payload))

    def signature(self):
        """Canonical bytes of the whole replay — byte-equal across any
        two replays that served bit-identical responses."""
        return b"".join(_canonical_line(r.payload) for r in self.records)

    def digest(self):
        """sha256 hex digest of :meth:`signature` (log-friendly)."""
        return hashlib.sha256(self.signature()).hexdigest()

    def query_outcomes(self):
        return [r.payload for r in self.records if r.kind == "query"]

    def audit_checkpoints(self):
        return [r.payload for r in self.records if r.kind == "audit"]


# ----------------------------------------------------------------------
# executors — one protocol, three serving surfaces
# ----------------------------------------------------------------------
def _query_outcome(query, ok, value):
    """The canonical signed payload of one served query: the query
    itself plus its result or typed error, through the wire codecs."""
    from repro.server import wire

    out = {"record": "query", "query": wire.query_to_wire(query)}
    if ok:
        out["outcome"] = {"ok": True,
                          "result": wire.result_to_wire(value)}
    else:
        out["outcome"] = {"ok": False,
                          "error": wire.exception_to_wire(value)}
    return out


def _audit_signature(report):
    """The deterministic slice of one ``audit_labeling`` report (counts
    and error site; backends and timings are execution details)."""
    return {"graph": report["graph"], "labels": report["labels"],
            "entries": report["entries"], "error": report["error"]}


class CatalogExecutor:
    """Replay against a hot in-process
    :class:`~repro.service.catalog.GraphCatalog` — the single-threaded
    reference surface every other executor is measured against."""

    def __init__(self, catalog):
        self.catalog = catalog

    def names(self):
        return self.catalog.names()

    def register(self, name, graph):
        self.catalog.register(name, graph)

    def run(self, queries):
        out = []
        for q in queries:
            try:
                out.append((True, self.catalog.serve(q).result))
            except Exception as exc:
                out.append((False, exc))
        return out

    def mutate(self, name, edges):
        # a negative dual cycle surfaces *here* only on a surface that
        # holds the labeling at mutate time (this catalog does; a
        # forked pool's master does not) — swallow it so the asymmetry
        # never enters the signature: the weights are applied either
        # way, and every subsequent query outcome and audit checkpoint
        # signs the identical error site on both surfaces
        try:
            self.catalog.mutate_weights(name, dict(edges))
        except NegativeCycleError:
            pass

    def set_weights(self, name, weights=None, capacities=None):
        self.catalog.set_weights(name, weights=weights,
                                 capacities=capacities)

    def audit(self, name, leaf_size=None):
        report = self.catalog.audit_labeling(name, leaf_size=leaf_size)
        return _audit_signature(report)


class PoolExecutor:
    """Replay against a running :class:`~repro.server.pool.
    WarmWorkerPool` (multi-process dispatch, no sockets).  Mutations
    go through the pool's broadcast + :meth:`~repro.server.pool.
    WarmWorkerPool.drain` barrier, so every signed query outcome is
    served under the weights the schedule says it should see."""

    def __init__(self, pool):
        self.pool = pool

    def names(self):
        return self.pool.catalog.names()

    def register(self, name, graph):
        self.pool.register(name, graph)

    def run(self, queries):
        futures = [self.pool.submit(q) for q in queries]
        out = []
        for f in futures:
            try:
                out.append((True, f.result().result))
            except Exception as exc:
                out.append((False, exc))
        return out

    def mutate(self, name, edges):
        try:
            self.pool.mutate_weights(name, dict(edges))
        except NegativeCycleError:
            pass  # same contract as CatalogExecutor.mutate
        self.pool.drain()

    def set_weights(self, name, weights=None, capacities=None):
        self.pool.set_weights(name, weights=weights,
                              capacities=capacities)
        self.pool.drain()

    def audit(self, name, leaf_size=None):
        report = self.pool.audit_labeling(name, leaf_size=leaf_size)
        return _merged_audit(report)


class ClientExecutor:
    """Replay over the wire through a :class:`~repro.server.client.
    ServiceClient` — the full stack (client codec, NDJSON frames,
    server dispatch, pool, worker catalogs) under one signature."""

    def __init__(self, client):
        self.client = client

    def names(self):
        return self.client.graphs()

    def register(self, name, graph):
        self.client.register(name, graph)

    def run(self, queries):
        report = self.client.run(queries, on_error="return")
        return [(env.error is None,
                 env.result if env.error is None else env.error)
                for env in report.results]

    def mutate(self, name, edges):
        try:
            self.client.mutate_weights(name, dict(edges))
        except NegativeCycleError:
            pass  # same contract as CatalogExecutor.mutate

    def set_weights(self, name, weights=None, capacities=None):
        self.client.set_weights(name, weights=weights,
                                capacities=capacities)

    def audit(self, name, leaf_size=None):
        report = self.client.audit_labeling(name, leaf_size=leaf_size)
        return _merged_audit(report)


def _merged_audit(report):
    """Collapse a pool-wide audit report (``{"master": ..., "workers":
    {wid: ...}}``) to one signature — after asserting the master and
    every worker agree on it.  A worker whose labels drifted from the
    master is itself a replay divergence, even though each copy passed
    its own rebuild audit."""
    if "master" not in report:        # bare catalog report
        return _audit_signature(report)
    sigs = [("master", _audit_signature(report["master"]))]
    for wid, wrep in sorted(report.get("workers", {}).items(),
                            key=lambda kv: str(kv[0])):
        sigs.append((f"worker {wid}", _audit_signature(wrep)))
    first = sigs[0][1]
    for who, sig in sigs[1:]:
        if sig != first:
            raise ReplayDivergenceError(
                f"pool audit disagreement: {who} reports {sig!r} but "
                f"master reports {first!r}", record=sig)
    return first


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def replay_scenario(scenario, executor, audit=True, leaf_size=None):
    """Run ``scenario`` through ``executor`` in schedule order;
    returns the :class:`ReplayLog`.

    Pre-scenario graphs (``scenario.graphs``) are registered first if
    the executor does not already serve them — a pool that registered
    and prewarmed them *before* forking keeps its warmth.  With
    ``audit=True`` (the default) every mutation event is followed by an
    ``audit_labeling`` checkpoint on the mutated graph, signed into the
    log; ``leaf_size`` is threaded through to the audits so they check
    the same BDD the queries use.
    """
    log = ReplayLog(scenario)
    known = set(executor.names())
    for name, spec in scenario.graphs:
        if name not in known:
            executor.register(name, spec.build())
            known.add(name)

    for event in scenario.events:
        if isinstance(event, Register):
            executor.register(event.name, event.spec.build())
            payload = event_to_wire(event)
            payload["record"] = "register"
            del payload["at"]
            log.add("register", payload)
        elif isinstance(event, MutateWeights):
            executor.mutate(event.graph, event.edges)
            log.add("mutate", {"record": "mutate",
                               "graph": event.graph,
                               "epoch": event.epoch,
                               "edges": [[eid, w]
                                         for eid, w in event.edges]})
            if audit:
                sig = executor.audit(event.graph, leaf_size=leaf_size)
                log.add("audit", {"record": "audit",
                                  "epoch": event.epoch, "audit": sig})
        elif isinstance(event, SetWeights):
            executor.set_weights(
                event.graph,
                weights=None if event.weights is None
                else list(event.weights),
                capacities=None if event.capacities is None
                else list(event.capacities))
            payload = event_to_wire(event)
            payload["record"] = "set-weights"
            del payload["at"]
            log.add("set-weights", payload)
            if audit:
                sig = executor.audit(event.graph, leaf_size=leaf_size)
                log.add("audit", {"record": "audit",
                                  "epoch": event.epoch, "audit": sig})
        elif isinstance(event, QueryBurst):
            for query, (ok, value) in zip(event.queries,
                                          executor.run(event.queries)):
                log.add("query", _query_outcome(query, ok, value))
        else:
            raise ServiceError(f"unknown event type "
                               f"{type(event).__name__}")
    return log


def reference_replay(scenario, audit=True, leaf_size=None):
    """The single-threaded ground truth: replay against a fresh
    private :class:`~repro.service.catalog.GraphCatalog`."""
    from repro.service.catalog import GraphCatalog

    catalog = GraphCatalog()
    return replay_scenario(scenario, CatalogExecutor(catalog),
                           audit=audit, leaf_size=leaf_size)


def assert_replay_parity(served, reference):
    """Byte-compare two replay logs record by record; raises
    :class:`~repro.errors.ReplayDivergenceError` naming the first
    diverging record, returns the number of compared records
    otherwise."""
    a, b = served.records, reference.records
    if len(a) != len(b):
        raise ReplayDivergenceError(
            f"replay lengths differ: served {len(a)} records vs "
            f"reference {len(b)}")
    for i, (ra, rb) in enumerate(zip(a, b)):
        if _canonical_line(ra.payload) != _canonical_line(rb.payload):
            raise ReplayDivergenceError(
                f"record {i} ({ra.kind}) diverged: served "
                f"{ra.payload!r} vs reference {rb.payload!r}",
                record=ra.payload)
    if served.signature() != reference.signature():
        raise ReplayDivergenceError(
            "record payloads match but signatures differ "
            "(canonical encoding bug)")
    return len(a)


__all__ = [
    "ReplayRecord",
    "ReplayLog",
    "CatalogExecutor",
    "PoolExecutor",
    "ClientExecutor",
    "replay_scenario",
    "reference_replay",
    "assert_replay_parity",
]
