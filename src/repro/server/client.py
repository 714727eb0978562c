"""Client library for the query server: connection reuse, one-line
calls, client-side batching (DESIGN.md §10).

A :class:`ServiceClient` keeps one TCP connection open across calls
(reconnecting once, transparently, if the server dropped it between
calls) and mirrors the in-process serving API:

    with ServiceClient(host, port) as client:
        r = client.query(FlowQuery("g", 0, 99))       # QueryResult
        report = client.run(mixed_queries)            # BatchReport
        dists = client.distances("g", [(0, 5), (3, 7)])

Batching is where the network layer earns its keep: :meth:`run` ships
any query mix as **one** ``batch`` frame (one round-trip, fanned out
across all pool workers server-side), and it *coalesces* duplicate
queries before sending — the dominant pattern of a distance-heavy
workload, where many clients ask for the same few
``(graph, f, g)`` pairs, pays one label decode and one wire entry for
all of them.  Results come back in input order either way, bit-identical
to in-process :func:`~repro.service.queries.execute_query` (the wire
codec round-trips every result type exactly — ``tests/test_server.py``).
"""

from __future__ import annotations

import socket
import time

from repro import obs
from repro.errors import ProtocolError
from repro.server import wire
from repro.service.batch import BatchReport
from repro.service.queries import DistanceQuery, QueryResult


class ServiceClient:
    """Thin typed client over the NDJSON wire protocol."""

    def __init__(self, host="127.0.0.1", port=8423, timeout=None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = None
        self._file = None
        self._frame_id = 0
        #: round-trips replayed over a fresh connection after a
        #: transport drop, over this client's lifetime
        self.reconnects = 0
        self._last_retried = False

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------
    def connect(self):
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._file = self._sock.makefile("rwb")
        return self

    def close(self):
        if self._sock is not None:
            try:
                self._file.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._file = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------
    #: verbs safe to re-send after a dropped connection (see
    #: :data:`~repro.server.wire.VERBS`)
    _RETRY_VERBS = frozenset(
        verb for verb, safe in wire.VERBS.items() if safe)

    def _call(self, verb, **payload):
        with obs.span(f"client.{verb}", host=self.host,
                      port=self.port) as sp:
            self._last_retried = False
            self.connect()
            self._frame_id += 1
            frame = {"v": wire.PROTOCOL_VERSION, "id": self._frame_id,
                     "verb": verb}
            if sp.trace_id is not None:  # None: obs off, no trace field
                frame["trace"] = [sp.trace_id, sp.span_id]
            frame.update(payload)
            data = wire.encode_frame(frame)
            try:
                response = self._roundtrip(data)
            except (ConnectionResetError, BrokenPipeError, EOFError):
                # stale/dropped connection: reconnect once and retry,
                # but only for idempotent verbs — and never on a socket
                # timeout (also an OSError), which means the request
                # may still be executing server-side
                if verb not in self._RETRY_VERBS:
                    self.close()
                    raise
                self.close()
                self.connect()
                self.reconnects += 1
                self._last_retried = True
                sp.tag(retried=True)
                obs.inc("client.reconnects")
                response = self._roundtrip(data)
            if response.get("id") != frame["id"]:
                raise ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {frame['id']!r}")
            if not response.get("ok"):
                raise wire.exception_from_wire(response.get("error", {}))
            return response

    def _roundtrip(self, data):
        self._file.write(data)
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise EOFError("server closed the connection")
        return wire.decode_frame(line)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def ping(self):
        """Liveness + version handshake."""
        return self._call("ping")

    def query(self, query):
        """Serve one typed query; returns the
        :class:`~repro.service.queries.QueryResult` envelope (its
        :attr:`~repro.service.queries.QueryResult.retried` flag is set
        when the round-trip was replayed after a transport drop)."""
        response = self._call("query", query=wire.query_to_wire(query))
        envelope = wire.query_result_from_wire(query, response)
        envelope.retried = self._last_retried
        return envelope

    def run(self, queries, on_error="raise"):
        """Serve a query mix in one round-trip; returns a
        :class:`~repro.service.batch.BatchReport` in input order.

        Duplicate queries are coalesced client-side: each distinct
        query travels (and is served) once, and every *successful*
        duplicate gets the same (immutable) result object back — the
        sharing contract of the catalog's result cache.  Failed
        queries are never shared: every occurrence of a failing query
        gets a **fresh** exception instance rebuilt from its error
        frame, so two connections batching the same bad
        ``DistanceQuery`` (or one client retrying it) can each raise,
        annotate, and discard their own error without aliasing.

        ``on_error`` selects what a failed query does to the batch:
        ``"raise"`` (default) raises the first failure in input order;
        ``"return"`` keeps going and returns an error envelope
        (``result=None``, :attr:`~repro.service.queries.QueryResult.
        error` set) in that query's slot, so mixed batches report
        per-query outcomes — what the replay driver and the load
        generator need to count errors instead of dying on them.
        """
        if on_error not in ("raise", "return"):
            raise ProtocolError(f"on_error must be 'raise' or "
                                f"'return', got {on_error!r}")
        queries = list(queries)
        t0 = time.perf_counter()
        distinct = []
        index_of = {}
        for q in queries:
            if q not in index_of:
                index_of[q] = len(distinct)
                distinct.append(q)
        response = self._call(
            "batch", queries=[wire.query_to_wire(q) for q in distinct])
        payloads = response["results"]
        if len(payloads) != len(distinct):
            raise ProtocolError(
                f"batch answered {len(payloads)} of {len(distinct)} "
                f"queries")
        envelopes = []
        for q, p in zip(distinct, payloads):
            if p.get("ok", True):
                envelopes.append(wire.query_result_from_wire(q, p))
            else:
                envelopes.append(p.get("error", {}))  # raw error frame
        # expand back to input order; replicated successful duplicates
        # are warm hits against the first occurrence (zero extra serve
        # time), matching what run_batch's result cache would report —
        # while every failure occurrence rebuilds its own exception
        results = []
        seen = set()
        retried = self._last_retried
        for q in queries:
            env = envelopes[index_of[q]]
            if isinstance(env, dict):   # error frame, never coalesced
                exc = wire.exception_from_wire(env)
                if on_error == "raise":
                    raise exc
                env = QueryResult(query=q, backend=None, result=None,
                                  warm=False, seconds=0.0, error=exc)
            elif q in seen:
                env = QueryResult(query=q, backend=env.backend,
                                  result=env.result, warm=True,
                                  seconds=0.0)
            env.retried = retried
            seen.add(q)
            results.append(env)
        return BatchReport(results=results,
                           seconds=time.perf_counter() - t0)

    def distances(self, graph, pairs, backend="auto"):
        """Coalesced dual distances: one round-trip for many ``(f, g)``
        pairs on one graph — the cached Theorem 2.1 labels decode each
        distinct pair once (Lemma 2.2).  Returns the values in input
        order."""
        report = self.run(DistanceQuery(graph, f, g, backend=backend)
                          for f, g in pairs)
        return report.values()

    def register(self, name, graph, overwrite=False):
        """Register a graph on the server (and all pool workers)."""
        return self._call("register", name=name,
                          graph=wire.graph_to_wire(graph),
                          overwrite=overwrite)["registered"]

    def set_weights(self, name, weights=None, capacities=None):
        """Reprice a served graph in place, pool-wide."""
        weights = None if weights is None else list(weights)
        capacities = None if capacities is None else list(capacities)
        return self._call("set_weights", graph=name, weights=weights,
                          capacities=capacities)["repriced"]

    def mutate_weights(self, name, edges):
        """Delta-reprice a few edges pool-wide (DESIGN.md §11):
        cached labelings are repaired in place server-side instead of
        rebuilt.  ``edges`` maps edge id -> new weight (or is an
        iterable of pairs).  Returns the server's mutation report; a
        negative dual cycle raises the same
        :class:`~repro.errors.NegativeCycleError` (message and
        ``where``) a local build would."""
        items = edges.items() if hasattr(edges, "items") else edges
        return self._call("mutate_weights", graph=name,
                          edges=[[eid, w] for eid, w in items])["report"]

    def audit_labeling(self, name, leaf_size=None, backend="engine"):
        """Debug verb: server-side bit-parity audit of ``name``'s
        labeling — master catalog and every pool worker — against a
        from-scratch rebuild (see :meth:`~repro.service.catalog.
        GraphCatalog.audit_labeling`).  Raises
        :class:`~repro.errors.AuditError` on divergence; returns the
        reports otherwise."""
        return self._call("audit", graph=name, leaf_size=leaf_size,
                          backend=backend)["report"]

    def graphs(self):
        """Names registered on the server."""
        return self._call("graphs")["graphs"]

    def stats(self, worker_catalogs=True):
        """Server observability: cache hit/miss counters, per-query-type
        latency, worker occupancy (see
        :meth:`~repro.server.pool.WarmWorkerPool.stats`)."""
        return self._call("stats",
                          worker_catalogs=worker_catalogs)["stats"]

    def health(self, format="report"):
        """The server's liveness/SLO report (see
        :meth:`~repro.server.pool.WarmWorkerPool.health`): readiness
        state machine, per-worker heartbeat ages, rolling-window SLO
        verdicts and the last background audit.

        ``format="report"`` returns the JSON-safe report dict;
        ``format="prometheus"`` returns the gauge rendering as one
        string (what ``python -m repro.obs health`` prints)."""
        response = self._call("health", format=format)
        if format == "prometheus":
            return response["prometheus"]
        return response["health"]

    def exemplars(self, limit=None):
        """The server flight recorder's retained exemplar span trees —
        the slowest-K per window plus every errored query (see
        :class:`~repro.obs.FlightRecorder`).  Returns the recorder's
        dump dict; ``recording`` is False when the server runs without
        observability."""
        payload = {} if limit is None else {"limit": limit}
        return self._call("exemplars", **payload)["exemplars"]

    def metrics(self, format="snapshot"):
        """The server's aggregated :mod:`repro.obs` metrics registry
        (master + every worker delta shipped so far).

        ``format="snapshot"`` returns the JSON-safe registry snapshot
        dict; ``format="prometheus"`` returns the Prometheus
        text-exposition rendering as one string (what
        ``python -m repro.obs scrape`` prints).  Empty when the server
        runs with observability disabled.
        """
        response = self._call("metrics", format=format)
        if format == "prometheus":
            return response["prometheus"]
        return response["metrics"]


__all__ = ["ServiceClient"]
