"""The socket server: NDJSON frames over TCP, dispatched to a
:class:`~repro.server.pool.WarmWorkerPool` (DESIGN.md §10).

Stdlib only — a :class:`socketserver.ThreadingTCPServer` whose handler
threads read one request frame per line and block on the pool future
for the answer, so slow queries never stall other connections and a
``batch`` verb fans its queries out across *all* pool workers before
gathering.  Failures become typed error frames
(:func:`~repro.server.wire.exception_to_wire`); a handler never kills
the connection over a bad frame.

    pool = WarmWorkerPool(workers=4)
    pool.register("g", graph)
    pool.prewarm()
    pool.start()                      # fork AFTER warming, BEFORE serving
    with QueryServer(pool, host="0.0.0.0", port=8423) as server:
        server.serve_forever()

Note the order: the pool forks its workers before the server starts
accepting connections, so the fork happens while the process is still
single-threaded — handler threads only ever talk to already-running
workers through queues.
"""

from __future__ import annotations

import socketserver
import threading

from repro import obs
from repro.errors import ProtocolError, ServiceError
from repro.server import wire
from repro.server.pool import WarmWorkerPool


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            frame_id = None
            try:
                frame = wire.decode_frame(line)
                frame_id = frame.get("id")
                wire.check_version(frame)
                response = self.server.app.dispatch(frame)
            except Exception as exc:
                response = {"v": wire.PROTOCOL_VERSION, "id": frame_id,
                            "ok": False,
                            "error": wire.exception_to_wire(exc)}
            try:
                self.wfile.write(wire.encode_frame(response))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class QueryServer:
    """Serve a :class:`~repro.server.pool.WarmWorkerPool` over TCP.

    ``port=0`` binds an ephemeral port; read the actual address back
    from :attr:`address`.  :meth:`serve_forever` blocks;
    :meth:`start_background` runs the accept loop on a daemon thread
    (the in-process embedding the tests and the example use).
    """

    def __init__(self, pool, host="127.0.0.1", port=0,
                 flight_recorder=None):
        self.pool = pool
        # the flight recorder (DESIGN.md §15) is a span sink living in
        # the server process, where worker deltas are ingested: with
        # observability on it is created (or adopted) here and
        # registered so the ``exemplars`` verb has trees to dump
        self._own_recorder = False
        if flight_recorder is None and obs.enabled():
            flight_recorder = obs.FlightRecorder()
            self._own_recorder = True
        self.flight_recorder = flight_recorder
        if flight_recorder is not None:
            obs.add_sink(flight_recorder)
        self._server = _TCPServer((host, port), _Handler)
        self._server.app = self
        self._thread = None

    @property
    def address(self):
        """``(host, port)`` actually bound."""
        return self._server.server_address[:2]

    # ------------------------------------------------------------------
    def serve_forever(self):
        self._server.serve_forever()

    def start_background(self):
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True,
                                        name="repro-server-accept")
        self._thread.start()
        return self

    def shutdown(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self.flight_recorder is not None and self._own_recorder:
            obs.remove_sink(self.flight_recorder)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    def dispatch(self, frame):
        """One request frame -> one response frame (exceptions are the
        caller's to wrap as error frames).

        With :mod:`repro.obs` enabled, the frame's optional ``trace``
        field (``[trace_id, parent_span_id]``, attached client-side by
        :class:`~repro.server.client.ServiceClient`) is adopted as the
        ambient trace context, so the handler's ``server.<verb>`` span
        — and everything below it, down to the forked worker — stitches
        into the caller's trace.
        """
        verb = frame.get("verb")
        token = obs.activate_trace(frame.get("trace"))
        try:
            with obs.span(f"server.{verb}"):
                handler = self._HANDLERS.get(verb) \
                    if isinstance(verb, str) else None
                if handler is None:
                    raise ProtocolError(f"unknown verb {verb!r}")
                out = {"v": wire.PROTOCOL_VERSION, "id": frame.get("id"),
                       "ok": True}
                out.update(handler(self, frame))
                return out
        finally:
            obs.deactivate_trace(token)

    # ------------------------------------------------------------------
    # verb handlers: frame -> the verb's response fields
    # ------------------------------------------------------------------
    def _on_query(self, frame):
        # the worker ships a flow/cut/girth result encoded (wire.Body),
        # which encode_frame splices into the response as is
        q = wire.query_from_wire(frame.get("query"))
        return wire.query_result_to_wire(
            self.pool.submit(q, body=True).result())

    def _on_batch(self, frame):
        queries = frame.get("queries")
        if not isinstance(queries, list):
            raise ProtocolError("batch frame needs a 'queries' list")
        futures = [self.pool.submit(wire.query_from_wire(p), body=True)
                   for p in queries]
        # per-query outcomes: one failed query must not turn the whole
        # batch into an error frame (the other answers are already
        # computed), so each entry carries its own ok flag and, on
        # failure, its own typed error payload
        entries = []
        for f in futures:
            try:
                r = f.result()
            except Exception as exc:
                entries.append({"ok": False,
                                "error": wire.exception_to_wire(exc)})
            else:
                entry = {"ok": True}
                entry.update(wire.query_result_to_wire(r))
                entries.append(entry)
        return {"results": entries}

    def _on_register(self, frame):
        name = frame.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("register frame needs a 'name'")
        graph = wire.graph_from_wire(frame.get("graph"))
        self.pool.register(name, graph,
                           overwrite=bool(frame.get("overwrite")))
        return {"registered": name}

    def _on_set_weights(self, frame):
        name = frame.get("graph")
        self.pool.set_weights(name, weights=frame.get("weights"),
                              capacities=frame.get("capacities"))
        return {"repriced": name}

    def _on_mutate_weights(self, frame):
        edges = frame.get("edges")
        if not isinstance(edges, list):
            raise ProtocolError("mutate_weights frame needs an "
                                "'edges' [[eid, weight], ...] list")
        kwargs = {}
        if frame.get("max_dirty_frac") is not None:
            kwargs["max_dirty_frac"] = frame["max_dirty_frac"]
        return {"report": self.pool.mutate_weights(frame.get("graph"),
                                                   edges, **kwargs)}

    def _on_audit(self, frame):
        return {"report": self.pool.audit_labeling(
            frame.get("graph"), leaf_size=frame.get("leaf_size"),
            backend=frame.get("backend", "engine"))}

    def _on_stats(self, frame):
        return {"stats": self.pool.stats(
            worker_catalogs=bool(frame.get("worker_catalogs", True)))}

    def _on_metrics(self, frame):
        return _formatted(frame, "metrics", "snapshot",
                          self.pool.metrics(), obs.render_prometheus)

    def _on_health(self, frame):
        return _formatted(frame, "health", "report", self.pool.health(),
                          obs.render_health_prometheus)

    def _on_exemplars(self, frame):
        limit = frame.get("limit")
        if limit is not None and (not isinstance(limit, int)
                                  or limit < 1):
            raise ProtocolError("exemplars 'limit' must be a positive "
                                "integer")
        if self.flight_recorder is None:
            return {"exemplars": {"recording": False, "exemplars": [],
                                  "retained": 0, "pending": 0,
                                  "dropped": 0}}
        dump = self.flight_recorder.dump(limit)
        dump["recording"] = True
        return {"exemplars": dump}

    def _on_graphs(self, frame):
        return {"graphs": self.pool.catalog.names()}

    def _on_ping(self, frame):
        from repro import __version__

        return {"pong": True, "version": wire.PROTOCOL_VERSION,
                "repro": __version__}


#: verb -> handler, one ``_on_<verb>`` method per :data:`wire.VERBS` key
QueryServer._HANDLERS = {verb: getattr(QueryServer, f"_on_{verb}")
                         for verb in wire.VERBS}


def _formatted(frame, verb, default, report, prometheus):
    """A ``metrics``/``health`` response: ``report`` under ``verb`` in
    the ``default`` format, or its ``prometheus`` text rendering."""
    fmt = frame.get("format", default)
    if fmt == default:
        return {verb: report}
    if fmt == "prometheus":
        return {"prometheus": prometheus(report)}
    raise ProtocolError(f"unknown {verb} format {fmt!r}; expected "
                        f"{default!r} or 'prometheus'")


_DEFAULT_PREWARM = ("flow", "distance")


def serve(pool=None, host="127.0.0.1", port=0, graphs=None,
          prewarm=_DEFAULT_PREWARM, workers=None):
    """Convenience one-call server: build/warm/fork/serve.

    ``graphs`` maps name -> :class:`~repro.planar.graph.PlanarGraph`;
    returns the running (background) :class:`QueryServer` so the caller
    owns shutdown.  With ``pool`` given, ``graphs``/``prewarm``/
    ``workers`` must be None/default — the pool was configured by its
    owner.
    """
    if pool is None:
        pool = WarmWorkerPool(workers=workers)
        for name, graph in (graphs or {}).items():
            pool.register(name, graph)
        if prewarm:
            pool.prewarm(kinds=prewarm)
        pool.start()
    elif graphs or workers is not None or prewarm != _DEFAULT_PREWARM:
        raise ServiceError("pass either a configured pool or "
                           "graphs/prewarm/workers, not both")
    return QueryServer(pool, host=host, port=port).start_background()


__all__ = ["QueryServer", "serve"]
